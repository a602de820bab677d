"""The benchmark's span tracer must find every pathshift name it wraps.

``perfbench/tracer.py`` patches functions and methods by name; renaming one
of them breaks traced benchmark runs. Entering and leaving the tracer, with
no workload run in between, catches that in a second. A small traced
``decompose --decomposition both`` run checks that the reports reach the
traced report builders and fit each nuisance once, and a traced truth checks
that its worker threads cross no traced boundary. A traced ``oracle-check``
must time each estimand's Monte-Carlo mean as one span.
"""

import importlib.util
import json
import os

from pathshift import cli, simulation
from pathshift.data import build_frame, load_csv, role_spec_from_config
from pathshift.decomposition import DecompositionConfig, decompose_natural, decompose_sequential
from pathshift.toys import fixture_path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_instruments_every_name_and_restores_it():
    tracer = _load_tracer().Tracer()
    with tracer:
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, attr
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, attr
    assert tracer.spans == []


def test_decompose_both_fits_each_nuisance_once(meps_like_csv, tmp_path):
    module = _load_tracer()
    _, cfg_path = meps_like_csv
    tracer = module.Tracer()
    with tracer:
        # one process: the spans of fits in pool workers never reach the tracer
        argv = ["decompose", "--config", cfg_path, "--out", str(tmp_path), "--seed", "4", "--decomposition", "both",
                "--threads", "1"]
        assert cli.main(argv) == 0
    metrics = module.layer_metrics(tracer.spans)
    assert metrics["nuisance.learner_fits"] > 0
    assert metrics["nuisance.duplicate_fit_frac"] == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("decomposition.natural") == 1
    assert names.count("decomposition.sequential") == 1

    with open(cfg_path, encoding="utf-8") as handle:
        cfg = json.load(handle)
    frame = build_frame(load_csv(cfg["data"]), role_spec_from_config(cfg))
    config = DecompositionConfig(learners=cli._nuisance_learners(cfg), seed=4)
    separate = [decompose_natural(frame, config).to_dict(), decompose_sequential(frame, config).to_dict()]
    payload = json.loads((tmp_path / "decomposition.json").read_text())
    assert payload["reports"] == json.loads(json.dumps(separate))


def test_traced_truth_records_only_its_own_span():
    # the truth threads must call no traced name: the tracer's span stack is
    # not shared safely between threads
    tracer = _load_tracer().Tracer()
    spec = simulation.DgpSpec("sim2_misspec")
    with tracer:
        simulation.truth_for(spec, simulation.RhoSpec.mediator(1), n_draws=simulation.TRUTH_CHUNK + 1)
    assert [span[0] for span in tracer.spans] == ["simulation.truth_for"]


def test_traced_oracle_check_records_one_cascade_span_per_call(capsys):
    # every estimand's Monte-Carlo mean comes from one shared cascade_mc call
    module = _load_tracer()
    tracer = module.Tracer()
    with tracer:
        assert cli.main(["oracle-check", "--fixture", fixture_path("toy_k1"), "--mc-draws", "5000", "--seed", "3"]) == 0
    estimand_lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  ")]
    assert len(estimand_lines) == 5  # dis, adv, direct, mediator(1), sequential(1)
    spans = [span for span in tracer.spans if span[0] == "oracle.cascade_mc"]
    assert [span[4] for span in spans] == [{"draws": 5000}]
    main = [i for i, span in enumerate(tracer.spans) if span[0] == "cli.main"]
    assert len(main) == 1 and spans[0][3] == main[0]
    assert module.layer_metrics(tracer.spans)["oracle.mc_draws_per_s"] > 0
