"""The benchmark's span tracer must find every pathshift name it wraps.

``perfbench/tracer.py`` patches functions and methods by name; renaming one
of them breaks traced benchmark runs. Entering and leaving the tracer, with
no workload run in between, catches that in a second.
"""

import importlib.util
import os

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
