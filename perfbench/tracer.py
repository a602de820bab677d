"""Span tracer for the traced benchmark run, and the per-layer metrics it yields.

The tracer replaces public pathshift functions with wrappers that record a
span (name, start, end, parent, attributes) around each call. Functions that
a module imports by value are patched at every binding that the program
calls through, e.g. ``pathshift.nuisance.train`` as well as
``pathshift.learners.fit_spec``. Spans stay in memory until the run ends.

A span name is ``<layer>.<operation>``; the layers are the package modules.
A layer's self time is the summed duration of its spans minus the time
covered by their child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("data", "learners", "nuisance", "estimators", "decomposition", "simulation", "oracle", "cli")

# every per-layer metric with its unit, in report order
PER_LAYER_UNITS = {
    "data.load_csv_s": "s",
    "data.load_csv_cells_per_s": "1/s",
    "data.build_frame_s": "s",
    "learners.stumps_s": "s",
    "learners.stumps_fits": "count",
    "learners.stumps_rounds": "count",
    "learners.sl_cv_s": "s",
    "learners.sl_refit_s": "s",
    "learners.sl_fits": "count",
    "learners.sl_dropped": "count",
    "learners.simplex_s": "s",
    "learners.two_part_s": "s",
    "learners.predict_s": "s",
    "learners.logistic_s": "s",
    "learners.irls_iterations": "count",
    "learners.separation_fallbacks": "count",
    "learners.linear_s": "s",
    "nuisance.pi_s": "s",
    "nuisance.g_s": "s",
    "nuisance.mu_s": "s",
    "nuisance.B_s": "s",
    "nuisance.C_B_s": "s",
    "nuisance.C_mu_s": "s",
    "nuisance.learner_fits": "count",
    "nuisance.duplicate_fit_frac": "fraction",
    "estimators.estimate_s": "s",
    "decomposition.contrast_s": "s",
    "decomposition.natural_s": "s",
    "decomposition.sequential_s": "s",
    "simulation.truth_s": "s",
    "simulation.truth_draws_per_s": "1/s",
    "simulation.generate_s": "s",
    "simulation.rep_s_p50": "s",
    "simulation.rep_s_p90": "s",
    "simulation.pool_efficiency": "fraction",
    "oracle.cascade_mc_s": "s",
    "oracle.mc_draws_per_s": "1/s",
    "oracle.enumerate_s": "s",
    "oracle.onestep_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}


def _fingerprint(value):
    if isinstance(value, np.ndarray):
        return ("array", value.shape, float(value.sum()))
    return repr(value)


class Tracer:
    """Records spans around patched calls; ``with tracer:`` patches, exit restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, attrs]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._fits_seen: set = set()

    def call(self, name, fn, args, kwargs, describe=None):
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, {}]
        self.spans.append(record)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if describe is not None:
            record[4] = describe(args, kwargs, result)
        return result

    def patch(self, owner, attr, name, describe=None, traced_model=False):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.call(name, original, args, kwargs, describe)
            return self.traced_model(result) if traced_model else result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def traced_model(self, model):
        """The fitted model with its predict function traced as ``learners.predict``."""
        predict = model.predict

        def traced_predict(*args, **kwargs):
            return self.call("learners.predict", predict, args, kwargs)

        return dataclasses.replace(model, predict=traced_predict)

    def nuisance_fit(self, args, kwargs, result):
        """Marks a learner fit requested by the nuisance layer, and whether the same
        (method, arguments, fold rows, frame) was already fitted in this run."""
        key = tuple(_fingerprint(a) for a in args) + tuple(sorted((k, _fingerprint(v)) for k, v in kwargs.items()))
        duplicate = key in self._fits_seen
        self._fits_seen.add(key)
        return {"nuisance_fit": True, "duplicate": duplicate}

    def __enter__(self):
        try:
            instrument(self)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        fields = ("name", "start", "end", "parent", "attrs")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(fields, span)) for span in self.spans], handle)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def instrument(tracer: Tracer) -> None:
    """Wrap the layer boundaries of pathshift that the benchmark workloads cross."""
    import pathshift.cli as cli
    import pathshift.decomposition as decomposition
    import pathshift.learners as learners
    import pathshift.nuisance as nuisance
    import pathshift.simulation as simulation

    patch = tracer.patch
    patch(cli, "main", "cli.main")
    patch(cli, "load_csv", "data.load_csv",
          describe=lambda a, k, ds: {"cells": ds.n_rows * len(ds.columns)})
    patch(cli, "build_frame", "data.build_frame")
    patch(cli, "decompose", "decomposition.decompose")
    patch(decomposition, "decompose_natural", "decomposition.natural")
    patch(decomposition, "decompose_sequential", "decomposition.sequential")
    patch(decomposition, "contrast", "decomposition.contrast")
    for module in (decomposition, simulation):
        patch(module, "estimate", "estimators.estimate")
        patch(module, "fit_all", "nuisance.fit_all")
    for method, label in (("pi", "pi"), ("g", "g"), ("_mu_entry", "mu"), ("_B_entry", "B"),
                          ("C_B", "C_B"), ("C_mu", "C_mu")):
        patch(nuisance.NuisanceCache, method, f"nuisance.{label}")
    patch(nuisance, "train", "learners.train", describe=tracer.nuisance_fit)
    patch(nuisance, "fit_two_part", "learners.fit_two_part", describe=tracer.nuisance_fit, traced_model=True)
    patch(learners, "fit_spec", "learners.fit_spec", traced_model=True,
          describe=lambda a, k, m: {"rows": _arg(a, k, 1, "x").shape[0]})
    patch(learners, "fit_super_learner", "learners.fit_super_learner", traced_model=True,
          describe=lambda a, k, m: {"rows": _arg(a, k, 1, "x").shape[0],
                                    "dropped": len(m.training_meta["dropped"])})
    patch(learners, "solve_simplex_weights", "learners.simplex")
    patch(learners, "fit_boosted_stumps", "learners.stumps",
          describe=lambda a, k, m: {"rounds": m.training_meta["iterations"]})
    patch(learners, "fit_logistic", "learners.logistic",
          describe=lambda a, k, m: {"iterations": m.training_meta["iterations"],
                                    "separation": bool(m.training_meta["separation_penalized"])})
    patch(learners, "fit_linear", "learners.linear")
    patch(simulation, "truth_for", "simulation.truth_for", describe=lambda a, k, t: {"draws": t.n_draws})
    patch(simulation, "run_grid", "simulation.run_grid")
    patch(simulation, "generate", "simulation.generate")
    # one replicate; the grid calls it by module name when it runs serially
    patch(simulation, "_run_one_rep", "simulation.replicate")
    patch(cli, "cascade_mc", "oracle.cascade_mc", describe=lambda a, k, r: {"draws": _arg(a, k, 2, "n_draws")})
    patch(cli, "enumerate_gamma", "oracle.enumerate")
    patch(cli, "one_step_population_value", "oracle.onestep")


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[list], pool_efficiency: float = 0.0, overhead_s: float = 0.0) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed as in ``PER_LAYER_UNITS``."""
    duration = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            covered[span[3]] += duration[i]
    total = defaultdict(float)
    count = defaultdict(int)
    self_time = defaultdict(float)
    attr_sum = defaultdict(float)
    for i, (name, _, _, parent, attrs) in enumerate(spans):
        self_time[name.split(".")[0]] += duration[i] - covered[i]
        for key, value in attrs.items():
            attr_sum[f"{name}:{key}"] += value
        if name == "learners.predict" and parent >= 0 and spans[parent][0] == "learners.predict":
            continue  # a predict inside a predict is already counted by its outermost span
        total[name] += duration[i]
        count[name] += 1
        if name == "learners.fit_spec" and parent >= 0 and spans[parent][0] == "learners.fit_super_learner":
            refit = attrs["rows"] == spans[parent][4]["rows"]
            total["sl_refit" if refit else "sl_cv"] += duration[i]

    reps = [duration[i] for i, span in enumerate(spans) if span[0] == "simulation.replicate"]
    fits = attr_sum["learners.train:nuisance_fit"] + attr_sum["learners.fit_two_part:nuisance_fit"]
    duplicates = attr_sum["learners.train:duplicate"] + attr_sum["learners.fit_two_part:duplicate"]
    out = {
        "data.load_csv_s": total["data.load_csv"],
        "data.load_csv_cells_per_s": _rate(attr_sum["data.load_csv:cells"], total["data.load_csv"]),
        "data.build_frame_s": total["data.build_frame"],
        "learners.stumps_s": total["learners.stumps"],
        "learners.stumps_fits": count["learners.stumps"],
        "learners.stumps_rounds": attr_sum["learners.stumps:rounds"],
        "learners.sl_cv_s": total["sl_cv"],
        "learners.sl_refit_s": total["sl_refit"],
        "learners.sl_fits": count["learners.fit_super_learner"],
        "learners.sl_dropped": attr_sum["learners.fit_super_learner:dropped"],
        "learners.simplex_s": total["learners.simplex"],
        "learners.two_part_s": total["learners.fit_two_part"],
        "learners.predict_s": total["learners.predict"],
        "learners.logistic_s": total["learners.logistic"],
        "learners.irls_iterations": attr_sum["learners.logistic:iterations"],
        "learners.separation_fallbacks": attr_sum["learners.logistic:separation"],
        "learners.linear_s": total["learners.linear"],
        "nuisance.pi_s": total["nuisance.pi"],
        "nuisance.g_s": total["nuisance.g"],
        "nuisance.mu_s": total["nuisance.mu"],
        "nuisance.B_s": total["nuisance.B"],
        "nuisance.C_B_s": total["nuisance.C_B"],
        "nuisance.C_mu_s": total["nuisance.C_mu"],
        "nuisance.learner_fits": fits,
        "nuisance.duplicate_fit_frac": _rate(duplicates, fits),
        "estimators.estimate_s": total["estimators.estimate"],
        "decomposition.contrast_s": total["decomposition.contrast"],
        "decomposition.natural_s": total["decomposition.natural"],
        "decomposition.sequential_s": total["decomposition.sequential"],
        "simulation.truth_s": total["simulation.truth_for"],
        "simulation.truth_draws_per_s": _rate(attr_sum["simulation.truth_for:draws"], total["simulation.truth_for"]),
        "simulation.generate_s": total["simulation.generate"],
        "simulation.rep_s_p50": float(np.percentile(reps, 50)) if reps else 0.0,
        "simulation.rep_s_p90": float(np.percentile(reps, 90)) if reps else 0.0,
        "simulation.pool_efficiency": pool_efficiency,
        "oracle.cascade_mc_s": total["oracle.cascade_mc"],
        "oracle.mc_draws_per_s": _rate(attr_sum["oracle.cascade_mc:draws"], total["oracle.cascade_mc"]),
        "oracle.enumerate_s": total["oracle.enumerate"],
        "oracle.onestep_s": total["oracle.onestep"],
        **{f"{layer}.self_s": self_time[layer] for layer in LAYERS},
        "trace.overhead_s": overhead_s,
    }
    return {name: float(out[name]) for name in PER_LAYER_UNITS}
