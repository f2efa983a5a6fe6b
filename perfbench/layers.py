"""Per-layer metrics of the traced run, computed from the tracer's spans.

The layers are the modules of ``src/mskd``. ``PER_LAYER`` lists every
metric the traced run reports, in the order of ``BENCHMARK.json``; the
note in ``perfbench/README.md`` says which end-to-end metric each should
move, on which workload.
"""

from __future__ import annotations

import numpy as np

LAYERS = ("runner", "core", "operators", "composition", "distill", "dynamics", "safety")

# Root spans opened by the worker around the runner's public path. The self
# time of ``runner.run_experiment`` is code no probe covers (suite glue and
# private helpers): the unattributed part of ``run_s``.
RUN_ROOTS = ("runner.run_experiment", "runner.emit")

# (metric, unit, source): source is ("span", name, field), ("count", key) or
# ("derived",) for the ratios and attribution figures computed below.
PER_LAYER = [
    ("core.sampler.draws", "count", ("count", "core.sampler.draws")),
    ("core.sampler.s", "s", ("span", "core.sampler", "s")),
    ("distill.sgd.steps", "count", ("count", "distill.sgd.steps")),
    ("distill.sgd.self_s", "s", ("span", "distill.sgd", "self_s")),
    ("distill.sgd.us_per_step", "us", ("derived",)),
    ("distill.eval.calls", "count", ("span", "distill.eval", "calls")),
    ("distill.eval.s", "s", ("span", "distill.eval", "s")),
    ("distill.compile.calls", "count", ("span", "distill.compile", "calls")),
    ("distill.compile.cells", "count", ("count", "distill.compile.cells")),
    ("distill.compile.s", "s", ("span", "distill.compile", "s")),
    ("composition.unified_weight.calls", "count", ("span", "composition.unified_weight", "calls")),
    ("composition.unified_weight.s", "s", ("span", "composition.unified_weight", "s")),
    ("composition.ensemble_target.calls", "count",
     ("span", "composition.ensemble_target", "calls")),
    ("composition.ensemble_target.s", "s", ("span", "composition.ensemble_target", "s")),
    ("operators.token.calls", "count", ("span", "operators.token", "calls")),
    ("operators.token.s", "s", ("span", "operators.token", "s")),
    ("operators.task.calls", "count", ("span", "operators.task", "calls")),
    ("operators.task.s", "s", ("span", "operators.task", "s")),
    ("operators.context.calls", "count", ("span", "operators.context", "calls")),
    ("operators.context.s", "s", ("span", "operators.context", "s")),
    ("operators.clip_normalize.calls", "count", ("span", "operators.clip_normalize", "calls")),
    ("operators.clip_normalize.s", "s", ("span", "operators.clip_normalize", "s")),
    ("core.normalize_exact.calls", "count", ("span", "core.normalize_exact", "calls")),
    ("core.normalize_exact.s", "s", ("span", "core.normalize_exact", "s")),
    ("distill.newton.solves", "count", ("span", "distill.newton", "calls")),
    ("distill.newton.blocks", "count", ("count", "distill.newton.blocks")),
    ("distill.newton.fgh_evals", "count", ("count", "distill.newton.fgh_evals")),
    ("distill.newton.s", "s", ("span", "distill.newton", "s")),
    ("safety.newton.solves", "count", ("span", "safety.newton", "calls")),
    ("safety.newton.fgh_evals", "count", ("count", "safety.newton.fgh_evals")),
    ("safety.newton.s", "s", ("span", "safety.newton", "s")),
    ("safety.dual.outer_iters", "count", ("count", "safety.dual.outer_iters")),
    ("safety.dual.s", "s", ("span", "safety.dual", "s")),
    ("safety.newton.solves_per_outer_iter", "ratio", ("derived",)),
    ("safety.expected_safety.calls", "count", ("span", "safety.expected_safety", "calls")),
    ("safety.expected_safety.s", "s", ("span", "safety.expected_safety", "s")),
    ("safety.kkt.s", "s", ("span", "safety.kkt", "s")),
    ("safety.jensen.s", "s", ("span", "safety.jensen", "s")),
    ("safety.pareto.s", "s", ("span", "safety.pareto", "s")),
    ("dynamics.weight_update.calls", "count", ("span", "dynamics.weight_update", "calls")),
    ("dynamics.weight_update.s", "s", ("span", "dynamics.weight_update", "s")),
    ("dynamics.fixed_point.iters", "count", ("count", "dynamics.fixed_point.iters")),
    ("dynamics.variance.samples", "count", ("count", "dynamics.variance.samples")),
    ("dynamics.variance.s", "s", ("span", "dynamics.variance", "s")),
    ("dynamics.perturbation.s", "s", ("span", "dynamics.perturbation", "s")),
    ("operators.conformance.samples", "count", ("count", "operators.conformance.samples")),
    ("operators.conformance.s", "s", ("span", "operators.conformance", "s")),
    ("runner.parse.s", "s", ("span", "runner.parse", "s")),
    ("core.world_build.s", "s", ("span", "core.world_build", "s")),
    ("runner.emit.s", "s", ("span", "runner.emit", "s")),
    ("runner.emit.bytes", "B", ("count", "runner.emit.bytes")),
    *[(f"layer.{layer}.self_s", "s", ("derived",)) for layer in LAYERS],
    ("unattributed.frac", "frac", ("derived",)),
    ("trace.run_s", "s", ("derived",)),
    ("trace.overhead_s", "s", ("derived",)),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def layer_metrics(tracer, run_s: float) -> dict:
    """Every per-layer metric except ``trace.overhead_s``, plus all counts.

    ``run_s`` is the traced worker's own timing of run plus emit.
    """
    summary = tracer.summary()
    per_name = summary["per_name"]
    nid, parent, top = summary["name_id"], summary["parent"], summary["top"]
    dur, self_t = summary["dur"], summary["self"]
    names = np.array(tracer.names + [""])  # "" for parent index -1

    def span(name: str, field: str):
        return per_name.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})[field]

    metrics = {}
    for name, _, source in PER_LAYER:
        if source[0] == "span":
            metrics[name] = span(source[1], source[2])
        elif source[0] == "count":
            metrics[name] = tracer.counts.get(source[1], 0)

    span_name = names[nid]
    parent_name = names[np.where(parent >= 0, nid[np.maximum(parent, 0)], -1)]
    steps = metrics["distill.sgd.steps"]
    loop_s = span("distill.sgd", "s") - float(
        dur[(span_name == "distill.compile") & (parent_name == "distill.sgd")].sum())
    metrics["distill.sgd.us_per_step"] = 1e6 * loop_s / steps if steps else 0.0
    outer = metrics["safety.dual.outer_iters"]
    dual_solves = int(((span_name == "safety.newton") & (parent_name == "safety.dual")).sum())
    metrics["safety.newton.solves_per_outer_iter"] = dual_solves / outer if outer else 0.0

    in_run = np.isin(span_name[top], RUN_ROOTS)
    layer_of = np.array([n.split(".")[0] for n in names])[nid]
    attributed = in_run & (span_name != "runner.run_experiment")
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = float(self_t[attributed & (layer_of == layer)].sum())
    covered = sum(metrics[f"layer.{layer}.self_s"] for layer in LAYERS)
    metrics["unattributed.frac"] = (run_s - covered) / run_s if run_s > 0 else 0.0
    metrics["trace.run_s"] = run_s

    # The three spans with the most inclusive time in each config's run.
    configs = []
    outer = attributed & ~summary["nested"]
    for r in np.unique(summary["run"][in_run]):
        sel = outer & (summary["run"] == r)
        incl = np.bincount(nid[sel], weights=dur[sel], minlength=len(tracer.names))
        configs.append([(tracer.names[i], float(incl[i]))
                        for i in np.argsort(-incl)[:3] if incl[i] > 0])

    counts = {f"{n}.calls": v["calls"] for n, v in per_name.items()}
    counts.update(tracer.counts)
    return {"metrics": metrics, "counts": counts, "configs": configs}
