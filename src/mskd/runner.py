"""Experiment configuration, orchestration, persistence, and the CLI.

One JSON document describes one experiment: the world (vocabulary, inputs,
tasks, contexts, teacher table, scores), the operator selection per scale,
weight bounds, trainer settings, and the experiment kind with its
parameters. ``run_experiment`` dispatches to the library modules, collects
result tables and pass/fail assertions into a ``RunRecord``, and
``emit_summary`` writes one CSV per table plus a ``summary.json`` with
stable key order. CSV bodies are deterministic: two runs of the same config
produce byte-identical files.

CLI::

    mskd run <config.json> [--seed N] [--out DIR] [--quiet]
    mskd validate <config.json>
    mskd list-kinds

Exit codes: 0 pass, 1 assertion failure, 2 config error, 3 runtime error.
The environment variable ``AWKD_OUT`` supplies the default output directory.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from . import __version__
from .composition import UnifiedWeightOperator, uniform_unified, weighted_ensemble
from .core import (
    NONNEGATIVE,
    ContextSpec,
    InputSpec,
    MskdError,
    ParseError,
    TaskSpec,
    TeacherBank,
    VocabularySpec,
    WeightBounds,
    World,
    entropy,
    finite_sum,
    seeded_sampler,
    write_csv,
)
from .distill import (
    CompiledObjective,
    TrainerConfig,
    _fit_terms,
    _uniform_compiled,
    average_traces,
    classic_uniform_train,  # unused here; perfbench/probes.py wraps runner.classic_uniform_train
    compile_objective,
    fit_convergence_rate,
    sgd_train,  # unused here; perfbench/probes.py wraps runner.sgd_train
    solve_compiled,
    train_stack,
)
from .dynamics import (
    WeightUpdateConfig,
    estimate_contraction,
    gradient_variance_ratio,
    iterate_to_fixed_point,
    perturbation_experiment,
    sample_feasible_weights,
)
from .operators import (
    ContextOperator,
    TaskOperator,
    TokenOperator,
    check_conformance,
    check_pareto_compat,
    inverse_entropy_weights_from_entropies,
    uniform_weights,
)
from .params import KIND_CHECKS, PARAMS, WORLD_FIELDS, read_section, schema
from .safety import (
    SafetyConfig,
    dual_ascent_solve,
    expected_safety,
    jensen_preservation_check,
    kkt_residuals,
    pareto_sweep,
)

EXPERIMENT_KINDS = tuple(PARAMS)

CONFIG_FIELDS = ("kind", "seed", "world", "bounds", "operators", "trainer", "params", "out")
OPERATORS = {"token": TokenOperator, "task": TaskOperator, "context": ContextOperator}

OUTPUT_ENV_VAR = "AWKD_OUT"
FD_PROBES, FD_BUMPS, FD_STEP = 3, 8, 1e-5  # the rate suite's finite-difference gradient check


# ---------------------------------------------------------------------------
# Config parsing and validation
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    kind: str
    world: World
    bounds: WeightBounds
    operator: UnifiedWeightOperator
    trainer: TrainerConfig
    params: Mapping  # resolved: every field of the kind's schema, read-only
    seed: int
    out: str | None
    config_hash: str


def _canonical_hash(doc: dict) -> str:
    """Deterministic hash over the semantic config content (output path excluded)."""
    semantic = {k: v for k, v in doc.items() if k != "out"}
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _non_finite_paths(doc) -> list[str]:
    """Paths, in document order, of the NaN, infinite and float-overflowing numbers."""
    found, stack = [], [("", doc)]
    while stack:
        path, node = stack.pop()
        if isinstance(node, dict):
            stack += ((f"{path}.{key}", value) for key, value in node.items())
        elif isinstance(node, (list, tuple)) and not finite_sum(node):
            stack += ((f"{path}[{i}]", value) for i, value in enumerate(node))
        elif isinstance(node, (int, float)) and not finite_sum([node]):
            found.append(path.lstrip("."))
    return found[::-1]  # the stack visits the leaves last to first


def _collect(errors: list[str], section: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, or None after adding one line to ``errors`` if it raises."""
    try:
        return build(*args, **kwargs)
    except ParseError as exc:  # already one line per bad field
        errors += exc.args
    except (MskdError, LookupError, ValueError, TypeError, AttributeError, ArithmeticError) as exc:
        errors.append(f"{section}: {exc}")
    return None


def _build_world(wd: dict) -> World:
    """The world of the config's ``world`` object, after every object in it is read."""
    errors = []

    def read(kind: str, node, path: str):  # the object, or None after adding its errors
        return _collect(errors, path, read_section, node, WORLD_FIELDS[kind], f"{path}.")

    top = read_section(wd, WORLD_FIELDS["world"], "world.")
    vocab = read("vocab", top["vocab"], "world.vocab")
    inputs, tasks, contexts = ([read(kind, node, f"world.{kind}s[{i}]")
                                for i, node in enumerate(top[f"{kind}s"])]
                               for kind in ("input", "task", "context"))
    td = read("teachers", top["teachers"], "world.teachers")
    cells = [read("table cell", node, f"world.teachers.table[{i}]")
             for i, node in enumerate(td["table"] if td else [])]
    errors += [f"world.teachers.perf_scores: no scores for task {t['id']}"
               for t in tasks if t and td and str(t["id"]) not in td["perf_scores"]]
    if errors:
        raise ParseError(*errors)
    if inputs and not cells:  # an empty table: the line of World's first lookup, whatever the count
        raise MskdError(f"teacher table missing cell: no entries for input {inputs[0]['id']}")
    bank = TeacherBank(td["count"], {(c["input"], c["context"]): c["dists"] for c in cells},
                       {int(t): s for t, s in td["perf_scores"].items()}, td["safety_scores"])
    return World(VocabularySpec(vocab["size"], frozenset(vocab["safety_tokens"])),
                 [InputSpec(x["id"], np.array(x["features"], dtype=float)) for x in inputs],
                 [TaskSpec(t["id"], [x for x, _ in t["inputs"]], [w for _, w in t["inputs"]],
                           t["importance"]) for t in tasks],
                 [ContextSpec(c["id"], np.array(c["features"], dtype=float), c["measure_weight"],
                              c["safety_critical"]) for c in contexts], bank)


def _build(cls, node, path: str, **cli_defaults):
    """The config class ``cls`` built from the object at ``path``, read against its ``FIELDS``."""
    return cls(**read_section(node, schema(cls, **cli_defaults), f"{path}."))


def _build_bounds(bd: dict, world: World | None) -> WeightBounds:
    bounds = _build(WeightBounds, bd, "bounds")
    if world is not None:
        bounds.check_feasible(world.bank.k)
    return bounds


def _build_operator(ops: dict, world: World | None,
                    bounds: WeightBounds | None) -> UnifiedWeightOperator | None:
    """The unified operator, after each scale is read and built under its own path."""
    scales = read_section(ops, {scale: (dict, {}) for scale in OPERATORS}, "operators.")
    errors = []
    tok, task, ctx = [_collect(errors, f"operators.{scale}", _build, cls, scales[scale],
                               f"operators.{scale}") for scale, cls in OPERATORS.items()]
    if errors:
        raise ParseError(*errors)
    if world is not None:
        tok = replace(tok, safety_tokens=world.vocab.safety_tokens)
    return None if bounds is None else UnifiedWeightOperator(tok, task, ctx, bounds)


def parse_config_dict(doc: dict) -> ExperimentConfig:
    """Validate a config document, collecting every error before failing."""
    if not isinstance(doc, dict):
        raise ParseError("config root must be a JSON object")
    errors = [f"{path}: non-finite number" for path in _non_finite_paths(doc)]
    errors += [f"{name}: unknown field" for name in doc if name not in CONFIG_FIELDS]
    kind = doc.get("kind")
    if kind not in EXPERIMENT_KINDS:
        errors.append(f"kind: expected one of {EXPERIMENT_KINDS}, got {kind!r}")
    top = _collect(errors, "seed", read_section, {"seed": doc.get("seed", 0)},
                   {"seed": (int, 0, *NONNEGATIVE)}, "")
    seed = top and top["seed"]
    world = _collect(errors, "world", _build_world, doc.get("world", ...))
    bounds = _collect(errors, "bounds", _build_bounds, doc.get("bounds", {}), world)
    operator = _collect(errors, "operators", _build_operator, doc.get("operators", {}),
                        world, bounds)
    trainer = _collect(errors, "trainer", _build, TrainerConfig, doc.get("trainer", {}),
                       "trainer", seed=seed or 0)  # the trainer's seed defaults to the config's
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        errors.append("out: must be a string")
    params = None
    if kind in EXPERIMENT_KINDS:
        schema = PARAMS[kind]
        if "ridge" in schema and trainer and trainer.ridge:  # the trainer's ridge, if positive
            schema = {**schema, "ridge": (float, trainer.ridge, *schema["ridge"][2:])}
        params = _collect(errors, "params", read_section, doc.get("params", {}), schema,
                          "params.", world)
        errors += filter(None, (check(params, world, bounds, trainer)
                                for check in KIND_CHECKS.get(kind, ())))
    if errors:  # a non-finite number's line comes from the walk and from its section
        raise ParseError("invalid config:\n  - " + "\n  - ".join(dict.fromkeys(errors)))
    return ExperimentConfig(
        kind=kind, world=world, bounds=bounds, operator=operator, trainer=trainer,
        params=params, seed=seed, out=out, config_hash=_canonical_hash(doc),
    )


def _load(path):
    """The JSON document of the config file at ``path``."""
    p = Path(path)
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:  # missing, a directory, unreadable
        raise ParseError(f"config file {p} cannot be read: {exc.strerror or exc}")
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"config file {p} is not valid JSON: {exc}")


def parse_config(path) -> ExperimentConfig:
    """Load and validate a config file; reports all validation errors at once."""
    return parse_config_dict(_load(path))


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    config_hash: str
    kind: str
    version: str
    started: str
    finished: str = ""
    tables: dict = field(default_factory=dict)       # name -> (header, rows)
    assertions: list = field(default_factory=list)   # dicts

    @property
    def passed(self) -> bool:
        return all(a["pass"] for a in self.assertions)

    def check(self, name: str, measured, expected, tol: float | None = None,
              compare: str = "abs") -> bool:
        """Record one assertion: measured against expected within tolerance.

        ``compare``: 'abs' absolute difference, 'le' measured <= expected,
        'ge' measured >= expected, 'eq' exact equality.
        """
        if compare == "abs":
            ok = abs(float(measured) - float(expected)) <= float(tol)
        elif compare == "le":
            ok = float(measured) <= float(expected) + (tol or 0.0)
        elif compare == "ge":
            ok = float(measured) >= float(expected) - (tol or 0.0)
        elif compare == "eq":
            ok = measured == expected
        else:
            raise MskdError(f"unknown comparison {compare!r}")
        self.assertions.append({
            "name": name,
            "expected": expected if isinstance(expected, (int, float, str, bool)) else str(expected),
            "measured": measured if isinstance(measured, (int, float, str, bool)) else str(measured),
            "tol": tol if tol is not None else 0.0,
            "compare": compare,
            "pass": bool(ok),
        })
        return bool(ok)

    def add_table(self, name: str, header, rows) -> None:
        self.tables[name] = (list(header), [list(r) for r in rows])


# ---------------------------------------------------------------------------
# Experiment suites
# ---------------------------------------------------------------------------

def _run_appendix_a(cfg: ExperimentConfig, rec: RunRecord) -> None:
    world = cfg.world
    dists = world.bank.dists(world.inputs[0].id, world.contexts[0].id)
    given_h = cfg.params["given_entropies"]
    w_given = inverse_entropy_weights_from_entropies(given_h, cfg.bounds)
    rec.check("inverse_entropy_weight_1", float(w_given[0]), 0.69, 0.005)
    rec.check("inverse_entropy_weight_2", float(w_given[1]), 0.31, 0.005)
    q_uniform = weighted_ensemble(uniform_weights(world.bank.k, cfg.bounds), dists)
    for i, expect in enumerate((0.6, 0.25, 0.15)):
        rec.check(f"uniform_ensemble_{i}", float(q_uniform[i]), expect, 1e-12)
    q_adaptive = weighted_ensemble(w_given, dists)
    for i, expect in enumerate((0.676, 0.212, 0.112)):
        rec.check(f"adaptive_ensemble_{i}", float(q_adaptive[i]), expect, 5e-4)
    for i, reported in enumerate((0.68, 0.21, 0.11)):
        rec.check(f"adaptive_vs_reported_{i}", float(q_adaptive[i]), reported, 0.005)
    rec.check("adaptive_gain_on_truth", float(q_adaptive[0] - q_uniform[0]), 0.07, compare="ge")
    recomputed = [entropy(p) for p in dists]
    w_nats = inverse_entropy_weights_from_entropies(recomputed, cfg.bounds)
    rec.add_table("weights", ["scheme", "teacher_1", "teacher_2"], [
        ("given_entropies", w_given[0], w_given[1]),
        ("recomputed_nats", w_nats[0], w_nats[1]),
        ("uniform", 0.5, 0.5),
    ])
    rec.add_table("entropies", ["teacher", "given", "recomputed_nats"],
                  [(i + 1, given_h[i], recomputed[i]) for i in range(len(recomputed))])
    rec.add_table("ensembles", ["scheme"] + [f"token_{i}" for i in range(world.vocab.size)],
                  [("uniform", *q_uniform), ("adaptive", *q_adaptive)])


def _run_conformance(cfg: ExperimentConfig, rec: RunRecord) -> None:
    sampler = seeded_sampler(cfg.seed)
    rows = []
    for scale in cfg.params["scales"]:
        op = getattr(cfg.operator, f"{scale}_op")
        report = check_conformance(op, scale, cfg.world, cfg.bounds, sampler,
                                   cfg.params["n_samples"])
        for row in report.summary_rows():
            rows.append((op.family, *row))
        rows.append((op.family, scale, "lipschitz_estimate",
                     report.lipschitz_estimate <= cfg.bounds.lipschitz,
                     report.lipschitz_estimate, report.n_samples))
        rec.check(f"conformance_{scale}_{op.family}", report.all_passed, True, compare="eq")
    if "task" in cfg.params["scales"]:
        rec.check("pareto_compatibility", check_pareto_compat(), True, compare="eq")
    rec.add_table("conformance", ["family", "scale", "axiom", "passed", "worst_violation", "n"], rows)


def _run_train(cfg: ExperimentConfig, rec: RunRecord) -> None:
    tr, world = cfg.trainer, cfg.world
    runs = [(compile_objective(cfg.operator, world, tr.ridge), tr.seed)]
    if cfg.params["compare_classic"]:
        runs.append((_uniform_compiled(world, tr.ridge), tr.seed))
    (theta, trace), *classic = train_stack(runs, tr)
    rec.check("final_loss_finite", bool(np.isfinite(trace.loss[-1])), True, compare="eq")
    if classic:
        [(c_theta, c_trace)] = classic
        identical = (np.array_equal(theta, c_theta)
                     and np.array_equal(trace.loss, c_trace.loss)
                     and np.array_equal(trace.mean_kl, c_trace.mean_kl))
        rec.check("uniform_equals_classic_bitwise", identical, True, compare="eq")
    rec.add_table("trace", ["step", "loss", "mean_kl", "grad_norm", "lr"],
                  zip(trace.steps, trace.loss, trace.mean_kl, trace.grad_norm, trace.lr))


def _run_rate(cfg: ExperimentConfig, rec: RunRecord) -> None:
    compiled = compile_objective(cfg.operator, cfg.world, cfg.trainer.ridge)
    seeds = [cfg.trainer.seed + s for s in range(cfg.params["n_seeds"])]
    traces = [trace for _, trace in train_stack([(compiled, s) for s in seeds], cfg.trainer)]
    terminal_kl = [float(trace.mean_kl[-1]) for trace in traces]
    avg = average_traces(traces)
    loss_star = compiled.loss(solve_compiled(compiled, gtol=1e-10))
    fit = fit_convergence_rate(avg, loss_star)
    rec.check("terminal_mean_kl", float(np.mean(terminal_kl)), cfg.params["kl_tol"], compare="le")
    rec.check("rate_slope_low", fit.slope, cfg.params["slope_low"], compare="ge")
    rec.check("rate_slope_high", fit.slope, cfg.params["slope_high"], compare="le")
    fd_err = _gradient_fd_error(compiled, cfg.seed)
    rec.check("gradient_finite_difference", fd_err, 1e-6, compare="le")
    rec.add_table("trace_mean", ["step", "loss", "mean_kl", "grad_norm", "lr"],
                  zip(avg.steps, avg.loss, avg.mean_kl, avg.grad_norm, avg.lr))
    rec.add_table("rate_fit", ["slope", "constant", "loss_star", "n_tail_points"],
                  [(fit.slope, fit.constant, loss_star, fit.n_points)])
    rec.add_table("terminal_kl", ["seed", "mean_kl"], zip(seeds, terminal_kl))


def _gradient_fd_error(compiled: CompiledObjective, seed: int) -> float:
    """Worst gap between ``grad`` and central loss differences at random single-logit bumps."""
    sampler = seeded_sampler(seed)
    n, v = compiled.qbar.shape
    probes, at = [], []
    for _ in range(FD_PROBES):  # each probe's logits, then its bumps' (input, token) draws
        probes.append(sampler.normal(size=(n, v)))
        at += [(int(sampler.integers(0, n)), int(sampler.integers(0, v))) for _ in range(FD_BUMPS)]
    k, (xi, i), probes = np.arange(len(at)), np.array(at).T, np.array(probes)
    bumped = probes[k // FD_BUMPS, None].repeat(2, axis=1)  # (bump, +/-, N, V)
    bumped[k, 0, xi, i] += FD_STEP
    bumped[k, 1, xi, i] -= FD_STEP
    loss = _fit_terms(bumped, compiled.m_x, compiled.qbar, compiled.ridge,
                      compiled.target_neg_entropy)[0]
    fd = (loss[:, 0] - loss[:, 1]) / (2 * FD_STEP)
    gaps = np.abs(fd - compiled.grad(probes)[k // FD_BUMPS, xi, i])
    return max([0.0, *gaps.tolist()])  # the first largest gap, NaN gaps skipped, as a loop would


def identical_teachers_world(k: int = 3) -> World:
    """Every teacher identical: the weight-update target is constant."""
    bank = TeacherBank(k, {(0, 0): np.tile([0.4, 0.3, 0.2, 0.1], (k, 1))},
                       {0: np.full(k, 0.5)}, np.full(k, 0.5))
    return World(VocabularySpec(4), (InputSpec(0, np.array([0.0])),),
                 (TaskSpec(0, (0,), np.array([1.0]), 1.0),),
                 (ContextSpec(0, np.array([0.0]), 1.0),), bank)


def _run_fixed_point(cfg: ExperimentConfig, rec: RunRecord) -> None:
    beta = cfg.params["beta"]
    fp_cfg = WeightUpdateConfig(beta, cfg.params["max_iters"], cfg.params["tol"])
    sampler = seeded_sampler(cfg.seed)
    k = cfg.world.bank.k
    rho = estimate_contraction(fp_cfg, cfg.world, cfg.bounds, sampler, cfg.params["n_pairs"])
    rec.check("contraction_below_one", rho, 1.0 - 1e-9, compare="le")
    starts = np.vstack([uniform_weights(k, cfg.bounds),
                        sample_feasible_weights((cfg.params["n_starts"], k), cfg.bounds, sampler)])
    trace, *others = iterate_to_fixed_point(starts, fp_cfg, cfg.world, cfg.bounds)
    rec.check("iteration_converged", trace.converged, True, compare="eq")
    w_star = trace.w_star
    gap = np.max(np.abs(trace.iterates - w_star), axis=-1)
    bound = np.array([rho ** n for n in range(len(gap))]) * gap[0] * (1.0 + 1e-6) + 1e-12
    rec.check("geometric_envelope", not (gap > bound).any(), True, compare="eq")  # NaN passes
    spread = max([0.0] + [float(np.max(np.abs(tr.w_star - w_star))) for tr in others])
    rec.check("fixed_point_unique", spread, 1e-6, compare="le")
    control = identical_teachers_world(k)
    control_bounds = WeightBounds(lipschitz=cfg.bounds.lipschitz)
    rho_control = estimate_contraction(fp_cfg, control, control_bounds, sampler, 50)
    rec.check("constant_target_ratio", rho_control, 1.0 - beta, 1e-9)
    rec.add_table("fixed_point", ["iteration", "distance"],
                  list(enumerate(trace.distances, start=1)))
    rec.add_table("results", ["experiment", "parameter", "value"], [
        ("fixed_point", "rho_hat", rho),
        ("fixed_point", "rho_control", rho_control),
        ("fixed_point", "beta", beta),
        ("fixed_point", "start_spread", spread),
        *[("fixed_point", f"w_star_{i}", w_star[i]) for i in range(k)],
    ])


def _run_perturbation(cfg: ExperimentConfig, rec: RunRecord) -> None:
    result = perturbation_experiment(cfg.operator, cfg.world, cfg.params["deltas"],
                                     ridge=cfg.params["ridge"], seed=cfg.seed)
    rec.check("linear_fit_r_squared", result.r_squared, 0.95, compare="ge")
    rec.check("distance_ratio_spread", result.ratio_spread, 3.0, compare="le")
    rec.check("distances_monotone",
              bool(np.all(np.diff(result.distances) >= -1e-12)), True, compare="eq")
    rec.add_table("perturbation", ["delta", "distance"], result.rows())
    rec.add_table("results", ["experiment", "parameter", "value"], [
        ("perturbation", "slope_C", result.slope),
        ("perturbation", "r_squared", result.r_squared),
        ("perturbation", "ratio_spread", result.ratio_spread),
    ])


def _run_variance(cfg: ExperimentConfig, rec: RunRecord) -> None:
    theta = cfg.params["init_scale"] * seeded_sampler(cfg.seed).normal(
        size=(len(cfg.world.inputs), cfg.world.vocab.size))
    uni = uniform_unified(cfg.bounds, cfg.world.vocab.safety_tokens)
    res, res_u = gradient_variance_ratio([cfg.operator, uni], cfg.world, theta,
                                         cfg.params["n_samples"], seed=cfg.seed)
    rec.check("variance_within_bound", res.measured, res.bound, compare="le")
    rel = abs(res_u.measured - res_u.base) / res_u.base if res_u.base > 0 else 0.0
    rec.check("uniform_variance_matches_base", rel, 0.02, compare="le")
    rec.add_table("results", ["experiment", "parameter", "value"], [
        ("variance", f"{name}_{field}", value)
        for name, r in (("configured", res), ("uniform", res_u))
        for field, value in (("measured", r.measured), ("base", r.base), ("bound", r.bound),
                             ("w_min", r.w_min_observed), ("w_max", r.w_max_observed))])


def _safety_config(cfg: ExperimentConfig, *dual_ascent: str) -> SafetyConfig:
    p = cfg.params
    labels = {(r["input"], r["context"]): r["token"] for r in p["labels"]}
    return SafetyConfig(p["s_min"], labels, *(p[name] for name in dual_ascent))


def _run_safety(cfg: ExperimentConfig, rec: RunRecord) -> None:
    # one objective for both dual solves and the KKT check; the Jensen check
    # compiles the world restricted to its safety-critical contexts
    scfg = _safety_config(cfg, "dual_step", "max_dual_iters")
    compiled = compile_objective(cfg.operator, cfg.world, cfg.trainer.ridge)
    result = dual_ascent_solve(compiled, scfg)
    res = kkt_residuals(compiled, result.theta, result.mu, scfg)
    rec.check("kkt_stationarity", res.stationarity, 1e-3, compare="le")
    rec.check("kkt_slackness", res.slackness, 1e-3, compare="le")
    rec.check("kkt_primal", res.primal_violation, 1e-3, compare="le")
    rec.check("kkt_dual", res.dual_violation, 1e-3, compare="le")
    if cfg.params["s_min_inactive"] is not None:
        r2 = dual_ascent_solve(compiled, replace(scfg, s_min=cfg.params["s_min_inactive"]))
        rec.check("inactive_multiplier_zero", r2.mu, 0.0, 1e-12)
    jns = jensen_preservation_check(cfg.operator, cfg.world, scfg)
    rec.check("student_safety_at_least_ensemble", jns.passed, True, compare="eq")
    rec.add_table("dual_history",
                  ["iter", "mu", "safety", "kd_loss", "feasibility", "slackness"],
                  [(h["iter"], h["mu"], h["safety"], h["kd_loss"],
                    h["feasibility"], h["slackness"]) for h in result.history])
    rec.add_table("kkt", ["stationarity", "slackness", "primal", "dual", "mu", "safety"],
                  [(res.stationarity, res.slackness, res.primal_violation,
                    res.dual_violation, result.mu, expected_safety(result.theta, cfg.world, scfg))])
    rec.add_table("jensen", ["student_safety", "ensemble_safety", "passed"],
                  [(jns.student_safety, jns.ensemble_safety, jns.passed)])


def _run_pareto(cfg: ExperimentConfig, rec: RunRecord) -> None:
    scfg = _safety_config(cfg)
    grid = list(np.linspace(0.0, cfg.params["mu_max"], cfg.params["n_mu"]))
    compiled = compile_objective(cfg.operator, cfg.world, cfg.params["ridge"])
    points = pareto_sweep(compiled, scfg, grid)
    safeties = np.array([p[2] for p in points])
    losses = np.array([p[1] for p in points])
    rec.check("safety_nondecreasing", bool(np.all(np.diff(safeties) >= -1e-9)),
              True, compare="eq")
    rec.check("loss_nondecreasing", bool(np.all(np.diff(losses) >= -1e-9)),
              True, compare="eq")
    rec.add_table("pareto", ["mu", "kd_loss", "safety"], points)


_SUITES = {
    "appendix_a": _run_appendix_a,
    "conformance": _run_conformance,
    "train": _run_train,
    "rate": _run_rate,
    "fixed_point": _run_fixed_point,
    "perturbation": _run_perturbation,
    "variance": _run_variance,
    "safety": _run_safety,
    "pareto": _run_pareto,
}


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Execute the configured suite and collect tables plus assertions."""
    rec = RunRecord(cfg.config_hash, cfg.kind, __version__,
                    datetime.datetime.now(datetime.timezone.utc).isoformat())
    try:
        _SUITES[cfg.kind](cfg, rec)
    except MskdError as exc:
        raise type(exc)(f"[kind={cfg.kind} config={cfg.config_hash}] {exc}") from exc
    rec.finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return rec


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def emit_summary(record: RunRecord, out_dir, quiet: bool = False) -> Path:
    """Write per-table CSVs and a machine-readable summary; print verdicts.

    The summary JSON has stable key order ({config_hash, kind, assertions})
    and no timestamps, so reruns of the same config are byte-identical.
    """
    if not record.assertions and not record.tables:
        raise MskdError("refusing to emit an empty summary (no assertions, no tables)")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in sorted(record.tables.items()):
        write_csv(out / f"{name}.csv", header, rows)
    summary = {
        "config_hash": record.config_hash,
        "kind": record.kind,
        "assertions": [
            {"name": a["name"], "expected": a["expected"], "measured": a["measured"],
             "tol": a["tol"], "pass": a["pass"]}
            for a in record.assertions
        ],
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if not quiet:
        for a in record.assertions:
            verdict = "PASS" if a["pass"] else "FAIL"
            print(f"[{verdict}] {a['name']}: measured={a['measured']} "
                  f"expected={a['expected']} ({a['compare']}, tol={a['tol']})")
        n_pass = sum(1 for a in record.assertions if a["pass"])
        print(f"{record.kind}: {n_pass}/{len(record.assertions)} assertions passed "
              f"-> {out}")
    return out


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _resolve_out(cfg: ExperimentConfig, cli_out: str | None) -> str:
    """``--out``, else the config's ``out``, else ``<kind>-<hash>`` under $AWKD_OUT or ``out``."""
    return cli_out or cfg.out or str(
        Path(os.environ.get(OUTPUT_ENV_VAR) or "out") / f"{cfg.kind}-{cfg.config_hash}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mskd", description="Adaptive multi-teacher distillation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--quiet", action="store_true")
    p_val = sub.add_parser("validate", help="validate a config without running it")
    p_val.add_argument("config")
    sub.add_parser("list-kinds", help="list available experiment kinds")
    args = parser.parse_args(argv)

    if args.command == "list-kinds":
        print(*EXPERIMENT_KINDS, sep="\n")
        return 0

    try:
        doc = _load(args.config)
        if args.command == "run" and args.seed is not None and isinstance(doc, dict) \
                and isinstance(trainer := doc.get("trainer", {}), dict):  # else the parse names it
            doc = {**doc, "seed": args.seed, "trainer": {**trainer, "seed": args.seed}}
        cfg = parse_config_dict(doc)
    except ParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"valid: kind={cfg.kind} hash={cfg.config_hash}")
        return 0

    try:
        record = run_experiment(cfg)
        emit_summary(record, _resolve_out(cfg, args.out), quiet=args.quiet)
    except ParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MskdError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # the output directory or a file in it cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return 3
    return 0 if record.passed else 1


if __name__ == "__main__":
    sys.exit(main())
