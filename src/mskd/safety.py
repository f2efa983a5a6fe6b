"""Safety-constrained distillation: measures, dual ascent, KKT, Pareto sweep.

The safety measure is linear in the predictive distribution: on a
safety-critical ground-truth token it reads off the student's probability of
that token, elsewhere it is identically 1. Linearity makes it concave, keeps
its gradient analytic, and makes the ensemble-versus-student comparison an
exact equality at the realizable optimum.

Constrained runs use Lagrangian dual ascent: full-batch minimization in the
logits alternates with a projected multiplier step, safeguarded by step
halving so the feasibility residual never increases after the first update.
The dual ascent, the KKT check and the Pareto sweep all read one compiled
distillation objective, and the measures take a student as its (N, V) logit
table in the world's input order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .composition import UnifiedWeightOperator
from .core import (
    POSITIVE,
    UNIT,
    DualStall,
    Infeasible,
    MissingLabel,
    MskdError,
    NegativeMultiplier,
    NonConformantOperator,
    World,
    at_least,
    check_fields,
    seeded_sampler,
    softmax,
)
from .distill import (NEWTON_GTOL, CompiledObjective, compile_objective, minimize_blockwise,
                      solve_compiled)
from .operators import check_conformance

JENSEN_CONFORMANCE_SAMPLES = 200  # context-operator conformance samples before the Jensen check


@dataclass(frozen=True)
class SafetyConfig:
    """Safety threshold, ground-truth labels, and dual-ascent settings."""

    s_min: float
    labels: Mapping[tuple[int, int], int]   # (input id, context id) -> token
    dual_step: float = 0.5
    max_dual_iters: int = 200
    FIELDS = {"s_min": (float, *UNIT), "dual_step": (float, *POSITIVE),
              "max_dual_iters": (int, *at_least(1))}

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "labels", dict(self.labels))

    def label(self, input_id: int, context_id: int) -> int:
        try:
            return self.labels[(input_id, context_id)]
        except KeyError:
            raise MissingLabel(f"no ground-truth label for (input {input_id}, context {context_id})")


# ---------------------------------------------------------------------------
# Expected safety and its derivatives
# ---------------------------------------------------------------------------

def _label_table(world: World, cfg: SafetyConfig):
    """Every (input, context) pair of positive measure, in (x, c) order, with its label.

    Returns the pairs' measure, input index, context index and label token
    (0 where the label is not safety-critical: the measure reads no token
    there), and a mask of the safety-critical labels. ``MissingLabel`` if a
    positive-measure pair has no label; zero-measure pairs need none.
    """
    pm = world.pair_measure()
    xi, ci = np.nonzero(pm)
    y = np.array([cfg.label(world.inputs[x].id, world.contexts[c].id)
                  for x, c in zip(xi.tolist(), ci.tolist())], dtype=np.intp)
    critical = np.isin(y, list(world.vocab.safety_tokens))
    return pm[xi, ci], xi, ci, np.where(critical, y, 0), critical


def _in_order_sum(terms: np.ndarray):
    """Left-to-right sum from 0.0, as a Python loop of ``+=`` adds it (``np.sum`` is pairwise)."""
    return np.cumsum(np.append(0.0, terms))[-1]


def expected_safety(theta: np.ndarray, world: World, cfg: SafetyConfig) -> float:
    """Exact expectation of the safety measure of the logits ``theta`` over the (x, c) measure.

    The measure reads the student's probability p(y*) of a safety-critical label y* and
    is 1 on any other label: linear, hence concave, in the distribution, within [0, 1].
    """
    return _safety(theta, _label_table(world, cfg))


def _safety(theta: np.ndarray, table) -> float:
    """Expected safety of the (N, V) logit table ``theta`` under a ``_label_table``."""
    pm, xi, _, y, critical = table
    return _in_order_sum(pm * np.where(critical, softmax(theta)[xi, y], 1.0))


def _safety_label_mass(world: World, table) -> tuple[np.ndarray, float]:
    """Per-input, per-token measure on safety-critical labels, plus the free mass.

    ``mass[x, i]`` collects the measure of the ``_label_table`` pairs whose
    label is the safety token i; the returned scalar is the total measure of
    pairs whose label is not safety-critical (those contribute 1 regardless of theta).
    """
    pm, xi, _, y, critical = table
    mass = np.zeros((len(world.inputs), world.vocab.size))
    np.add.at(mass, (xi[critical], y[critical]), pm[critical])  # in pair order
    return mass, _in_order_sum(pm[~critical])


def expected_safety_gradient(theta: np.ndarray, world: World, cfg: SafetyConfig) -> np.ndarray:
    """Analytic gradient of the expected safety with respect to the logits ``theta``."""
    mass, _ = _safety_label_mass(world, _label_table(world, cfg))
    p = softmax(theta)
    grad = np.zeros_like(p)
    eye = np.eye(p.shape[1])
    for y in np.flatnonzero(mass.any(axis=0)):  # one step per safety token, ascending
        grad += (mass[:, y] * p[:, y])[:, None] * (eye[y] - p)
    return grad


# ---------------------------------------------------------------------------
# Lagrangian machinery
# ---------------------------------------------------------------------------

def _lagrangian_block(compiled: CompiledObjective, mu: float, mass: np.ndarray):
    """Newton block kernels (value/gradient/softmax, Hessians) of loss - mu * safety for one solve.

    Every label of positive mass is a term, even at mu = 0: it can still flip a zero's sign.
    The label tokens are resolved once per solve, as ``(y, on, w)`` columns.
    """
    labels = [(y, mass[:, y] != 0, mu * mass[:, y]) for y in np.flatnonzero(mass.any(axis=0))]
    return (lambda xi, rows: compiled.block(xi, rows, labels),
            lambda xi, p: compiled.block_hessians(xi, p, labels))


@dataclass
class DualAscentResult:
    theta: np.ndarray  # (N, V) logits of the solution
    mu: float
    history: list[dict]


def dual_ascent_solve(compiled: CompiledObjective, cfg: SafetyConfig) -> DualAscentResult:
    """Safety-constrained solve of the compiled objective by Lagrangian dual ascent.

    Feasibility is pre-checked against the analytic safety supremum: per input
    the best distribution concentrates on the safety token with the largest
    label mass, and pairs with other labels contribute 1 regardless
    (``Infeasible`` if the threshold is unreachable). Each outer iteration
    solves the Lagrangian to gradient norm ``NEWTON_GTOL`` warm-started from the
    previous solution, then takes a projected step on the multiplier; the
    step is halved whenever it would increase the feasibility residual.
    Terminates when the feasibility and complementary-slackness residuals
    both fall below 1e-3, else raises ``DualStall``.
    """
    if not compiled.ridge > 0:  # NaN included
        raise MskdError("dual ascent needs a strictly convex inner solve (positive ridge)")
    table = _label_table(compiled.world, cfg)
    mass, free = _safety_label_mass(compiled.world, table)
    s_max = free + float(mass.max(axis=1).sum())
    if s_max < cfg.s_min - 1e-6:
        raise Infeasible(f"maximum achievable safety {s_max:.6f} is below the threshold {cfg.s_min}")
    mu = 0.0
    step = cfg.dual_step
    theta = minimize_blockwise(np.zeros_like(compiled.qbar),
                               *_lagrangian_block(compiled, mu, mass), NEWTON_GTOL)
    history: list[dict] = []
    safety = _safety(theta, table)
    for it in range(cfg.max_dual_iters):
        feas = max(0.0, cfg.s_min - safety)
        slack = abs(mu * (safety - cfg.s_min))
        history.append({"iter": it, "mu": mu, "safety": safety,
                        "kd_loss": compiled.loss(theta), "feasibility": feas,
                        "slackness": slack})
        if feas <= 1e-3 and slack <= 1e-3:
            return DualAscentResult(theta, mu, history)
        while True:
            mu_new = max(0.0, mu + step * (cfg.s_min - safety))
            theta_new = minimize_blockwise(theta, *_lagrangian_block(compiled, mu_new, mass),
                                           NEWTON_GTOL)
            safety_new = _safety(theta_new, table)
            if max(0.0, cfg.s_min - safety_new) <= feas + 1e-12 or step < 1e-8:
                break
            step *= 0.5
        mu, theta, safety = mu_new, theta_new, safety_new
    raise DualStall(f"dual ascent did not meet residual targets in {cfg.max_dual_iters} iterations")


@dataclass(frozen=True)
class KKTResiduals:
    stationarity: float
    slackness: float
    primal_violation: float
    dual_violation: float


def kkt_residuals(compiled: CompiledObjective, theta: np.ndarray, mu: float,
                  cfg: SafetyConfig) -> KKTResiduals:
    """First-order optimality residuals of the logits ``theta`` for the constrained problem."""
    grad_l = compiled.grad(theta) - mu * expected_safety_gradient(theta, compiled.world, cfg)
    safety = expected_safety(theta, compiled.world, cfg)
    return KKTResiduals(
        stationarity=float(np.linalg.norm(grad_l)),
        slackness=abs(mu * (safety - cfg.s_min)),
        primal_violation=max(0.0, cfg.s_min - safety),
        dual_violation=max(0.0, -mu),
    )


def pareto_sweep(compiled: CompiledObjective, cfg: SafetyConfig,
                 mu_grid) -> list[tuple[float, float, float]]:
    """Trace the compiled objective's loss-safety frontier by sweeping the multiplier.

    For each mu (nonnegative, ascending) the Lagrangian is minimized
    full-batch, warm-started from the previous point; returns
    (mu, kd_loss, safety) triples. Along the sweep safety is nondecreasing
    and the distillation loss nondecreasing.
    """
    grid = np.asarray(mu_grid, dtype=np.float64)
    if not np.all(grid >= 0):  # NaN included
        raise NegativeMultiplier("all multipliers in the grid must be nonnegative")
    if not np.all(np.diff(grid) >= 0):
        raise MskdError("the multiplier grid must be ascending")
    if not compiled.ridge > 0:
        raise MskdError("the sweep needs a strictly convex inner solve (positive ridge)")
    table = _label_table(compiled.world, cfg)
    mass, _ = _safety_label_mass(compiled.world, table)
    theta = np.zeros_like(compiled.qbar)
    out = []
    for mu in grid:
        theta = minimize_blockwise(theta, *_lagrangian_block(compiled, mu, mass), NEWTON_GTOL)
        out.append((float(mu), compiled.loss(theta), _safety(theta, table)))
    return out


# ---------------------------------------------------------------------------
# Ensemble-safety preservation at convergence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JensenResult:
    student_safety: float
    ensemble_safety: float
    passed: bool


def restrict_to_safety_contexts(world: World) -> World:
    """The same world conditioned on its safety-critical contexts, which need positive measure."""
    safe = [c for c in world.contexts if c.is_safety_critical]
    total = sum(c.measure_weight for c in safe)
    if not total > 0:  # none, or all of zero measure: nothing to condition on
        raise MskdError("world has no safety-critical context of positive measure_weight")
    renorm = tuple(replace(c, measure_weight=c.measure_weight / total) for c in safe)
    return World(world.vocab, world.inputs, world.tasks, renorm, world.bank)


def _ensemble_safety(compiled: CompiledObjective, table) -> float:
    """Expected safety of the compiled ensemble targets themselves under a ``_label_table``."""
    # summed task by task, then in (x, c) order, skipping zero-measure points
    _, xi, ci, y, critical = table
    joint = compiled.joint[:, xi, ci]
    s = np.where(critical, compiled.targets[:, xi, ci, y], 1.0)
    return _in_order_sum((joint * s)[joint != 0.0])


def jensen_preservation_check(G: UnifiedWeightOperator, world: World,
                              cfg: SafetyConfig) -> JensenResult:
    """Student-versus-ensemble safety comparison at exact convergence.

    Requires the context operator to pass conformance (including safety
    monotonicity, ``JENSEN_CONFORMANCE_SAMPLES`` samples) on this world;
    trains the student to the realizable optimum on the safety-critical
    contexts and compares expected safeties with the ensemble's, read from
    the same compiled objective. At convergence the student matches the
    ensemble targets, so with the linear measure the two values agree to
    solver precision; the check passes when the student is no worse than
    the ensemble minus 1e-3.
    """
    sampler = seeded_sampler(20_000 + JENSEN_CONFORMANCE_SAMPLES)
    report = check_conformance(G.context_op, "context", world, G.bounds,
                               sampler, JENSEN_CONFORMANCE_SAMPLES)
    if not report.all_passed:
        raise NonConformantOperator(
            f"context operator fails conformance: {report.failures()}")
    restricted = restrict_to_safety_contexts(world)
    compiled = compile_objective(G, restricted, 0.0)
    table = _label_table(restricted, cfg)
    s_student = _safety(solve_compiled(compiled, gtol=1e-10), table)
    s_ensemble = _ensemble_safety(compiled, table)
    return JensenResult(s_student, s_ensemble, s_student >= s_ensemble - 1e-3)
