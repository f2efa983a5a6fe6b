"""Weight-space update dynamics: fixed points, contraction, robustness.

The update operator blends teacher weights toward a performance-feedback
target: each teacher is scored by its agreement with the weighted consensus
(negative cross-entropy against the ensemble target, averaged over the world),
the scores pass through a softmax, and the weights move a fraction ``beta`` of
the way there before re-projection onto the bounded simplex. It takes a (..., K)
stack, each row with the bits it gets alone, so contraction pairs and fixed-point
starts are updated one stack per call. Identical teachers make the update affine
with ratio (1 - beta); that exact case anchors the contraction estimates.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .composition import UnifiedWeightOperator, normalize_rows
from .core import (POSITIVE, UNIT, MarginViolated, MskdError, Sampler, World, WeightBounds,
                   at_least, check_fields, seeded_sampler, softmax)
from .distill import NEWTON_GTOL, _densify, _uniform_compiled, compile_objective, solve_compiled
from .operators import clip_normalize

MIN_VARIANCE_SAMPLES = 100  # the fewest samples a gradient-variance measurement takes


@dataclass(frozen=True)
class WeightUpdateConfig:
    """Step size and termination settings for the weight-update iteration."""

    beta: float = 0.3
    max_iters: int = 500
    tol: float = 1e-10
    FIELDS = {"beta": (float, *UNIT), "max_iters": (int, *at_least(1)), "tol": (float, *POSITIVE)}

    __post_init__ = check_fields


@dataclass
class FixedPointTrace:
    """Iterates and successive distances of one start (no trajectory contraction ratio)."""

    iterates: np.ndarray        # (n+1, K) including the start
    distances: np.ndarray       # (n,) infinity-norm steps
    converged: bool

    @property
    def w_star(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def n_iters(self) -> int:
        return len(self.distances)


class FixedPointTraces(tuple):
    """One :class:`FixedPointTrace` per start of a stacked iteration."""

    @property
    def n_iters(self) -> int:
        return sum(t.n_iters for t in self)  # the update rows the stack evaluated


def _ensemble_feedback(w: np.ndarray, world: World) -> np.ndarray:
    """Per-teacher agreement score with the w-weighted consensus, per row of a (..., K) stack.

    feedback_k = E_{x,c}[ sum_i p_k(i) * ln q_w(i) ], i.e. the negative
    cross-entropy of teacher k against the current ensemble target. A
    Lipschitz function of w as long as the teacher tables are strictly
    positive. Each (row, cell) pair is its own matrix-vector product, so a
    row gets the bits it gets alone.
    """
    weight = world.pair_measure()
    live = weight != 0.0
    dists = world.teacher_dists()[live]  # (cells, K, V) in (input, context) order
    log_q = np.log(w[..., None, None, :] @ dists)  # (..., cells, 1, V)
    terms = weight[live][:, None] * (dists @ log_q[..., 0, :, None])[..., 0]
    return np.cumsum(terms, axis=-2)[..., -1, :]  # summed cell by cell, in order


def weight_update_T(w, config: WeightUpdateConfig, world: World,
                    bounds: WeightBounds) -> np.ndarray:
    """One step of the weight-update operator, on a vector or each row of a (..., K) stack.

    Moves ``w`` a fraction ``config.beta`` toward the softmax of the feedback
    scores, then re-projects onto the bounded simplex. Deterministic.
    """
    w, beta = np.asarray(w, dtype=np.float64), config.beta
    return clip_normalize((1.0 - beta) * w + beta * softmax(_ensemble_feedback(w, world)), bounds)


def iterate_to_fixed_point(w0, config: WeightUpdateConfig, world: World, bounds: WeightBounds):
    """Iterate the update operator until successive iterates stop moving.

    Returns :class:`FixedPointTraces`, one trace per row of an (S, K) stack of starts (a
    K vector is a stack of one), each equal to its start's run alone, from one update call
    per iteration on the starts still moving, and with no contraction ratio. Hitting
    ``max_iters`` with the last step above tolerance gives ``converged=False``, not an error.
    """
    w = np.array(w0, dtype=np.float64, ndmin=2)
    bounds.check_feasible(w.shape[-1])
    if np.any(np.abs(w.sum(axis=-1) - 1.0) > 1e-9) or not bounds.contains(w):
        raise MskdError("starting weights must be normalized and within bounds")
    history, moving, n_iters = [w.copy()], np.arange(len(w)), np.zeros(len(w), dtype=int)
    while moving.size and len(history) <= config.max_iters:
        w_next = weight_update_T(w[moving], config, world, bounds)
        d = np.max(np.abs(w_next - w[moving]), axis=-1)
        w[moving], n_iters[moving] = w_next, n_iters[moving] + 1
        history.append(w.copy())
        moving = moving[~(d <= config.tol)]
    history, traces = np.array(history), []
    for s, n in enumerate(n_iters.tolist()):
        iterates = history[:n + 1, s]
        dist = np.max(np.abs(np.diff(iterates, axis=0)), axis=-1)  # each step's own bits
        traces.append(FixedPointTrace(iterates, dist, bool(dist[-1] <= config.tol)))
    return FixedPointTraces(traces)


def sample_feasible_weights(size, bounds: WeightBounds, sampler: Sampler) -> np.ndarray:
    """Feasible weights of shape ``size`` (K, or (..., K)), in one draw."""
    return clip_normalize(sampler.uniform(bounds.w_min, bounds.w_max, size=size), bounds)


def estimate_contraction(config: WeightUpdateConfig, world: World, bounds: WeightBounds,
                         sampler: Sampler, n_pairs: int) -> float:
    """Empirical contraction ratio over sampled feasible weight pairs.

    rho_hat = max ||T(w) - T(w')||_inf / ||w - w'||_inf over the pairs at least
    1e-12 apart, drawn in one call (each ``w`` before its ``w'``) and updated in
    another. No such pair is an error: the ratio would rest on no evidence.
    """
    if n_pairs < 1:
        raise MskdError("need at least one pair")
    w = sample_feasible_weights((n_pairs, 2, world.bank.k), bounds, sampler)
    denom = np.max(np.abs(w[:, 0] - w[:, 1]), axis=-1)
    apart = ~(denom < 1e-12)
    if not apart.any():
        raise MskdError(f"no sampled weight pair in [{bounds.w_min}, {bounds.w_max}] is 1e-12 "
                        f"apart for K={world.bank.k}: the contraction ratio has no evidence")
    t = weight_update_T(w[apart], config, world, bounds)
    num = np.max(np.abs(t[:, 0] - t[:, 1]), axis=-1)
    return float(np.fmax.reduce(num / denom[apart], initial=0.0))  # a NaN ratio is skipped


# ---------------------------------------------------------------------------
# Perturbation robustness of the trained student
# ---------------------------------------------------------------------------

@dataclass
class PerturbationResult:
    deltas: np.ndarray
    distances: np.ndarray
    slope: float           # fitted C in distance = C * delta (through the origin)
    r_squared: float
    ratio_spread: float    # max / min of distance / delta

    def rows(self):
        return list(zip(self.deltas, self.distances))


def perturbation_experiment(G: UnifiedWeightOperator, world: World, delta_list,
                            ridge: float, seed: int = 0) -> PerturbationResult:
    """Solution sensitivity to a fixed-direction weight perturbation.

    One zero-sum direction of unit infinity-norm is drawn per experiment and
    scaled by each delta; shifting the weights along a zero-sum direction
    keeps the renormalization exact, isolating the delta scaling. The
    operator is compiled once; per delta its distinct weight rows are shifted,
    renormalized and densified. Both the clean and perturbed objectives are
    solved full-batch to ``NEWTON_GTOL`` and the parameter distance recorded, then
    fitted as distance = C * delta.
    """
    deltas = np.asarray(delta_list, dtype=np.float64)
    pos = deltas > 0
    if not np.all(deltas >= 0) or not pos.any():  # NaN included
        raise MskdError("perturbation scales must be nonnegative, at least one positive")
    if not ridge > 0:
        raise MskdError("the perturbation experiment needs a strongly convex solve")
    direction = seeded_sampler(seed).normal(size=world.bank.k)
    direction -= direction.mean()
    direction /= np.max(np.abs(direction))

    base = compile_objective(G, world, ridge)
    shift, bounds = deltas.max(initial=0.0), G.bounds
    # rounding is monotone, so each cell's per-teacher extremes decide its margin
    outside = np.any((base.rows.min(axis=-2) + shift * direction < bounds.w_min)
                     | (base.rows.max(axis=-2) + shift * direction > bounds.w_max), axis=-1)
    if outside.any():
        xi = np.argwhere(outside)[0][1]  # first (task, input, context) cell in order
        raise MarginViolated(f"shift of norm {shift} leaves [{bounds.w_min}, {bounds.w_max}] "
                             f"at input {world.inputs[xi].id}")
    theta0 = solve_compiled(base, NEWTON_GTOL)
    distances = []
    for d in deltas:
        if d == 0.0:
            distances.append(0.0)
            continue
        shifted = _densify(world, ridge, normalize_rows(base.rows + d * direction), base.slot)
        theta_d = solve_compiled(shifted, NEWTON_GTOL)
        distances.append(float(np.linalg.norm(theta_d - theta0)))
    dist = np.array(distances)
    slope = float(np.sum(dist[pos] * deltas[pos]) / np.sum(deltas[pos] ** 2))
    ss_res = float(np.sum((dist[pos] - slope * deltas[pos]) ** 2))
    ss_tot = float(np.sum(dist[pos] ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    ratios = dist[pos] / deltas[pos]
    spread = float(ratios.max() / ratios.min()) if ratios.min() > 0 else np.inf
    return PerturbationResult(deltas, dist, slope, r2, spread)


# ---------------------------------------------------------------------------
# Gradient-variance measurement
# ---------------------------------------------------------------------------

@dataclass
class VarianceResult:
    measured: float
    base: float
    bound: float
    w_min_observed: float
    w_max_observed: float


def _single_sample_variance(world: World, tables: np.ndarray, theta: np.ndarray,
                            n_samples: int, sampler: Sampler) -> np.ndarray:
    """Trace of the covariance of the single-sample stochastic gradient, per target table.

    ``tables`` is a (T, J, N, C, V) stack measured on one stream of ``n_samples`` triples;
    each table gets the bits its own pass gives it. The deterministic ridge component is
    identical across samples and drops out of the covariance, so it is omitted.
    """
    probs = softmax(theta)
    mean_g = np.zeros((len(tables), *theta.shape))
    sq_sum = np.zeros(len(tables))
    for tj, xi, ci in world.sample_index_blocks(sampler, n_samples):
        g = probs[xi] - tables[:, tj, xi, ci]  # (T, B, V)
        np.add.at(mean_g, (slice(None), xi), g)  # row by row in draw order, as one sample at a time
        products = np.matmul(g[..., None, :], g[..., :, None])[..., 0, 0]  # each row @ row
        sq_sum = np.cumsum(np.column_stack([sq_sum, products]), axis=1)[:, -1]  # in draw order
    mean_g /= n_samples
    return sq_sum / n_samples - np.sum((mean_g * mean_g).reshape(len(tables), -1), axis=-1)


def gradient_variance_ratio(operators: Sequence[UnifiedWeightOperator], world: World,
                            theta: np.ndarray, n_samples: int,
                            seed: int = 0) -> list[VarianceResult]:
    """Measured stochastic-gradient variance at the (N, V) logits ``theta`` against the bound.

    One :class:`VarianceResult` per operator. The baseline variance is measured once, under
    the classical uniform mixture, on the same sampling stream as every operator's: the
    tables are stacked and measured in one pass. The measured variance under an operator
    must stay below (w_max_obs / w_min_obs)^2 times the baseline, where the extremes are
    observed over that operator's unified weights on this world.
    """
    if n_samples < MIN_VARIANCE_SAMPLES:
        raise MskdError(f"need at least {MIN_VARIANCE_SAMPLES} samples")
    compiled = [compile_objective(G, world, 0.0) for G in operators]
    tables = np.stack([_uniform_compiled(world, 0.0).targets, *(c.targets for c in compiled)])
    base, *measured = _single_sample_variance(world, tables, theta, n_samples,
                                              seeded_sampler(seed)).tolist()
    extremes = [(float(c.rows.min()), float(c.rows.max())) for c in compiled]
    return [VarianceResult(m, base, (w_hi / w_lo) ** 2 * base, w_lo, w_hi)
            for m, (w_lo, w_hi) in zip(measured, extremes)]
