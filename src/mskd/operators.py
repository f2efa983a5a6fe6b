"""Concrete weight-operator families and the axiom-conformance checker.

Each scale (token, task, context) admits several built-in families:

* ``uniform``          -- equal weights, the classical baseline.
* ``inverse_entropy``  -- weight proportional to 1/H (token) or 1/mean-H.
* ``family_a``         -- exponential decay in predictive entropy, with a
                          multiplicative safety-score boost on safety tokens.
* ``family_b``         -- inverse variance of the probability entries, with
                          the same safety boost; at task scale a
                          score-proportional surrogate, at context scale a
                          consistency measure.
* ``family_c``         -- hybrid: entropy decay blended with safety scores at
                          token scale, performance softmax at task scale, a
                          distribution-shift measure at context scale.
* ``custom``           -- a user-supplied callable (used to build deliberate
                          axiom violators in tests).

All built-in families pass through :func:`clip_normalize`, so their outputs
are normalized, strictly positive, and inside the declared bounds. On
safety-critical contexts every built-in context family delegates to the
ordinal safety form, which guarantees the context safety axiom by
construction.

:func:`check_conformance` samples evaluation points and verifies
normalization, positivity, bounds, regularity under total-variation
perturbations of the teacher distributions (score perturbations at task
scale), and ordinal safety monotonicity; failures are reported, never thrown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (
    ContextSpec,
    MskdError,
    Sampler,
    SUM_TOL,
    TeacherBank,
    WeightBounds,
    World,
    ZeroMass,
    entropy,
)

ENTROPY_FLOOR = 1e-6   # avoids 1/0 on point-mass teachers
VARIANCE_FLOOR = 1e-6
PERTURB_EPS = 0.01     # size of the conformance checker's regularity perturbations


# ---------------------------------------------------------------------------
# Bounded normalization
# ---------------------------------------------------------------------------

def clip_normalize(raw, bounds: WeightBounds) -> np.ndarray:
    """Map a positive raw vector to the simplex slice [w_min, w_max]^K.

    Normalizes, then finds the scale factor c such that clipping c times the
    normalized vector into [w_min, w_max] sums to exactly 1 (the fixed point
    of clamp-violators-and-rescale-the-rest). The clipped sum is piecewise
    linear and nondecreasing in c, so the scan over its breakpoints is exact,
    deterministic, order-preserving up to ties at the bounds, and idempotent.
    Inputs that already satisfy the bounds after normalization are returned
    unscaled.
    """
    w = np.asarray(raw, dtype=np.float64)
    k = w.shape[0]
    bounds.check_feasible(k)
    total = float(w.sum())
    if np.any(w < 0) or total <= 0:
        raise ZeroMass("raw weights must be positive with positive total mass")
    u = w / total
    lo, hi = bounds.w_min, bounds.w_max
    if np.all(u >= lo) and np.all(u <= hi):
        return u
    positive = u[u > 0]
    if positive.size == 0:
        raise ZeroMass("no positive entries to scale")
    breakpoints = np.unique(np.concatenate([lo / positive, hi / positive]))
    segments = np.concatenate([[0.0], breakpoints, [breakpoints[-1] * 2.0]])
    for a, b in zip(segments[:-1], segments[1:]):
        c_rep = a + 0.5 * (b - a)
        low_set = c_rep * u <= lo
        high_set = c_rep * u >= hi
        free = ~low_set & ~high_set
        fixed = lo * low_set.sum() + hi * high_set.sum()
        free_mass = float(u[free].sum())
        if free_mass > 0:
            c_star = (1.0 - fixed) / free_mass
            if a <= c_star <= b:
                out = np.where(low_set, lo, np.where(high_set, hi, 0.0))
                out[free] = c_star * u[free]
                return out
        elif abs(fixed - 1.0) <= 1e-12:
            return np.where(low_set, lo, hi).astype(np.float64)
    raise MskdError("capped-simplex scaling found no feasible segment")  # unreachable


def uniform_weights(k: int, bounds: WeightBounds) -> np.ndarray:
    return clip_normalize(np.ones(k), bounds)


# ---------------------------------------------------------------------------
# Token-scale families
# ---------------------------------------------------------------------------

def inverse_entropy_weights_from_entropies(entropies, bounds: WeightBounds) -> np.ndarray:
    """Weights proportional to 1/H with the entropy floored at 1e-6.

    Invariant to the entropy log base: rescaling every entropy by a constant
    leaves the normalized weights unchanged.
    """
    h = np.maximum(np.asarray(entropies, dtype=np.float64), ENTROPY_FLOOR)
    return clip_normalize(1.0 / h, bounds)


def token_weights_inverse_entropy(x: int, i: int, c: int, bank: TeacherBank,
                                  bounds: WeightBounds) -> np.ndarray:
    """Inverse-entropy token weights; constant in the token index i."""
    dists = bank.dists(x, c)
    return inverse_entropy_weights_from_entropies([entropy(p) for p in dists], bounds)


def _safety_boost(raw: np.ndarray, bank: TeacherBank) -> np.ndarray:
    return raw * (1.0 + bank.safety_scores)


def token_weights_family_a(x: int, i: int, c: int, bank: TeacherBank, bounds: WeightBounds,
                           alpha: float = 1.0,
                           safety_tokens: frozenset[int] = frozenset(),
                           safety_adjustment: bool = True) -> np.ndarray:
    """Exponential entropy decay: raw_k = exp(-alpha * H_k).

    On safety tokens the raw weight is multiplied by (1 + safety_score_k),
    so teachers ranked safer receive no less weight whenever their base
    weights already agree with the safety ordering.
    """
    if alpha <= 0:
        raise MskdError(f"alpha must be positive, got {alpha}")
    dists = bank.dists(x, c)
    raw = np.exp(-alpha * np.array([entropy(p) for p in dists]))
    if safety_adjustment and i in safety_tokens:
        raw = _safety_boost(raw, bank)
    return clip_normalize(raw, bounds)


def token_weights_family_b(x: int, i: int, c: int, bank: TeacherBank, bounds: WeightBounds,
                           safety_tokens: frozenset[int] = frozenset(),
                           safety_adjustment: bool = True) -> np.ndarray:
    """Inverse variance of the probability entries: raw_k = 1/(Var_i[p_k] + 1e-6).

    Favors teachers whose probability mass is spread consistently; the safety
    adjustment matches family A's.
    """
    dists = bank.dists(x, c)
    raw = 1.0 / (np.var(dists, axis=1) + VARIANCE_FLOOR)
    if safety_adjustment and i in safety_tokens:
        raw = _safety_boost(raw, bank)
    return clip_normalize(raw, bounds)


def token_weights_family_c(x: int, i: int, c: int, bank: TeacherBank, bounds: WeightBounds,
                           alpha: float = 1.0) -> np.ndarray:
    """Hybrid token weights: entropy decay times (1 + safety score) on every token."""
    dists = bank.dists(x, c)
    raw = np.exp(-alpha * np.array([entropy(p) for p in dists]))
    return clip_normalize(_safety_boost(raw, bank), bounds)


# ---------------------------------------------------------------------------
# Task-scale families
# ---------------------------------------------------------------------------

def task_weights_performance(t: int, bank: TeacherBank, bounds: WeightBounds,
                             tau: float = 0.5) -> np.ndarray:
    """Performance softmax: raw_k = exp(perf[k, t] / tau)."""
    if tau <= 0:
        raise MskdError(f"temperature must be positive, got {tau}")
    return clip_normalize(np.exp(bank.perf(t) / tau), bounds)


def task_weights_inverse_loss(t: int, bank: TeacherBank, bounds: WeightBounds) -> np.ndarray:
    """Weights proportional to 1/(task loss), with loss taken as 1 - perf."""
    loss = 1.0 - bank.perf(t)
    return clip_normalize(1.0 / (loss + VARIANCE_FLOOR), bounds)


def task_weights_score_proportional(t: int, bank: TeacherBank, bounds: WeightBounds) -> np.ndarray:
    """Weights linear in the performance score (floored away from zero)."""
    return clip_normalize(bank.perf(t) + VARIANCE_FLOOR, bounds)


def task_weights_inverse_mean_entropy(t: int, bank: TeacherBank, bounds: WeightBounds) -> np.ndarray:
    """Weights proportional to 1/(mean predictive entropy over the whole table).

    Task-agnostic by design: it ranks teachers by a global uncertainty tier.
    The mean runs over the cells in the table's insertion order.
    """
    cells = bank.array.reshape(-1, *bank.array.shape[2:])[bank.cell_order]
    return inverse_entropy_weights_from_entropies(_mean_entropy(cells), bounds)


def _mean_entropy(cells: np.ndarray) -> np.ndarray:
    """Per-teacher entropy of a stack of (K, V) cells, averaged over the stack in order."""
    return np.mean([[entropy(p) for p in dists] for dists in cells], axis=0)


# ---------------------------------------------------------------------------
# Context-scale families
# ---------------------------------------------------------------------------

def context_weights_safety(c: ContextSpec, bank: TeacherBank, bounds: WeightBounds) -> np.ndarray:
    """Ordinal safety weighting.

    On safety-critical contexts raw_k = safety_score_k + 1e-6 (so the weight
    order matches the designated safety order); elsewhere uniform.
    """
    if c.is_safety_critical:
        return clip_normalize(bank.safety_scores + VARIANCE_FLOOR, bounds)
    return uniform_weights(bank.k, bounds)


def context_weights_consistency(c: ContextSpec, bank: TeacherBank,
                                bounds: WeightBounds) -> np.ndarray:
    """Consistency weighting off the safety-critical set.

    raw_k = 1/(mean TV distance of teacher k to the per-cell teacher mean + 1e-6);
    safety-critical contexts delegate to the ordinal safety form.
    """
    if c.is_safety_critical:
        return context_weights_safety(c, bank, bounds)
    cells = bank.array[:, bank.context_index[c.id]]
    disp = (0.5 * np.abs(cells - cells.mean(axis=1, keepdims=True)).sum(axis=-1)).sum(axis=0)
    return clip_normalize(1.0 / (disp / len(cells) + VARIANCE_FLOOR), bounds)


def context_weights_shift(c: ContextSpec, bank: TeacherBank, bounds: WeightBounds) -> np.ndarray:
    """Distribution-shift weighting off the safety-critical set.

    raw_k = exp(-mean TV between teacher k's predictions in this context and
    its predictions averaged over all contexts); safety-critical contexts
    delegate to the ordinal safety form.
    """
    if c.is_safety_critical:
        return context_weights_safety(c, bank, bounds)
    here, avg = bank.array[:, bank.context_index[c.id]], bank.array.mean(axis=1)
    shift = (0.5 * np.abs(here - avg).sum(axis=-1)).sum(axis=0)
    return clip_normalize(np.exp(-shift / len(here)), bounds)


def context_weights_inverse_entropy(c: ContextSpec, bank: TeacherBank,
                                    bounds: WeightBounds) -> np.ndarray:
    """Inverse mean-entropy weighting within the context; safety form on C_safe."""
    if c.is_safety_critical:
        return context_weights_safety(c, bank, bounds)
    mean_h = _mean_entropy(bank.array[:, bank.context_index[c.id]])
    return inverse_entropy_weights_from_entropies(mean_h, bounds)


# ---------------------------------------------------------------------------
# Operator objects (family tag + parameters + evaluation contract)
# ---------------------------------------------------------------------------

# Family -> evaluation per scale; each entry takes the operator first (for
# its parameters), then the arguments of that scale's ``weights``.
TOKEN_FAMILIES: dict[str, Callable] = {
    "uniform": lambda op, x, i, c, bank, bounds: uniform_weights(bank.k, bounds),
    "inverse_entropy": lambda op, *a: token_weights_inverse_entropy(*a),
    "family_a": lambda op, *a: token_weights_family_a(*a, op.alpha, op.safety_tokens,
                                                      op.safety_adjustment),
    "family_b": lambda op, *a: token_weights_family_b(*a, op.safety_tokens,
                                                      op.safety_adjustment),
    "family_c": lambda op, *a: token_weights_family_c(*a, op.alpha),
    "custom": lambda op, *a: op.fn(*a),
}
TASK_FAMILIES: dict[str, Callable] = {
    "uniform": lambda op, t, bank, bounds: uniform_weights(bank.k, bounds),
    "inverse_entropy": lambda op, *a: task_weights_inverse_mean_entropy(*a),
    "family_a": lambda op, *a: task_weights_inverse_loss(*a),
    "family_b": lambda op, *a: task_weights_score_proportional(*a),
    "family_c": lambda op, *a: task_weights_performance(*a, op.tau),
    "custom": lambda op, *a: op.fn(*a),
}
CONTEXT_FAMILIES: dict[str, Callable] = {
    "uniform": lambda op, c, bank, bounds: uniform_weights(bank.k, bounds),
    "inverse_entropy": lambda op, *a: context_weights_inverse_entropy(*a),
    "family_a": lambda op, *a: context_weights_safety(*a),
    "family_b": lambda op, *a: context_weights_consistency(*a),
    "family_c": lambda op, *a: context_weights_shift(*a),
    "custom": lambda op, *a: op.fn(*a),
}


def _check_family(op, scale: str, families: dict[str, Callable]) -> None:
    if op.family not in families:
        raise MskdError(f"unknown {scale} family {op.family!r}")
    if op.family == "custom" and op.fn is None:
        raise MskdError(f"custom {scale} operator needs a callable")


@dataclass(frozen=True)
class TokenOperator:
    """Token-scale weight operator: (input, token, context, bank, bounds) -> weights."""

    family: str = "uniform"
    alpha: float = 1.0
    safety_tokens: frozenset[int] = frozenset()
    safety_adjustment: bool = True
    fn: Callable | None = None

    def __post_init__(self):
        _check_family(self, "token", TOKEN_FAMILIES)
        object.__setattr__(self, "safety_tokens", frozenset(self.safety_tokens))

    @property
    def token_index_dependent(self) -> bool:
        """Whether weights can vary with the token index (safety adjustments only)."""
        if self.family in ("family_a", "family_b"):
            return self.safety_adjustment and bool(self.safety_tokens)
        return self.family == "custom"

    def weights(self, x: int, i: int, c: int, bank: TeacherBank,
                bounds: WeightBounds) -> np.ndarray:
        return np.asarray(TOKEN_FAMILIES[self.family](self, x, i, c, bank, bounds),
                          dtype=np.float64)


@dataclass(frozen=True)
class TaskOperator:
    """Task-scale weight operator: (task, bank, bounds) -> weights."""

    family: str = "uniform"
    tau: float = 0.5
    fn: Callable | None = None

    def __post_init__(self):
        _check_family(self, "task", TASK_FAMILIES)

    def weights(self, t: int, bank: TeacherBank, bounds: WeightBounds) -> np.ndarray:
        return np.asarray(TASK_FAMILIES[self.family](self, t, bank, bounds), dtype=np.float64)


@dataclass(frozen=True)
class ContextOperator:
    """Context-scale weight operator: (context, bank, bounds) -> weights."""

    family: str = "uniform"
    fn: Callable | None = None

    def __post_init__(self):
        _check_family(self, "context", CONTEXT_FAMILIES)

    def weights(self, c: ContextSpec, bank: TeacherBank, bounds: WeightBounds) -> np.ndarray:
        return np.asarray(CONTEXT_FAMILIES[self.family](self, c, bank, bounds), dtype=np.float64)


# ---------------------------------------------------------------------------
# Conformance checking
# ---------------------------------------------------------------------------

@dataclass
class AxiomCheck:
    name: str
    tol: float
    passed: bool = True
    worst_violation: float = 0.0
    n_checked: int = 0

    def record(self, magnitude: float) -> None:
        self.n_checked += 1
        if magnitude > self.worst_violation:
            self.worst_violation = magnitude
        if magnitude > self.tol:
            self.passed = False


@dataclass
class ConformanceReport:
    """Sampled-evaluation verdicts for one operator at one scale."""

    scale: str
    checks: dict[str, AxiomCheck] = field(default_factory=dict)
    lipschitz_estimate: float = 0.0
    n_samples: int = 0

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def failures(self) -> list[str]:
        return [name for name, c in self.checks.items() if not c.passed]

    def summary_rows(self):
        for name, c in sorted(self.checks.items()):
            yield (self.scale, name, c.passed, c.worst_violation, c.n_checked)


def _perturb_rows(rows: np.ndarray, eps: float, sampler: Sampler) -> float:
    """Shift each distribution along the last axis of ``rows``, in place and in C order.

    Each moves along a random zero-sum direction scaled to total variation
    ``eps`` and shortened where needed to keep entries positive; returns the
    max TV actually moved.
    """
    worst_tv = 0.0
    for idx in np.ndindex(rows.shape[:-1]):
        row = rows[idx]
        d = sampler.normal(size=row.shape[0])
        d -= d.mean()
        l1 = np.abs(d).sum()
        if l1 < 1e-300:
            continue
        d *= 2.0 * eps / l1  # TV = half the l1 distance
        neg = d < 0
        if neg.any():
            limit = float(np.min(row[neg] / -d[neg]))
            d *= min(1.0, 0.9 * limit)
        row += d
        worst_tv = max(worst_tv, 0.5 * float(np.abs(d).sum()))
    return worst_tv


def _perturbed_bank(bank: TeacherBank, scale: str, key, eps: float,
                    sampler: Sampler) -> tuple[TeacherBank, float]:
    """The bank with the inputs of one sampled point perturbed, and the distance moved.

    Token points move their (input, context) cell and context points every
    cell of the context, in input axis order, by total variation <= ``eps``;
    task points move the task's performance scores by up to ``eps`` each,
    clipped to [0, 1].
    """
    if scale == "task":
        perf = dict(bank.perf_scores)
        perf[key] = np.clip(perf[key] + sampler.uniform(-eps, eps, size=bank.k), 0.0, 1.0)
        return (bank.replaced(perf_scores=perf),
                float(np.max(np.abs(perf[key] - bank.perf(key)))))
    array = np.array(bank.array)
    cells = (array[bank.input_index[key[0]], bank.context_index[key[2]]] if scale == "token"
             else array[:, bank.context_index[key]])
    moved = _perturb_rows(cells, eps, sampler)
    return bank.replaced(array=array), moved


def _basic_checks(report: ConformanceReport, w: np.ndarray, bounds: WeightBounds) -> None:
    report.checks["normalization"].record(abs(float(w.sum()) - 1.0))
    w_min = float(w.min())
    report.checks["positivity"].record(-w_min if w_min <= 0 else 0.0)
    report.checks["bounds"].record(max(bounds.w_min - w_min, float(w.max()) - bounds.w_max, 0.0))


def _safety_monotonicity(report: ConformanceReport, w: np.ndarray, scores: np.ndarray) -> None:
    # strict premise: a strictly safer teacher may not get strictly less weight
    for a in range(len(w)):
        for b in range(len(w)):
            if scores[a] > scores[b]:
                report.checks["safety_monotonicity"].record(max(float(w[b] - w[a]), 0.0))


def _record_regularity(report: ConformanceReport, dw: float, moved: float) -> None:
    ratio = dw / moved
    report.lipschitz_estimate = max(report.lipschitz_estimate, ratio)
    report.checks["regularity"].record(ratio)


def check_conformance(op, scale: str, world: World, bounds: WeightBounds,
                      sampler: Sampler, n_samples: int = 1000) -> ConformanceReport:
    """Sample evaluation points and test every axiom at the given scale.

    Regularity pairs each evaluation with one where the teacher distributions
    are moved by total variation <= ``PERTURB_EPS`` (task-scale operators
    read performance scores instead, so those are perturbed there); the
    weight change must stay within the declared Lipschitz constant times the
    distance moved. Failures are recorded in the report, never raised.

    Operators are pure, so evaluations at repeated sample points are cached.
    """
    if scale not in ("token", "task", "context"):
        raise MskdError(f"unknown scale {scale!r}")
    if n_samples < 1:
        raise MskdError("need at least one sample")
    bank = world.bank
    report = ConformanceReport(scale=scale, n_samples=n_samples)
    report.checks["normalization"] = AxiomCheck("normalization", SUM_TOL)
    report.checks["positivity"] = AxiomCheck("positivity", 0.0)
    report.checks["bounds"] = AxiomCheck("bounds", SUM_TOL)
    report.checks["regularity"] = AxiomCheck("regularity", bounds.lipschitz)
    if scale in ("token", "context"):
        report.checks["safety_monotonicity"] = AxiomCheck("safety_monotonicity", SUM_TOL)
    cache: dict = {}

    for _ in range(n_samples):
        # a point: its cache key, the ``weights`` arguments before the bank,
        # and whether safety monotonicity applies there
        if scale == "token":
            x = world.inputs[int(sampler.integers(0, len(world.inputs)))].id
            i = int(sampler.integers(0, world.vocab.size))
            c = world.contexts[int(sampler.integers(0, len(world.contexts)))].id
            key, args, safety = (x, i, c), (x, i, c), i in world.vocab.safety_tokens
        elif scale == "task":
            t = world.tasks[int(sampler.integers(0, len(world.tasks)))].id
            key, args, safety = t, (t,), False
        else:
            ctx = world.contexts[int(sampler.integers(0, len(world.contexts)))]
            key, args, safety = ctx.id, (ctx,), ctx.is_safety_critical
        if key not in cache:
            w = np.asarray(op.weights(*args, bank, bounds), dtype=np.float64)
            bank2, moved = _perturbed_bank(bank, scale, key, PERTURB_EPS, sampler)
            dw = np.nan
            if moved > 1e-12:
                dw = float(np.max(np.abs(op.weights(*args, bank2, bounds) - w)))
            cache[key] = (w, dw, moved)
        w, dw, moved = cache[key]
        _basic_checks(report, w, bounds)
        if safety:
            _safety_monotonicity(report, w, bank.safety_scores)
        if np.isfinite(dw):
            _record_regularity(report, dw, moved)
    return report


# ---------------------------------------------------------------------------
# Pareto compatibility (task scale)
# ---------------------------------------------------------------------------

def check_pareto_compat(losses: Sequence[Callable[[np.ndarray], float]] | None = None,
                        lambda_grid: Sequence[float] | None = None,
                        grid_points: np.ndarray | None = None,
                        tol: float = 1e-12) -> bool:
    """Scalarization sanity check on a convex two-task toy instance.

    For every mixing coefficient in ``lambda_grid``, the grid minimizer of
    ``lam * l1 + (1 - lam) * l2`` must not be Pareto-dominated by any other
    grid point (brute-force dominance scan). Convexity of the toy losses is a
    precondition; concave counterexamples are out of scope.
    """
    if losses is None:
        losses = (lambda th: float((th - 1.0) ** 2), lambda th: float((th + 1.0) ** 2))
    if len(losses) != 2:
        raise MskdError("the toy instance uses exactly two task losses")
    if lambda_grid is None:
        lambda_grid = np.linspace(0.0, 1.0, 11)
    if grid_points is None:
        grid_points = np.arange(-2.0, 2.0 + 1e-12, 0.01)
    l1 = np.array([losses[0](th) for th in grid_points])
    l2 = np.array([losses[1](th) for th in grid_points])
    for lam in lambda_grid:
        scalar = lam * l1 + (1.0 - lam) * l2
        best = int(np.argmin(scalar))
        dominates = (l1 <= l1[best] + tol) & (l2 <= l2[best] + tol) & \
                    ((l1 < l1[best] - tol) | (l2 < l2[best] - tol))
        if dominates.any():
            return False
    return True
