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
safety-critical contexts every built-in context family but ``uniform``
delegates to the ordinal safety form, which guarantees the context safety
axiom by construction. Each token family is one array kernel over stacks of
teacher cells: a whole-bank weight table is one call, and a single point is
the same kernel on one cell, with the same bits. The token operator alone
maps tokens to weight rows (:meth:`TokenOperator.table`).

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
    POSITIVE,
    ContextSpec,
    MskdError,
    Sampler,
    SUM_TOL,
    TeacherBank,
    WeightBounds,
    World,
    ZeroMass,
    check_fields,
    entropy,
    validate_distribution,
)

ENTROPY_FLOOR = 1e-6   # avoids 1/0 on point-mass teachers
VARIANCE_FLOOR = 1e-6
PERTURB_EPS = 0.01     # size of the conformance checker's regularity perturbations


# ---------------------------------------------------------------------------
# Bounded normalization
# ---------------------------------------------------------------------------

def clip_normalize(raw, bounds: WeightBounds) -> np.ndarray:
    """Map a positive raw vector, or each row along the last axis of a stack, to [w_min, w_max]^K.

    Normalizes, then finds the scale factor c such that clipping c times the
    normalized vector into [w_min, w_max] sums to exactly 1 (the fixed point
    of clamp-violators-and-rescale-the-rest). The clipped sum is piecewise
    linear and nondecreasing in c, so the scan over its breakpoints is exact,
    deterministic, order-preserving up to ties at the bounds, and idempotent.
    Rows that already satisfy the bounds after normalization are returned
    unscaled; only the others are scanned. Each row gets the bits it gets alone.
    """
    w = np.asarray(raw, dtype=np.float64)
    bounds.check_feasible(w.shape[-1])
    total = w.sum(axis=-1, keepdims=True)
    if not ((w >= 0).all() and (total > 0).all()):  # NaN included
        raise ZeroMass("raw weights must be positive with positive total mass")
    u = w / total
    lo, hi = bounds.w_min, bounds.w_max
    rows = u.reshape(-1, u.shape[-1])  # a view: rows scanned below are written into u
    for r in np.flatnonzero(~((rows >= lo) & (rows <= hi)).all(axis=-1)).tolist():
        rows[r] = _clip_scan(rows[r], lo, hi)
    return u


def _clip_scan(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """:func:`clip_normalize`'s breakpoint scan of one normalized row."""
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


# ---------------------------------------------------------------------------
# Task- and context-scale families
# ---------------------------------------------------------------------------

def _inverse_mean_entropy(cells: np.ndarray, bounds: WeightBounds) -> np.ndarray:
    """Weights proportional to 1/(each teacher's entropy averaged over a stack of cells)."""
    return inverse_entropy_weights_from_entropies(entropy(cells).mean(axis=0), bounds)


def context_weights_safety(c: ContextSpec, bank: TeacherBank, bounds: WeightBounds) -> np.ndarray:
    """Ordinal safety weighting.

    On safety-critical contexts raw_k = safety_score_k + 1e-6 (so the weight
    order matches the designated safety order); elsewhere uniform.
    """
    if c.is_safety_critical:
        return clip_normalize(bank.safety_scores + VARIANCE_FLOOR, bounds)
    return uniform_weights(bank.k, bounds)


def _context_consistency(c: ContextSpec, bank: TeacherBank, bounds: WeightBounds) -> np.ndarray:
    """raw_k = 1/(mean TV distance of teacher k to the per-cell teacher mean + 1e-6)."""
    cells = bank.array[:, bank.context_index[c.id]]
    disp = (0.5 * np.abs(cells - cells.mean(axis=1, keepdims=True)).sum(axis=-1)).sum(axis=0)
    return clip_normalize(1.0 / (disp / len(cells) + VARIANCE_FLOOR), bounds)


def _context_shift(c: ContextSpec, bank: TeacherBank, bounds: WeightBounds) -> np.ndarray:
    """raw_k = exp(-mean TV between teacher k's predictions here and averaged over contexts)."""
    here, avg = bank.array[:, bank.context_index[c.id]], bank.array.mean(axis=1)
    shift = (0.5 * np.abs(here - avg).sum(axis=-1)).sum(axis=0)
    return clip_normalize(np.exp(-shift / len(here)), bounds)


# ---------------------------------------------------------------------------
# Operator objects (family tag + parameters + evaluation contract)
# ---------------------------------------------------------------------------

# Family -> evaluation per scale. A token entry maps the operator, a (..., K, V) stack
# of teacher cells and the bank to (..., K) raw weights, H being entropy; ``custom`` is
# evaluated per point. Task and context entries take the operator, then ``weights``' arguments.
TOKEN_FAMILIES: dict[str, Callable | None] = {
    "uniform": lambda op, d, bank: np.ones(d.shape[:-1]),
    "inverse_entropy": lambda op, d, bank: 1.0 / np.maximum(entropy(d), ENTROPY_FLOOR),
    "family_a": lambda op, d, bank: np.exp(-op.alpha * entropy(d)),
    "family_b": lambda op, d, bank: 1.0 / (np.var(d, axis=-1) + VARIANCE_FLOOR),
    "family_c": lambda op, d, bank: np.exp(-op.alpha * entropy(d)) * (1.0 + bank.safety_scores),
    "custom": None,
}
# Task entries: family A is 1/(loss + 1e-6) with loss = 1 - perf, family B linear in perf
# (floored away from zero), family C the softmax exp(perf / tau), inverse_entropy task-agnostic
# by design (a global uncertainty tier over the table's cells in insertion order).
TASK_FAMILIES: dict[str, Callable] = {
    "uniform": lambda op, t, bank, bounds: uniform_weights(bank.k, bounds),
    "inverse_entropy": lambda op, t, bank, bounds: _inverse_mean_entropy(
        bank.array.reshape(-1, *bank.array.shape[2:])[bank.cell_order], bounds),
    "family_a": lambda op, t, bank, bounds: clip_normalize(
        1.0 / ((1.0 - bank.perf(t)) + VARIANCE_FLOOR), bounds),
    "family_b": lambda op, t, bank, bounds: clip_normalize(bank.perf(t) + VARIANCE_FLOOR, bounds),
    "family_c": lambda op, t, bank, bounds: clip_normalize(np.exp(bank.perf(t) / op.tau), bounds),
    "custom": lambda op, *a: op.fn(*a),
}
# Context entries, off the safety-critical set (``ContextOperator.weights``): consistency
# (family B), distribution shift (family C) and the context's mean entropy.
CONTEXT_FAMILIES: dict[str, Callable] = {
    "uniform": lambda op, c, bank, bounds: uniform_weights(bank.k, bounds),
    "inverse_entropy": lambda op, c, bank, bounds: _inverse_mean_entropy(
        bank.array[:, bank.context_index[c.id]], bounds),
    "family_a": lambda op, *a: context_weights_safety(*a),
    "family_b": lambda op, *a: _context_consistency(*a),
    "family_c": lambda op, *a: _context_shift(*a),
    "custom": lambda op, *a: op.fn(*a),
}


def _family(families: dict[str, Callable]) -> tuple:
    return (lambda v, _: v in families), f"must be one of {', '.join(map(repr, families))}"


def _check(op, scale: str) -> None:
    """``op``'s field checks, then a callable for a custom family."""
    check_fields(op)
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
    FIELDS = {"family": (str, *_family(TOKEN_FAMILIES)), "alpha": (float, *POSITIVE),
              "safety_adjustment": (bool,)}

    def __post_init__(self):
        _check(self, "token")
        object.__setattr__(self, "safety_tokens", frozenset(self.safety_tokens))

    def weights(self, x: int, i: int, c: int, bank: TeacherBank,
                bounds: WeightBounds) -> np.ndarray:
        if self.family == "custom":
            return np.asarray(self.fn(x, i, c, bank, bounds), dtype=np.float64)
        return self.cell_weights(bank.dists(x, c), self._on([i])[0], bank, bounds)

    def _on(self, tokens) -> np.ndarray:
        """Whether each token id gets the safety boost: families A and B, adjusted, on theirs."""
        boosts = self.family in ("family_a", "family_b") and self.safety_adjustment
        return np.array([boosts and i in self.safety_tokens for i in tokens], dtype=bool)

    def cell_weights(self, dists, on, bank: TeacherBank, bounds: WeightBounds) -> np.ndarray:
        """A built-in family's weights of each cell of a (..., K, V) stack, bit for bit as alone.

        ``on`` (broadcasting against the stack's leading axes) marks the cells that get
        the safety boost (:meth:`_on`); there raw_k is multiplied by (1 + safety_score_k),
        so safer teachers get no less weight whenever their base weights already agree
        with the safety order.
        """
        raw = TOKEN_FAMILIES[self.family](self, dists, bank)
        return clip_normalize(np.where(on[..., None], raw * (1.0 + bank.safety_scores), raw),
                              bounds)

    def table(self, world: World, bounds: WeightBounds) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`weights` over the world as (N, C, S, K) distinct rows and each token's (V,) row.

        A built-in family is one call on the whole bank and has at most two rows, off and
        on its safety tokens; a custom operator is called at every (input, context, token),
        in that order, one row per token.
        """
        bank, tokens = world.bank, np.arange(world.vocab.size)
        if self.family == "custom":
            return np.array([[[self.weights(x.id, i, c.id, bank, bounds) for i in tokens.tolist()]
                              for c in world.contexts] for x in world.inputs]), tokens
        on, slot = np.unique(self._on(tokens), return_inverse=True)
        return self.cell_weights(world.teacher_dists()[:, :, None], on, bank, bounds), slot


@dataclass(frozen=True)
class TaskOperator:
    """Task-scale weight operator: (task, bank, bounds) -> weights."""

    family: str = "uniform"
    tau: float = 0.5
    fn: Callable | None = None
    FIELDS = {"family": (str, *_family(TASK_FAMILIES)), "tau": (float, *POSITIVE)}

    def __post_init__(self):
        _check(self, "task")

    def weights(self, t: int, bank: TeacherBank, bounds: WeightBounds) -> np.ndarray:
        return np.asarray(TASK_FAMILIES[self.family](self, t, bank, bounds), dtype=np.float64)


@dataclass(frozen=True)
class ContextOperator:
    """Context-scale weight operator: (context, bank, bounds) -> weights."""

    family: str = "uniform"
    fn: Callable | None = None
    FIELDS = {"family": (str, *_family(CONTEXT_FAMILIES))}

    def __post_init__(self):
        _check(self, "context")

    def weights(self, c: ContextSpec, bank: TeacherBank, bounds: WeightBounds) -> np.ndarray:
        if c.is_safety_critical and self.family not in ("uniform", "custom"):
            return context_weights_safety(c, bank, bounds)  # the ordinal safety form
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

    def record(self, magnitudes) -> None:
        """Record a magnitude, or an array of them in any order; one not ``<= tol`` (NaN too) fails."""
        m = np.asarray(magnitudes, dtype=np.float64)
        self.n_checked += m.size
        self.worst_violation = float(np.max(m, initial=self.worst_violation))  # NaN propagates
        if not np.all(m <= self.tol):
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


def _perturb_rows(rows: np.ndarray, eps: float, d: np.ndarray) -> np.ndarray:
    """Shift each distribution along the last axis of ``rows`` in place; the TV each moved.

    A row moves along its normal draws in ``d`` minus their mean, scaled to total
    variation ``eps`` and shortened where needed to keep entries positive; a
    row whose draws are all equal stays.
    """
    d = d - d.mean(axis=-1, keepdims=True)
    l1 = np.abs(d).sum(axis=-1, keepdims=True)
    live = l1 >= 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        d *= np.where(live, 2.0 * eps / l1, 0.0)  # TV = half the l1 distance
        limit = np.where(d < 0, rows / -d, np.inf).min(axis=-1, keepdims=True)
    d *= np.minimum(1.0, 0.9 * limit)
    np.add(rows, d, out=rows, where=live)
    return 0.5 * np.abs(d).sum(axis=-1)


def _cells(bank: TeacherBank, scale: str, key) -> tuple:
    """Index into ``bank.array`` of what a point reads: a token point's cell, a context's cells."""
    return ((bank.input_index[key[0]], bank.context_index[key[2]]) if scale == "token"
            else (slice(None), bank.context_index[key]))


def _perturbed_bank(bank: TeacherBank, scale: str, key, eps: float,
                    draws: np.ndarray) -> tuple[TeacherBank, float]:
    """The bank with the inputs of one sampled point moved by its ``draws``, and the distance.

    Token points move their (input, context) cell and context points every
    cell of the context, in input axis order, by total variation <= ``eps``;
    task points shift the task's performance scores by the draws (each within
    ``eps``), clipped to [0, 1]. Only the moved cells or scores are copied and
    revalidated.
    """
    if scale == "task":
        perf = np.clip(bank.perf_scores[key] + draws, 0.0, 1.0)
        return (bank.replaced(perf_scores={key: perf}),
                float(np.max(np.abs(perf - bank.perf(key)))))
    index = _cells(bank, scale, key)
    cells = np.array(bank.array[index])
    moved = _perturb_rows(cells, eps, draws)
    return bank.replaced(array=cells, index=index), float(moved.max(initial=0.0))


def _evaluate(op, scale: str, bank: TeacherBank, bounds: WeightBounds, points: dict):
    """Per point, in order: (P, K) weights, the largest weight change when its inputs
    move (NaN if they do not), and the distance moved.

    A built-in token family takes one array call for all points and one for all moved
    cells; every other operator is called per point, on the bank, then the moved bank.
    """
    if scale == "token" and isinstance(op, TokenOperator) and op.family != "custom":
        index = tuple(np.array(ix) for ix in zip(*(_cells(bank, scale, key) for key in points)))
        cells, moved_cells = bank.array[index], np.array(bank.array[index])
        draws = np.array([d for _, d in points.values()])
        moved = _perturb_rows(moved_cells, PERTURB_EPS, draws).max(axis=-1)
        on = op._on([i for _, i, _ in points])
        w = op.cell_weights(cells, on, bank, bounds)
        w2 = op.cell_weights(validate_distribution(moved_cells), on, bank, bounds)
        return w, np.where(moved > 1e-12, np.abs(w2 - w).max(axis=-1), np.nan), moved
    evaluated = []
    for key, (args, draws) in points.items():
        w = np.asarray(op.weights(*args, bank, bounds), dtype=np.float64)
        bank2, moved = _perturbed_bank(bank, scale, key, PERTURB_EPS, draws)
        dw = np.nan
        if moved > 1e-12:
            dw = float(np.max(np.abs(op.weights(*args, bank2, bounds) - w)))
        evaluated.append((w, dw, moved))
    w, dw, moved = zip(*evaluated)
    return np.array(w), np.array(dw), np.array(moved)


def check_conformance(op, scale: str, world: World, bounds: WeightBounds,
                      sampler: Sampler, n_samples: int) -> ConformanceReport:
    """Sample evaluation points and test every axiom at the given scale.

    Regularity pairs each evaluation with one where the teacher distributions
    are moved by total variation <= ``PERTURB_EPS`` (task-scale operators
    read performance scores instead, so those are perturbed there); the
    weight change must stay within the declared Lipschitz constant times the
    distance moved. Failures are recorded in the report, never raised.

    Operators are pure, so each distinct point is evaluated once, and each axiom's
    magnitudes are computed once per point, on the (P, K) stack, then recorded per sample.
    """
    if scale not in ("token", "task", "context"):
        raise MskdError(f"unknown scale {scale!r}")
    if n_samples < 1:
        raise MskdError("need at least one sample")
    bank = world.bank
    report = ConformanceReport(scale=scale, n_samples=n_samples)
    checks = report.checks
    checks["normalization"] = AxiomCheck("normalization", SUM_TOL)
    checks["positivity"] = AxiomCheck("positivity", 0.0)
    checks["bounds"] = AxiomCheck("bounds", SUM_TOL)
    checks["regularity"] = AxiomCheck("regularity", bounds.lipschitz)
    if scale in ("token", "context"):
        checks["safety_monotonicity"] = AxiomCheck("safety_monotonicity", SUM_TOL)
    points: dict = {}  # each distinct point, first seen first: its arguments and draws
    keys, safe = [], []  # per sample: its point, and whether safety monotonicity applies
    for _ in range(n_samples):
        # a point: its key, the ``weights`` arguments before the bank, and
        # whether safety monotonicity applies there; the draws that move its
        # inputs follow its first sample in the stream
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
        if key not in points:
            points[key] = (args, sampler.uniform(-PERTURB_EPS, PERTURB_EPS, size=bank.k)
                           if scale == "task" else
                           sampler.normal(size=bank.array[_cells(bank, scale, key)].shape))
        keys.append(key)
        safe.append(safety)
    w, dw, moved = _evaluate(op, scale, bank, bounds, points)
    position = {key: n for n, key in enumerate(points)}
    at = np.array([position[key] for key in keys])
    lo, hi = w.min(axis=-1), w.max(axis=-1)
    checks["normalization"].record(np.abs(w.sum(axis=-1) - 1.0)[at])
    checks["positivity"].record(np.where(lo > 0, 0.0, -lo)[at])
    checks["bounds"].record(np.maximum(np.maximum(bounds.w_min - lo, hi - bounds.w_max), 0.0)[at])
    if scale != "task":  # strict premise: a strictly safer teacher may not get strictly less weight
        a, b = np.nonzero(bank.safety_scores[:, None] > bank.safety_scores)
        w_safe = w[at[np.array(safe)]]
        checks["safety_monotonicity"].record(np.maximum(w_safe[:, b] - w_safe[:, a], 0.0))
    ratio = (dw / moved)[at][moved[at] > 1e-12]  # the pairs whose inputs moved
    report.lipschitz_estimate = float(np.max(ratio, initial=0.0))
    checks["regularity"].record(ratio)
    return report


# ---------------------------------------------------------------------------
# Pareto compatibility (task scale)
# ---------------------------------------------------------------------------

def check_pareto_compat(lambda_grid: Sequence[float] | None = None) -> bool:
    """Scalarization sanity check on a convex two-task toy instance.

    The task losses are (th - 1)^2 and (th + 1)^2 on a grid of th in [-2, 2]
    with step 0.01. For every mixing coefficient in ``lambda_grid`` (11 points
    over [0, 1] by default), the grid minimizer of ``lam * l1 + (1 - lam) * l2``
    must not be Pareto-dominated by any other grid point (brute-force dominance
    scan, tolerance 1e-12).
    """
    if lambda_grid is None:
        lambda_grid = np.linspace(0.0, 1.0, 11)
    th, tol = np.arange(-2.0, 2.0 + 1e-12, 0.01), 1e-12
    l1, l2 = (th - 1.0) ** 2, (th + 1.0) ** 2
    for lam in lambda_grid:
        scalar = lam * l1 + (1.0 - lam) * l2
        best = int(np.argmin(scalar))
        dominates = (l1 <= l1[best] + tol) & (l2 <= l2[best] + tol) & \
                    ((l1 < l1[best] - tol) | (l2 < l2[best] - tol))
        if dominates.any():
            return False
    return True
