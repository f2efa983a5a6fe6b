"""Domain types, validation, and deterministic randomness.

Everything downstream (weight operators, composition, trainers, dynamics,
safety) works on the immutable types defined here: a finite vocabulary with an
optional safety-critical token subset, finite input/task/context sets with
sampling weights, a bank of lookup-table teachers, and weight bounds; the student
is a plain (N, V) logit array. All types validate their invariants at construction
time and freeze their arrays, so instances are safe to share across workers.
"""

from __future__ import annotations

import copy
import math
from dataclasses import InitVar, dataclass
from typing import Mapping, Sequence

import numpy as np

SUM_TOL = 1e-9          # tolerance on probability/weight normalization
CONSTRUCTION_TOL = 1e-12  # tolerance on declared weights in specs


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class MskdError(Exception):
    """Base class for all library errors."""


class NegativeMass(MskdError):
    """A probability entry is below -1e-12."""


class NotNormalized(MskdError):
    """A probability vector does not sum to 1 within tolerance."""


class InfeasibleBounds(MskdError):
    """No normalized weight vector can satisfy the per-teacher bounds."""


class ZeroMass(MskdError):
    """A raw weight vector has no positive mass to normalize."""


class MissingScores(MskdError):
    """Required performance or safety scores are absent from the bank."""


class DimensionMismatch(MskdError):
    """Vector lengths disagree."""


class NonFiniteLoss(MskdError):
    """Training produced a non-finite loss value."""


class InsufficientTrace(MskdError):
    """A trace has too few usable evaluation points for a rate fit."""


class MarginViolated(MskdError):
    """A weight perturbation leaves the feasible margin."""


class Infeasible(MskdError):
    """No student can reach the requested safety threshold."""


class DualStall(MskdError):
    """Dual ascent hit its iteration cap before meeting the residual targets."""


class MissingLabel(MskdError):
    """A ground-truth label is absent for a referenced (input, context) pair."""


class NegativeMultiplier(MskdError):
    """A Lagrange multiplier must be nonnegative."""


class NonConformantOperator(MskdError):
    """An operator failed a conformance precondition."""


class ParseError(MskdError):
    """An experiment config file could not be parsed or validated."""


class UnresolvedReference(MskdError):
    """A config references an id that does not exist."""


# ---------------------------------------------------------------------------
# Field checks: a config class's FIELDS maps each field to (JSON kind, *check)
# ---------------------------------------------------------------------------

def at_least(lo: int) -> tuple:
    return (lambda v, _: v >= lo), f"must be at least {lo}"


UNIT = (lambda v, _: 0 < v <= 1, "must lie in (0, 1]")
POSITIVE = (lambda v, _: v > 0, "must be positive")
NONNEGATIVE = (lambda v, _: v >= 0, "must be nonnegative")
_NUMERIC = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}


def finite_sum(values) -> bool:
    """Whether ``values`` are numbers with a finite float sum (hence each one finite)."""
    try:
        return math.isfinite(math.fsum(values))
    except (TypeError, ValueError, OverflowError):  # a non-number, inf - inf, an overflow
        return False


def field_problem(value, kind: type, check=None, message: str = "", world=None) -> str | None:
    """What is wrong with ``value`` as a field of ``kind``, or None.

    An int field takes an integer (numpy's too) and a float field a number, each finite as a
    float and not a bool; ``check(value, world)`` returns True, False for ``message``, or a problem.
    """
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, _NUMERIC.get(kind, kind)):
        return f"must be {({int: 'an integer', float: 'a number'}).get(kind, kind.__name__)}"
    if kind in _NUMERIC and not finite_sum([value]):
        return "must be finite"
    verdict = check is None or check(value, world)
    return verdict if isinstance(verdict, str) else None if verdict else message


def check_fields(obj) -> None:
    """One ``MskdError`` naming, with its value, each field of ``obj`` its ``FIELDS`` rejects."""
    problems = [f"{name}: {problem}, got {getattr(obj, name)!r}"
                for name, entry in obj.FIELDS.items()
                if (problem := field_problem(getattr(obj, name), *entry))]
    if problems:
        raise MskdError("; ".join(problems))


# ---------------------------------------------------------------------------
# Probability vectors
# ---------------------------------------------------------------------------

def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, order="C")  # copy: never freeze caller arrays
    a.setflags(write=False)
    return a


def validate_distribution(p) -> np.ndarray:
    """Validate a raw vector, or each vector along the last axis of a stack, as a distribution.

    Returns a read-only float64 array of the same shape. Entries in (-1e-12, 0)
    are clamped to exactly zero; anything more negative raises
    ``NegativeMass``, and a row whose total is off by more than 1e-9, or NaN,
    raises ``NotNormalized``.
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim < 1:
        raise DimensionMismatch(f"expected probability vectors, got shape {arr.shape}")
    if np.any(arr < -CONSTRUCTION_TOL):
        worst = float(arr.min())
        raise NegativeMass(f"entry {worst} below -{CONSTRUCTION_TOL}")
    arr = np.where(arr < 0.0, 0.0, arr)
    total = np.ravel(arr.sum(axis=-1))
    off = np.flatnonzero(~(np.abs(total - 1.0) <= SUM_TOL))  # also a NaN total, i.e. a NaN entry
    if off.size:
        raise NotNormalized(f"entries sum to {float(total[off[0]])!r}, not 1 within {SUM_TOL}")
    return _freeze(arr)


def entropy(p):
    """Shannon entropy in nats along the last axis (a float for one vector), 0*ln(0) taken as 0.

    A vector's positive entries are summed as one array, in order, so each vector of a stack
    gets the bits it gets alone. The result lies in [0, ln V] for a distribution of length V.
    """
    arr = np.asarray(p, dtype=np.float64)
    counts = (arr > 0.0).sum(axis=-1)
    out = np.empty(counts.shape)
    for m in set(counts.ravel().tolist()):  # the vectors with m positive entries, m at a time
        q = arr[counts == m]
        q = q[q > 0.0].reshape(len(q), m)
        out[counts == m] = -(q * np.log(q)).sum(axis=-1)
    return float(out) if arr.ndim == 1 else out


def normalize_exact(raw: np.ndarray) -> np.ndarray:
    """Normalize a positive vector, or each row of an (R, K) stack, rounding once per entry.

    ``np.frexp`` writes each entry as a 53-bit integer mantissa times a power of two. A row's
    mantissas, as Python integers, are shifted to the row's smallest nonzero exponent and
    summed; each entry is one integer true division by that sum, which CPython rounds
    correctly. So algebraically equal inputs produce bit-identical outputs (e.g. a product of
    uniform weight vectors normalizes to exactly ``1/K`` per entry, for every K).
    """
    rows = np.asarray(raw, dtype=np.float64)
    if not np.isfinite(rows).all():  # np.frexp would pass them: name the first
        bad = rows[~np.isfinite(rows)][0]
        raise (ValueError if np.isnan(bad) else OverflowError)(f"cannot normalize {bad}")
    m, e = np.frexp(rows)
    low = np.min(e, axis=-1, initial=2048, where=m != 0.0, keepdims=True)
    nums = np.ldexp(m, 53).astype(np.int64).astype(object) << np.maximum(e - low, 0)
    if not ((total := nums.sum(axis=-1, keepdims=True)) > 0).all():
        raise ZeroMass("cannot normalize a vector with no positive mass")
    return (nums / total).astype(np.float64)


# ---------------------------------------------------------------------------
# World specification types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VocabularySpec:
    """A finite token vocabulary with an optional safety-critical subset."""

    size: int
    safety_tokens: frozenset[int] = frozenset()
    FIELDS = {"size": (int, *at_least(2))}

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "safety_tokens", frozenset(self.safety_tokens))
        bad = [i for i in self.safety_tokens if not 0 <= i < self.size]
        if bad:
            raise MskdError(f"safety tokens {bad} outside [0, {self.size})")


@dataclass(frozen=True)
class InputSpec:
    """An input point with a real feature vector (the metric carrier)."""

    id: int
    features: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", _freeze(np.atleast_1d(self.features)))


@dataclass(frozen=True)
class TaskSpec:
    """A task: a sampling distribution over input ids plus an importance weight."""

    id: int
    input_ids: tuple[int, ...]
    input_weights: np.ndarray
    importance: float
    FIELDS = {"importance": (float, *NONNEGATIVE)}

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "input_ids", tuple(self.input_ids))
        w = _freeze(np.asarray(self.input_weights, dtype=np.float64))
        object.__setattr__(self, "input_weights", w)
        if len(self.input_ids) != w.shape[0]:
            raise DimensionMismatch("input id / weight length mismatch")
        if not np.all(w >= 0):  # NaN included
            raise MskdError(f"task {self.id} sampling weights must be nonnegative")
        if not abs(float(w.sum()) - 1.0) <= CONSTRUCTION_TOL:
            raise NotNormalized(f"task {self.id} sampling weights sum to {float(w.sum())!r}")


@dataclass(frozen=True)
class ContextSpec:
    """A deployment context: features, measure weight, and safety criticality."""

    id: int
    features: np.ndarray
    measure_weight: float
    is_safety_critical: bool = False
    FIELDS = {"measure_weight": (float, *NONNEGATIVE)}

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "features", _freeze(np.atleast_1d(self.features)))


class _AxisIndex(dict):
    """Ids -> positions along one axis of a teacher bank, in order of first appearance."""

    def __init__(self, axis: str, ids):
        super().__init__((i, n) for n, i in enumerate(dict.fromkeys(ids)))
        self.axis = axis

    def __missing__(self, key):
        raise UnresolvedReference(f"teacher table missing cell: no entries for {self.axis} {key!r}")


def _scores(scores, k: int, what: str) -> np.ndarray:
    s = _freeze(np.asarray(scores, dtype=np.float64))
    if s.shape != (k,):
        raise DimensionMismatch(f"{what} have shape {s.shape}, expected ({k},)")
    if not np.all((s >= 0) & (s <= 1)):
        raise MskdError(f"{what} not all in [0, 1]")
    return s


@dataclass(frozen=True)
class TeacherBank:
    """K lookup-table teachers with per-task performance and safety scores.

    ``table`` maps (input id, context id) to a (K, V) array whose rows are the
    teachers' distributions at that point. It must be a full grid: each of its
    input ids appears with each of its context ids. The bank keeps it as one
    read-only (N_b, C_b, K, V) ``array``; ``input_index`` and ``context_index``
    map ids to the first two axes in order of first appearance among the keys,
    and ``cell_order`` holds the flat ``n * C_b + c`` index of each cell in the
    table's insertion order. ``perf_scores`` maps task id to a length-K array
    in [0, 1]; ``safety_scores`` is a length-K array in [0, 1] that carries the
    designated ordinal safety ranking of the teachers.
    """

    num_teachers: int
    table: InitVar[Mapping[tuple[int, int], np.ndarray]]
    perf_scores: Mapping[int, np.ndarray]
    safety_scores: np.ndarray
    FIELDS = {"num_teachers": (int, *at_least(1))}

    def __post_init__(self, table):
        check_fields(self)
        k = self.num_teachers
        inputs = _AxisIndex("input", (x for x, _ in table))
        contexts = _AxisIndex("context", (c for _, c in table))
        if len(table) != len(inputs) * len(contexts):
            missing = next((x, c) for x in inputs for c in contexts if (x, c) not in table)
            raise UnresolvedReference(f"teacher table is not a full grid: missing cell {missing}")
        try:
            cells = np.array(list(table.values()), dtype=np.float64) if table else np.empty((0, k, 0))
        except ValueError:
            raise DimensionMismatch("teacher cells must be numeric (K, V) arrays of one shape")
        if cells.ndim != 3 or cells.shape[1] != k:
            raise DimensionMismatch(f"teacher cells have shape {cells.shape[1:]}, expected ({k}, V)")
        order = np.array([inputs[x] * len(contexts) + contexts[c] for x, c in table], dtype=np.intp)
        order.setflags(write=False)
        object.__setattr__(self, "input_index", inputs)
        object.__setattr__(self, "context_index", contexts)
        object.__setattr__(self, "cell_order", order)
        object.__setattr__(self, "array", validate_distribution(  # every row at once
            cells[np.argsort(order)].reshape(len(inputs), len(contexts), *cells.shape[1:])))
        self._store_perf(self.perf_scores)
        object.__setattr__(self, "safety_scores", _scores(self.safety_scores, k, "safety scores"))

    def _store_perf(self, perf_scores: Mapping[int, np.ndarray], kept: Mapping | None = None):
        object.__setattr__(self, "perf_scores", {**(kept or {}), **{
            t: _scores(s, self.num_teachers, f"perf scores for task {t}")
            for t, s in perf_scores.items()}})

    def replaced(self, array: np.ndarray | None = None,
                 perf_scores: Mapping[int, np.ndarray] | None = None,
                 index=...) -> TeacherBank:
        """This bank with ``array[index]`` (all of it by default) or some tasks' scores replaced.

        ``perf_scores`` holds the new scores by task. Only what is replaced is revalidated.
        """
        bank = copy.copy(self)
        if array is not None:
            new = np.array(self.array)
            new[index] = validate_distribution(array)
            object.__setattr__(bank, "array", _freeze(new))
        if perf_scores is not None:
            bank._store_perf(perf_scores, self.perf_scores)
        return bank

    @property
    def k(self) -> int:
        return self.num_teachers

    def dists(self, input_id: int, context_id: int) -> np.ndarray:
        """The (K, V) stack of teacher distributions at one (input, context) cell."""
        return self.array[self.input_index[input_id], self.context_index[context_id]]

    def perf(self, task_id: int) -> np.ndarray:
        try:
            return self.perf_scores[task_id]
        except KeyError:
            raise MissingScores(f"no performance scores for task {task_id}")


@dataclass(frozen=True)
class WeightBounds:
    """Per-teacher weight interval [w_min, w_max] plus a declared Lipschitz bound."""

    w_min: float = 0.01
    w_max: float = 0.99
    lipschitz: float = 25.0
    FIELDS = {"w_min": (float, *POSITIVE), "w_max": (float, *POSITIVE),
              "lipschitz": (float, *POSITIVE)}

    def __post_init__(self):
        check_fields(self)
        if self.w_min > self.w_max:
            raise InfeasibleBounds(f"need w_min <= w_max, got [{self.w_min}, {self.w_max}]")

    def check_feasible(self, k: int) -> None:
        """Reject (w_min, w_max, K) combinations no normalized vector can satisfy."""
        if k * self.w_min > 1.0 + CONSTRUCTION_TOL or k * self.w_max < 1.0 - CONSTRUCTION_TOL:
            raise InfeasibleBounds(
                f"bounds [{self.w_min}, {self.w_max}] infeasible for K={k}: "
                f"need K*w_min <= 1 <= K*w_max")

    def contains(self, w: np.ndarray) -> bool:
        return bool(np.all(w >= self.w_min - SUM_TOL) and np.all(w <= self.w_max + SUM_TOL))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# World: the full finite experiment universe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class World:
    """A complete finite experiment world.

    Bundles the vocabulary, inputs, tasks, contexts, and teacher bank, and
    precomputes the index maps and joint sampling measure used by the loss,
    trainers, and diagnostics. Task importances must sum to 1, context measure
    weights must sum to 1, and every (input, context) pair must have a teacher
    table entry (the bank may hold more inputs and contexts than the world uses).
    """

    vocab: VocabularySpec
    inputs: tuple[InputSpec, ...]
    tasks: tuple[TaskSpec, ...]
    contexts: tuple[ContextSpec, ...]
    bank: TeacherBank

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "contexts", tuple(self.contexts))
        if not self.inputs or not self.tasks or not self.contexts:
            raise MskdError("world needs at least one input, task, and context")
        dims = {x.features.shape[0] for x in self.inputs}
        if len(dims) != 1:
            raise MskdError(f"input feature dimensions differ: {sorted(dims)}")
        lam = np.array([t.importance for t in self.tasks])
        if not abs(float(lam.sum()) - 1.0) <= CONSTRUCTION_TOL:  # NaN included
            raise NotNormalized(f"task importances sum to {float(lam.sum())!r}")
        mu = np.array([c.measure_weight for c in self.contexts])
        if not abs(float(mu.sum()) - 1.0) <= CONSTRUCTION_TOL:
            raise NotNormalized(f"context measure weights sum to {float(mu.sum())!r}")
        for name, specs in (("input", self.inputs), ("task", self.tasks), ("context", self.contexts)):
            if len({s.id for s in specs}) != len(specs):
                raise MskdError(f"duplicate {name} ids")
        input_ids = {x.id for x in self.inputs}
        for t in self.tasks:
            missing = [i for i in t.input_ids if i not in input_ids]
            if missing:
                raise UnresolvedReference(f"task {t.id} references unknown inputs {missing}")
        bank = self.bank
        object.__setattr__(self, "_bank_cells", np.ix_(  # world order -> bank axes
            [bank.input_index[x.id] for x in self.inputs],
            [bank.context_index[c.id] for c in self.contexts]))
        if bank.array.shape[-1] != self.vocab.size:
            raise DimensionMismatch(f"teacher distributions have length {bank.array.shape[-1]}, "
                                    f"vocabulary has {self.vocab.size}")
        # cached measure structures (the types above are immutable)
        idx = {x.id: i for i, x in enumerate(self.inputs)}
        px = np.zeros((len(self.tasks), len(self.inputs)))
        for j, t in enumerate(self.tasks):
            for input_id, w in zip(t.input_ids, t.input_weights):
                px[j, idx[input_id]] += w
        object.__setattr__(self, "_input_index", idx)
        object.__setattr__(self, "_task_index", {t.id: j for j, t in enumerate(self.tasks)})
        object.__setattr__(self, "_context_index", {c.id: k for k, c in enumerate(self.contexts)})
        object.__setattr__(self, "_lam", _freeze(lam))
        object.__setattr__(self, "_mu", _freeze(mu))
        object.__setattr__(self, "_px", _freeze(px))
        object.__setattr__(self, "_task_local_idx",
                           tuple(np.array([idx[i] for i in t.input_ids], dtype=np.intp)
                                 for t in self.tasks))
        # cumulative sums inverted by the sampler: tasks, each task's inputs, contexts
        object.__setattr__(self, "_cum", (_freeze(np.cumsum(lam)),
                                          tuple(_freeze(np.cumsum(t.input_weights))
                                                for t in self.tasks),
                                          _freeze(np.cumsum(mu))))

    # --- index helpers -----------------------------------------------------

    def cell_index(self, task_id: int, input_id: int, context_id: int) -> tuple[int, int, int]:
        """(task, input, context) indices of three ids; ``UnresolvedReference`` if one is unknown."""
        try:
            return (self._task_index[task_id], self._input_index[input_id],
                    self._context_index[context_id])
        except KeyError as exc:
            raise UnresolvedReference(
                f"unknown id {exc.args[0]} in (task {task_id}, input {input_id}, "
                f"context {context_id})")

    @property
    def context_weights(self) -> np.ndarray:
        return self._mu

    def teacher_dists(self) -> np.ndarray:
        """(N, C, K, V) teacher distributions in the world's input and context order."""
        return self.bank.array[self._bank_cells]

    def joint_measure(self) -> np.ndarray:
        """(n_tasks, n_inputs, n_contexts) joint sampling probabilities."""
        return self._lam[:, None, None] * self._px[:, :, None] * self._mu[None, None, :]

    def input_marginals(self) -> np.ndarray:
        """Aggregate sampling weight of each input (marginal over tasks/contexts)."""
        return self.joint_measure().sum(axis=(0, 2))

    def pair_measure(self) -> np.ndarray:
        """(n_inputs, n_contexts) sampling probabilities of (input, context) pairs."""
        return self.input_marginals()[:, None] * self.context_weights

    def sample_index_arrays(self, sampler: "Sampler",
                            n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``n`` (task, input, context) index triples, as three length-``n`` arrays.

        One ``sampler.uniform`` call takes ``3n`` doubles, three per triple in
        task/input/context order, so triple ``k`` gets the same doubles and
        indices as the ``k``-th of ``n`` calls with ``n = 1``.
        """
        u = sampler.uniform(size=3 * n).reshape(n, 3)
        task_cum, input_cums, context_cum = self._cum
        tj = _inverse_cdf(task_cum, u[:, 0])
        xi = np.empty(n, dtype=np.intp)
        for j, (cum, local) in enumerate(zip(input_cums, self._task_local_idx)):
            drawn = tj == j
            xi[drawn] = local[_inverse_cdf(cum, u[drawn, 1])]
        return tj, xi, _inverse_cdf(context_cum, u[:, 2])

    def sample_index_blocks(self, sampler: "Sampler", n: int):
        """``n`` triples as ``sample_index_arrays`` blocks of at most ``SAMPLE_BLOCK``.

        Consecutive blocks continue one stream, so the triples equal one
        ``sample_index_arrays(sampler, n)`` call while the draws held at any
        time stay small.
        """
        for start in range(0, n, SAMPLE_BLOCK):
            yield self.sample_index_arrays(sampler, min(SAMPLE_BLOCK, n - start))


# ---------------------------------------------------------------------------
# Deterministic randomness
# ---------------------------------------------------------------------------

SAMPLE_BLOCK = 1024  # index triples drawn per sampler call by the single-sample loops


def _inverse_cdf(cum: np.ndarray, u):
    """Indices drawn by inverting the cumulative sums ``cum`` at unit uniforms ``u``.

    ``u * cum[-1]`` is exactly what ``Generator.uniform(0, cum[-1])`` returns for
    the same double. A point below the total never lands on a zero-weight entry
    (``side="right"``); a point at the total, which no double below 1 gives, is
    clipped to the last index.
    """
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), len(cum) - 1)


class Sampler:
    """Deterministic random source (PCG64 with fixed constants).

    One sampler per worker; never share an instance across concurrent runs.
    Identical seeds give identical draw sequences across processes and
    platforms. Weighted choices invert a cumulative sum at one uniform
    double, so the stream layout is fixed by construction rather than by
    generator internals: ``uniform(0, c)`` computes ``c * u`` from the next
    double ``u``, and a (task, input, context) triple takes three doubles in
    that order. The training and variance loops draw triples in blocks of
    ``SAMPLE_BLOCK`` that continue one stream, so every triple gets the same
    doubles as when it is drawn alone.
    """

    def __init__(self, seed_seq: np.random.SeedSequence):
        self._seq = seed_seq
        self._gen = np.random.Generator(np.random.PCG64(seed_seq))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size=size)

    def normal(self, scale: float = 1.0, size=None):
        return self._gen.normal(0.0, scale, size=size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def choice(self, weights: np.ndarray) -> int:
        """Index drawn proportionally to ``weights`` (need not be normalized)."""
        return int(_inverse_cdf(np.cumsum(np.asarray(weights, dtype=np.float64)),
                                self._gen.random()))

    def spawn(self, n: int) -> list["Sampler"]:
        """Derive n independent child samplers (deterministic given the parent seed)."""
        return [Sampler(s) for s in self._seq.spawn(n)]


def seeded_sampler(seed: int) -> Sampler:
    """A deterministic sampler: identical seed, identical draw sequence."""
    return Sampler(np.random.SeedSequence(seed))


# ---------------------------------------------------------------------------
# CSV plumbing (shared by traces and the experiment runner)
# ---------------------------------------------------------------------------

def format_value(v) -> str:
    """Full-precision, locale-independent cell formatting (17 significant digits)."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def write_csv(path, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
