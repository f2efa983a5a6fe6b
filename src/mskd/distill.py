"""Adaptive distillation objective, trainers, and convergence diagnostics.

The student is tabular (one logit vector per input), so the weighted ensemble
targets are exactly representable and no approximation error contaminates the
convergence experiments. Targets are compiled once per run into dense arrays
(the world is finite and small); stochastic training then samples
(task, input, context) triples with the declared measure, applies
single-sample gradients, and decays the learning rate as eta0 / (1 + t).

All trainers share one loop, ``train_stack``: runs (a target table and a seed each) trained
in event rounds, one window per sample block, each with the bits it gets alone. Deferred ridge
decays fold by one row gather from a buffer of a window's rows, record copies and decay factors.
``sgd_train`` and ``classic_uniform_train`` are stacks of one. The classical trainer differs
from the adaptive one only in how the target table is built. With all-uniform operators the
two tables are bit-identical, so the trajectories agree exactly at equal seeds.

The damped-Newton solver ``minimize_blockwise`` makes one stacked kernel call
at step 1 and one for all line-search halvings (one call for both after step 1
failed every block), reuses the accepted trial's evaluation, builds Hessians
only for the blocks still open, retires a block at a bitwise fixed point, and
gives every block the bits a per-block loop gives it.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .composition import UnifiedWeightOperator, renormalized_mixture
from .core import (
    NONNEGATIVE,
    POSITIVE,
    SAMPLE_BLOCK,
    InsufficientTrace,
    MskdError,
    NonFiniteLoss,
    World,
    at_least,
    check_fields,
    log_softmax,
    normalize_exact,  # unused here; perfbench/probes.py wraps distill.normalize_exact
    seeded_sampler,
    softmax,
    validate_distribution,
)


@dataclass(frozen=True)
class TrainerConfig:
    """Stochastic trainer settings.

    ``eta0`` scales the decaying schedule eta_t = eta0 / (1 + t); ``ridge``
    is the global l2 strength; ``init_scale`` is the standard deviation of
    the seeded Gaussian logit initialization (0 starts at the origin).
    """

    eta0: float = 1.0
    steps: int = 1000
    ridge: float = 0.0
    seed: int = 0
    eval_every: int = 100
    init_scale: float = 0.0
    FIELDS = {"eta0": (float, *POSITIVE), "steps": (int, *NONNEGATIVE),
              "ridge": (float, *NONNEGATIVE), "eval_every": (int, *at_least(1)),
              "init_scale": (float, *NONNEGATIVE), "seed": (int, *NONNEGATIVE)}

    __post_init__ = check_fields


@dataclass
class TrainTrace:
    """Per-evaluation training records (steps strictly increasing)."""

    steps: np.ndarray
    loss: np.ndarray
    mean_kl: np.ndarray
    grad_norm: np.ndarray
    lr: np.ndarray

    def __post_init__(self):
        self.steps = np.asarray(self.steps, dtype=np.int64)
        if np.any(np.diff(self.steps) <= 0):
            raise MskdError("trace steps must be strictly increasing")
        for name in ("loss", "mean_kl", "grad_norm", "lr"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))


# ---------------------------------------------------------------------------
# Compiled objective
# ---------------------------------------------------------------------------

def _objective(th: np.ndarray, m_x: np.ndarray, qbar: np.ndarray, ridge: float, neg_ent):
    """Loss, mean KL and gradient at (..., N, V) logits; each (N, V) table sums as one array."""
    qlogp, sq = (np.sum(a.reshape(*a.shape[:-2], -1), axis=-1)  # -qlogp is the cross-entropy
                 for a in (m_x[..., None] * qbar * log_softmax(th), th * th))
    return (-qlogp + 0.5 * ridge * sq, neg_ent - qlogp,
            m_x[..., None] * (softmax(th) - qbar) + ridge * th)


@dataclass
class CompiledObjective:
    """Dense target tables and measure arrays for one (operator, world) pair."""

    world: World
    ridge: float
    rows: np.ndarray           # (J, N, C, S, K) weight rows, or rows broadcasting to that
    slot: np.ndarray           # (V,) row of each token: the targets mix rows.take(slot, axis=-2)
    joint: np.ndarray          # (J, N, C) sampling probabilities
    targets: np.ndarray        # (J, N, C, V) ensemble targets
    m_x: np.ndarray            # (N,) input marginals
    qbar: np.ndarray           # (N, V) measure-averaged target per input
    target_neg_entropy: float  # E[sum_i q ln q], constant in theta

    def loss(self, theta: np.ndarray) -> float:
        """Expected cross-entropy against the targets plus the ridge term."""
        return float(_objective(theta, self.m_x, self.qbar, self.ridge, self.target_neg_entropy)[0])

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return _objective(theta, self.m_x, self.qbar, self.ridge, self.target_neg_entropy)[2]

    def mean_kl(self, theta: np.ndarray) -> float:
        """E over (task, input, context) of KL(target || student)."""
        return float(_objective(theta, self.m_x, self.qbar, self.ridge, self.target_neg_entropy)[1])

    def block(self, xi: np.ndarray, rows: np.ndarray, labels=None):
        """Values, gradients and softmax rows of inputs ``xi``'s loss shares at (a, V) ``rows``.

        ``labels``, ``(y, on, w)`` columns of (N,) tables in ascending token order, subtracts
        ``w[x] * p[y]`` (p = softmax of the row) for each token y with ``on[x]``: a Lagrangian's
        safety terms. Each row gets the bits a one-row evaluation gives it.
        """
        z = rows - rows.max(axis=-1, keepdims=True)  # one pass of softmax's and log_softmax's ops
        e = np.exp(z)
        s = e.sum(axis=-1, keepdims=True)
        p = e / s
        f = -self.m_x[xi] * np.vecdot(self.qbar[xi], z - np.log(s)) \
            + 0.5 * self.ridge * np.vecdot(rows, rows)
        g = self.m_x[xi][:, None] * (p - self.qbar[xi]) + self.ridge * rows
        for r, c, d in self._label_terms(xi, p, labels):
            f[r] -= c
            g[r] -= c[:, None] * d
        return f, g, p

    def block_hessians(self, xi: np.ndarray, p: np.ndarray, labels=None) -> np.ndarray:
        """The (k, V, V) Hessians of ``block`` at the rows whose softmax rows are ``p``."""
        pp = p[:, :, None] * p[:, None, :]
        h = np.subtract(0.0, pp)  # diag(p) - outer(p, p), in place
        np.einsum("ijj->ij", h)[...] = p - p * p  # (einsum's diagonal is a writable view)
        h *= self.m_x[xi][:, None, None]
        np.einsum("ijj->ij", h)[...] += self.ridge
        for r, c, d in self._label_terms(xi, p, labels):
            t = d[:, :, None] * d[:, None, :]
            np.einsum("ijj->ij", t)[...] -= p[r]  # outer(d, d) - diag(p)
            t += pp[r]
            t *= c[:, None, None]
            h[r] -= t
        return h

    @staticmethod
    def _label_terms(xi, p, labels):
        """Each label token's term (rows, w * p[y], e_y - p) of the softmax rows ``p``, by token."""
        for y, on, w in labels or ():
            if (hit := on[xi]).all():  # every row carries y: no row gather
                r = slice(None)
            elif not len(r := hit.nonzero()[0]):
                continue
            d = 0.0 - p[r]
            d[:, y] += 1.0
            yield r, w[xi[r]] * p[r, y], d


def compile_objective(G: UnifiedWeightOperator, world: World,
                      ridge: float = 0.0) -> CompiledObjective:
    """Evaluate the operator over the finite world once and densify.

    This is the caching layer: the operator's weight table evaluates token
    weights once per (input, context) (and token, for a custom operator),
    task weights once per task and context weights once per context, not per
    training step. The table is kept compact, as distinct ``rows`` and each
    token's ``slot``; the perturbation experiment shifts and renormalizes those
    rows (``normalize_rows``) and densifies them again with ``_densify``.
    """
    return _densify(world, ridge, *G.compact_table(world))


def _uniform_compiled(world: World, ridge: float) -> CompiledObjective:
    """Classical target table: plain uniform mixture of the teachers."""
    k = world.bank.k
    rows = np.broadcast_to(np.full(k, 1.0 / k), (len(world.tasks), 1, 1, 1, k))
    return _densify(world, ridge, rows, np.zeros(world.vocab.size, dtype=np.intp))


def _densify(world: World, ridge: float, rows: np.ndarray, slot: np.ndarray) -> CompiledObjective:
    """Densify the targets of rows broadcasting to (J, N, C, S, K); token i mixes ``slot[i]``."""
    targets = renormalized_mixture(rows.take(slot, axis=-2), world.teacher_dists())
    validate_distribution(targets)
    joint = world.joint_measure()
    m_x = joint.sum(axis=(0, 2))
    qbar = np.einsum("jnc,jncv->nv", joint, targets)
    safe = m_x > 0
    qbar[safe] /= m_x[safe, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        qlogq = np.where(targets > 0, targets * np.log(np.where(targets > 0, targets, 1.0)), 0.0)
    neg_ent = float(np.sum(joint[..., None] * qlogq))
    return CompiledObjective(world, ridge, rows, slot, joint, targets, m_x, qbar, neg_ent)


# ---------------------------------------------------------------------------
# Stochastic training
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")  # a diverged run is reported as NonFiniteLoss
def train_stack(runs: Sequence[tuple[CompiledObjective, int]],
                config: TrainerConfig) -> list[tuple[np.ndarray, TrainTrace]]:
    """Train a stack of runs in event rounds; one ``(compiled, seed)`` pair per run.

    Every run shares one world and ``config``'s schedule; its seed replaces ``config.seed``.
    Each run gets the bits it gets alone: its own init and sample streams (``spawn(2)`` of its
    seed, triples in ``SAMPLE_BLOCK`` blocks), its softmax in ``core.softmax``'s operation
    order, and its ``loss``/``grad``/``mean_kl`` operations in a record every ``eval_every``
    steps. In each sample block each (run, input) row takes its own sampled steps, round k the
    k-th of every row at once. Records do not cut the block: every row keeps a copy after its
    last step before each. A step's ridge decay waits until the row (or copy) is next needed
    (lazy regularization); one buffer holds a window's rows, copies and a V-wide row per decay
    factor, so a fold is one ``take`` of each chain [row, factors in step order] and one
    ``reduceat``, a left fold that rounds after each factor as a whole-stack decay does. Once
    ``SAMPLE_BLOCK`` records are pending, or at the end, they are one stacked evaluation.
    Returns each run's final (N, V) logits and trace.
    """
    if not runs:
        raise MskdError("a training stack needs at least one run")
    first, world = runs[0][0], runs[0][0].world
    for s, (compiled, _) in enumerate(runs):
        if compiled.world is not world:
            raise MskdError(f"stack run {s} has another world than run 0")
        if compiled.targets.shape != first.targets.shape:
            raise MskdError(f"stack run {s} has target table shape {compiled.targets.shape}, "
                            f"run 0 has {first.targets.shape}")
        if compiled.ridge != config.ridge:
            raise MskdError(f"stack run {s} was compiled at ridge {compiled.ridge}, "
                            f"the trainer's is {config.ridge}")
    n_runs, n, v = len(runs), len(world.inputs), world.vocab.size
    theta = np.zeros((n_runs, n, v))
    samplers = []
    for s, (_, seed) in enumerate(runs):
        init_rng, sample_rng = seeded_sampler(seed).spawn(2)
        draw = init_rng.normal(size=(n, v))  # drawn either way: the stream layout is fixed
        if config.init_scale > 0:
            theta[s] = config.init_scale * draw
        samplers.append(sample_rng)
    flat = theta.reshape(n_runs * n, v)
    tables, qbar, m_x, neg_ent = (np.array([getattr(c, name) for c, _ in runs]) for name in
                                  ("targets", "qbar", "m_x", "target_neg_entropy"))
    cells, tables = tables.shape[:-1], tables.reshape(-1, v)  # (S, J, N, C) cells of V rows
    stack, ridge, every, records, t = np.arange(n_runs), config.ridge, config.eval_every, [], 0
    pending = [(np.array([0]), np.array([config.eta0]), theta[None].copy())]  # (steps, lrs, logits)

    def record() -> None:
        # each run's loss, mean_kl and grad norm at the (J, S, N, V) logits of the J pending
        # records, by its methods' operations; the first record, in step order, that diverged raises
        step, lr, th = (np.concatenate(a) for a in zip(*pending))
        pending.clear()
        loss, kl, g = _objective(th, m_x, qbar, ridge, neg_ent)
        if not (finite := np.isfinite(loss)).all():
            m = finite.all(axis=1).argmin()
            raise NonFiniteLoss(f"loss diverged at step {step[m]} (stack run {finite[m].argmin()})")
        g = g.reshape(*th.shape[:2], -1)
        records.append(np.stack(np.broadcast_arrays(step[:, None], loss, kl,
                                                    np.sqrt(np.vecdot(g, g)), lr[:, None]), axis=1))

    buf = np.empty((2 * len(flat) + (n_runs + 1) * SAMPLE_BLOCK + 1, v))  # a copy per entry at most
    target, eta, c = np.empty((3, n_runs * SAMPLE_BLOCK, v))  # every window reuses them: no churn
    for blocks in zip(*(world.sample_index_blocks(r, config.steps) for r in samplers)):
        tj, xi, ci = (np.stack(a, axis=1) for a in zip(*blocks))  # (B, S) each
        done = np.arange(t + 1, t + len(xi) + 1)  # the step count after each block step
        rec = np.flatnonzero((done % every == 0) | (done == config.steps)) + 1  # block steps done
        etas = config.eta0 / done  # eta0 / (1 + t) of each block step
        decays = np.append(1.0, 1.0 - etas * ridge)  # block step i decays by decays[i + 1]
        rows = (xi + stack * n).ravel()  # each event's row of ``flat``, step by step
        e, count = len(rows), np.bincount(rows, minlength=len(flat))
        order = np.argsort(-count, kind="stable")  # busiest first: a round's rows are a prefix
        key = np.min_scalar_type(max(e, len(flat)))  # stable sorts of 8/16-bit ints are radix sorts
        # each row's events, then its tail to the block's end (entry ``e + place``)
        ev = np.append(np.argsort(order)[rows], range(len(flat))).astype(key).argsort(kind="stable")
        count = count[order] + 1  # and the tail
        place = np.arange(len(flat)).repeat(count)  # each entry's row, by its place in ``order``
        k = np.arange(len(ev)) - (np.cumsum(count) - count)[place]  # rank in its row
        step = np.where(ev < e, ev // n_runs, len(xi))
        prev = np.where(k == 0, -1, np.append(0, step[:-1]))  # its row's step before
        by_round = np.where(ev < e, k, e).astype(key).argsort(kind="stable")  # the tails last
        ev, step, prev, k, place = (a[by_round] for a in (ev, step, prev, k, place))
        cut = [0, *(np.flatnonzero(np.diff(k[:e])) + 1).tolist(), e, len(ev)]
        # entry i's row stays as i's round finds it over block steps (prev, step]: if records
        # fall there, the round copies the row, to fold with the decays up to each record
        on = (prev < rec[:, None]) & (rec[:, None] <= step)  # (record, entry)
        (j, pair), held = np.nonzero(on), np.flatnonzero(on.any(axis=0))  # the entries that copy
        src, take = np.searchsorted(held, pair), place[held]  # each pair's copy, each copy's row
        taken = np.searchsorted(held, cut).tolist()
        low = len(flat) + len(held)  # buf: the rows by ``order``, copies, decays[k] at low + k
        buf[:len(flat)], buf[low:low + len(decays)] = flat[order], decays[:, None]
        x_all, snaps = buf[:len(flat)], buf[len(flat):low]
        chain, at = _fold_index(place, prev, step, low)  # each entry's chain, row first
        edge = np.append(at, len(chain))[cut].tolist()
        at -= np.repeat(edge[:-1], np.diff(cut))  # each round's chains index from 0
        cell = np.ravel_multi_index((stack, tj, xi, ci), cells).ravel()[ev[:e]]
        tables.take(cell, axis=0, out=target[:e], mode="clip")  # valid cells: no buffered copy
        # per-event (e, V) rows, so that the round's g * eta and x * c are same-shape ufuncs
        eta[:e], c[:e] = etas[step[:e], None], decays[1:][step[:e], None]
        for r0, r1, e0, e1, s0, s1 in zip(cut, cut[1:], edge, edge[1:], taken, taken[1:]):
            x = x_all[:r1 - r0]
            if s0 < s1:
                snaps[s0:s1] = x[take[s0:s1]]
            # the deferred decays, in step order, one rounding per factor (1.0 at ridge 0: exact)
            np.multiply.reduceat(buf.take(chain[e0:e1], axis=0), at[r0:r1], axis=0, out=x)
            if r0 == e:  # the tail: decays alone
                break
            # in place, the IEEE operations of softmax(x) - target, c * x and x - eta * g
            g = x - np.maximum.reduce(x, axis=1, keepdims=True)
            np.exp(g, g)
            np.divide(g, np.add.reduce(g, axis=1, keepdims=True), g)
            g -= target[r0:r1]
            g *= eta[r0:r1]
            x *= c[r0:r1]
            x -= g
        flat[order] = x_all
        if len(rec):
            # each copy's chain [copy, decays[prev + 2 : step + 1]]: a record's left fold is a
            # prefix of it, and one reduceat takes each as a segment
            chain, at = _fold_index(np.arange(len(flat), low), prev[held], step[held], low)
            ends = np.stack([at[src], at[src] + rec[j] - prev[pair]], axis=1).ravel()
            b = buf.take(np.append(chain, low), axis=0)  # decays[0] = 1.0 ends the last
            folded = np.multiply.reduceat(b, ends, axis=0)[::2]  # the odd segments: filler
            logits = folded[np.argsort(j * len(flat) + order[take[src]])]  # by record, then row
            pending.append((t + rec, etas[rec - 1], logits.reshape(len(rec), n_runs, n, v)))
        t += len(xi)
        if sum(len(s) for s, _, _ in pending) >= SAMPLE_BLOCK:  # under two blocks of records held
            record()
    if pending:
        record()
    records = np.concatenate(records)  # (records, 5, S)
    return [(theta[s], TrainTrace(*records[..., s].T)) for s in range(n_runs)]


def _fold_index(rows: np.ndarray, prev: np.ndarray, stop: np.ndarray, low: int):
    """Row indices of chains [rows[i], low + prev[i] + 2, ..., low + stop[i]], and their starts."""
    size = stop - prev
    at = np.cumsum(size) - size
    chain = (low + 1 + prev - at).repeat(size) + np.arange(size.sum())
    chain[at] = rows
    return chain, at


def sgd_train(config: TrainerConfig, G: UnifiedWeightOperator,
              world: World) -> tuple[np.ndarray, TrainTrace]:
    """Single-sample SGD against the operator's targets: the final (N, V) logits and trace."""
    return train_stack([(compile_objective(G, world, config.ridge), config.seed)], config)[0]


def classic_uniform_train(config: TrainerConfig, world: World) -> tuple[np.ndarray, TrainTrace]:
    """Reference trainer for classical uniform-mixture distillation.

    Builds its targets directly as the equal-weight teacher mixture, without
    any weight operators, then trains it in the same loop as ``sgd_train``.
    """
    return train_stack([(_uniform_compiled(world, config.ridge), config.seed)], config)[0]


# ---------------------------------------------------------------------------
# Full-batch solver (damped Newton, all logit blocks in lockstep)
# ---------------------------------------------------------------------------

NEWTON_GTOL = 1e-8  # gradient-norm tolerance of the safety solves and the perturbation experiment


def minimize_blockwise(theta0: np.ndarray, block: Callable, block_hessians: Callable,
                       gtol: float, max_iter: int = 200) -> np.ndarray:
    """Minimize a block-separable objective with damped Newton steps, all blocks in lockstep.

    ``block(xi, rows) -> (values, gradients, p)`` evaluates blocks ``xi`` at the (a, V) stack
    ``rows``, and ``block_hessians(xi, p)`` builds their (a, V, V) Hessians from its ``p``, only
    for the blocks still open after the gradient test. Backtracking line search and Levenberg
    damping keep descent where a block Hessian is indefinite. Step 1 is one call and the 46
    halvings of the blocks it fails one more; once step 1 has failed every open block, the next
    iteration's step 1 and halvings are one call. The accepted trial's evaluation is the next
    iterate's. A block stops at gradient norm ``gtol / sqrt(n_blocks)`` (so the full
    gradient norm is within gtol), after ``max_iter`` iterations, or where its accepted step
    leaves its row bitwise unchanged (no decrease found, or a step below the row's rounding):
    each later iteration would repeat the same values and step.
    """
    theta = np.array(theta0, dtype=np.float64)
    if not len(theta):
        return theta
    per_block = gtol / np.sqrt(len(theta))
    ladder = np.ldexp(1.0, -np.arange(47))  # line-search steps 1, 1/2, ..., 2**-46 > 1e-14
    xi, stalled = np.arange(len(theta)), False
    f, g, p = block(xi, theta)
    for _ in range(max_iter):
        active = ~(np.sqrt(np.vecdot(g, g)) <= per_block)
        if not active.all():
            xi, f, g, p = xi[active], f[active], g[active], p[active]
            if not len(xi):
                break
        d = _newton_directions(g, block_hessians(xi, p))
        slope, rows = np.vecdot(g, d), theta[xi]
        # step 1 for every block, then every halving for the blocks it fails, in one call each;
        # after an iteration where step 1 failed every block, step 1 joins the halvings' call
        if stalled:
            new, (f_new, g_new, p_new) = rows.copy(), map(np.empty_like, (f, g, p))
            failed, steps = np.arange(len(xi)), ladder
        else:
            new = rows + d
            f_new, g_new, p_new = block(xi, new)
            failed, steps = (~(f_new <= f + 1e-4 * slope)).nonzero()[0], ladder[1:]
        if len(failed):
            new[failed] = rows[failed]  # a block whose line search finds no decrease stays
            trial = rows[failed, None] + steps[:, None] * d[failed, None]  # (b, steps, V)
            trial = trial.reshape(-1, d.shape[1])
            ft, gt, pt = block(np.repeat(xi[failed], len(steps)), trial)
            bound = f[failed, None] + 1e-4 * steps * slope[failed, None]
            passed = ft.reshape(bound.shape) <= bound
            won, first = passed.any(axis=1), passed.argmax(axis=1)
            at, pick = failed[won], np.flatnonzero(won) * len(steps) + first[won]
            new[at], f_new[at], g_new[at], p_new[at] = trial[pick], ft[pick], gt[pick], pt[pick]
            del trial, ft, gt, pt  # not held through the next Hessian build: peak memory
        stalled = len(failed) == len(xi) and not (stalled and passed[:, 0].any())
        theta[xi] = new  # a row left bitwise where it was would repeat this iteration: it is done
        moved = (new.view(np.uint64) != rows.view(np.uint64)).any(axis=1)
        xi, f, g, p = xi[moved], f_new[moved], g_new[moved], p_new[moved]
        if not len(xi):
            break
    return theta


def _newton_directions(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Each block's Newton direction, from one stacked solve; ``h`` is overwritten.

    A block whose Hessian is singular or whose direction does not descend retries alone with
    Levenberg damping, doubled from 1e-8 until it descends, or past 1e12 steepest descent.
    """
    h += 0.0  # h + 0 * I, as a one-block loop solves it: -0.0 entries become +0.0
    try:
        d = np.linalg.solve(h, -g[..., None])[..., 0]
        retry, first_damp = ~(np.vecdot(g, d) < 0), 1e-8
    except np.linalg.LinAlgError:  # some Hessian is singular: every block solves alone
        d, retry, first_damp = np.empty_like(g), np.ones(len(g), dtype=bool), 0.0
    for i in retry.nonzero()[0].tolist():
        d[i], damp, eye = -g[i], first_damp, np.eye(h.shape[-1])
        while damp <= 1e12:
            with contextlib.suppress(np.linalg.LinAlgError):
                di = np.linalg.solve(h[i] + damp * eye, -g[i])
                if g[i] @ di < 0:
                    d[i] = di
                    break
            damp = max(2.0 * damp, 1e-8)
    return d


def solve_compiled(compiled: CompiledObjective, gtol: float = 1e-10) -> np.ndarray:
    """Deterministic full-batch minimizer of the compiled objective, as (N, V) logits.

    With no ridge the realizable optimum is analytic (centered log targets);
    otherwise each logit block is solved by damped Newton to the gradient tolerance.
    """
    if compiled.ridge == 0.0:
        if np.any(compiled.qbar <= 0.0):
            raise MskdError(
                "ridge-free optimum needs strictly positive targets (finite logits)")
        logq = np.log(compiled.qbar)
        return logq - logq.mean(axis=1, keepdims=True)
    return minimize_blockwise(np.zeros_like(compiled.qbar), compiled.block,
                              compiled.block_hessians, gtol)


# ---------------------------------------------------------------------------
# Convergence-rate fitting
# ---------------------------------------------------------------------------

FIT_POINTS = 10  # the usable eval points a convergence-rate fit needs at least


@dataclass(frozen=True)
class RateFit:
    slope: float
    constant: float
    n_points: int


def fit_convergence_rate(trace: TrainTrace, loss_star: float) -> RateFit:
    """Least-squares power-law fit of the loss gap over the trace tail.

    Fits ln(loss_t - loss_star) against ln t on the tail half of the usable
    evaluation points (those with positive step and loss above loss_star).
    The returned constant is exp(intercept), i.e. gap ~ constant * t^slope.
    """
    usable = (trace.steps >= 1) & (trace.loss > loss_star)
    steps = trace.steps[usable]
    gaps = trace.loss[usable] - loss_star
    if steps.shape[0] < FIT_POINTS:
        raise InsufficientTrace(f"need at least {FIT_POINTS} usable eval points above the floor, "
                                f"got {steps.shape[0]}")
    start = steps.shape[0] // 2
    x = np.log(steps[start:].astype(np.float64))
    y = np.log(gaps[start:])
    slope, intercept = np.polyfit(x, y, 1)
    return RateFit(float(slope), float(np.exp(intercept)), int(steps.shape[0] - start))


def average_traces(traces: list[TrainTrace]) -> TrainTrace:
    """Pointwise mean of traces recorded on an identical step grid."""
    base = traces[0].steps
    for tr in traces[1:]:
        if not np.array_equal(tr.steps, base):
            raise MskdError("traces must share the same evaluation grid")
    return TrainTrace(
        base,
        np.mean([tr.loss for tr in traces], axis=0),
        np.mean([tr.mean_kl for tr in traces], axis=0),
        np.mean([tr.grad_norm for tr in traces], axis=0),
        traces[0].lr,
    )
