"""Adaptive distillation objective, trainers, and convergence diagnostics.

The student is tabular (one logit vector per input), so the weighted ensemble
targets are exactly representable and no approximation error contaminates the
convergence experiments. Targets are compiled once per run into dense arrays
(the world is finite and small); stochastic training then samples
(task, input, context) triples with the declared measure, applies
single-sample gradients, and decays the learning rate as eta0 / (1 + t).

All trainers share one loop, ``train_stack``: runs (a target table and a
seed each) trained in lockstep, each with the bits it gets alone;
``sgd_train``, ``classic_uniform_train`` and ``noisy_weight_train`` are
stacks of one. The classical trainer differs from the adaptive one only in
how the target table is built. With all-uniform operators the two tables
are bit-identical, so the trajectories agree exactly at equal seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .composition import UnifiedWeightOperator, normalize_rows, renormalized_mixture
from .core import (
    InsufficientTrace,
    MarginViolated,
    MskdError,
    NonFiniteLoss,
    Sampler,
    StudentParams,
    World,
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

    def __post_init__(self):
        if self.eta0 <= 0:
            raise MskdError("eta0 must be positive")
        if self.steps < 0:
            raise MskdError("step count must be nonnegative")
        if self.ridge < 0:
            raise MskdError("ridge strength must be nonnegative")
        if self.eval_every < 1:
            raise MskdError("eval_every must be positive")


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

@dataclass
class CompiledObjective:
    """Dense target tables and measure arrays for one (operator, world) pair."""

    world: World
    ridge: float
    weights: np.ndarray        # weight rows the targets mix, broadcasting to (J, N, C, V, K)
    joint: np.ndarray          # (J, N, C) sampling probabilities
    targets: np.ndarray        # (J, N, C, V) ensemble targets
    m_x: np.ndarray            # (N,) input marginals
    qbar: np.ndarray           # (N, V) measure-averaged target per input
    target_neg_entropy: float  # E[sum_i q ln q], constant in theta

    def loss(self, theta: np.ndarray) -> float:
        """Expected cross-entropy against the targets plus the ridge term."""
        logp = log_softmax(theta)
        ce = -float(np.sum(self.m_x[:, None] * self.qbar * logp))
        return ce + 0.5 * self.ridge * float(np.sum(theta * theta))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        p = softmax(theta)
        return self.m_x[:, None] * (p - self.qbar) + self.ridge * theta

    def mean_kl(self, theta: np.ndarray) -> float:
        """E over (task, input, context) of KL(target || student)."""
        logp = log_softmax(theta)
        ce = -float(np.sum(self.m_x[:, None] * self.qbar * logp))
        return self.target_neg_entropy + ce

    def params(self, theta: np.ndarray) -> StudentParams:
        return StudentParams(tuple(x.id for x in self.world.inputs), theta, self.ridge)

    def block(self, xi: int, row: np.ndarray, labels=()) -> tuple[float, np.ndarray, np.ndarray]:
        """Value, gradient and Hessian of input ``xi``'s share of the loss minus its label terms.

        Each ``(y, w)`` of ``labels``, in ascending token order, subtracts
        ``w * p[y]`` (p = softmax(row)): the safety term of a Lagrangian.
        """
        m, q, lam = self.m_x[xi], self.qbar[xi], self.ridge
        p = softmax(row)
        f = -m * float(q @ log_softmax(row)) + 0.5 * lam * float(row @ row)
        g = m * (p - q) + lam * row
        diag, outer = np.diag(p), np.outer(p, p)
        h = m * (diag - outer)
        h.flat[:: len(row) + 1] += lam  # + lam * I
        for y, w in labels:
            d = 0.0 - p
            d[y] += 1.0  # e_y - p
            f -= w * p[y]
            g -= w * p[y] * d
            h -= w * p[y] * (np.outer(d, d) - diag + outer)
        return f, g, h


def _noisy_rows(rows: np.ndarray, delta: float, rng: Sampler, bounds) -> np.ndarray:
    # one C-order draw: the same stream as one (V, K) draw per (task, input, context) cell
    rows = rows + rng.uniform(-delta, delta, size=rows.shape)
    if np.any(rows < bounds.w_min + delta - 1e-15) or \
       np.any(rows > bounds.w_max - delta + 1e-15):
        raise MarginViolated(
            f"weight perturbation of scale {delta} leaves the margin "
            f"[{bounds.w_min + delta}, {bounds.w_max - delta}]")
    return normalize_rows(rows)


def compile_objective(G: UnifiedWeightOperator, world: World,
                      ridge: float = 0.0) -> CompiledObjective:
    """Evaluate the operator over the finite world once and densify.

    This is the caching layer: the operator's weight table evaluates token
    weights once per (input, context), task weights once per task and
    context weights once per context, not per training step. The table is
    kept as ``weights``; the robustness experiments perturb and renormalize
    those rows (``normalize_rows``) and densify them again with ``_densify``.
    """
    return _densify(world, ridge, G.weight_table(world))


def _uniform_compiled(world: World, ridge: float) -> CompiledObjective:
    """Classical target table: plain uniform mixture of the teachers."""
    k = world.bank.k
    rows = np.broadcast_to(np.full(k, 1.0 / k), (len(world.tasks), 1, 1, world.vocab.size, k))
    return _densify(world, ridge, rows)


def _densify(world: World, ridge: float, rows: np.ndarray) -> CompiledObjective:
    """Mix the teachers under weight rows broadcasting to (J, N, C, V, K) and densify."""
    targets = renormalized_mixture(rows, world.teacher_dists())
    validate_distribution(targets)
    joint = world.joint_measure()
    m_x = joint.sum(axis=(0, 2))
    qbar = np.einsum("jnc,jncv->nv", joint, targets)
    safe = m_x > 0
    qbar[safe] /= m_x[safe, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        qlogq = np.where(targets > 0, targets * np.log(np.where(targets > 0, targets, 1.0)), 0.0)
    neg_ent = float(np.sum(joint[..., None] * qlogq))
    return CompiledObjective(world, ridge, rows, joint, targets, m_x, qbar, neg_ent)


# ---------------------------------------------------------------------------
# Loss / gradient (public surface over the compiled form)
# ---------------------------------------------------------------------------

def kd_loss(params: StudentParams, G: UnifiedWeightOperator, world: World) -> float:
    """Exact expected cross-entropy between ensemble targets and the student."""
    compiled = compile_objective(G, world, params.ridge)
    theta = _theta_from_params(params, world)
    return compiled.loss(theta)


def kd_gradient(params: StudentParams, G: UnifiedWeightOperator, world: World) -> np.ndarray:
    """Analytic gradient over the logit table; matches central finite differences."""
    compiled = compile_objective(G, world, params.ridge)
    theta = _theta_from_params(params, world)
    return compiled.grad(theta)


def _theta_from_params(params: StudentParams, world: World) -> np.ndarray:
    """The student's (N, V) logit table in the world's input order."""
    return np.array([params.row(x.id) for x in world.inputs], dtype=np.float64)


# ---------------------------------------------------------------------------
# Stochastic training
# ---------------------------------------------------------------------------

def train_stack(runs: Sequence[tuple[CompiledObjective, int]],
                config: TrainerConfig) -> list[tuple[np.ndarray, TrainTrace]]:
    """Train a stack of runs in lockstep; one ``(compiled, seed)`` pair per run.

    Every run shares one world and ``config``'s schedule; its seed replaces
    ``config.seed``. Each run gets the bits it gets when trained alone: its
    own init and sample streams (``spawn(2)`` of its seed, triples in
    ``SAMPLE_BLOCK`` blocks), its softmax in ``core.softmax``'s operation
    order, and its own ``loss``/``grad``/``mean_kl`` records every
    ``eval_every`` steps. A step takes the sampled row of every run, applies
    the ridge decay to the whole stack and writes the updated rows back.
    Returns each run's final (N, V) logits and trace, in stack order.
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
    tables = np.stack([compiled.targets for compiled, _ in runs])
    stack, row_base, cols = np.arange(n_runs), np.arange(n_runs) * n, np.arange(v)
    records = [[] for _ in runs]

    def record(step: int, lr: float) -> None:
        for s, (compiled, _) in enumerate(runs):
            loss = compiled.loss(theta[s])
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"loss diverged at step {step} (stack run {s})")
            g = compiled.grad(theta[s])
            records[s].append((step, loss, compiled.mean_kl(theta[s]),
                               float(np.linalg.norm(g)), lr))

    record(0, config.eta0)
    ridge, t = config.ridge, 0
    for blocks in zip(*(world.sample_index_blocks(r, config.steps) for r in samplers)):
        tj, xi, ci = (np.stack(a, axis=1) for a in zip(*blocks))  # (B, S) each
        targets = tables[stack, tj, xi, ci]  # (B, S, V)
        rows = xi + row_base  # each run's sampled row of ``flat``
        cells = rows[..., None] * v + cols  # and its entries in ``flat.flat``
        etas = config.eta0 / (1.0 + np.arange(t, t + len(rows)))
        decays = 1.0 - etas * ridge
        for r, cell, target, eta, c in zip(rows, cells, targets, etas.tolist(), decays.tolist()):
            # in place, the IEEE operations of softmax(x) - target, c * x and x - eta * g
            x = flat.take(r, axis=0)
            g = x - np.maximum.reduce(x, axis=1, keepdims=True)
            np.exp(g, g)
            np.divide(g, np.add.reduce(g, axis=1, keepdims=True), g)
            g -= target
            if ridge > 0:
                flat *= c
                x = flat.take(r, axis=0)
            g *= eta
            x -= g
            flat.put(cell, x)
            t += 1
            if t % config.eval_every == 0 or t == config.steps:
                record(t, eta)
    return [(theta[s], TrainTrace(*np.array(rec, dtype=np.float64).T))
            for s, rec in enumerate(records)]


def _train_alone(compiled: CompiledObjective,
                 config: TrainerConfig) -> tuple[StudentParams, TrainTrace]:
    """A stack of one run at ``config.seed``."""
    [(theta, trace)] = train_stack([(compiled, config.seed)], config)
    return compiled.params(theta), trace


def sgd_train(config: TrainerConfig, G: UnifiedWeightOperator,
              world: World) -> tuple[StudentParams, TrainTrace]:
    """Single-sample stochastic gradient training against the operator's targets."""
    compiled = compile_objective(G, world, config.ridge)
    return _train_alone(compiled, config)


def classic_uniform_train(config: TrainerConfig, world: World) -> tuple[StudentParams, TrainTrace]:
    """Reference trainer for classical uniform-mixture distillation.

    Builds its targets directly as the equal-weight teacher mixture, without
    any weight operators, then trains it in the same loop as ``sgd_train``.
    """
    compiled = _uniform_compiled(world, config.ridge)
    return _train_alone(compiled, config)


def noisy_weight_train(config: TrainerConfig, G: UnifiedWeightOperator, world: World,
                       delta: float) -> tuple[StudentParams, TrainTrace]:
    """Training with every weight row perturbed by bounded iid noise.

    Noise of infinity-norm at most ``delta`` is added to each row of the
    operator's weight table, and each row is renormalized before densifying;
    perturbed weights must stay inside the margin [w_min + delta,
    w_max - delta] or ``MarginViolated`` is raised. ``delta = 0`` reproduces
    ``sgd_train`` exactly at equal seed (the noise stream is separate from
    the sampling stream).
    """
    if delta < 0:
        raise MskdError("perturbation scale must be nonnegative")
    rows = G.weight_table(world)
    if delta > 0:
        rows = _noisy_rows(rows, delta, seeded_sampler(config.seed).spawn(3)[2], G.bounds)
    compiled = _densify(world, config.ridge, rows)
    return _train_alone(compiled, config)


# ---------------------------------------------------------------------------
# Full-batch solver (damped Newton per logit block)
# ---------------------------------------------------------------------------

def minimize_blockwise(theta0: np.ndarray,
                       block_fgh: Callable[[int, np.ndarray], tuple[float, np.ndarray, np.ndarray]],
                       gtol: float, max_iter: int = 200) -> np.ndarray:
    """Minimize a block-separable objective with damped Newton steps.

    ``block_fgh(x_index, row) -> (value, gradient, Hessian)``. Each logit
    block is independent; iterations use backtracking line search and
    Levenberg damping, so descent holds even where a block Hessian is
    indefinite. Terminates when every block gradient norm is at most
    ``gtol / sqrt(n_blocks)`` (hence the full gradient norm is within gtol);
    a block whose line search finds no decrease stays at its last row.
    """
    theta = np.array(theta0, dtype=np.float64)
    n = theta.shape[0]
    per_block = gtol / np.sqrt(n)
    eye = np.eye(theta.shape[1])
    for xi in range(n):
        row = theta[xi]
        f, g, h = block_fgh(xi, row)
        for _ in range(max_iter):
            if np.linalg.norm(g) <= per_block:
                break
            damp = 0.0
            while True:
                try:
                    d = np.linalg.solve(h + damp * eye, -g)
                except np.linalg.LinAlgError:
                    d = None
                if d is not None and float(g @ d) < 0:
                    break
                damp = max(2.0 * damp, 1e-8)
                if damp > 1e12:
                    d = -g
                    break
            step, slope = 1.0, float(g @ d)
            while step > 1e-14:
                f2, g2, h2 = block_fgh(xi, row + step * d)
                if f2 <= f + 1e-4 * step * slope:
                    break
                step *= 0.5
            else:  # no step decreases f enough: the block stays at its current row
                break
            row, f, g, h = row + step * d, f2, g2, h2
        theta[xi] = row
    return theta


def solve_optimum(G: UnifiedWeightOperator, world: World, ridge: float,
                  gtol: float = 1e-10) -> tuple[StudentParams, float]:
    """Deterministic full-batch solve of the distillation objective.

    With no ridge the realizable optimum is analytic (centered log targets);
    otherwise each logit block is solved by damped Newton to the gradient
    tolerance. Returns the optimal student and the optimal loss value.
    """
    compiled = compile_objective(G, world, ridge)
    theta = solve_compiled(compiled, gtol)
    return compiled.params(theta), compiled.loss(theta)


def solve_compiled(compiled: CompiledObjective, gtol: float = 1e-10) -> np.ndarray:
    if compiled.ridge == 0.0:
        if np.any(compiled.qbar <= 0.0):
            raise MskdError(
                "ridge-free optimum needs strictly positive targets (finite logits)")
        logq = np.log(compiled.qbar)
        return logq - logq.mean(axis=1, keepdims=True)
    return minimize_blockwise(np.zeros_like(compiled.qbar), compiled.block, gtol)


# ---------------------------------------------------------------------------
# Convergence-rate fitting
# ---------------------------------------------------------------------------

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
    if steps.shape[0] < 10:
        raise InsufficientTrace(
            f"need at least 10 usable eval points above the floor, got {steps.shape[0]}")
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
