"""The one-vector stability suite that the stacked one must reproduce bit for bit.

One weight vector, one pair and one start at a time: the ensemble feedback
and the weight-update step of one vector, the fixed-point iteration of one
start, the contraction estimate drawing and updating pair by pair, and the
conformance checker recording each sample's magnitudes as it is drawn.
"""

import numpy as np

from mskd.core import SUM_TOL, MskdError, softmax, validate_distribution
from mskd.dynamics import FixedPointTrace
from mskd.operators import (PERTURB_EPS, AxiomCheck, ConformanceReport, TokenOperator, _cells,
                            _perturb_rows, _perturbed_bank, clip_normalize)


def reference_feedback(w, world):
    weight = world.input_marginals()[:, None] * world.context_weights
    live = weight != 0.0
    dists = world.teacher_dists()[live]  # (cells, K, V) in (input, context) order
    terms = weight[live][:, None] * (dists @ np.log(w @ dists)[..., None])[..., 0]
    return np.cumsum(terms, axis=0)[-1]  # summed cell by cell, in order


def reference_update(w, beta, world, bounds):
    target = softmax(reference_feedback(np.asarray(w, dtype=np.float64), world))
    return clip_normalize((1.0 - beta) * np.asarray(w) + beta * target, bounds)


def reference_fixed_point(w0, config, world, bounds) -> FixedPointTrace:
    w = np.asarray(w0, dtype=np.float64)
    iterates = [w]
    distances: list[float] = []
    converged = False
    for _ in range(config.max_iters):
        w_next = reference_update(w, config.beta, world, bounds)
        d = float(np.max(np.abs(w_next - w)))
        iterates.append(w_next)
        distances.append(d)
        w = w_next
        if d <= config.tol:
            converged = True
            break
    dist_arr = np.array(distances)
    ratios = [dist_arr[i + 1] / dist_arr[i]
              for i in range(len(dist_arr) - 1) if dist_arr[i] > 1e-300]
    rho_hat = float(max(ratios)) if ratios else 0.0
    return FixedPointTrace(np.array(iterates), dist_arr, rho_hat, converged)


def reference_weights(k, bounds, sampler):
    return clip_normalize(sampler.uniform(bounds.w_min, bounds.w_max, size=k), bounds)


def reference_contraction(config, world, bounds, sampler, n_pairs) -> float:
    """The pair-by-pair estimate; 0.0 when no pair is informative."""
    rho = 0.0
    for _ in range(n_pairs):
        w = reference_weights(world.bank.k, bounds, sampler)
        w2 = reference_weights(world.bank.k, bounds, sampler)
        denom = float(np.max(np.abs(w - w2)))
        if denom < 1e-12:
            continue
        num = float(np.max(np.abs(reference_update(w, config.beta, world, bounds)
                                  - reference_update(w2, config.beta, world, bounds))))
        rho = max(rho, num / denom)
    return rho


# ---------------------------------------------------------------------------
# Conformance, one sample at a time
# ---------------------------------------------------------------------------

def _record(check: AxiomCheck, magnitude: float) -> None:
    check.n_checked += 1
    if magnitude > check.worst_violation:
        check.worst_violation = magnitude
    if magnitude > check.tol:
        check.passed = False


def _evaluate(op, scale, bank, bounds, points) -> dict:
    if scale == "token" and isinstance(op, TokenOperator) and op.family != "custom":
        index = tuple(np.array(ix) for ix in zip(*(_cells(bank, scale, key) for key in points)))
        cells, moved_cells = bank.array[index], np.array(bank.array[index])
        draws = np.array([d for _, d in points.values()])
        moved = _perturb_rows(moved_cells, PERTURB_EPS, draws).max(axis=-1)
        on = op._on([i for _, i, _ in points])
        w = op.cell_weights(cells, on, bank, bounds)
        w2 = op.cell_weights(validate_distribution(moved_cells), on, bank, bounds)
        dw = np.where(moved > 1e-12, np.abs(w2 - w).max(axis=-1), np.nan)
        return dict(zip(points, zip(w, dw.tolist(), moved.tolist())))
    evaluated = {}
    for key, (args, draws) in points.items():
        w = np.asarray(op.weights(*args, bank, bounds), dtype=np.float64)
        bank2, moved = _perturbed_bank(bank, scale, key, PERTURB_EPS, draws)
        dw = np.nan
        if moved > 1e-12:
            dw = float(np.max(np.abs(op.weights(*args, bank2, bounds) - w)))
        evaluated[key] = (w, dw, moved)
    return evaluated


def reference_conformance(op, scale, world, bounds, sampler, n_samples) -> ConformanceReport:
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
    points: dict = {}
    samples = []
    for _ in range(n_samples):
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
        samples.append((key, safety))
    evaluated = _evaluate(op, scale, bank, bounds, points)
    for key, safety in samples:
        w, dw, moved = evaluated[key]
        _record(checks["normalization"], abs(float(w.sum()) - 1.0))
        w_min = float(w.min())
        _record(checks["positivity"], -w_min if w_min <= 0 else 0.0)
        _record(checks["bounds"], max(bounds.w_min - w_min, float(w.max()) - bounds.w_max, 0.0))
        if safety:
            scores = bank.safety_scores
            for a in range(len(w)):
                for b in range(len(w)):
                    if scores[a] > scores[b]:
                        _record(checks["safety_monotonicity"], max(float(w[b] - w[a]), 0.0))
        if np.isfinite(dw):
            report.lipschitz_estimate = max(report.lipschitz_estimate, dw / moved)
            _record(checks["regularity"], dw / moved)
    return report
