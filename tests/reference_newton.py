"""The per-block damped Newton solver and kernel the stacked ones must reproduce bit for bit.

One block at a time, one Python kernel call per line-search trial: the
Newton direction with Levenberg damping, the backtracking line search by
halving, and the value/gradient/Hessian of one input's share of the loss
minus its safety label terms. ``distill.minimize_blockwise`` and
``CompiledObjective.block`` keep these bits for every block of a stack;
``reference_lagrangian_block`` returns each block's Hessian itself, where the
stacked kernel returns the softmax rows ``CompiledObjective.block_hessians``
builds them from.
"""

import numpy as np

from mskd import distill, safety
from mskd.core import log_softmax, softmax
from mskd.distill import CompiledObjective
from mskd.runner import parse_config_dict, run_experiment

from fixture_worlds import large_doc


def reference_block(compiled: CompiledObjective, xi: int, row: np.ndarray):
    """Value, gradient and Hessian of input ``xi``'s share of the loss, one row at a time."""
    m, q, lam = compiled.m_x[xi], compiled.qbar[xi], compiled.ridge
    p = softmax(row)
    f = -m * float(q @ log_softmax(row)) + 0.5 * lam * float(row @ row)
    g = m * (p - q) + lam * row
    h = m * (np.diag(p) - np.outer(p, p))
    h.flat[:: len(row) + 1] += lam  # + lam * I
    return f, g, h


def reference_lagrangian_block(compiled: CompiledObjective, mu: float, mass: np.ndarray):
    """One-block kernel of loss - mu * safety: a term for every label of positive mass."""
    eye = np.eye(mass.shape[1])
    labels = [[(y, mu * m[y]) for y in np.flatnonzero(m)] for m in mass]

    def fgh(xi, row):
        f, g, h = reference_block(compiled, xi, row)
        p = softmax(row)
        for y, w in labels[xi]:
            d = eye[y] - p
            f -= w * p[y]
            g -= w * p[y] * d
            h -= w * p[y] * (np.outer(d, d) - np.diag(p) + np.outer(p, p))
        return f, g, h

    return fgh


def reference_newton(theta0: np.ndarray, block_fgh, gtol: float, max_iter: int = 200,
                     stats: dict | None = None) -> np.ndarray:
    """Damped Newton, one block after another; ``block_fgh(x_index, row)``.

    ``stats``, if given, counts the paths taken: ``singular`` undamped
    Hessians, ``damped`` solves, ``exhausted`` line searches, ``fixed_point``
    accepted steps that leave the row bitwise unchanged, and blocks that ran
    out of ``max_iter``.
    """
    stats = {} if stats is None else stats
    for key in ("singular", "damped", "exhausted", "fixed_point", "max_iter"):
        stats.setdefault(key, 0)
    theta = np.array(theta0, dtype=np.float64)
    n = theta.shape[0]
    if n == 0:
        return theta
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
                    stats["singular"] += damp == 0.0
                    d = None
                if d is not None and float(g @ d) < 0:
                    break
                damp = max(2.0 * damp, 1e-8)
                if damp > 1e12:
                    d = -g
                    break
            stats["damped"] += damp > 0
            step, slope = 1.0, float(g @ d)
            while step > 1e-14:
                f2, g2, h2 = block_fgh(xi, row + step * d)
                if f2 <= f + 1e-4 * step * slope:
                    break
                step *= 0.5
            else:  # no step decreases f enough: the block stays at its current row
                stats["exhausted"] += 1
                break
            stats["fixed_point"] += (row + step * d).tobytes() == row.tobytes()
            row, f, g, h = row + step * d, f2, g2, h2
        else:
            stats["max_iter"] += max_iter > 0
        theta[xi] = row
    return theta


def replay_large_safety_run() -> list[dict]:
    """Replay the seed-0 large-world safety run and record every Newton solve it makes.

    Runs the benchmark's generated safety config (its dual ascent, then the
    one at the inactive threshold) with the solver and kernels wrapped. Each
    record holds the solve's ``compiled`` objective, label ``mass``, ``mu``,
    ``theta0``, ``gtol`` and result ``theta``, and counts: ``calls`` to the
    value/gradient kernel, the ``rows`` those calls evaluate, the Hessian
    ``builds`` and the rows ``built``, the rows ``solved`` for a Newton
    direction, and ``closed_built``, solved Hessian rows of a block the
    gradient test had closed.
    """
    cfg = parse_config_dict(large_doc("safety"))
    solves, solve, lagrangian_block = [], safety.minimize_blockwise, safety._lagrangian_block
    directions = distill._newton_directions
    counts = ("calls", "rows", "builds", "built", "solved", "closed_built")

    def recorded_block(compiled, mu, mass):
        block, block_hessians = lagrangian_block(compiled, mu, mass)
        record = {"compiled": compiled, "mass": mass, "mu": mu, **dict.fromkeys(counts, 0)}
        solves.append(record)

        def counted(xi, rows):
            record["calls"] += 1
            record["rows"] += len(xi)
            return block(xi, rows)

        def counted_hessians(xi, p):
            record["builds"] += 1
            record["built"] += len(xi)
            return block_hessians(xi, p)

        return counted, counted_hessians

    def recorded_solve(theta0, block, block_hessians, gtol):
        solves[-1].update(theta0=np.array(theta0), gtol=gtol)
        solves[-1]["theta"] = solve(theta0, block, block_hessians, gtol)
        return solves[-1]["theta"]

    def recorded_directions(g, h):
        record = solves[-1]
        closed = np.sqrt(np.vecdot(g, g)) <= record["gtol"] / np.sqrt(len(record["theta0"]))
        record["solved"] += len(g)
        record["closed_built"] += int(np.count_nonzero(closed))
        return directions(g, h)

    safety._lagrangian_block, safety.minimize_blockwise = recorded_block, recorded_solve
    distill._newton_directions = recorded_directions
    try:
        run_experiment(cfg)
    finally:
        safety._lagrangian_block, safety.minimize_blockwise = lagrangian_block, solve
        distill._newton_directions = directions
    return solves


def stalled_large_solves():
    """The solves of the seed-0 large-world safety run that leave a block short of ``gtol``.

    Returns the replayed safety run's compiled objective, its label mass and
    each such solve's ``(mu, theta0)``: those whose result has a block with a
    gradient norm above the per-block tolerance ``gtol / sqrt(n_blocks)``.
    """
    solves, stalled = replay_large_safety_run(), []
    for s in solves:
        xi = np.arange(len(s["theta"]))
        _, g, _ = safety._lagrangian_block(s["compiled"], s["mu"], s["mass"])[0](xi, s["theta"])
        if (np.sqrt(np.vecdot(g, g)) > s["gtol"] / np.sqrt(len(xi))).any():
            stalled.append((s["mu"], s["theta0"]))
    return solves[0]["compiled"], solves[0]["mass"], stalled
