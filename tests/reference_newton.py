"""The per-block damped Newton solver and kernel the stacked ones must reproduce bit for bit.

One block at a time, one Python kernel call per line-search trial: the
Newton direction with Levenberg damping, the backtracking line search by
halving, and the value/gradient/Hessian of one input's share of the loss
minus its safety label terms. ``distill.minimize_blockwise`` and
``CompiledObjective.block`` keep these bits for every block of a stack;
``reference_lagrangian_block`` returns each block's Hessian itself, where the
stacked kernel returns a builder.
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
    Hessians, ``damped`` solves, ``exhausted`` line searches and blocks that
    ran out of ``max_iter``.
    """
    stats = {} if stats is None else stats
    for key in ("singular", "damped", "exhausted", "max_iter"):
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
            row, f, g, h = row + step * d, f2, g2, h2
        else:
            stats["max_iter"] += max_iter > 0
        theta[xi] = row
    return theta


def replay_large_safety_run() -> list[dict]:
    """Replay the seed-0 large-world safety run and record every Newton solve it makes.

    Runs the benchmark's generated safety config (its dual ascent, then the
    one at the inactive threshold) with the solver and kernel wrapped. Each
    record holds the solve's ``compiled`` objective, label ``mass``, ``mu``,
    ``theta0`` and ``gtol``, and counts: ``calls`` to the value/gradient/Hessian
    kernel, the ``rows`` those calls evaluate, the Hessian rows ``built``, the
    rows ``solved`` for a Newton direction, and ``closed_built``, Hessian rows
    built for a block the gradient test had closed.
    """
    cfg = parse_config_dict(large_doc("safety"))
    solves, solve, lagrangian_block = [], safety.minimize_blockwise, safety._lagrangian_block
    directions = distill._newton_directions

    def recorded_block(compiled, mu, mass):
        fgh, value = lagrangian_block(compiled, mu, mass)
        record = {"compiled": compiled, "mass": mass, "mu": mu}
        record.update(dict.fromkeys(("calls", "rows", "built", "solved", "closed_built"), 0))
        solves.append(record)

        def counted(xi, rows):
            record["calls"] += 1
            record["rows"] += len(xi)
            f, g, hessians = fgh(xi, rows)

            def counted_hessians(keep):
                closed = np.sqrt(np.vecdot(g, g)) <= record["gtol"] / np.sqrt(len(record["theta0"]))
                record["built"] += int(np.count_nonzero(keep))
                record["closed_built"] += int(np.count_nonzero(keep & closed))
                return hessians(keep)

            return f, g, counted_hessians

        return counted, value

    def recorded_solve(theta0, block_fgh, block_value, gtol):
        solves[-1].update(theta0=np.array(theta0), gtol=gtol)
        return solve(theta0, block_fgh, block_value, gtol)

    def recorded_directions(g, h):
        solves[-1]["solved"] += len(g)
        return directions(g, h)

    safety._lagrangian_block, safety.minimize_blockwise = recorded_block, recorded_solve
    distill._newton_directions = recorded_directions
    try:
        run_experiment(cfg)
    finally:
        safety._lagrangian_block, safety.minimize_blockwise = lagrangian_block, solve
        distill._newton_directions = directions
    return solves


def stalled_large_solves(max_iter: int = 200):
    """The solves of the seed-0 large-world dual ascent in which a block runs ``max_iter`` times.

    Returns the replayed safety run's compiled objective, its label mass and
    each such solve's ``(mu, theta0)``. A solve makes one kernel call per
    iteration after its first, so those solves are the ones with more than
    ``max_iter`` calls.
    """
    solves = replay_large_safety_run()
    stalled = [(s["mu"], s["theta0"]) for s in solves if s["calls"] > max_iter]
    return solves[0]["compiled"], solves[0]["mass"], stalled
