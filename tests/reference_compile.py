"""Reference forms of the compile path, one row at a time, for bit-equality tests.

``fraction_normalize`` is ``normalize_exact`` in exact rational arithmetic with
``fractions.Fraction``. ``reference_entropy`` and ``reference_token_weights``
are the token families evaluated per point and per teacher row: an entropy
compresses out the row's zero entries, then sums the rest as one array.
``reference_perturb_rows`` is the conformance checker's perturbation drawn and
applied row by row.
"""

from fractions import Fraction

import numpy as np

from mskd.core import ZeroMass
from mskd.operators import ENTROPY_FLOOR, VARIANCE_FLOOR, clip_normalize


def fraction_normalize(raw) -> np.ndarray:
    """Each entry over the exact rational sum of all entries, rounded once."""
    fracs = [Fraction(float(v)) for v in raw]
    total = sum(fracs)
    if total <= 0:
        raise ZeroMass("cannot normalize a vector with no positive mass")
    return np.array([float(f / total) for f in fracs])


def reference_entropy(p) -> float:
    arr = np.asarray(p, dtype=np.float64)
    pos = arr[arr > 0.0]
    return float(-(pos * np.log(pos)).sum())


def reference_token_weights(op, x: int, i: int, c: int, bank, bounds) -> np.ndarray:
    """A built-in token operator's weights at one point, teacher row by teacher row."""
    dists = bank.dists(x, c)
    h = np.array([reference_entropy(p) for p in dists])
    boost = 1.0 + bank.safety_scores
    raw = {"uniform": lambda: np.ones(bank.k),
           "inverse_entropy": lambda: 1.0 / np.maximum(h, ENTROPY_FLOOR),
           "family_a": lambda: np.exp(-op.alpha * h),
           "family_b": lambda: 1.0 / (np.var(dists, axis=1) + VARIANCE_FLOOR),
           "family_c": lambda: np.exp(-op.alpha * h) * boost}[op.family]()
    if op.family in ("family_a", "family_b") and op.safety_adjustment and i in op.safety_tokens:
        raw = raw * boost
    return clip_normalize(raw, bounds)


def reference_perturb_rows(rows: np.ndarray, eps: float, sampler) -> float:
    """Move each row of ``rows`` in place, in C order, by one ``normal`` draw per row; max TV."""
    worst_tv = 0.0
    for idx in np.ndindex(rows.shape[:-1]):
        row = rows[idx]
        d = sampler.normal(size=row.shape[0])
        d -= d.mean()
        l1 = np.abs(d).sum()
        if l1 < 1e-300:
            continue
        d *= 2.0 * eps / l1
        neg = d < 0
        if neg.any():
            limit = float(np.min(row[neg] / -d[neg]))
            d *= min(1.0, 0.9 * limit)
        row += d
        worst_tv = max(worst_tv, 0.5 * float(np.abs(d).sum()))
    return worst_tv
