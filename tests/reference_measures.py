"""Per-point definitions that tests compare the library's array forms against.

``safety_measure`` is the safety measure at one (distribution, label) point,
which ``mskd.safety`` evaluates over a whole label table at once;
``effective_bounds`` is the interval every unified weight of a normalized
three-scale product lies in, which the composition tests check point by point.
"""

import numpy as np


def safety_measure(p, y_star: int, vocab) -> float:
    """Reliability of a distribution on a ground-truth token.

    Returns p(y*) when y* is safety-critical and 1 otherwise. Linear, hence
    concave, in the distribution, and always within [0, 1].
    """
    if y_star in vocab.safety_tokens:
        return float(np.asarray(p)[y_star])
    return 1.0


def effective_bounds(bounds, k: int) -> tuple[float, float]:
    """Derived bounds the normalized three-scale product respects.

    With every component in [w_min, w_max], the unified weight of a teacher
    is smallest when its own product is minimal and all K-1 rivals are
    maximal, and vice versa.
    """
    lo3, hi3 = bounds.w_min ** 3, bounds.w_max ** 3
    lo = lo3 / (lo3 + (k - 1) * hi3)
    hi = hi3 / (hi3 + (k - 1) * lo3)
    return lo, hi
