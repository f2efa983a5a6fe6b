"""Product-then-normalize composition of the three weighting scales.

The unified weight for teacher k at (input x, token i, task t, context c) is
the normalized product of the token, task, and context weights. No clipping
is applied after the product; instead the components' bounds induce derived
effective bounds: with every component in [w_min, w_max], a unified weight lies
in [lo / (lo + (K-1) hi), hi / (hi + (K-1) lo)] with lo = w_min^3, hi = w_max^3
(a teacher's own product minimal and all K-1 rivals maximal, and vice versa).

Normalization of the product is integer-exact: a row's entries are written as
integer mantissas shifted to the row's smallest exponent, summed as integers,
and each entry is one correctly-rounded integer division by that sum. So
algebraically uniform configurations produce bit-identical uniform weights,
which lets an all-uniform adaptive trainer reproduce the classical
uniform-mixture trainer exactly. The weight table is kept as the token operator's
distinct rows and each token's row; the distinct rows are normalized once, as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionMismatch,
    WeightBounds,
    World,
    normalize_exact,
    validate_distribution,
)
from .operators import ContextOperator, TaskOperator, TokenOperator


def weighted_ensemble(weights, dists) -> np.ndarray:
    """Convex combination of K teacher distributions under one weight vector."""
    w = np.asarray(weights, dtype=np.float64)
    p = np.asarray(dists, dtype=np.float64)
    if p.ndim != 2 or w.shape[0] != p.shape[0]:
        raise DimensionMismatch(
            f"need one weight per distribution, got {w.shape} weights and {p.shape} distributions")
    return validate_distribution(w @ p)


def renormalized_mixture(weight_rows: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """Per-token mixture target, renormalized over the vocabulary.

    ``weight_rows`` is (..., V, K): one weight vector per token index, against
    (..., K, V) teacher stacks. When every row is identical this reduces to
    the plain convex combination (the final renormalization divides by the
    weight total, which is 1 up to float dust).
    """
    mix = np.einsum("...ik,...ki->...i", weight_rows, dists)
    return mix / mix.sum(axis=-1, keepdims=True)


def normalize_rows(rows: np.ndarray) -> np.ndarray:
    """:func:`normalize_exact` of every length-K row, in one call on the distinct rows."""
    distinct, inverse = np.unique(rows.reshape(-1, rows.shape[-1]), axis=0, return_inverse=True)
    return normalize_exact(distinct)[inverse.reshape(-1)].reshape(rows.shape)


@dataclass(frozen=True)
class UnifiedWeightOperator:
    """Hierarchical composition of a token, task, and context operator."""

    token_op: TokenOperator
    task_op: TaskOperator
    context_op: ContextOperator
    bounds: WeightBounds

    def components(self, x: int, i: int, t: int, c: int,
                   world: World) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ctx = world.contexts[world.cell_index(t, x, c)[2]]
        w_tok = self.token_op.weights(x, i, c, world.bank, self.bounds)
        w_task = self.task_op.weights(t, world.bank, self.bounds)
        w_ctx = self.context_op.weights(ctx, world.bank, self.bounds)
        return w_tok, w_task, w_ctx

    def unified_weight(self, x: int, i: int, t: int, c: int, world: World) -> np.ndarray:
        """Normalized product of the three scale weights at one evaluation point."""
        w_tok, w_task, w_ctx = self.components(x, i, t, c, world)
        return normalize_exact(w_tok * w_task * w_ctx)

    def weight_table(self, world: World) -> np.ndarray:
        """(J, N, C, V, K) unified weights over the world, equal to :meth:`unified_weight`."""
        rows, slot = self.compact_table(world)
        return rows.take(slot, axis=-2)

    def compact_table(self, world: World) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`weight_table` as (J, N, C, S, K) distinct token rows and each token's (V,) row.

        Each scale is evaluated once on its own domain: token weights by the token
        operator's table (:meth:`TokenOperator.table`, which also maps tokens to rows),
        task weights per task, context weights per context. Their product is normalized
        once per distinct row.
        """
        bank, bounds = world.bank, self.bounds
        tok, slot = self.token_op.table(world, bounds)
        task = np.array([self.task_op.weights(t.id, bank, bounds) for t in world.tasks])
        ctx = np.array([self.context_op.weights(c, bank, bounds) for c in world.contexts])
        return normalize_rows(tok * task[:, None, None, None] * ctx[:, None]), slot

    def ensemble_target(self, x: int, t: int, c: int, world: World) -> np.ndarray:
        """The distillation target at (x, t, c), read off the whole :meth:`weight_table`.

        For token-index-independent operators this is exactly the convex
        combination of teacher distributions under the unified weights; else
        the per-token mixture is renormalized over the vocabulary.
        """
        rows = self.weight_table(world)[world.cell_index(t, x, c)]
        return validate_distribution(renormalized_mixture(rows, world.bank.dists(x, c)))


def uniform_unified(bounds: WeightBounds,
                    safety_tokens: frozenset[int] = frozenset()) -> UnifiedWeightOperator:
    """The all-uniform composition (classical equal-weight distillation)."""
    return UnifiedWeightOperator(TokenOperator(safety_tokens=safety_tokens), TaskOperator(),
                                 ContextOperator(), bounds)
