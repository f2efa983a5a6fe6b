"""Layer micro-benchmarks: a block of sampler index draws, one SGD step, one variance call.

The default test run does not collect this file (it does not match
``test_*.py``). Run it with pytest-benchmark:

    PYTHONPATH=src python -m pytest tests/bench_sampling.py --benchmark-only
"""

import itertools

import numpy as np
import pytest

from mskd.composition import UnifiedWeightOperator
from mskd.core import SAMPLE_BLOCK, WeightBounds, seeded_sampler
from mskd.distill import _sgd_step, compile_objective
from mskd.dynamics import _single_sample_variance
from mskd.operators import ContextOperator, TaskOperator, TokenOperator

from fixture_worlds import convergence_world


@pytest.fixture(scope="module")
def compiled():
    g = UnifiedWeightOperator(TokenOperator("family_a"), TaskOperator("family_c"),
                              ContextOperator("family_a"), WeightBounds(0.01, 0.99))
    return compile_objective(g, convergence_world(), 0.01)


def test_index_block(benchmark, compiled):
    """``SAMPLE_BLOCK`` (task, input, context) triples in one sampler call."""
    sampler = seeded_sampler(0)
    benchmark(compiled.world.sample_index_arrays, sampler, SAMPLE_BLOCK)


def test_sgd_step(benchmark, compiled):
    """One single-sample SGD step at pre-drawn indices."""
    block = compiled.world.sample_index_arrays(seeded_sampler(0), SAMPLE_BLOCK)
    triples = itertools.cycle(list(zip(*(a.tolist() for a in block))))
    theta = np.zeros_like(compiled.qbar)

    def step():
        tj, xi, ci = next(triples)
        _sgd_step(theta, compiled.targets, tj, xi, ci, 0.01, compiled.ridge)

    benchmark(step)


def test_single_sample_variance(benchmark, compiled):
    """One 10,000-sample gradient-variance measurement (the variance config's size)."""
    theta = np.random.default_rng(1).normal(size=compiled.qbar.shape)
    benchmark(lambda: _single_sample_variance(compiled, theta, 10_000, seeded_sampler(0)))
