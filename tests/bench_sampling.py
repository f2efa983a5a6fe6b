"""Layer micro-benchmarks: a block of sampler index draws, SGD steps of a stack, one variance call.

The default test run does not collect this file (it does not match
``test_*.py``). Run it with pytest-benchmark:

    PYTHONPATH=src python -m pytest tests/bench_sampling.py --benchmark-only
"""

import numpy as np
import pytest

from mskd.composition import UnifiedWeightOperator
from mskd.core import SAMPLE_BLOCK, WeightBounds, seeded_sampler
from mskd.distill import TrainerConfig, compile_objective, train_stack
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


@pytest.mark.parametrize("eval_every", [SAMPLE_BLOCK, 250])  # 250: the rate config's records
@pytest.mark.parametrize("n_runs", [1, 2, 10])  # 2: the stack of the benchmark's rate run
def test_sgd_step(benchmark, compiled, n_runs, eval_every):
    """``SAMPLE_BLOCK`` steps of an ``n_runs``-run stack, recorded every ``eval_every`` steps.

    The loop has no separately callable step: one stacked step is the time
    over ``SAMPLE_BLOCK`` (``extra_info["steps"]``) at ``eval_every`` ``SAMPLE_BLOCK``, less
    two eval records; at 250 (six records, ``extra_info["records"]``) the difference is the
    time of four more trace evaluation records.
    """
    config = TrainerConfig(eta0=1.0, steps=SAMPLE_BLOCK, ridge=compiled.ridge,
                           eval_every=eval_every)
    benchmark.extra_info["steps"] = SAMPLE_BLOCK
    benchmark.extra_info["records"] = 1 + -(-SAMPLE_BLOCK // eval_every)
    benchmark(train_stack, [(compiled, seed) for seed in range(n_runs)], config)


def test_single_sample_variance(benchmark, compiled):
    """One 10,000-sample gradient-variance measurement (the variance config's size)."""
    theta = np.random.default_rng(1).normal(size=compiled.qbar.shape)
    benchmark(lambda: _single_sample_variance(compiled, theta, 10_000, seeded_sampler(0)))
