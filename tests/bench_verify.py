"""Layer micro-benchmarks: conformance passes, the compile layer, Lagrangian kernels and solves,
and a teacher-bank build.

The default test run does not collect this file (it does not match
``test_*.py``). Run it with pytest-benchmark:

    PYTHONPATH=src python -m pytest tests/bench_verify.py --benchmark-only
"""

import numpy as np
import pytest

from mskd.composition import UnifiedWeightOperator, normalize_rows
from mskd.core import TeacherBank, WeightBounds, seeded_sampler
from mskd.distill import compile_objective, minimize_blockwise
from mskd.operators import ContextOperator, TaskOperator, TokenOperator, check_conformance
from mskd.runner import parse_config_dict
from mskd.safety import SafetyConfig, _label_table, _lagrangian_block, _safety_label_mass

from fixture_worlds import conformance_world, large_doc, safety_world, safety_world_labels
from reference_newton import stalled_large_solves

BOUNDS = WeightBounds(0.02, 0.9)


@pytest.mark.parametrize("scale, op", [
    ("token", TokenOperator("family_a", safety_tokens=frozenset({0, 1}))),
    ("task", TaskOperator("family_c")),
    ("context", ContextOperator("family_c")),
], ids=["token", "task", "context"])
def test_conformance_pass(benchmark, scale, op):
    """One 1,000-sample ``check_conformance`` pass on ``conformance_world``."""
    world = conformance_world("sharp_safe")
    benchmark(lambda: check_conformance(op, scale, world, BOUNDS, seeded_sampler(0), 1000))


@pytest.mark.parametrize("part", ["weight_table", "normalize_rows"])
def test_compile_layer(benchmark, part):
    """The generated large world's ``weight_table`` (all three scales and the row
    normalization), or one stacked ``normalize_rows`` of its compact rows shifted as the
    perturbation experiment shifts them at its first delta."""
    cfg = parse_config_dict(large_doc("perturbation"))
    g, world = cfg.operator, cfg.world
    if part == "weight_table":
        benchmark(g.weight_table, world)
    else:
        rows, _ = g.compact_table(world)
        direction = seeded_sampler(cfg.seed).normal(size=world.bank.k)  # the experiment's
        direction -= direction.mean()
        direction /= np.max(np.abs(direction))
        benchmark(normalize_rows, rows + cfg.params["deltas"][0] * direction)


def _safety_world_kernels():
    """The Lagrangian kernels of the safety world (mu = 0.5), every block and a row stack."""
    world = safety_world()
    g = UnifiedWeightOperator(TokenOperator("family_a"), TaskOperator("family_c"),
                              ContextOperator("family_a"), WeightBounds(0.05, 0.95))
    compiled = compile_objective(g, world, 0.01)
    cfg = SafetyConfig(0.9, safety_world_labels())
    mass, _ = _safety_label_mass(world, _label_table(world, cfg))
    rows = np.random.default_rng(0).normal(size=compiled.qbar.shape)
    return _lagrangian_block(compiled, 0.5, mass), np.arange(len(rows)), rows


def test_lagrangian_block(benchmark):
    """One stacked value/gradient call on every safety-world Lagrangian block (mu = 0.5)."""
    (block, _), xi, rows = _safety_world_kernels()
    benchmark(block, xi, rows)


def test_block_hessians(benchmark):
    """The Hessians of every safety-world Lagrangian block (mu = 0.5), from their softmax rows."""
    (block, block_hessians), xi, rows = _safety_world_kernels()
    benchmark(block_hessians, xi, block(xi, rows)[2])


def test_lagrangian_solve(benchmark):
    """One Lagrangian solve on the generated large world, at a mu where a block stalls."""
    compiled, mass, stalled = stalled_large_solves()
    mu, theta0 = stalled[0]
    benchmark(minimize_blockwise, theta0, *_lagrangian_block(compiled, mu, mass), 1e-8)


def test_teacher_bank_build(benchmark):
    """One ``TeacherBank`` build from the generated 256-cell world's table."""
    td = large_doc("perturbation")["world"]["teachers"]
    table = {(cell["input"], cell["context"]): np.asarray(cell["dists"], dtype=float)
             for cell in td["table"]}
    perf = {int(t): np.asarray(s, dtype=float) for t, s in td["perf_scores"].items()}
    benchmark(TeacherBank, td["count"], table, perf, np.asarray(td["safety_scores"]))
