"""Quick test of the same-bits checker: a planted one-ulp change must be reported.

Run from the repository root: ``python3 -m pytest tools/test_samebits.py`` (it is outside the
Tier-1 test paths).
"""

import shutil

import samebits
from mskd.core import SAMPLE_BLOCK

# appended to a copy's distill.py: one ulp up in the first logit of each stack's last run
PLANT = """

_train_stack = train_stack


def train_stack(runs, config):
    out = _train_stack(runs, config)
    out[-1][0][0, 0] = np.nextafter(out[-1][0][0, 0], np.inf)
    return out
"""


# appended to a copy's runner.py: one ulp up in the configured operator's measured variance
SUITE_PLANT = """

_gradient_variance_ratio = gradient_variance_ratio


def gradient_variance_ratio(*args, **kwargs):
    out = _gradient_variance_ratio(*args, **kwargs)
    out[0].measured = float(np.nextafter(out[0].measured, np.inf))
    return out
"""


def tree_copy(tmp_path, plant: str = "", module: str = "distill"):
    """A copy of this tree's ``src/``, with ``plant`` appended to its ``module``."""
    src = tmp_path / "src"
    shutil.copytree(samebits.ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "mskd" / f"{module}.py", "a") as f:
        f.write(plant)
    return src


def test_planted_ulp_is_reported(tmp_path):
    cases = samebits.draw_cases(40, seed=1)
    found = dict(samebits.compare(tree_copy(tmp_path, PLANT), samebits.ROOT / "src", cases))
    # a stack without an overflowing table trains, so its last run differs, and only that run
    trained = [i for i, c in enumerate(cases) if all(k in samebits.KINDS for k, _ in c["runs"])]
    assert len(trained) >= 30 and set(trained) <= set(found)
    for i in found:
        assert found[i] == f"digests differ in stack runs [{len(cases[i]['runs']) - 1}]"


def test_planted_suite_ulp_is_reported(tmp_path):
    cases = samebits.draw_suite_cases(60, seed=1)
    found = dict(samebits.compare(tree_copy(tmp_path, SUITE_PLANT, "runner"),
                                  samebits.ROOT / "src", cases, "suites"))
    # every variance case runs, and its results table and assertions differ; nothing else
    variance = {i for i, c in enumerate(cases) if c["kind"] == "variance"}
    assert len(variance) >= 10 and set(found) == variance
    assert set(found.values()) == {"digests differ in ['assertions', 'results']"}


def test_same_tree_has_no_mismatch(tmp_path):
    assert samebits.compare(tree_copy(tmp_path), samebits.ROOT / "src",
                            samebits.draw_cases(40, seed=2)) == []
    assert samebits.compare(tree_copy(tmp_path / "suites"), samebits.ROOT / "src",
                            samebits.draw_suite_cases(40, seed=2), "suites") == []


def test_block_edges_are_the_library_s():
    assert samebits.BLOCK == SAMPLE_BLOCK


def test_export_unpacks_a_revision(tmp_path):
    tree = samebits.export("HEAD", tmp_path)
    assert (tree / "src" / "mskd" / "distill.py").is_file()
    assert (tree / "configs" / "train.json").is_file()
