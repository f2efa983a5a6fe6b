"""Quick test of the same-bits checker: a planted one-ulp change must be reported, and the
diff mode must size a planted 1e-9 change.

Run from the repository root: ``python3 -m pytest tools/test_samebits.py`` (it is outside the
Tier-1 test paths).
"""

import json
import re
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


# appended to a copy's runner.py: one ulp up in the last step of each fixed_point run's trace
FIXED_POINT_PLANT = """

_iterate_to_fixed_point = iterate_to_fixed_point


def iterate_to_fixed_point(*args):
    traces = _iterate_to_fixed_point(*args)
    traces[0].distances[-1] = np.nextafter(traces[0].distances[-1], np.inf)
    return traces
"""


# appended to a copy's runner.py: one ulp up in each safety run's multiplier and in each pareto
# sweep's last safety
SAFETY_PLANT = """

_dual_ascent_solve, _pareto_sweep = dual_ascent_solve, pareto_sweep


def dual_ascent_solve(*args):
    result = _dual_ascent_solve(*args)
    return replace(result, mu=float(np.nextafter(result.mu, np.inf)))


def pareto_sweep(*args):
    points = _pareto_sweep(*args)
    mu, loss, safety = points[-1]
    points[-1] = (mu, loss, float(np.nextafter(safety, np.inf)))
    return points
"""


# appended to a copy's runner.py: 1e-9 onto the largest delta's distance of each perturbation run
DIFF_PLANT = """

_run_experiment = run_experiment


def run_experiment(cfg):
    record = _run_experiment(cfg)
    if cfg.kind == "perturbation":
        record.tables["perturbation"][1][-1][1] += 1e-9
    return record
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


def test_planted_fixed_point_ulp_is_reported(tmp_path):
    cases = samebits.draw_suite_cases(60, seed=1)
    found = dict(samebits.compare(tree_copy(tmp_path, FIXED_POINT_PLANT, "runner"),
                                  samebits.ROOT / "src", cases, "suites"))
    # the suites family reaches the stacked fixed-point iteration, and only its table moves
    fixed_point = {i for i, c in enumerate(cases) if c["kind"] == "fixed_point"}
    assert len(fixed_point) >= 10 and set(found) == fixed_point
    assert set(found.values()) == {"digests differ in ['fixed_point']"}


def test_planted_safety_and_pareto_ulps_are_reported(tmp_path):
    cases = samebits.draw_suite_cases(5, seed=1)  # one of each kind; this safety run converges
    assert [c["kind"] for c in cases] == list(samebits.SUITES)
    found = dict(samebits.compare(tree_copy(tmp_path, SAFETY_PLANT, "runner"),
                                  samebits.ROOT / "src", cases, "suites"))
    assert found == {3: "digests differ in ['assertions', 'kkt']",
                     4: "digests differ in ['pareto']"}


def test_diff_sizes_a_planted_change(tmp_path):
    cases = samebits.draw_diff_cases()
    assert [c["stem"] for c in cases if c["workload"] == "large"] == ["0-perturbation", "1-safety"]
    planted = tree_copy(tmp_path, DIFF_PLANT, "runner")
    base, head = samebits.run_trees(samebits.ROOT / "src", planted, cases, "diff")
    references = json.loads((samebits.ROOT / "perfbench" / "references.json").read_text())
    lines = samebits.diff_report(cases, base, head, references)
    where = ["bundled/5-perturbation", "large/0-perturbation"]
    changed = [re.fullmatch(rf"{w}/perturbation.csv distance: 1 of (\d+) changed, "
                            r"max abs (\S+), max rel \S+", line) for w, line in zip(where, lines)]
    assert all(changed) and [float(m[2]) for m in changed] == [1e-9, 1e-9]
    assert lines[2:] == [f"references.json digest moves: {w}/perturbation.csv" for w in where]
    assert samebits.diff_report(cases, base, base, references) == []


def test_diff_report_names_flips_and_non_finite_steps():
    case = {"workload": "bundled", "stem": "0-x", "doc": {}}
    summary = {"config_hash": "h", "kind": "x", "assertions": [
        {"name": "a", "expected": 1.0, "measured": 0.5, "tol": 0.0, "pass": True}]}
    flipped = json.loads(json.dumps(summary))
    flipped["assertions"][0].update(measured=2.0, **{"pass": False})
    base = {"t.csv": "k,v\nx,1.0\ny,0\nz,nan\n", "summary.json": json.dumps(summary)}
    head = {"t.csv": "k,v\nx,1.5\ny,nan\nz,nan\n", "summary.json": json.dumps(flipped)}
    assert samebits.diff_report([case], [base], [head], {}) == [
        "bundled/0-x/summary.json measured: 1 of 1 changed, max abs 1.5, max rel 3",
        "bundled/0-x/summary.json pass: 1 of 1 changed",
        "bundled/0-x: a verdict flips, True -> False",
        "bundled/0-x/t.csv v: 2 of 3 changed, max abs inf, max rel inf",
        "references.json digest moves: bundled/0-x/summary.json",
        "references.json digest moves: bundled/0-x/t.csv"]


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
