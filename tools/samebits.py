"""Same-bits checker: random cases run at a base revision and at this tree, bytes compared.

Run from anywhere in the repository::

    python3 tools/samebits.py --base <rev> [--cases N] [--seed S] [--only train_stack|suites]
    python3 tools/samebits.py --base <rev> --diff

The base revision is exported from the local repository with ``git archive`` (no network)
into a temporary directory. The cases are drawn once, here, from ``--seed``; both trees run
all of them, each in its own subprocess with only its own ``src/`` on the import path, and
the worlds are read from this tree's ``configs/`` by each tree's own parser. A case yields
SHA-256 digests of what it computed, or the text of the typed error (``MskdError``) it
raised. Every case whose digests or error texts differ is reported.
Exit codes: 0 no mismatch, 1 some mismatch, 2 a worker failed.

With ``--diff`` both trees instead run the benchmark's seed-0 inputs, as ``perfbench/run.py``
builds them: the nine bundled configs (``rate`` at perfbench's ``RATE_SEEDS`` seeds) and the
two ``large`` configs from ``perfbench/gen_world.py``. The report sizes what an output change
moves: for each output table column (``summary.json``'s assertions are a table too) the
number of changed entries and the largest absolute and relative change, each assertion whose
verdict flips, and each ``perfbench/references.json`` digest that this tree's outputs no
longer match. When nothing differs it prints ``no change``. Exit codes as above.

Families (``--only``):

``train_stack``
    ``distill.train_stack`` on stacks of 1-10 runs mixing adaptive and classic target
    tables, some of them diverging, at ridge 0, 0.01 or 0.2, with steps around
    ``SAMPLE_BLOCK`` edges and ``eval_every`` from 1 to 5,000, on five toy worlds. A case's
    digests are one per stack run, of its final logits and trace.

``suites``
    ``runner.run_experiment`` on variants of the bundled ``variance``, ``fixed_point``,
    ``perturbation``, ``safety`` and ``pareto`` configs, each kind in turn. The first three
    run on the same five worlds, the last two on the bundled safety world, which their labels
    cover. A case draws its seed, operator families and bounds, ``n_samples`` around
    ``SAMPLE_BLOCK`` edges, ``init_scale``, each kind's counts and scales, ``s_min``,
    ``mu_max``, ``n_mu``, ``ridge`` (the trainer's, for ``safety``) and safety's
    ``dual_step``. A case's digests are one per output table and one of the assertions,
    each cell written exactly (floats as hex), so an API change behind the suites can still
    be compared with its parent.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORLDS = ("train", "appendix_a", "zero_measure", "conformance", "safety")
KINDS = ("adaptive", "classic")
RIDGES = (0.0, 0.01, 0.2)
BLOCK = 1024  # mskd.core.SAMPLE_BLOCK, where the steps' edges lie
SUITES = ("variance", "fixed_point", "perturbation", "safety", "pareto")
# every scale's operator families but "custom", which a config cannot give a function
OPERATOR_FAMILIES = ("uniform", "inverse_entropy", "family_a", "family_b", "family_c")


def export(rev: str, dest: Path) -> Path:
    """The tree of ``rev`` from the local repository, unpacked under ``dest``."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, stdout=subprocess.PIPE).stdout  # git names a bad rev
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def draw_cases(n: int, seed: int) -> list[dict]:
    """``n`` train_stack cases, a pure function of ``seed``."""
    rng = random.Random(seed)
    edges = [k * BLOCK + d for k in (1, 2) for d in (-1, 0, 1)] + [2 * BLOCK + 5]
    cases = []
    for _ in range(n):
        runs = [[rng.choice(KINDS), rng.randrange(4)] for _ in range(rng.randint(1, 10))]
        if rng.random() < 0.1:  # a run or two whose targets overflow the logits
            for s in rng.sample(range(len(runs)), min(len(runs), rng.randint(1, 2))):
                runs[s][0] = rng.choice(("diverging", "late"))
        every = round(5000 ** rng.random())  # log-uniform over 1..5,000
        steps = rng.choice(edges) if rng.random() < 0.4 else rng.randrange(300)
        if steps // every > 300:  # at most about 300 records per run: dense ones on short runs
            steps = rng.choice((BLOCK - 1, BLOCK, BLOCK + 1)) if rng.random() < 0.05 \
                else rng.randrange(300 * every)
            runs = runs[:3]
        cases.append({"world": rng.choice(WORLDS), "ridge": rng.choice(RIDGES), "runs": runs,
                      "steps": steps, "eval_every": every, "eta0": rng.choice((1.0, 40.0)),
                      "init_scale": rng.choice((0.0, 0.5))})
    return cases


def draw_suite_cases(n: int, seed: int) -> list[dict]:
    """``n`` suites cases, a pure function of ``seed``: each a bundled config's overrides."""
    rng = random.Random(seed)
    edges = [100, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5, 10_000]
    cases = []
    for i in range(n):
        kind, trainer = SUITES[i % len(SUITES)], {}  # each kind in turn
        if kind == "variance":
            params = {"n_samples": rng.choice(edges) if rng.random() < 0.5
                      else rng.randrange(100, 3 * BLOCK),
                      "init_scale": rng.choice((0.0, 0.5, 1.0, 3.0))}
        elif kind == "fixed_point":
            params = {"beta": rng.choice((0.1, 0.3, 0.7, 1.0)), "n_pairs": rng.randint(1, 200),
                      "n_starts": rng.randint(0, 10)}
        elif kind == "perturbation":
            params = {"deltas": sorted(rng.sample((0.0, 1e-4, 1e-3, 1e-2, 0.05, 0.1),
                                                  rng.randint(1, 4))) + [rng.choice((0.1, 0.2))],
                      "ridge": rng.choice((0.01, 0.1))}
        elif kind == "safety":  # its ridge is the trainer's
            params = {"s_min": rng.choice((0.3, 0.5, 0.8, 0.9)),
                      "s_min_inactive": rng.choice((None, 0.1, 0.3)),
                      "dual_step": rng.choice((0.5, 5.0, 40.0, 100.0))}
            trainer = {"ridge": rng.choice((0.01, 0.1))}
        else:
            params = {"s_min": rng.choice((0.3, 0.5, 0.8, 0.9)),
                      "mu_max": rng.choice((0.0, 0.5, 2.0, 6.0)), "n_mu": rng.randint(1, 20),
                      "ridge": rng.choice((0.01, 0.1))}
        world = "safety" if kind in ("safety", "pareto") else rng.choice(WORLDS)  # the labels'
        cases.append({
            "kind": kind, "world": world, "seed": rng.randrange(2 ** 16),
            "bounds": {"w_min": rng.choice((0.001, 0.01, 0.05, 0.1)),
                       "w_max": rng.choice((0.8, 0.95, 0.99))},
            "operators": {"token": {"family": rng.choice(OPERATOR_FAMILIES),
                                    "alpha": rng.choice((0.5, 1.0, 2.0))},
                          "task": {"family": rng.choice(OPERATOR_FAMILIES),
                                   "tau": rng.choice((0.5, 1.0))},
                          "context": {"family": rng.choice(OPERATOR_FAMILIES)}},
            "params": params, "trainer": trainer})
    return cases


def _world_docs() -> dict:
    """The case worlds' config documents, from this tree's ``configs/``."""
    docs = {name: json.loads((ROOT / "configs" / f"{name}.json").read_text())
            for name in WORLDS if name != "zero_measure"}
    zero = json.loads(json.dumps(docs["train"]))  # input 1 never sampled: its rows only decay
    for task in zero["world"]["tasks"]:
        weights = dict(task["inputs"])
        weights[0], weights[1] = weights[0] + weights[1], 0.0
        task["inputs"] = [[i, weights[i]] for i, _ in task["inputs"]]
    return {**docs, "zero_measure": zero}


def _train_stack_runner(docs: dict):
    """The train_stack family's case runner: a digest per stack run."""
    import dataclasses
    import hashlib

    from mskd.distill import TrainerConfig, _uniform_compiled, compile_objective, train_stack
    from mskd.runner import parse_config_dict

    tables = {}

    def table(world: str, ridge: float, kind: str):
        if (world, ridge) not in tables:
            cfg = parse_config_dict(json.loads(json.dumps(docs[world])))
            adaptive = compile_objective(cfg.operator, cfg.world, ridge)
            tables[world, ridge] = {  # targets far outside the simplex overflow soon or late
                "adaptive": adaptive, "classic": _uniform_compiled(cfg.world, ridge),
                "diverging": dataclasses.replace(adaptive, targets=adaptive.targets * 1e307),
                "late": dataclasses.replace(adaptive, targets=adaptive.targets * 4e153)}
        return tables[world, ridge][kind]

    def digest(theta, trace) -> str:
        return hashlib.sha256(b"".join(a.tobytes() for a in (
            theta, trace.steps, trace.loss, trace.mean_kl, trace.grad_norm, trace.lr))).hexdigest()

    def run(case: dict) -> list[str]:
        config = TrainerConfig(eta0=case["eta0"], steps=case["steps"], ridge=case["ridge"],
                               eval_every=case["eval_every"], init_scale=case["init_scale"])
        return [digest(theta, trace) for theta, trace in train_stack(
            [(table(case["world"], case["ridge"], kind), seed) for kind, seed in case["runs"]],
            config)]

    return run


def _suites_runner(docs: dict):
    """The suites family's case runner: a digest per output table and one of the assertions."""
    import hashlib

    import numpy as np

    from mskd.runner import parse_config_dict, run_experiment

    bundled = {kind: json.loads((ROOT / "configs" / f"{kind}.json").read_text())
               for kind in SUITES}

    def cell(v):  # exact and independent of the library's own formatting
        if isinstance(v, (float, np.floating)):
            return float(v).hex()
        return v.item() if isinstance(v, np.generic) else v

    def digest(obj) -> str:
        return hashlib.sha256(json.dumps(obj, default=str).encode()).hexdigest()

    def run(case: dict) -> dict[str, str]:
        doc = {**bundled[case["kind"]], "world": docs[case["world"]]["world"],
               **{key: case[key] for key in ("seed", "bounds", "operators")}}
        for section in ("params", "trainer"):
            doc[section] = {**doc.get(section, {}), **case[section]}
        record = run_experiment(parse_config_dict(json.loads(json.dumps(doc))))
        out = {name: digest([header, [[cell(v) for v in row] for row in rows]])
               for name, (header, rows) in record.tables.items()}
        out["assertions"] = digest([{k: cell(v) for k, v in a.items()}
                                    for a in record.assertions])
        return out

    return run


def draw_diff_cases() -> list[dict]:
    """The benchmark's seed-0 configs, each named as ``perfbench/references.json`` names it."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as perfbench  # perfbench/run.py: its WORKLOADS build the configs

    return [{"workload": workload, "stem": f"{i}-{name}", "doc": doc}
            for workload in sorted(perfbench.WORKLOADS)
            for i, (name, doc) in enumerate(perfbench.WORKLOADS[workload](0))]


def _diff_runner(docs: dict):
    """The diff mode's case runner: the text of each file the run emits."""
    from mskd.runner import emit_summary, parse_config_dict, run_experiment

    def run(case: dict) -> dict[str, str]:
        with tempfile.TemporaryDirectory(prefix="samebits-emit-") as tmp:
            out = emit_summary(run_experiment(parse_config_dict(case["doc"])), tmp, quiet=True)
            return {p.name: p.read_text(encoding="utf-8") for p in sorted(out.iterdir())}

    return run


FAMILIES = {"train_stack": draw_cases, "suites": draw_suite_cases}
RUNNERS = {"train_stack": _train_stack_runner, "suites": _suites_runner, "diff": _diff_runner}


def worker(family: str, cases: Path, out: Path) -> None:
    """Run the ``cases`` file's ``family`` cases with the ``mskd`` on the import path."""
    from mskd.core import MskdError

    run, lines = RUNNERS[family](_world_docs()), []
    for case in json.loads(cases.read_text()):
        try:
            lines.append(json.dumps(run(case)))
        except MskdError as exc:
            lines.append(json.dumps(f"{type(exc).__name__}: {exc}"))
    out.write_text("\n".join(lines) + "\n")


def run_trees(base_src: Path, head_src: Path, cases: list[dict],
              family: str) -> tuple[list, list]:
    """Each tree's result per ``family`` case; the two trees run at once.

    ``base_src`` and ``head_src`` are the trees' ``src/`` directories.
    """
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory(prefix="samebits-cases-") as tmp:
        path = Path(tmp) / "cases.json"
        path.write_text(json.dumps(cases))
        outs = [Path(tmp) / f"{side}.out" for side in ("base", "head")]
        procs = [subprocess.Popen([sys.executable, __file__, "--worker", family, str(path),
                                   str(out)],
                                  env={**env, "PYTHONPATH": str(src)})
                 for src, out in zip((base_src, head_src), outs)]
        for p, side in zip(procs, ("base", "head")):
            if p.wait() != 0:
                raise RuntimeError(f"the {side} worker failed (exit {p.returncode})")
        return tuple([json.loads(line) for line in out.read_text().splitlines()]
                     for out in outs)


def compare(base_src: Path, head_src: Path, cases: list[dict],
            family: str = "train_stack") -> list[tuple[int, str]]:
    """Each mismatching ``family`` case's index and what differed (see :func:`run_trees`)."""
    found = []
    for i, (b, h) in enumerate(zip(*run_trees(base_src, head_src, cases, family), strict=True)):
        if b == h:
            continue
        if isinstance(b, list) and isinstance(h, list):
            runs = [s for s, (x, y) in enumerate(zip(b, h)) if x != y]
            found.append((i, f"digests differ in stack runs {runs}"))
        elif isinstance(b, dict) and isinstance(h, dict):
            parts = sorted(k for k in b.keys() | h.keys() if b.get(k) != h.get(k))
            found.append((i, f"digests differ in {parts}"))
        else:
            found.append((i, f"base gave {b!r}, head gave {h!r}"))
    return found


SUMMARY_COLUMNS = ("name", "expected", "measured", "tol", "pass")  # an assertion's fields


def _cell(text: str):
    try:
        return float(text)  # exact: cells are written with 17 significant digits
    except ValueError:
        return text


def _table(name: str, text: str) -> tuple[list, list]:
    """An emitted file as (header, rows); ``summary.json`` as the table of its assertions."""
    if name.endswith(".json"):
        return list(SUMMARY_COLUMNS), [[a.get(key) for key in SUMMARY_COLUMNS]
                                       for a in json.loads(text)["assertions"]]
    header, *rows = (line.split(",") for line in text.splitlines())
    return header, [[_cell(v) for v in row] for row in rows]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _column_changes(where: str, base: tuple[list, list], head: tuple[list, list]) -> list[str]:
    """One line per changed column: entries changed, largest absolute and relative change."""
    (b_header, b_rows), (h_header, h_rows) = base, head
    if b_header != h_header or len(b_rows) != len(h_rows):
        return [f"{where}: columns {b_header} x {len(b_rows)} rows -> "
                f"{h_header} x {len(h_rows)} rows"]
    lines = []
    for j, column in enumerate(h_header):
        changed = [(b[j], h[j]) for b, h in zip(b_rows, h_rows)
                   if b[j] != h[j] and not (b[j] != b[j] and h[j] != h[j])]  # NaN == NaN
        if not changed:
            continue
        numbers = [(b, h) for b, h in changed if _is_number(b) and _is_number(h)]
        steps = [abs(h - b) for b, h in numbers]
        steps = [d if d == d else math.inf for d in steps]  # a NaN step counts as inf
        rel = [d / abs(b) if 0 < abs(b) < math.inf else math.inf
               for d, (b, _) in zip(steps, numbers)]
        size = f", max abs {max(steps):.3g}, max rel {max(rel):.3g}" if steps else ""
        lines.append(f"{where} {column}: {len(changed)} of {len(h_rows)} changed{size}")
    return lines


def diff_report(cases: list[dict], base: list, head: list, references: dict) -> list[str]:
    """What differs between the trees' outputs of the ``--diff`` cases; [] when nothing does.

    ``references`` is ``perfbench/references.json``'s content: a digest moves when the head
    tree's file no longer matches it.
    """
    lines, moved = [], []
    for case, b, h in zip(cases, base, head, strict=True):
        where, pinned = f"{case['workload']}/{case['stem']}", references.get(case["workload"], {})
        if isinstance(b, str) or isinstance(h, str):  # a typed error on some side
            if b != h:
                lines.append(f"{where}: base gave {b!r}, head gave {h!r}")
            continue
        for name in sorted(b.keys() | h.keys()):
            key = f"{case['stem']}/{name}"
            if name in h and hashlib.sha256(h[name].encode()).hexdigest() != pinned.get(key):
                moved.append(f"{case['workload']}/{key}")
            if name not in b or name not in h:
                lines.append(f"{where}/{name}: only in {'base' if name in b else 'head'}")
            elif b[name] != h[name]:
                tables = _table(name, b[name]), _table(name, h[name])
                found = _column_changes(f"{where}/{name}", *tables)
                if name == "summary.json":
                    found += [f"{where}: {x[0]} verdict flips, {x[-1]} -> {y[-1]}"
                              for x, y in zip(*(rows for _, rows in tables)) if x[-1] != y[-1]]
                lines += found or [f"{where}/{name}: bytes differ outside its columns"]
    return lines + [f"references.json digest moves: {key}" for key in moved]


def diff_main(base: str) -> int:
    start, cases = time.perf_counter(), draw_diff_cases()
    with tempfile.TemporaryDirectory(prefix="samebits-") as tmp:
        try:
            outputs = run_trees(export(base, Path(tmp)) / "src", ROOT / "src", cases, "diff")
        except (subprocess.CalledProcessError, RuntimeError) as exc:
            print(f"samebits: {exc}", file=sys.stderr)
            return 2
    references = json.loads((ROOT / "perfbench" / "references.json").read_text())
    lines = diff_report(cases, *outputs, references)
    print("\n".join(lines) or "no change")
    print(f"diff: {len(cases)} benchmark configs at seed 0 against {base}, "
          f"{len(lines)} differences, {time.perf_counter() - start:.1f} s")
    return 1 if lines else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="the revision to compare this tree against")
    ap.add_argument("--cases", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--only", choices=list(FAMILIES), default="train_stack")
    ap.add_argument("--diff", action="store_true",
                    help="size the output change on the benchmark's configs instead")
    ap.add_argument("--worker", nargs=3, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        family, cases, out = args.worker
        worker(family, Path(cases), Path(out))
        return 0
    if not args.base:
        ap.error("--base is required")
    if args.diff:
        return diff_main(args.base)
    start, cases = time.perf_counter(), FAMILIES[args.only](args.cases, args.seed)
    with tempfile.TemporaryDirectory(prefix="samebits-") as tmp:
        try:
            found = compare(export(args.base, Path(tmp)) / "src", ROOT / "src", cases,
                            args.only)
        except (subprocess.CalledProcessError, RuntimeError) as exc:
            print(f"samebits: {exc}", file=sys.stderr)
            return 2
    for i, what in found[:10]:
        print(f"case {i}: {what}\n  {json.dumps(cases[i])}")
    if args.only == "train_stack":
        detail = f"{sum(c['ridge'] == 0.0 for c in cases)} ridge-free"
    else:
        detail = ", ".join(f"{sum(c['kind'] == k for c in cases)} {k}" for k in SUITES)
    print(f"{args.only}: {len(cases)} cases ({detail}) against {args.base}, "
          f"{len(found)} mismatches, {time.perf_counter() - start:.1f} s")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
