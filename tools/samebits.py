"""Same-bits checker: random cases run at a base revision and at this tree, bytes compared.

Run from anywhere in the repository::

    python3 tools/samebits.py --base <rev> [--cases N] [--seed S] [--only train_stack]

The base revision is exported from the local repository with ``git archive`` (no network)
into a temporary directory. The cases are drawn once, here, from ``--seed``; both trees run
all of them, each in its own subprocess with only its own ``src/`` on the import path, and
the worlds are read from this tree's ``configs/`` by each tree's own parser. A case yields
the SHA-256 digest of each run's final logits and trace, or the text of the typed error
(``MskdError``) it raised. Every case whose digests or error texts differ is reported.
Exit codes: 0 no mismatch, 1 some mismatch, 2 a worker failed.

Families (``--only``):

``train_stack``
    ``distill.train_stack`` on stacks of 1-10 runs mixing adaptive and classic target
    tables, some of them diverging, at ridge 0, 0.01 or 0.2, with steps around
    ``SAMPLE_BLOCK`` edges and ``eval_every`` from 1 to 5,000, on five toy worlds.
"""

from __future__ import annotations

import argparse
import io
import json
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


def worker(cases: Path, out: Path) -> None:
    """Run the ``cases`` file's cases with the ``mskd`` on the import path; a line each."""
    import dataclasses
    import hashlib

    from mskd.core import MskdError
    from mskd.distill import TrainerConfig, _uniform_compiled, compile_objective, train_stack
    from mskd.runner import parse_config_dict

    docs, tables, lines = _world_docs(), {}, []

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

    for case in json.loads(cases.read_text()):
        config = TrainerConfig(eta0=case["eta0"], steps=case["steps"], ridge=case["ridge"],
                               eval_every=case["eval_every"], init_scale=case["init_scale"])
        try:
            out_runs = train_stack([(table(case["world"], case["ridge"], kind), seed)
                                    for kind, seed in case["runs"]], config)
        except MskdError as exc:
            lines.append(json.dumps(f"{type(exc).__name__}: {exc}"))
        else:
            lines.append(json.dumps([digest(theta, trace) for theta, trace in out_runs]))
    out.write_text("\n".join(lines) + "\n")


def compare(base_src: Path, head_src: Path, cases: list[dict]) -> list[tuple[int, str]]:
    """Each mismatching case's index and what differed; the two trees run at once.

    ``base_src`` and ``head_src`` are the trees' ``src/`` directories.
    """
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory(prefix="samebits-cases-") as tmp:
        path = Path(tmp) / "cases.json"
        path.write_text(json.dumps(cases))
        outs = [Path(tmp) / f"{side}.out" for side in ("base", "head")]
        procs = [subprocess.Popen([sys.executable, __file__, "--worker", str(path), str(out)],
                                  env={**env, "PYTHONPATH": str(src)})
                 for src, out in zip((base_src, head_src), outs)]
        for p, side in zip(procs, ("base", "head")):
            if p.wait() != 0:
                raise RuntimeError(f"the {side} worker failed (exit {p.returncode})")
        base, head = ([json.loads(line) for line in out.read_text().splitlines()] for out in outs)
    found = []
    for i, (b, h) in enumerate(zip(base, head, strict=True)):
        if b == h:
            continue
        if isinstance(b, list) and isinstance(h, list):
            runs = [s for s, (x, y) in enumerate(zip(b, h)) if x != y]
            found.append((i, f"digests differ in stack runs {runs}"))
        else:
            found.append((i, f"base gave {b!r}, head gave {h!r}"))
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="the revision to compare this tree against")
    ap.add_argument("--cases", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--only", choices=["train_stack"], default="train_stack")
    ap.add_argument("--worker", nargs=2, type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker(*args.worker)
        return 0
    if not args.base:
        ap.error("--base is required")
    start, cases = time.perf_counter(), draw_cases(args.cases, args.seed)
    with tempfile.TemporaryDirectory(prefix="samebits-") as tmp:
        try:
            found = compare(export(args.base, Path(tmp)) / "src", ROOT / "src", cases)
        except (subprocess.CalledProcessError, RuntimeError) as exc:
            print(f"samebits: {exc}", file=sys.stderr)
            return 2
    for i, what in found[:10]:
        print(f"case {i}: {what}\n  {json.dumps(cases[i])}")
    free = sum(c["ridge"] == 0.0 for c in cases)
    print(f"{args.only}: {len(cases)} cases ({free} ridge-free) against {args.base}, "
          f"{len(found)} mismatches, {time.perf_counter() - start:.1f} s")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
