#!/usr/bin/env python3
"""The mskd benchmark: experiments run the way a researcher runs them.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one experiment at a time in a closed loop, each in a fresh
single-threaded worker process (``perfbench/worker.py``) that goes through
the runner's public path: ``parse_config``, ``run_experiment``,
``emit_summary``. The run repeats the workload's experiment, always on the
same inputs, until ``--seconds`` are used (at least twice), and reports
medians over the repeats:

- ``setup_s``: ``import mskd`` plus ``parse_config`` in the worker (each
  repeat sets up five times: once in the worker and in four workers that
  stop after set-up);
- ``run_s``: ``run_experiment`` plus ``emit_summary``, the time to a
  verified result;
- ``peak_rss_mib``: the worker's peak resident memory.

``setup_s`` and ``run_s`` are the worker's CPU seconds scaled to a
reference CPU speed: a calibrator (``perfbench/calibrate.py``) on the
worker's CPU measures how much other tenants of a shared machine slow
that CPU while the worker runs, and the CPU time is multiplied by that
speed. On an unshared core of the reference machine they are about the
wall times. The report also prints the unscaled wall times and the speed.

Every repeat passes a correctness gate: the worker exits 0 (every pinned
assertion of the experiment passed), its CSVs and ``summary.json`` are
byte-identical to those of the first repeat, and at seed 0 they match the
SHA-256 digests in ``perfbench/references.json``. A repeat that fails the
gate counts in ``failed``.

With ``--trace 1`` the run alternates untraced repeats with traced ones
(at least two) and reports the per-layer metrics of ``perfbench/layers.py``
instead, plus the tracing overhead; every count must repeat exactly between
the traced repeats. The last line of standard output is the JSON result;
the lines before it are a readable report, and the full record, with the
environment it ran in, goes to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
import gen_world
from layers import LAYERS, PER_LAYER, UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
REFERENCES = BENCH / "references.json"

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}
SETUPS_PER_REPEAT = 4    # set-up is short and noisy: sample it more often
MIN_REPEATS = 2          # the determinism gate compares two runs of one input
HARD_LIMIT_S = 165.0     # start no repeat that could end after this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The bundled `rate` config trains 10 seeds x 50k steps (about 30 s). The
# workload keeps its world, schedule and 50k steps per seed but trains
# RATE_SEEDS seeds, so that several repeats fit in one run.
RATE_SEEDS = 2
SMALL = ("appendix_a", "conformance", "train", "fixed_point", "perturbation",
         "variance", "safety", "pareto")


def bundled(name: str, seed: int) -> dict:
    """A bundled config; seed N > 0 runs it as ``mskd run --seed <its seed + N>`` would."""
    doc = json.loads((ROOT / "configs" / f"{name}.json").read_text(encoding="utf-8"))
    if seed:
        doc["seed"] = doc.get("seed", 0) + seed
        if "trainer" in doc:
            doc["trainer"]["seed"] = doc["seed"]
    return doc


def rate_docs(seed: int) -> list[tuple[str, dict]]:
    doc = bundled("rate", seed)
    doc["params"]["n_seeds"] = RATE_SEEDS
    return [("rate", doc)]


WORKLOADS = {
    # Toy worlds: all nine bundled kinds back to back. Sampler draws and the
    # single-sample SGD step dominate (rate and the variance loop); compile
    # covers at most 32 cells per call. The only workload with fixed-point
    # iteration, the conformance checker and the all-uniform == classic check.
    "bundled": lambda seed: rate_docs(seed) + [(name, bundled(name, seed)) for name in SMALL],
    # The generated 256-cell world: perturbation is compile-bound (four
    # compile_objective calls), safety is bound by damped-Newton block solves
    # inside dual ascent.
    "large": lambda seed: [("perturbation", gen_world.perturbation_doc(seed)),
                           ("safety", gen_world.safety_doc(seed))],
}

# The spans each workload is built to spend most of its traced run_s in.
DOMINANT = {
    "bundled": ("core.sampler.s", "distill.sgd.self_s"),
    "large": ("distill.compile.s", "safety.newton.s"),
}


def environment() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def digests(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def write_configs(workload: str, seed: int) -> list[str]:
    cfg_dir = OUT / workload / "configs"
    shutil.rmtree(cfg_dir, ignore_errors=True)
    cfg_dir.mkdir(parents=True)
    paths = []
    for i, (name, doc) in enumerate(WORKLOADS[workload](seed)):
        path = cfg_dir / f"{i}-{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    return paths


class SetupError(Exception):
    """The worker could not set up: the program or its configs are missing or invalid."""


def repeat(paths: list[str], traced: bool, workload: str, timeout: float) -> dict:
    """Run the workload once in a fresh worker; return its result and output digests.

    An untraced repeat then sets up SETUPS_PER_REPEAT more times, in workers
    that stop after set-up; ``setups`` holds every set-up's timings. The
    workers and a calibrator (``perfbench/calibrate.py``) share one CPU;
    ``speed`` is the calibrator's reference chunk time over its mean chunk
    time while they ran (1.0 on an unshared core, about 0.5 when other
    tenants halve the CPU's speed).
    """
    out = OUT / workload / ("traced" if traced else "plain")
    trace_dir = OUT / workload / "trace"
    samples = OUT / workload / "calibration.txt"
    shutil.rmtree(out, ignore_errors=True)
    samples.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--out", str(out)]
    if traced:
        cmd += ["--trace-dir", str(trace_dir)]
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})  # the calibrator and the worker inherit it
    try:
        cal = subprocess.Popen([sys.executable, str(BENCH / "calibrate.py"), str(samples)],
                               stdout=subprocess.PIPE, text=True)
    finally:
        os.sched_setaffinity(0, cpus)
    try:
        if cal.stdout.readline().strip() != "ready":
            raise SetupError("the calibrator did not start")
        os.sched_setaffinity(0, {cpu})
        try:
            t0 = perf_counter()
            proc = subprocess.run(cmd + paths, cwd=ROOT, env=worker_env(), capture_output=True,
                                  text=True, timeout=timeout)
            wall = perf_counter() - t0
            setup_only = [] if traced else [
                subprocess.run([sys.executable, str(BENCH / "worker.py"), "--setup-only"] + paths,
                               cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                               timeout=60)
                for _ in range(SETUPS_PER_REPEAT)]
        finally:
            os.sched_setaffinity(0, cpus)
        cal.terminate()
        cal.wait(timeout=30)
    finally:
        if cal.poll() is None:
            cal.kill()
            cal.wait()
        cal.stdout.close()
    chunks = [float(x) for x in samples.read_text().split()] if samples.exists() else []
    speed = calibrate.REFERENCE_CHUNK_S / statistics.fmean(chunks) if chunks else None
    for p in [proc] + setup_only:
        if p.returncode not in (0, 1, 3):
            raise SetupError(f"worker exited {p.returncode}: {p.stderr.strip()}")
    result = last_json(proc.stdout)  # None after a runtime error or an uncaught exception
    setups = [r for r in [result] + [last_json(p.stdout) for p in setup_only] if r]
    return {"traced": traced, "exit": proc.returncode, "wall_s": wall, "cpu": cpu,
            "speed": speed, "calibration_chunks": len(chunks), "result": result,
            "setups": [{k: r[k] for k in ("setup_s", "setup_cpu_s")} for r in setups],
            "stderr": proc.stderr.strip(), "digests": digests(out) if out.exists() else {}}


def last_json(stdout: str) -> dict | None:
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def gate(rep: dict, first: dict, reference: dict | None) -> list[str]:
    """Reasons this repeat fails the correctness gate (empty when it passes)."""
    reasons = []
    if rep["exit"] != 0:
        reasons.append(f"worker exit {rep['exit']}: {rep['stderr'][-300:]}")
    if rep["digests"] != first["digests"]:
        reasons.append("outputs differ from the first repeat")
    if reference is not None and rep["digests"] != reference:
        reasons.append("outputs differ from perfbench/references.json")
    return reasons


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    paths = write_configs(workload, seed)
    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    reference = references.get(workload) if seed == 0 else None
    if seed == 0 and reference is None:
        raise SetupError(f"no reference digests for {workload} in {REFERENCES}")
    # Untraced repeats only, or: untraced, traced, traced, then alternating.
    plan = (lambda i: i in (1, 2) or (i > 2 and i % 2 == 0)) if trace else (lambda i: False)
    need = 3 if trace else MIN_REPEATS
    reps: list[dict] = []
    last = {}
    t_start = perf_counter()
    while True:
        traced = plan(len(reps))
        elapsed = perf_counter() - t_start
        estimate = last.get(traced, last.get(False, 0.0))
        if len(reps) >= need and elapsed + estimate > seconds:
            break
        if elapsed + 1.5 * estimate > HARD_LIMIT_S:
            break
        t0 = perf_counter()
        rep = repeat(paths, traced, workload, timeout=HARD_LIMIT_S + 10 - elapsed)
        rep["failures"] = gate(rep, reps[0] if reps else rep, reference)
        reps.append(rep)
        last[traced] = perf_counter() - t0
    return {"reps": reps, "elapsed_s": perf_counter() - t_start,
            "config_hashes": next((r["result"]["config_hashes"] for r in reps if r["result"]),
                                  None)}


def timed(reps: list[dict]) -> list[dict]:
    """The untraced repeats that produced a result and a CPU speed."""
    return [r for r in reps if r["result"] and r["speed"] and not r["traced"]]


def scaled_run_s(reps: list[dict]) -> float:
    """Median over these repeats of the run's CPU time at reference speed."""
    return statistics.median(r["result"]["run_cpu_s"] * r["speed"]
                             for r in reps if r["result"] and r["speed"])


def end_to_end(reps: list[dict]) -> dict:
    """Medians over the run's untraced repeats (and set-ups) of CPU times at reference speed."""
    done = timed(reps)
    return {"setup_s": statistics.median(s["setup_cpu_s"] * r["speed"]
                                         for r in done for s in r["setups"]),
            "run_s": scaled_run_s(done),
            "peak_rss_mib": statistics.median(r["result"]["peak_rss_mib"] for r in done)}


def as_measured(reps: list[dict]) -> dict:
    """Medians over the untraced repeats of the unscaled wall times and of the CPU speed."""
    done = timed(reps)
    return {"setup_wall_s": statistics.median(s["setup_s"] for r in done for s in r["setups"]),
            "run_wall_s": statistics.median(r["result"]["run_s"] for r in done),
            "cpu_speed": statistics.median(r["speed"] for r in done)}


def per_layer(reps: list[dict]) -> tuple[dict, list[str], list[dict]]:
    """Per-layer metrics and per-config spans of the fastest traced repeat, and count drift.

    Taking every figure from one repeat keeps the attribution consistent:
    the layers' self times add up to that repeat's ``trace.run_s``.
    """
    traced = [r["result"]["trace"] for r in reps if r["traced"] and r["result"]]
    fastest = min(traced, key=lambda t: t["metrics"]["trace.run_s"])
    metrics = {name: fastest["metrics"].get(name) for name, _, _ in PER_LAYER}
    metrics["trace.overhead_s"] = (scaled_run_s([r for r in reps if r["traced"]])
                                   - scaled_run_s(timed(reps)))
    drift = []
    first = traced[0]
    for t in traced[1:]:
        keys = set(first["counts"]) | set(t["counts"])
        drift += [f"{k}: {first['counts'].get(k)} != {t['counts'].get(k)}"
                  for k in sorted(keys) if first["counts"].get(k) != t["counts"].get(k)]
    return metrics, drift, fastest["configs"]


def report(workload: str, seed: int, trace: bool, run: dict, metrics: dict,
           attempted: int, failed: int, drift: list[str], configs: list[dict]) -> None:
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"repeats {attempted}  measured {run['elapsed_s']:.1f} s")
    print(f"  config_hash {' '.join(run['config_hashes'] or [])}")
    for rep in run["reps"]:
        for reason in rep["failures"]:
            print(f"  FAILED repeat ({'traced' if rep['traced'] else 'plain'}): {reason}")
    print(f"  {'failed_frac':<40} {failed / attempted:>14.4f} frac  ({failed}/{attempted})")
    units = UNITS if trace else END_TO_END
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    if not trace:
        raw = as_measured(run["reps"])
        print(f"  as measured: setup {raw['setup_wall_s']:.4f} s, run {raw['run_wall_s']:.4f} s "
              f"wall, at {raw['cpu_speed']:.3f} x the reference CPU speed")
    if trace:
        run_s = metrics["trace.run_s"]
        print("  attribution of traced run_s (self time):")
        for layer in LAYERS:
            s = metrics[f"layer.{layer}.self_s"]
            print(f"    {layer:<14} {s:>10.4f} s  {100 * s / run_s:6.1f} %")
        print(f"    {'unattributed':<14} {metrics['unattributed.frac'] * run_s:>10.4f} s  "
              f"{100 * metrics['unattributed.frac']:6.1f} %")
        share = sum(metrics[name] for name in DOMINANT[workload]) / run_s
        print(f"    {' + '.join(DOMINANT[workload])} = {100 * share:.1f} % of traced run_s")
        print(f"    tracing overhead {metrics['trace.overhead_s']:.4f} s "
              f"({100 * metrics['trace.overhead_s'] / (run_s - metrics['trace.overhead_s']):.1f} %"
              " of untraced run_s)")
        print("  largest spans per config (inclusive, share of the config's traced run_s):")
        for cfg in configs:
            tops = ", ".join(f"{name} {100 * t / cfg['run_s']:.0f} %" for name, t in cfg["top"])
            print(f"    {cfg['config']:<16} {cfg['run_s']:>8.4f} s  {tops}")
        for line in drift:
            print(f"  COUNT DRIFT {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    trace = bool(args.trace)

    if not (ROOT / "src" / "mskd" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no mskd checkout at {ROOT} (need src/mskd and configs/)", file=sys.stderr)
        return 2
    env = environment()
    try:
        run = measure(args.workload, args.seed, args.seconds, trace)
    except (SetupError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    reps = run["reps"]
    attempted = len(reps)
    failed = sum(1 for r in reps if r["failures"])
    if not timed(reps) or (trace and not any(r["result"] and r["traced"] for r in reps)):
        print("no repeat produced timings", file=sys.stderr)
        return 1
    drift: list[str] = []
    configs: list[dict] = []
    if trace:
        metrics, drift, configs = per_layer(reps)
    else:
        metrics = end_to_end(reps)
    correct = failed == 0 and not drift

    report(args.workload, args.seed, trace, run, metrics, attempted, failed, drift, configs)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": trace, "environment": env, "config_hashes": run["config_hashes"],
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "count_drift": drift,
              "repeats": [{k: v for k, v in r.items() if k != "digests"} for r in reps]}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print("env " + json.dumps(env))
    units = UNITS if trace else END_TO_END
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
