"""One benchmark experiment in a fresh, single-threaded process.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py --out DIR [--trace-dir DIR] CONFIG [CONFIG ...]
    python3 perfbench/worker.py --setup-only CONFIG [CONFIG ...]

The configs run back to back through the runner's public path:
``parse_config`` for every config first (set-up), then ``run_experiment``
and ``emit_summary`` for each, writing into ``DIR/<config file stem>``. The
last line of standard output is one JSON object with the timings, the peak
resident memory and, with ``--trace-dir``, the traced per-layer summary.
With ``--setup-only`` the worker stops after set-up and reports its timings.

Exit codes: 0 every assertion passed, 1 an assertion failed, 2 a config
was rejected or ``mskd`` was not imported from this checkout, 3 the run
raised ``MskdError``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent


def _output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-dir", default=None)
    ap.add_argument("configs", nargs="+")
    args = ap.parse_args(argv)
    if args.out is None and not args.setup_only:
        ap.error("--out is required unless --setup-only")

    t0, c0 = perf_counter(), process_time()
    import mskd
    from mskd import runner
    from mskd.core import MskdError, ParseError
    import_s, import_cpu_s = perf_counter() - t0, process_time() - c0
    if Path(mskd.__file__).resolve().parent != ROOT / "src" / "mskd":
        print(f"mskd imported from {mskd.__file__}, not from this checkout", file=sys.stderr)
        return 2

    parse, run, emit = runner.parse_config, runner.run_experiment, runner.emit_summary
    tracer = None
    if args.trace_dir is not None:
        import probes
        from tracer import Tracer
        tracer = Tracer()
        probes.install(tracer)
        parse = tracer.wrap("runner.parse", parse)
        run = tracer.wrap("runner.run_experiment", run)
        emit = tracer.wrap("runner.emit", emit)

    t0, c0 = perf_counter(), process_time()
    try:
        configs = [parse(path) for path in args.configs]
    except ParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    parse_s, parse_cpu_s = perf_counter() - t0, process_time() - c0
    setup = {"setup_s": import_s + parse_s, "setup_cpu_s": import_cpu_s + parse_cpu_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    out_root = Path(args.out)
    passed = True
    run_each = []
    c0 = process_time()
    for i, cfg in enumerate(configs):
        if tracer is not None:
            tracer.run_id = i
        t0 = perf_counter()
        try:
            record = run(cfg)
            emit(record, out_root / Path(args.configs[i]).stem, quiet=True)
        except MskdError as exc:
            print(f"runtime error: {exc}", file=sys.stderr)
            return 3
        run_each.append(perf_counter() - t0)
        passed = passed and record.passed

    run_cpu_s = process_time() - c0
    run_s = sum(run_each)
    result = {
        "import_s": import_s,
        "parse_s": parse_s,
        **setup,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed": passed,
        "config_hashes": [cfg.config_hash for cfg in configs],
    }
    if tracer is not None:
        from layers import layer_metrics
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.save(trace_dir / "spans.npz")
        tracer.count("runner.emit.bytes", _output_bytes(out_root))
        result["trace"] = layer_metrics(tracer, run_s)
        result["trace"]["configs"] = [
            {"config": Path(path).stem, "run_s": t, "top": top}
            for path, t, top in zip(args.configs, run_each, result["trace"]["configs"])]
    print(json.dumps(result))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
