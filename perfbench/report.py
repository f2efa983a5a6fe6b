#!/usr/bin/env python3
"""Run every workload once, one after another, and print each report.

Usage, from the root of a checkout::

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` each workload prints ``setup_s``, ``run_s``,
``peak_rss_mib`` and ``failed_frac`` by name with units; with ``--trace 1``
it prints the per-layer metrics, the attribution of ``run_s`` to layers
and the tracing overhead. Exits 1 if any workload fails its checks.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS, environment

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        ok = ok and json.loads(lines[-1])["correct"]
        print("\n".join(line for line in lines[:-1] if not line.startswith("env ")))
    print("env " + json.dumps(environment()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
