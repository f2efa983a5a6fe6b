#!/usr/bin/env python3
"""Write ``perfbench/references.json``: output digests of every workload at seed 0.

Usage, from the root of a checkout: ``python3 perfbench/make_references.py``.
Each workload runs once in a worker and must pass all its assertions. Only
rerun this when an output change is intended, and say why in CHANGES.md.
"""

import json
import sys

import run


def main() -> int:
    refs = {}
    for workload in sorted(run.WORKLOADS):
        paths = run.write_configs(workload, 0)
        rep = run.repeat(paths, False, workload, timeout=run.HARD_LIMIT_S)
        if rep["exit"] != 0:
            print(f"{workload}: worker exit {rep['exit']}: {rep['stderr']}", file=sys.stderr)
            return 1
        refs[workload] = rep["digests"]
        print(f"{workload}: {len(rep['digests'])} files")
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
