"""Sample the speed of one CPU while a worker runs on it.

Usage::

    python3 perfbench/calibrate.py OUT_FILE

Run it pinned to the worker's CPU, and start the worker once it has
printed ``ready``. It lowers its own priority to nice 19, so the worker
keeps that CPU almost to itself (the calibrator gets about 1.5 % of it),
and times a fixed chunk of small numpy steps again and again in its own
CPU time, until it receives SIGTERM. Then it writes one chunk
time per line to ``OUT_FILE`` and exits 0.

On a shared machine other tenants slow a CPU by up to about 2x for
stretches of seconds to minutes. The chunks run on the same CPU in slices
between the worker's, so they are slowed with it: the mean chunk time over
a repeat measures how fast the CPU was while the worker ran.
"""

from __future__ import annotations

import os
import signal
import sys
import time

import numpy as np

CHUNK_ITERS = 40
# Mean CPU time of one chunk, taken between a worker's slices, on the
# least-slowed repeats seen on a 2.1 GHz Xeon (Sapphire Rapids class):
# there the scaled times and the wall times agree.
REFERENCE_CHUNK_S = 0.24e-3


def chunk(w: np.ndarray, x: np.ndarray) -> float:
    """Time CHUNK_ITERS softmax-and-update steps on 10-element arrays.

    Interpreter dispatch plus small numpy calls, the mix that the mskd
    experiments spend their time in; it is slowed by other tenants about as
    much as they are (a loop of pure interpreter work is slowed less).
    """
    t0 = time.thread_time()
    for i in range(CHUNK_ITERS):
        z = w + x
        p = np.exp(z - z.max())
        p /= p.sum()
        w[i % 10] -= 0.01 * p[i % 10]
    return time.thread_time() - t0


def main() -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    os.nice(19)
    print("ready", flush=True)
    w, x = np.zeros(10), np.linspace(0.0, 1.0, 10)
    samples = []
    while not stop:
        samples.append(chunk(w, x))
    with open(sys.argv[1], "w", encoding="utf-8") as out:
        out.write("".join(f"{s:.9f}\n" for s in samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
