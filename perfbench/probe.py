"""A fixed reference job that measures how fast the machine runs now.

Each repetition's process times this job between importing ``lha`` and the
pipeline call, and the runner scales that repetition's timings by
``NOMINAL_S`` over the job's time (see ``run.py``). The job parses the
workload's word-vector file line by line into arrays, as a repetition's own
set-up does, and keeps none of them. It never calls into ``lha`` and runs
with garbage collection off, so a change to the program reaches it only
through what importing ``lha`` leaves in the process.
"""

import gc
import time

import numpy as np

# The job's median time on the machine the baseline was measured on
# (2 shared cores); timings are scaled to this speed.
NOMINAL_S = 0.45


def probe(path: str) -> float:
    """Seconds one pass of the reference job takes."""
    gc.disable()
    start = time.perf_counter()
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            np.array([float(v) for v in line.split()[1:]])
    seconds = time.perf_counter() - start
    gc.enable()
    return seconds
