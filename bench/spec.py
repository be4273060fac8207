"""Sizes and parameters of the workloads, and the calibration loop.

Kept apart so the runner can build, as its set-up, the objects the workloads
use without importing the benchmark's checking code.
"""

import time

WORKLOADS = ("sample-n10", "exact-report")

# sample-n10: the adjcount model at n = 10, coupled at its floor 0.3
SAMPLE_N = 10
SAMPLE_BASE = "0.3"
COUPLED_PROPERTY = "match>=4"
INDEPENDENT_PROPERTY = "connected"
COUPLED_SAMPLES = 4096  # two fork chunks of 2048, one per worker
INDEPENDENT_SAMPLES = 2000
CONDITIONED_SAMPLES = 1000
THREADS = 2

# exact-report, second part: G(1000, d/999) trend tables
REPORT_N = 1000
DIAMETER_DEGREE = "10"
DIAMETER_SAMPLES = 4
DEGREE_K = 5
DEGREE_DEGREE = "5"
DEGREE_SAMPLES = 5

# exact-report, first part: exhaustive checks on the adjcount model
# (model, n, p, export): the n = 7 table (2^21 rows) is not exported, since
# writing and parsing it took 8 of the round's 17 s and left two rounds a run
JOINT_SPECS = (
    ("adjcount", 7, None, False),
    ("adjcount", 6, None, True),
    ("adjcount", 5, None, True),
    ("er", 6, "0.3", True),
    ("er", 5, "0.15", True),
)
COUPLING_N = 5
COUPLING_BASES = ("0.0", "0.05", "0.1", "0.15", "0.2", "0.25", "0.3")
DOMINATION_N = 6
DOMINATION_BASE = "0.3"
DOMINATION_PROPERTIES = (
    "clique>=3",
    "chrom>=3",
    "match>=3",
    "diam<=2",
    "domset<=2",
    "ham",
    "connected",
)

# oracles decided on sampled graphs in the traced run's per-oracle sweep
SWEEP_PROPERTIES = (
    "clique>=4",
    "chrom>=4",
    "match>=4",
    "diam<=2",
    "domset<=3",
    "ham",
    "connected",
)
SWEEP_GRAPHS = 300


# The machine this benchmark was written on changes speed by up to 1.9x,
# for stretches from under a second to tens of seconds, in CPU time as in
# wall time. So every timed wall is taken between two runs of a fixed
# pure-Python loop and scaled to the speed at which that loop takes
# CALIBRATION_REF_S: wall * CALIBRATION_REF_S / (mean of the two loop walls).
# The loop does the kinds of work the program does most (integer arithmetic,
# dict stores, big-integer bit tests), and never touches probust, so a
# change to the program moves the scaled walls and not the loop.
CALIBRATION_LOOPS = 40_000
CALIBRATION_REF_S = 0.016  # the loop's wall in the fast phase of a 2-core x86-64 VM


def calibrate() -> float:
    """Wall time of one run of the calibration loop."""
    start = time.perf_counter()
    acc, table, bits = 1, {}, (1 << 2048) - 3
    for i in range(CALIBRATION_LOOPS):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        table[acc & 511] = i
        if (bits >> (i & 2047)) & 1:
            acc ^= len(table)
    return time.perf_counter() - start


def at_reference_speed(wall: float, calibration_walls) -> float:
    """``wall`` scaled to the speed at which the loop takes CALIBRATION_REF_S."""
    return wall * CALIBRATION_REF_S * len(calibration_walls) / sum(calibration_walls)
