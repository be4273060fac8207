#!/usr/bin/env python3
"""In-process CLI throughput: samples per second at n = 10 / 30 / 64, and
rows per second of the exported joint table.

Runs `couple`, `generate --model adjcount`, `verify --mode coupled` with
`connected` and with `diam<=3`, and `verify --mode independent` with
`connected`, on the adjacency-count model at base 0.3 with `--threads 1`,
plus `verify --mode coupled --property connected` with `--threads 2` (the
fork path: this process and one forked worker),
`generate --model adjcount-cond`, the rejection sampler, and
`generate --model globalcount`, whose conditional reads the decided edge
count. `verify` also
gets `--certify-trials 0`, so only its sampling and deciding are timed. The
independent mode draws each sample count twice, once from G(n, 0.3) and
once from the model; its rate counts `--samples` once. Each call goes through
``probust.cli.main`` in this process, with its output captured in memory,
and is timed with ``time.perf_counter`` between two runs of the benchmark's
calibration loop (``bench/spec.py``). Each wall is scaled, as the benchmark
scales its walls, to the speed at which that loop takes
``CALIBRATION_REF_S``, so that rows taken while the machine runs at another
speed stay comparable. The best of ``--repeats`` scaled walls gives
samples / wall. The sample counts are 4096, 1024 and 256 at n = 10 / 30 / 64,
times ``--scale``.

The CSV writer is timed the same way, in rows per second: `exact --check
joint --export-dist` into a temporary file for adjcount at n = 6 and er at
n = 6, p = 0.3 (2^15 rows each, whatever ``--scale``). Its wall includes
building the exact table and the check's stdout line.

The calibration loop is pure Python and does not track every swing of the
machine's speed on the numpy-bound rows (n = 30 and 64 above all): one
process's rows can differ by a third from the next one's with no code
changed. To compare two trees, run this script in at least 8 fresh
processes per tree, alternating the trees, and compare each row's median
over the processes.

Prints one JSON object: the sample count per n, the calibration loop's
reference wall, samples/s per command and n, and per command and n the two
calibration walls, in seconds, taken beside the best call; then the rows
per export, its rows/s and its two calibration walls.

Usage:
    python scripts/throughput.py [--repeats 3] [--scale 1.0] [--seed 7]
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

from probust import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from spec import CALIBRATION_REF_S, at_reference_speed, calibrate  # noqa: E402

SAMPLES = {10: 4096, 30: 1024, 64: 256}
COMMANDS = {
    "couple": "couple --model adjcount --base 0.3",
    "generate --model adjcount": "generate --model adjcount",
    "generate --model globalcount": "generate --model globalcount",
    "verify --mode coupled --property connected":
        "verify --model adjcount --base 0.3 --mode coupled --property connected --threads 1",
    "verify --mode coupled --property connected --threads 2":
        "verify --model adjcount --base 0.3 --mode coupled --property connected --threads 2",
    "verify --mode coupled --property diam<=3":
        "verify --model adjcount --base 0.3 --mode coupled --property diam<=3 --threads 1",
    "verify --mode independent --property connected":
        "verify --model adjcount --base 0.3 --mode independent --property connected --threads 1",
    "generate --model adjcount-cond": "generate --model adjcount-cond",
}
EXPORTS = {
    "adjcount n=6": "exact --model adjcount --n 6 --check joint",
    "er n=6 p=0.3": "exact --model er --n 6 --p 0.3 --check joint",
}
EXPORT_ROWS = 1 << 15  # 2^m rows at n = 6


def best_wall(argv: list[str], repeats: int) -> tuple[float, list[float]]:
    """The shortest of ``repeats`` calibrated walls of ``cli.main(argv)``,
    which must exit 0, and the two calibration walls taken beside it."""
    best = None
    for _ in range(repeats):
        out = io.StringIO()
        before = calibrate()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        wall = time.perf_counter() - start
        walls = [before, calibrate()]
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        scaled = at_reference_speed(wall, walls)
        if best is None or scaled < best[0]:
            best = (scaled, walls)
    return best


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--scale", type=float, default=1.0, help="multiplies the sample counts")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    samples = {n: max(1, round(count * args.scale)) for n, count in SAMPLES.items()}
    rates, calibration = {}, {}
    for name, command in COMMANDS.items():
        rates[name], calibration[name] = {}, {}
        for n, count in samples.items():
            argv = f"{command} --n {n} --samples {count} --seed {args.seed}".split()
            if argv[0] == "verify":
                argv += ["--certify-trials", "0"]
            wall, walls = best_wall(argv, args.repeats)
            rates[name][n] = round(count / wall, 1)
            calibration[name][n] = [round(w, 5) for w in walls]
    row_rates, row_calibration = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, command in EXPORTS.items():
            argv = [*command.split(), "--export-dist", str(Path(tmp) / "joint.csv")]
            wall, walls = best_wall(argv, args.repeats)
            row_rates[name] = round(EXPORT_ROWS / wall, 1)
            row_calibration[name] = [round(w, 5) for w in walls]
    print(json.dumps({
        "samples": samples,
        "calibration_ref_s": CALIBRATION_REF_S,
        "samples_per_s": rates,
        "calibration_s": calibration,
        "export_rows": EXPORT_ROWS,
        "export_rows_per_s": row_rates,
        "export_calibration_s": row_calibration,
    }, indent=1))


if __name__ == "__main__":
    main()
