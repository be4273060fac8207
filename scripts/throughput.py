#!/usr/bin/env python3
"""In-process CLI throughput, in samples per second, at n = 10 / 30 / 64.

Runs `couple`, `generate --model adjcount`, `verify --mode coupled` with
`connected` and with `diam<=3`, and `verify --mode independent` with
`connected`, on the adjacency-count model at base 0.3 with `--threads 1`,
plus `verify --mode coupled --property connected` with `--threads 2` (the
fork path: this process and one forked worker), and
`generate --model adjcount-cond`, the rejection sampler. `verify` also
gets `--certify-trials 0`, so only its sampling and deciding are timed. The
independent mode draws each sample count twice, once from G(n, 0.3) and
once from the model; its rate counts `--samples` once. Each call goes through
``probust.cli.main`` in this process, with its output captured in memory,
and is timed with ``time.perf_counter``. The best of ``--repeats`` walls
gives samples / wall. The sample counts are 4096, 1024 and 256 at
n = 10 / 30 / 64, times ``--scale``.

Prints one JSON object: the sample count per n, and samples/s per command
and n.

Usage:
    python scripts/throughput.py [--repeats 3] [--scale 1.0] [--seed 7]
"""

import argparse
import contextlib
import io
import json
import time

from probust import cli

SAMPLES = {10: 4096, 30: 1024, 64: 256}
COMMANDS = {
    "couple": "couple --model adjcount --base 0.3",
    "generate --model adjcount": "generate --model adjcount",
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


def best_wall(argv: list[str], repeats: int) -> float:
    """The shortest of ``repeats`` walls of ``cli.main(argv)``, which must exit 0."""
    walls = []
    for _ in range(repeats):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        walls.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
    return min(walls)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--scale", type=float, default=1.0, help="multiplies the sample counts")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    samples = {n: max(1, round(count * args.scale)) for n, count in SAMPLES.items()}
    rates = {}
    for name, command in COMMANDS.items():
        rates[name] = {}
        for n, count in samples.items():
            argv = f"{command} --n {n} --samples {count} --seed {args.seed}".split()
            if argv[0] == "verify":
                argv += ["--certify-trials", "0"]
            rates[name][n] = round(count / best_wall(argv, args.repeats), 1)
    print(json.dumps({"samples": samples, "samples_per_s": rates}, indent=1))


if __name__ == "__main__":
    main()
