"""Benchmark for probust: two workloads through the public CLI, each output
checked against a computation made apart from the program.

    python3 bench/run.py --workload sample-n10 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``.
With ``--trace 0`` it times the CLI end to end; with ``--trace 1`` it replays
the same calls layer by layer with spans (see ``tracing.py``). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks as C  # noqa: E402
import spec  # noqa: E402
import workloads as W  # noqa: E402

OUT_DIR = ".bench_out"  # run outputs and trace files, under the checkout

# Figures printed per workload (not in the result line, which carries the
# end-to-end metrics every workload reports): step kind -> (name, unit).
STEP_FIGURES = {
    "couple": ("couple_samples_per_s", "samples/s"),
    "verify-coupled": ("verify_coupled_samples_per_s", "samples/s"),
    "verify-independent": ("verify_independent_samples_per_s", "graphs/s"),
    "generate": ("generate_cond_samples_per_s", "graphs/s"),
    "report-diameter": ("report_diameter_samples_per_s", "graphs/s"),
    "report-degree": ("report_degree_samples_per_s", "graphs/s"),
    "exact-joint": ("exact_joint_s", "s"),
    "exact-coupling": ("exact_coupling_s", "s"),
    "exact-domination": ("exact_domination_s", "s"),
}

CHECK_ERRORS = (C.CheckFailure, KeyError, ValueError, TypeError, IndexError)


def checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "probust" / "__init__.py").is_file():
        raise SystemExit(f"no src/probust under {root}: run from the root of a probust checkout")
    return root


def child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PROBUST_SEED", None)
    return env


class Runner:
    """A fresh interpreter that sets up a workload, then runs ``cli.main`` on request.

    Construction waits until the runner is set up, with nothing else running,
    so spawn to ready, less the runner's two calibration loops, is one set-up:
    interpreter start, ``import probust`` and building the workload's objects.
    ``setup_s`` is that wall at the reference speed.
    """

    def __init__(self, root: Path, workload: str):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "runner.py"), workload],
            cwd=root, env=child_env(root),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            hello = self._read()
        except RuntimeError:
            self.close(kill=True)
            raise
        calibration = hello["calibration_walls"]
        wall = time.perf_counter() - start - sum(calibration)
        self.setup_s = spec.at_reference_speed(wall, calibration)
        self.import_s = hello["import_s"]
        origin = Path(hello["probust"]).resolve()
        if not origin.is_relative_to((root / "src").resolve()):
            self.close(kill=True)
            raise SystemExit(f"runner imported probust from {origin}, not this checkout")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the CLI runner exited")
        return json.loads(line)

    def _ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def run(self, argv) -> W.Result:
        answer = self._ask({"argv": list(argv)})
        wall = answer["wall_s"]
        return W.Result(answer["code"], wall, answer["stdout"], answer["stderr"],
                        spec.at_reference_speed(wall, answer["calibration_walls"]))

    def peak_rss_mib(self) -> float:
        return self._ask({"peak_rss": True})["peak_rss_kib"] / 1024.0

    def close(self, kill: bool = False) -> None:
        if kill and self.proc.poll() is None:
            self.proc.kill()
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class Tally:
    """Operations attempted and failed; ``wrong`` counts exit-0 outputs that failed a check."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0

    def record(self, checker: W.Checker, step: W.Step, result: W.Result) -> None:
        self.attempted += 1
        try:
            checker.check(step, result)
        except CHECK_ERRORS as exc:
            self.failed += 1
            if result.code == 0:
                self.wrong += 1
            print(f"FAILED {' '.join(step.argv)}: {type(exc).__name__}: {exc}", file=sys.stderr)


def typical(rounds: list[list[tuple[W.Step, W.Result]]]) -> list[tuple[W.Step, float]]:
    """Each step of the round with its median wall at the reference speed over the rounds."""
    return [(steps[0][0], statistics.median(res.ref_wall_s for _, res in steps))
            for steps in zip(*rounds)]


def step_figure(kind: str, typical_steps: list[tuple[W.Step, float]]) -> float:
    """One step kind's figure: summed seconds for exact checks, else work/s."""
    wall = sum(w for step, w in typical_steps if step.kind == kind)
    if STEP_FIGURES[kind][1] == "s":
        return wall
    return sum(step.work for step, _ in typical_steps if step.kind == kind) / wall


def measure(workload: str, seed: int, seconds: float, root: Path) -> dict:
    """Whole rounds until ``seconds`` have passed, each round in a fresh runner.

    A fresh interpreter per round makes every round pay its own set-up and
    the lazy first-call costs (pool start-up, first fork) that each real CLI
    run pays. Checking happens after the round, with the runner gone.

    Every wall is scaled to the reference speed by the calibration loops run
    around it (``spec.at_reference_speed``); ``round_s`` sums each step's
    median scaled wall over the rounds.
    """
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    checker = W.Checker(C.Schemas(root / "src" / "probust" / "schemas"))
    tally = Tally()
    rounds: list[list[tuple[W.Step, W.Result]]] = []
    setup_walls, peak_rss, check_walls = [], [], []
    start = time.perf_counter()
    while True:
        runner = Runner(root, workload)
        try:
            setup_walls.append(runner.setup_s)
            steps = W.build_round(workload, W.round_seed(seed, len(rounds)), out_dir)
            results = [(step, runner.run(step.argv)) for step in steps]
            peak_rss.append(runner.peak_rss_mib())
        finally:
            runner.close()
        checker.new_round(len(rounds))
        check_start = time.perf_counter()
        for step, result in results:
            tally.record(checker, step, result)
        check_walls.append(time.perf_counter() - check_start)
        rounds.append(results)
        if time.perf_counter() - start >= seconds:
            break

    typical_steps = typical(rounds)
    print(f"{workload}: seed {seed}, {len(rounds)} rounds, {tally.attempted} operations, "
          f"{tally.failed} failed")
    for label, values in (("round walls", [sum(r.wall_s for _, r in rnd) for rnd in rounds]),
                          ("scaled round walls",
                           [sum(r.ref_wall_s for _, r in rnd) for rnd in rounds]),
                          ("scaled setup walls", setup_walls), ("check walls", check_walls),
                          ("peak MiB", peak_rss)):
        print(f"  {label}: " + " ".join(f"{v:.3f}" for v in values))
    for kind in dict.fromkeys(step.kind for step, _ in typical_steps):
        name, unit = STEP_FIGURES[kind]
        print(f"  {name} = {step_figure(kind, typical_steps):.6g} {unit}")
    metrics = {
        "setup_s": (statistics.median(setup_walls), "s"),
        # lower median: one round in fifteen or so peaks ~20% higher at the same inputs
        "peak_rss_mib": (statistics.median_low(peak_rss), "MiB"),
        "round_s": (sum(w for _, w in typical_steps), "s"),
    }
    return result_line(tally, metrics)


def result_line(tally: Tally, metrics: dict) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = checkout_root()
    if args.trace:
        import tracing

        line = tracing.traced_run(args.workload, args.seed, root)
    else:
        line = measure(args.workload, args.seed, args.seconds, root)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
