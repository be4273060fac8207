"""A fresh interpreter that sets up a workload and then runs CLI invocations.

Started as ``runner.py <workload>``. It imports probust and builds the
models, coupling parameters and parsed properties the workload uses (its
set-up), then announces itself with one JSON line, which carries the walls
of the calibration loops it ran before the import and after the build.
Lazy caches that every CLI run fills (edge pairs, adjacency masks) are left empty, so their cost
stays in the timed operations.

It then reads one JSON request per line on stdin and answers one JSON line
on stdout. ``{"argv": [...]}`` runs ``probust.cli.main(argv)`` with its
output captured and timed, between two runs of the calibration loop
(``spec.calibrate``, on as many cores as the invocation uses) whose walls
it reports beside the invocation's;
``{"peak_rss": true}`` answers with the peak
resident memory of this process and of the workers it forked. Checking
happens in the parent, so neither the checks' time nor their memory is
counted here.
"""

import time

import spec

calibration_walls = [spec.calibrate()]
start = time.perf_counter()
import probust  # noqa: E402
from probust import cli  # noqa: E402

import_s = time.perf_counter() - start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def build(workload: str) -> list:
    if workload == "sample-n10":
        n = spec.SAMPLE_N
        model = probust.adjacency_count_model(n)
        return [
            model,
            probust.er_model(n, float(spec.SAMPLE_BASE)),
            probust.conditioned_adjacency_model(n),
            probust.CouplingParams(float(spec.SAMPLE_BASE), model),
            probust.parse_property(spec.COUPLED_PROPERTY),
            probust.parse_property(spec.INDEPENDENT_PROPERTY),
        ]
    if workload == "exact-report":
        objs = [
            probust.EdgeSpace(spec.REPORT_N),
            probust.FORMULAS["diameter"],
            probust.degree_count_formula(spec.DEGREE_K),
        ]
        for model, n, p, _ in spec.JOINT_SPECS:
            objs.append(probust.er_model(n, float(p)) if model == "er"
                        else probust.adjacency_count_model(n))
        coupled = probust.adjacency_count_model(spec.COUPLING_N)
        objs += [probust.CouplingParams(float(b), coupled) for b in spec.COUPLING_BASES]
        objs.append(probust.adjacency_count_model(spec.DOMINATION_N))
        objs += [probust.parse_property(p) for p in spec.DOMINATION_PROPERTIES]
        return objs
    raise SystemExit(f"unknown workload {workload!r}")


def workers(argv) -> int:
    """Processes an invocation computes in: its ``--threads``, else 1."""
    return int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1


def calibrate_on(count: int) -> float:
    """Mean wall of the calibration loop run in ``count`` processes at once.

    An invocation that forks workers runs on as many cores, so its wall is
    scaled by the loop's speed on as many cores: forked copies of this
    process, each timing its own loop after one untimed run (which takes the
    copy-on-write faults a fresh fork pays).
    """
    if count <= 1:
        return spec.calibrate()
    children = []
    for _ in range(count):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            spec.calibrate()
            os.write(write_fd, repr(spec.calibrate()).encode())
            os._exit(0)
        os.close(write_fd)
        children.append((pid, read_fd))
    walls = []
    for pid, read_fd in children:
        with os.fdopen(read_fd) as pipe:
            walls.append(float(pipe.read()))
        os.waitpid(pid, 0)
    return sum(walls) / len(walls)


def _answer(obj) -> None:
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def main(workload: str) -> None:
    build(workload)
    calibration_walls.append(spec.calibrate())
    _answer({"probust": probust.__file__, "import_s": import_s,
             "calibration_walls": calibration_walls})
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("peak_rss"):
            kib = max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            )
            _answer({"peak_rss_kib": kib})
            continue
        out, err = io.StringIO(), io.StringIO()
        cores = workers(request["argv"])
        before = calibrate_on(cores)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(request["argv"])
            except Exception:  # an unhandled error is a failed operation, not a dead runner
                traceback.print_exc()
                code = 1
        wall = time.perf_counter() - start
        calibration = [before, calibrate_on(cores)]
        _answer({"code": code, "wall_s": wall, "calibration_walls": calibration,
                 "stdout": out.getvalue(), "stderr": err.getvalue()})


if __name__ == "__main__":
    main(sys.argv[1])
