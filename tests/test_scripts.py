"""Smoke runs of the scripts: each exits 0 on a small input."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import probust

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(probust.__file__).resolve().parent.parent)


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/coupling_experiment.py", "--n", "3", "--samples", "50"],
        ["scripts/asymptotics_experiment.py", "--samples", "1"],
        ["scripts/code_lines.py", "src/probust"],
        ["scripts/throughput.py", "--repeats", "1", "--scale", "0.01"],
    ],
    ids=["coupling_experiment", "asymptotics_experiment", "code_lines", "throughput"],
)
def test_script_runs(argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
    if argv[0] == "scripts/throughput.py":
        report = json.loads(result.stdout)
        assert report["calibration_ref_s"] > 0
        rates, calibration = report["samples_per_s"], report["calibration_s"]
        assert calibration.keys() == rates.keys()
        for name, by_n in calibration.items():
            assert by_n.keys() == rates[name].keys() == report["samples"].keys(), name
            for n, walls in by_n.items():
                assert len(walls) == 2 and all(w > 0 for w in walls), (name, n)
                assert rates[name][n] > 0, (name, n)
        assert report["export_rows"] == 1 << 15
        exports = report["export_rows_per_s"]
        assert exports.keys() == report["export_calibration_s"].keys() == {
            "adjcount n=6", "er n=6 p=0.3"
        }
        for name, rate in exports.items():
            assert rate > 0 and len(report["export_calibration_s"][name]) == 2, name
    if argv[0] == "scripts/code_lines.py":
        *files, total = result.stdout.splitlines()
        counts = [int(line.split()[0]) for line in files]
        assert len(counts) == len(list((ROOT / "src/probust").glob("*.py")))
        assert int(total) == sum(counts) > 0
