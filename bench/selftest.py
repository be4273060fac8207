"""Tests of the benchmark's own checks: each passes on real CLI output and
fails on a corrupted copy of it.

    python3 -m pytest bench/selftest.py -q

Run from the root of a checkout. Sizes are small, so the tests take seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks as C  # noqa: E402
import workloads as W  # noqa: E402
from probust import cli  # noqa: E402

SEED = 20201


def run_cli(step: W.Step) -> W.Result:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(step.argv))
    return W.Result(code, 0.0, out.getvalue(), err.getvalue())


@pytest.fixture
def checker():
    return W.Checker(C.Schemas(ROOT / "src" / "probust" / "schemas"))


def edit_json_line(text: str, index: int, edit) -> str:
    lines = text.splitlines()
    obj = json.loads(lines[index])
    edit(obj)
    lines[index] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return "\n".join(lines) + "\n"


def assert_fails(checker, step, result, stdout):
    with pytest.raises(C.CheckFailure):
        checker.check(step, W.Result(result.code, 0.0, stdout, result.stderr))


def flip_hex_bit(text: str, bit: int) -> str:
    value = int(text, 16) ^ (1 << bit)
    return format(value, f"0{len(text)}x")


# ---------------------------------------------------------------------------
# sample-n10


@pytest.fixture
def coupled_pair(checker):
    couple = W.couple_step(10, "0.3", 200, SEED)
    verify = W.verify_coupled_step(10, "0.3", "match>=4", 200, 1, SEED)
    return couple, run_cli(couple), verify, run_cli(verify)


def test_couple_passes_and_catches_a_flipped_union_bit(checker, coupled_pair):
    couple, result, _, _ = coupled_pair
    checker.check(couple, result)
    corrupt = edit_json_line(result.stdout, 17, lambda r: r.update(u=flip_hex_bit(r["u"], 5)))
    assert_fails(checker, couple, result, corrupt)


def test_couple_catches_a_record_off_schema(checker, coupled_pair):
    couple, result, _, _ = coupled_pair
    corrupt = edit_json_line(result.stdout, 0, lambda r: r.update(extra=1))
    assert_fails(checker, couple, result, corrupt)


@pytest.mark.parametrize("field", ["count_g1", "count_union"])
def test_verify_coupled_catches_a_count_off_by_one(checker, coupled_pair, field):
    couple, couple_result, verify, result = coupled_pair
    checker.check(couple, couple_result)
    checker.check(verify, result)
    freq = "freq_g1" if field == "count_g1" else "freq_union"

    def edit(obj):
        obj[field] -= 1
        obj[freq] = obj[field] / obj["samples"]

    assert_fails(checker, verify, result, edit_json_line(result.stdout, 0, edit))


def test_verify_independent_catches_a_success_off_by_one(checker):
    step = W.verify_independent_step(10, "0.3", "connected", 300, SEED)
    result = run_cli(step)
    checker.check(step, result)

    def edit(obj):
        obj["est_er"]["successes"] += 1
        obj["est_er"]["estimate"] = obj["est_er"]["successes"] / obj["samples"]

    assert_fails(checker, step, result, edit_json_line(result.stdout, 0, edit))


def test_generate_catches_a_graph_outside_the_conditioning_event(checker):
    step = W.generate_step(10, 50, SEED)
    result = run_cli(step)
    checker.check(step, result)
    corrupt = edit_json_line(result.stdout, 3, lambda r: r.update(g="0" * len(r["g"])))
    assert_fails(checker, step, result, corrupt)


def test_nonzero_exit_fails(checker):
    step = W.couple_step(10, "0.3", 5, SEED)
    result = run_cli(step)
    with pytest.raises(C.CheckFailure):
        checker.check(step, W.Result(2, 0.0, result.stdout, "error"))


# ---------------------------------------------------------------------------
# exact-report: report (smaller n: the checks take n from the step)


def test_report_degree_catches_a_mean_off_by_one_vertex(checker):
    step = W.report_degree_step(300, 3, "3", 2, SEED)
    result = run_cli(step)
    checker.check(step, result)

    def edit(obj):
        obj["rows"][0]["observed_mean"] += 0.5  # one graph, one vertex, out of two

    assert_fails(checker, step, result, edit_json_line(result.stdout, 0, edit))


def test_report_diameter_catches_a_graph_off_by_one(checker):
    step = W.report_diameter_step(300, "8", 2, SEED)
    result = run_cli(step)
    checker.check(step, result)

    def edit(obj):
        obj["rows"][0]["observed_mean"] += 0.5

    assert_fails(checker, step, result, edit_json_line(result.stdout, 0, edit))


# ---------------------------------------------------------------------------
# exact-report: exact


@pytest.mark.parametrize("model,n,p", [("adjcount", 5, None), ("er", 4, "0.3")])
def test_exact_joint_catches_an_entry_perturbed_by_1e9(checker, tmp_path, model, n, p):
    step = W.exact_joint_step(model, n, p, tmp_path)
    checker.check(step, run_cli(step))  # the check removes the exported table
    result = run_cli(step)
    path = Path(step.params["path"])
    lines = path.read_text().splitlines()
    key, value = lines[9].split(",")
    lines[9] = f"{key},{float(value) + 1e-9!r}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(C.CheckFailure):
        checker.check(step, result)


def test_exact_coupling_catches_a_nonzero_distance(checker):
    step = W.exact_coupling_step(4, "0.2")
    result = run_cli(step)
    checker.check(step, result)
    corrupt = edit_json_line(result.stdout, 0, lambda r: r.update(tv_g1_vs_er=1e-9))
    assert_fails(checker, step, result, corrupt)


@pytest.mark.parametrize("prop", ["clique>=3", "chrom>=3", "match>=2", "diam<=2",
                                  "domset<=2", "ham", "connected"])
def test_exact_domination_catches_swapped_probabilities(checker, prop):
    step = W.exact_domination_step(5, "0.3", prop, SEED)
    result = run_cli(step)
    checker.check(step, result)

    def swap(obj):
        obj["prob_er"], obj["prob_model"] = obj["prob_model"], obj["prob_er"]

    assert_fails(checker, step, result, edit_json_line(result.stdout, 0, swap))


# ---------------------------------------------------------------------------
# references


def test_closed_forms_match_the_quoted_values():
    assert abs(C.gilbert_connected(10, "0.3") - 0.648966) < 5e-7
    assert abs(C.gilbert_connected(6, "0.3") - 0.3169006) < 5e-8
    assert abs(C.riordan_wormald_diameter(1000, 10.0) - 4.795) < 5e-4


def test_small_property_tables_agree_with_networkx():
    import itertools

    import networkx as nx

    n = 5
    tables = {prop: W.small_property_table(prop, n)
              for prop in ("connected", "clique>=3", "ham", "diam<=2", "chrom>=3")}
    u, v = C.edge_pairs(n)
    for bits in range(0, 1 << 10, 7):
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from((int(u[e]), int(v[e])) for e in range(10) if bits >> e & 1)
        connected = nx.is_connected(graph)
        assert tables["connected"][bits] == connected
        assert tables["clique>=3"][bits] == (max(map(len, nx.find_cliques(graph))) >= 3)
        assert tables["chrom>=3"][bits] == (not nx.is_bipartite(graph))
        assert tables["diam<=2"][bits] == (connected and nx.diameter(graph) <= 2)
        ham = any(all(graph.has_edge(a, b) for a, b in zip(c, c[1:] + c[:1]))
                  for c in ((0,) + p for p in itertools.permutations(range(1, n))))
        assert tables["ham"][bits] == ham
