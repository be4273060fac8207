import contextlib
import io
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probust import (
    FORMULAS,
    CouplingParams,
    ModelDescriptor,
    SamplingFailureError,
    adjacency_count_model,
    cli,
    conditioned_adjacency_model,
    derive_rng,
    er_model,
    generate_coupled,
    is_connected,
    models,
    sample_direct,
)
from probust.cli import _MODEL_ALIASES

SCHEMA_DIR = Path(cli.__file__).parent / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def run(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    code = cli.main([*argv, "--output", str(out)])
    return code, out.read_text() if out.exists() else ""


class TestGenerate:
    def test_complete_graphs_at_p_one(self, tmp_path):
        code, text = run(
            tmp_path, "generate", "--model", "er", "--n", "3", "--p", "1",
            "--samples", "2", "--seed", "5",
        )
        assert code == 0
        records = [json.loads(line) for line in text.splitlines()]
        assert [r["g"] for r in records] == ["7", "7"]
        schema = load_schema("generate-record.schema.json")
        for r in records:
            jsonschema.validate(r, schema)

    def test_determinism_byte_identical(self, tmp_path):
        args = ("generate", "--model", "adjcount", "--n", "4", "--samples", "5", "--seed", "7")
        _, first = run(tmp_path, *args, name="a.json")
        _, second = run(tmp_path, *args, name="b.json")
        assert first == second and first

    def test_invalid_probability_exits_2(self, tmp_path, capsys):
        code = cli.main(["generate", "--model", "er", "--n", "3", "--p", "1.5", "--seed", "1"])
        assert code == 2
        assert "probability" in capsys.readouterr().err

    def test_unknown_model_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "generate", "--model", "nosuch", "--n", "3", "--seed", "1")
        assert code == 2

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PROBUST_SEED", "99")
        code, text = run(tmp_path, "generate", "--model", "er", "--n", "3", "--p", "0.5")
        assert code == 0
        assert json.loads(text.splitlines()[0])["seed"] == 99

    def test_conditioned_model_generates_event_members(self, tmp_path):
        code, text = run(
            tmp_path, "generate", "--model", "adjcount-cond", "--n", "4",
            "--samples", "3", "--seed", "2",
        )
        assert code == 0
        from probust import EdgeSpace, Realization
        from probust.models import satisfies_min_adjacent

        space = EdgeSpace(4)
        for line in text.splitlines():
            g = Realization.from_hex(json.loads(line)["g"], space)
            assert satisfies_min_adjacent(g, 3)

    def test_conditioned_model_empty_event_exits_2(self, tmp_path):
        code, _ = run(
            tmp_path, "generate", "--model", "adjcount-cond", "--n", "3",
            "--samples", "1", "--seed", "2",
        )
        assert code == 2


class TestCouple:
    def test_er_at_base_has_empty_patch(self, tmp_path):
        code, text = run(
            tmp_path, "couple", "--model", "er", "--n", "4", "--p", "0.5",
            "--base", "0.5", "--samples", "10", "--seed", "3",
        )
        assert code == 0
        schema = load_schema("couple-record.schema.json")
        for line in text.splitlines():
            record = json.loads(line)
            jsonschema.validate(record, schema)
            assert record["g2"] == "00"
            assert record["u"] == record["g1"]

    def test_adjacency_triples_valid(self, tmp_path):
        code, text = run(
            tmp_path, "couple", "--model", "adjcount", "--n", "4",
            "--base", "0.3", "--samples", "10", "--seed", "3",
        )
        assert code == 0
        lines = text.splitlines()
        assert len(lines) == 10
        for line in lines:
            r = json.loads(line)
            assert int(r["u"], 16) == int(r["g1"], 16) | int(r["g2"], 16)

    def test_base_above_floor_exits_3(self, tmp_path):
        code, _ = run(
            tmp_path, "couple", "--model", "adjcount", "--n", "4",
            "--base", "0.4", "--samples", "1", "--seed", "3",
        )
        assert code == 3


class TestExact:
    def test_coupling_check_passes(self, tmp_path):
        code, text = run(
            tmp_path, "exact", "--model", "adjcount", "--n", "4",
            "--base", "0.3", "--check", "coupling",
        )
        assert code == 0
        report = json.loads(text)
        jsonschema.validate(report, load_schema("exact-report.schema.json"))
        assert report["tv_union_vs_model"] <= 1e-12
        assert report["tv_g1_vs_er"] <= 1e-12

    def test_joint_check_sums_to_one(self, tmp_path):
        code, text = run(
            tmp_path, "exact", "--model", "er", "--n", "6", "--p", "0.5",
            "--check", "joint",
        )
        assert code == 0
        report = json.loads(text)
        assert report["ok"] and report["sum_error"] <= 1e-12 and report["m"] == 15

    def test_joint_check_at_n7_cap(self, tmp_path):
        code, text = run(
            tmp_path, "exact", "--model", "er", "--n", "7", "--p", "0.5",
            "--check", "joint",
        )
        assert code == 0
        report = json.loads(text)
        assert report["ok"] and report["m"] == 21

    def test_joint_over_cap_exits_4(self, tmp_path):
        code, _ = run(
            tmp_path, "exact", "--model", "er", "--n", "8", "--p", "0.5",
            "--check", "joint",
        )
        assert code == 4

    def test_joint_export_csv(self, tmp_path):
        csv_path = tmp_path / "dist.csv"
        code, _ = run(
            tmp_path, "exact", "--model", "adjcount", "--n", "3",
            "--check", "joint", "--export-dist", str(csv_path),
        )
        assert code == 0
        assert csv_path.read_text().startswith("realization,probability")

    def test_coupling_over_cap_exits_4(self, tmp_path):
        code, _ = run(
            tmp_path, "exact", "--model", "adjcount", "--n", "6",
            "--base", "0.3", "--check", "coupling",
        )
        assert code == 4

    def test_domination_check(self, tmp_path):
        code, text = run(
            tmp_path, "exact", "--model", "adjcount", "--n", "4", "--base", "0.3",
            "--check", "domination", "--property", "clique>=3", "--seed", "4",
        )
        assert code == 0
        report = json.loads(text)
        jsonschema.validate(report, load_schema("exact-report.schema.json"))
        assert report["holds"] and report["prob_model"] >= report["prob_er"]


class TestVerify:
    def test_coupled_mode_consistent(self, tmp_path):
        code, text = run(
            tmp_path, "verify", "--model", "adjcount", "--n", "8", "--base", "0.3",
            "--property", "connected", "--samples", "1500", "--seed", "6",
        )
        assert code == 0
        report = json.loads(text)
        jsonschema.validate(report, load_schema("verify-report.schema.json"))
        assert report["verdict"] == "consistent" and report["violations"] == 0
        assert report["count_union"] >= report["count_g1"]

    def test_independent_mode(self, tmp_path):
        code, text = run(
            tmp_path, "verify", "--model", "adjcount", "--n", "6", "--base", "0.3",
            "--property", "clique>=3", "--samples", "800", "--seed", "6",
            "--mode", "independent",
        )
        assert code == 0
        report = json.loads(text)
        jsonschema.validate(report, load_schema("verify-report.schema.json"))
        assert report["est_model"]["estimate"] >= 0.0

    def test_non_monotone_property_exits_6(self, tmp_path):
        code, _ = run(
            tmp_path, "verify", "--model", "adjcount", "--n", "6", "--base", "0.3",
            "--property", "exactly-3-edges", "--samples", "100", "--seed", "6",
        )
        assert code == 6

    def test_unparseable_property_exits_2(self, tmp_path):
        code, _ = run(
            tmp_path, "verify", "--model", "adjcount", "--n", "6", "--base", "0.3",
            "--property", "frobnicated", "--samples", "100", "--seed", "6",
        )
        assert code == 2

    def test_threads_do_not_change_bytes(self, tmp_path):
        base_args = (
            "verify", "--model", "adjcount", "--n", "7", "--base", "0.3",
            "--property", "connected", "--samples", "2000", "--seed", "8",
        )
        _, one = run(tmp_path, *base_args, "--threads", "1", name="t1.json")
        _, four = run(tmp_path, *base_args, "--threads", "4", name="t4.json")
        assert one == four

    def test_determinism_byte_identical(self, tmp_path):
        args = (
            "verify", "--model", "adjcount", "--n", "6", "--base", "0.3",
            "--property", "connected", "--samples", "500", "--seed", "9",
        )
        _, a = run(tmp_path, *args, name="a.json")
        _, b = run(tmp_path, *args, name="b.json")
        assert a == b

    def test_desk_scale_clique_regime(self, tmp_path):
        # the adjacency model at n=30 against its floor, a clique threshold
        code, text = run(
            tmp_path, "verify", "--model", "adjcount", "--n", "30", "--base", "0.3",
            "--property", "clique>=4", "--samples", "10000", "--seed", "16",
            "--threads", "2",
        )
        assert code == 0
        report = json.loads(text)
        assert report["verdict"] == "consistent"
        assert report["count_union"] >= report["count_g1"]


class TestReport:
    def test_clique_predictions(self, tmp_path):
        code, text = run(
            tmp_path, "report", "--formula", "clique", "--n", "64,128,256",
            "--p", "0.5", "--samples", "2", "--seed", "10",
        )
        assert code == 0
        table = json.loads(text)
        jsonschema.validate(table, load_schema("report-table.schema.json"))
        assert [round(r["predicted"]) for r in table["rows"]] == [12, 14, 16]

    def test_unknown_formula_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "report", "--formula", "nosuch", "--n", "8", "--p", "0.5")
        assert code == 2

    def test_degree_count_needs_k(self, tmp_path):
        code, _ = run(
            tmp_path, "report", "--formula", "degree-count", "--n", "50", "--d", "3",
            "--samples", "2", "--seed", "1",
        )
        assert code == 2

    def test_preset_rows(self, tmp_path):
        code, text = run(
            tmp_path, "report", "--preset", "adjacency-bounds", "--n", "16",
            "--samples", "3", "--seed", "11",
        )
        assert code == 0
        table = json.loads(text)
        jsonschema.validate(table, load_schema("report-table.schema.json"))
        quantities = [r["quantity"] for r in table["rows"]]
        assert quantities == ["clique", "chromatic", "dominating-set", "diameter"]
        labels = {r["quantity"]: r["statistic"] for r in table["rows"]}
        assert labels["clique"] == "exact" and labels["diameter"] == "exact"
        assert labels["chromatic"] == "greedy-upper-bound"
        assert labels["dominating-set"] == "greedy-upper-bound"

    def test_preset_predictions_at_n64(self, tmp_path):
        code, text = run(
            tmp_path, "report", "--preset", "adjacency-bounds", "--n", "64",
            "--samples", "3", "--seed", "11",
        )
        assert code == 0
        rows = {r["quantity"]: r for r in json.loads(text)["rows"]}
        # clique lower bound 2 log_{10/3} 64 and its at-least direction
        assert rows["clique"]["predicted"] == pytest.approx(6.909, abs=0.001)
        assert rows["clique"]["direction"] == "at-least"
        assert rows["dominating-set"]["direction"] == "at-most"
        b = 10.0 / 7.0
        import math

        assert rows["dominating-set"]["predicted"] == pytest.approx(
            math.log(64) / math.log(b), abs=1e-9
        )
        assert rows["chromatic"]["predicted"] == pytest.approx(
            64 * math.log(b) / math.log(64), abs=1e-9
        )

    def test_csv_format(self, tmp_path):
        code, text = run(
            tmp_path, "report", "--formula", "dominating-set", "--n", "12", "--p", "0.5",
            "--samples", "3", "--seed", "12", "--format", "csv", name="out.csv",
        )
        assert code == 0
        lines = text.splitlines()
        assert lines[0].startswith("n,p,predicted,observed_mean")
        assert len(lines) == 2

    def test_text_format(self, tmp_path):
        code, text = run(
            tmp_path, "report", "--formula", "diameter", "--n", "20", "--p", "0.4",
            "--samples", "3", "--seed", "13", "--format", "text", name="out.txt",
        )
        assert code == 0
        assert "predicted" in text.splitlines()[0]

    def test_determinism_byte_identical(self, tmp_path):
        args = (
            "report", "--formula", "clique", "--n", "16,24", "--p", "0.5",
            "--samples", "5", "--seed", "14",
        )
        _, a = run(tmp_path, *args, name="a.json")
        _, b = run(tmp_path, *args, name="b.json")
        assert a == b


class TestUsage:
    def test_missing_subcommand_exits_2(self):
        assert cli.main([]) == 2

    def test_clique_cli_cap(self, tmp_path):
        code, _ = run(
            tmp_path, "verify", "--model", "er", "--n", "600", "--p", "0.5",
            "--base", "0.5", "--property", "clique>=3", "--samples", "10", "--seed", "1",
        )
        assert code == 4

    @pytest.mark.parametrize(
        "argv,env_seed,code,message",
        [
            ("generate --model er --n 3 --p 0.5 --samples 1 --seed -1", None, 2, "master seed"),
            ("generate --model er --n 3 --p 0.5 --samples 1", str(2**64), 2, "master seed"),
            ("report --formula clique --n 8 --p 1 --samples 2 --seed 1", None, 2, "undefined"),
            ("report --formula dominating-set --n 8 --p 0 --samples 2 --seed 1", None, 2,
             "undefined"),
            ("report --formula diameter --n 1 --d 2 --samples 2 --seed 1", None, 2, "n >= 2"),
            ("generate --model er --n 4 --p 0.5 --samples -2 --seed 1", None, 2,
             "count must be >= 0"),
            ("report --formula clique --n 16,600 --p 0.5 --samples 1 --seed 1", None, 4,
             "capped at n=512"),
            ("report --preset adjacency-bounds --n 8 --samples 0 --seed 1", None, 2,
             "samples must be >= 1"),
            ("report --formula clique --n , --p 0.5 --format csv --seed 1", None, 2,
             "at least one vertex count"),
        ],
    )
    def test_bad_input_exit_codes(self, argv, env_seed, code, message, monkeypatch, capsys):
        if env_seed is not None:
            monkeypatch.setenv("PROBUST_SEED", env_seed)
        assert cli.main(argv.split()) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and "Traceback" not in captured.err


def scalar_records(model, seed, count):
    """The generate records built one scalar sample at a time."""
    return "".join(
        json.dumps(
            {"index": idx, "n": model.space.n, "seed": seed,
             "g": model.sample(derive_rng(seed, idx)).to_hex()},
            sort_keys=True, separators=(",", ":"),
        ) + "\n"
        for idx in range(count)
    )


class TestBlockSampledOutput:
    """CLI bytes from the block samplers equal the scalar reference path."""

    @pytest.mark.parametrize("count", [0, 1, 257])
    @pytest.mark.parametrize("model", ["adjcount", "globalcount", "adjcount-cond"])
    def test_generate_equals_scalar_records(self, tmp_path, model, count):
        code, text = run(
            tmp_path, "generate", "--model", model, "--n", "6", "--samples", str(count),
            "--seed", "51",
        )
        assert code == 0
        assert text == scalar_records(ModelDescriptor(_MODEL_ALIASES[model], 6).build(), 51, count)

    def test_couple_equals_scalar_triples(self, tmp_path):
        code, text = run(
            tmp_path, "couple", "--model", "adjcount", "--n", "10", "--base", "0.3",
            "--samples", "300", "--seed", "52",
        )
        assert code == 0
        params = CouplingParams(0.3, adjacency_count_model(10))
        for idx, line in enumerate(text.splitlines()):
            t = generate_coupled(params, derive_rng(52, idx))
            record = json.loads(line)
            assert (record["g1"], record["g2"], record["u"]) == (
                t.g1.to_hex(), t.g2.to_hex(), t.u.to_hex()
            )
        assert idx == 299

    @pytest.mark.parametrize("n", [7, 30])  # m = 21 takes the block path, m = 435 the scalar one
    def test_verify_coupled_counts_and_threads(self, tmp_path, n):
        samples = 600 if n == 7 else 40
        outputs = []
        for threads in ("1", "2", "3"):
            code, text = run(
                tmp_path, "verify", "--model", "adjcount", "--n", str(n), "--base", "0.3",
                "--property", "connected", "--samples", str(samples), "--seed", "53",
                "--threads", threads, name=f"t{threads}.json",
            )
            assert code == 0
            outputs.append(text)
        assert outputs[0] == outputs[1] == outputs[2]
        params = CouplingParams(0.3, adjacency_count_model(n))
        triples = [generate_coupled(params, derive_rng(53, i)) for i in range(samples)]
        report = json.loads(outputs[0])
        assert report["count_g1"] == sum(is_connected(t.g1) for t in triples)
        assert report["count_union"] == sum(is_connected(t.u) for t in triples)

    def test_verify_independent_threads(self, tmp_path, monkeypatch):
        from probust import montecarlo

        seen = []
        map_blocks = montecarlo._map_blocks

        def spy(work, count, workers=1):
            seen.append(workers)
            return map_blocks(work, count, workers)

        monkeypatch.setattr(montecarlo, "_map_blocks", spy)
        outputs = []
        for threads in ("1", "2", "3"):
            code, text = run(
                tmp_path, "verify", "--model", "adjcount", "--n", "7", "--base", "0.3",
                "--property", "connected", "--samples", "700", "--seed", "57",
                "--mode", "independent", "--threads", threads, name=f"i{threads}.json",
            )
            assert code == 0
            outputs.append(text)
        assert outputs[0] == outputs[1] == outputs[2]
        assert seen == [1, 1, 2, 2, 3, 3]  # the er and the model estimate of each run

    def test_verify_independent_counts(self, tmp_path):
        code, text = run(
            tmp_path, "verify", "--model", "adjcount", "--n", "8", "--base", "0.3",
            "--property", "connected", "--samples", "300", "--seed", "54",
            "--mode", "independent",
        )
        assert code == 0
        report = json.loads(text)
        for key, model, branch in (
            ("est_er", er_model(8, 0.3), 0),
            ("est_model", adjacency_count_model(8), 1),
        ):
            hits = sum(
                is_connected(sample_direct(model, derive_rng(54, branch, i))) for i in range(300)
            )
            assert report[key]["successes"] == hits

    def test_conditioned_tiny_budget_exits_2_with_scalar_message(self, monkeypatch, capsys):
        monkeypatch.setattr(models, "DEFAULT_REJECTION_BUDGET", 2)
        argv = "generate --model adjcount-cond --n 5 --samples 300 --seed 55".split()
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        model = conditioned_adjacency_model(5, budget=2)
        with pytest.raises(SamplingFailureError) as err:
            for idx in range(300):
                model.sample(derive_rng(55, idx))
        assert captured.err == f"error: {err.value}\n"

    @pytest.mark.parametrize("argv", [
        "couple --model adjcount-cond --n 6 --base 0.3 --samples 5 --seed 56",
        "verify --model adjcount-cond --n 6 --base 0.3 --samples 5 --seed 56 "
        "--property connected --mode independent",
        "exact --model adjcount-cond --n 4 --check joint",
        "exact --model adjcount-cond --n 4 --check domination --base 0.3 --property connected "
        "--seed 56",
        "exact --model adjcount-cond --n 4 --check coupling --base 0.3",
    ], ids=["couple", "verify", "exact-joint", "exact-domination", "exact-coupling"])
    def test_conditioned_model_cannot_be_coupled(self, argv, capsys):
        assert cli.main(argv.split()) == 2
        assert "no sequential conditionals" in capsys.readouterr().err


_FUZZ_PROPERTIES = ["connected", "match>=2", "clique>=3", "diam<=2", "domset<=2", "ham", "chrom>=3"]


@st.composite
def _fuzz_argv(draw):
    """One CLI call; most are valid, the rest break one argument."""
    broken = draw(st.sampled_from(
        [None] * 6 + ["model", "n", "p", "base", "samples", "seed", "property", "trials"]
    ))

    def pick(name, valid, invalid):
        return draw(st.sampled_from(invalid)) if name == broken else draw(valid)

    command = draw(st.sampled_from(["generate", "couple", "verify", "exact", "report"]))
    probability = st.sampled_from(["0", "0.2", "0.3", "0.5", "1"])
    bad_probability = ["-0.1", "1.5", "nan", "0.6"]
    seed = ["--seed", str(pick("seed", st.integers(0, 2**64 - 1), [-1, 2**64]))]
    if command == "report":
        kind = draw(st.sampled_from(sorted(FORMULAS) + ["degree-count", "preset"]))
        if kind == "preset":
            argv = [command, "--preset", "adjacency-bounds"]
        else:
            argv = [command, "--formula", pick("model", st.just(kind), ["nosuch"])]
        if kind == "degree-count":
            argv += ["--k", str(draw(st.integers(0, 6)))]
        argv += ["--n", pick("n", st.integers(2, 64).map(str), ["-1", "0", "1", "4,x", ","])]
        if draw(st.booleans()):
            argv += ["--p", pick("p", probability, bad_probability)]
        else:
            argv += ["--d", pick("p", st.sampled_from(["0", "1", "3", "10"]), ["-1", "nan", "100"])]
        return argv + ["--samples", str(pick("samples", st.integers(1, 5), [-1, 0])),
                       "--format", draw(st.sampled_from(["json", "csv", "text"]))] + seed
    model = pick("model", st.sampled_from(["er", "globalcount", "adjcount", "adjcount-cond"]),
                 ["nosuch"])
    if command == "exact":
        check = draw(st.sampled_from(["joint", "coupling", "domination"]))
        n = pick("n", st.integers(2, 5), [-1, 0, 1, 8])
        argv = [command, "--model", model, "--n", str(n), "--check", check]
    else:
        argv = [command, "--model", model, "--n", str(pick("n", st.integers(2, 8), [-1, 0, 1]))]
    if model == "er" or broken == "p":
        argv += ["--p", pick("p", probability, bad_probability)]
    if command in ("couple", "verify") or (command == "exact" and check != "joint"):
        argv += ["--base", pick("base", probability, bad_probability)]
    if command != "exact":
        argv += ["--samples", str(pick("samples", st.integers(0, 50), [-2, -1]))]
    argv += seed
    if command == "verify" or (command == "exact" and check == "domination"):
        argv += ["--property", pick("property", st.sampled_from(_FUZZ_PROPERTIES),
                                    ["exactly-3-edges", "frobnicated", "match>=0"]),
                 "--certify-trials", str(pick("trials", st.integers(0, 30), [-1]))]
    if command == "verify":
        argv += ["--mode", draw(st.sampled_from(["coupled", "independent"])),
                 "--threads", str(draw(st.integers(1, 3)))]
    return argv


class TestFuzz:
    @settings(max_examples=500)
    @given(_fuzz_argv())
    def test_exit_code_contract(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3, 4, 5, 6)
        assert "Traceback" not in err.getvalue()
