import json
from pathlib import Path

import jsonschema
import pytest

from probust import cli

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
        ],
    )
    def test_bad_input_exit_codes(self, argv, env_seed, code, message, monkeypatch, capsys):
        if env_seed is not None:
            monkeypatch.setenv("PROBUST_SEED", env_seed)
        assert cli.main(argv.split()) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and "Traceback" not in captured.err
