import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probust import (
    FORMULAS,
    CouplingParams,
    DomainError,
    EdgeSpace,
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
    parse_property,
    sample_direct,
)
from probust import montecarlo, rngstreams
from probust.coupling import coupled_parts
from probust.graphs import bits_from_words, words_from_bits
from probust.models import MODELS

SCHEMA_DIR = Path(cli.__file__).parent / "schemas"
# every name --model accepts: each kind and its CLI short name
MODEL_NAMES = sorted({*MODELS, *(e.cli_name for e in MODELS.values())})
# stdout and exit code of `exact --check domination` for the benchmark's seven
# properties at n = 5 and 6, captured before the block deciders existed
GOLDEN_DOMINATION = json.loads(
    (Path(__file__).parent / "golden" / "exact_domination.json").read_text()
)
# stdout, stderr and exit code of generate, couple, exact, verify and report
# calls, and library error messages, captured before the model registry and
# the threshold-family table existed; the 300-sample calls at seeds 0, 2^32
# and 2^64 - 1 (pinned by stdout digest) before block seeding
GOLDEN_CLI = json.loads((Path(__file__).parent / "golden" / "cli_bytes.json").read_text())


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

    @pytest.mark.parametrize(
        "case", GOLDEN_DOMINATION, ids=[c["argv"].split()[4] + ":" + c["argv"].split()[11]
                                        for c in GOLDEN_DOMINATION]
    )
    def test_domination_golden_bytes(self, case, capsys):
        assert cli.main(case["argv"].split()) == case["code"]
        captured = capsys.readouterr()
        assert captured.out == case["stdout"] and captured.err == ""

    @pytest.mark.parametrize("argv", [
        "exact --model adjcount --n 4 --check joint",
        "exact --model adjcount --n 4 --check coupling --base 0.3",
        "exact --model adjcount --n 4 --check domination --base 0.3 --property connected",
    ], ids=["joint", "coupling", "domination"])
    def test_never_echoes_a_master_seed(self, argv, monkeypatch, capsys):
        monkeypatch.delenv("PROBUST_SEED", raising=False)
        assert cli.main(argv.split()) == 0
        assert capsys.readouterr().err == ""

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

    def test_sparse_blocks_above_64_edges(self, tmp_path):
        # at n = 12 some g1 blocks hold masks on both sides of bit 63
        code, text = run(
            tmp_path, "verify", "--model", "adjcount", "--n", "12", "--base", "0.003",
            "--mode", "coupled", "--property", "connected", "--samples", "2048", "--seed", "2",
        )
        assert code == 0
        assert json.loads(text)["violations"] == 0

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


class TestPinnedBytes:
    @pytest.mark.parametrize("case", GOLDEN_CLI["cli"], ids=[c["argv"] for c in GOLDEN_CLI["cli"]])
    def test_cli_bytes(self, case, capsys, monkeypatch):
        # argparse wraps help and usage text to the terminal's width
        monkeypatch.setenv("COLUMNS", "80")
        assert cli.main(case["argv"].split()) == case["code"]
        captured = capsys.readouterr()
        assert captured.err == case["stderr"]
        if "stdout_sha256" in case:
            assert hashlib.sha256(captured.out.encode()).hexdigest() == case["stdout_sha256"]
        else:
            assert captured.out == case["stdout"]

    @pytest.mark.parametrize(
        "case", GOLDEN_CLI["library"],
        ids=[f"{c['call']}:{c['arg']}" for c in GOLDEN_CLI["library"]],
    )
    def test_library_messages(self, case):
        if case["type"] is None:  # a spec that parses, and its canonical name
            assert parse_property(case["arg"]).name == case["message"]
            return
        with pytest.raises(DomainError) as err:
            if case["call"] == "ModelDescriptor":
                ModelDescriptor(case["arg"], 4)
            else:
                parse_property(case["arg"])
        assert str(err.value) == case["message"]

    @pytest.mark.parametrize("kind", list(MODELS))
    def test_kind_and_cli_name_build_alike(self, kind, capsys):
        entry = MODELS[kind]
        params = {"p": 0.5} if "p" in entry.required else {}
        outputs = []
        for name in (kind, entry.cli_name):
            argv = ["generate", "--model", name, "--n", "5", "--samples", "4", "--seed", "9"]
            argv += [arg for key, value in params.items() for arg in (f"--{key}", str(value))]
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0].count("\n") == 4
        assert ModelDescriptor(kind, 5, params).build().descriptor.kind == kind


    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("n", [2, 3, 10, 11, 12, 64])
    def test_records_equal_dumps(self, n, seed):
        """couple's and generate's lines, written as byte blocks cut where the
        index gains a digit, against the records _dumps spells: empty, from
        0 across 9 -> 10, and from above 0 across 99 -> 100, 999 -> 1000 and
        999999 -> 1000000."""
        space = EdgeSpace(n)
        full = (1 << space.m) - 1
        draw = random.Random(n)
        for keys in [("g",), ("g1", "g2", "u")]:
            for start, count in [(0, 0), (0, 12), (95, 10), (990, 15), (10**6 - 2, 4)]:
                columns = [[draw.getrandbits(space.m) for _ in range(count)] for _ in keys]
                if count:
                    columns[0][:2] = [0, full]
                want = "".join(
                    cli._dumps({
                        "index": start + i, "n": n, "seed": seed,
                        **{key: format(col[i], space.hex_format) for key, col in zip(keys, columns)},
                    }) + "\n"
                    for i in range(count)
                )
                words = [words_from_bits(space, col) for col in columns]
                assert cli._records(space, seed, keys, start, words, count) == want, (keys, start)

    @pytest.mark.parametrize("samples", [12, 101])
    @pytest.mark.parametrize("command", ["couple", "generate"])
    def test_stdout_and_output_file_hold_the_same_records(self, command, samples, tmp_path, capsys):
        argv = f"{command} --model adjcount --n 10 --samples {samples} --seed 7".split()
        if command == "couple":
            argv += ["--base", "0.3"]
        assert cli.main(argv) == 0
        stdout = capsys.readouterr().out
        path = tmp_path / "records.jsonl"
        assert cli.main([*argv, "--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == stdout.encode()
        space, model = EdgeSpace(10), adjacency_count_model(10)
        if command == "couple":
            [(start, words, count)] = coupled_parts(CouplingParams(0.3, model), 7, 0, samples)
            keys = ("g1", "g2", "u")
        else:
            [(start, g, count)] = models.sample_parts(model, 7, (), 0, samples)
            words = [g]
            keys = ("g",)
        assert (start, count) == (0, samples)
        masks = list(zip(*(bits_from_words(w, count) for w in words)))
        assert stdout == "".join(
            cli._dumps({
                "index": i, "n": 10, "seed": 7,
                **{key: format(bits, space.hex_format) for key, bits in zip(keys, triple)},
            }) + "\n"
            for i, triple in enumerate(masks)
        )


_CLIQUE_CAP = "scale cap: exact clique search capped at n=512, got 600"


class TestUsage:
    def test_missing_subcommand_exits_2(self):
        assert cli.main([]) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("report --preset adjacency-bounds --n 600 --samples 1 --seed 1", _CLIQUE_CAP),
            ("verify --model er --n 600 --p 0.5 --base 0.5 --property clique>=3 "
             "--certify-trials 0 --samples 1 --seed 1", _CLIQUE_CAP),
            ("verify --model er --n 600 --p 0.5 --base 0.5 --property clique>=3 "
             "--certify-trials 0 --samples 1 --seed 1 --mode independent", _CLIQUE_CAP),
            ("verify --model adjcount --n 25 --base 0.3 --property ham "
             "--certify-trials 0 --samples 1 --seed 1",
             "scale cap: hamiltonicity decision caps at n=20, got 25"),
        ],
    )
    def test_cap_refused_before_sampling(self, argv, message, monkeypatch, capsys):
        def no_sample(*args, **kwargs):
            raise AssertionError("sampled before the scale cap refused")

        for module, name in [
            (cli, "sample_parts"),
            (montecarlo, "coupled_parts"),
            (montecarlo, "sample_parts"),
        ]:
            monkeypatch.setattr(module, name, no_sample)
        assert cli.main(argv.split()) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("prop", ["connected", "exactly-3-edges"])  # the second is not monotone
    @pytest.mark.parametrize("mode", ["coupled", "independent"])
    @pytest.mark.parametrize(
        "bad,code,message",
        [
            ("--samples 0", 2, "error: samples must be >= 1, got 0"),
            ("--threads 0", 2, "error: workers must be >= 1, got 0"),
            ("--base -1", 2, "must be in [0, 1], got -1.0"),
            ("--base 0.9", 3, "robustness violation: base 0.9 exceeds the model"),
        ],
    )
    def test_bad_argument_refused_before_certifying(
        self, bad, code, message, mode, prop, monkeypatch, capsys
    ):
        def no_certify(*args):
            raise AssertionError("certified before the bad argument was refused")

        monkeypatch.setattr(cli, "certify_monotone", no_certify)
        argv = (f"verify --model adjcount --n 6 --base 0.3 --property {prop} --samples 300 "
                f"--mode {mode} --certify-trials 200000 --seed 4 {bad}")
        assert cli.main(argv.split()) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

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
            ("report --formula independent-set --n 16,600 --p 0.5 --samples 1 --seed 1", None, 4,
             "capped at n=512"),
            ("report --preset adjacency-bounds --n 8 --samples 0 --seed 1", None, 2,
             "samples must be >= 1"),
            ("report --preset adjacency-bounds --formula clique --n 8 --samples 2 --seed 1", None,
             2, "--preset adjacency-bounds takes no --formula"),
            ("report --preset adjacency-bounds --n 8 --p 0.3 --samples 2 --seed 1", None, 2,
             "--preset adjacency-bounds takes no --p"),
            ("report --preset adjacency-bounds --n 8 --d 3 --samples 2 --seed 1", None, 2,
             "--preset adjacency-bounds takes no --d"),
            ("report --preset adjacency-bounds --n 8 --k 2 --samples 2 --seed 1", None, 2,
             "--preset adjacency-bounds takes no --k"),
            ("report --preset adjacency-bounds --n 8 --p 0 --samples 2 --seed 1", None, 2,
             "--preset adjacency-bounds takes no --p"),
            ("report --formula clique --n , --p 0.5 --format csv --seed 1", None, 2,
             "at least one vertex count"),
            ("verify --model adjcount --n 6 --base 0.3 --property connected "
             "--certify-trials -5 --samples 10 --seed 1", None, 2, "trials must be >= 0"),
            ("exact --model adjcount --n 4 --check joint --seed -1", None, 2, "master seed"),
            ("exact --model adjcount --n 4 --base 0.3 --check coupling --seed -1", None, 2,
             "master seed"),
            ("exact --model adjcount --n 4 --base 0.3 --check domination --property connected "
             "--seed -1", None, 2, "master seed"),
            ("exact --model adjcount --n 4 --base 0.3 --check domination --property connected "
             "--certify-trials 10", None, 2, "unrecognized arguments: --certify-trials"),
        ],
    )
    def test_bad_input_exit_codes(self, argv, env_seed, code, message, monkeypatch, capsys):
        if env_seed is not None:
            monkeypatch.setenv("PROBUST_SEED", env_seed)
        assert cli.main(argv.split()) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and "Traceback" not in captured.err


    @pytest.mark.parametrize(
        "argv,flag",
        [
            ("report --formula clique --n 8 --p 0.5 --samples 1 --seed 1", "--output"),
            ("generate --model er --n 4 --p 0.5 --samples 2 --seed 1", "--output"),
            ("exact --model er --n 4 --p 0.5 --check joint", "--export-dist"),
        ],
    )
    @pytest.mark.parametrize("target", ["missing-dir", "a-dir"])
    def test_unwritable_path_exits_2(self, argv, flag, target, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv" if target == "missing-dir" else tmp_path
        assert cli.main([*argv.split(), flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in captured.err

    def test_out_of_memory_exits_4(self):
        """Each call asks numpy for gigabytes at once; the child caps its own
        address space first, so the allocation fails without touching memory."""
        calls = [
            "generate --model er --n 30000 --p 0.5 --samples 1 --seed 1",
            "couple --model adjcount --n 30000 --base 0.3 --samples 1 --seed 1",
            "report --formula diameter --n 200000 --d 3 --samples 1 --seed 1",
        ]
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", _OUT_OF_MEMORY, json.dumps(calls)],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [4, 4, 4]
        assert result.stderr.count("scale cap: ") == 3
        assert "Traceback" not in result.stderr


_OUT_OF_MEMORY = """
import json, resource, sys
from probust import cli
resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, resource.getrlimit(resource.RLIMIT_AS)[1]))
print(json.dumps([cli.main(argv.split()) for argv in json.loads(sys.argv[1])]))
"""


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
        kind = next(k for k, e in MODELS.items() if e.cli_name == model)
        assert text == scalar_records(ModelDescriptor(kind, 6).build(), 51, count)

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

    @pytest.mark.parametrize(
        "argv",
        [
            "generate --model adjcount --n 10 --samples 600 --seed 54",
            "generate --model adjcount-cond --n 10 --samples 600 --seed 54",
            "couple --model adjcount --n 10 --base 0.3 --samples 600 --seed 54",
        ],
    )
    def test_builds_no_realization_per_sample(self, argv, realizations_built, capsys):
        assert cli.main(argv.split()) == 0
        assert capsys.readouterr().out.count("\n") == 600
        assert realizations_built == []

    def test_verify_builds_no_realization(self, realizations_built, capsys):
        argv = "verify --model adjcount --n 10 --base 0.3 --property match>=4 --samples 512 --seed 7"
        assert cli.main(argv.split()) == 0
        assert json.loads(capsys.readouterr().out)["samples"] == 512
        assert realizations_built == []

    def test_generate_pools_rejection_rounds_over_its_range(self, kernel_calls, capsys):
        argv = "generate --model adjcount-cond --n 10 --samples 1000 --seed 55"
        assert cli.main(argv.split()) == 0
        whole_range_calls = len(kernel_calls)
        kernel_calls.clear()
        model = conditioned_adjacency_model(10)
        per_block = [
            bits for lo, hi in rngstreams._bounds(0, 1000, 256)
            for _, words, count in models.sample_parts(model, 55, (), lo, hi)
            for bits in bits_from_words(words, count)
        ]
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [int(r["g"], 16) for r in records] == per_block
        assert whole_range_calls < len(kernel_calls)

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

        def spy(work, count, workers):
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
        if kind == "preset":
            pass  # the preset takes neither --p nor --d
        elif draw(st.booleans()):
            argv += ["--p", pick("p", probability, bad_probability)]
        else:
            argv += ["--d", pick("p", st.sampled_from(["0", "1", "3", "10"]), ["-1", "nan", "100"])]
        return argv + ["--samples", str(pick("samples", st.integers(1, 5), [-1, 0])),
                       "--format", draw(st.sampled_from(["json", "csv", "text"]))] + seed
    model = pick("model", st.sampled_from(MODEL_NAMES), ["nosuch"])
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
                                    ["exactly-3-edges", "frobnicated", "match>=0"])]
    if command == "verify":
        argv += ["--certify-trials", str(pick("trials", st.integers(0, 30), [-1])),
                 "--mode", draw(st.sampled_from(["coupled", "independent"])),
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


# seeded calls whose stdout must not depend on the process, the hash seed,
# the thread count or the work unit
_SEED = str(2**64 - 1)
DETERMINISM_CALLS = [
    f"couple --model adjcount --n 7 --base 0.3 --samples 300 --seed {_SEED}",
    f"verify --model adjcount --n 7 --base 0.3 --property connected --samples 300 "
    f"--mode coupled --threads 1 --seed {_SEED}",
    f"verify --model adjcount --n 7 --base 0.3 --property connected --samples 300 "
    f"--mode coupled --threads 2 --seed {_SEED}",
    f"verify --model adjcount --n 7 --base 0.3 --property connected --samples 300 "
    f"--mode independent --threads 2 --seed {_SEED}",
    f"generate --model adjcount-cond --n 6 --samples 300 --seed {_SEED}",
    f"generate --model er --n 6 --p 0.4 --samples 300 --seed {_SEED}",
]
_RUN_CALLS = """
import contextlib, io, json, sys
from probust import cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv.split())
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


# failing calls whose exit code and stderr must not depend on the thread
# count or the work unit either: a paired violation, whose message names the
# first violating sample and its triple, and a refusal raised while deciding
FAILING_CALLS = [
    "verify --model adjcount --n 6 --base 0.3 --property exactly-3-edges --samples 2000 "
    "--certify-trials 0 --seed 13",
    *(f"verify --model adjcount --n 21 --base 0.3 --property chrom>=3 --samples 300 "
      f"--certify-trials 0 --mode {mode} --seed 1" for mode in ("coupled", "independent")),
]


def run_calls(calls, capsys):
    results = []
    for argv in calls:
        code = cli.main(argv.split())
        captured = capsys.readouterr()
        results.append([code, captured.out, captured.err])
    return results


class TestDeterminism:
    def test_same_bytes_across_hash_seeds(self):
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
            result = subprocess.run(
                [sys.executable, "-c", _RUN_CALLS, json.dumps(DETERMINISM_CALLS)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(json.loads(result.stdout))
        assert outputs[0] == outputs[1]
        assert all(code == 0 for code, _ in outputs[0])
        assert outputs[0][1][1] == outputs[0][2][1]  # --threads 1 and 2

    @pytest.mark.parametrize("unit", [1, 7, 256, None])  # None: the kernel's own part size
    def test_same_bytes_for_any_block_size(self, unit, set_work_unit, capsys):
        calls = DETERMINISM_CALLS + FAILING_CALLS
        default = run_calls(calls, capsys)
        assert [code for code, _, _ in default[-3:]] == [5, 4, 4]
        assert default[-3][2].startswith("paired dominance violation: sample ")
        set_work_unit(unit)
        for threads in (1, 2, 3):
            argvs = [f"{a} --threads {threads}" if a.startswith("verify") else a for a in calls]
            assert run_calls(argvs, capsys) == default


# one small call of each subcommand, both verify modes, every exact check and
# a refused report, with the exit code each must give
IMPORT_PATH_CALLS = [
    ["generate --model er --n 5 --p 0.4 --samples 3 --seed 3", 0],
    ["couple --model adjcount --n 5 --base 0.3 --samples 3 --seed 3", 0],
    ["verify --model adjcount --n 6 --base 0.3 --property connected --samples 20 "
     "--mode coupled --seed 4", 0],
    ["verify --model er --n 5 --p 0.5 --base 0.4 --property clique>=3 --samples 20 "
     "--mode independent --threads 2 --seed 4", 0],
    ["exact --model adjcount --n 4 --check joint", 0],
    ["exact --model adjcount --n 4 --base 0.3 --check coupling", 0],
    ["exact --model adjcount --n 4 --base 0.3 --property connected --check domination", 0],
    ["report --formula clique --n 8,12 --p 0.5 --samples 3 --seed 5 --format json", 0],
    ["report --formula degree-count --k 2 --n 20 --d 3 --samples 3 --seed 5", 0],
    ["report --preset adjacency-bounds --n 8 --samples 2 --seed 5 --format csv", 0],
    ["report --preset adjacency-bounds --n 600 --samples 1 --seed 1", 4],
]
_LOADED_AFTER_CALLS = """
import contextlib, io, json, sys
from probust import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv.split()))
scipy = sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


class TestImportPath:
    def test_no_scipy_module_on_any_cli_path(self):
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        calls = [argv for argv, _ in IMPORT_PATH_CALLS]
        result = subprocess.run(
            [sys.executable, "-c", _LOADED_AFTER_CALLS, json.dumps(calls)],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        loaded = json.loads(result.stdout)
        assert loaded["codes"] == [code for _, code in IMPORT_PATH_CALLS]
        assert loaded["scipy"] == []
