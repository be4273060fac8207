"""Command-line driver: generate, couple, exact, verify, report.

Exit codes are a stable contract:
  0 ok, 2 usage, bad parameter or unwritable output path, 3 robustness
  violation, 4 scale cap (a refused size, or memory running out),
  5 statistical refutation or paired violation, 6 non-monotone property.

Primary outputs are machine-readable (JSON lines for streams, one JSON
object for reports, CSV for tables) and byte-identical across runs with the
same flags and seed. The master seed defaults to a random value taken from
PROBUST_SEED or the OS, and is always echoed on stderr and embedded in the
records so any run can be reproduced after the fact. ``exact`` draws nothing
at random: it only validates a given ``--seed``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import secrets
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .coupling import CouplingParams, coupled_parts
from .errors import (
    CertificationError,
    DomainError,
    ModelContractError,
    PairedViolationError,
    RobustnessViolationError,
    SamplingFailureError,
    UnsupportedScaleError,
)
from .exact import (
    PROB_TOL,
    exact_coupling_joint,
    exact_domination_check,
    exact_joint,
    tv_distance,
)
from .graphs import Realization, bits_from_words, hex_from_words
from .models import MODELS, ModelDescriptor, er_model, sample_parts
from .montecarlo import (
    FORMULAS,
    asymptotic_report,
    check_run,
    coupled_domination_test,
    degree_count_formula,
    domination_test,
    er_reference,
)
from .properties import (
    certify_monotone,
    check_clique_scale,
    diameter,
    greedy_coloring_size,
    greedy_dominating_set_size,
    max_clique_size,
    parse_property,
)
from .rngstreams import check_count, check_seed, derive_rng


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return check_seed(args.seed)
    env = os.environ.get("PROBUST_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise DomainError(f"PROBUST_SEED must be an integer, got {env!r}") from exc
        return check_seed(seed)
    seed = secrets.randbits(63)
    print(f"master seed: {seed}", file=sys.stderr)
    return seed


def _build_model(args):
    """The model ``--model`` names, by its kind or its CLI short name."""
    kind = next((k for k, e in MODELS.items() if args.model in (k, e.cli_name)), None)
    if kind is None:
        names = sorted({*MODELS, *(e.cli_name for e in MODELS.values())})
        raise DomainError(f"unknown model {args.model!r}; options: {names}")
    takes_p = "p" in MODELS[kind].required
    if takes_p and args.p is None:
        raise DomainError(f"{kind} model needs --p")
    if args.p is not None and not takes_p:
        raise DomainError(f"--p applies only to the er model, not {kind}")
    params = {} if args.p is None else {"p": args.p}
    return ModelDescriptor(kind, args.n, params).build()


def _descriptor_json(model) -> dict:
    return dataclasses.asdict(model.descriptor)


class _Output:
    """Single-writer sink; collects text and flushes once, for byte-stable files."""

    def __init__(self, path: Optional[str]):
        self.path = path
        self.pieces: list[str] = []

    def write(self, text: str) -> None:
        self.pieces.append(text)

    def line(self, text: str) -> None:
        self.write(text + "\n")

    def close(self) -> None:
        data = "".join(self.pieces)
        if self.path:
            _write(self.path, lambda path: Path(path).write_text(data, encoding="utf-8"))
        else:
            sys.stdout.write(data)


def _write(path: str, write) -> None:
    """``write(path)``, with an OSError raised as a DomainError naming the path."""
    try:
        write(path)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _records(space, seed: int, keys: tuple, start: int, columns, count: int) -> str:
    """The lines ``_dumps({"index": i, "n": space.n, "seed": seed, **hexes})``
    for i = start, ..., start + count - 1, where ``hexes`` maps ``keys[j]``
    to graph i - start of the batch whose edge words are ``columns[j]``, in
    ``space.hex_format``.

    The constant text is ``_dumps`` of a record whose index and hexes are
    ``#``, split there: keys are sorted, and neither ints nor hex digits need
    escaping. Each column's hex digits are built once, straight from its
    words (``graphs.hex_from_words``). The range is cut where the index
    gains a decimal digit, so each group is one fixed-width uint8 block: the
    constant texts with the index digits and the hex columns between them."""
    names = sorted(["index", *keys])
    record = _dumps({"n": space.n, "seed": seed, **dict.fromkeys(names, "#")})
    texts = [text.encode() for text in record.replace('"index":"#"', '"index":#').split("#")]
    texts[-1] += b"\n"
    hexes = {key: hex_from_words(space, col, count) for key, col in zip(keys, columns)}
    lo, stop, blocks = start, start + count, []
    while lo < stop:
        digits = len(str(lo))
        hi = min(stop, 10**digits)
        index = np.arange(lo, hi, dtype=np.int64)[:, None]
        powers = 10 ** np.arange(digits - 1, -1, -1, dtype=np.int64)
        cols = {key: rows[lo - start : hi - start] for key, rows in hexes.items()}
        cols["index"] = (index // powers % 10 + ord("0")).astype(np.uint8)
        block = [np.frombuffer(texts[0], dtype=np.uint8)]
        for name, text in zip(names, texts[1:]):
            block += [cols[name], np.frombuffer(text, dtype=np.uint8)]
        block = [np.broadcast_to(part, (hi - lo, part.shape[-1])) for part in block]
        blocks.append(np.hstack(block).tobytes().decode("ascii"))
        lo = hi
    return "".join(blocks)


def cmd_generate(args) -> int:
    check_count(args.samples)
    seed = _resolve_seed(args)
    model = _build_model(args)
    out = _Output(args.output)
    for start, words, count in sample_parts(model, seed, (), 0, args.samples):
        out.write(_records(model.space, seed, ("g",), start, [words], count))
    out.close()
    return 0


def cmd_couple(args) -> int:
    seed = _resolve_seed(args)
    model = _build_model(args)
    params = CouplingParams(args.base, model)
    out = _Output(args.output)
    for start, words, count in coupled_parts(params, seed, 0, check_count(args.samples)):
        out.write(_records(model.space, seed, ("g1", "g2", "u"), start, words, count))
    out.close()
    return 0


def cmd_exact(args) -> int:
    if args.seed is not None:  # no exact check draws randomness; the seed is only checked
        check_seed(args.seed)
    if args.export_dist and args.check != "joint":
        raise DomainError("--export-dist applies only to --check joint")
    model = _build_model(args)
    out = _Output(args.output)
    code = 0
    if args.check == "joint":
        dist = exact_joint(model)
        total = float(dist.probs.sum())
        low = float(dist.probs.min())
        report = {
            "check": "joint",
            "model": _descriptor_json(model),
            "m": model.space.m,
            "sum": total,
            "sum_error": abs(total - 1.0),
            "min_probability": low,
            "tolerance": PROB_TOL,
            "ok": abs(total - 1.0) <= PROB_TOL and low >= -PROB_TOL,
        }
        if args.export_dist:
            _write(args.export_dist, dist.to_csv)
        code = 0 if report["ok"] else 5
    elif args.check == "coupling":
        if args.base is None:
            raise DomainError("--check coupling needs --base")
        joint = exact_coupling_joint(CouplingParams(args.base, model))
        tv_union = tv_distance(joint.union_marginal(), exact_joint(model))
        tv_g1 = tv_distance(
            joint.g1_marginal(), exact_joint(er_model(model.space.n, args.base))
        )
        ok = tv_union <= PROB_TOL and tv_g1 <= PROB_TOL
        report = {
            "check": "coupling",
            "model": _descriptor_json(model),
            "base": args.base,
            "tv_union_vs_model": tv_union,
            "tv_g1_vs_er": tv_g1,
            "tolerance": PROB_TOL,
            "ok": ok,
        }
        code = 0 if ok else 5
    else:  # domination
        if args.base is None or args.property is None:
            raise DomainError("--check domination needs --base and --property")
        oracle = parse_property(args.property)
        res = exact_domination_check(model, args.base, oracle)
        report = {
            "check": "domination",
            "model": _descriptor_json(model),
            "base": args.base,
            "property": oracle.name,
            "prob_er": res.prob_er,
            "prob_model": res.prob_model,
            "margin": res.margin,
            "holds": res.holds,
        }
        code = 0 if res.holds else 5
    out.line(_dumps(report))
    out.close()
    return code


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    model = _build_model(args)
    oracle = parse_property(args.property)
    # refuse the test's arguments before the certification that precedes it
    if args.mode == "coupled":
        params = CouplingParams(args.base, model)
    else:
        er_reference(model, args.base)
    check_run(args.samples, args.threads)
    cert = certify_monotone(oracle, args.n, args.certify_trials, derive_rng(seed, 0, 0))
    if not cert.ok:
        g_before, g_after, edge = cert.counterexample
        raise CertificationError(
            f"property {oracle.name!r} is not monotone: adding edge {edge} to "
            f"{g_before.to_hex()} gives {g_after.to_hex()} which lacks it",
            counterexample=cert.counterexample,
        )
    out = _Output(args.output)
    payload = {
        "mode": args.mode,
        "model": _descriptor_json(model),
        "base": args.base,
        "property": oracle.name,
        "samples": args.samples,
        "seed": seed,
    }
    if args.mode == "coupled":
        report = coupled_domination_test(
            params, oracle, args.samples, seed, workers=args.threads
        )
        payload.update(
            count_g1=report.count_g1,
            count_union=report.count_union,
            freq_g1=report.freq_g1,
            freq_union=report.freq_union,
            violations=report.violations,
            verdict="consistent",
        )
        code = 0
    else:
        report = domination_test(
            model, args.base, oracle, args.samples, seed, workers=args.threads
        )
        payload.update(
            est_er=_estimate_json(report.est_er),
            est_model=_estimate_json(report.est_model),
            margin=report.margin,
            verdict=report.verdict,
        )
        code = 0 if report.verdict == "consistent" else 5
    out.line(_dumps(payload))
    out.close()
    return code


def _estimate_json(est) -> dict:
    return {
        "estimate": est.estimate,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "samples": est.samples,
        "successes": est.successes,
        "method": est.method,
    }


def _format_rows(rows: list[dict], fmt: str, out: _Output, header: dict) -> None:
    if fmt == "json":
        out.line(_dumps({**header, "rows": rows}))
    elif fmt == "csv":
        cols = list(rows[0].keys())
        out.line(",".join(cols))
        for row in rows:
            out.line(",".join(_csv_cell(row[c]) for c in cols))
    else:  # text
        cols = list(rows[0].keys())
        widths = {
            c: max(len(c), *(len(_csv_cell(r[c])) for r in rows)) for c in cols
        }
        out.line("  ".join(c.ljust(widths[c]) for c in cols))
        for row in rows:
            out.line("  ".join(_csv_cell(row[c]).ljust(widths[c]) for c in cols))


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_report(args) -> int:
    if args.preset:
        for flag in ("formula", "p", "d", "k"):
            if getattr(args, flag) is not None:
                raise DomainError(f"--preset {args.preset} takes no --{flag}")
    seed = _resolve_seed(args)
    out = _Output(args.output)
    if args.preset:
        rows = _preset_adjacency_bounds(args, seed)
        _format_rows(rows, args.format, out, {"preset": args.preset, "seed": seed})
        out.close()
        return 0
    if args.formula is None:
        raise DomainError("need --formula or --preset")
    if args.formula == "degree-count":
        if args.k is None:
            raise DomainError("--formula degree-count needs --k")
        formula = degree_count_formula(args.k)
    elif args.formula in FORMULAS:
        formula = FORMULAS[args.formula]
    else:
        raise DomainError(
            f"unknown formula {args.formula!r}; options: "
            f"{sorted(FORMULAS) + ['degree-count']}"
        )
    rows = asymptotic_report(
        formula, formula.statistic, _parse_n_list(args.n), args.p, args.samples, seed,
        degree=args.d,
    )
    _format_rows(
        [dataclasses.asdict(r) for r in rows], args.format, out,
        {"formula": formula.name, "note": formula.note, "seed": seed},
    )
    out.close()
    return 0


def _parse_n_list(text: str) -> list[int]:
    try:
        ns = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise DomainError(f"--n must be comma-separated integers, got {text!r}") from exc
    if not ns:
        raise DomainError(f"--n needs at least one vertex count, got {text!r}")
    return ns


def _preset_adjacency_bounds(args, seed: int) -> list[dict]:
    """Four predicted-vs-observed comparisons for the adjacency-count model.

    Bounds inherited from the independent graph at the model's floor
    p = 3/10 (so b = 1/(1-p) = 10/7): the clique and chromatic predictions
    are lower bounds, the dominating-set and diameter predictions upper
    bounds. Quantities beyond their exact caps are reported with greedy
    stand-ins, labeled as such, never as ground truth.
    """
    if args.samples < 1:
        raise DomainError(f"samples must be >= 1, got {args.samples}")
    ns = _parse_n_list(args.n)
    p = 0.3
    b = 1.0 / (1.0 - p)
    model_rows = []
    for n in ns:
        check_clique_scale(n)  # before the model is built and sampled
        model = ModelDescriptor("adjacency-count", n).build()
        cliq, chrom, dom, diam = [], [], [], []
        for _, words, count in sample_parts(model, seed, (n,), 0, args.samples):
            for bits in bits_from_words(words, count):
                g = Realization(model.space, bits)
                cliq.append(max_clique_size(g))
                chrom.append(greedy_coloring_size(g))
                dom.append(greedy_dominating_set_size(g))
                diam.append(diameter(g))
        logb = math.log(b)
        quantities = [
            ("clique", "at-least", 2.0 * math.log(n) / math.log(1.0 / p), cliq, "exact"),
            ("chromatic", "at-least", n * logb / math.log(n), chrom, "greedy-upper-bound"),
            ("dominating-set", "at-most", math.log(n) / logb, dom, "greedy-upper-bound"),
            ("diameter", "at-most", math.log(n) / math.log(p * n), diam, "exact"),
        ]
        for name, direction, predicted, values, label in quantities:
            arr = np.asarray(values, dtype=np.float64)
            model_rows.append(
                {
                    "n": n,
                    "quantity": name,
                    "direction": direction,
                    "predicted": float(predicted),
                    "observed_mean": float(arr.mean()),
                    "observed_sd": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
                    "samples": args.samples,
                    "statistic": label,
                }
            )
    return model_rows


def _add_model(sub):
    sub.add_argument("--model", required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=float, default=None, help="edge probability (er only)")


def _add_common(sub, seed=True, output=True):
    if seed:
        sub.add_argument("--seed", type=int, default=None, help="64-bit master seed")
    if output:
        sub.add_argument("--output", default=None, help="write to file instead of stdout")


@functools.cache  # built once per process; parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probust",
        description="dependent-edge random graphs with an embedded independent layer",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    gen = subparsers.add_parser("generate", help="sample realizations from a model")
    _add_model(gen)
    gen.add_argument("--samples", type=int, default=1)
    _add_common(gen)
    gen.set_defaults(func=cmd_generate)

    cpl = subparsers.add_parser("couple", help="sample (embedded, patch, union) triples")
    _add_model(cpl)
    cpl.add_argument("--base", type=float, required=True, help="embedded layer probability")
    cpl.add_argument("--samples", type=int, default=1)
    _add_common(cpl)
    cpl.set_defaults(func=cmd_couple)

    exa = subparsers.add_parser("exact", help="exhaustive verification at tiny n")
    _add_model(exa)
    exa.add_argument("--base", type=float, default=None)
    exa.add_argument("--check", choices=["joint", "coupling", "domination"], required=True)
    exa.add_argument("--property", default=None)
    exa.add_argument("--export-dist", default=None, help="write the joint table as CSV")
    _add_common(exa)
    exa.set_defaults(func=cmd_exact)

    ver = subparsers.add_parser("verify", help="statistical domination tests")
    _add_model(ver)
    ver.add_argument("--base", type=float, required=True)
    ver.add_argument("--property", required=True)
    ver.add_argument("--samples", type=int, default=10_000)
    ver.add_argument("--mode", choices=["coupled", "independent"], default="coupled")
    ver.add_argument("--certify-trials", type=int, default=2000)
    ver.add_argument("--threads", type=int, default=1, help="never changes results")
    _add_common(ver)
    ver.set_defaults(func=cmd_verify)

    rep = subparsers.add_parser("report", help="asymptotic predictions vs observations")
    rep.add_argument("--formula", default=None)
    rep.add_argument("--preset", choices=["adjacency-bounds"], default=None)
    rep.add_argument("--n", required=True, help="comma-separated vertex counts")
    rep.add_argument("--p", type=float, default=None)
    rep.add_argument("--d", type=float, default=None, help="fixed average degree instead of p")
    rep.add_argument("--k", type=int, default=None, help="degree for degree-count")
    rep.add_argument("--samples", type=int, default=20)
    rep.add_argument("--format", choices=["json", "csv", "text"], default="json")
    _add_common(rep)
    rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (DomainError, ModelContractError, SamplingFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RobustnessViolationError as exc:
        print(f"robustness violation: {exc}", file=sys.stderr)
        return 3
    except (UnsupportedScaleError, MemoryError) as exc:
        print(f"scale cap: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    except PairedViolationError as exc:
        print(f"paired dominance violation: {exc}", file=sys.stderr)
        return 5
    except CertificationError as exc:
        print(f"non-monotone property: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
