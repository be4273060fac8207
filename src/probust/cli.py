"""Command-line driver: generate, couple, exact, verify, report.

Exit codes are a stable contract:
  0 ok, 2 usage or bad parameter, 3 robustness violation, 4 scale cap,
  5 statistical refutation or paired violation, 6 non-monotone property.

Primary outputs are machine-readable (JSON lines for streams, one JSON
object for reports, CSV for tables) and byte-identical across runs with the
same flags and seed. The master seed defaults to a random value taken from
PROBUST_SEED or the OS, and is always echoed on stderr and embedded in the
records so any run can be reproduced after the fact.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
from typing import Optional

import numpy as np

from .coupling import CouplingParams, coupled_stream
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
from .models import ModelDescriptor, sample_block, sample_direct
from .montecarlo import (
    FORMULAS,
    asymptotic_report,
    coupled_domination_test,
    degree_count_formula,
    domination_test,
)
from .properties import (
    certify_monotone,
    diameter,
    greedy_coloring_size,
    greedy_dominating_set_size,
    max_clique_size,
    parse_property,
)
from .rngstreams import check_seed, derive_rng, index_blocks

CLIQUE_CLI_MAX_N = 512

_MODEL_ALIASES = {
    "er": "er",
    "globalcount": "global-count",
    "global-count": "global-count",
    "adjcount": "adjacency-count",
    "adjacency-count": "adjacency-count",
    "adjcount-cond": "adjacency-count-conditioned",
    "adjacency-count-conditioned": "adjacency-count-conditioned",
}


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
    kind = _MODEL_ALIASES.get(args.model)
    if kind is None:
        raise DomainError(
            f"unknown model {args.model!r}; options: {sorted(set(_MODEL_ALIASES))}"
        )
    params = {}
    if kind == "er":
        if args.p is None:
            raise DomainError("er model needs --p")
        params["p"] = args.p
    elif args.p is not None:
        raise DomainError(f"--p applies only to the er model, not {kind}")
    return ModelDescriptor(kind, args.n, params).build()


def _descriptor_json(model) -> dict:
    desc = model.descriptor
    return {"kind": desc.kind, "n": desc.n, "params": desc.params}


class _Output:
    """Single-writer sink; collects text and flushes once, for byte-stable files."""

    def __init__(self, path: Optional[str]):
        self.path = path
        self.pieces: list[str] = []

    def line(self, text: str) -> None:
        self.pieces.append(text + "\n")

    def close(self) -> None:
        data = "".join(self.pieces)
        if self.path:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(data)
        else:
            sys.stdout.write(data)


def cmd_generate(args) -> int:
    if args.samples < 0:
        raise DomainError(f"count must be >= 0, got {args.samples}")
    seed = _resolve_seed(args)
    model = _build_model(args)
    out = _Output(args.output)
    for lo, hi in index_blocks(args.samples):
        for idx, g in enumerate(sample_block(model, seed, (), lo, hi), lo):
            out.line(
                _dumps({"index": idx, "n": model.space.n, "seed": seed, "g": g.to_hex()})
            )
    out.close()
    return 0


def cmd_couple(args) -> int:
    seed = _resolve_seed(args)
    model = _build_model(args)
    params = CouplingParams(args.base, model)
    out = _Output(args.output)
    for idx, triple in coupled_stream(params, seed, args.samples):
        out.line(
            _dumps(
                {
                    "index": idx,
                    "n": model.space.n,
                    "seed": seed,
                    "g1": triple.g1.to_hex(),
                    "g2": triple.g2.to_hex(),
                    "u": triple.u.to_hex(),
                }
            )
        )
    out.close()
    return 0


def cmd_exact(args) -> int:
    model = _build_model(args)
    out = _Output(args.output)
    code = 0
    if args.check == "joint":
        dist = exact_joint(model)
        total = float(dist.probs.sum())
        report = {
            "check": "joint",
            "model": _descriptor_json(model),
            "m": model.space.m,
            "sum": total,
            "sum_error": abs(total - 1.0),
            "min_probability": float(dist.probs.min()),
            "tolerance": PROB_TOL,
            "ok": abs(total - 1.0) <= PROB_TOL and float(dist.probs.min()) >= -PROB_TOL,
        }
        if args.export_dist:
            dist.to_csv(args.export_dist)
        code = 0 if report["ok"] else 5
    elif args.check == "coupling":
        if args.base is None:
            raise DomainError("--check coupling needs --base")
        joint = exact_coupling_joint(CouplingParams(args.base, model))
        from .models import er_model

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
        cert = certify_monotone(
            oracle, model.space.n, args.certify_trials, derive_rng(_resolve_seed(args), 0)
        )
        if not cert.ok:
            raise CertificationError(
                f"property {oracle.name!r} failed monotonicity certification",
                counterexample=cert.counterexample,
            )
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
    _reject_over_cli_caps(oracle.name, args.n)
    cert = certify_monotone(oracle, args.n, args.certify_trials, derive_rng(seed, 0, 0))
    if not cert.ok:
        g_before, g_after, edge = cert.counterexample
        raise CertificationError(
            f"property {oracle.name!r} is not monotone: adding edge {edge} to "
            f"{g_before.to_hex()} gives {g_after.to_hex()} which lacks it",
            counterexample=cert.counterexample,
        )
    out = _Output(args.output)
    if args.mode == "coupled":
        params = CouplingParams(args.base, model)
        report = coupled_domination_test(
            params, oracle, args.samples, seed, workers=args.threads
        )
        payload = {
            "mode": "coupled",
            "model": _descriptor_json(model),
            "base": args.base,
            "property": oracle.name,
            "samples": report.samples,
            "seed": seed,
            "count_g1": report.count_g1,
            "count_union": report.count_union,
            "freq_g1": report.freq_g1,
            "freq_union": report.freq_union,
            "violations": report.violations,
            "verdict": "consistent",
        }
        code = 0
    else:
        report = domination_test(
            model, args.base, oracle, args.samples, seed, workers=args.threads
        )
        payload = {
            "mode": "independent",
            "model": _descriptor_json(model),
            "base": args.base,
            "property": oracle.name,
            "samples": args.samples,
            "seed": seed,
            "est_er": _estimate_json(report.est_er),
            "est_model": _estimate_json(report.est_model),
            "margin": report.margin,
            "verdict": report.verdict,
        }
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


def _reject_over_cli_caps(name: str, n: int) -> None:
    """The exact clique search is exponential; refuse it above the CLI cap."""
    if name.startswith("clique") and n > CLIQUE_CLI_MAX_N:
        raise UnsupportedScaleError(
            f"clique oracle capped at n={CLIQUE_CLI_MAX_N} in the cli, got {n}"
        )


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
    ns = _parse_n_list(args.n)
    for n in ns:
        _reject_over_cli_caps(formula.name, n)
    rows = asymptotic_report(
        formula, formula.statistic, ns, args.p, args.samples, seed, degree=args.d
    )
    dict_rows = [
        {
            "n": r.n,
            "p": r.p,
            "predicted": r.predicted,
            "observed_mean": r.observed_mean,
            "observed_sd": r.observed_sd,
            "samples": r.samples,
            "statistic": r.statistic,
        }
        for r in rows
    ]
    _format_rows(
        dict_rows, args.format, out, {"formula": formula.name, "note": formula.note, "seed": seed}
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
    for n in ns:
        _reject_over_cli_caps("clique", n)  # the preset decides max_clique_size
    p = 0.3
    b = 1.0 / (1.0 - p)
    model_rows = []
    for n in ns:
        desc = ModelDescriptor("adjacency-count", n)
        model = desc.build()
        cliq, chrom, dom, diam = [], [], [], []
        for idx in range(args.samples):
            g = sample_direct(model, derive_rng(seed, n, idx))
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


def _add_common(sub, seed=True, output=True):
    if seed:
        sub.add_argument("--seed", type=int, default=None, help="64-bit master seed")
    if output:
        sub.add_argument("--output", default=None, help="write to file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probust",
        description="dependent-edge random graphs with an embedded independent layer",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    gen = subparsers.add_parser("generate", help="sample realizations from a model")
    gen.add_argument("--model", required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=float, default=None, help="edge probability (er only)")
    gen.add_argument("--samples", type=int, default=1)
    _add_common(gen)
    gen.set_defaults(func=cmd_generate)

    cpl = subparsers.add_parser("couple", help="sample (embedded, patch, union) triples")
    cpl.add_argument("--model", required=True)
    cpl.add_argument("--n", type=int, required=True)
    cpl.add_argument("--p", type=float, default=None)
    cpl.add_argument("--base", type=float, required=True, help="embedded layer probability")
    cpl.add_argument("--samples", type=int, default=1)
    _add_common(cpl)
    cpl.set_defaults(func=cmd_couple)

    exa = subparsers.add_parser("exact", help="exhaustive verification at tiny n")
    exa.add_argument("--model", required=True)
    exa.add_argument("--n", type=int, required=True)
    exa.add_argument("--p", type=float, default=None)
    exa.add_argument("--base", type=float, default=None)
    exa.add_argument("--check", choices=["joint", "coupling", "domination"], required=True)
    exa.add_argument("--property", default=None)
    exa.add_argument("--certify-trials", type=int, default=2000)
    exa.add_argument("--export-dist", default=None, help="write the joint table as CSV")
    _add_common(exa)
    exa.set_defaults(func=cmd_exact)

    ver = subparsers.add_parser("verify", help="statistical domination tests")
    ver.add_argument("--model", required=True)
    ver.add_argument("--n", type=int, required=True)
    ver.add_argument("--p", type=float, default=None)
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
    except UnsupportedScaleError as exc:
        print(f"scale cap: {exc}", file=sys.stderr)
        return 4
    except PairedViolationError as exc:
        print(f"paired dominance violation: {exc}", file=sys.stderr)
        return 5
    except CertificationError as exc:
        print(f"non-monotone property: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
