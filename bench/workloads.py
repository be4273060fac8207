"""The benchmark's operations: CLI argument lists and the checks on their output.

One operation is one ``probust.cli.main(argv)`` invocation together with the
checks on what it printed (and, for ``exact --export-dist``, wrote). A round
is the fixed list of operations of one workload at one round seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks as C
import spec

EXPECTED_MODEL = {
    "adjcount": ("adjacency-count", {}),
}

# Per-graph diameter of G(1000, 10/999) takes the values 5 and 6 (240
# sampled graphs: 150 and 90), so its standard deviation is at most 1/2.
DIAMETER_SD = 0.5
DIAMETER_WINDOW = 1.0


@dataclass(frozen=True)
class Result:
    code: int
    wall_s: float
    stdout: str
    stderr: str
    ref_wall_s: float = 0.0  # wall_s at the reference speed (spec.at_reference_speed)


@dataclass(frozen=True)
class Step:
    """One CLI invocation: ``kind`` names its check and its replay."""

    kind: str
    argv: tuple[str, ...]
    params: dict = field(hash=False)
    work: int = 0  # samples or graphs the invocation produces

    @property
    def command(self) -> str:
        return self.argv[0]


def round_seed(seed: int, index: int) -> int:
    """Master seed of round ``index``; a pure function of the run seed."""
    state = np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


# ---------------------------------------------------------------------------
# step builders


def couple_step(n: int, base: str, samples: int, seed: int) -> Step:
    argv = ("couple", "--model", "adjcount", "--n", str(n), "--base", base,
            "--samples", str(samples), "--seed", str(seed))
    return Step("couple", argv, dict(n=n, base=base, samples=samples, seed=seed), samples)


def verify_coupled_step(n, base, prop, samples, threads, seed) -> Step:
    argv = ("verify", "--model", "adjcount", "--n", str(n), "--base", base, "--mode", "coupled",
            "--property", prop, "--samples", str(samples), "--threads", str(threads),
            "--seed", str(seed))
    params = dict(n=n, base=base, property=prop, samples=samples, threads=threads, seed=seed)
    return Step("verify-coupled", argv, params, samples)


def verify_independent_step(n, base, prop, samples, seed) -> Step:
    argv = ("verify", "--model", "adjcount", "--n", str(n), "--base", base,
            "--mode", "independent", "--property", prop, "--samples", str(samples),
            "--seed", str(seed))
    params = dict(n=n, base=base, property=prop, samples=samples, seed=seed)
    return Step("verify-independent", argv, params, 2 * samples)


def generate_step(n: int, samples: int, seed: int) -> Step:
    argv = ("generate", "--model", "adjcount-cond", "--n", str(n),
            "--samples", str(samples), "--seed", str(seed))
    return Step("generate", argv, dict(n=n, samples=samples, seed=seed), samples)


def report_diameter_step(n: int, degree: str, samples: int, seed: int) -> Step:
    argv = ("report", "--formula", "diameter", "--n", str(n), "--d", degree,
            "--samples", str(samples), "--seed", str(seed))
    return Step("report-diameter", argv, dict(n=n, d=degree, samples=samples, seed=seed), samples)


def report_degree_step(n: int, k: int, degree: str, samples: int, seed: int) -> Step:
    argv = ("report", "--formula", "degree-count", "--k", str(k), "--n", str(n),
            "--d", degree, "--samples", str(samples), "--seed", str(seed))
    params = dict(n=n, k=k, d=degree, samples=samples, seed=seed)
    return Step("report-degree", argv, params, samples)


def exact_joint_step(model: str, n: int, p, out_dir: Path | None) -> Step:
    """Joint check; with ``out_dir`` the table is exported there as CSV."""
    argv = ("exact", "--model", model, "--n", str(n), "--check", "joint")
    path = None
    if out_dir is not None:
        path = str(out_dir / f"joint-{model}-n{n}.csv")
        argv += ("--export-dist", path)
    if p is not None:
        argv += ("--p", p)
    return Step("exact-joint", argv, dict(model=model, n=n, p=p, path=path))


def exact_coupling_step(n: int, base: str) -> Step:
    argv = ("exact", "--model", "adjcount", "--n", str(n), "--base", base, "--check", "coupling")
    return Step("exact-coupling", argv, dict(n=n, base=base))


def exact_domination_step(n: int, base: str, prop: str, seed: int) -> Step:
    argv = ("exact", "--model", "adjcount", "--n", str(n), "--base", base,
            "--check", "domination", "--property", prop, "--seed", str(seed))
    return Step("exact-domination", argv, dict(n=n, base=base, property=prop, seed=seed))


def build_round(workload: str, seed: int, out_dir: Path) -> list[Step]:
    """The operations of one round, in the order they run."""
    if workload == "sample-n10":
        n, base = spec.SAMPLE_N, spec.SAMPLE_BASE
        # couple and verify share seed and sample count, so the couple
        # triples are exactly the samples verify decided
        return [
            couple_step(n, base, spec.COUPLED_SAMPLES, seed),
            verify_coupled_step(n, base, spec.COUPLED_PROPERTY, spec.COUPLED_SAMPLES,
                                spec.THREADS, seed),
            verify_independent_step(n, base, spec.INDEPENDENT_PROPERTY,
                                    spec.INDEPENDENT_SAMPLES, seed),
            generate_step(n, spec.CONDITIONED_SAMPLES, seed),
        ]
    if workload == "exact-report":
        # exact first: with the n = 1000 reports first, the runner's peak
        # memory varied by 9% from round to round; exact first, by 0.2%
        steps = [exact_joint_step(model, n, p, out_dir if export else None)
                 for model, n, p, export in spec.JOINT_SPECS]
        steps += [exact_coupling_step(spec.COUPLING_N, b) for b in spec.COUPLING_BASES]
        steps += [
            exact_domination_step(spec.DOMINATION_N, spec.DOMINATION_BASE, prop, seed)
            for prop in spec.DOMINATION_PROPERTIES
        ]
        n = spec.REPORT_N
        return steps + [
            report_diameter_step(n, spec.DIAMETER_DEGREE, spec.DIAMETER_SAMPLES, seed),
            report_degree_step(n, spec.DEGREE_K, spec.DEGREE_DEGREE, spec.DEGREE_SAMPLES, seed),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# brute-force deciders for every realization of a graph on n <= 6 vertices


def _all_realizations(n: int) -> np.ndarray:
    m = n * (n - 1) // 2
    states = np.arange(1 << m, dtype=np.int64)
    return ((states[:, None] >> np.arange(m)) & 1).astype(bool)


def _edge_lookup(n: int) -> dict[tuple[int, int], int]:
    u, v = C.edge_pairs(n)
    return {(int(a), int(b)): i for i, (a, b) in enumerate(zip(u, v))}


def _has_all(bits, edge, groups) -> np.ndarray:
    """Per realization: some group of vertex pairs is entirely present."""
    out = np.zeros(bits.shape[0], dtype=bool)
    for pairs in groups:
        cols = [edge[tuple(sorted(pair))] for pair in pairs]
        out |= bits[:, cols].all(axis=1)
    return out


def small_property_table(prop: str, n: int) -> np.ndarray:
    """Which of the 2^m realizations have ``prop``, by enumerating structures
    (triangles, perfect matchings, Hamilton cycles, 2-colourings, small
    dominating sets, reachability), not by search."""
    bits = _all_realizations(n)
    edge = _edge_lookup(n)
    verts = range(n)
    adj = np.zeros((bits.shape[0], n, n), dtype=bool)
    for (a, b), i in edge.items():
        adj[:, a, b] = adj[:, b, a] = bits[:, i]
    name, _, k = prop.partition(">=") if ">=" in prop else prop.partition("<=")
    k = int(k) if k else None
    if name == "connected":
        reach = adj | np.eye(n, dtype=bool)
        for _ in range(n):
            reach = reach | (np.einsum("gij,gjk->gik", reach.astype(np.int64),
                                       adj.astype(np.int64)) > 0)
        return reach[:, 0, :].all(axis=1)
    if name == "clique":
        return _has_all(bits, edge, [itertools.combinations(c, 2)
                                     for c in itertools.combinations(verts, k)])
    if name == "match":
        groups = [pairs for pairs in itertools.combinations(itertools.combinations(verts, 2), k)
                  if len({x for pair in pairs for x in pair}) == 2 * k]
        return _has_all(bits, edge, groups) if groups else np.zeros(len(bits), dtype=bool)
    if name == "ham":
        if n < 3:
            return np.zeros(len(bits), dtype=bool)
        cycles = [(0,) + perm for perm in itertools.permutations(range(1, n)) if perm[0] < perm[-1]]
        return _has_all(bits, edge, [list(zip(c, c[1:] + c[:1])) for c in cycles])
    if name == "chrom":
        if k > 3:
            raise ValueError("only chrom>=k with k <= 3 is enumerated")
        if k <= 1:
            return np.ones(len(bits), dtype=bool)
        if k == 2:
            return bits.any(axis=1)
        two_colourable = np.zeros(len(bits), dtype=bool)
        for colours in itertools.product((0, 1), repeat=n - 1):
            colour = (0,) + colours
            mono = [i for (a, b), i in edge.items() if colour[a] == colour[b]]
            two_colourable |= ~bits[:, mono].any(axis=1)
        return ~two_colourable
    if name == "diam":
        if k not in (1, 2):
            raise ValueError("only diam<=1 and diam<=2 are enumerated")
        closed = adj | np.eye(n, dtype=bool)
        if k == 2:
            closed = np.einsum("gij,gjk->gik", closed.astype(np.int64),
                               closed.astype(np.int64)) > 0
        return closed.all(axis=(1, 2))
    if name == "domset":
        closed = adj | np.eye(n, dtype=bool)
        out = np.zeros(len(bits), dtype=bool)
        for size in range(1, k + 1):
            for group in itertools.combinations(verts, size):
                out |= closed[:, list(group), :].any(axis=1).all(axis=1)
        return out
    raise ValueError(f"no enumeration for property {prop!r}")


# ---------------------------------------------------------------------------
# checks


def _property_threshold(prop: str) -> int:
    return int(prop.split(">=")[1])


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Checker:
    """Checks each operation's output; keeps what later steps of a round need."""

    def __init__(self, schemas: C.Schemas):
        self.schemas = schemas
        self.round: dict = {}
        self._tables: dict = {}

    def new_round(self, index: int) -> None:
        self.round = {"index": index}

    def check(self, step: Step, result: Result) -> None:
        C.require(result.code == 0, f"exit code {result.code}: {result.stderr.strip()[-300:]}")
        getattr(self, "_" + step.kind.replace("-", "_"))(step.params, result.stdout)

    def _table(self, key, build):
        if key not in self._tables:
            self._tables[key] = build()
        return self._tables[key]

    def _model_json(self, payload: dict, alias: str, n: int, params=None) -> None:
        kind, default = EXPECTED_MODEL.get(alias, (alias, None))
        expected = {"kind": kind, "n": n, "params": default if params is None else params}
        C.require(payload["model"] == expected, f"model {payload['model']} != {expected}")

    # sample-n10 ----------------------------------------------------------

    def _records(self, text: str, p: dict, schema: str) -> list[dict]:
        records = C.parse_json_lines(text, p["samples"])
        for i, rec in enumerate(records):
            self.schemas.validate(schema, rec)
            C.require(rec["index"] == i and rec["n"] == p["n"] and rec["seed"] == p["seed"],
                      f"record {i} has index/n/seed {rec['index']}/{rec['n']}/{rec['seed']}")
        return records

    def _couple(self, p: dict, text: str) -> None:
        n, base, samples = p["n"], float(p["base"]), p["samples"]
        m = n * (n - 1) // 2
        records = self._records(text, p, "couple-record")
        g1, g2, u = (C.hex_to_bits([r[key] for r in records], m) for key in ("g1", "g2", "u"))
        bad = np.flatnonzero(((g1 | g2) != u).any(axis=1))
        C.require(bad.size == 0, f"record {bad[:1]}: u != g1 | g2")
        density = float(g1.mean())
        bound = C.STAT_Z * math.sqrt(base * (1 - base) / (m * samples))
        C.require(abs(density - base) <= bound,
                  f"g1 edge density {density:.5f} outside {base} +- {bound:.5f}")
        self.round["couple"] = (p["seed"], samples, g1, u)

    def _verify_coupled(self, p: dict, text: str) -> None:
        payload = C.parse_single_json(text)
        self.schemas.validate("verify-report", payload)
        n, samples = p["n"], p["samples"]
        self._model_json(payload, "adjcount", n)
        C.require(payload["mode"] == "coupled" and payload["property"] == p["property"]
                  and payload["samples"] == samples and payload["seed"] == p["seed"]
                  and payload["base"] == float(p["base"]), "verify echoes other arguments")
        C.require(payload["violations"] == 0 and payload["verdict"] == "consistent",
                  f"{payload['violations']} paired violations")
        g1_count, u_count = payload["count_g1"], payload["count_union"]
        C.require(u_count >= g1_count, f"count_union {u_count} < count_g1 {g1_count}")
        C.require(payload["freq_g1"] == g1_count / samples
                  and payload["freq_union"] == u_count / samples, "frequencies != counts / samples")
        seed, couple_samples, g1, u = self.round["couple"]
        C.require((seed, couple_samples) == (p["seed"], samples),
                  "no couple output for the same seed and samples")
        k = _property_threshold(p["property"])
        ends = C.edge_pairs(n)
        ref_g1 = sum(C.nx_matching_at_least(n, ends[0][row], ends[1][row], k)
                     for row in g1.astype(bool))
        ref_u = sum(C.nx_matching_at_least(n, ends[0][row], ends[1][row], k)
                    for row in u.astype(bool))
        C.require((g1_count, u_count) == (ref_g1, ref_u),
                  f"counts {g1_count}/{u_count}, networkx on the couple triples "
                  f"{ref_g1}/{ref_u}")

    def _verify_independent(self, p: dict, text: str) -> None:
        payload = C.parse_single_json(text)
        self.schemas.validate("verify-report", payload)
        n, samples, base = p["n"], p["samples"], p["base"]
        self._model_json(payload, "adjcount", n)
        C.require(payload["mode"] == "independent" and payload["property"] == p["property"]
                  and payload["samples"] == samples and payload["seed"] == p["seed"],
                  "verify echoes other arguments")
        for side in ("est_er", "est_model"):
            est = payload[side]
            C.require(est["samples"] == samples and est["method"] == "wilson", f"{side} setup")
            C.require(est["estimate"] == est["successes"] / samples,
                      f"{side} estimate != successes / samples")
            low, high = C.wilson_interval(est["successes"], samples, 0.99)
            C.require(_close(low, est["ci_low"]) and _close(high, est["ci_high"]),
                      f"{side} interval [{est['ci_low']}, {est['ci_high']}] != "
                      f"Wilson [{low}, {high}]")
        est_er, est_model = payload["est_er"]["estimate"], payload["est_model"]["estimate"]
        C.require(_close(payload["margin"], est_model - est_er), "margin != difference")
        refuted = payload["est_er"]["ci_low"] > payload["est_model"]["ci_high"]
        C.require(payload["verdict"] == "consistent" and not refuted,
                  f"verdict {payload['verdict']}")
        if p["property"] == "connected":
            truth = C.gilbert_connected(n, base)
            bound = C.STAT_Z * math.sqrt(truth * (1 - truth) / samples)
            C.require(abs(est_er - truth) <= bound,
                      f"est_er {est_er} outside Gilbert {truth:.6f} +- {bound:.4f}")

    def _generate(self, p: dict, text: str) -> None:
        n = p["n"]
        records = self._records(text, p, "generate-record")
        bits = C.hex_to_bits([r["g"] for r in records], n * (n - 1) // 2)
        fewest = C.min_adjacent_present(bits, n)
        bad = np.flatnonzero(fewest < 3)
        C.require(bad.size == 0, f"graph {bad[:1]} has an edge position with "
                                 f"{fewest[bad[:1]]} < 3 present adjacent edges")

    # exact-report: report ---------------------------------------------

    def _report_row(self, p: dict, text: str, formula: str) -> tuple[dict, float]:
        payload = C.parse_single_json(text)
        self.schemas.validate("report-table", payload)
        C.require(payload["formula"] == formula and payload["seed"] == p["seed"],
                  f"report header {payload['formula']}/{payload['seed']}")
        C.require(len(payload["rows"]) == 1, "expected one row")
        row = payload["rows"][0]
        n = p["n"]
        prob = float(p["d"]) / (n - 1)
        C.require(row["n"] == n and row["p"] == prob and row["samples"] == p["samples"]
                  and row["statistic"] == "exact", f"row echoes other arguments: {row}")
        return row, prob

    def _report_values(self, p: dict, prob: float, statistic) -> np.ndarray:
        return np.array([statistic(*C.er_edges(p["seed"], p["n"], idx, prob))
                         for idx in range(p["samples"])], dtype=np.float64)

    def _mean_sd(self, row: dict, values: np.ndarray) -> None:
        C.require(_close(row["observed_mean"], float(values.mean())),
                  f"observed_mean {row['observed_mean']} != recomputed {values.mean()}")
        sd = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        C.require(_close(row["observed_sd"], sd),
                  f"observed_sd {row['observed_sd']} != recomputed {sd}")

    def _report_diameter(self, p: dict, text: str) -> None:
        row, prob = self._report_row(p, text, "diameter")
        n = p["n"]
        C.require(_close(row["predicted"], math.log(n) / math.log(n * prob)),
                  "predicted != log n / log np")
        values = self._report_values(p, prob, lambda u, v: C.component_diameter(n, u, v))
        self._mean_sd(row, values)
        if self.round.get("index", 0) == 0:  # networkx takes 1-3 s per graph here
            probe = p["seed"] % p["samples"]
            by_nx = C.nx_component_diameter(n, *C.er_edges(p["seed"], n, probe, prob))
            C.require(by_nx == values[probe], f"graph {probe}: networkx diameter {by_nx}, "
                                              f"BFS levels {values[probe]}")
        centre = C.riordan_wormald_diameter(n, float(p["d"]))
        half = DIAMETER_WINDOW + C.STAT_Z * DIAMETER_SD / math.sqrt(p["samples"])
        C.require(abs(row["observed_mean"] - centre) <= half,
                  f"mean diameter {row['observed_mean']} outside {centre:.3f} +- {half:.2f}")

    def _report_degree(self, p: dict, text: str) -> None:
        k = p["k"]
        row, prob = self._report_row(p, text, f"degree-count-{k}")
        n = p["n"]
        predicted = C.poisson_degree_prediction(n, prob * (n - 1), k)
        C.require(_close(row["predicted"], predicted, 1e-9), "predicted != n d^k e^-d / k!")
        values = self._report_values(p, prob, lambda u, v: C.degree_count(n, u, v, k))
        self._mean_sd(row, values)
        mean, var = C.degree_count_moments(n, prob, k)
        bound = abs(mean - predicted) + C.STAT_Z * math.sqrt(var / p["samples"])
        C.require(abs(row["observed_mean"] - predicted) <= bound,
                  f"degree-{k} count {row['observed_mean']} outside {predicted:.2f} "
                  f"+- {bound:.2f}")

    # exact-report: exact ----------------------------------------------

    def _exact_report(self, text: str, check: str) -> dict:
        payload = C.parse_single_json(text)
        self.schemas.validate("exact-report", payload)
        C.require(payload["check"] == check, f"check {payload['check']}")
        return payload

    def _exact_joint(self, p: dict, text: str) -> None:
        payload = self._exact_report(text, "joint")
        model, n = p["model"], p["n"]
        m = n * (n - 1) // 2
        params = {"p": float(p["p"])} if model == "er" else None
        self._model_json(payload, model, n, params)
        C.require(payload["m"] == m and payload["ok"] is True
                  and payload["sum_error"] <= C.PROB_TOL, f"joint report {payload}")
        if model == "er":
            ref = self._table(("er", n, p["p"]), lambda: C.er_joint(n, float(p["p"])))
        else:
            ref = self._table(("adjcount", n), lambda: C.adjcount_joint(n))
        if p["path"] is None:  # no table: its sum and minimum against the product form
            C.require(abs(payload["sum"] - float(ref.sum())) <= C.PROB_TOL,
                      f"sum {payload['sum']} != product-form sum {ref.sum()}")
            C.require(_close(payload["min_probability"], float(ref.min())),
                      f"min_probability {payload['min_probability']} != {ref.min()}")
            return
        path = Path(p["path"])
        try:
            probs = C.read_joint_csv(path, m)
        finally:
            path.unlink(missing_ok=True)
        tv = C.tv_distance(probs, ref)
        C.require(tv <= C.PROB_TOL, f"exported joint is at TV {tv:.3e} from the product form")
        C.require(_close(payload["sum"], float(probs.sum())), "sum != exported table sum")
        C.require(payload["min_probability"] == float(probs.min()),
                  "min_probability != exported table minimum")

    def _exact_coupling(self, p: dict, text: str) -> None:
        payload = self._exact_report(text, "coupling")
        self._model_json(payload, "adjcount", p["n"])
        C.require(payload["base"] == float(p["base"]), "base echo")
        C.require(payload["tv_union_vs_model"] <= C.PROB_TOL
                  and payload["tv_g1_vs_er"] <= C.PROB_TOL and payload["ok"] is True,
                  f"coupling marginals off: {payload}")

    def _exact_domination(self, p: dict, text: str) -> None:
        payload = self._exact_report(text, "domination")
        n, base = p["n"], float(p["base"])
        self._model_json(payload, "adjcount", n)
        C.require(payload["base"] == base and payload["property"] == p["property"], "echo")
        prob_er, prob_model = payload["prob_er"], payload["prob_model"]
        C.require(prob_er <= prob_model + C.PROB_TOL and payload["holds"] is True,
                  f"prob_er {prob_er} > prob_model {prob_model}")
        C.require(_close(payload["margin"], prob_model - prob_er), "margin != difference")
        has = self._table(("property", p["property"], n),
                          lambda: small_property_table(p["property"], n))
        er = self._table(("er", n, p["base"]), lambda: C.er_joint(n, base))
        model = self._table(("adjcount", n), lambda: C.adjcount_joint(n))
        ref_er, ref_model = float(er[has].sum()), float(model[has].sum())
        C.require(abs(prob_er - ref_er) <= C.PROB_TOL and abs(prob_model - ref_model) <= C.PROB_TOL,
                  f"{p['property']}: prob_er/prob_model {prob_er}/{prob_model}, "
                  f"enumerated {ref_er}/{ref_model}")
        if p["property"] == "connected":
            truth = C.gilbert_connected(n, p["base"])
            C.require(abs(prob_er - truth) <= C.PROB_TOL,
                      f"prob_er {prob_er} != Gilbert {truth}")
