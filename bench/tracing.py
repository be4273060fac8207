"""Traced run: the workload's calls replayed layer by layer, with spans.

For every step of the workload's round the traced run measures these walls
in this process:

* ``cli``: ``probust.cli.main(argv)``, output checked as in the timed run;
* ``mirror``: the library calls that command makes for the same job
  (``coupled_domination_test`` for ``verify --mode coupled``,
  ``asymptotic_report`` for ``report``, else the untraced replay);
* ``replay`` untraced and traced, twice each, alternating, the faster of
  each kept: the same work as a sequence of calls into the layers
  (``derive_rng``, ``generate_coupled``, ``neighbor_masks``, each oracle's
  ``decide``, ``exact_joint``, ...), with a span around each call in the
  traced passes; the spans of the last traced pass are kept.

``cli`` minus ``mirror`` is the CLI's own time (argument parsing, JSON);
traced minus untraced replay is the tracing overhead. Spans stay in memory
and are written to ``.bench_out/trace-<workload>-seed<seed>.json`` at the
end. A layer the workload does not exercise (``exact`` on ``sample-n10``,
say) is timed on a small round of the commands that do, tagged ``probe``;
every per-layer metric is therefore reported on every workload. No span is
placed inside the program: all of them wrap public calls from here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import statistics
import sys
import time
from pathlib import Path

import checks as C
import spec
import workloads as W

ORACLE_NAMES = {
    "clique": "clique",
    "chrom": "chromatic",
    "match": "matching",
    "diam": "diameter",
    "domset": "dominating",
    "ham": "hamiltonian",
    "connected": "connected",
}
PROBE = "probe"


def oracle_layer(prop: str) -> str:
    return "properties." + ORACLE_NAMES[prop.split(">=")[0].split("<=")[0]]


# ---------------------------------------------------------------------------
# spans


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer, self.record = tracer, record

    def __enter__(self):
        self.tracer.stack.append(self.record[0])
        self.record[2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[3] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    """Spans [id, name, start, end, parent, workload, attrs], kept in memory."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.tag = PROBE
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _NO_SPAN
        parent = self.stack[-1] if self.stack else None
        record = [len(self.spans), name, 0.0, 0.0, parent, self.tag, attrs]
        self.spans.append(record)
        return _Span(self, record)

    def write(self, path: Path) -> None:
        child_time = [0.0] * len(self.spans)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        rows = [
            {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
             "workload": tag, "self": end - start - child_time[sid], "attrs": attrs}
            for sid, name, start, end, parent, tag, attrs in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}), encoding="utf-8")


# ---------------------------------------------------------------------------
# replays: the calls each CLI command makes, one span per layer call


def _p():
    import probust

    return probust


def _decide(t: Tracer, oracle, g) -> bool:
    with t.span("graphs.neighbor_masks"):
        g.neighbor_masks
    with t.span(oracle_layer(oracle.name)):
        return oracle.decide(g)


def _certify(t: Tracer, oracle, n: int, key: tuple) -> None:
    pb = _p()
    with t.span("rngstreams.derive_rng"):
        rng = pb.derive_rng(*key)
    with t.span("properties.certify_monotone"):
        cert = pb.certify_monotone(oracle, n, 2000, rng)
    C.require(cert.ok, f"{oracle.name} failed certification in the replay")


def replay_couple(t: Tracer, p: dict) -> None:
    pb = _p()
    with t.span("models.build"):
        params = pb.CouplingParams(float(p["base"]), pb.adjacency_count_model(p["n"]))
    m = params.model.space.m
    for idx in range(p["samples"]):
        with t.span("rngstreams.derive_rng"):
            rng = pb.derive_rng(p["seed"], idx)
        with t.span("coupling.generate_coupled", edges=m):
            triple = pb.generate_coupled(params, rng)
        with t.span("graphs.to_hex", count=3):
            triple.g1.to_hex(), triple.g2.to_hex(), triple.u.to_hex()


def replay_verify_coupled(t: Tracer, p: dict) -> None:
    pb = _p()
    with t.span("models.build"):
        params = pb.CouplingParams(float(p["base"]), pb.adjacency_count_model(p["n"]))
        oracle = pb.parse_property(p["property"])
    _certify(t, oracle, p["n"], (p["seed"], 0, 0))
    m = params.model.space.m
    for idx in range(p["samples"]):
        with t.span("rngstreams.derive_rng"):
            rng = pb.derive_rng(p["seed"], idx)
        with t.span("coupling.generate_coupled", edges=m):
            triple = pb.generate_coupled(params, rng)
        _decide(t, oracle, triple.g1)
        _decide(t, oracle, triple.u)


def mirror_verify_coupled(p: dict) -> None:
    pb = _p()
    params = pb.CouplingParams(float(p["base"]), pb.adjacency_count_model(p["n"]))
    oracle = pb.parse_property(p["property"])
    _certify(Tracer(False), oracle, p["n"], (p["seed"], 0, 0))
    pb.coupled_domination_test(params, oracle, p["samples"], p["seed"], workers=p["threads"])


def replay_verify_independent(t: Tracer, p: dict) -> None:
    pb = _p()
    n = p["n"]
    with t.span("models.build"):
        sources = (pb.er_model(n, float(p["base"])), pb.adjacency_count_model(n))
        oracle = pb.parse_property(p["property"])
    _certify(t, oracle, n, (p["seed"], 0, 0))
    m = sources[0].space.m
    for branch, source in enumerate(sources):
        for idx in range(p["samples"]):
            with t.span("rngstreams.derive_rng"):
                rng = pb.derive_rng(p["seed"], branch, idx)
            with t.span("models.sample_direct", edges=m):
                g = pb.sample_direct(source, rng)
            _decide(t, oracle, g)


def replay_generate(t: Tracer, p: dict) -> None:
    from probust.models import satisfies_min_adjacent

    pb = _p()
    with t.span("models.build"):
        model = pb.conditioned_adjacency_model(p["n"])
    m = model.space.m
    for idx in range(p["samples"]):
        with t.span("rngstreams.derive_rng"):
            rng = pb.derive_rng(p["seed"], idx)
        attempts = 0
        while True:
            attempts += 1
            with t.span("models.sample_direct", edges=m):
                g = pb.sample_direct(model.base_model, rng)
            with t.span("models.satisfies_min_adjacent"):
                if satisfies_min_adjacent(g, model.min_adjacent):
                    break
        with t.span("models.conditioned", attempts=attempts):
            pass
        with t.span("graphs.to_hex"):
            g.to_hex()


def _report_formula(p: dict, kind: str):
    pb = _p()
    if kind == "report-diameter":
        return pb.FORMULAS["diameter"], pb.diameter, "properties.diameter_large"
    from probust.montecarlo import degree_count_statistic

    return (pb.degree_count_formula(p["k"]), degree_count_statistic(p["k"]),
            "graphs.degree_histogram")


def _replay_report(t: Tracer, p: dict, kind: str) -> None:
    pb = _p()
    _, statistic, layer = _report_formula(p, kind)
    n = p["n"]
    prob = float(p["d"]) / (n - 1)
    space = pb.EdgeSpace(n)
    with t.span("graphs.edgespace_pairs"):
        space.pairs
    for idx in range(p["samples"]):
        with t.span("rngstreams.derive_rng"):
            rng = pb.derive_rng(p["seed"], n, idx)
        with t.span("montecarlo.er_realization"):
            g = pb.er_realization(space, prob, rng)
        with t.span(layer):
            statistic(g)


def _mirror_report(p: dict, kind: str) -> None:
    pb = _p()
    formula, statistic, _ = _report_formula(p, kind)
    pb.asymptotic_report(formula, statistic, [p["n"]], None, p["samples"], p["seed"],
                         degree=float(p["d"]))


def _counting(model):
    """The same model with a conditional that counts its calls."""
    calls = [0]
    inner = model.conditional

    def conditional(i, history):
        calls[0] += 1
        return inner(i, history)

    return dataclasses.replace(model, conditional=conditional), calls


def _exact_joint(t: Tracer, model):
    pb = _p()
    counted, calls = _counting(model)
    with t.span("exact.exact_joint") as span:
        dist = pb.exact_joint(counted)
    if t.enabled:
        span.record[6]["conditional_calls"] = calls[0]
    return dist


def _joint_model(p: dict):
    pb = _p()
    if p["model"] == "er":
        return pb.er_model(p["n"], float(p["p"]))
    return pb.adjacency_count_model(p["n"])


def replay_exact_joint(t: Tracer, p: dict) -> None:
    with t.span("models.build"):
        model = _joint_model(p)
    dist = _exact_joint(t, model)
    if p["path"] is None:
        return
    path = Path(p["path"])
    try:
        with t.span("exact.to_csv", entries=dist.probs.size):
            dist.to_csv(path)
    finally:
        path.unlink(missing_ok=True)


def replay_exact_coupling(t: Tracer, p: dict) -> None:
    pb = _p()
    n, base = p["n"], float(p["base"])
    with t.span("models.build"):
        model = pb.adjacency_count_model(n)
        params = pb.CouplingParams(base, model)
    with t.span("exact.exact_coupling_joint"):
        joint = pb.exact_coupling_joint(params)
    with t.span("exact.union_marginal"):
        union = joint.union_marginal()
    model_dist = _exact_joint(t, model)
    with t.span("exact.tv_distance"):
        pb.tv_distance(union, model_dist)
    with t.span("exact.g1_marginal"):
        g1 = joint.g1_marginal()
    er_dist = _exact_joint(t, pb.er_model(n, base))
    with t.span("exact.tv_distance"):
        pb.tv_distance(g1, er_dist)


def replay_exact_domination(t: Tracer, p: dict) -> None:
    pb = _p()
    n, base = p["n"], float(p["base"])
    with t.span("models.build"):
        model = pb.adjacency_count_model(n)
        oracle = pb.parse_property(p["property"])
    _certify(t, oracle, n, (p["seed"], 0))
    model_dist = _exact_joint(t, model)
    er_dist = _exact_joint(t, pb.er_model(n, base))
    for dist in (er_dist, model_dist):
        with t.span("exact.exact_probability", entries=dist.probs.size):
            pb.exact_probability(dist, oracle)


REPLAYS = {
    "couple": (replay_couple, None),
    "verify-coupled": (replay_verify_coupled, mirror_verify_coupled),
    "verify-independent": (replay_verify_independent, None),
    "generate": (replay_generate, None),
    "report-diameter": (lambda t, p: _replay_report(t, p, "report-diameter"),
                        lambda p: _mirror_report(p, "report-diameter")),
    "report-degree": (lambda t, p: _replay_report(t, p, "report-degree"),
                      lambda p: _mirror_report(p, "report-degree")),
    "exact-joint": (replay_exact_joint, None),
    "exact-coupling": (replay_exact_coupling, None),
    "exact-domination": (replay_exact_domination, None),
}


# ---------------------------------------------------------------------------
# per-kind breakdowns: layers the replay reaches only inside other calls


def _sweep(t: Tracer, n: int, masks: list[int], props, walks: bool) -> None:
    """Construction, neighbour masks and every oracle on the same graphs; with
    ``walks``, also the edge-pair table and the bit walks, for a workload
    whose replay has none."""
    pb = _p()
    space = pb.EdgeSpace(n)
    with t.span("graphs.edgespace_pairs" if walks else "graphs.edgespace_pairs.sweep"):
        space.pairs
    count = len(masks)
    with t.span("graphs.realization", count=count):
        graphs = [pb.Realization(space, bits) for bits in masks]
    with t.span("graphs.neighbor_masks", count=count):
        for g in graphs:
            g.neighbor_masks
    if walks:
        with t.span("graphs.present_edges", count=count):
            for g in graphs:
                list(g.present_edges())
        with t.span("graphs.degree_histogram", count=count):
            for g in graphs:
                pb.degree_histogram(g)
    for prop in props:
        oracle = pb.parse_property(prop)
        with t.span(oracle_layer(prop), count=count):
            for g in graphs:
                oracle.decide(g)


def breakdown_verify_coupled(t: Tracer, p: dict) -> None:
    pb = _p()
    params = pb.CouplingParams(float(p["base"]), pb.adjacency_count_model(p["n"]))
    oracle = pb.parse_property(p["property"])
    for workers in (1, p["threads"]):
        with t.span("montecarlo.coupled_domination_test", workers=workers):
            pb.coupled_domination_test(params, oracle, p["samples"], p["seed"], workers=workers)
    unions = [pb.generate_coupled(params, pb.derive_rng(p["seed"], idx)).u.bits
              for idx in range(min(p["samples"], spec.SWEEP_GRAPHS))]
    _sweep(t, p["n"], unions, spec.SWEEP_PROPERTIES, walks=True)


def breakdown_exact_domination(t: Tracer, p: dict) -> None:
    n = p["n"]
    _sweep(t, n, list(range(1 << (n * (n - 1) // 2))), spec.DOMINATION_PROPERTIES,
           walks=False)


def breakdown_report(t: Tracer, p: dict) -> None:
    pb = _p()
    n = p["n"]
    g = pb.er_realization(pb.EdgeSpace(n), float(p["d"]) / (n - 1), pb.derive_rng(p["seed"], n, 0))
    with t.span("graphs.edgespace_pairs"):
        g.space.pairs
    with t.span("graphs.present_edges"):
        list(g.present_edges())


BREAKDOWNS = {
    "verify-coupled": breakdown_verify_coupled,
    "exact-domination": breakdown_exact_domination,
    "report-diameter": breakdown_report,
}


# ---------------------------------------------------------------------------
# the traced run


def probe_rounds(native: list[W.Step], seed: int, out_dir: Path) -> list[W.Step]:
    """Small rounds of the command families the workload lacks, so every layer is reached."""
    kinds = {step.kind for step in native}
    steps = []
    if "couple" not in kinds:
        steps += [
            W.couple_step(10, "0.3", 256, seed),
            W.verify_coupled_step(10, "0.3", "match>=4", 256, spec.THREADS, seed),
            W.verify_independent_step(10, "0.3", "connected", 256, seed),
            W.generate_step(10, 128, seed),
        ]
    if "report-diameter" not in kinds:
        steps += [
            W.report_diameter_step(1000, "10", 1, seed),
            W.report_degree_step(1000, 5, "5", 1, seed),
        ]
    if "exact-joint" not in kinds:
        steps += [
            W.exact_joint_step("adjcount", 5, None, out_dir),
            W.exact_coupling_step(4, "0.3"),
            W.exact_domination_step(5, "0.3", "connected", seed),
        ]
    return steps


def _wall(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def traced_run(workload: str, seed: int, root: Path) -> dict:
    import run

    sys.path.insert(0, str(root / "src"))
    import probust
    from probust import cli

    origin = Path(probust.__file__).resolve()
    if not origin.is_relative_to((root / "src").resolve()):
        raise SystemExit(f"imported probust from {origin}, not from this checkout")
    out_dir = root / run.OUT_DIR
    out_dir.mkdir(exist_ok=True)
    import_times = []
    for _ in range(3):
        runner = run.Runner(root, workload)
        import_times.append(runner.import_s)
        runner.close()
    checker = W.Checker(C.Schemas(root / "src" / "probust" / "schemas"))
    tally = run.Tally()
    tracer = Tracer()
    untraced = Tracer(enabled=False)
    rows = []  # (tag, step, cli_s, mirror_s, replay_s, traced_s, output_bytes)
    rseed = W.round_seed(seed, 0)
    native = W.build_round(workload, rseed, out_dir)
    plan = [(workload, s) for s in native]
    plan += [(PROBE, s) for s in probe_rounds(native, rseed, out_dir)]
    done_breakdowns = set()
    checker.new_round(0)
    for tag, step in plan:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(step.argv))
        cli_s = time.perf_counter() - start
        result = W.Result(code, cli_s, out.getvalue(), err.getvalue())
        tally.record(checker, step, result)
        replay, mirror = REPLAYS[step.kind]
        # untraced and traced replays alternate twice and the faster of each
        # counts, so a change of machine speed between them is not read as overhead
        replay_s = _wall(replay, untraced, step.params)
        traced_s = _wall(replay, Tracer(), step.params)
        replay_s = min(replay_s, _wall(replay, untraced, step.params))
        mirror_s = _wall(mirror, step.params) if mirror else replay_s
        tracer.tag = tag
        with tracer.span(f"replay.{step.kind}", cli_s=cli_s, mirror_s=mirror_s):
            traced_s = min(traced_s, _wall(replay, tracer, step.params))
        if step.kind in BREAKDOWNS and (tag, step.kind) not in done_breakdowns:
            done_breakdowns.add((tag, step.kind))
            BREAKDOWNS[step.kind](tracer, step.params)
        rows.append((tag, step, cli_s, mirror_s, replay_s, traced_s,
                     len(result.stdout.encode("utf-8"))))

    trace_path = out_dir / f"trace-{workload}-seed{seed}.json"
    tracer.write(trace_path)
    metrics = layer_metrics(workload, tracer.spans, rows)
    metrics["setup.import_s"] = (statistics.median(import_times), "s")
    replay_total = sum(r[4] for r in rows)
    traced_total = sum(r[5] for r in rows)
    cli_total = sum(r[2] for r in rows if r[0] == workload)
    print(f"{workload}: traced run, seed {seed}, {len(tracer.spans)} spans in {trace_path}")
    print(f"  cli wall {cli_total:.3f} s on the workload's round; replay untraced "
          f"{replay_total:.3f} s, traced {traced_total:.3f} s (all steps)")
    print(f"  tracing overhead {traced_total - replay_total:+.3f} s "
          f"({metrics['trace.overhead_share'][0]:+.2%} of the untraced replay)")
    return run.result_line(tally, metrics)


def layer_metrics(workload: str, spans: list[list], rows: list[tuple]) -> dict:
    by_name: dict[str, dict[str, list]] = {}
    for _, name, start, end, _, tag, attrs in spans:
        side = "native" if tag == workload else "probe"
        by_name.setdefault(name, {"native": [], "probe": []})[side].append((end - start, attrs))

    def pick(name):
        found = by_name.get(name, {"native": [], "probe": []})
        chosen = found["native"] or found["probe"]
        if not chosen:
            raise RuntimeError(f"no span named {name}")
        return chosen

    def total(name):
        return sum(d for d, _ in pick(name))

    def per(name, key="count", default=1):
        chosen = pick(name)
        return sum(d for d, _ in chosen) / sum(a.get(key, default) for _, a in chosen)

    def attr_sum(name, key):
        return sum(a[key] for _, a in pick(name))

    tests = {a["workers"]: d for d, a in pick("montecarlo.coupled_domination_test")}
    serial, parallel = tests[1], tests[spec.THREADS]
    attempts = attr_sum("models.conditioned", "attempts")
    accepts = len(pick("models.conditioned"))
    m = {
        "rngstreams.derive_rng.calls": (len(pick("rngstreams.derive_rng")), "count"),
        "rngstreams.derive_rng.us_per_call": (1e6 * per("rngstreams.derive_rng"), "us"),
        "models.sample_direct.us_per_edge": (1e6 * per("models.sample_direct", "edges"), "us"),
        "models.conditioned.attempts": (attempts, "count"),
        "models.conditioned.accepts": (accepts, "count"),
        "models.conditioned.attempts_per_accept": (attempts / accepts, "ratio"),
        "coupling.generate_coupled.us_per_edge":
            (1e6 * per("coupling.generate_coupled", "edges"), "us"),
        "graphs.neighbor_masks.us_per_call": (1e6 * per("graphs.neighbor_masks"), "us"),
        "graphs.present_edges.ms_per_call": (1e3 * per("graphs.present_edges"), "ms"),
        "graphs.edgespace_pairs.ms": (1e3 * per("graphs.edgespace_pairs"), "ms"),
        "graphs.degree_histogram.ms_per_call": (1e3 * per("graphs.degree_histogram"), "ms"),
        "graphs.realization.us_per_call": (1e6 * per("graphs.realization"), "us"),
    }
    for layer in ORACLE_NAMES.values():
        m[f"properties.{layer}.us_per_decide"] = (1e6 * per(f"properties.{layer}"), "us")
    m.update({
        "properties.diameter_large.ms_per_call": (1e3 * per("properties.diameter_large"), "ms"),
        "properties.certify_monotone.ms": (1e3 * per("properties.certify_monotone"), "ms"),
        "exact.exact_joint.s": (total("exact.exact_joint"), "s"),
        "exact.exact_joint.conditional_calls":
            (attr_sum("exact.exact_joint", "conditional_calls"), "count"),
        "exact.exact_coupling_joint.s": (total("exact.exact_coupling_joint"), "s"),
        "exact.union_marginal.s": (total("exact.union_marginal"), "s"),
        "exact.tv_distance.ms": (1e3 * total("exact.tv_distance"), "ms"),
        "exact.exact_probability.us_per_entry":
            (1e6 * per("exact.exact_probability", "entries"), "us"),
        "montecarlo.parallel_efficiency": (serial / (spec.THREADS * parallel), "ratio"),
        "montecarlo.serial_wall_s": (serial, "s"),
        "montecarlo.parallel_wall_s": (parallel, "s"),
        "montecarlo.er_realization.us_per_call": (1e6 * per("montecarlo.er_realization"), "us"),
    })
    report_rows = [r for r in rows if r[1].command == "report"]
    native_reports = [r for r in report_rows if r[0] == workload] or report_rows
    m["montecarlo.asymptotic_report.self_s"] = (sum(r[3] - r[4] for r in native_reports), "s")
    for command in ("generate", "couple", "verify", "report", "exact"):
        chosen = [r for r in rows if r[1].command == command]
        chosen = [r for r in chosen if r[0] == workload] or chosen
        m[f"cli.{command}.self_s"] = (sum(r[2] - r[3] for r in chosen), "s")
        m[f"cli.{command}.output_bytes"] = (sum(r[6] for r in chosen), "bytes")
    replay_total = sum(r[4] for r in rows)
    traced_total = sum(r[5] for r in rows)
    m["trace.overhead_share"] = ((traced_total - replay_total) / replay_total, "ratio")
    m["trace.spans"] = (len(spans), "count")
    return m
