"""The traced run: each command decomposed into the public calls it makes.

`traced_estimate`, `traced_score` and `traced_sim` repeat, step by step,
what `cli.cmd_estimate`, `effects.bootstrap_scores` and `sim.run_scenario`
do, with a span around each public call.  The caller compares their
outputs with the untraced command's, so the decomposition cannot drift
from the program unnoticed.  Two spans time an extra call that the
command makes internally and that the decomposition cannot reach:
`gauss.correlation` (the correlation matrix PC builds first) and
`graphs.enumerate` (the enumeration inside `global_effects`).
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from causalspan.cli import read_dataset
from causalspan.effects import (
    DEFAULT_MAX_DAGS,
    BootstrapScores,
    CovariateScore,
    global_effects,
    local_effects,
)
from causalspan.errors import CausalSpanError, ResourceCapError
from causalspan.gauss import CITestConfig, correlation_matrix
from causalspan.graphs import enumerate_dags, meek_closure, validate_cpdag
from causalspan.pc import PcResult, estimate_skeleton, orient_v_structures, repair_cpdag
from causalspan.sim import (
    SimRecord,
    error_measures,
    generate_data,
    population_effects,
    random_weighted_dag,
)

from workloads import ALPHA, MAX_ENUM, MAX_SIB

NO_MODS: frozenset[str] = frozenset()


class Tracer:
    """Spans and counters of one traced command, kept in memory until the
    run ends; `run_id` is shared by all its spans."""

    def __init__(self, run_id: int):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.distinct: set = set()
        self.dataset = 0   # numbers the datasets PC runs on, for distinct solves
        self.run_id = run_id
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Per layer (the span name up to its first dot): span durations
        minus the time covered by their child spans."""
        out: Counter = Counter()
        for s in self.spans:
            out[s["name"].split(".")[0]] += s["end"] - s["start"]
            if s["parent"] is not None:
                parent = self.spans[s["parent"]]["name"].split(".")[0]
                out[parent] -= s["end"] - s["start"]
        return dict(out)


# -- shared steps --------------------------------------------------------------


def traced_pc(t: Tracer, d, cfg: CITestConfig) -> PcResult:
    """`pc.pc_cpdag`, one public call at a time."""
    t.dataset += 1
    with t.span("gauss.correlation"):
        correlation_matrix(d)
    with t.span("pc.skeleton"):
        skeleton, sepsets, diag = estimate_skeleton(d, cfg)
    with t.span("pc.orient"):
        oriented = orient_v_structures(skeleton, sepsets, diag)
    with t.span("graphs.meek"):
        closed = meek_closure(oriented)
    with t.span("graphs.validate"):
        validation = validate_cpdag(closed)
    for level, k in diag.tests_per_level.items():
        t.counts["pc.ci_tests"] += k
        t.counts["pc.ci_tests." + (f"l{level}" if level < 3 else "l3plus")] += k
    t.counts["pc.collider_overwrites"] += len(diag.overwrites)
    return PcResult(closed, sepsets, diag, validation)


def traced_repair(t: Tracer, res: PcResult, seed: int):
    with t.span("pc.repair"):
        rep = repair_cpdag(res, seed=seed)
    t.counts["pc.repairs"] += 1
    return rep


def traced_global(t: Tracer, d, g, y: int):
    """`effects.global_effects`, preceded by the enumeration it makes."""
    try:
        with t.span("graphs.enumerate"):
            t.counts["graphs.class_dags"] += len(enumerate_dags(g, MAX_ENUM, DEFAULT_MAX_DAGS))
    except CausalSpanError:
        pass  # global_effects raises the same error below
    with t.span("effects.global"):
        theta = global_effects(d, g, y, NO_MODS, MAX_ENUM, DEFAULT_MAX_DAGS)
    for i, row in zip(theta.covariates, theta.adjustments):
        for adj in row:
            if adj is not None:
                t.counts["gauss.solves"] += 1
                t.distinct.add((t.dataset, i, adj))
    return theta


def count_local(t: Tracer, multisets) -> None:
    for m in multisets:
        t.counts["effects.entries"] += len(m.entries)
        for e in m.entries:
            if e.adjustment is not None:
                t.counts["gauss.solves"] += 1
                t.distinct.add((t.dataset, m.covariate, e.adjustment))


# -- commands ------------------------------------------------------------------


def traced_estimate(t: Tracer, path: str, response: str, method: str) -> dict:
    """`cli.cmd_estimate`; returns the report fields that depend on data."""
    with t.span("cli.estimate"):
        with t.span("cli.read"):
            d = read_dataset(path, response).standardize()
        res = traced_pc(t, d, CITestConfig(ALPHA))
        names = list(d.names)
        repair_info = None
        g = res.graph
        if method == "global":
            if not res.validation.is_valid:
                rep = traced_repair(t, res, 0)
                g = rep.graph
                repair_info = {"stage": rep.stage, "detail": rep.detail}
            theta = traced_global(t, d, g, d.response)
            multisets = [theta.row_multiset(i) for i in d.covariates]
            t.counts["effects.entries"] += sum(len(m.entries) for m in multisets)
        else:
            with t.span("effects.local"):
                multisets = [local_effects(d, g, i, d.response, NO_MODS, MAX_SIB, MAX_ENUM)
                             for i in d.covariates]
            count_local(t, multisets)
        with t.span("cli.write"):
            report = {
                "graph": g.to_json_dict(names),
                "repair": repair_info,
                "effects": [m.to_json_dict(names) for m in multisets],
                "diagnostics": {
                    **res.diagnostics.to_json_dict(),
                    "valid_cpdag": res.validation.is_valid,
                    "validation_problems": list(res.validation.problems),
                },
            }
            text = json.dumps(report, indent=2)
    return json.loads(text)


def traced_score(t: Tracer, path: str, response: str, b: int, seed: int) -> list[str]:
    """`cli.cmd_score` around `effects.bootstrap_scores`; returns CSV lines."""
    with t.span("cli.score"):
        with t.span("cli.read"):
            d = read_dataset(path, response).standardize()
        cfg = CITestConfig(ALPHA)
        y = d.response
        covariates = d.covariates

        def run(ds):
            res = traced_pc(t, ds, cfg)
            out = {}
            with t.span("effects.local"):
                for i in covariates:
                    try:
                        out[i] = local_effects(ds, res.graph, i, y, NO_MODS, MAX_SIB)
                    except CausalSpanError:
                        out[i] = None
            count_local(t, [m for m in out.values() if m is not None])
            return out

        full = run(d)
        mins = {i: [] for i in covariates}
        ambigs = {i: [] for i in covariates}
        failures = {i: 0 for i in covariates}
        for child in np.random.SeedSequence(seed).spawn(b):
            with t.span("effects.replicate"):
                rng = np.random.default_rng(child)
                idx = rng.integers(0, d.n, size=d.n)
                rep = run(d.resample_rows(idx))
            for i in covariates:
                if rep[i] is None:
                    failures[i] += 1
                else:
                    mins[i].append(rep[i].min_abs())
                    ambigs[i].append(rep[i].ambiguity())
        scores = []
        for i in covariates:
            score = statistics.median(mins[i]) if mins[i] else math.nan
            full_amb = full[i].ambiguity() if full[i] is not None else None
            scores.append(CovariateScore(i, float(score), full_amb, tuple(ambigs[i]), failures[i]))
        t.counts["effects.covariate_failures"] += sum(failures.values())
        with t.span("cli.write"):
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["covariate", "score", "ambiguity", "failures"])
            for s in BootstrapScores(y, b, tuple(scores)).ranked():
                writer.writerow([d.names[s.covariate], repr(s.score),
                                 "" if s.full_data_ambiguity is None else s.full_data_ambiguity,
                                 s.failures])
    return buf.getvalue().splitlines()


def traced_sim(t: Tracer, scenario) -> list[SimRecord]:
    """`sim.run_scenario` with both methods and truth on; runtimes are 0."""
    cfg = CITestConfig(ALPHA)
    records = []
    nv = scenario.n_vertices
    with t.span("sim.scenario"):
        for k, child in enumerate(np.random.SeedSequence(scenario.seed).spawn(scenario.n_reps)):
            rng = np.random.default_rng(child)
            with t.span("sim.model"):
                w = random_weighted_dag(nv, scenario.en, rng, scenario.blocks)
                y = int(rng.integers(nv))
                x = int(rng.choice([v for v in range(nv) if v != y]))
                data = generate_data(w, scenario.n, rng, response=y)
            truth, truth_status = None, "ok"
            with t.span("sim.truth"):
                try:
                    truth = population_effects(w, x, y, "global", max_component_edges=MAX_ENUM,
                                               max_dags=DEFAULT_MAX_DAGS)
                    t.counts["sim.truth_dags"] += truth.size()
                except ResourceCapError:
                    truth_status = "truth_resource_error"
                except CausalSpanError:
                    truth_status = "truth_error"
            graph, pc_error = None, None
            with t.span("sim.structure"):
                try:
                    res = traced_pc(t, data, cfg)
                    graph = res.graph
                    if not res.validation.is_valid:
                        graph = traced_repair(t, res, scenario.seed).graph
                except CausalSpanError as e:
                    pc_error = e
            for method in ("local", "global"):
                est, status = None, "ok"
                if pc_error is not None:
                    status = f"failed:{type(pc_error).__name__}"
                else:
                    with t.span(f"sim.{method}"):
                        try:
                            if method == "local":
                                with t.span("effects.local"):
                                    est = local_effects(data, graph, x, y, max_siblings=MAX_SIB,
                                                        max_component_edges=MAX_ENUM,
                                                        max_dags=DEFAULT_MAX_DAGS)
                                count_local(t, [est])
                            else:
                                est = traced_global(t, data, graph, y).row_multiset(x)
                                t.counts["effects.entries"] += len(est.entries)
                        except ResourceCapError:
                            status = "failed:ResourceCapError"
                        except CausalSpanError as e:
                            status = f"failed:{type(e).__name__}"
                e2_ave = e2_min = None
                if est is not None and truth is not None:
                    e2_ave, e2_min = error_measures(est, truth)
                elif est is not None and status == "ok":
                    status = truth_status
                records.append(SimRecord(k, method, e2_ave, e2_min, 0.0, status, x, y))
    return records


# -- per-layer metrics ---------------------------------------------------------

TIMES = {
    "pc.skeleton_s": "pc.skeleton", "pc.orient_s": "pc.orient", "pc.repair_s": "pc.repair",
    "graphs.meek_s": "graphs.meek", "graphs.validate_s": "graphs.validate",
    "graphs.enumerate_s": "graphs.enumerate", "gauss.correlation_s": "gauss.correlation",
    "effects.local_s": "effects.local", "effects.global_s": "effects.global",
    "sim.model_s": "sim.model", "sim.truth_s": "sim.truth", "sim.structure_s": "sim.structure",
    "sim.local_s": "sim.local", "sim.global_s": "sim.global", "cli.read_s": "cli.read",
}
COUNTS = (
    "pc.ci_tests", "pc.ci_tests.l0", "pc.ci_tests.l1", "pc.ci_tests.l2", "pc.ci_tests.l3plus",
    "pc.collider_overwrites", "pc.repairs", "graphs.class_dags", "gauss.solves",
    "effects.entries", "effects.covariate_failures", "sim.truth_dags",
)


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer numbers from one traced command."""
    m = {name: t.total(span) for name, span in TIMES.items()}
    m.update({name: t.counts[name] for name in COUNTS})
    solves = t.counts["gauss.solves"]
    m["gauss.distinct_solves"] = len(t.distinct)
    m["gauss.solve_useful_ratio"] = len(t.distinct) / solves if solves else 0.0
    solve_s = t.total("effects.global") + t.total("effects.local") - t.total("graphs.enumerate")
    m["gauss.us_per_solve"] = 1e6 * solve_s / solves if solves else 0.0
    tests = t.counts["pc.ci_tests"]
    m["pc.us_per_ci_test"] = 1e6 * t.total("pc.skeleton") / tests if tests else 0.0
    replicates = t.durations("effects.replicate")
    m["effects.replicate_s"] = statistics.median(replicates) if replicates else 0.0
    # The command's own time outside the library calls and reading.  It is
    # taken inside the traced command: the difference between an untraced
    # and a traced run is swamped by the machine's run-to-run drift.
    m["cli.other_s"] = t.self_times().get("cli", 0.0) - m["cli.read_s"]
    return m
