"""Synthetic model generation, exact population quantities, error measures,
and the replicated evaluation loop."""

import dataclasses
import io
import re
import statistics
import types

import numpy as np
import pytest

from causalspan import (
    Dataset,
    EffectEntry,
    EffectMultiset,
    PDGraph,
    SimRecord,
    SimScenario,
    WeightedDag,
    effects,
    error_measures,
    generate_data,
    pc,
    population_covariance,
    population_effects,
    random_weighted_dag,
    run_scenario,
    sim,
)
from causalspan.sim import write_records_csv, summarize_records

from conftest import _weighted


def chain3() -> WeightedDag:
    """0 -> 1 -> 2 with unit weights."""
    return _weighted(3, {(1, 0): 1.0, (2, 1): 1.0})


class TestWeightedDag:
    def test_rejects_graphs_with_undirected_edges(self):
        g = PDGraph(2, undirected=[(0, 1)])
        with pytest.raises(ValueError, match="DAG"):
            WeightedDag(g, np.zeros((2, 2)))

    def test_rejects_shape_mismatch(self):
        g = PDGraph(3, directed=[(0, 1)])
        with pytest.raises(ValueError, match="shape"):
            WeightedDag(g, np.zeros((2, 2)))

    def test_rejects_weights_off_the_edge_set(self):
        g = PDGraph(2, directed=[(0, 1)])
        with pytest.raises(ValueError, match="parents"):
            WeightedDag(g, np.zeros((2, 2)))  # missing the 0 -> 1 weight
        w = np.zeros((2, 2))
        w[0, 1] = 3.0  # would mean 1 -> 0, which the graph lacks
        with pytest.raises(ValueError, match="parents"):
            WeightedDag(g, w)

    def test_names_the_first_vertex_whose_weights_differ(self):
        # Random DAGs with random weights added or removed: the vertex named
        # is the first whose nonzero weights are not its parents.
        rng = np.random.default_rng(5)
        for _ in range(200):
            w = random_weighted_dag(6, 2.0, rng).weights.copy()
            g = PDGraph(6, directed=[(int(j), int(i)) for i, j in zip(*np.nonzero(w))])
            flips = rng.integers(0, 6, size=(int(rng.integers(1, 4)), 2))
            w[flips[:, 0], flips[:, 1]] = np.where(w[flips[:, 0], flips[:, 1]] == 0, 1.5, 0.0)
            wrong = [i for i in range(6) if set(np.nonzero(w[i])[0]) != g.parents(i)]
            if not wrong:
                WeightedDag(g, w)
                continue
            with pytest.raises(ValueError) as e:
                WeightedDag(g, w)
            assert str(e.value) == f"weights for vertex {wrong[0]} do not match its parents"

    def test_rejects_non_finite_weights(self):
        g = PDGraph(2, directed=[(0, 1)])
        w = np.zeros((2, 2))
        w[1, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            WeightedDag(g, w)

    def test_order_is_topological_and_weights_frozen(self):
        w = chain3()
        order = w.order
        pos = {v: k for k, v in enumerate(order)}
        for u, v in w.graph.directed_edges():
            assert pos[u] < pos[v]
        assert w.n == 3
        with pytest.raises(ValueError):
            w.weights[0, 0] = 5.0


class TestRandomWeightedDag:
    def test_deterministic_given_seed(self):
        a = random_weighted_dag(8, 3.0, np.random.default_rng(4))
        b = random_weighted_dag(8, 3.0, np.random.default_rng(4))
        assert a.graph == b.graph
        assert np.array_equal(a.weights, b.weights)

    def test_edges_follow_vertex_order(self):
        w = random_weighted_dag(10, 4.0, np.random.default_rng(0))
        for u, v in w.graph.directed_edges():
            assert u < v

    def test_weights_lie_in_unit_to_two(self):
        w = random_weighted_dag(12, 5.0, np.random.default_rng(1))
        nz = w.weights[w.weights != 0.0]
        assert nz.size > 0
        assert np.all((nz >= 1.0) & (nz <= 2.0))

    def test_expected_edge_count_matches_degree_parameter(self):
        # Each of the C(p, 2) slots is filled with probability en/(p-1),
        # so a 10-vertex draw with en=4 has 20 edges on average.
        rng = np.random.default_rng(123)
        counts = [
            len(random_weighted_dag(10, 4.0, rng).graph.directed_edges())
            for _ in range(2000)
        ]
        assert abs(statistics.fmean(counts) - 20.0) < 0.4

    def test_saturated_degree_gives_complete_order(self):
        w = random_weighted_dag(4, 10.0, np.random.default_rng(2))
        assert len(w.graph.directed_edges()) == 6

    def test_blocks_forbid_cross_edges(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            w = random_weighted_dag(6, 1.5, rng, blocks=2)
            for u, v in w.graph.directed_edges():
                assert (u < 3) == (v < 3), "edge crosses the block boundary"


class TestSimScenario:
    def test_valid_configuration(self):
        s = SimScenario(10, 3.0, 100, 5, blocks=2, seed=1)
        assert s.n_vertices == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_vertices=1, en=0.5, n=10, n_reps=1),
            dict(n_vertices=5, en=0.0, n=10, n_reps=1),
            dict(n_vertices=5, en=5.0, n=10, n_reps=1),
            dict(n_vertices=5, en=2.0, n=1, n_reps=1),
            dict(n_vertices=5, en=2.0, n=10, n_reps=0),
            dict(n_vertices=6, en=2.0, n=10, n_reps=1, blocks=4),
            dict(n_vertices=6, en=2.0, n=10, n_reps=1, blocks=6),
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimScenario(**kwargs)


class TestGenerateData:
    def test_deterministic_given_seed(self):
        w = chain3()
        a = generate_data(w, 50, 7)
        b = generate_data(w, 50, np.random.default_rng(7))
        assert np.array_equal(a.values, b.values)

    def test_shape_names_and_response_defaults(self):
        d = generate_data(chain3(), 40, 0)
        assert d.values.shape == (40, 3)
        assert d.names == ("X1", "X2", "X3")
        assert d.response == 2

    def test_custom_response_and_names(self):
        d = generate_data(chain3(), 10, 0, response=0, names=("a", "b", "c"))
        assert d.response == 0
        assert d.names == ("a", "b", "c")

    def test_chain_accumulates_variance(self):
        d = generate_data(chain3(), 100_000, 5)
        v = d.values.var(axis=0, ddof=1)
        assert v[0] == pytest.approx(1.0, abs=0.05)
        assert v[1] == pytest.approx(2.0, abs=0.07)
        assert v[2] == pytest.approx(3.0, abs=0.09)

    def test_empty_graph_gives_independent_columns(self):
        w = _weighted(3, {})
        d = generate_data(w, 60_000, 3)
        corr = np.corrcoef(d.values, rowvar=False)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 0.02)


class TestPopulationCovariance:
    def test_empty_graph_is_identity(self):
        cov = population_covariance(_weighted(3, {}))
        assert np.array_equal(cov.values, np.eye(3))
        assert cov.n is None

    def test_chain_matches_hand_computation(self):
        w = _weighted(3, {(1, 0): 0.5, (2, 1): 2.0})
        cov = population_covariance(w).values
        expected = np.array(
            [
                [1.0, 0.5, 1.0],
                [0.5, 1.25, 2.5],
                [1.0, 2.5, 6.0],
            ]
        )
        assert np.allclose(cov, expected, atol=1e-12)

    def test_matches_sample_covariance(self):
        w = _weighted(3, {(1, 0): 1.0, (2, 1): 1.0})
        d = generate_data(w, 200_000, 11)
        sample = np.cov(d.values, rowvar=False)
        assert np.allclose(sample, population_covariance(w).values, atol=0.05)


class TestPopulationEffects:
    def test_chain_multiset(self):
        # The class of an unshielded chain has three members; conditioning
        # on the mediator kills the effect in two of them.
        ms = population_effects(chain3(), 0, 2, "global")
        assert sorted(ms.values()) == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

    def test_global_and_local_share_distinct_values(self):
        glo = population_effects(chain3(), 0, 2, "global")
        loc = population_effects(chain3(), 0, 2, "local")
        rounded = lambda ms: {round(v, 10) for v in ms.values()}
        assert rounded(glo) == rounded(loc)
        assert loc.method == "local"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            population_effects(chain3(), 0, 2, "oracle")

    def test_global_rejects_a_non_covariate(self):
        # The response itself and a vertex past the last one.
        w = chain3()
        for i, message in ((2, "covariate and response must differ"),
                           (w.n, "covariate 3 is not a vertex of the graph (0..2)")):
            with pytest.raises(ValueError, match=re.escape(message)):
                population_effects(w, i, 2, "global")

    def test_mods_are_forwarded(self):
        w = _weighted(3, {(1, 0): 1.0, (1, 2): 1.0})  # 0 -> 1 <- 2
        ms = population_effects(w, 0, 2, "local", mods=("zero_path",))
        assert ms.values() == [0.0]
        assert ms.entries[0].adjustment is None


class TestErrorMeasures:
    def one_value(self, v: float) -> EffectMultiset:
        return EffectMultiset(0, 1, (EffectEntry(v, ()),), "oracle")

    def test_single_values(self):
        est, truth = self.one_value(2.0), self.one_value(1.0)
        assert error_measures(est, truth) == (1.0, 1.0)

    def test_mean_and_min_diverge(self):
        est = EffectMultiset(
            0, 2, (EffectEntry(0.0, ()), EffectEntry(2.0, (1,))), "oracle"
        )
        truth = self.one_value(1.0)
        e_ave, e_min = error_measures(est, truth)
        assert e_ave == pytest.approx(0.0)
        assert e_min == pytest.approx(1.0)

    def test_sign_is_ignored(self):
        assert error_measures(self.one_value(-1.0), self.one_value(1.0)) == (0.0, 0.0)


def strip_runtime(records):
    return [dataclasses.replace(r, runtime_s=0.0) for r in records]


class TestRunScenario:
    def small(self) -> SimScenario:
        return SimScenario(6, 2.0, 300, 4, seed=2)

    def test_deterministic_up_to_runtime(self):
        a = run_scenario(self.small())
        b = run_scenario(self.small())
        assert strip_runtime(a) == strip_runtime(b)

    def test_one_record_per_rep_and_method(self):
        recs = run_scenario(self.small(), methods=("local", "global"))
        assert len(recs) == 8
        for k in range(4):
            pair = [r for r in recs if r.rep == k]
            assert {r.method for r in pair} == {"local", "global"}
            assert len({(r.x, r.y) for r in pair}) == 1, "methods share the draw"

    def test_successful_records_carry_error_measures(self):
        recs = run_scenario(self.small())
        assert any(r.status == "ok" for r in recs)
        for r in recs:
            if r.status == "ok":
                assert r.e2_ave is not None and r.e2_min is not None
                assert r.e2_ave >= 0.0 and r.e2_min >= 0.0

    def test_truth_can_be_skipped(self):
        recs = run_scenario(self.small(), compute_truth=False)
        for r in recs:
            if r.status == "ok":
                assert r.e2_ave is None and r.e2_min is None

    def test_single_method_selection(self):
        recs = run_scenario(self.small(), methods=("local",))
        assert {r.method for r in recs} == {"local"}
        assert len(recs) == 4

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            run_scenario(self.small(), methods=("magic",))

    def test_each_class_is_listed_once_per_call(self):
        # At p = 5 the truth and the estimate often share a CPDAG, and
        # replicates repeat graphs: each distinct graph is listed once per
        # call, and a second call lists them all again.
        listed = []
        list_class = effects._class_components

        def counted(g, max_component_edges, max_dags):
            listed.append(g)
            return list_class(g, max_component_edges, max_dags)

        scenario = SimScenario(5, 3.5, 1000, 20, seed=8424)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(effects, "_class_components", counted)
            recs = run_scenario(scenario)
            assert listed
            assert len(listed) == len(set(listed)) < 2 * scenario.n_reps
            assert strip_runtime(run_scenario(scenario)) == strip_runtime(recs)
        assert listed[: len(listed) // 2] == listed[len(listed) // 2 :]

    def test_runtime_leaves_out_the_truth_work(self, monkeypatch):
        # A clock that moves only in the batch's sample matrix pass, two
        # seconds per sample, in its population matrix pass, one second
        # per model, and in its regression solve, one second per request.
        # Each row then gets two seconds for its sample's matrices and one
        # per request of its own plan; the population matrices and the
        # truth's requests (read from n = None matrices) count in no row.
        clock = [0.0]
        monkeypatch.setattr(sim, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
        make, finish = pc._sample_matrices, sim._finish_plans
        population = sim.structural_covariance
        requests = {"truth": 0, "methods": 0}

        def timed_make(covariances, n, names):
            clock[0] += 2 * len(covariances)
            return make(covariances, n, names)

        def timed_population(weights):
            clock[0] += len(weights)
            return population(weights)

        def timed_finish(plans):
            for source, plan in plans:
                requests["truth" if source.n is None else "methods"] += len(plan.requests())
            clock[0] += sum(requests.values())
            return finish(plans)

        monkeypatch.setattr(pc, "_sample_matrices", timed_make)
        monkeypatch.setattr(sim, "structural_covariance", timed_population)
        monkeypatch.setattr(sim, "_finish_plans", timed_finish)
        recs = run_scenario(self.small())
        assert {r.status for r in recs} == {"ok"} and requests["truth"] > 0
        total = sum(r.runtime_s for r in recs)
        assert total == 2 * len(recs) + requests["methods"]

    def test_blocked_scenario_keeps_question_inside_a_block(self):
        recs = run_scenario(
            SimScenario(6, 1.5, 200, 5, blocks=2, seed=3), methods=("local",)
        )
        for r in recs:
            assert (r.x < 3) == (r.y < 3)


class TestBatchErrors:
    """A batch's replicates are drawn first and their matrices checked
    together; errors must keep the order of checking each replicate's
    matrices right after its draw."""

    @staticmethod
    def run(faults: dict[int, str]):
        """run_scenario on one batch of 4 replicates, whose k-th draw is
        spoiled as faults[k] says: "inf" overflows a covariance (its check
        fails), "constant+inf" makes column X1 constant too, "raise" fails
        the draw itself.  Returns the records or the error's message."""
        made = []
        draw = sim.generate_data

        def spoiled(w, n, rng, response=None, names=None):
            d = draw(w, n, rng, response=response, names=names)
            fault = faults.get(len(made))
            made.append(d)
            if fault == "raise":
                raise ValueError("draw failed")
            v = d.values.copy()
            if fault is not None:
                v[0, 1] = 1e200
            if fault == "constant+inf":
                v[:, 0] = 1.0
            return Dataset(v, d.names, d.response)

        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            mp.setattr(sim, "generate_data", spoiled)
            try:
                return run_scenario(SimScenario(5, 2.0, 50, 4, seed=1))
            except ValueError as e:
                return str(e)

    def test_a_check_error_propagates(self):
        assert self.run({2: "inf"}) == "covariance must be finite"

    def test_an_earlier_check_error_comes_before_a_later_draw_error(self):
        assert self.run({1: "inf", 2: "raise"}) == "covariance must be finite"
        assert self.run({1: "raise", 2: "inf"}) == "draw failed"

    def test_a_constant_column_comes_before_the_checks(self):
        records = self.run({3: "constant+inf"})
        assert [r.status for r in records if r.rep == 3] == ["failed:DegenerateDataError"] * 2
        assert {r.status for r in records if r.rep < 3} <= {"ok", "failed:NumericalRankError"}


class TestCsvAndSummary:
    def records(self):
        return [
            SimRecord(0, "local", 1.0, 2.0, 0.5, "ok", 1, 4),
            SimRecord(1, "local", 3.0, 4.0, 1.5, "ok", 0, 2),
            SimRecord(2, "local", None, None, 9.0, "failed:ResourceCapError", 0, 2),
        ]

    def test_csv_contains_header_and_rows(self):
        buf = io.StringIO()
        write_records_csv(self.records(), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "rep,method,e2_ave,e2_min,runtime_s,status"
        assert lines[1] == "0,local,1.0,2.0,0.5,ok"
        assert lines[3].endswith("failed:ResourceCapError")
        assert ",," in lines[3], "missing measures stay empty"

    def test_timing_off_blanks_the_runtime_column(self):
        buf = io.StringIO()
        write_records_csv(self.records(), buf, timing=False)
        for line in buf.getvalue().splitlines()[1:]:
            assert line.split(",")[4] == ""

    def test_timing_off_is_reproducible_across_runs(self):
        recs = run_scenario(SimScenario(5, 2.0, 120, 2, seed=6))
        again = run_scenario(SimScenario(5, 2.0, 120, 2, seed=6))
        out1, out2 = io.StringIO(), io.StringIO()
        write_records_csv(recs, out1, timing=False)
        write_records_csv(again, out2, timing=False)
        assert out1.getvalue() == out2.getvalue()

    def test_float_columns_round_trip(self):
        buf = io.StringIO()
        write_records_csv(self.records(), buf)
        row = buf.getvalue().splitlines()[1].split(",")
        assert float(row[2]) == 1.0
        assert float(row[4]) == 0.5

    def test_summary_medians_and_runtime(self):
        s = summarize_records(self.records())
        assert set(s) == {"local"}
        loc = s["local"]
        assert loc["replicates"] == 3
        assert loc["succeeded"] == 2
        assert loc["median_e2_ave"] == pytest.approx(2.0)
        assert loc["median_e2_min"] == pytest.approx(3.0)
        assert loc["mean_runtime_s"] == pytest.approx(1.0)

    def test_summary_with_no_successes(self):
        recs = [SimRecord(0, "global", None, None, 1.0, "failed:X", 0, 1)]
        s = summarize_records(recs)
        assert s["global"]["succeeded"] == 0
        assert "median_e2_ave" not in s["global"]
        assert "mean_runtime_s" not in s["global"]
