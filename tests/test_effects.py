"""Effect multisets: the global (class-enumerating) and local (sibling-
subset) routes, their agreement, the optional modifications, multiset
distance, and bootstrap covariate scores."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalspan import (
    BootstrapScores,
    CausalSpanError,
    CITestConfig,
    CovMatrix,
    CovariateScore,
    Dataset,
    EffectEntry,
    EffectMultiset,
    PDGraph,
    ResourceCapError,
    WeightedDag,
    bootstrap_scores,
    cpdag_from_dag,
    enumerate_dags,
    estimate_skeleton,
    generate_data,
    global_effects,
    local_effects,
    meek_closure,
    multiset_distance,
    oracle_multiplicities,
    orient_v_structures,
    population_covariance,
    population_effects,
    random_weighted_dag,
    summarize,
)
from causalspan.effects import DEFAULT_MAX_DAGS, _finish_plans, _route_plan
from causalspan.errors import NotExtendableError, NumericalRankError
from causalspan.gauss import sample_covariance

from conftest import (
    reference_global_effects,
    reference_local_effects,
    relabel,
    weighted_cov,
)


def adjustment_value_map(ms: EffectMultiset) -> dict:
    """adjustment set -> effect value, for route comparisons."""
    out = {}
    for e in ms.entries:
        key = None if e.adjustment is None else frozenset(e.adjustment)
        assert key not in out, "duplicate adjustment entry"
        out[key] = e.value
    return out


class TestEffectMultiset:
    def sample(self) -> EffectMultiset:
        entries = (
            EffectEntry(-1.0, (1,), multiplicity=2),
            EffectEntry(-0.04, (), multiplicity=1),
        )
        return EffectMultiset(0, 3, entries, "global")

    def test_values_repeat_by_multiplicity(self):
        assert self.sample().values() == [-1.0, -1.0, -0.04]
        assert self.sample().size() == 3

    def test_min_abs_ignores_sign(self):
        assert self.sample().min_abs() == pytest.approx(0.04)

    def test_mean_abs_weights_by_multiplicity(self):
        assert self.sample().mean_abs() == pytest.approx((1 + 1 + 0.04) / 3)

    def test_mean_abs_sums_the_values_in_order(self):
        # The bits of summing `values()` one by one, which the simulation
        # outputs are pinned to.
        rng = np.random.default_rng(4)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            values = rng.normal(size=k) * 10.0 ** rng.integers(-8, 8, k)
            counts = rng.integers(0, 4, k)
            if not counts.any():
                continue
            entries = tuple(
                EffectEntry(float(v), (a,), int(m)) for a, (v, m) in enumerate(zip(values, counts))
            )
            ms = EffectMultiset(0, 9, entries, "local")
            vals = ms.values()
            assert ms.mean_abs() == sum(abs(v) for v in vals) / len(vals)

    def test_value_range(self):
        assert self.sample().value_range() == pytest.approx(0.96)

    def test_ambiguity_counts_distinct_adjustments(self):
        assert self.sample().ambiguity() == 2

    def test_empty_multiset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            EffectMultiset(0, 3, (), "global")

    def test_unknown_method_tag_rejected(self):
        with pytest.raises(ValueError, match="method"):
            EffectMultiset(0, 3, (EffectEntry(1.0, ()),), "magic")

    def test_summarize_statistics(self):
        ms = self.sample()
        assert summarize(ms, "min_abs") == pytest.approx(0.04)
        assert summarize(ms, "range") == pytest.approx(0.96)
        assert summarize(ms, "mean_abs") == pytest.approx(ms.mean_abs())
        assert summarize(ms, "min") == pytest.approx(-1.0)
        assert summarize(ms, "max") == pytest.approx(-0.04)
        with pytest.raises(ValueError, match="statistic"):
            summarize(ms, "mode")

    def test_json_dict_uses_names(self):
        d = self.sample().to_json_dict(names=["A", "B", "C", "Y"])
        assert d["covariate"] == "A"
        assert d["effects"][0]["adjustment"] == ["B"]
        assert d["effects"][1]["adjustment"] == []
        assert d["ambiguity"] == 2


class TestPathClass:
    """Undirected path 3 - 0 - 1 - 2 with response 2: four class members,
    and vertex 0 has parent-set multiplicities (1, 2, 1, 0) over its four
    sibling subsets."""

    def test_class_has_four_members(self, path_graph):
        assert len(enumerate_dags(path_graph)) == 4

    def test_oracle_multiplicities_exact(self, path_graph):
        counts = oracle_multiplicities(path_graph, 0)
        assert counts == {(): 1, (1,): 2, (3,): 1, (1, 3): 0}
        assert sum(counts.values()) == len(enumerate_dags(path_graph))

    def test_global_row_groups_by_adjustment(self, path_graph, path_weighted):
        cov = population_covariance(path_weighted)
        theta = global_effects(cov, path_graph, y=2)
        assert theta.covariates == (0, 1, 3)
        assert theta.matrix.shape == (3, 4)
        ms = theta.row_multiset(0)
        assert ms.method == "global"
        assert ms.size() == 4
        by_adj = {e.adjustment: (e.value, e.multiplicity) for e in ms.entries}
        assert set(by_adj) == {(), (1,), (3,)}
        assert by_adj[()][1] == 1
        assert by_adj[(1,)][1] == 2
        assert by_adj[(3,)][1] == 1

    def test_effect_values_match_hand_derivation(self, path_graph, path_weighted):
        # Chain 3 -> 0 -> 1 -> 2 with weights 1.5, 0.5, 2.0: adjusting for
        # nothing or for the upstream vertex leaves the full effect
        # 0.5 * 2.0 = 1.0; adjusting for the mediator kills it.
        cov = population_covariance(path_weighted)
        ms = global_effects(cov, path_graph, y=2).row_multiset(0)
        vals = {e.adjustment: e.value for e in ms.entries}
        assert vals[()] == pytest.approx(1.0, abs=1e-12)
        assert vals[(3,)] == pytest.approx(1.0, abs=1e-12)
        assert vals[(1,)] == pytest.approx(0.0, abs=1e-12)
        assert sorted(ms.values()) == pytest.approx([0.0, 0.0, 1.0, 1.0], abs=1e-12)

    def test_local_route_has_three_entries(self, path_graph, path_weighted):
        cov = population_covariance(path_weighted)
        ms = local_effects(cov, path_graph, i=0, y=2)
        assert ms.method == "local"
        assert len(ms.entries) == 3
        assert all(e.multiplicity == 1 for e in ms.entries)
        assert ms.distinct_adjustments() == {
            frozenset(), frozenset({1}), frozenset({3})
        }
        theta = global_effects(cov, path_graph, y=2)
        assert adjustment_value_map(ms) == adjustment_value_map(
            theta.row_multiset(0)
        )

    def test_adjusting_for_the_response_pins_zero(self, path_graph, path_weighted):
        # The response is a sibling of vertex 1, so one sibling subset
        # contains it; the coefficient is then zero by convention and both
        # routes keep the entry.
        cov = population_covariance(path_weighted)
        loc = local_effects(cov, path_graph, i=1, y=2)
        glo = global_effects(cov, path_graph, y=2).row_multiset(1)
        assert adjustment_value_map(loc) == adjustment_value_map(glo)
        assert loc.distinct_adjustments() == {
            frozenset(), frozenset({0}), frozenset({2})
        }
        by_adj = {e.adjustment: e.value for e in loc.entries}
        assert by_adj[(2,)] == 0.0


class TestHubClasses:
    """Two four-variable hub models whose classes have three members each;
    every multiset value is checked against substitution in the linear
    system."""

    def test_direct_hub_multisets(self, hub_direct_model):
        w, evars = hub_direct_model
        cov = weighted_cov(w, evars)
        g = cpdag_from_dag(w.graph)
        theta = global_effects(cov, g, y=3)
        assert theta.matrix.shape[1] == 3
        expected = {
            0: [-1.0, -1.0, -0.04],
            1: [0.4, 1.2, 1.2],
            2: [-1.0, -1.0, -0.04],
        }
        for i, vals in expected.items():
            got = sorted(theta.row_multiset(i).values())
            assert got == pytest.approx(sorted(vals), abs=1e-10), f"covariate {i}"
        assert theta.row_multiset(0).min_abs() == pytest.approx(0.04, abs=1e-10)
        assert theta.row_multiset(1).min_abs() == pytest.approx(0.4, abs=1e-10)

    def test_indirect_hub_multisets(self, hub_indirect_model):
        w, evars = hub_indirect_model
        cov = weighted_cov(w, evars)
        g = cpdag_from_dag(w.graph)
        theta = global_effects(cov, g, y=3)
        assert theta.matrix.shape[1] == 3
        expected = {
            0: [1.0, 1.0, 1.64],
            1: [0.8, 0.8, 1.6],
            2: [1.0, 1.0, 1.64],
        }
        for i, vals in expected.items():
            got = sorted(theta.row_multiset(i).values())
            assert got == pytest.approx(sorted(vals), abs=1e-10), f"covariate {i}"
        assert theta.row_multiset(1).min_abs() == pytest.approx(0.8, abs=1e-10)

    def test_local_matches_global_and_is_never_larger(self, hub_direct_model):
        w, evars = hub_direct_model
        cov = weighted_cov(w, evars)
        g = cpdag_from_dag(w.graph)
        theta = global_effects(cov, g, y=3)
        for i in (0, 1, 2):
            loc = local_effects(cov, g, i, y=3)
            glo = theta.row_multiset(i)
            assert adjustment_value_map(loc) == adjustment_value_map(glo)
            assert len(loc.entries) <= glo.size()


class TestRouteAgreement:
    def test_routes_agree_on_random_population_models(self):
        rng = np.random.default_rng(20240817)
        checked = 0
        for _ in range(30):
            p = int(rng.integers(4, 9))
            en = float(rng.uniform(1.0, 3.0))
            w = random_weighted_dag(p, en, rng)
            g = cpdag_from_dag(w.graph)
            cov = population_covariance(w)
            y = p - 1
            n_dags = len(enumerate_dags(g))
            theta = global_effects(cov, g, y)
            for i in range(p - 1):
                glo = theta.row_multiset(i)
                loc = local_effects(cov, g, i, y)
                assert adjustment_value_map(loc) == adjustment_value_map(glo)
                assert glo.size() == n_dags
                assert len(loc.entries) <= glo.size()
                assert loc.distinct_adjustments() == glo.distinct_adjustments()
                assert loc.ambiguity() == glo.ambiguity()
                checked += 1
        assert checked > 50

    def test_oracle_counts_match_global_multiplicities(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = int(rng.integers(4, 8))
            w = random_weighted_dag(p, 2.0, rng)
            g = cpdag_from_dag(w.graph)
            cov = population_covariance(w)
            theta = global_effects(cov, g, y=p - 1)
            for i in range(p - 1):
                counts = oracle_multiplicities(g, i)
                base = g.parents(i)
                mults = {
                    e.adjustment: e.multiplicity
                    for e in theta.row_multiset(i).entries
                }
                for s, c in counts.items():
                    adj = tuple(sorted(base | set(s)))
                    if c == 0:
                        assert adj not in mults
                    else:
                        assert mults[adj] == c


class TestGlobalRouteOracle:
    @pytest.mark.parametrize(
        "mods", [(), ("zero_path",), ("prune_y",), ("zero_path", "prune_y")]
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_and_population_truth(self, mods, seed):
        # Random population models, relabeled so edges do not all point
        # from lower to higher index; sizes come from the seed.
        rng = np.random.default_rng(seed)
        p = int(rng.integers(3, 8))
        w = random_weighted_dag(p, float(rng.uniform(0.5, 3.5)), rng)
        perm = [int(v) for v in rng.permutation(p)]
        weights = np.zeros((p, p))
        weights[np.ix_(perm, perm)] = w.weights
        w = WeightedDag(relabel(w.graph, perm), weights)
        y = int(rng.integers(p))
        g = cpdag_from_dag(w.graph)
        if len(g.undirected_edges()) > 10:
            return  # keeps the brute force at most 2**10 orientations
        cov = population_covariance(w)
        theta = global_effects(cov, g, y, mods)
        matrix, adjustments, members = reference_global_effects(cov.values, g, y, mods)
        dags = enumerate_dags(g)
        assert dags == members
        assert theta.matrix.shape[1] == len(dags)
        assert theta.adjustments == adjustments
        if not mods:
            for r, i in enumerate(theta.covariates):
                for j, dag in enumerate(dags):
                    assert theta.adjustments[r][j] == tuple(sorted(dag.parents(i)))
        np.testing.assert_allclose(theta.matrix, matrix, rtol=1e-12, atol=1e-12)
        for x in theta.covariates:
            truth = population_effects(w, x, y, "global", mods)
            row = theta.row_multiset(x)
            assert (truth.covariate, truth.response, truth.mods) == (x, y, row.mods)
            assert [(e.value, e.adjustment, e.multiplicity) for e in truth.entries] == [
                (e.value, e.adjustment, e.multiplicity) for e in row.entries
            ]


class TestLocalRouteOracle:
    MODS = [(), ("zero_path",), ("prune_y",), ("zero_path", "prune_y")]

    @staticmethod
    def outcome(route, *args):
        """Entries in order, values bit for bit, or the error raised."""
        try:
            ms = route(*args)
        except CausalSpanError as e:
            return type(e), str(e)
        return [(e.value.hex(), e.adjustment, e.multiplicity) for e in ms.entries]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_subset_loop(self, seed):
        # The graph is the CPDAG of a relabeled random model, or collider
        # orientation of a PC skeleton from a few rows, with or without
        # Meek's rules.  Without them, parents of a vertex are often
        # nonadjacent to its siblings, which is what the parent clause of
        # local validity rejects; with them, some estimates are not valid
        # CPDAGs.  The source is the population covariance or the rows.
        rng = np.random.default_rng(seed)
        p = int(rng.integers(3, 9))
        w = random_weighted_dag(p, float(rng.uniform(0.5, 4.0)), rng)
        perm = [int(v) for v in rng.permutation(p)]
        weights = np.zeros((p, p))
        weights[np.ix_(perm, perm)] = w.weights
        w = WeightedDag(relabel(w.graph, perm), weights)
        d = generate_data(w, int(rng.integers(p, 60)), rng)
        kind = int(rng.integers(3))
        if kind == 0:
            g = cpdag_from_dag(w.graph)
        else:
            cfg = CITestConfig(float(rng.choice([0.2, 0.5])))
            g = orient_v_structures(*estimate_skeleton(d, cfg)[:2])
            if kind == 1:
                g = meek_closure(g)
        source = population_covariance(w) if rng.random() < 0.5 else d
        max_siblings = int(rng.choice([0, 1, 2, 3, 25]))
        for mods in self.MODS:
            for y in range(p):
                for i in range(p):
                    if i == y:
                        continue
                    args = (source, g, i, y, mods, max_siblings, 12, 25000)
                    assert self.outcome(local_effects, *args) == self.outcome(
                        reference_local_effects, *args
                    ), (mods, i, y)

    def test_wide_star_returns_every_singleton_in_order(self):
        # 40 pairwise nonadjacent siblings: 2**40 subsets, 41 of them valid.
        g = PDGraph(42, undirected=[(0, leaf) for leaf in range(1, 41)])
        ms = local_effects(CovMatrix(np.eye(42)), g, 0, 41, max_siblings=40)
        assert [e.adjustment for e in ms.entries] == [()] + [(v,) for v in range(1, 41)]
        assert ms.values() == [0.0] * 41


class TestZeroPathMod:
    def collider(self) -> PDGraph:
        # 0 -> 1 <- 2 with response 2: fully identified, and no class
        # member has a directed path from 0 (or 1) to the response.
        return PDGraph(3, directed=[(0, 1), (2, 1)])

    def population(self) -> CovMatrix:
        w = np.zeros((3, 3))
        w[1, 0] = 1.0
        w[1, 2] = 1.0
        from causalspan import structural_covariance

        return CovMatrix(structural_covariance(w))

    def test_local_pins_unreachable_covariate_to_zero(self):
        g = self.collider()
        for i in (0, 1):
            ms = local_effects(self.population(), g, i, y=2, mods=("zero_path",))
            assert len(ms.entries) == 1
            assert ms.entries[0].value == 0.0
            assert ms.entries[0].adjustment is None
            assert ms.ambiguity() == 1

    def test_global_pins_unreachable_covariate_to_zero(self):
        theta = global_effects(self.population(), self.collider(), y=2,
                               mods=("zero_path",))
        for i in (0, 1):
            ms = theta.row_multiset(i)
            assert ms.values() == [0.0]
            assert ms.entries[0].adjustment is None

    def test_sample_estimate_is_exact_zero_only_with_mod(self):
        g = self.collider()
        rng = np.random.default_rng(11)
        x0 = rng.standard_normal(300)
        y = rng.standard_normal(300)
        x1 = x0 + y + rng.standard_normal(300)
        d = Dataset(np.column_stack([x0, x1, y]), ("A", "B", "C"), response=2)
        plain = local_effects(d, g, i=0, y=2)
        assert len(plain.entries) == 1
        assert plain.entries[0].value != 0.0, "finite-sample noise"
        assert abs(plain.entries[0].value) < 0.2
        pinned = local_effects(d, g, i=0, y=2, mods=("zero_path",))
        assert pinned.entries[0].value == 0.0

    def test_unknown_mod_flag_rejected(self):
        with pytest.raises(ValueError, match="modification"):
            local_effects(self.population(), self.collider(), 0, 2,
                          mods=("teleport",))


class TestPruneYMod:
    def two_components(self):
        # 0 - 1 in one skeleton component, 2 - 3 in another; response 3.
        g = PDGraph(4, undirected=[(0, 1), (2, 3)])
        w = np.zeros((4, 4))
        w[0, 1] = 0.9
        w[3, 2] = 0.7
        from causalspan import structural_covariance

        return g, CovMatrix(structural_covariance(w))

    def test_local_drops_disconnected_siblings(self):
        g, cov = self.two_components()
        plain = local_effects(cov, g, i=0, y=3)
        pruned = local_effects(cov, g, i=0, y=3, mods=("prune_y",))
        assert plain.distinct_adjustments() == {frozenset(), frozenset({1})}
        assert pruned.distinct_adjustments() == {frozenset()}
        vals = lambda ms: {round(v, 12) for v in ms.values()}
        assert vals(plain) == vals(pruned) == {0.0}

    def test_local_keeps_siblings_that_reach_the_response(self):
        # 0 - 1 - 2 -> 3: sibling 1 of 0 has a skeleton path to 3.
        g = PDGraph(4, undirected=[(0, 1), (1, 2)], directed=[(2, 3)])
        ms = local_effects(CovMatrix(np.eye(4)), g, i=0, y=3, mods=("prune_y",))
        assert [e.adjustment for e in ms.entries] == [(), (1,)]

    def test_global_collapses_to_one_entry(self):
        g, cov = self.two_components()
        theta = global_effects(cov, g, y=3, mods=("prune_y",))
        ms = theta.row_multiset(0)
        assert len(ms.entries) == 1
        assert ms.entries[0].adjustment == ()
        assert ms.entries[0].multiplicity == len(enumerate_dags(g))
        assert ms.entries[0].value == pytest.approx(0.0, abs=1e-12)


class TestRouteGuards:
    def test_covariate_equal_to_response_rejected(self, path_graph, path_weighted):
        cov = population_covariance(path_weighted)
        with pytest.raises(ValueError, match="differ"):
            local_effects(cov, path_graph, i=2, y=2)

    @pytest.mark.parametrize("y", [-1, 4])
    def test_response_outside_the_graph_rejected(self, path_graph, path_weighted, y):
        # Vertices run 0..3: numpy would read -1 as vertex 3.
        cov = population_covariance(path_weighted)
        match = rf"response {y} is not a vertex of the graph \(0\.\.3\)"
        with pytest.raises(ValueError, match=match):
            local_effects(cov, path_graph, i=0, y=y)
        with pytest.raises(ValueError, match=match):
            global_effects(cov, path_graph, y=y)

    @pytest.mark.parametrize("i", [-1, 4])
    def test_covariate_outside_the_graph_rejected(self, path_graph, path_weighted, i):
        # -1 would read as vertex 3 and return its entries under the label -1.
        cov = population_covariance(path_weighted)
        match = rf"covariate {i} is not a vertex of the graph \(0\.\.3\)"
        with pytest.raises(ValueError, match=match):
            local_effects(cov, path_graph, i=i, y=0)

    def test_sibling_subsets_respect_parent_adjacency(self):
        # Sibling 2 of vertex 1 is not adjacent to its parent 0, so the
        # subset {2} would create a collider at 1 and must be skipped.
        g = PDGraph(4, directed=[(0, 1)], undirected=[(1, 2)])
        cov = CovMatrix(np.eye(4))
        ms = local_effects(cov, g, i=1, y=3)
        assert [e.adjustment for e in ms.entries] == [(0,)]

    def test_sibling_cap_raises(self, path_graph, path_weighted):
        cov = population_covariance(path_weighted)
        with pytest.raises(ResourceCapError, match="cap"):
            local_effects(cov, path_graph, i=0, y=2, max_siblings=1)

    def test_oracle_respects_sibling_cap(self, path_graph):
        with pytest.raises(ResourceCapError):
            oracle_multiplicities(path_graph, 0, max_siblings=1)

    def test_enumeration_cap_points_to_local_route(self):
        g = PDGraph(7, undirected=[(a, b) for a in range(7) for b in range(a + 1, 7)])
        cov = CovMatrix(np.eye(7))
        with pytest.raises(ResourceCapError, match="local route"):
            global_effects(cov, g, y=6)


class TestBatchedLocalRoute:
    """`_route_plan("local", ...)` plans every covariate and
    `_finish_plans` solves all their regressions at once; each covariate
    must still get the multiset or the error of the one-covariate route."""

    @staticmethod
    def one_at_a_time(source, g, covariates, y, mods, max_siblings):
        out = []
        for i in covariates:
            try:
                out.append(reference_local_effects(
                    source, g, i, y, mods, max_siblings, 10**6, 10**6))
            except CausalSpanError as e:
                out.append((type(e).__name__, str(e)))
        return out

    @pytest.mark.parametrize("as_dataset", [False, True])
    def test_cap_and_singular_failures_stay_per_covariate(self, as_dataset):
        # Column 4 copies column 1, so covariate 0 (parents 1 and 4) and
        # the entries of 1 and 4 that adjust for each other are singular;
        # covariate 2 has three undirected neighbours, past a cap of 2;
        # covariates 3 and 5 solve regressions of the same sizes.
        rng = np.random.default_rng(3)
        v = rng.standard_normal((80, 7))
        v[:, 4] = v[:, 1]
        d = Dataset(v, tuple(f"v{k}" for k in range(7)), 6)
        g = PDGraph(7, directed=[(1, 0), (4, 0), (0, 6), (5, 3)],
                    undirected=[(1, 2), (2, 3), (2, 5), (1, 4), (3, 6)])
        source = d if as_dataset else sample_covariance(d)
        covariates = (0, 1, 2, 3, 4, 5)
        plan = _route_plan("local", g, covariates, 6, (), 2, 10**6, DEFAULT_MAX_DAGS)
        (planned,) = _finish_plans([(source, plan)])
        got = [m if isinstance(m, EffectMultiset) else (type(m).__name__, str(m))
               for m in planned]
        want = self.one_at_a_time(source, g, covariates, 6, frozenset(), 2)
        assert got == want
        kinds = [w[0] if isinstance(w, tuple) else "ok" for w in want]
        assert kinds == ["NumericalRankError", "NumericalRankError", "ResourceCapError",
                         "ok", "NumericalRankError", "ok"]
        for i, m in zip(covariates, got):
            if isinstance(m, EffectMultiset):
                assert m == local_effects(source, g, i, 6, (), 2)
            else:
                with pytest.raises(CausalSpanError, match=re.escape(m[1])):
                    local_effects(source, g, i, 6, (), 2)


class TestRoutePlan:
    """`_route_plan` is the one entry point of both routes: finished by
    `_finish_plans`, it gives each covariate the multiset of the route's
    public function, and a planning error as that error for every
    covariate."""

    MODS = [(), ("zero_path",), ("prune_y",), ("zero_path", "prune_y")]

    @staticmethod
    def finished(method, source, g, covariates, y, mods=(), max_siblings=25,
                 max_component_edges=12, max_dags=DEFAULT_MAX_DAGS):
        plan = _route_plan(method, g, covariates, y, mods, max_siblings,
                           max_component_edges, max_dags)
        (out,) = _finish_plans([(source, plan)])
        return out

    @pytest.mark.parametrize("mods", MODS)
    def test_routes_equal_their_public_functions(self, mods):
        # CPDAGs of relabeled random models, read from the population
        # covariance or from rows.
        rng = np.random.default_rng(515)
        for _ in range(25):
            p = int(rng.integers(3, 8))
            w = random_weighted_dag(p, float(rng.uniform(0.5, 3.5)), rng)
            perm = [int(v) for v in rng.permutation(p)]
            weights = np.zeros((p, p))
            weights[np.ix_(perm, perm)] = w.weights
            w = WeightedDag(relabel(w.graph, perm), weights)
            g = cpdag_from_dag(w.graph)
            source = population_covariance(w) if rng.random() < 0.5 else generate_data(w, 50, rng)
            y = int(rng.integers(p))
            covariates = tuple(i for i in range(p) if i != y)
            theta = global_effects(source, g, y, mods)
            assert self.finished("global", source, g, covariates, y, mods) == [
                theta.row_multiset(i) for i in covariates
            ]
            assert self.finished("local", source, g, covariates, y, mods) == [
                local_effects(source, g, i, y, mods) for i in covariates
            ]

    @pytest.mark.parametrize("caps", [(12, DEFAULT_MAX_DAGS), (100, 50)])
    def test_a_cap_on_the_class_fails_every_covariate_alike(self, caps):
        # The complete graph on 7 vertices: 21 undirected edges, past the
        # edge cap of 12, and 5,040 members, past the cap of 50 DAGs.
        g = PDGraph(7, undirected=[(a, b) for a in range(7) for b in range(a + 1, 7)])
        cov = CovMatrix(np.eye(7))
        with pytest.raises(ResourceCapError) as raised:
            global_effects(cov, g, 6, (), *caps)
        got = self.finished("global", cov, g, (0, 1, 2, 3, 4, 5), 6, (), 25, *caps)
        assert [(type(e), str(e)) for e in got] == [(ResourceCapError, str(raised.value))] * 6

    @pytest.mark.parametrize("directed, undirected", [
        ([], [(0, 1), (1, 2), (2, 3), (0, 3)]),  # a chordless four-cycle
        ([(0, 1), (1, 2), (2, 0)], [(2, 3)]),  # a directed cycle
    ])
    def test_a_graph_with_no_extension_fails_every_covariate_alike(self, directed, undirected):
        g = PDGraph(4, directed=directed, undirected=undirected)
        cov = CovMatrix(np.eye(4))
        with pytest.raises(NotExtendableError) as raised:
            global_effects(cov, g, 3)
        got = self.finished("global", cov, g, (0, 1, 2), 3)
        assert [(type(e), str(e)) for e in got] == [(NotExtendableError, str(raised.value))] * 3


class TestGlobalRouteErrors:
    """The global route's singular regression and its class of one member
    with no covariates, through `global_effects` and `_route_plan`."""

    @staticmethod
    def collinear():
        # Column 2 copies column 1: every regression adjusting one of them
        # for the other is singular.
        v = np.random.default_rng(0).standard_normal((50, 4))
        v[:, 2] = v[:, 1]
        d = Dataset(v, ("a", "b", "c", "d"), 3)
        return d, PDGraph(4, undirected=[(0, 1), (1, 2), (0, 2), (2, 3)])

    def test_route_plan_gives_each_covariate_its_own_error(self):
        d, g = self.collinear()
        message = "regression (0 | (1, 2)): matrix is singular or ill-conditioned"
        with pytest.raises(NumericalRankError, match=re.escape(message)) as raised:
            global_effects(d, g, 3)
        plan = _route_plan("global", g, (0, 1, 2), 3, (), 25, 12, DEFAULT_MAX_DAGS)
        (out,) = _finish_plans([(d, plan)])
        assert all(isinstance(e, NumericalRankError) for e in out)
        assert str(out[0]) == str(raised.value)
        assert [str(e).split(":")[0] for e in out] == [
            "regression (0 | (1, 2))", "regression (1 | (0, 2))", "regression (2 | (0, 1))"
        ]

    @pytest.mark.parametrize("i, message", [
        (2, "covariate and response must differ"),
        (7, "covariate 7 is not a vertex of the graph (0..2)"),
        (-1, "covariate -1 is not a vertex of the graph (0..2)"),
    ], ids=["response", "past-the-last", "negative"])
    def test_both_routes_name_a_bad_covariate_alike(self, i, message):
        # Also when the class is over its cap: the covariate is checked
        # before the class is listed.
        g = PDGraph(3, undirected=[(0, 1), (1, 2), (0, 2)])
        for method, max_dags in itertools.product(("global", "local"), (1, DEFAULT_MAX_DAGS)):
            with pytest.raises(ValueError) as raised:
                _route_plan(method, g, (0, i), 2, (), 25, 12, max_dags)
            assert type(raised.value) is ValueError
            assert str(raised.value) == message

    def test_no_covariates_keep_one_column_per_member(self):
        theta = global_effects(CovMatrix(np.eye(1)), PDGraph(1), 0)
        assert theta.matrix.shape == (0, 1)
        assert theta.adjustments == ()


class TestMultisetDistance:
    def test_unequal_cardinality_is_infinite(self):
        assert multiset_distance([1.0, 2.0], [1.0, 2.0, 3.0]) == math.inf

    def test_shifted_pair(self):
        assert multiset_distance([0.0, 2.0], [1.0, 3.0]) == pytest.approx(1.0)

    def test_order_statistics_not_pairing_order(self):
        assert multiset_distance([2.0, 0.0], [1.0, 3.0]) == pytest.approx(1.0)

    def test_identical_multisets(self):
        assert multiset_distance([1.0, -4.0, 2.5], [2.5, 1.0, -4.0]) == 0.0
        assert multiset_distance([], []) == 0.0

    def test_accepts_effect_multisets(self, hub_direct_model):
        w, evars = hub_direct_model
        cov = weighted_cov(w, evars)
        g = cpdag_from_dag(w.graph)
        ms = global_effects(cov, g, y=3).row_multiset(0)
        assert multiset_distance(ms, ms) == 0.0
        assert multiset_distance(ms, ms.values()) == 0.0

    def test_metric_axioms_on_random_multisets(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            a = list(rng.normal(size=k))
            b = list(rng.normal(size=k))
            c = list(rng.normal(size=k))
            dab = multiset_distance(a, b)
            assert dab >= 0.0
            assert dab == multiset_distance(b, a)
            assert multiset_distance(a, a) == 0.0
            assert dab <= multiset_distance(a, c) + multiset_distance(c, b) + 1e-12


class TestBootstrapScores:
    def chain_data(self, n=500, seed=3) -> Dataset:
        from conftest import _weighted

        w = _weighted(3, {(1, 0): 1.0, (2, 1): 1.0})
        return generate_data(w, n, np.random.default_rng(seed))

    def test_deterministic_given_seed(self):
        d = self.chain_data()
        a = bootstrap_scores(d, CITestConfig(0.01), b=4, seed=9)
        b = bootstrap_scores(d, CITestConfig(0.01), b=4, seed=9)
        assert a == b

    def test_seed_changes_replicates(self):
        d = self.chain_data()
        a = bootstrap_scores(d, CITestConfig(0.01), b=4, seed=9)
        b = bootstrap_scores(d, CITestConfig(0.01), b=4, seed=10)
        assert a != b

    def test_single_replicate_allowed(self):
        d = self.chain_data(n=300)
        out = bootstrap_scores(d, CITestConfig(0.01), b=1, seed=0)
        assert out.n_replicates == 1
        for s in out.scores:
            assert s.failures + len(s.replicate_ambiguities) == 1

    def test_zero_replicates_rejected(self):
        with pytest.raises(ValueError, match="replicate"):
            bootstrap_scores(self.chain_data(n=60), b=0)

    def test_failures_counted_and_score_nan(self):
        # A sibling cap of zero makes every covariate with an undirected
        # neighbour fail; on chain data the estimated class keeps both
        # covariate edges undirected, so nothing is scorable.
        d = self.chain_data(n=2000, seed=1)
        out = bootstrap_scores(d, CITestConfig(0.01), b=3, seed=2,
                               max_siblings=0)
        for s in out.scores:
            assert s.failures == 3
            assert s.replicate_ambiguities == ()
            assert math.isnan(s.score)
            assert s.full_data_ambiguity is None

    def test_replicate_bookkeeping_consistent(self):
        d = self.chain_data(n=150, seed=8)
        out = bootstrap_scores(d, CITestConfig(0.05), b=5, seed=4)
        assert out.response == 2
        for s in out.scores:
            assert s.failures + len(s.replicate_ambiguities) == 5
            if s.failures == 5:
                assert math.isnan(s.score)
            else:
                assert math.isfinite(s.score)

    def test_ranked_puts_unscored_last_and_breaks_ties_by_index(self):
        scores = (
            CovariateScore(0, math.nan, None, (), 3),
            CovariateScore(1, 0.5, 1, (1, 1, 1), 0),
            CovariateScore(3, 0.9, 2, (1, 2, 1), 0),
            CovariateScore(4, 0.5, 1, (1, 1, 1), 0),
        )
        out = BootstrapScores(2, 3, scores)
        assert [s.covariate for s in out.ranked()] == [3, 1, 4, 0]

    def test_cause_outranks_isolated_covariate(self, identified_chain):
        d = generate_data(identified_chain, 2000, np.random.default_rng(0))
        out = bootstrap_scores(d, CITestConfig(0.01), b=5, seed=0)
        ranked = out.ranked()
        assert ranked[0].covariate == 0, "the driving covariate wins"
        isolated = next(s for s in out.scores if s.covariate == 3)
        assert isolated.score < 0.1
