"""Partially directed graphs: construction, orientation closure, class
enumeration, extension, chordality, and serialization."""

import collections
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalspan import (
    CITestConfig,
    CovMatrix,
    NotExtendableError,
    PDGraph,
    ResourceCapError,
    allows_directed_path,
    cpdag_from_dag,
    enumerate_dags,
    estimate_skeleton,
    extend_to_dag,
    generate_data,
    global_effects,
    is_locally_valid,
    local_effects,
    meek_closure,
    oracle_multiplicities,
    orient_v_structures,
    pc_cpdag,
    random_weighted_dag,
    validate_cpdag,
)
from causalspan import effects, graphs
from causalspan.effects import _theta_plan
from causalspan.errors import CausalSpanError
from causalspan.graphs import (
    _bits,
    _class_components,
    _class_members,
    _colliders,
    _perfect_elimination_order,
    _reach,
)
from conftest import (
    _reference_closure,
    brute_force_class,
    random_pdgraph_dag,
    reference_class_parent_masks,
    reference_cpdag_from_dag,
    reference_elimination_order,
    reference_extend_to_dag,
    reference_is_dag,
    reference_meek_closure,
    reference_theta_entries,
    reference_topological_order,
    reference_v_structures,
    relabel,
    to_amat,
)


def class_members_by_skeleton(dag: PDGraph) -> set[PDGraph]:
    """Independent oracle: all orientations of dag's skeleton that are
    acyclic and reproduce dag's v-structures."""
    target = reference_v_structures(dag)
    und = sorted(dag.skeleton().undirected_edges())
    out = set()
    for bits in itertools.product((False, True), repeat=len(und)):
        edges = [((v, u) if flip else (u, v)) for (u, v), flip in zip(und, bits)]
        cand = PDGraph(dag.n, directed=edges)
        if reference_is_dag(cand) and reference_v_structures(cand) == target:
            out.add(cand)
    return out


def directed(g: PDGraph, u: int, v: int) -> bool:
    return (u, v) in g.directed_edges()


def brute_force_in_order(g: PDGraph) -> list[PDGraph]:
    """`brute_force_class(g)` in orientation-vector order over g's sorted
    undirected edges, the order `enumerate_dags` promises."""
    und = sorted(g.undirected_edges())
    return sorted(
        brute_force_class(g),
        key=lambda d: tuple(0 if directed(d, u, v) else 1 for u, v in und),
    )


def is_chain_graph(g: PDGraph) -> bool:
    """No directed edge a -> b lies on a cycle that follows directed edges
    forward and undirected edges either way."""
    amat = to_amat(g)
    return not any(_reference_closure(amat, b)[a] for a, b in g.directed_edges())


def undirected(g: PDGraph, u: int, v: int) -> bool:
    return (min(u, v), max(u, v)) in g.undirected_edges()


# ---------------------------------------------------------------------------
# construction and basic queries


class TestConstruction:
    def test_edge_types(self):
        g = PDGraph(3, directed=[(0, 1)], undirected=[(1, 2)])
        assert directed(g, 0, 1) and not directed(g, 1, 0)
        assert undirected(g, 1, 2) and undirected(g, 2, 1)
        assert g.parents(1) == {0}
        assert g.children(0) == {1}
        assert g.siblings(1) == {2}
        assert g.adjacent(1) == {0, 2}

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            PDGraph(2, directed=[(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PDGraph(2, directed=[(0, 2)])

    def test_rejects_duplicate_between_kinds(self):
        with pytest.raises(ValueError):
            PDGraph(2, directed=[(0, 1)], undirected=[(0, 1)])

    def test_antiparallel_directed_pair_rejected(self):
        with pytest.raises(ValueError):
            PDGraph(2, directed=[(0, 1), (1, 0)])

    def test_equality_and_hash(self):
        a = PDGraph(3, directed=[(0, 1)], undirected=[(1, 2)])
        b = PDGraph(3, undirected=[(2, 1)], directed=[(0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != PDGraph(3, directed=[(0, 1), (1, 2)])

    def test_skeleton_drops_arrowheads(self):
        g = PDGraph(3, directed=[(0, 1)], undirected=[(1, 2)])
        sk = g.skeleton()
        assert sk.undirected_edges() == {(0, 1), (1, 2)}
        assert not sk.directed_edges()

    def test_topological_order_deterministic(self):
        g = PDGraph(4, directed=[(2, 0), (3, 1)])
        order = g.topological_order()
        assert order is not None
        pos = {v: k for k, v in enumerate(order)}
        assert pos[2] < pos[0] and pos[3] < pos[1]
        assert order == g.topological_order()

    def test_cycle_has_no_order(self):
        g = PDGraph(3, directed=[(0, 1), (1, 2), (2, 0)])
        assert g.topological_order() is None
        assert not g.is_dag()

    def test_is_dag_requires_fully_directed(self):
        assert not PDGraph(2, undirected=[(0, 1)]).is_dag()
        assert PDGraph(2, directed=[(0, 1)]).is_dag()


def colliders(g: PDGraph) -> set[tuple[int, int, int]]:
    """The package's collider finder, the one PC's collider orientation uses."""
    return _colliders(g._pa, g._adjacency())


class TestVStructures:
    def test_collider_found(self):
        g = PDGraph(3, directed=[(0, 1), (2, 1)])
        assert colliders(g) == {(0, 1, 2)}

    def test_shielded_collider_ignored(self):
        g = PDGraph(3, directed=[(0, 1), (2, 1)], undirected=[(0, 2)])
        assert colliders(g) == set()

    def test_tail_ordering_normalized(self):
        g = PDGraph(3, directed=[(2, 1), (0, 1)])
        (vs,) = colliders(g)
        assert vs[0] < vs[2]


# ---------------------------------------------------------------------------
# orientation closure


class TestMeekClosure:
    def test_chain_rule_orients_tail(self):
        # a -> b - c with a, c nonadjacent: c cannot point at b, so b -> c.
        g = PDGraph(3, directed=[(0, 1)], undirected=[(1, 2)])
        h = meek_closure(g)
        assert directed(h, 1, 2)

    def test_acyclicity_rule(self):
        # a -> b -> c with a - c: c -> a would close a cycle.
        g = PDGraph(3, directed=[(0, 1), (1, 2)], undirected=[(0, 2)])
        h = meek_closure(g)
        assert directed(h, 0, 2)

    def test_double_chain_rule(self):
        # a - b, a - c, a - d, c -> b, d -> b, c and d nonadjacent: a -> b.
        g = PDGraph(
            4,
            directed=[(2, 1), (3, 1)],
            undirected=[(0, 1), (0, 2), (0, 3)],
        )
        h = meek_closure(g)
        assert directed(h, 0, 1)

    def test_chain_collider_rule(self):
        # a - b, a - d, d -> c, c -> b, b and d nonadjacent, a - c: a -> b.
        g = PDGraph(
            4,
            directed=[(3, 2), (2, 1)],
            undirected=[(0, 1), (0, 3), (0, 2)],
        )
        h = meek_closure(g)
        assert directed(h, 0, 1)

    def test_closure_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            dag = random_pdgraph_dag(rng, 6, 0.4)
            g = cpdag_from_dag(dag)
            assert meek_closure(g) == g

    def test_closure_never_removes_or_flips_directed(self):
        g = PDGraph(3, directed=[(0, 1)], undirected=[(1, 2)])
        h = meek_closure(g)
        assert h.skeleton() == g.skeleton()
        assert h.directed_edges() >= g.directed_edges()

    def test_closure_commutes_with_relabeling(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dag = random_pdgraph_dag(rng, 6, 0.35)
            g = cpdag_from_dag(dag)
            perm = list(rng.permutation(6))
            assert relabel(meek_closure(g), perm) == meek_closure(relabel(g, perm))


class TestCpdagFromDag:
    def test_directed_edges_are_exactly_the_invariant_ones(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            dag = random_pdgraph_dag(rng, 6, 0.35)
            members = class_members_by_skeleton(dag)
            assert dag in members
            compelled = frozenset.intersection(*(m.directed_edges() for m in members))
            g = cpdag_from_dag(dag)
            assert set(g.directed_edges()) == compelled
            assert g.skeleton() == dag.skeleton()

    def test_same_class_same_graph(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            dag = random_pdgraph_dag(rng, 6, 0.35)
            g = cpdag_from_dag(dag)
            for member in class_members_by_skeleton(dag):
                assert cpdag_from_dag(member) == g

    def test_collider_kept_directed(self):
        dag = PDGraph(3, directed=[(0, 1), (2, 1)])
        assert cpdag_from_dag(dag) == dag

    def test_chain_fully_undirected(self):
        dag = PDGraph(3, directed=[(0, 1), (1, 2)])
        g = cpdag_from_dag(dag)
        assert not g.directed_edges()
        assert g.undirected_edges() == {(0, 1), (1, 2)}


# ---------------------------------------------------------------------------
# extension


class TestExtension:
    def test_four_cycle_not_extendable(self):
        g = PDGraph(4, undirected=[(0, 1), (1, 2), (2, 3), (0, 3)])
        assert extend_to_dag(g) is None

    def test_extension_preserves_class(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            dag = random_pdgraph_dag(rng, 6, 0.35)
            g = cpdag_from_dag(dag)
            ext = extend_to_dag(g)
            assert ext is not None and ext.is_dag()
            assert ext.skeleton() == g.skeleton()
            assert reference_v_structures(ext) == reference_v_structures(g)
            assert ext.directed_edges() >= g.directed_edges()

    def test_directed_input_returned_as_is(self):
        dag = PDGraph(3, directed=[(0, 1), (1, 2)])
        assert extend_to_dag(dag) == dag

    def test_collider_creating_orientation_refused(self):
        # 0 -> 1 - 2 cannot extend by 2 -> 1 (new collider); only 1 -> 2 works.
        g = PDGraph(3, directed=[(0, 1)], undirected=[(1, 2)])
        ext = extend_to_dag(g)
        assert directed(ext, 1, 2)


# ---------------------------------------------------------------------------
# class enumeration


class TestEnumerateDags:
    def test_matches_brute_force_on_random_classes(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            dag = random_pdgraph_dag(rng, 7, 0.3)
            g = cpdag_from_dag(dag)
            assert set(enumerate_dags(g)) == class_members_by_skeleton(dag)

    def test_consistent_extensions_of_partial_orientations(self):
        # Enumeration must also work from a partially oriented class
        # representative: every returned DAG extends the given arrows.
        g = PDGraph(4, directed=[(0, 1)], undirected=[(1, 2), (2, 3)])
        h = meek_closure(g)
        dags = enumerate_dags(h)
        assert dags == sorted(set(dags), key=lambda d: tuple(sorted(d.directed_edges())))
        for d in dags:
            assert d.directed_edges() >= h.directed_edges()
            assert set(enumerate_dags(d)) == {d}

    def test_path_class_has_four_members(self, path_graph):
        dags = enumerate_dags(path_graph)
        assert len(dags) == 4
        assert len(set(dags)) == 4
        for d in dags:
            assert d.is_dag()
            assert not reference_v_structures(d)

    def test_order_is_deterministic(self, path_graph):
        first = enumerate_dags(path_graph)
        second = enumerate_dags(path_graph)
        assert first == second

    def test_triangle_enumerates_all_orders(self):
        g = PDGraph(3, undirected=[(0, 1), (0, 2), (1, 2)])
        assert len(enumerate_dags(g)) == 6

    def test_non_extendable_raises(self):
        g = PDGraph(4, undirected=[(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(NotExtendableError):
            enumerate_dags(g)

    def test_directed_cycle_raises(self):
        # The extension pre-check is what keeps a directed cycle out of the
        # class: the search only checks the edges it orients itself.
        g = PDGraph(4, directed=[(0, 1), (1, 2), (2, 0)], undirected=[(2, 3)])
        with pytest.raises(NotExtendableError):
            enumerate_dags(g)
        with pytest.raises(NotExtendableError):
            global_effects(CovMatrix(np.eye(4)), g, 3)

    def test_dead_end_prefix_of_a_chorded_four_cycle(self):
        # K4 minus the edge 0 - 1.  The prefix 0 -> 2, 3 -> 0, 2 -> 1, 1 -> 3
        # directs the 4-cycle 0 -> 2 -> 1 -> 3 -> 0 before its chord 2 - 3
        # is reached, which the triangle rule allows; both orientations of
        # the chord then close a triangle, so the prefix has no leaf.
        g = PDGraph(4, undirected=[(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert enumerate_dags(g) == brute_force_in_order(g)
        assert class_parent_masks(g, 12, 25000) == reference_class_parent_masks(g, 12, 25000)

    def test_triangle_through_a_fixed_edge(self):
        # 0 -> 2 inside the undirected component {0, 1, 2}: extendable, but
        # not a chain graph; 1 -> 0 with 2 -> 1 would close a triangle.
        g = PDGraph(3, directed=[(0, 2)], undirected=[(0, 1), (1, 2)])
        assert not is_chain_graph(g)
        assert enumerate_dags(g) == brute_force_in_order(g)
        assert len(enumerate_dags(g)) == 3

    def test_chordless_cycle_through_a_fixed_edge_raises(self):
        # 1 -> 0 -> 3 -> 2 -> 1 makes no new collider and no triangle, so
        # only the extension pre-check keeps this directed 4-cycle out.
        g = PDGraph(4, directed=[(0, 3)], undirected=[(0, 1), (1, 2), (2, 3)])
        with pytest.raises(NotExtendableError):
            enumerate_dags(g)

    def test_component_cap(self):
        g = PDGraph(6, undirected=[(i, j) for i in range(6) for j in range(i + 1, 6)])
        with pytest.raises(ResourceCapError):
            enumerate_dags(g, max_component_edges=12)
        assert len(enumerate_dags(g, max_component_edges=15)) == 720

    def test_total_cap(self):
        # Two independent triangles: 36 members total.
        tri = [(0, 1), (0, 2), (1, 2)]
        g = PDGraph(6, undirected=tri + [(u + 3, v + 3) for u, v in tri])
        assert len(enumerate_dags(g)) == 36
        with pytest.raises(ResourceCapError):
            enumerate_dags(g, max_dags=35)

    def test_cap_error_names_configured_limit(self):
        g = PDGraph(6, undirected=[(i, j) for i in range(6) for j in range(i + 1, 6)])
        with pytest.raises(ResourceCapError, match="12"):
            enumerate_dags(g, max_component_edges=12)

    @pytest.mark.parametrize("kind", ["cpdag", "partial"])
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_brute_force_in_order_and_caps(self, kind, seed):
        # Random CPDAGs, and random DAGs with a random subset of the edges
        # outside their colliders left undirected: the DAG still extends
        # such a graph, which is in general not completed.  Vertices are
        # relabeled so edges do not all point from lower to higher index.
        # Sizes come from the seed, so they do not shrink toward trivia.
        rng = np.random.default_rng(seed)
        p = int(rng.integers(3, 8))
        dag = random_pdgraph_dag(rng, p, float(rng.uniform(0.25, 0.8)))
        dag = relabel(dag, list(rng.permutation(p)))
        g = cpdag_from_dag(dag) if kind == "cpdag" else loosened(dag, rng)
        if len(g.undirected_edges()) > 10:
            return  # keeps the brute force at most 2**10 orientations
        oracle = brute_force_in_order(g)
        assert oracle, "dag itself extends g"
        # Caps below, at and above the class size, and the default.
        max_dags = int(rng.choice([rng.integers(1, 2 * len(oracle) + 1), 25000]))
        if len(oracle) > max_dags:
            with pytest.raises(ResourceCapError, match=f"exceeds {max_dags} DAGs"):
                enumerate_dags(g, max_dags=max_dags)
        else:
            assert enumerate_dags(g, max_dags=max_dags) == oracle
        if kind == "cpdag":
            assert all(cpdag_from_dag(d) == g for d in oracle)

    @pytest.mark.parametrize("kind", ["cpdag", "partial", "pc"])
    def test_triangle_rule_matches_reachability_rule(self, kind):
        # The search refuses only orientations that close a directed
        # triangle; `reference_class_parent_masks` refuses every one that
        # closes a directed cycle.  Members, order and errors must agree,
        # on components of up to 12 edges and under caps below, at and
        # above the class size, also on inputs that are not chain graphs.
        drawn = collections.Counter()

        def outcome(search, g, max_dags):
            try:
                return search(g, 12, max_dags)
            except CausalSpanError as e:
                return type(e), str(e)

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(seed=st.integers(0, 2**32 - 1))
        def check(seed):
            rng = np.random.default_rng(seed)
            g = class_search_input(kind, rng)
            full = outcome(reference_class_parent_masks, g, 25000)
            size = len(full) if isinstance(full, list) else 1
            max_dags = int(rng.choice([rng.integers(1, 2 * size + 1), 25000]))
            assert outcome(class_parent_masks, g, max_dags) == outcome(
                reference_class_parent_masks, g, max_dags
            )
            drawn[extend_to_dag(g) is not None, is_chain_graph(g)] += 1

        check()
        assert drawn[True, True]
        if kind != "cpdag":
            assert drawn[True, False], drawn


class TestClassComponents:
    """The class as the product of its undirected components' orientations
    (`_class_components`), against the search over their cross product in
    `conftest.reference_class_parent_masks`."""

    MODS = [(), ("zero_path",), ("prune_y",), ("zero_path", "prune_y")]

    @pytest.mark.parametrize("kind", ["cpdag", "partial", "pc"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_the_cross_product_search(self, kind, seed):
        # Members in order, the global route's plan entries under every
        # modification, and the errors with their precedence: the
        # extension, then each component's edge cap, then the class cap,
        # which a class of exactly `max_dags` members passes.
        rng = np.random.default_rng(seed)
        g = class_search_input(kind, rng)
        y = int(rng.integers(g.n))
        covariates = tuple(v for v in range(g.n) if v != y)

        def outcome(search, *args):
            try:
                return search(*args)
            except CausalSpanError as e:
                return type(e), str(e)

        def expected_entries(mods, max_edges, max_dags):
            try:
                return reference_theta_entries(g, covariates, y, mods, max_edges, max_dags)
            except ResourceCapError as e:
                local = "the local route avoids enumeration and scales further"
                return ResourceCapError, f"{e}; {local}"
            except CausalSpanError as e:
                return type(e), str(e)

        def planned_entries(mods, max_edges, max_dags):
            return _theta_plan(g, covariates, y, mods, max_edges, max_dags).entries

        full = outcome(reference_class_parent_masks, g, 12, 25000, True)
        size = len(full) if isinstance(full, list) else 1
        max_edges = int(rng.choice([12, rng.integers(0, 13)]))
        for max_dags in {size, max(size - 1, 1), int(rng.integers(1, 2 * size + 1)), 25000}:
            assert outcome(class_parent_masks, g, max_edges, max_dags) == outcome(
                reference_class_parent_masks, g, max_edges, max_dags, True
            )
            for mods in self.MODS:
                assert outcome(planned_entries, mods, max_edges, max_dags) == (
                    expected_entries(mods, max_edges, max_dags)
                )

    def test_a_product_past_the_cap_stops_after_a_few_leaves(self, monkeypatch):
        # 20 disjoint edges: 2**20 members.  After 14 components the
        # product is 2**14 <= 25000, so the 15th may list one orientation
        # and stops at its second: the search reaches 30 leaves.
        g = PDGraph(40, undirected=[(2 * k, 2 * k + 1) for k in range(20)])
        searches = []
        search = graphs._orientations

        def counted(g, comp, und, adj, size, max_dags):
            searches.append(size)
            listed = search(g, comp, und, adj, size, max_dags)
            searches[-1] = len(listed)
            return listed

        monkeypatch.setattr(graphs, "_orientations", counted)
        with pytest.raises(ResourceCapError, match=r"^equivalence class exceeds 25000 DAGs$"):
            enumerate_dags(g)
        # 14 searches listed their two orientations; the 15th, after a
        # product of 2**14, raised at the leaf that passed 25000.  A
        # component of one edge has at most two orientations.
        assert searches == [2] * 14 + [2**14]
        assert sum(searches[:-1]) + 2 == 30
        comps = _class_components(g, 12, 2**20)
        assert math.prod(len(c.orientations) for c in comps) == 2**20

    def test_the_plan_reads_components_without_listing_members(self, monkeypatch):
        # Two triangles and a path: 6 * 6 * 3 = 108 members.  Without
        # `zero_path` each covariate's entries come from its own component.
        tri = [(0, 1), (0, 2), (1, 2)]
        g = PDGraph(10, undirected=tri + [(u + 3, v + 3) for u, v in tri] + [(6, 7), (7, 8)],
                    directed=[(2, 9), (5, 9)])

        def unlisted(*args):
            raise AssertionError("members listed")

        monkeypatch.setattr(effects, "_class_members", unlisted)
        for mods in ((), ("prune_y",)):
            assert _theta_plan(g, tuple(range(9)), 9, mods, 12, 25000).entries == (
                reference_theta_entries(g, tuple(range(9)), 9, mods, 12, 25000)
            )
        assert _theta_plan(g, (6,), 9, (), 12, 25000).entries == [[((), 36), ((7,), 72)]]


def class_parent_masks(g: PDGraph, max_component_edges: int, max_dags: int):
    """The members' parent masks, from g's components, as the package
    expands them."""
    return _class_members(g, _class_components(g, max_component_edges, max_dags))


def loosened(dag: PDGraph, rng: np.random.Generator) -> PDGraph:
    """dag with a random subset of the edges outside its colliders left
    undirected: dag still extends it, and it is in general not completed."""
    vs = reference_v_structures(dag)
    fixed = {(a, j) for a, j, _ in vs} | {(c, j) for _, j, c in vs}
    loose = [e for e in sorted(dag.directed_edges() - fixed) if rng.random() < 0.8]
    return PDGraph(
        dag.n,
        directed=dag.directed_edges() - set(loose),
        undirected=[(min(u, v), max(u, v)) for u, v in loose],
    )


def class_search_input(kind: str, rng: np.random.Generator) -> PDGraph:
    """A relabeled CPDAG or loosened DAG, dense enough that some components
    pass the brute force's 10 edges; or collider orientation of a PC
    skeleton from a few rows, without Meek's rules or repair."""
    if kind == "pc":
        return reference_inputs("pc", int(rng.integers(2**32)))[0]
    p = int(rng.integers(4, 10))
    dag = random_pdgraph_dag(rng, p, float(rng.uniform(0.3, 0.9)))
    dag = relabel(dag, list(rng.permutation(p)))
    return cpdag_from_dag(dag) if kind == "cpdag" else loosened(dag, rng)


# ---------------------------------------------------------------------------
# reachability and local validity


class TestReachability:
    def test_directed_path(self):
        g = PDGraph(4, directed=[(0, 1), (1, 2)])
        assert _reach(g._ch, 1 << 0) == 0b0111
        assert _reach(g._ch, 1 << 2) == 0b0100
        assert _reach(g._pa, 1 << 2) == 0b0111

    def test_skeleton_component(self):
        g = PDGraph(5, directed=[(0, 1)], undirected=[(1, 2)])
        assert _reach(g._adjacency(), 1 << 0) == 0b00111
        assert _reach(g._adjacency(), 1 << 3) == 0b01000

    def test_allows_path_true_when_some_member_has_one(self, path_graph):
        # Vertex 3 is an endpoint: the member orienting 3 -> 0 -> 1 -> 2
        # reaches every other vertex.
        assert allows_directed_path(path_graph, 3, 2)
        assert allows_directed_path(path_graph, 2, 3)

    def test_allows_path_false_across_components(self):
        g = PDGraph(4, undirected=[(0, 1)])
        assert not allows_directed_path(g, 0, 3)

    def test_allows_path_false_against_arrows(self):
        # 0 -> 1 <- 2 is fully compelled; nothing leaves vertex 1.
        g = PDGraph(3, directed=[(0, 1), (2, 1)])
        assert not allows_directed_path(g, 0, 2)
        assert not allows_directed_path(g, 1, 2)

    def test_allows_path_matches_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            dag = random_pdgraph_dag(rng, 6, 0.3)
            g = cpdag_from_dag(dag)
            members = enumerate_dags(g)
            for i in range(6):
                for y in range(6):
                    if i == y:
                        continue
                    expected = any(_reference_closure(to_amat(m), i)[y] for m in members)
                    assert allows_directed_path(g, i, y) == expected


class TestVertexChecks:
    """A vertex outside 0..n-1 gets the ValueError that `local_effects`
    raises for it, not an answer for another vertex or an error from the
    bit arithmetic."""

    @pytest.mark.parametrize("call, args, role, v", [
        (allows_directed_path, (0, 5), "response", 5),
        (allows_directed_path, (7, 1), "covariate", 7),
        (allows_directed_path, (0, -1), "response", -1),
        (is_locally_valid, (3, []), "covariate", 3),
        (is_locally_valid, (-1, [0]), "covariate", -1),
        (oracle_multiplicities, (-1,), "covariate", -1),
        (oracle_multiplicities, (3,), "covariate", 3),
    ], ids=["path-y5", "path-i7", "path-y-1", "valid-i3", "valid-i-1", "oracle-i-1",
            "oracle-i3"])
    def test_out_of_range_vertex_raises(self, call, args, role, v):
        g = PDGraph(3, undirected=[(0, 1), (1, 2), (0, 2)])
        i, y = (v, 1) if role == "covariate" else (0, v)
        with pytest.raises(ValueError) as expected:
            local_effects(CovMatrix(np.eye(3)), g, i, y)
        with pytest.raises(ValueError) as raised:
            call(g, *args)
        assert str(raised.value) == str(expected.value)
        assert str(raised.value) == f"{role} {v} is not a vertex of the graph (0..2)"


class TestLocalValidity:
    def test_requires_sibling_subset(self, path_graph):
        with pytest.raises(ValueError):
            is_locally_valid(path_graph, 0, frozenset({2}))

    @pytest.mark.parametrize("x", [-1, 0, 3, 5])
    def test_a_member_outside_the_siblings_raises(self, x):
        # A negative member gets the message of a positive one, not an
        # error from the shift.
        g = PDGraph(4, directed=[(3, 0)], undirected=[(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError) as raised:
            is_locally_valid(g, 0, [1, x])
        assert str(raised.value) == f"{x} is not a sibling of 0"

    def test_pairwise_adjacency_required(self, path_graph):
        # Vertices 1 and 3 are both siblings of 0 but not adjacent: orienting
        # both into 0 would create a new collider.
        assert is_locally_valid(path_graph, 0, frozenset())
        assert is_locally_valid(path_graph, 0, frozenset({1}))
        assert is_locally_valid(path_graph, 0, frozenset({3}))
        assert not is_locally_valid(path_graph, 0, frozenset({1, 3}))

    def test_adjacency_with_parents_required(self):
        # 2 -> 1, 1 - 0: orienting 0 into 1 adds parent 0 nonadjacent to 2.
        g = PDGraph(3, directed=[(2, 1)], undirected=[(0, 1)])
        assert not is_locally_valid(g, 1, frozenset({0}))

    def test_matches_class_membership(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            dag = random_pdgraph_dag(rng, 6, 0.35)
            g = cpdag_from_dag(dag)
            members = enumerate_dags(g)
            for i in range(6):
                pa, sib = g.parents(i), sorted(g.siblings(i))
                for mask in range(1 << len(sib)):
                    s = frozenset(sib[b] for b in range(len(sib)) if mask >> b & 1)
                    in_class = any(m.parents(i) == pa | s for m in members)
                    assert is_locally_valid(g, i, s) == in_class


# ---------------------------------------------------------------------------
# chordality and validation


class TestChordality:
    def test_triangle_chordal(self):
        g = PDGraph(3, undirected=[(0, 1), (1, 2), (0, 2)])
        assert validate_cpdag(g).undirected_chordal
        order = _perfect_elimination_order(g._sib)
        assert order is not None and sorted(order) == [0, 1, 2]

    def test_four_cycle_not_chordal(self):
        g = PDGraph(4, undirected=[(0, 1), (1, 2), (2, 3), (0, 3)])
        assert not validate_cpdag(g).undirected_chordal
        assert _perfect_elimination_order(g._sib) is None

    def test_order_is_perfect(self):
        g = PDGraph(5, undirected=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        order = _perfect_elimination_order(g._sib)
        remaining = set(range(5))
        for v in order:
            later = g.siblings(v) & remaining - {v}
            for a in later:
                for b in later:
                    if a < b:
                        assert undirected(g, a, b)
            remaining.discard(v)

    def test_cpdag_undirected_part_always_chordal(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            dag = random_pdgraph_dag(rng, 7, 0.35)
            assert validate_cpdag(cpdag_from_dag(dag)).undirected_chordal


class TestValidation:
    def test_true_class_representative_is_valid(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            dag = random_pdgraph_dag(rng, 6, 0.35)
            v = validate_cpdag(cpdag_from_dag(dag))
            assert v.is_valid and not v.problems

    def test_four_cycle_reported(self):
        g = PDGraph(4, undirected=[(0, 1), (1, 2), (2, 3), (0, 3)])
        v = validate_cpdag(g)
        assert not v.is_valid
        assert not v.extendable
        assert not v.undirected_chordal
        assert v.problems


# ---------------------------------------------------------------------------
# agreement with the edge-mark-matrix references


def reference_inputs(kind: str, seed: int, p_max: int | None = None) -> list[PDGraph]:
    """Graphs of one kind, drawn from the seed: a CPDAG; a DAG with a random
    subset of its edges (colliders included) left undirected; or collider
    orientation of a PC skeleton from a few rows, which is often not a
    valid CPDAG.  Each comes with the DAG it was drawn from.  p is at most
    10 for "pc" and 8 otherwise, or at most `p_max` when given."""
    rng = np.random.default_rng(seed)
    if kind == "pc":
        # About half of these have collider conflicts, and one in ten
        # stays invalid after Meek's rules.
        p = int(rng.integers(5, 11 if p_max is None else p_max + 1))
        w = random_weighted_dag(p, float(rng.uniform(1.5, 4.0)), rng)
        d = generate_data(w, int(rng.integers(20, 60)), rng)
        skeleton, sepsets, _ = estimate_skeleton(d, CITestConfig(float(rng.choice([0.2, 0.5]))))
        return [orient_v_structures(skeleton, sepsets), w.graph]
    p = int(rng.integers(3, 9 if p_max is None else p_max + 1))
    dag = random_pdgraph_dag(rng, p, float(rng.uniform(0.2, 0.8)))
    dag = relabel(dag, list(rng.permutation(p)))
    if kind == "cpdag":
        return [reference_cpdag_from_dag(dag), dag]
    loose = [e for e in sorted(dag.directed_edges()) if rng.random() < 0.6]
    g = PDGraph(
        p,
        directed=dag.directed_edges() - set(loose),
        undirected=[(min(u, v), max(u, v)) for u, v in loose],
    )
    return [g, dag]


class TestMatchesReferences:
    @pytest.mark.parametrize("kind", ["cpdag", "partial", "pc"])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_mask_algorithms_match_matrix_references(self, kind, seed):
        g, dag = reference_inputs(kind, seed)
        n = g.n
        assert meek_closure(g) == reference_meek_closure(g)
        ext = reference_extend_to_dag(g)
        assert extend_to_dag(g) == ext
        order = reference_elimination_order(g)
        v = validate_cpdag(g)
        assert (v.extendable, v.undirected_chordal) == (ext is not None, order is not None)
        assert (_perfect_elimination_order(g._sib) is None) == (order is None)
        assert colliders(g) == reference_v_structures(g)
        assert g.topological_order() == reference_topological_order(g)
        assert g.is_dag() == reference_is_dag(g)
        for d in (dag, ext):
            if d is not None:
                assert cpdag_from_dag(d) == reference_cpdag_from_dag(d)
        # Reachability: closures of the directed part and of the skeleton.
        amat = to_amat(g)
        for step, masks in ((amat & ~amat.T, g._ch), (amat | amat.T, g._adjacency())):
            for i in range(n):
                reach = _reference_closure(step, i)
                assert [bool(_reach(masks, 1 << i) >> y & 1) for y in range(n)] == reach.tolist()


class TestOnePassForms:
    """The one-pass graph routines against the edge-mark-matrix references
    on larger graphs than `TestMatchesReferences` draws."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_chickering_cpdag_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 41))
        dag = random_pdgraph_dag(rng, p, float(rng.uniform(0.5, 5.0)) / p)
        dag = relabel(dag, list(rng.permutation(p)))
        assert cpdag_from_dag(dag) == reference_cpdag_from_dag(dag)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_maximum_cardinality_search_matches_reference(self, seed):
        # Half the inputs are a CPDAG's undirected part, which is chordal;
        # the others are random graphs, mostly not chordal once dense.
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 16))
        if rng.random() < 0.5:
            dag = relabel(random_pdgraph_dag(rng, p, rng.uniform(0.1, 0.9)), list(rng.permutation(p)))
            edges = cpdag_from_dag(dag).undirected_edges()
        else:
            density = rng.uniform(0.05, 0.6)
            edges = [e for e in itertools.combinations(range(p), 2) if rng.random() < density]
        g = PDGraph(p, undirected=edges)
        order = _perfect_elimination_order(g._sib)
        assert (order is None) == (reference_elimination_order(g) is None)
        if order is not None:
            assert sorted(order) == list(range(p))
            for k, v in enumerate(order):
                later = g._sib[v] & ~sum(1 << u for u in order[:k])
                assert all(later & ~g._sib[u] == 1 << u for u in _bits(later))

    @pytest.mark.parametrize("kind", ["partial", "pc"])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_meek_and_extension_match_references_up_to_p30(self, kind, seed):
        g, _ = reference_inputs(kind, seed, p_max=30)
        assert meek_closure(g) == reference_meek_closure(g)
        assert extend_to_dag(g) == reference_extend_to_dag(g)

    def test_one_extension_per_graph_object(self, monkeypatch):
        # PC's validation and the class search's pre-check share one sink
        # elimination per graph object; an equal graph built anew has its
        # own, and the memo changes neither equality nor hash.
        calls = collections.Counter()
        run = graphs._sink_elimination

        def spy(g):
            calls[id(g)] += 1
            return run(g)

        monkeypatch.setattr(graphs, "_sink_elimination", spy)
        rng = np.random.default_rng(53)
        kept, valid = [], 0
        while valid < 10:
            w = random_weighted_dag(8, 2.5, rng)
            res = pc_cpdag(generate_data(w, 500, rng), CITestConfig(0.05))
            g = res.graph
            kept.append(g)
            assert res.validation == validate_cpdag(g)
            if not res.validation.is_valid:
                continue
            valid += 1
            members = class_parent_masks(g, 12, 25000)
            assert extend_to_dag(g) is extend_to_dag(g)
            assert extend_to_dag(g)._pa in members
            twin = PDGraph._from_masks(g._pa, g._ch, g._sib)
            assert twin == g and hash(twin) == hash(g)
            assert extend_to_dag(twin) == extend_to_dag(g)
            kept.append(twin)
        assert calls == {id(g): 1 for g in kept}


# ---------------------------------------------------------------------------
# serialization


class TestSerialization:
    def test_json_round_trip(self):
        g = PDGraph(3, directed=[(0, 1)], undirected=[(1, 2)])
        doc = json.loads(json.dumps(g.to_json_dict(names=("a", "b", "c"))))
        assert doc == {
            "p": 3,
            "names": ["a", "b", "c"],
            "edges": [
                {"from": 0, "to": 1, "directed": True},
                {"from": 1, "to": 2, "directed": False},
            ],
        }

    def test_json_lists_undirected_once(self):
        g = PDGraph(2, undirected=[(0, 1)])
        (edge,) = g.to_json_dict()["edges"]
        assert edge["directed"] is False
