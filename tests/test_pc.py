"""Structure estimation: skeleton search, batched skeleton searches,
collider orientation with overwrite logging, the full pipeline in exact and
sample modes, incoherence repair, and alpha selection."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalspan import (
    CausalSpanError,
    CITestConfig,
    CovMatrix,
    Dataset,
    DegenerateDataError,
    NumericalRankError,
    PcDiagnostics,
    PcResult,
    PDGraph,
    beta_given_s,
    bic_select_alpha,
    bootstrap_scores,
    correlation_matrix,
    cpdag_from_dag,
    effects,
    estimate_skeleton,
    gauss,
    generate_data,
    orient_v_structures,
    pc,
    pc_cpdag,
    random_weighted_dag,
    repair_cpdag,
    sim,
    structural_covariance,
    validate_cpdag,
)
from conftest import (
    reference_repair,
    reference_skeleton,
    reference_streamed_blocks,
    weighted_cov,
)


def counted_skeleton(source, alpha):
    """`estimate_skeleton` at alpha, plus the blocks and the stacked calls
    per level that it decided (by elimination or by the exact inverse)."""
    blocks: dict[int, int] = {}
    calls: dict[int, int] = {}
    decide = pc._stack_verdicts

    def counted(stack, rule, floor):
        level = stack.shape[1] - 2
        calls[level] = calls.get(level, 0) + 1
        blocks[level] = blocks.get(level, 0) + len(stack)
        return decide(stack, rule, floor)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pc, "_stack_verdicts", counted)
        g, sepsets, diag = estimate_skeleton(source, CITestConfig(alpha))
    return g, sepsets, diag, (blocks, calls)


class TestSkeleton:
    def test_population_hub_model(self, hub_direct_model):
        w, evars = hub_direct_model
        cov = weighted_cov(w, evars)
        g, sepsets, diag = estimate_skeleton(cov, CITestConfig(0.01))
        assert g.undirected_edges() == {(0, 1), (1, 2), (0, 3), (1, 3), (2, 3)}
        # The two children are independent given the hub.
        assert sepsets[(0, 2)] == (1,)
        assert diag.tests_per_level[0] > 0

    def test_independent_columns_fully_disconnected(self):
        cov = CovMatrix(np.eye(4))
        g, sepsets, _ = estimate_skeleton(cov, CITestConfig(0.01))
        assert not g.undirected_edges()
        assert all(s == () for s in sepsets.values())

    def test_insufficient_rows_skip_and_keep_edges(self):
        # Four rows leave exactly one effective observation at level 0 and
        # none at level 1: near-collinear columns keep their edges, and the
        # level-1 attempts are recorded as skips instead of crashing.
        vals = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 1.0, 1.05],
                [2.0, 2.1, 2.0],
                [3.0, 3.1, 3.2],
            ]
        )
        d = Dataset(vals, ("a", "b", "c"), 2)
        g, _, diag = estimate_skeleton(d, CITestConfig(0.01))
        assert diag.skipped_insufficient_n > 0
        assert g.undirected_edges() == {(0, 1), (0, 2), (1, 2)}
        assert set(diag.tests_per_level) == {0}


    # The reference's level cap: the package search runs every level.
    @pytest.mark.parametrize("max_level", [None])
    @pytest.mark.parametrize(
        "kind", ["data-4", "data-6", "data-30", "data-500", "cov-30", "population"]
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(2, 9),
        alpha=st.sampled_from([0.01, 0.05, 0.3]),
    )
    def test_matches_one_test_at_a_time_reference(self, kind, max_level, seed, p, alpha):
        # The stacked search must consult the same tests, in the same
        # order, as the sequential loop: same graph, sepsets and counts.
        rng = np.random.default_rng(seed)
        w = random_weighted_dag(p, float(rng.uniform(1.0, 4.0)), rng)
        if kind == "population":
            source = CovMatrix(structural_covariance(w.weights))
        else:
            d = generate_data(w, int(kind.split("-")[1]), rng)
            source = d if kind.startswith("data") else d.covariance

        def run(search):
            try:
                return search()
            except NumericalRankError as e:
                return str(e)

        def stacked():
            g, sepsets, diag = estimate_skeleton(source, CITestConfig(alpha))
            return (g.undirected_edges(), sepsets, diag.tests_per_level,
                    diag.skipped_insufficient_n)

        assert run(stacked) == run(lambda: reference_skeleton(source, alpha, max_level))

    @pytest.mark.parametrize("kind", ["data-4", "data-30", "data-500", "population"])
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(3, 9),
        stack=st.integers(1, 7),
    )
    def test_small_chunks_and_stacks_match_reference(self, kind, seed, p, stack):
        # With a few blocks per stack, pairs' sets straddle stacks and a
        # pair stops several stacks after its first set.
        rng = np.random.default_rng(seed)
        w = random_weighted_dag(p, float(rng.uniform(1.0, 4.0)), rng)
        if kind == "population":
            source = CovMatrix(structural_covariance(w.weights))
        else:
            source = generate_data(w, int(kind.split("-")[1]), rng)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pc, "_STACK", stack)
            g, sepsets, diag, work = counted_skeleton(source, 0.05)
        assert (g.undirected_edges(), sepsets, diag.tests_per_level,
                diag.skipped_insufficient_n) == reference_skeleton(source, 0.05)
        assert work == reference_streamed_blocks(source, 0.05, stack)

    def test_stacks_span_pairs_and_solve_the_old_blocks(self):
        # p = 50 at n = 1000, as in the local-wide benchmark: above level 0
        # each phase streams every pair's sets into shared stacks.
        rng = np.random.default_rng(11)
        d = generate_data(random_weighted_dag(50, 3.0, rng), 1000, rng)
        *_, (blocks, calls) = counted_skeleton(d, 0.01)
        assert (blocks, calls) == reference_streamed_blocks(d, 0.01, pc._STACK)
        assert len(blocks) >= 3
        assert calls[0] == 1
        # No pair solves a set past the stack holding its stop, so level 1
        # stays within the 21,097 blocks that whole 256-set chunks per pair
        # solved.
        assert blocks[1] <= 21097

    def test_singular_block_raises_with_its_pair_and_set(self):
        # A duplicated column: the first level-0 test is already singular.
        rng = np.random.default_rng(37)
        x = rng.normal(size=(200, 2))
        d = Dataset(np.column_stack([x[:, 0], x[:, 0], x[:, 1]]), ("a", "a_copy", "y"), 2)
        with pytest.raises(NumericalRankError) as e:
            pc_cpdag(d, CITestConfig(0.01))
        assert str(e.value) == "correlation submatrix for (0, 1 | ()) is singular"
        # c = a + b: level 0 separates a and b, then the first level-1 test
        # of (c, a) given b is singular.
        a, b = rng.normal(size=(2, 200))
        d = Dataset(np.column_stack([a, b, a + b]), ("a", "b", "c"), 2)
        with pytest.raises(NumericalRankError) as e:
            pc_cpdag(d, CITestConfig(0.01))
        assert str(e.value) == "correlation submatrix for (2, 0 | (1,)) is singular"

    def test_first_singular_block_in_search_order_raises(self):
        # Two collinear triples, c = a + b with a and b independent and
        # f = d + e with d and e correlated.  Level 1 solves (3, 4 | (5,))
        # in the first phase, but the search reaches (2, 0 | (1,)), a
        # second-phase pair (the edge 0 - 2 survives its first phase, where
        # 0 has no other neighbour), before it.
        rng = np.random.default_rng(5)
        a, b, d, e = rng.normal(size=(4, 200))
        e += d
        cols = np.column_stack([a, b, a + b, d, e, d + e])
        data = Dataset(cols, ("a", "b", "c", "d", "e", "f"), 5)
        message = "correlation submatrix for (2, 0 | (1,)) is singular"
        with pytest.raises(NumericalRankError) as err:
            estimate_skeleton(data, CITestConfig(0.01))
        assert str(err.value) == message
        with pytest.raises(NumericalRankError) as err:
            reference_skeleton(data, 0.01)
        assert str(err.value) == message

    def test_skip_counts_past_2_to_the_63_stay_exact(self):
        # 70 columns of one common factor at n = 4: level 0 keeps the
        # complete graph, and levels 1 to 68 are skipped, each with
        # 70 * 69 * C(68, l) sets, past what an int64 holds.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 1)) + 1e-3 * rng.standard_normal((4, 70))
        d = Dataset(x, tuple(f"X{i}" for i in range(70)), 69)
        g, _, diag = estimate_skeleton(d, CITestConfig(0.01))
        assert len(g.undirected_edges()) == 70 * 69 // 2
        assert diag.tests_per_level == {0: 4830}
        assert diag.skipped_insufficient_n == 4830 * (2**68 - 1)
        assert type(diag.skipped_insufficient_n) is int


class TestLevelStream:
    """The pieces of a level phase: the combination table a row's set comes
    from, and the stream of one item's sets through stacks."""

    def test_table_rows_are_the_lexicographic_combinations(self):
        for level in range(1, 7):
            table = pc._Combinations(level, 20)
            for d in range(21):
                want = list(itertools.combinations(range(d), level))
                rows = table.take(np.full(len(want), d), np.arange(len(want)))
                assert rows.shape == (len(want), level)
                assert [tuple(r) for r in rows.tolist()] == want

    def test_table_grown_in_prefix_steps(self):
        # Rows of several d in one call, and one d grown four times; every
        # step reads the rows the earlier steps made.
        table = pc._Combinations(3, 14)
        want = {d: list(itertools.combinations(range(d), 3)) for d in (5, 9, 12, 14)}
        for stop in (1, 5, 40, 220):
            rows = table.take(np.full(stop, 12), np.arange(stop))
            assert [tuple(r) for r in rows.tolist()] == want[12][:stop]
        d = np.array([5, 14, 9, 5, 12, 14])
        rank = np.array([9, 363, 0, 3, 219, 100])
        rows = table.take(d, rank)
        assert [tuple(r) for r in rows.tolist()] == [want[v][r] for v, r in zip(d, rank)]

    @staticmethod
    def one_item_phase(values, stack):
        """`_level_stops` at level 2 on the one item (0, 3) whose
        neighbours are every other vertex of 8, plus the (i, j, set) rows
        of each stack it made."""
        corr = CovMatrix(values)
        stacks = []
        decide = pc._stack_verdicts

        def recorded(blocks, rule, floor):
            stacks.append([
                next(s for s in itertools.combinations((1, 2, 4, 5, 6, 7), 2)
                     if np.array_equal(block, values[np.ix_((0, 3, *s), (0, 3, *s))]))
                for block in blocks
            ])
            return decide(blocks, rule, floor)

        # The item table's rows: matrix, i, j, start of i's neighbours, j's
        # place among them, their number less one.
        items = np.array([[0, 0, 3, 0, 2, 6]]).T
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pc, "_STACK", stack)
            mp.setattr(pc, "_stack_verdicts", recorded)
            found = pc._level_stops(
                corr.values[None], np.array([corr._eigen_floor]), items, np.array([15]),
                np.array([1, 2, 3, 4, 5, 6, 7]), pc._Combinations(2, 6), pc._POPULATION_RULE,
            )
        return stacks, [[a.tolist() for a in part] for part in found]

    def test_one_item_streams_through_several_stacks(self):
        # A dense population matrix: no set of the item stops it, so its 15
        # sets fill five stacks of three, in lexicographic order.
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 8))
        cov = a @ a.T + np.eye(8)
        scale = 1 / np.sqrt(np.diag(cov))
        stacks, found = self.one_item_phase(cov * scale[:, None] * scale[None, :], 3)
        assert stacks == [list(itertools.combinations((1, 2, 4, 5, 6, 7), 2))[k:k + 3]
                          for k in range(0, 15, 3)]
        assert found == []

    def test_one_item_stops_inside_its_third_stack(self):
        # 0 and 3 share the parents 2 and 6 and the child 1, so only the
        # set (2, 6), the item's eighth, separates them: the item stops in
        # its third stack, which the end cuts, and goes no further.
        w = np.zeros((8, 8))
        edges = [(0, 2), (3, 2), (0, 6), (3, 6), (1, 0), (1, 3), (0, 4), (3, 5), (0, 7)]
        for k, (child, parent) in enumerate(edges):
            w[child, parent] = 0.5 + 0.07 * k
        cov = structural_covariance(w)
        scale = 1 / np.sqrt(np.diag(cov))
        stacks, found = self.one_item_phase(cov * scale[:, None] * scale[None, :], 3)
        sets = list(itertools.combinations((1, 2, 4, 5, 6, 7), 2))
        assert stacks == [sets[0:3], sets[3:6], sets[6:9]]
        assert found == [[[0], [7], [[2, 6]], [False]]]


class TestConditioningFlag:
    """A CovMatrix with a positive eigenvalue floor, which bounds all its
    principal blocks, lets the skeleton and `beta_given_s` skip the
    per-block condition check.  Forcing the floor to 0.0 runs the
    per-block path on the same input; both must give the same bits and
    the same errors."""

    @staticmethod
    def source(kind: str, seed: int):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(3, 11))
        w = random_weighted_dag(p, float(rng.uniform(1.0, 4.0)), rng)
        if kind == "population":
            return CovMatrix(structural_covariance(w.weights))
        n = {"wide": int(rng.integers(2, p)), "bootstrap": 40}.get(
            kind, int(rng.choice([8, 30, 500]))
        )
        d = generate_data(w, n, rng)
        if kind == "bootstrap":
            d = d.resample_rows(rng.integers(0, n, n))
        elif kind == "near-duplicate":
            v = d.values.copy()
            a, b = rng.choice(p, 2, replace=False)
            scale = float(rng.choice([0.0, 1e-12, 1e-8, 1e-6, 1e-3]))
            v[:, b] = v[:, a] + scale * rng.standard_normal(n)
            d = Dataset(v, d.names, d.response)
        return d.covariance if kind == "sample-cov" else d

    @staticmethod
    def outputs(kind: str, seed: int):
        """Skeleton and regressions of a freshly built source (so every
        CovMatrix in them is made under the current floor rule), each
        result or NumericalRankError message, plus whether the floors that
        served were positive and the sample size."""
        source = TestConditioningFlag.source(kind, seed)
        cov = source if isinstance(source, CovMatrix) else source.covariance
        try:
            g, sepsets, diag = estimate_skeleton(source, CITestConfig(0.05))
            skeleton = (g.undirected_edges(), sepsets, diag.tests_per_level,
                        diag.skipped_insufficient_n)
        except NumericalRankError as e:
            skeleton = str(e)
        rng = np.random.default_rng(seed + 1)
        p = cov.n_columns
        betas = []
        for _ in range(12):
            i, y = (int(v) for v in rng.choice(p, 2, replace=False))
            others = [k for k in range(p) if k != i]
            s = tuple(int(v) for v in rng.choice(others, int(rng.integers(0, p - 1)), replace=False))
            try:
                betas.append(beta_given_s(source, i, s, y).hex())
            except NumericalRankError as e:
                betas.append(str(e))
        flags = (cov._eigen_floor > 0, cov.correlation()._eigen_floor > 0)
        return skeleton, betas, flags, cov.n

    @pytest.mark.parametrize(
        "kind", ["population", "data", "sample-cov", "bootstrap", "near-duplicate", "wide"]
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 2))
    def test_flag_changes_no_output(self, kind, seed):
        skeleton, betas, flags, n = self.outputs(kind, seed)
        check = gauss._check_stack

        def flag_off(v, ns):
            floors, problems = check(v, ns)
            return np.zeros_like(floors), problems

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gauss, "_check_stack", flag_off)
            skeleton_off, betas_off, flags_off, _ = self.outputs(kind, seed)
        assert flags_off == (False, False)
        assert skeleton_off == skeleton
        assert betas_off == betas
        if kind == "wide":
            assert flags == (False, False)
        elif kind == "population" or (kind != "near-duplicate" and n >= 30):
            assert flags == (True, True)

    @staticmethod
    def traced_skeleton(source, alpha):
        """The skeleton's outputs, plus per block size k the rows of every
        stack decided, the rows that took elimination, and the rows and
        floors of every exact-inverse call."""
        stacks, eliminated, exact = {}, {}, []
        decide = pc._stack_verdicts
        eliminate = gauss._eliminated_partial_correlations
        invert = gauss._partial_correlations

        def add(log, blocks):
            log[blocks.shape[1]] = log.get(blocks.shape[1], 0) + len(blocks)

        def traced_decide(blocks, rule, floor):
            add(stacks, blocks)
            return decide(blocks, rule, floor)

        def traced_eliminate(blocks):
            add(eliminated, blocks)
            return eliminate(blocks)

        def traced_invert(blocks, floor=0.0):
            exact.append((blocks.shape[1], len(blocks), np.broadcast_to(floor, len(blocks))))
            return invert(blocks, floor)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pc, "_stack_verdicts", traced_decide)
            mp.setattr(gauss, "_eliminated_partial_correlations", traced_eliminate)
            mp.setattr(gauss, "_partial_correlations", traced_invert)
            try:
                g, sepsets, diag = estimate_skeleton(source, CITestConfig(alpha))
                out = (g.undirected_edges(), sepsets, diag.tests_per_level,
                       diag.skipped_insufficient_n)
            except NumericalRankError as e:
                out = str(e)
        return out, stacks, eliminated, exact

    def test_stacks_past_the_error_cap_take_the_exact_path(self):
        # y = a + b + c + d + e + 1e-3 noise at n = 1000: the correlation's
        # condition number is about 2e7, inside the floor's 1e8, so the
        # floor is positive, but from 4 x 4 blocks (level 2) on delta_k
        # passes the cap.
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1000, 5))
        y = x.sum(axis=1) + 1e-3 * rng.standard_normal(1000)
        d = Dataset(np.column_stack([x, y]), tuple("abcdey"), 5)
        corr = correlation_matrix(d)
        assert corr._eigen_floor > 0
        capped = {k for k in range(2, 8)
                  if gauss._rho_error(k, corr._eigen_floor) > gauss._DELTA_CAP}
        assert capped == {4, 5, 6, 7}
        out, stacks, eliminated, exact = self.traced_skeleton(d, 0.01)
        assert set(stacks) == {2, 3, 4, 5, 6}
        assert eliminated == {k: m for k, m in stacks.items() if k not in capped}
        whole = {}
        for k, m, floor in exact:
            assert (floor > 0).all()
            if k in capped:
                whole[k] = whole.get(k, 0) + m
        assert whole == {k: m for k, m in stacks.items() if k in capped}
        assert out == reference_skeleton(d, 0.01)

    @pytest.mark.parametrize("kind", ["wide", "near-duplicate"])
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 2))
    def test_unvouched_blocks_each_get_a_condition_check(self, kind, seed):
        # With the floor 0.0 (n < p, or a duplicated or near-duplicated
        # column), every block of every stack takes the exact inverse with
        # floor 0, so with its own condition number, and none is
        # eliminated.
        source = self.source(kind, seed)
        cov = source if isinstance(source, CovMatrix) else source.covariance
        assume(cov.correlation()._eigen_floor == 0.0)
        out, stacks, eliminated, exact = self.traced_skeleton(source, 0.05)
        assert not eliminated
        assert all((floor == 0).all() for *_, floor in exact)
        per_k = {}
        for k, m, _ in exact:
            per_k[k] = per_k.get(k, 0) + m
        assert per_k == stacks
        try:
            assert out == reference_skeleton(source, 0.05)
        except NumericalRankError as e:
            assert out == str(e)


def skeleton_outcome(result):
    """A skeleton's graph, sepsets and counters, or an error's type and
    message, in one comparable form."""
    if isinstance(result, CausalSpanError):
        return type(result).__name__, str(result)
    g, sepsets, diag = result
    return g.undirected_edges(), sepsets, diag.tests_per_level, diag.skipped_insufficient_n


class TestSkeletonBatch:
    """`pc._skeletons` streams many matrices' searches through the same
    stacks, level by level; each matrix must get exactly what
    `estimate_skeleton` gives it alone, errors included."""

    @staticmethod
    def sample(kind: str, p: int, n: int | None, rng):
        """One source: a population matrix when n is None, else n rows of
        a random model, with a column duplicated, nearly duplicated, made
        the sum of two others or made constant as `kind` says."""
        w = random_weighted_dag(p, float(rng.uniform(1.0, 4.0)), rng)
        if n is None:
            return CovMatrix(structural_covariance(w.weights))
        d = generate_data(w, n, rng)
        v = d.values.copy()
        a, b, c = rng.choice(p, 3, replace=False)
        if kind == "duplicated":
            v[:, b] = v[:, a]
        elif kind == "sum":
            v[:, b] = v[:, a] + v[:, c]
        elif kind == "near-collinear":
            v[:, b] = v[:, a] + float(rng.choice([1e-9, 1e-6, 1e-3])) * rng.standard_normal(n)
        elif kind == "constant":
            v[:, b] = 1.0
        return Dataset(v, d.names, d.response)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(4, 9),
        rows=st.sampled_from(["n < p", "n = 30", "n = 500", "population"]),
        kinds=st.lists(
            st.sampled_from(["plain", "duplicated", "near-collinear", "sum", "constant"]),
            min_size=1, max_size=8,
        ),
        stack=st.sampled_from([1, 3, 7, 4096]),
        alpha=st.sampled_from([0.01, 0.05, 0.3]),
    )
    def test_each_matrix_gets_its_own_skeleton(self, seed, p, rows, kinds, stack, alpha):
        # One sample size per batch; within it, matrices that vouch for
        # their blocks share stacks with ones that do not (floor 0), ones
        # that stop on a singular block at level 0 (a duplicated column)
        # or above it (a column that sums two others), and ones whose
        # correlation fails (a constant column).
        rng = np.random.default_rng(seed)
        n = {"n < p": int(rng.integers(3, p)), "n = 30": 30, "n = 500": 500}.get(rows)
        sources = [self.sample(kind, p, n, rng) for kind in kinds]
        corrs = []
        for source in sources:
            try:
                corrs.append(source.correlation() if n is None else correlation_matrix(source))
            except CausalSpanError as e:
                corrs.append(e)
        cfg = CITestConfig(alpha)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pc, "_STACK", stack)
            batch = [skeleton_outcome(r) for r in pc._skeletons(corrs, cfg)]
        for source, got in zip(sources, batch):
            try:
                alone = skeleton_outcome(estimate_skeleton(source, cfg))
            except CausalSpanError as e:
                alone = skeleton_outcome(e)
            assert got == alone
            if got[0] == "DegenerateDataError":
                continue
            try:
                reference = reference_skeleton(source, alpha)
            except NumericalRankError as e:
                reference = skeleton_outcome(e)
            assert got == reference

    def test_matrices_with_different_sample_sizes_are_refused(self):
        rng = np.random.default_rng(8)
        w = random_weighted_dag(5, 2.0, rng)
        a, b = (correlation_matrix(generate_data(w, n, rng)) for n in (50, 60))
        cfg = CITestConfig(0.01)
        with pytest.raises(ValueError):
            pc._skeletons([a, b], cfg)
        with pytest.raises(ValueError):
            pc._skeletons([a, CovMatrix(np.eye(4), n=50)], cfg)

    def test_a_batch_holds_one_stack_of_level_0_pairs(self):
        # As many matrices as keep every matrix's p(p - 1)/2 level-0 pairs
        # within one stack, and one matrix whose pairs alone pass it.
        sizes = [pc._batch_size(p) for p in (1, 2, 5, 16, 17, 90, 91, 4088)]
        assert sizes == [4096, 4096, 409, 34, 30, 1, 1, 1]
        for p in range(2, 200):
            pairs, size = p * (p - 1) // 2, pc._batch_size(p)
            assert size * pairs <= max(pc._STACK, pairs)
            assert (size + 1) * pairs > pc._STACK

    def test_replicates_run_in_groups_of_the_batch_size(self):
        # At p = 40 a batch holds 5 matrices (780 pairs each), so 12
        # replicates run as groups of 5, 5 and 2; one replicate at a time
        # gives the same records.
        scenario = sim.SimScenario(40, 2.0, 200, 12, seed=3)
        sizes = []
        batch = pc._skeletons

        def captured(corrs, cfg):
            sizes.append(len(corrs))
            return batch(corrs, cfg)

        def records():
            return [(r.rep, r.method, r.e2_ave, r.e2_min, r.status, r.x, r.y)
                    for r in sim.run_scenario(scenario, methods=("local",))]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pc, "_skeletons", captured)
            grouped = records()
            assert sizes == [5, 5, 2]
            mp.setattr(sim, "_batch_size", lambda p: 1)
            assert records() == grouped
            assert sizes[3:] == [1] * 12
        assert any(r[2] is not None for r in grouped)

    def test_bootstrap_samples_run_in_groups_of_the_batch_size(self):
        # 17 columns make batches of 30 matrices, so the full data and 10
        # resamples are one batch; in batches of 4 (4, 4 and 3) the scores
        # are the same.
        rng = np.random.default_rng(6)
        d = generate_data(random_weighted_dag(17, 3.0, rng), 500, rng, response=16)
        sizes = []
        batch = pc._skeletons

        def captured(corrs, cfg):
            sizes.append(len(corrs))
            return batch(corrs, cfg)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pc, "_skeletons", captured)
            whole = bootstrap_scores(d, CITestConfig(0.01), b=10, seed=1)
            mp.setattr(effects, "_batch_size", lambda p: 4)
            grouped = bootstrap_scores(d, CITestConfig(0.01), b=10, seed=1)
        assert sizes == [11, 4, 4, 3]
        assert repr(grouped) == repr(whole)

    def test_simulation_replicates_share_each_level_phase(self):
        # The sim-small benchmark scenario on seed 201: run_scenario hands
        # its 60 replicates' matrices to one batch, whose level phases each
        # fill ceil(rows / _STACK) stacks, where the replicates alone make
        # a stack per replicate and phase.
        phases: list[list[tuple[int, int]]] = []
        decide, stops, batch = pc._stack_verdicts, pc._level_stops, pc._skeletons
        batches = []

        def counted(stack, rule, floor):
            level = stack.shape[1] - 2
            if level == 0:
                phases.append([])
            phases[-1].append((level, len(stack)))
            return decide(stack, rule, floor)

        def phase(*args):
            phases.append([])
            return stops(*args)

        def captured(corrs, cfg):
            batches.append((corrs, cfg))
            return batch(corrs, cfg)

        def rows_per_level():
            out: dict[int, int] = {}
            for stacks in phases:
                for level, rows in stacks:
                    out[level] = out.get(level, 0) + rows
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pc, "_stack_verdicts", counted)
            mp.setattr(pc, "_level_stops", phase)
            mp.setattr(pc, "_skeletons", captured)
            sim.run_scenario(sim.SimScenario(5, 3.5, 1000, 60, seed=201), alpha=0.01)
            [(corrs, cfg)] = batches
            assert len(corrs) == 60
            stacked = [stacks for stacks in phases if stacks]
            batched = rows_per_level()
            phases.clear()
            for corr in corrs:
                batch([corr], cfg)
            alone = rows_per_level()
            alone_calls = sum(len(stacks) for stacks in phases)
        for stacks in stacked:
            rows = sum(r for _, r in stacks)
            assert len(stacks) == math.ceil(rows / pc._STACK)
        assert set(batched) == set(alone)
        assert all(batched[level] <= alone[level] for level in alone)
        assert sum(map(len, stacked)) <= 2 * len(alone) - 1 < alone_calls / 20


class TestSampleMatrices:
    """`gauss._sample_matrices` makes and checks the matrices of a batch of
    samples together, and `run_scenario` checks its truths' population
    matrices in one `CovMatrix._stack` pass; each must get exactly what
    the one-matrix calls give it, errors included."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(4, 9),
        en=st.floats(1.0, 4.0),
        reps=st.integers(1, 8),
    )
    def test_each_truth_gets_its_population_matrix(self, seed, p, en, reps):
        # With no methods the truths' plans are the only ones, so the
        # sources that run_scenario solves are its population pass.
        draws, sources = [], []
        draw, finish = sim._draw, sim._finish_plans
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_draw", lambda *a: draws.append(draw(*a)) or draws[-1])
            mp.setattr(sim, "_finish_plans",
                       lambda plans: sources.extend(s for s, _ in plans) or finish(plans))
            sim.run_scenario(sim.SimScenario(p, en, 50, reps, seed=seed), methods=())
        assert len(sources) == len(draws) == reps
        for d, got in zip(draws, sources):
            assert self.bits(got) == self.bits(sim.population_covariance(d.w))

    @staticmethod
    def bits(c: CovMatrix) -> tuple:
        return c.values.tobytes(), c._eigen_floor, c.n

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(4, 9),
        rows=st.sampled_from(["n < p", "n = 30", "n = 500"]),
        kinds=st.lists(
            st.sampled_from(["plain", "duplicated", "near-collinear", "sum", "constant"]),
            min_size=1, max_size=8,
        ),
    )
    def test_each_sample_gets_its_own_matrices(self, seed, p, rows, kinds):
        # One sample size per batch; samples whose matrices vouch for their
        # blocks mix with ones that do not (floor 0) and ones with a
        # constant column.
        rng = np.random.default_rng(seed)
        n = {"n < p": int(rng.integers(3, p)), "n = 30": 30, "n = 500": 500}[rows]
        data = [TestSkeletonBatch.sample(kind, p, n, rng) for kind in kinds]
        names = tuple(f"X{i + 1}" for i in range(p))
        samples = gauss._sample_matrices(
            [gauss._covariance_values(d.values) for d in data], n, names
        )
        assert len(samples) == len(data)
        for d, got in zip(data, samples):
            # A fresh dataset, with no cached covariance.
            d = Dataset(d.values, d.names, d.response)
            sd = d.values.std(axis=0, ddof=1)
            if not (sd > 0).all():
                with pytest.raises(DegenerateDataError) as e:
                    correlation_matrix(d)
                first = d.names[int(np.nonzero(~(sd > 0))[0][0])]
                assert str(e.value) == f"column '{first}' is constant; correlations undefined"
                assert type(got) is DegenerateDataError and str(got) == str(e.value)
                # Read through a cached covariance, the same error.
                d.covariance
                with pytest.raises(DegenerateDataError) as cached:
                    correlation_matrix(d)
                assert str(cached.value) == str(e.value)
                continue
            cov, corr = got
            assert self.bits(cov) == self.bits(gauss.sample_covariance(d))
            assert self.bits(corr) == self.bits(correlation_matrix(d))
            assert self.bits(corr) == self.bits(gauss.sample_covariance(d).correlation())
            # The first call cached the covariance; the second reads it.
            assert self.bits(d.covariance) == self.bits(cov)
            assert self.bits(corr) == self.bits(correlation_matrix(d))

    def test_a_cached_covariance_is_not_made_or_checked_again(self, monkeypatch):
        # `bic_select_alpha` runs PC on one dataset once per alpha: after
        # the first run, each reads the cached covariance and checks only
        # its correlation matrix.
        rng = np.random.default_rng(3)
        d = generate_data(random_weighted_dag(8, 2.0, rng), 200, rng)
        first = pc_cpdag(d, CITestConfig(0.01))
        checked = []
        check = gauss._check_stack
        monkeypatch.setattr(
            gauss, "_check_stack", lambda v, ns: checked.append(len(v)) or check(v, ns)
        )
        monkeypatch.setattr(
            gauss, "_covariance_values", lambda values: pytest.fail("covariance made again")
        )
        second = pc_cpdag(d, CITestConfig(0.01))
        assert checked == [1]
        assert second.graph == first.graph
        bic_select_alpha(d, alphas=(0.01, 0.05))
        assert checked == [1, 1, 1]

    def test_bootstrap_raises_the_earlier_of_two_failed_resamples(self):
        # Columns a and b are constant but for one row each, rows 0 and 1:
        # a resample that misses row 1 has a constant b, one that misses
        # row 0 a constant a.  With seed 1 resample 2 fails on b, and
        # resamples 3-5 on a; the error is resample 2's, in any grouping.
        rng = np.random.default_rng(0)
        v = rng.standard_normal((9, 4))
        v[:, :2] = 0.0
        v[0, 0] = v[1, 1] = 1.0
        d = Dataset(v, ("a", "b", "c", "y"), 3)
        failed = []
        for k, child in enumerate(np.random.SeedSequence(1).spawn(6)):
            ds = d.resample_rows(np.random.default_rng(child).integers(0, d.n, size=d.n))
            try:
                pc_cpdag(ds, CITestConfig(0.01))
            except CausalSpanError as e:
                failed.append((k, type(e), str(e)))
        assert [(k, message[8]) for k, _, message in failed] == [
            (2, "b"), (3, "a"), (4, "a"), (5, "a")
        ]
        for size in (None, 3, 1):
            with pytest.MonkeyPatch.context() as mp:
                if size is not None:
                    mp.setattr(effects, "_batch_size", lambda p: size)
                with pytest.raises(CausalSpanError) as e:
                    bootstrap_scores(d, CITestConfig(0.01), b=6, seed=1)
            assert (type(e.value), str(e.value)) == failed[0][1:]

    def test_a_resample_whose_variance_overflows_is_named(self):
        # Column a is 6.3e153 in 4 of 40 rows: the full data's sum of
        # squares, 3.6 x 4e307, fits in a double, but a resample that draws
        # 6 or more of those rows passes the largest double.  It fails as
        # the full data would, with no RuntimeWarning.
        rng = np.random.default_rng(0)
        v = rng.standard_normal((40, 3))
        v[:4, 0] += 6.3e153
        d = Dataset(v, ("a", "b", "y"), 2)
        d.covariance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDataError) as e:
                bootstrap_scores(d, CITestConfig(0.01), b=10, seed=0)
        assert str(e.value) == "column 'a' has a variance too large to represent"


class TestColliderOrientation:
    def test_single_collider(self):
        sk = PDGraph(3, undirected=[(0, 1), (1, 2)])
        g = orient_v_structures(sk, {(0, 2): ()})
        assert g.directed_edges() == {(0, 1), (2, 1)}

    def test_mediating_sepset_blocks_collider(self):
        sk = PDGraph(3, undirected=[(0, 1), (1, 2)])
        g = orient_v_structures(sk, {(0, 2): (1,)})
        assert not g.directed_edges()

    def test_later_triple_overwrites_and_logs(self):
        # Path 0 - 1 - 2 - 3 with both middle triples claiming a collider:
        # (0,1,2) orients 0 -> 1 <- 2; (1,2,3) then re-aims the shared edge
        # as 1 -> 2, leaving the last writer's arrows in place.
        sk = PDGraph(4, undirected=[(0, 1), (1, 2), (2, 3)])
        sepsets = {(0, 2): (), (1, 3): ()}
        diag = PcDiagnostics()
        g = orient_v_structures(sk, sepsets, diag)
        assert g.directed_edges() == {(0, 1), (1, 2), (3, 2)}
        assert len(diag.overwrites) == 1
        assert tuple(diag.overwrites[0]["triple"]) == (1, 2, 3)


class TestPipeline:
    def test_population_recovers_class_representative(self, hub_direct_model):
        w, evars = hub_direct_model
        cov = weighted_cov(w, evars)
        res = pc_cpdag(cov, CITestConfig(0.01))
        assert res.graph == cpdag_from_dag(w.graph)
        assert res.validation.is_valid

    def test_population_second_model(self, hub_indirect_model):
        w, evars = hub_indirect_model
        cov = weighted_cov(w, evars)
        res = pc_cpdag(cov, CITestConfig(0.01))
        assert res.graph == cpdag_from_dag(w.graph)

    def test_large_sample_matches_population(self, hub_direct_model):
        w, evars = hub_direct_model
        rng = np.random.default_rng(19)
        ch = np.linalg.cholesky(weighted_cov(w, evars).values)
        vals = rng.normal(size=(100_000, 4)) @ ch.T
        d = Dataset(vals, ("x1", "x2", "x3", "y"), 3)
        res = pc_cpdag(d, CITestConfig(0.01))
        assert res.graph == cpdag_from_dag(w.graph)

    def test_dataset_and_its_covariance_give_identical_runs(self):
        rng = np.random.default_rng(31)
        for _ in range(4):
            w = random_weighted_dag(9, 3.0, rng)
            d = generate_data(w, 300, rng)
            a = pc_cpdag(d, CITestConfig(0.05))
            b = pc_cpdag(d.covariance, CITestConfig(0.05))
            assert a.graph == b.graph
            assert a.sepsets == b.sepsets
            assert a.diagnostics == b.diagnostics

    def test_never_raises_on_incoherent_sample(self):
        # Small-sample runs can produce conflicted or non-extendable
        # graphs; the pipeline must still return with diagnostics.
        rng = np.random.default_rng(2)
        for k in range(10):
            w = random_weighted_dag(8, 3.0, rng)
            d = generate_data(w, 40, rng)
            res = pc_cpdag(d, CITestConfig(0.05))
            assert isinstance(res, PcResult)
            assert res.validation == validate_cpdag(res.graph)


class TestRepair:
    def test_valid_input_passes_through(self, hub_direct_model):
        w, evars = hub_direct_model
        res = pc_cpdag(weighted_cov(w, evars), CITestConfig(0.01))
        rep = repair_cpdag(res)
        assert rep.stage == 0 and rep.graph == res.graph

    def test_conflict_stage_repairs_double_collider_path(self):
        # Build the conflicted estimate directly: both triples on a path
        # claim a collider, so the estimate has 0 -> 1 -> 2 <- 3 which has
        # a v-structure at 2 absent from the sepset evidence for (0, 2)...
        sk = PDGraph(4, undirected=[(0, 1), (1, 2), (2, 3)])
        sepsets = {(0, 2): (), (1, 3): ()}
        diag = PcDiagnostics()
        g = orient_v_structures(sk, sepsets, diag)
        from causalspan import meek_closure

        g = meek_closure(g)
        res = PcResult(g, sepsets, diag, validate_cpdag(g))
        rep = repair_cpdag(res)
        assert validate_cpdag(rep.graph).is_valid

    def test_random_dag_stage_on_square(self):
        # An undirected 4-cycle admits no consistent extension, and with the
        # triple midpoints recorded as separators there is no collider
        # evidence to re-decide or drop: only the seeded rebuild remains.
        g = PDGraph(4, undirected=[(0, 1), (1, 2), (2, 3), (0, 3)])
        sepsets = {(0, 2): (1, 3), (1, 3): (0, 2)}
        res = PcResult(g, sepsets, PcDiagnostics(), validate_cpdag(g))
        rep = repair_cpdag(res, seed=7)
        assert rep.stage == 3
        assert validate_cpdag(rep.graph).is_valid
        assert rep.graph.skeleton() == g.skeleton()
        assert repair_cpdag(res, seed=7).graph == rep.graph, "seeded determinism"

    def test_zero_drop_rebuild_counts_as_triple_stage(self):
        # With no recorded separators every unshielded triple re-orients as
        # a collider, and on a 4-cycle that rebuild happens to validate: the
        # triple stage may succeed while dropping nothing.
        g = PDGraph(4, undirected=[(0, 1), (1, 2), (2, 3), (0, 3)])
        res = PcResult(g, {}, PcDiagnostics(), validate_cpdag(g))
        rep = repair_cpdag(res, seed=7)
        assert rep.stage == 2
        assert validate_cpdag(rep.graph).is_valid
        assert rep.graph.skeleton() == g.skeleton()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_hook_based_reference(self, seed):
        # The first of up to 40 estimates drawn from the seed that fails
        # validation (p 4-10, n 25-500), with its diagnostics and with them
        # emptied, at caps that stop stage 1, exhaust stage 2 and leave
        # both whole.
        rng = np.random.default_rng(seed)
        for _ in range(40):
            w = random_weighted_dag(int(rng.integers(4, 11)), 3.0, rng)
            d = generate_data(w, int(rng.integers(25, 501)), rng)
            res = pc_cpdag(d, CITestConfig(0.05))
            if not res.validation.is_valid:
                break
        emptied = PcResult(res.graph, res.sepsets, PcDiagnostics(), res.validation)
        for cap in (1, 3, 4096):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pc, "_REPAIR_SEARCH_CAP", cap)
                for r in (res, emptied):
                    rep = repair_cpdag(r, seed=seed % 97)
                    expected = reference_repair(r, seed % 97, cap)
                    assert (rep.stage, rep.detail, rep.graph) == expected

    def test_repaired_output_always_validates(self):
        rng = np.random.default_rng(3)
        repaired = 0
        for k in range(60):
            w = random_weighted_dag(8, 3.5, rng)
            d = generate_data(w, 60, rng)
            res = pc_cpdag(d, CITestConfig(0.05))
            if res.validation.is_valid:
                continue
            repaired += 1
            rep = repair_cpdag(res, seed=k)
            assert validate_cpdag(rep.graph).is_valid
            assert rep.graph.skeleton() == res.graph.skeleton()
        assert repaired > 0, "fixture never produced an incoherent estimate"


class TestAlphaSelection:
    def test_tie_breaks_toward_smaller_alpha(self, hub_direct_model):
        w, evars = hub_direct_model
        rng = np.random.default_rng(23)
        ch = np.linalg.cholesky(weighted_cov(w, evars).values)
        vals = rng.normal(size=(5000, 4)) @ ch.T
        d = Dataset(vals, ("x1", "x2", "x3", "y"), 3)
        best, scores = bic_select_alpha(d, (0.01, 0.05), seed=0)
        # Both levels recover the same structure at this scale, so the
        # scores tie and the smaller alpha wins.
        assert scores[0.01] == scores[0.05]
        assert best == 0.01

    def test_selects_reasonable_alpha_on_chain(self):
        w = np.zeros((3, 3))
        w[1, 0], w[2, 1] = 1.0, 1.0
        rng = np.random.default_rng(29)
        ch = np.linalg.cholesky(structural_covariance(w))
        vals = rng.normal(size=(1000, 3)) @ ch.T
        d = Dataset(vals, ("a", "b", "c"), 2)
        best, scores = bic_select_alpha(d, (0.001, 0.01, 0.1), seed=0)
        assert best in (0.001, 0.01, 0.1)
        assert all(np.isfinite(v) for v in scores.values())

    def test_package_errors_at_every_alpha_raise_the_first(self, monkeypatch):
        # A duplicated column makes PC's conditioning blocks singular, so
        # every alpha fails with a package error: no alpha is selected from
        # infinite scores, and the first alpha's error is raised.
        rng = np.random.default_rng(37)
        x = rng.normal(size=(200, 3))
        x[:, 1] += x[:, 0]
        x[:, 2] += x[:, 1]
        vals = np.column_stack([x[:, 0], x[:, 0], x[:, 1], x[:, 2]])
        d = Dataset(vals, ("a", "a_copy", "b", "y"), 3)
        with pytest.raises(NumericalRankError, match=r"^correlation submatrix for \(0, 1 \| \(\)\) is singular$"):
            bic_select_alpha(d, (0.05, 0.01, 0.1), seed=0)

        def failing(source, cfg):
            raise NumericalRankError(f"failed at alpha {cfg.alpha}")

        monkeypatch.setattr(pc, "pc_cpdag", failing)
        with pytest.raises(NumericalRankError, match=r"^failed at alpha 0\.05$"):
            bic_select_alpha(d, (0.05, 0.01, 0.1), seed=0)
