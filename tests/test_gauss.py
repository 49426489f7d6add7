"""Gaussian machinery: datasets, covariances, partial correlations, the
conditional-independence decision rule, adjusted regression coefficients,
DAG likelihoods, and the information criterion."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import norm

from causalspan import (
    CITestConfig,
    CovMatrix,
    Dataset,
    DegenerateDataError,
    InsufficientSampleError,
    NumericalRankError,
    PDGraph,
    beta_given_s,
    bic_score,
    bootstrap_scores,
    correlation_matrix,
    dag_mle,
    fisher_z_dependent,
    partial_correlation,
    sample_covariance,
    structural_covariance,
)
from causalspan import effects, gauss
from causalspan.gauss import (
    CONDITION_LIMIT,
    _betas,
    _eliminated_partial_correlations,
    _fisher_z_rule,
    _ndtri,
    _partial_correlations,
    _rho_error,
    _solve_blocks,
    _stack_verdicts,
    _trek_nonzero_count,
    _z_quantile,
)
from causalspan.pc import _POPULATION_RULE, POPULATION_RHO_TOL
from causalspan.sim import SimScenario, generate_data, random_weighted_dag, run_scenario
from conftest import (
    _reference_closure,
    ols_coefficient,
    random_pdgraph_dag,
    recursive_partial_correlation,
    relabel,
    to_amat,
    weighted_cov,
)


def ulps_from(x: float, k: int) -> float:
    """The float k representable steps above x (below for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def make_dataset(values, names=None, response=None):
    values = np.asarray(values, dtype=float)
    p = values.shape[1]
    names = names or tuple(f"c{k}" for k in range(p))
    return Dataset(values, names, p - 1 if response is None else response)


def per_column_standardize(d: Dataset) -> Dataset:
    """`Dataset.standardize` one covariate at a time: center every column,
    then per covariate in order its own std, its checks and its division."""
    v = d.values.copy()
    with np.errstate(over="ignore"):
        mean = v.mean(axis=0)
    if not np.isfinite(mean).all():
        name = d.names[int((~np.isfinite(mean)).argmax())]
        raise DegenerateDataError(f"column '{name}' has a variance too large to represent")
    v -= mean
    for i in d.covariates:
        with np.errstate(over="ignore"):
            sd = v[:, i].std(ddof=1)
        if not np.isfinite(sd):
            raise DegenerateDataError(
                f"column '{d.names[i]}' has a variance too large to represent")
        if sd <= 0:
            raise DegenerateDataError(f"column '{d.names[i]}' is constant; cannot standardize")
        v[:, i] /= sd
    return Dataset(v, d.names, d.response, True)


class TestDataset:
    def test_basic_properties(self):
        d = make_dataset([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert d.n == 3 and d.n_columns == 2
        assert d.covariates == (0,)

    def test_rejects_single_row(self):
        with pytest.raises(Exception):
            make_dataset([[1.0, 2.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(Exception):
            make_dataset([[1.0, np.nan], [2.0, 3.0]])

    def test_rejects_duplicate_names(self):
        with pytest.raises(Exception):
            Dataset(np.zeros((3, 2)) + np.arange(3)[:, None], ("a", "a"), 1)

    def test_standardize_covariates_only(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(200, 3)) * np.array([3.0, 0.5, 7.0]) + 1.0
        d = make_dataset(vals, response=2).standardize()
        assert d.standardized
        means = d.values.mean(axis=0)
        assert np.allclose(means, 0.0, atol=1e-12)
        assert np.isclose(d.values[:, 0].std(ddof=1), 1.0)
        assert np.isclose(d.values[:, 1].std(ddof=1), 1.0)
        # The response keeps its scale; only its mean is removed.
        assert abs(d.values[:, 2].std(ddof=1) - 7.0) < 1.0

    def test_standardize_names_constant_covariate(self):
        vals = np.column_stack([np.ones(5), np.arange(5.0)])
        d = Dataset(vals, ("flat", "resp"), 1)
        with pytest.raises(DegenerateDataError, match="flat"):
            d.standardize()

    def test_a_variance_that_overflows_is_named(self):
        # Finite values whose variance passes the largest double: the
        # covariate is not constant, and no RuntimeWarning escapes.  With
        # a scaled by 1e150 (variance about 1e300) and b by 1e170, only b's
        # variance overflows, though the a-b entry, about 1e320, does too.
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(50, 3))
        for scales, column in (({0: 1e200}, 0), ({2: 1e200}, 2), ({0: 1e150, 1: 1e170}, 1)):
            big = vals.copy()
            for i, scale in scales.items():
                big[:, i] *= scale
            d = Dataset(big, ("a", "b", "y"), 2)
            message = f"column '{d.names[column]}' has a variance too large to represent"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if column != 2:
                    with pytest.raises(DegenerateDataError) as e:
                        d.standardize()
                    assert str(e.value) == message
                for call in (sample_covariance, correlation_matrix):
                    with pytest.raises(DegenerateDataError) as e:
                        call(d)
                    assert str(e.value) == message

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           special=st.sampled_from(["none", "constant", "overflow", "both"]))
    def test_standardize_matches_the_per_column_reference(self, seed, special):
        # The same bits as a std per column and a division per column, or
        # the same error naming the same first covariate; no RuntimeWarning
        # escapes.  Shapes and columns come from the seed.
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(2, 80)), int(rng.integers(1, 60))
        vals = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p) + rng.normal(size=p)
        if special in ("constant", "both"):
            vals[:, rng.integers(p, size=2)] = rng.normal()
        if special in ("overflow", "both"):
            vals[:, rng.integers(p)] *= 1e200
        d = Dataset(vals, tuple(f"c{j}" for j in range(p)), int(rng.integers(p)))

        def outcome(standardize):
            try:
                return standardize(d).values.tobytes()
            except DegenerateDataError as e:
                return str(e)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outcome(Dataset.standardize) == outcome(per_column_standardize)

    def test_resample_rows(self):
        d = make_dataset([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        r = d.resample_rows(np.array([2, 0, 2]))
        assert np.array_equal(r.values, [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0]])
        assert r.names == d.names and r.response == d.response


class TestCovMatrix:
    def test_population_flag(self):
        c = CovMatrix(np.eye(2))
        assert c.n is None
        assert CovMatrix(np.eye(2), n=50).n == 50

    def test_rejects_asymmetric(self):
        with pytest.raises(Exception):
            CovMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_negative_definite(self):
        with pytest.raises(Exception):
            CovMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(2, 6),
        log_scale=st.floats(-3, 3),
        factor=st.sampled_from([0.5, 1.0, 1.5]),
        ulps=st.integers(-4, 4),
    )
    def test_symmetry_check_decides_as_allclose(self, seed, p, log_scale, factor, ulps):
        # One off-diagonal entry moved by about the tolerance: the check
        # accepts exactly the matrices np.allclose(v, v.T) accepts.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(p, p)) * 10.0**log_scale
        v = a @ a.T + p * 10.0 ** (2 * log_scale) * np.eye(p)
        i, j = rng.choice(p, 2, replace=False)
        scale = max(1.0, float(np.abs(v).max()))
        tol = 1e-8 * scale + 1e-05 * abs(v[j, i])
        v[i, j] = ulps_from(v[j, i] + rng.choice([-1.0, 1.0]) * factor * tol, ulps)
        try:
            CovMatrix(v)
            symmetric = True
        except ValueError as e:
            symmetric = str(e) != "covariance must be symmetric"
        assert symmetric == np.allclose(v, v.T, atol=1e-8 * max(1.0, float(np.abs(v).max())))
        # The same matrix between two others of a stack, whose far larger
        # scale does not move its verdict.
        other = np.eye(p) * 1e3 * scale
        got = CovMatrix._stack(np.stack([other, v, -other]), [None] * 3)[1]
        assert (str(got) != "covariance must be symmetric") == symmetric

    @staticmethod
    def lone(v: np.ndarray, n: int | None):
        """What the constructor makes of v: the stored bits, floor and n,
        or the error's type and message."""
        try:
            c = CovMatrix(v, n=n)
        except Exception as e:
            return type(e), str(e)
        return c.values.tobytes(), c._eigen_floor, c.n

    def test_stack_checks_each_matrix_as_the_constructor_does(self):
        rng = np.random.default_rng(9)
        p = 4

        def good():
            a = rng.normal(size=(p, p))
            return a @ a.T + np.eye(p)

        nonfinite = good()
        nonfinite[1, 2] = np.inf
        asymmetric = good()
        asymmetric[0, 3] += 1e-3
        # Asymmetric inside the tolerance: accepted, but with floor 0.
        nearly = good()
        nearly[2, 1] = ulps_from(nearly[1, 2], 3)
        indefinite = np.diag([1.0, 2.0, 3.0, -1.0])
        # Past the floor's ratio bound CONDITION_LIMIT / 1e4: floor 0.
        ill = np.diag([1.0, 2.0, 3.0, 1e-9])
        # A matrix of a far larger scale, whose tolerances are no other's.
        large = good() * 1e6
        mats = [good(), nonfinite, asymmetric, nearly, indefinite, large, ill, good(), good()]
        ns = [50, 50, None, 30, 50, None, 50, 2, 1]
        got = CovMatrix._stack(np.stack(mats), ns)
        outcomes = []
        for v, n, c in zip(mats, ns, got):
            want = self.lone(v, n)
            if isinstance(c, ValueError):
                assert (type(c), str(c)) == want
                outcomes.append(str(c))
            else:
                assert (c.values.tobytes(), c._eigen_floor, c.n) == want
                assert not c.values.flags.writeable
                outcomes.append(c._eigen_floor > 0)
        assert outcomes == [
            True,
            "covariance must be finite",
            "covariance must be symmetric",
            False,
            "covariance must be positive semidefinite",
            True,
            False,
            True,
            "sample size must be at least 2",
        ]

    def test_symmetry_tolerance_is_inclusive(self):
        # |v - v.T| equal to the tolerance 1e-8 * scale passes, as in allclose.
        CovMatrix(np.array([[1.0, 1e-8], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            CovMatrix(np.array([[1.0, ulps_from(1e-8, 1)], [0.0, 1.0]]))

    def test_correlation_unit_diagonal(self):
        c = CovMatrix(np.array([[4.0, 2.0], [2.0, 9.0]]))
        r = c.correlation()
        assert np.allclose(np.diag(r.values), 1.0)
        assert np.isclose(r.values[0, 1], 2.0 / 6.0)

    def test_sample_covariance_denominators(self):
        d = make_dataset([[0.0, 0.0], [2.0, 4.0]])
        assert np.isclose(sample_covariance(d).values[0, 0], 2.0)

    def test_correlation_matrix_names_constant_column(self):
        vals = np.column_stack([np.ones(4), np.arange(4.0)])
        d = Dataset(vals, ("flat", "resp"), 1)
        with pytest.raises(DegenerateDataError, match="flat"):
            correlation_matrix(d)


class TestBlocksConditioned:
    """The whole-matrix eigenvalue floor that lets principal blocks skip
    their own condition check: positive only for an exactly symmetric,
    positive definite matrix with eigenvalue ratio at most
    CONDITION_LIMIT / 1e4, and 0.0 otherwise."""

    @staticmethod
    def rotated(eigenvalues):
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
        m = q @ np.diag(eigenvalues) @ q.T
        return (m + m.T) / 2.0

    def test_on_for_a_well_conditioned_matrix(self):
        assert CovMatrix(np.eye(3))._eigen_floor > 0
        assert CovMatrix(self.rotated([1.0, 2.0, 3.0]), n=40)._eigen_floor > 0

    def test_off_for_an_accepted_indefinite_matrix(self):
        # Eigenvalue -1e-9 is inside the constructor's tolerance, and the
        # singular values are within a factor 2, so an SVD ratio alone
        # would call every block well conditioned.
        v = self.rotated([-1e-9, 1e-9, 2e-9])
        c = CovMatrix(v)
        assert np.linalg.eigvalsh(v)[0] < 0
        assert np.linalg.cond(v) < 10
        assert c._eigen_floor == 0.0

    def test_off_for_an_accepted_asymmetric_matrix(self):
        v = np.array([[2.0, 0.5], [0.5, 3.0]])
        assert CovMatrix(v)._eigen_floor > 0
        v[1, 0] += 1e-10
        assert CovMatrix(v)._eigen_floor == 0.0

    def test_ratio_bound_is_inclusive(self):
        limit = CONDITION_LIMIT / 1e4
        assert CovMatrix(np.diag([2.0, 2.0 * limit]))._eigen_floor > 0
        assert CovMatrix(np.diag([2.0, 2.0 * limit * (1 + 1e-6)]))._eigen_floor == 0.0
        assert CovMatrix(np.diag([0.0, 1.0]))._eigen_floor == 0.0
        # All eigenvalues 0 meet the ratio bound; positivity rules it out.
        assert CovMatrix(np.zeros((2, 2)))._eigen_floor == 0.0

    def test_off_for_duplicated_columns_and_n_below_p(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(50, 2))
        d = Dataset(np.column_stack([x[:, 0], x[:, 0], x[:, 1]]), ("a", "b", "y"), 2)
        assert d.covariance._eigen_floor == 0.0
        assert correlation_matrix(d)._eigen_floor == 0.0
        wide = Dataset(rng.normal(size=(4, 6)), tuple("abcdef"), 5)
        assert correlation_matrix(wide)._eigen_floor == 0.0


class TestPartialCorrelation:
    def test_order_zero_is_plain_correlation(self):
        c = CovMatrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
        assert np.isclose(partial_correlation(c, 0, 1), 1.0 / np.sqrt(6.0))

    def test_matches_recursion_on_random_models(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = int(rng.integers(4, 7))
            w = np.tril(rng.uniform(1.0, 2.0, (p, p)), -1) * (
                rng.random((p, p)) < 0.5
            )
            cov = CovMatrix(structural_covariance(w))
            idx = list(range(p))
            for i, j in itertools.combinations(idx, 2):
                others = [k for k in idx if k not in (i, j)]
                for size in range(min(3, len(others)) + 1):
                    for s in itertools.combinations(others, size):
                        got = partial_correlation(cov, i, j, s)
                        want = recursive_partial_correlation(cov.values, i, j, s)
                        assert got == pytest.approx(want, abs=1e-9)

    def test_rescales_a_non_unit_diagonal_block(self):
        # The stacked helper expects unit-diagonal blocks; the public
        # function must rescale a covariance's block first.
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.normal(size=(5, 12))
            scale = np.diag(rng.uniform(0.1, 10.0, 5))
            cov = CovMatrix(scale @ (a @ a.T / 12) @ scale)
            for i, j in itertools.combinations(range(5), 2):
                others = [k for k in range(5) if k not in (i, j)]
                for size in range(len(others) + 1):
                    for s in itertools.combinations(others, size):
                        got = partial_correlation(cov, i, j, s)
                        want = recursive_partial_correlation(cov.values, i, j, s)
                        assert abs(got - want) <= 1e-12

    def test_clipped_to_unit_interval(self):
        near = 1.0 - 1e-9
        c = CovMatrix(np.array([[1.0, near], [near, 1.0]]))
        assert abs(partial_correlation(c, 0, 1)) <= 1.0

    def test_singular_conditioning_raises(self):
        # Conditioning on a perfect copy makes the precision submatrix
        # singular beyond the condition limit.
        base = np.array([[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]])
        c = CovMatrix(base)
        with pytest.raises(NumericalRankError):
            partial_correlation(c, 0, 2, (1,))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        k=st.integers(2, 12),
        kind=st.sampled_from(["plain", "duplicated", "near-collinear", "few rows"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_solve_has_the_bits_of_the_inverse(self, k, kind, seed):
        # The stacked partial correlations read the first two columns of
        # each block's inverse from a solve against the first two unit
        # vectors; they must equal the full `np.linalg.inv` values bit for
        # bit, with NaN exactly where the block is past the condition
        # limit (a duplicated column) or not positive definite.
        rng = np.random.default_rng(seed)
        m = 256
        n = int(rng.integers(2, k + 1)) if kind == "few rows" else int(rng.integers(k, 3 * k + 5))
        x = rng.standard_normal((m, n, k))
        if kind in ("duplicated", "near-collinear"):
            rows = np.arange(m)
            src = rng.integers(0, k, m)
            dst = (src + rng.integers(1, k, m)) % k
            x[rows, :, dst] = x[rows, :, src]
            if kind == "near-collinear":
                x[rows, :, dst] += 10.0 ** rng.uniform(-9, -3, (m, 1)) * rng.standard_normal((m, n))
        g = np.einsum("mni,mnj->mij", x, x)
        d = np.sqrt(np.einsum("mii->mi", g))
        blocks = g / (d[:, :, None] * d[:, None, :])
        blocks[:, range(k), range(k)] = 1.0
        blocks = (blocks + blocks.transpose(0, 2, 1)) / 2.0

        ok = ~(np.linalg.cond(blocks) > CONDITION_LIMIT)
        om = np.linalg.inv(blocks[ok])
        want = np.full(m, np.nan)
        with np.errstate(invalid="ignore"):
            want[ok] = np.clip(-om[:, 0, 1] / np.sqrt(om[:, 0, 0] * om[:, 1, 1]), -1.0, 1.0)

        def same_bits(got, want):
            return np.array_equal(np.isnan(got), np.isnan(want)) and np.array_equal(
                got[~np.isnan(got)].view(np.uint64), want[~np.isnan(want)].view(np.uint64)
            )

        assert same_bits(_partial_correlations(blocks, 0.0), want)
        # Blocks with a positive floor skip the check, and are never past
        # the limit: pass only those.
        assert same_bits(_partial_correlations(blocks[ok], 1.0), want[ok])


class TestSolveBlocks:
    """`_solve_blocks` with one floor per block: the blocks with a positive
    floor skip the condition check, the others each get their own, and no
    block's bits depend on which other blocks share its call."""

    @staticmethod
    def stack(k: int, seed: int) -> tuple[np.ndarray, np.ndarray, int]:
        """60 Gram blocks of k columns, each with a floor that is half its
        smallest eigenvalue or 0.0 at random, and the index of one block
        with a duplicated column (singular, floor 0)."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((60, 2 * k + 3, k))
        singular = int(rng.integers(60))
        x[singular, :, 1] = x[singular, :, 0]
        a = np.einsum("mni,mnj->mij", x, x)
        floor = np.where(rng.uniform(size=60) < 0.5, np.linalg.eigvalsh(a)[:, 0] / 2, 0.0)
        floor[singular] = 0.0
        return a, floor, singular

    @staticmethod
    def bits(x: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(x).view(np.uint64)

    @pytest.fixture
    def checked(self, monkeypatch) -> list[np.ndarray]:
        """The stacks `np.linalg.cond` receives, in call order."""
        seen, cond = [], np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda blocks: seen.append(blocks) or cond(blocks))
        return seen

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_mixed_floors_give_the_bits_of_one_call_per_floor_class(self, k, checked):
        a, floor, singular = self.stack(k, k)
        b = np.eye(k)[:, :2]
        pos = floor > 0
        assert 0 < pos.sum() < len(a) - 1
        x, ok = _solve_blocks(a, b, floor)
        # The condition check saw exactly the rows with floor 0.
        assert len(checked) == 1 and np.array_equal(checked[0], a[~pos])
        x_pos, ok_pos = _solve_blocks(a[pos], b, floor[pos])
        x_zero, ok_zero = _solve_blocks(a[~pos], b, 0.0)
        assert ok.tolist() == [i != singular for i in range(len(a))]
        assert ok_pos.all() and np.array_equal(ok[~pos], ok_zero)
        assert np.array_equal(self.bits(x[pos]), self.bits(x_pos))
        assert np.array_equal(self.bits(x[~pos]), self.bits(x_zero))
        assert np.isnan(x[singular]).all()
        assert np.array_equal(self.bits(x[ok]), self.bits(np.linalg.inv(a[ok])[:, :, :2]))

    def test_every_floor_zero_checks_the_stack_itself(self, checked):
        a, _, singular = self.stack(4, 1)
        _, ok = _solve_blocks(a, np.eye(4)[:, :2], np.zeros(len(a)))
        _solve_blocks(a, np.eye(4)[:, :2], 0.0)
        assert len(checked) == 2 and all(blocks is a for blocks in checked)
        assert ok.tolist() == [i != singular for i in range(len(a))]
        checked.clear()
        a[singular] = np.eye(4)
        _solve_blocks(a, np.eye(4)[:, :2], 1.0)
        assert not checked


class TestDependenceRule:
    def test_moderate_correlation_at_n100_is_dependent(self):
        assert fisher_z_dependent(0.5, 100, 0, 0.01)

    def test_tiny_correlation_is_independent(self):
        assert not fisher_z_dependent(0.01, 100, 0, 0.01)

    def test_threshold_monotone_in_n(self):
        rho = 0.2
        dependent = [fisher_z_dependent(rho, n, 0, 0.01) for n in (30, 100, 1000)]
        assert dependent == sorted(dependent)

    def test_sign_symmetric(self):
        assert fisher_z_dependent(-0.5, 100, 0, 0.01) == fisher_z_dependent(
            0.5, 100, 0, 0.01
        )

    def test_perfect_correlation_always_dependent(self):
        assert fisher_z_dependent(1.0, 10, 0, 1e-12)

    def test_conditioning_set_consumes_sample(self):
        # Same correlation, bigger conditioning set: less evidence.
        assert fisher_z_dependent(0.4, 60, 0, 0.01)
        assert not fisher_z_dependent(0.4, 60, 40, 0.01)

    def test_insufficient_sample_raises(self):
        with pytest.raises(InsufficientSampleError):
            fisher_z_dependent(0.5, 5, 2, 0.01)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        n=st.integers(4, 10**6),
        s_size=st.integers(0, 8),
        alpha=st.sampled_from([1e-6, 0.01, 0.05, 0.3, 0.9]),
        near=st.sampled_from(["threshold", "clear", "keep", "random"]),
        ulps=st.integers(-64, 64),
        u=st.floats(0.0, 1.0),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_clear_bound_is_exact(self, n, s_size, alpha, near, ulps, u, sign):
        # Calling every |rho| above `clear` dependent and every |rho|
        # below `keep` independent, and leaving the rest to the test,
        # gives the test's own verdict: near the threshold tanh(q / root),
        # near either bound, anywhere, at NaN and at +-1.
        assume(n - s_size - 3 >= 1)
        dependent, clear, keep = _fisher_z_rule(n, s_size, alpha)
        threshold = math.tanh(_z_quantile(alpha) / math.sqrt(n - s_size - 3))
        assert keep < threshold <= clear
        base = {"threshold": threshold, "clear": clear, "keep": keep, "random": u}[near]
        rho = sign * min(1.0, ulps_from(base, ulps) if base > 0 else 0.0)
        for r in (rho, math.nan, 1.0, -1.0):
            assert (abs(r) > clear or dependent(r)) == dependent(r)
            assert (abs(r) >= keep and dependent(r)) == dependent(r)

    def test_alpha_bounds_enforced(self):
        with pytest.raises(Exception):
            CITestConfig(alpha=0.0)
        with pytest.raises(Exception):
            CITestConfig(alpha=1.0)


def blocks_near(rho: float, k: int, rng, sweep: int = 4) -> np.ndarray:
    """2 * sweep + 1 unit-diagonal k x k blocks whose partial correlation of
    the first two columns given the rest is rho up to rounding, with the
    (0, 1) entry stepped -sweep ... sweep ulps, so the exact values straddle
    rho.  The conditioning columns are weakly correlated with each other
    and with the pair, so the blocks are well conditioned."""
    a = np.eye(k)
    a[:2, 2:] = rng.uniform(-0.2, 0.2, (2, k - 2))
    a[2:, :2] = a[:2, 2:].T
    if k > 3:
        a[2, 3] = a[3, 2] = rng.uniform(-0.2, 0.2)
    q = a[:2, 2:] @ np.linalg.solve(a[2:, 2:], a[2:, :2])
    r01 = rho * math.sqrt((1 - q[0, 0]) * (1 - q[1, 1])) + q[0, 1]
    out = np.repeat(a[None], 2 * sweep + 1, axis=0)
    for row, step in enumerate(range(-sweep, sweep + 1)):
        out[row, 0, 1] = out[row, 1, 0] = ulps_from(r01, step)
    return out


class TestStackVerdicts:
    """`_stack_verdicts` decides a stack from partial correlations by
    elimination, and sends only the rows whose |rho| lies within the error
    bound delta of the band [keep, clear] to the exact inverse; every
    verdict is the one the exact rho gets."""

    # Every block `blocks_near` makes has smallest eigenvalue above this.
    FLOOR = 0.2

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(8, 5000),
        alpha=st.sampled_from([0.01, 0.05, 0.3]),
        population=st.booleans(),
        k=st.sampled_from([3, 4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_band_rows_alone_reach_the_exact_inverse(self, n, alpha, population, k, seed):
        s_size = k - 2
        assume(n - s_size - 3 >= 1)
        if population:
            rule, t = _POPULATION_RULE, POPULATION_RHO_TOL
            keep = clear = t
        else:
            rule = _fisher_z_rule(n, s_size, alpha)
            t = math.tanh(_z_quantile(alpha) / math.sqrt(n - s_size - 3))
            keep, clear = t * (1 - 1e-9), min(1.0, t * (1 + 1e-9))
        delta = _rho_error(k, self.FLOOR)
        assume(clear + 2 * delta < 0.7)
        rng = np.random.default_rng(seed)
        targets = {
            "threshold": t,
            "keep - delta": keep - delta,
            "clear + delta": clear + delta,
            "inside keep": keep - delta / 2,
            "inside clear": clear + delta / 2,
            "outside keep": keep - 2 * delta,
            "outside clear": clear + 2 * delta,
        }
        parts = {name: blocks_near(float(rng.choice([-1, 1])) * r, k, rng)
                 for name, r in targets.items()}
        blocks = np.concatenate(list(parts.values()))
        assert np.linalg.eigvalsh(blocks)[:, 0].min() > self.FLOOR
        exact = _partial_correlations(blocks, self.FLOOR)
        fast = _eliminated_partial_correlations(blocks)
        assert np.abs(fast - exact).max() <= delta
        band = (np.abs(fast) >= keep - delta) & (np.abs(fast) <= clear + delta)

        seen = []

        def spy(stack, floor):
            seen.append(stack.copy())
            return _partial_correlations(stack, floor)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gauss, "_partial_correlations", spy)
            verdicts = _stack_verdicts(blocks, rule, self.FLOOR)
        assert verdicts.tolist() == [0 if rule.dependent(r) else 1 for r in exact.tolist()]
        reached = np.concatenate(seen) if seen else blocks[:0]
        assert np.array_equal(reached, blocks[band])
        rows = np.cumsum([0] + [len(b) for b in parts.values()])
        where = {name: slice(a, b) for name, a, b in zip(parts, rows, rows[1:])}
        for name in ("threshold", "inside keep", "inside clear"):
            assert band[where[name]].all(), name
        for name in ("outside keep", "outside clear"):
            assert not band[where[name]].any(), name


    def test_rows_of_several_matrices_take_their_own_floors(self):
        # One stack with the blocks of a matrix that vouches for them
        # (floor FLOOR) around those of one that does not (floor 0), one
        # of them singular: every verdict is the one its part gets alone,
        # and the exact inverse takes, in one call, the band rows with a
        # floor and every row without one, each with its own floor.
        rng = np.random.default_rng(4)
        rule = _fisher_z_rule(500, 1, 0.05)
        t = math.tanh(_z_quantile(0.05) / math.sqrt(500 - 1 - 3))
        first = np.concatenate([blocks_near(r, 3, rng) for r in (0.02, t, 0.6)])
        last = np.concatenate([blocks_near(r, 3, rng) for r in (t, 0.3)])
        bare = np.concatenate([blocks_near(r, 3, rng) for r in (0.02, 0.6)] + [np.ones((1, 3, 3))])
        blocks = np.concatenate([first, bare, last])
        floor = np.repeat([self.FLOOR, 0.0, self.FLOOR], [len(first), len(bare), len(last)])
        seen = []

        def spy(stack, floor):
            seen.append((stack.copy(), np.broadcast_to(floor, len(stack)).copy()))
            return _partial_correlations(stack, floor)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gauss, "_partial_correlations", spy)
            alone = [_stack_verdicts(part, rule, f)
                     for part, f in ((first, self.FLOOR), (bare, 0.0), (last, self.FLOOR))]
            band = sum(len(stack) for stack, f in seen if (f > 0).all())
            seen.clear()
            verdicts = _stack_verdicts(blocks, rule, floor)
        assert verdicts.tolist() == np.concatenate(alone).tolist()
        assert verdicts[len(first) + len(bare) - 1] == 2
        ((stack, f),) = seen
        assert np.array_equal(stack[f == 0], bare)
        assert (f[f != 0] == self.FLOOR).all()
        assert (f != 0).sum() == band
        assert 0 < band < len(first) + len(last)


class TestNormalQuantile:
    """The pure-Python Cephes port against scipy, compared bit for bit."""

    COMMON_ALPHAS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.2)

    def test_port_matches_scipy_ndtri_bit_for_bit(self):
        rng = np.random.default_rng(20260)
        ps = [1.0 - a / 2.0 for a in self.COMMON_ALPHAS]
        ps += rng.uniform(1e-6, 0.999, 20000).tolist()
        ps += (10.0 ** rng.uniform(-300.0, 0.0, 40000)).tolist()
        ps += (1.0 - 10.0 ** rng.uniform(-17.0, 0.0, 10000)).tolist()
        # Both sides of each branch switch.
        for edge in (1.0 - math.exp(-2.0), math.exp(-2.0), math.exp(-32.0)):
            ps += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)]
        # 1 - 1e-17 rounds to 1.0, so inf.
        ps += [0.0, 1.0, 1.0 - 1e-17, 0.5, 5e-324, math.nextafter(1.0, 0.0)]
        ours = [_ndtri(p) for p in ps]
        theirs = ndtri(np.array(ps)).tolist()
        mismatches = [(p, a, b) for p, a, b in zip(ps, ours, theirs) if a != b]
        assert mismatches == []

    def test_outside_unit_interval_raises(self):
        for p in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                _ndtri(p)

    def test_z_quantile_matches_norm_ppf(self):
        for a in self.COMMON_ALPHAS:
            assert _z_quantile(a) == float(norm.ppf(1.0 - a / 2.0))


class TestBetaGivenS:
    def test_response_in_adjustment_set_gives_zero(self):
        c = CovMatrix(np.eye(3))
        assert beta_given_s(c, 0, (2,), 2) == 0.0

    def test_identical_covariate_response_rejected(self):
        c = CovMatrix(np.eye(3))
        with pytest.raises(ValueError):
            beta_given_s(c, 1, (), 1)

    def test_covariate_inside_set_rejected(self):
        c = CovMatrix(np.eye(3))
        with pytest.raises(ValueError):
            beta_given_s(c, 0, (0,), 2)

    def test_dual_routes_agree(self):
        rng = np.random.default_rng(17)
        w = np.zeros((4, 4))
        w[1, 0], w[2, 1], w[3, 1], w[3, 2] = 0.9, -0.7, 1.3, 0.5
        cov = structural_covariance(w)
        ch = np.linalg.cholesky(cov)
        vals = rng.normal(size=(60_000, 4)) @ ch.T
        d = make_dataset(vals, response=3)
        c = CovMatrix(sample_covariance(d).values, n=d.n)
        for s in [(), (0,), (1,), (0, 1), (1, 2), (0, 2)]:
            i = next(k for k in (2, 0, 1) if k not in s)
            a = beta_given_s(d, i, s, 3)
            b = beta_given_s(c, i, s, 3)
            assert a == pytest.approx(b, abs=1e-8)
            assert a == pytest.approx(ols_coefficient(vals, i, s, 3), abs=1e-10)

    def test_known_adjusted_coefficients(self, hub_direct_model):
        w, evars = hub_direct_model
        cov = weighted_cov(w, evars)
        # Adjusting each child for the hub recovers its direct weight; the
        # hub's marginal coefficient is the mixture 0.4.
        assert beta_given_s(cov, 0, (1,), 3) == pytest.approx(-1.0, abs=1e-12)
        assert beta_given_s(cov, 1, (), 3) == pytest.approx(0.4, abs=1e-12)
        assert beta_given_s(cov, 2, (1,), 3) == pytest.approx(-1.0, abs=1e-12)

    def test_rank_deficient_design_raises(self):
        vals = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [3.0, 3.0, 5.0]])
        d = make_dataset(vals, response=2)
        with pytest.raises(NumericalRankError):
            beta_given_s(d, 0, (1,), 2)


def one_request(cov: CovMatrix, i: int, s: tuple[int, ...], y: int) -> str:
    """A regression as its own covariance solve, with its own condition
    check unless the matrix vouches for its blocks: the coefficient's hex,
    or the NumericalRankError message."""
    if y in s:
        return (0.0).hex()
    idx = [i, *sorted(s)]
    a = cov.values[np.ix_(idx, idx)]
    if cov._eigen_floor == 0.0 and np.linalg.cond(a) > CONDITION_LIMIT:
        return f"regression ({i} | {s}): matrix is singular or ill-conditioned"
    return float(np.linalg.solve(a, cov.values[idx, y])[0]).hex()


def stacked(source, requests, y) -> list[str]:
    betas = _betas([source], [(0, i, s, y) for i, s in requests])
    return [b.hex() if isinstance(b, float) else str(b) for b in betas]


class TestStackedRegressions:
    """`_betas` solves many regressions in a few stacked calls; each must
    keep the bits and the error of a solve of its own."""

    @staticmethod
    def covariance(kind: str, seed: int) -> CovMatrix:
        rng = np.random.default_rng(seed)
        p = int(rng.integers(3, 9))
        n = int(rng.integers(2, p)) if kind == "wide" else int(rng.choice([12, 200]))
        v = rng.standard_normal((n, p)) @ rng.uniform(-1.0, 1.0, (p, p))
        if kind == "duplicate":
            a, b = rng.choice(p, 2, replace=False)
            v[:, b] = v[:, a] * float(rng.choice([1.0, -2.0]))
        return sample_covariance(make_dataset(v))

    @staticmethod
    def requests(p: int, seed: int) -> tuple[list[tuple[int, tuple[int, ...]]], int]:
        """Random (i, s) for one response, some with y in s, some repeated."""
        rng = np.random.default_rng(seed + 1)
        y = int(rng.integers(p))
        out = []
        for _ in range(int(rng.integers(1, 25))):
            i = int(rng.choice([k for k in range(p) if k != y]))
            others = [k for k in range(p) if k != i]
            size = int(rng.integers(0, p))
            out.append((i, tuple(int(k) for k in rng.choice(others, size, replace=False))))
        return out + out[: len(out) // 3], y

    @pytest.mark.parametrize("flag", ["on", "off"])
    @pytest.mark.parametrize("kind", ["data", "duplicate", "wide"])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 2))
    def test_same_bits_and_errors_as_one_request_solves(self, kind, flag, seed):
        check = gauss._check_stack

        def flag_off(v, ns):
            floors, problems = check(v, ns)
            return np.zeros_like(floors), problems

        with pytest.MonkeyPatch.context() as mp:
            if flag == "off":
                mp.setattr(gauss, "_check_stack", flag_off)
            cov = self.covariance(kind, seed)
        if kind != "data":
            assert cov._eigen_floor == 0.0
        requests, y = self.requests(cov.n_columns, seed)
        expected = [one_request(cov, i, s, y) for i, s in requests]
        assert stacked(cov, requests, y) == expected
        for (i, s), want in zip(requests, expected):
            try:
                got = beta_given_s(cov, i, s, y).hex()
            except NumericalRankError as e:
                got = str(e)
            assert got == want

    def test_singular_blocks_leave_their_stack_and_report_alone(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((50, 5))
        v[:, 3] = v[:, 0]
        cov = sample_covariance(make_dataset(v))
        # Sizes 1 and 2 each mix regular and singular blocks; y = 4 in s
        # gives 0.0 with no block.
        requests = [(1, (0,)), (0, (3,)), (1, (3, 0)), (2, (0, 1)), (0, (4,)),
                    (0, (1, 3)), (3, ()), (2, (4, 1)), (2, (3,))]
        out = stacked(cov, requests, 4)
        assert out == [one_request(cov, i, s, 4) for i, s in requests]
        for k, (i, s) in enumerate(requests):
            if k in (1, 2, 5):
                assert out[k] == f"regression ({i} | {s}): matrix is singular or ill-conditioned"
            elif k in (4, 7):
                assert out[k] == (0.0).hex()
            else:
                assert not out[k].startswith("regression")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 2))
    def test_requests_over_several_matrices_keep_their_own(self, seed):
        # Matrices that vouch for their blocks (n = 200), ones that do not
        # (n < p) and ones with a singular block (a duplicated column)
        # share one call; every request, whatever its matrix and response,
        # gets the bits or the error of `beta_given_s` on its own matrix.
        rng = np.random.default_rng(seed)
        p = int(rng.integers(3, 8))
        covs = []
        for kind in rng.permutation(["data", "data", "wide", "duplicate", "duplicate"]):
            n = int(rng.integers(2, p)) if kind == "wide" else 200
            v = rng.standard_normal((n, p)) @ rng.uniform(-1.0, 1.0, (p, p))
            if kind == "duplicate":
                a, b = rng.choice(p, 2, replace=False)
                v[:, b] = v[:, a]
            covs.append(sample_covariance(make_dataset(v)))
        assert {c._eigen_floor > 0 for c in covs} == {True, False}
        requests = []
        for _ in range(int(rng.integers(1, 40))):
            m = int(rng.integers(len(covs)))
            i, y = (int(k) for k in rng.choice(p, 2, replace=False))
            others = [k for k in range(p) if k != i]
            s = tuple(int(k) for k in rng.choice(others, int(rng.integers(0, p)), replace=False))
            requests.append((m, i, s, y))
        got = [b.hex() if isinstance(b, float) else str(b) for b in _betas(covs, requests)]
        for (m, i, s, y), out in zip(requests, got):
            assert out == one_request(covs[m], i, s, y)
            try:
                assert out == beta_given_s(covs[m], i, s, y).hex()
            except NumericalRankError as e:
                assert out == str(e)

    @staticmethod
    def spied(run):
        """The result of run() and the requests of each `_betas` call
        that the effects module made in it."""
        calls = []
        solve = effects._betas

        def spy(sources, requests):
            calls.append((len(sources), requests))
            return solve(sources, requests)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(effects, "_betas", spy)
            return run(), calls

    def test_a_simulation_batch_makes_one_solve_call(self):
        # The sim-small scenario on seed 201 is one batch of 60 replicates:
        # their truth and both routes' regressions are one call, over the
        # 60 population and the sample covariances.
        scenario = SimScenario(5, 3.5, 1000, 60, seed=201)
        records, calls = self.spied(lambda: run_scenario(scenario))
        [(sources, requests)] = calls
        assert sources > 60 and len({m for m, *_ in requests}) == sources
        assert sum(r.status == "ok" for r in records) > 100

    def test_a_bootstrap_batch_makes_one_solve_call(self):
        # The 41-column input of the score goldens, in batches of 4, 4 and
        # 3 samples: one call per batch, over that batch's covariances.
        rng = np.random.default_rng(41)
        d = generate_data(random_weighted_dag(41, 3.0, rng), 300, rng).standardize()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(effects, "_batch_size", lambda p: 4)
            _, calls = self.spied(lambda: bootstrap_scores(d, CITestConfig(0.01), b=10, seed=2))
        assert [sources for sources, _ in calls] == [4, 4, 3]
        assert [len({m for m, *_ in requests}) for _, requests in calls] == [4, 4, 3]

    def test_empty_and_response_only_requests_solve_nothing(self):
        cov = CovMatrix(np.eye(3))
        assert _betas([cov], []) == []
        assert _betas([cov], [(0, 0, (2,), 2), (0, 1, (0, 2), 2)]) == [0.0, 0.0]


class TestDagMle:
    @staticmethod
    def gaussian_loglik(values, mean, cov):
        n, p = values.shape
        centered = values - mean
        prec = np.linalg.inv(cov)
        quad = float(np.einsum("ij,jk,ik->", centered, prec, centered))
        _, logdet = np.linalg.slogdet(cov)
        return -0.5 * (n * p * np.log(2 * np.pi) + n * logdet + quad)

    def test_complete_dag_reaches_saturated_fit(self):
        rng = np.random.default_rng(23)
        vals = rng.normal(size=(300, 3)) @ np.array(
            [[1.0, 0.0, 0.0], [0.4, 1.0, 0.0], [0.2, -0.3, 1.0]]
        )
        d = make_dataset(vals)
        dag = PDGraph(3, directed=[(0, 1), (0, 2), (1, 2)])
        fit = dag_mle(d, dag)
        ml_cov = np.cov(vals, rowvar=False, bias=True)
        assert np.allclose(fit.covariance, ml_cov, atol=1e-10)
        assert fit.loglik == pytest.approx(
            self.gaussian_loglik(vals, vals.mean(axis=0), ml_cov), rel=1e-10
        )

    def test_empty_dag_is_diagonal(self):
        rng = np.random.default_rng(29)
        vals = rng.normal(size=(500, 3))
        fit = dag_mle(make_dataset(vals), PDGraph(3))
        assert np.allclose(fit.covariance, np.diag(np.diag(fit.covariance)))

    def test_loglik_matches_density_for_any_dag(self):
        rng = np.random.default_rng(31)
        vals = rng.normal(size=(200, 4))
        vals[:, 2] += 0.8 * vals[:, 0]
        vals[:, 3] += -0.6 * vals[:, 2]
        d = make_dataset(vals)
        dag = PDGraph(4, directed=[(0, 2), (2, 3)])
        fit = dag_mle(d, dag)
        assert fit.loglik == pytest.approx(
            self.gaussian_loglik(vals, fit.mean, fit.covariance), rel=1e-10
        )

    def test_supergraph_never_fits_worse(self):
        rng = np.random.default_rng(37)
        vals = rng.normal(size=(150, 3))
        vals[:, 1] += vals[:, 0]
        d = make_dataset(vals)
        small = PDGraph(3, directed=[(0, 1)])
        big = PDGraph(3, directed=[(0, 1), (0, 2), (1, 2)])
        assert dag_mle(d, big).loglik >= dag_mle(d, small).loglik - 1e-9

    def test_duplicated_parent_columns_raise(self):
        # Vertex 2's parents 0 and 1 are the same column, so its regression
        # matrix is singular.
        rng = np.random.default_rng(41)
        vals = rng.normal(size=(100, 3))
        vals[:, 1] = vals[:, 0]
        dag = PDGraph(3, directed=[(0, 2), (1, 2)])
        with pytest.raises(NumericalRankError) as err:
            dag_mle(make_dataset(vals), dag)
        assert str(err.value) == "vertex 2 regression: matrix is singular or ill-conditioned"


class TestBic:
    def test_penalty_counts_structural_nonzeros(self):
        rng = np.random.default_rng(41)
        vals = rng.normal(size=(100, 3))
        d = make_dataset(vals)
        empty = PDGraph(3)
        chain = PDGraph(3, directed=[(0, 1), (1, 2)])
        n = 100
        fit_e, fit_c = dag_mle(d, empty), dag_mle(d, chain)
        # empty: 3 variances + 3 means; chain: all pairs linked by a shared
        # ancestor -> 6 nonzero entries + 3 means.
        assert bic_score(d, empty) == pytest.approx(
            -2 * fit_e.loglik + np.log(n) * 6, rel=1e-12
        )
        assert bic_score(d, chain) == pytest.approx(
            -2 * fit_c.loglik + np.log(n) * 9, rel=1e-12
        )

    def test_prefers_true_model_at_scale(self):
        rng = np.random.default_rng(43)
        w = np.zeros((3, 3))
        w[1, 0], w[2, 1] = 1.2, -0.9
        ch = np.linalg.cholesky(structural_covariance(w))
        vals = rng.normal(size=(4000, 3)) @ ch.T
        d = make_dataset(vals)
        chain = PDGraph(3, directed=[(0, 1), (1, 2)])
        empty = PDGraph(3)
        assert bic_score(d, chain) < bic_score(d, empty)

    def test_complete_dag_parameter_count(self):
        rng = np.random.default_rng(47)
        vals = rng.normal(size=(80, 3))
        d = make_dataset(vals)
        complete = PDGraph(3, directed=[(0, 1), (0, 2), (1, 2)])
        fit = dag_mle(d, complete)
        assert bic_score(d, complete) == pytest.approx(
            -2 * fit.loglik + np.log(80) * (6 + 3), rel=1e-12
        )


    def test_trek_count_matches_reference_closure(self):
        # Random DAGs with shuffled labels, so vertex order is not a
        # topological order; (i, j) counts when i and j share an ancestor.
        rng = np.random.default_rng(53)
        for _ in range(300):
            p = int(rng.integers(1, 10))
            dag = random_pdgraph_dag(rng, p, float(rng.uniform(0.1, 0.7)))
            dag = relabel(dag, [int(v) for v in rng.permutation(p)])
            parents = to_amat(dag).T
            anc = [_reference_closure(parents, i) for i in range(p)]
            expected = sum(
                bool((anc[i] & anc[j]).any()) for i in range(p) for j in range(i, p)
            )
            assert _trek_nonzero_count(dag) == expected


class TestStructuralCovariance:
    def test_empty_system_is_identity(self):
        assert np.allclose(structural_covariance(np.zeros((3, 3))), np.eye(3))

    def test_chain_propagates_variance(self):
        w = np.zeros((2, 2))
        w[1, 0] = 1.0
        cov = structural_covariance(w)
        assert cov[1, 1] == pytest.approx(2.0)
        assert cov[0, 1] == pytest.approx(1.0)
