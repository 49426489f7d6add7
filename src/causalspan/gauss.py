"""Gaussian data containers and estimators.

Datasets hold an n x (p+1) sample with one designated response column.
Under the linear Gaussian model the covariance is a sufficient statistic,
so the estimators read a dataset only through its covariance, computed
once per dataset (`Dataset.covariance`).  Covariance matrices double as
population objects through the n=None sentinel, so every estimator here
runs the same code on data or on an exact covariance.  Conventions:
sample covariance and correlation use the n-1 denominator; the per-vertex
DAG maximum likelihood fit uses 1/n residual variances, as maximum
likelihood requires.  Every estimator decides singularity in one gated
block solve (`_solve_blocks`), where one number per matrix,
`CovMatrix._eigen_floor`, says whether its blocks skip their own check.
Batches are the unit of work: a simulation's replicates or a bootstrap's
resamples make and check their sample matrices together
(`_sample_matrices`, one `_check_stack` pass, which `pc._pc_batch` runs
before their skeletons) and solve the regressions of all their graphs in
one `_betas` call; a single dataset makes its matrices once, through its
cached `covariance`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DegenerateDataError,
    InsufficientSampleError,
    NumericalRankError,
)
from .graphs import PDGraph, _reach

# Relative condition-number threshold above which linear systems are
# treated as rank deficient.  A block is checked against it with its own
# SVD unless it comes with a positive eigenvalue floor, which its
# CovMatrix gives every principal block at once (see
# `CovMatrix._eigen_floor`).
CONDITION_LIMIT = 1e12

# Unit roundoff of float64.
_U = float(np.finfo(float).eps) / 2

# The largest error bound `_rho_error` may give for a stack to be decided
# from eliminated partial correlations; past it every block of the stack
# takes the exact solve of `_partial_correlations`.  It also keeps the
# first-order terms of that bound dominant.
_DELTA_CAP = 1e-3

# The error of a finite column whose variance overflows a double.
_TOO_LARGE = "column '{}' has a variance too large to represent"


@dataclass(frozen=True)
class Dataset:
    """An n x (p+1) numeric sample with named columns and a response.

    `standardized` records that the covariate columns have been rescaled to
    mean zero and unit sample variance (the response is centered but keeps
    its scale, so effect estimates stay in response units).
    """

    values: np.ndarray
    names: tuple[str, ...]
    response: int
    standardized: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("values must be a 2-d array")
        if v.shape[0] < 2:
            raise ValueError("need at least two rows")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        if len(self.names) != v.shape[1]:
            raise ValueError("names length must match column count")
        if len(set(self.names)) != len(self.names):
            raise ValueError("column names must be unique")
        if not (0 <= self.response < v.shape[1]):
            raise ValueError("response index out of range")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]

    @property
    def covariates(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_columns) if i != self.response)

    @cached_property
    def covariance(self) -> "CovMatrix":
        """The sample covariance, computed on first use; `values` is
        read-only, so the cached matrix cannot go stale."""
        return sample_covariance(self)

    def standardize(self) -> "Dataset":
        """Center every column; rescale covariates to unit sample variance.

        Raises DegenerateDataError naming the first column, response
        included, whose mean overflows, else the first covariate that is
        constant or whose variance overflows."""
        v = self.values.copy()
        with np.errstate(over="ignore"):
            mean = v.mean(axis=0)
        overflowed = ~np.isfinite(mean)
        if overflowed.any():
            raise DegenerateDataError(_TOO_LARGE.format(self.names[overflowed.argmax()]))
        v -= mean
        # One row per covariate: each row sums pairwise, as the std of one
        # column does, so every sd has the bits of its column's own.
        cov = list(self.covariates)
        with np.errstate(over="ignore", invalid="ignore"):
            sd = np.ascontiguousarray(v[:, cov].T).std(axis=1, ddof=1)
        bad = ~np.isfinite(sd) | (sd <= 0)
        if bad.any():
            k = int(bad.argmax())
            if not np.isfinite(sd[k]):
                raise DegenerateDataError(_TOO_LARGE.format(self.names[cov[k]]))
            raise DegenerateDataError(
                f"column '{self.names[cov[k]]}' is constant; cannot standardize"
            )
        v[:, cov] /= sd
        return replace(self, values=v, standardized=True)

    def resample_rows(self, indices: np.ndarray) -> "Dataset":
        return replace(self, values=self.values[indices, :], standardized=False)


@dataclass(frozen=True)
class CovMatrix:
    """A covariance (or correlation) matrix, optionally with a sample size.

    n=None marks a population matrix: tests against it use the exact-zero
    rule instead of a finite-sample test.

    `_eigen_floor` is decided once, from the eigenvalues the constructor
    computes for its semidefiniteness check.  When the stored matrix is
    exactly symmetric and positive definite with w_max <= (CONDITION_LIMIT
    / 1e4) * w_min, it is w_min less the backward error of `eigvalsh`
    (LAPACK's symmetric eigensolvers return the exact eigenvalues of a
    matrix within c(p) u ||v||_2 of the input, c(p) a modestly growing
    function of p, LAPACK Users' Guide sec. 4.7; Weyl's inequality moves no
    eigenvalue further; the term used, p^2 u w_max, takes c(p) = p^2).  By
    Cauchy interlacing it then bounds every principal block's smallest
    eigenvalue from below, and no block can come near CONDITION_LIMIT; the
    1e4 margin absorbs the rounding of both eigenvalue computations.
    Otherwise, or when that difference is not positive (only past p of
    about 9,500, where every block passes the condition check anyway), it
    is 0.0, and every block gets its own check (see `_solve_blocks`).

    The checks and the floor have one implementation, `_check_stack`,
    which works on a stack of matrices: the constructor runs it on its
    matrix as a stack of one, and `CovMatrix._stack` on a batch's
    matrices at once (see `_sample_matrices`).
    """

    values: np.ndarray
    n: int | None = None
    _eigen_floor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("covariance must be square")
        floors, (problem,) = _check_stack(v[None], [self.n])
        if problem:
            raise ValueError(problem)
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_eigen_floor", floors.item(0))

    @classmethod
    def _stack(cls, values: np.ndarray, ns: list[int | None]) -> list["CovMatrix | ValueError"]:
        """A CovMatrix for each matrix of the (m, p, p) stack `values`, with
        the sample sizes ns, or the ValueError its constructor would raise:
        one `_check_stack` pass over the stack, which is made read-only,
        and each matrix a view of it, not a copy."""
        floors, problems = _check_stack(values, ns)
        values.setflags(write=False)
        out: list[CovMatrix | ValueError] = []
        for v, n, floor, problem in zip(values, ns, floors.tolist(), problems):
            if problem:
                out.append(ValueError(problem))
                continue
            c = object.__new__(cls)
            object.__setattr__(c, "values", v)
            object.__setattr__(c, "n", n)
            object.__setattr__(c, "_eigen_floor", floor)
            out.append(c)
        return out

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]

    def correlation(self) -> "CovMatrix":
        return CovMatrix(_unit_diagonal(self.values, range(self.n_columns)), n=self.n)


# The messages of the constructor's checks, by `_check_stack`'s code for
# the first check a matrix fails (0: none).
_PROBLEMS = (
    None,
    "covariance must be finite",
    "covariance must be symmetric",
    "covariance must be positive semidefinite",
    "sample size must be at least 2",
)


def _check_stack(v: np.ndarray, ns: list[int | None]) -> tuple[np.ndarray, list[str | None]]:
    """`CovMatrix`'s checks for each matrix of the (m, p, p) stack v, with
    sample sizes ns: each matrix's `_eigen_floor` and the message of the
    first check it fails (None when it passes them all).

    The checks come in the constructor's order (finite, symmetric,
    positive semidefinite, sample size), and each step runs once over the
    matrices that passed the steps before it, as numpy calls that work
    matrix by matrix (one `eigvalsh` call for the stack).  So a matrix's
    verdict and floor have the values and bits that it gets alone, and no
    step sees a matrix that an earlier one refused.
    """
    m, p = len(v), v.shape[-1]
    problem = np.zeros(m, dtype=np.intp)
    floors = np.zeros(m)
    finite = np.isfinite(v).all(axis=(1, 2))
    problem[~finite] = 1
    live = np.flatnonzero(finite)
    a = v if live.size == m else v[live]
    at = a.swapaxes(1, 2)
    scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
    # np.allclose(a, a.T, atol=1e-8 * scale) on finite input, without its
    # dispatch overhead.
    symmetric = (np.abs(a - at) <= 1e-8 * scale[:, None, None] + 1e-05 * np.abs(at)).all(
        axis=(1, 2)
    )
    if not symmetric.all():
        problem[live[~symmetric]] = 2
        live, a, scale = live[symmetric], a[symmetric], scale[symmetric]
        at = a.swapaxes(1, 2)
    w = np.linalg.eigvalsh((a + at) / 2.0)
    problem[live[w.min(axis=1) < -1e-8 * scale]] = 3
    small = np.array([n is not None and n < 2 for n in ns], dtype=bool)
    problem[live[small[live] & (problem[live] == 0)]] = 4
    low, high = w[:, 0], w[:, -1]
    exact = (a == at).all(axis=(1, 2))
    vouched = (low > 0) & (high <= (CONDITION_LIMIT / 1e4) * low) & exact
    floors[live[vouched]] = np.maximum(0.0, low - p**2 * _U * high)[vouched]
    return floors, [_PROBLEMS[k] for k in problem.tolist()]


def _unit_diagonal(v: np.ndarray, columns) -> np.ndarray:
    """Rescale the covariance block v, or each block of an (m, k, k)
    stack, to unit diagonal; `columns` names the block's columns for the
    zero-variance error."""
    d = np.sqrt(np.diagonal(v, axis1=-2, axis2=-1))
    if np.any(d <= 0):
        bad = columns[int(np.nonzero(d <= 0)[-1][0])]
        raise DegenerateDataError(f"column {bad} has zero variance")
    c = v / (d[..., :, None] * d[..., None, :])
    p = v.shape[-1]
    c.reshape(-1, p * p)[:, :: p + 1] = 1.0
    return (c + c.swapaxes(-1, -2)) / 2.0


@dataclass(frozen=True)
class CITestConfig:
    """Settings for the conditional-independence test."""

    alpha: float = 0.01

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie strictly between 0 and 1")


def _covariance_values(values: np.ndarray) -> np.ndarray:
    """The sample covariance of an n x p array, with the n-1 denominator,
    before any check: the matrix `sample_covariance` checks."""
    v = values - values.mean(axis=0)
    return v.T @ v / (len(values) - 1)


def _finite_covariance(values: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
    """`_covariance_values` of finite values, whose entries are not finite
    only where they overflowed: DegenerateDataError names the first column
    whose variance did.  By Cauchy-Schwarz no covariance between two finite
    variances overflows, but by rounding at the limit."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = _covariance_values(values)
    overflowed = ~np.isfinite(np.diagonal(v))
    if overflowed.any():
        raise DegenerateDataError(_TOO_LARGE.format(names[overflowed.argmax()]))
    return v


def sample_covariance(d: Dataset) -> CovMatrix:
    """Sample covariance with the n-1 denominator (`_finite_covariance`)."""
    return CovMatrix(_finite_covariance(d.values, d.names), n=d.n)


def correlation_matrix(d: Dataset) -> CovMatrix:
    """Sample correlation matrix, read through the dataset's cached
    `covariance`; constant columns raise DegenerateDataError naming the
    column."""
    zero = (np.diagonal(d.covariance.values) == 0).tolist()
    if any(zero):
        raise _constant_column(zero, d.names)
    return d.covariance.correlation()


def _sample_matrices(
    covariances: list[np.ndarray], n: int, names: tuple[str, ...]
) -> list[tuple[CovMatrix, CovMatrix] | DegenerateDataError]:
    """The checked covariance and correlation of each sample of a batch
    that shares n and the column names, from its unchecked covariance
    (`_covariance_values`), or, when the covariance has a zero diagonal
    entry, the DegenerateDataError naming its first constant column.  That
    entry is exactly 0 when the column's standard deviation is, since both
    sum nonnegative squares of the same centred values, and the test comes
    before any check of the sample's matrices.

    The correlations are made in one stacked `_unit_diagonal` pass, then
    one `CovMatrix._stack` pass (one `eigvalsh` call) checks them all with
    the covariances.  Every matrix gets the bits and floor of
    `sample_covariance` or `correlation_matrix` alone, and the first
    check's ValueError is raised, in the samples' order, each covariance's
    before its correlation's.
    """
    # One sample is read in place, not copied.
    raw = covariances[0][None] if len(covariances) == 1 else np.stack(covariances)
    degenerate = (np.diagonal(raw, axis1=1, axis2=2) == 0).tolist()
    live = [b for b, zero in enumerate(degenerate) if not any(zero)]
    covs = raw if len(live) == len(raw) else raw[live]
    # A covariance that is not finite fails its own check before its
    # correlation is read.
    with np.errstate(all="ignore"):
        corrs = _unit_diagonal(covs, range(len(names)))
    k = len(live)
    checked = CovMatrix._stack(np.concatenate([covs, corrs]), [n] * (2 * k))
    pairs = list(zip(checked[:k], checked[k:]))
    for c in itertools.chain(*pairs):
        if isinstance(c, ValueError):
            raise c
    made = iter(pairs)
    return [_constant_column(zero, names) if any(zero) else next(made) for zero in degenerate]


def _constant_column(zero: list[bool], names: tuple[str, ...]) -> DegenerateDataError:
    """The error of a sample whose covariance diagonal is 0 where zero is
    True: it names the first constant column."""
    return DegenerateDataError(
        f"column '{names[zero.index(True)]}' is constant; correlations undefined"
    )


def _solve_blocks(
    a: np.ndarray, b: np.ndarray, floor: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """x and the mask of solved blocks for a[t] x[t] = b[t], an (m, k, k)
    stack with (m, k, r) right-hand sides, or one (k, r) set shared by
    every block, in one batched `np.linalg.solve` (the LAPACK solve of a
    call per block).  This is every estimator's singularity decision.
    `floor` gives each block a lower bound on its smallest eigenvalue (one
    per block, or one every block shares; see `CovMatrix._eigen_floor`): a
    block whose floor is positive cannot pass CONDITION_LIMIT and is solved
    unchecked; every other block gets its own condition number, and the
    blocks past CONDITION_LIMIT are kept out of the solve, with NaN rows in
    x.  When every block is checked, `cond` takes the stack itself.  A
    block's bits depend on no other block of the stack, so the mask
    changes none of them.  A shared right-hand side is broadcast to the
    blocks solved, never copied per block."""
    vouched = np.asarray(floor) > 0
    count = np.count_nonzero(vouched)
    if count == vouched.size:
        ok = np.ones(len(a), dtype=bool)
    elif not count:
        ok = ~(np.linalg.cond(a) > CONDITION_LIMIT)
    else:
        ok = vouched.copy()
        ok[~vouched] = ~(np.linalg.cond(a[~vouched]) > CONDITION_LIMIT)
    every = ok.all()
    kept = a if every else a[ok]
    if b.ndim == 2:
        rhs = np.broadcast_to(b, (len(kept), *b.shape))
    else:
        rhs = b if every else b[ok]
    if every:
        return np.linalg.solve(kept, rhs), ok
    x = np.full((len(a), *b.shape[-2:]), np.nan)
    x[ok] = np.linalg.solve(kept, rhs)
    return x, ok


def _partial_correlations(blocks: np.ndarray, floor: float | np.ndarray = 0.0) -> np.ndarray:
    """Partial correlation of the first two columns given the rest for each
    unit-diagonal block of an (m, k, k) stack, clipped to [-1, 1], from the
    first two columns of each block's inverse (`_solve_blocks` against the
    first two unit vectors, given the blocks' floors, which gives the bits
    of `np.linalg.inv`).  NaN marks a block that `_solve_blocks` refuses,
    or one that is not positive definite.  These are the exact values the
    skeleton's verdicts are defined by; `_stack_verdicts` computes them
    only for the blocks a cheaper bound cannot decide."""
    om, _ = _solve_blocks(blocks, np.eye(blocks.shape[1])[:, :2], floor)
    with np.errstate(invalid="ignore"):
        return np.clip(-om[:, 0, 1] / np.sqrt(om[:, 0, 0] * om[:, 1, 1]), -1.0, 1.0)


def partial_correlation(c: CovMatrix, i: int, j: int, s: tuple[int, ...] = ()) -> float:
    """Correlation of columns i and j after removing the linear effect of
    the columns in s, computed from the precision of the (i, j, s)
    correlation submatrix."""
    s = tuple(int(x) for x in s)
    if len({i, j, *s}) != len(s) + 2:
        raise ValueError("i, j and s must be distinct")
    idx = [i, j, *s]
    sub = _unit_diagonal(c.values[np.ix_(idx, idx)], idx)
    r = float(_partial_correlations(sub[None])[0])
    if math.isnan(r):
        raise NumericalRankError(
            f"correlation submatrix for ({i}, {j} | {s}) is singular"
        )
    return r


# Cephes ndtri (S. L. Moshier, 1989; BSD licence), same constants and operation order.
_S2PI = 2.50662827463100050242e0

# 0 <= |y - 0.5| <= 3/8
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.0,
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# z = sqrt(-2 log y) in [2, 8): y between exp(-2) and exp(-32)
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.0,
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# z in [8, 64): y between exp(-32) and exp(-2048)
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    1.0,
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner's rule, highest power first.  The Q tables spell out the
    leading 1.0 that Cephes' p1evl leaves implicit; 1.0 * x is exactly x,
    so the result is the same."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """Standard normal quantile: the x with Phi(x) = y0, for 0 <= y0 <= 1.

    scipy.special.ndtri runs the same Cephes code, and gives the same bits.
    """
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not (0.0 < y0 < 1.0):
        raise ValueError("probability must lie in [0, 1]")
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


@lru_cache(maxsize=None)
def _z_quantile(alpha: float) -> float:
    return _ndtri(1.0 - alpha / 2.0)


class _Rule(NamedTuple):
    """A dependence test, a bound on |rho| above which it always says
    dependent and a bound below which it always says independent, so a
    caller may decide such rows without it."""

    dependent: Callable[[float], bool]
    clear: float
    keep: float


def _fisher_z_rule(n: int, s_size: int, alpha: float) -> _Rule:
    """The test of `fisher_z_dependent` for one n, |S| and alpha, with the
    arguments checked and the threshold computed once, for callers that
    test many partial correlations under the same settings.

    With t = tanh(quantile / root), `clear` is t * (1 + 1e-9), capped at
    1, and every |rho| above it tests dependent; `keep` is t * (1 - 1e-9),
    and every |rho| below it tests independent.  Both are exact, by the
    slope of atanh, 1 / (1 - x^2) >= 1 / (1 - t'^2) on [t', 1) for any
    t' in [0, 1), and atanh(t') <= t' / (1 - t'^2).  Above t a relative
    step of 1e-9 raises atanh by at least 1e-9 t / (1 - t^2) >= 1e-9
    atanh(t); below it, from t' = t (1 - 1e-9) up to t, by at least
    1e-9 t / (1 - t'^2) >= 1e-9 atanh(t').  So |atanh(rho)| * root moves
    about 1e-9 relative away from the quantile, while the rounding of
    `math.tanh`, `math.atanh`, `sqrt` and the products is a few ulps
    (about 1e-15 relative).  A NaN is neither above `clear` nor below
    `keep`, so the test decides it.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly between 0 and 1")
    if n - s_size - 3 < 1:
        raise InsufficientSampleError(
            f"need n - |S| - 3 >= 1, got n={n} with |S|={s_size}"
        )
    root, quantile = math.sqrt(n - s_size - 3), _z_quantile(alpha)

    def dependent(rho: float) -> bool:
        return abs(rho) >= 1.0 or abs(math.atanh(rho)) * root > quantile

    t = math.tanh(quantile / root)
    return _Rule(dependent, min(1.0, t * (1 + 1e-9)), t * (1 - 1e-9))


def fisher_z_dependent(rho: float, n: int, s_size: int, alpha: float) -> bool:
    """Decide dependence from a sample partial correlation.

    Uses the z-transform z = atanh(rho); dependent when
    |z| * sqrt(n - s_size - 3) exceeds the 1 - alpha/2 normal quantile,
    which is computed once per alpha and cached for the process.
    |rho| = 1 is dependent outright.  Requires n - s_size - 3 >= 1.
    """
    return bool(_fisher_z_rule(n, s_size, alpha).dependent(rho))


def _eliminated_partial_correlations(blocks: np.ndarray) -> np.ndarray:
    """Partial correlation of the first two columns given the rest for each
    positive definite block of an (m, k, k) stack, by symmetric Gaussian
    elimination without pivoting: k - 2 numpy steps over the whole stack
    eliminate the conditioning columns, last first, and rho is
    S01 / sqrt(S00 S11) of the 2 x 2 Schur complement S that is left.  No
    call per block; the result is within `_rho_error` of
    `_partial_correlations`, not equal to it."""
    # A copy with the stack axis last, so each step runs over m contiguous
    # values (`ascontiguousarray` would hand back a view when m is 1).
    a = blocks.transpose(1, 2, 0).copy()
    for c in range(a.shape[0] - 1, 1, -1):
        a[:c, :c] -= a[:c, c, None] * (a[c, :c] / a[c, c])
    return a[0, 1] / np.sqrt(a[0, 0] * a[1, 1])


def _rho_error(k: int, floor: float | np.ndarray) -> np.ndarray:
    """delta_k, a bound on |rho_fast - rho_exact| for every unit-diagonal
    k x k block whose smallest eigenvalue is at least `floor`, between
    `_eliminated_partial_correlations` and `_partial_correlations`; inf
    where floor <= 0.  One delta_k per entry of `floor`.

    Both are backward stable (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, chs. 9-10): each reads rho off quantities exact for
    A + E with ||E||_2 <= eta (one E per column of the inverse), and
    rounds its last quotient to a few u; clipping to [-1, 1] only moves
    rho toward the true value.
    - Elimination without pivoting on a positive definite A leaves the
      Schur complement of A + E with |E| <= gamma_k |L| |D| |L^T|
      (Thm 9.3), and || |L| |D| |L^T| ||_2 <= k ||A||_2 <= k^2 for a
      unit-diagonal A, as for |R^T| |R| in Cholesky (sec. 10.1); so
      eta <= k^3 u to first order.
    - `_partial_correlations` solves A X = [e_0 e_1] by LU with partial
      pivoting, as `np.linalg.inv` solves A X = I; column j of X is exact
      for A + E_j with |E_j| <= gamma_3k |L| |U| (Thm 9.4), |l_ij| <= 1
      and |u_ij| <= 2^(k-1) max |a_ij| = 2^(k-1); so eta <= 1.5 k^3 2^k u.
    With Omega = A^-1 and x_i its i-th column, rho = -Omega_01 /
    sqrt(Omega_00 Omega_11), and to first order E moves Omega_ij by
    |x_i^T E x_j| <= eta ||x_i|| ||x_j|| <= eta sqrt(Omega_ii Omega_jj) /
    lambda_min, since ||x_i||^2 <= ||Omega||_2 Omega_ii.  So each side
    moves rho by at most (1 + |rho|) eta / lambda_min, and in all
    |rho_fast - rho_exact| <= (2 + 3 2^k) k^3 u / lambda_min + 6u
    <= 4 k^3 2^k u / lambda_min (lambda_min <= 1 on a unit diagonal).
    The constant 1e3 leaves a factor 250 for the slack in the gamma
    constants and for the second-order terms, which _DELTA_CAP keeps
    below a relative 1e-3.
    """
    floor = np.asarray(floor, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(floor > 0, 1e3 * k**3 * 2.0**k * _U / floor, np.inf)


def _stack_verdicts(blocks: np.ndarray, rule: _Rule, floor: float | np.ndarray) -> np.ndarray:
    """The verdict of `rule` on the partial correlation of the first two
    columns given the rest for each unit-diagonal block of an (m, k, k)
    stack: 0 dependent, 1 independent, 2 singular (NaN rho, which no rule
    calls dependent).

    `floor` gives each row its matrix's `_eigen_floor` (one per row, or one
    that every row shares), so a stack may mix the blocks of several
    matrices.  A row's floor > 0 bounds its block's smallest eigenvalue
    from below.  Then, while the row's delta_k = `_rho_error` is at most
    _DELTA_CAP, its rho comes from `_eliminated_partial_correlations` and
    the row is decided from it unless |rho| lies in [keep - delta_k,
    clear + delta_k]: above that band the exact rho is above `clear`,
    below it under `keep`, so the verdict is the one the exact rho gets.
    A row without that bound (floor 0: n < p, duplicated or collinear
    columns, a near-singular population matrix; or delta_k past the cap)
    lands in the band whatever its rho.  The band rows take one
    `_partial_correlations` call with their floors, in which the rows with
    floor 0 get their own condition checks; a call that takes every row
    gets the stack itself.  Rows between `keep` and `clear` after that go
    to rule.dependent one by one.
    """
    delta = _rho_error(blocks.shape[1], floor)
    fast = delta <= _DELTA_CAP
    # The rows past the cap or without a bound land in the band whatever
    # their rho, which a singular block makes NaN or inf.
    delta = np.where(fast, delta, np.inf)
    if fast.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = _eliminated_partial_correlations(blocks)
    else:
        rho = np.full(len(blocks), np.nan)
    size = np.abs(rho)
    below = size < rule.keep - delta
    band = ~(below | (size > rule.clear + delta))
    if not band.any():
        return below.view(np.int8)
    if band.all():
        rho = _partial_correlations(blocks, floor)
    else:
        rho[band] = _partial_correlations(blocks[band], np.broadcast_to(floor, band.shape)[band])
    size = np.abs(rho)
    verdicts = (~(size > rule.clear)).astype(np.int8)
    for row in np.flatnonzero(verdicts & ~(size < rule.keep)).tolist():
        r = rho.item(row)
        verdicts[row] = 2 if math.isnan(r) else 1 - rule.dependent(r)
    return verdicts


def _betas(
    sources: list[Dataset | CovMatrix],
    requests: list[tuple[int, int, tuple[int, ...], int]],
) -> list[float | NumericalRankError]:
    """The coefficient of `beta_given_s` for each request (m, i, s, y) on
    sources[m] (a dataset is read through its cached `covariance`), or the
    NumericalRankError that call would raise, in request order.

    Requests with y in s get 0.0 and no solve; when no request needs one,
    no covariance is read.  The others are grouped by |s| across all the
    sources, which share their column count.  Each group takes one gather
    of its ({i} union s) x ({i} union s, y) blocks from the stacked
    matrices (one source is read in place) and one `_solve_blocks` call,
    in which each row has its own matrix's `_eigen_floor`.  So every
    coefficient has the bits of a one-request solve on its own matrix, and
    the blocks that call refuses are reported.
    """
    out: list[float | NumericalRankError] = [0.0] * len(requests)
    groups: dict[int, list[int]] = {}
    for r, (_, i, s, y) in enumerate(requests):
        if i == y:
            raise ValueError("covariate and response must differ")
        if i in s:
            raise ValueError("covariate must not appear in the adjustment set")
        if y not in s:
            groups.setdefault(len(s), []).append(r)
    if not groups:
        return out
    covs = [c.covariance if isinstance(c, Dataset) else c for c in sources]
    values = covs[0].values[None] if len(covs) == 1 else np.stack([c.values for c in covs])
    floors = np.array([c._eigen_floor for c in covs])
    p = values.shape[1]
    for rows in groups.values():
        # Row t of idx is (m, i, sorted s, y); its block is rows (i, s) and
        # columns (i, s, y) of matrix m, read through one flat offset per
        # cell.
        idx = np.array([[m, i, *sorted(s), y] for m, i, s, y in map(requests.__getitem__, rows)])
        m = idx[:, 0]
        blocks = values.take((m[:, None, None] * p + idx[:, 1:-1, None]) * p + idx[:, None, 1:])
        coef, ok = _solve_blocks(blocks[:, :, :-1], blocks[:, :, -1:], floors[m])
        for r, c, good in zip(rows, coef[:, 0, 0].tolist(), ok.tolist()):
            if good:
                out[r] = c
            else:
                _, i, s, _ = requests[r]
                out[r] = NumericalRankError(
                    f"regression ({i} | {s}): matrix is singular or ill-conditioned"
                )
    return out


def beta_given_s(
    source: Dataset | CovMatrix, i: int, s: tuple[int, ...], y: int
) -> float:
    """Coefficient of column i in the least-squares regression of y on
    {i} union s (with intercept), solved from the covariance: a dataset's
    cached `covariance`, or the matrix itself.  Returns 0.0 when y is in s:
    a response that appears among the regressors indicates y is upstream
    of i, so the effect of i on y is zero.  Rank deficiency raises
    NumericalRankError.  It is decided once for the whole covariance when
    its `_eigen_floor` is positive (no principal block can then pass
    CONDITION_LIMIT); otherwise by the condition number of the {i} union s
    covariance block.  This is the one-request form of `_betas`, which
    solves many requests on many matrices in a few stacked calls.
    """
    beta = _betas([source], [(0, i, tuple(int(x) for x in s), y)])[0]
    if isinstance(beta, NumericalRankError):
        raise beta
    return beta


class DagFit(NamedTuple):
    """Maximum likelihood Gaussian fit of a DAG model."""

    covariance: np.ndarray
    mean: np.ndarray
    loglik: float


def dag_mle(d: Dataset, dag: PDGraph) -> DagFit:
    """Fit a linear Gaussian model with the given DAG structure by
    per-vertex least squares on the parents, and return the implied
    covariance, the mean vector, and the exact log-likelihood at the fit.
    """
    if not dag.is_dag():
        raise ValueError("dag_mle requires a fully directed acyclic graph")
    if dag.n != d.n_columns:
        raise ValueError("graph size must match dataset columns")
    n, p1 = d.values.shape
    v = d.values - d.values.mean(axis=0)
    b = np.zeros((p1, p1))
    resid_var = np.zeros(p1)
    loglik = 0.0
    for i in range(p1):
        pa = sorted(dag.parents(i))
        if pa:
            x = v[:, pa]
            coef, ok = _solve_blocks((x.T @ x)[None], (x.T @ v[:, i])[None, :, None], 0.0)
            if not ok[0]:
                raise NumericalRankError(
                    f"vertex {i} regression: matrix is singular or ill-conditioned"
                )
            b[i, pa] = coef[0, :, 0]
            resid = v[:, i] - x @ coef[0, :, 0]
        else:
            resid = v[:, i]
        s2 = float(resid @ resid) / n
        if s2 <= 0:
            raise NumericalRankError(f"vertex {i} has zero residual variance")
        resid_var[i] = s2
        loglik += -0.5 * n * (math.log(2.0 * math.pi * s2) + 1.0)
    ib = np.eye(p1) - b
    inv_ib = np.linalg.inv(ib)
    sigma = inv_ib @ np.diag(resid_var) @ inv_ib.T
    return DagFit((sigma + sigma.T) / 2.0, d.values.mean(axis=0), loglik)


def _trek_nonzero_count(dag: PDGraph) -> int:
    """Count the structurally nonzero entries on or above the diagonal of
    the covariance a DAG model implies: entry (i, j) is nonzero exactly
    when i and j share an ancestor (each vertex is its own ancestor)."""
    anc = [_reach(dag._pa, 1 << i) for i in range(dag.n)]
    return sum(1 for i, a in enumerate(anc) for b in anc[i:] if a & b)


def bic_score(d: Dataset, dag: PDGraph) -> float:
    """BIC of the DAG model: -2 log-likelihood plus log(n) times the
    parameter count, which is the number of structurally nonzero
    upper-triangle (diagonal included) covariance entries plus one mean
    per column.  Structural zeros come from the graph, not from
    thresholding fitted values."""
    fit = dag_mle(d, dag)
    k = _trek_nonzero_count(dag) + d.n_columns
    return float(-2.0 * fit.loglik + math.log(d.n) * k)


def structural_covariance(weights: np.ndarray) -> np.ndarray:
    """Exact covariance of the linear system X = W X + e where W[i, j] is
    the coefficient of X_j in the equation for X_i and e has independent
    unit-variance components.  A stack of weight matrices gives the stack
    of their covariances, each with the bits it gets alone: `inv` and
    `matmul` work matrix by matrix."""
    w = np.asarray(weights, dtype=float)
    eye = np.eye(w.shape[-1])
    inv_ib = np.linalg.inv(eye - w)
    # Kept as (inv_ib @ eye) @ inv_ib.T: numpy computes inv_ib @ inv_ib.T
    # as a symmetric rank-k update, which rounds differently, and the
    # simulation outputs are pinned to these bits.
    sigma = inv_ib @ eye @ inv_ib.swapaxes(-1, -2)
    return (sigma + sigma.swapaxes(-1, -2)) / 2.0
