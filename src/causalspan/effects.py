"""Possible total causal effects of covariates on a response.

When only an equivalence class of DAGs is known, the total effect of a
covariate on the response is identified only up to a multiset: one value
per class member.  Two routes compute it:

* the global route enumerates every DAG in the class and regresses the
  response on the covariate adjusted for that DAG's parents;
* the local route never enumerates: it tries each subset of the
  covariate's undirected neighbours that could act as extra parents and
  adjusts for parents plus that subset.

The two routes agree on the set of distinct values (and distinct
adjustment sets); only multiplicities can differ.  The local route is the
one that scales.

Both routes run through one entry point, `_route_plan`, whose plans
`_finish_plans` solves together, giving one multiset or package error per
covariate; only `global_effects`, which returns every class member's
value, reads the global route's `_theta_plan` directly.

Two optional modifications refine the interpretation: `zero_path` forces
the effect to zero whenever a DAG admits no directed path from covariate
to response, and `prune_y` drops parents/siblings that have no skeleton
path to the response before adjusting.  Both default to off.
"""

from __future__ import annotations

import collections
import itertools
import math
import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CausalSpanError, NumericalRankError, ResourceCapError
from .gauss import CITestConfig, CovMatrix, Dataset, _betas, _finite_covariance
from .graphs import (
    DEFAULT_MAX_COMPONENT_EDGES,
    DEFAULT_MAX_DAGS,
    PDGraph,
    _bits,
    _class_parent_masks,
    _reach,
    allows_directed_path,
)
from .pc import _batch_size, _pc_batch, _pc_result

MOD_ZERO_PATH = "zero_path"
MOD_PRUNE_Y = "prune_y"
_KNOWN_MODS = frozenset({MOD_ZERO_PATH, MOD_PRUNE_Y})

DEFAULT_MAX_SIBLINGS = 25


def _check_mods(mods) -> frozenset[str]:
    mods = frozenset(mods)
    unknown = mods - _KNOWN_MODS
    if unknown:
        raise ValueError(f"unknown modification flags: {sorted(unknown)}")
    return mods


@dataclass(frozen=True)
class EffectEntry:
    """One effect value, the adjustment set that produced it, and how many
    class members it stands for.  adjustment=None marks a value forced to
    zero because no directed path can reach the response."""

    value: float
    adjustment: tuple[int, ...] | None
    multiplicity: int = 1


@dataclass(frozen=True)
class EffectMultiset:
    """The multiset of possible total effects of one covariate."""

    covariate: int
    response: int
    entries: tuple[EffectEntry, ...]
    method: str
    mods: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.method not in ("global", "local", "oracle"):
            raise ValueError(f"unknown method tag: {self.method}")
        if not self.entries:
            raise ValueError("an effect multiset cannot be empty")

    def values(self) -> list[float]:
        """Every value, repeated by multiplicity."""
        out: list[float] = []
        for e in self.entries:
            out.extend([e.value] * e.multiplicity)
        return out

    def size(self) -> int:
        return sum(e.multiplicity for e in self.entries)

    def distinct_adjustments(self) -> frozenset[frozenset[int] | None]:
        return frozenset(
            frozenset(e.adjustment) if e.adjustment is not None else None
            for e in self.entries
        )

    def _present(self) -> list[float]:
        """`values()` without the repeats: the same min and max."""
        return [e.value for e in self.entries if e.multiplicity > 0]

    def min_abs(self) -> float:
        return min(abs(v) for v in self._present())

    def mean_abs(self) -> float:
        """The mean |value| over `values()`, summed in its order."""
        each = (itertools.repeat(abs(e.value), e.multiplicity) for e in self.entries)
        return sum(itertools.chain.from_iterable(each)) / self.size()

    def value_range(self) -> float:
        vals = self._present()
        return max(vals) - min(vals)

    def ambiguity(self) -> int:
        """Number of distinct adjustment sets among the entries."""
        return len(self.distinct_adjustments())

    def to_json_dict(self, names: list[str] | None = None) -> dict:
        def name(i: int) -> str | int:
            return names[i] if names is not None else i

        return {
            "covariate": name(self.covariate),
            "method": self.method,
            "effects": [
                {
                    "value": e.value,
                    "adjustment": (
                        None
                        if e.adjustment is None
                        else [name(a) for a in e.adjustment]
                    ),
                    "multiplicity": e.multiplicity,
                }
                for e in self.entries
            ],
            "min_abs": self.min_abs(),
            "range": self.value_range(),
            "ambiguity": self.ambiguity(),
        }


def summarize(e: EffectMultiset, stat: str) -> float:
    """One-number summaries: min_abs | range | mean_abs | min | max."""
    if stat == "min_abs":
        return e.min_abs()
    if stat == "range":
        return e.value_range()
    if stat == "mean_abs":
        return e.mean_abs()
    if stat == "min":
        return min(e._present())
    if stat == "max":
        return max(e._present())
    raise ValueError(f"unknown summary statistic: {stat}")


@dataclass(frozen=True)
class ThetaMatrix:
    """Per-covariate, per-class-member effect values from the global route.

    Row order follows `covariates`; column j belongs to the j-th DAG that
    `enumerate_dags` lists for the same graph and caps.
    """

    covariates: tuple[int, ...]
    response: int
    matrix: np.ndarray
    adjustments: tuple[tuple[tuple[int, ...] | None, ...], ...]
    mods: frozenset[str] = frozenset()

    def row_multiset(self, i: int) -> EffectMultiset:
        """The covariate's effect multiset: values grouped by adjustment
        set in order of first member, multiplicities counting members."""
        r = self.covariates.index(i)
        row = self.adjustments[r]
        entries = tuple(
            EffectEntry(float(self.matrix[r, row.index(a)]), a, m)
            for a, m in collections.Counter(row).items()
        )
        return EffectMultiset(i, self.response, entries, "global", self.mods)


def _check_vertex(g: PDGraph, v: int, role: str) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"{role} {v} is not a vertex of the graph (0..{g.n - 1})")


# A plan: the regressions (i, s) a graph's effects need, and the step that
# turns their coefficients (or NumericalRankErrors), in request order, into
# the effects or the error that ends them.
_Plan = tuple[list[tuple[int, tuple[int, ...]]], Callable[[list], object]]


def _finish_plans(plans: list[tuple[Dataset | CovMatrix | None, int, _Plan]]) -> list:
    """Each plan (source, y, (requests, finish)), with response y,
    finished on the coefficients of its requests on source, in plan order;
    for a `_route_plan`, a list with one multiset or package error per
    covariate.  The requests of every plan are solved in one `_betas` call
    over the distinct sources, so a batch of graphs and a single graph's
    plan take the same path.  A plan with no requests reads no source, so
    its source may be None."""
    index: dict[int, int] = {}
    sources, requests = [], []
    for source, y, (asked, _) in plans:
        if not asked:
            continue
        m = index.setdefault(id(source), len(sources))
        if m == len(sources):
            sources.append(source)
        requests += [(m, i, s, y) for i, s in asked]
    betas = _betas(sources, requests)
    out, start = [], 0
    for _, _, (asked, finish) in plans:
        out.append(finish(betas[start : start + len(asked)]))
        start += len(asked)
    return out


def _theta_plan(
    g: PDGraph,
    covariates: tuple[int, ...],
    y: int,
    mods: frozenset[str] | tuple[str, ...],
    max_component_edges: int,
    max_dags: int,
    classes: dict | None = None,
) -> _Plan:
    """The global route's plan for g: enumerate the equivalence class and
    ask for each covariate i's regressions, whose finish fills one row per
    covariate (i's adjustment set in each class member and its effect)
    into a ThetaMatrix, or gives the first NumericalRankError in row
    order.  The enumeration's cap error is raised here.

    The adjustment set is the member's parents of i, under `prune_y` only
    those in y's skeleton component.  Under `zero_path` a member in which
    i is not an ancestor of y gets None and the effect 0.0.  Members are
    grouped by mask, so each distinct set is solved once per covariate.
    `classes`, when given, holds the member lists of graphs already
    listed, keyed by (graph, caps); g's list is read from it or added.
    """
    mods = _check_mods(mods)
    _check_vertex(g, y, "response")
    classes = {} if classes is None else classes
    key = (g, max_component_edges, max_dags)
    if key not in classes:
        try:
            classes[key] = _class_parent_masks(g, max_component_edges, max_dags)
        except ResourceCapError as e:
            raise ResourceCapError(
                f"{e}; the local route avoids enumeration and scales further"
            ) from None
    members = classes[key]
    for i in covariates:
        if i == y or not 0 <= i < g.n:
            raise ValueError(f"{i} is not a covariate of response {y}")
    keep = _reach(g._adjacency(), 1 << y) if MOD_PRUNE_Y in mods else (1 << g.n) - 1
    ancestors = None
    if MOD_ZERO_PATH in mods:
        ancestors = [_reach(pa, 1 << y) for pa in members]
    rows = []
    for i in covariates:
        keys = [pa[i] & keep for pa in members]
        if ancestors is not None:
            keys = [k if a >> i & 1 else None for k, a in zip(keys, ancestors)]
        sets = {k: None if k is None else tuple(_bits(k)) for k in dict.fromkeys(keys)}
        rows.append((i, keys, sets))

    def finish(betas: list) -> ThetaMatrix | NumericalRankError:
        error = next((b for b in betas if isinstance(b, NumericalRankError)), None)
        if error is not None:
            return error
        solved = iter(betas)
        matrix = np.zeros((len(covariates), len(members)))
        adjustments: list[tuple[tuple[int, ...] | None, ...]] = []
        for r, (_, keys, sets) in enumerate(rows):
            effects = {k: 0.0 if s is None else next(solved) for k, s in sets.items()}
            matrix[r] = [effects[k] for k in keys]
            adjustments.append(tuple(sets[k] for k in keys))
        return ThetaMatrix(covariates, y, matrix, tuple(adjustments), mods)

    return [(i, s) for i, _, sets in rows for s in sets.values() if s is not None], finish


def global_effects(
    source: Dataset | CovMatrix,
    g: PDGraph,
    y: int,
    mods: frozenset[str] | tuple[str, ...] = (),
    max_component_edges: int = DEFAULT_MAX_COMPONENT_EDGES,
    max_dags: int = DEFAULT_MAX_DAGS,
) -> ThetaMatrix:
    """Enumerate the equivalence class of g and compute, for every
    covariate i and every member DAG, the regression coefficient of i
    adjusted for the member's parents of i.  A cap error points to the
    local route.

    Requires a graph that validates as a CPDAG (repair first if needed).
    """
    covariates = tuple(i for i in range(g.n) if i != y)
    plan = _theta_plan(g, covariates, y, mods, max_component_edges, max_dags)
    (theta,) = _finish_plans([(source, y, plan)])
    if isinstance(theta, NumericalRankError):
        raise theta
    return theta


def _local_plan(
    g: PDGraph,
    covariates: tuple[int, ...],
    y: int,
    mods: frozenset[str] | tuple[str, ...],
    max_siblings: int,
    max_component_edges: int,
    max_dags: int,
) -> _Plan:
    """The local route's plan for g: every covariate's adjustment sets,
    asked for in covariate order, whose finish gives `local_effects` for
    each covariate or the package error it would raise (a cap error found
    here, or the first NumericalRankError among its regressions).  g's
    adjacency masks and y's component are built once."""
    mods = _check_mods(mods)
    _check_vertex(g, y, "response")
    adj = g._adjacency()
    keep = _reach(adj, 1 << y) if MOD_PRUNE_Y in mods else (1 << g.n) - 1

    def adjustment_sets(i: int) -> list[tuple[int, ...]] | None:
        """i's adjustment sets, in entry order, or None when `zero_path`
        finds no directed path from i to y."""
        _check_vertex(g, i, "covariate")
        if i == y:
            raise ValueError("covariate and response must differ")
        if MOD_ZERO_PATH in mods and not allows_directed_path(
            g, i, y, max_component_edges, max_dags
        ):
            return None
        pa, sibs = g._pa[i] & keep, g._sib[i] & keep
        k = sibs.bit_count()
        if k > max_siblings:
            raise ResourceCapError(
                f"covariate {i} has {k} undirected neighbours "
                f"(cap {max_siblings})"
            )
        cliques = [0]
        for v in _bits(sibs):
            if not g._pa[i] & ~adj[v]:
                cliques += [c | 1 << v for c in cliques if not c & ~adj[v]]
        return [tuple(_bits(pa | s)) for s in cliques]

    plans: list[list[tuple[int, ...]] | None | CausalSpanError] = []
    for i in covariates:
        try:
            plans.append(adjustment_sets(i))
        except CausalSpanError as e:
            plans.append(e)

    def finish(betas: list) -> list[EffectMultiset | CausalSpanError]:
        solved = iter(betas)
        out: list[EffectMultiset | CausalSpanError] = []
        for i, plan in zip(covariates, plans):
            if plan is None:
                out.append(EffectMultiset(i, y, (EffectEntry(0.0, None, 1),), "local", mods))
            elif isinstance(plan, CausalSpanError):
                out.append(plan)
            else:
                values = [next(solved) for _ in plan]
                error = next((v for v in values if isinstance(v, NumericalRankError)), None)
                entries = tuple(map(EffectEntry, values, plan))
                out.append(error or EffectMultiset(i, y, entries, "local", mods))
        return out

    requests = [(i, s) for i, plan in zip(covariates, plans) if isinstance(plan, list)
                for s in plan]
    return requests, finish


def _route_plan(
    method: str,
    g: PDGraph,
    covariates: tuple[int, ...],
    y: int,
    mods: frozenset[str] | tuple[str, ...],
    max_siblings: int,
    max_component_edges: int,
    max_dags: int,
    classes: dict | None = None,
) -> _Plan:
    """The covariates' effect multisets on g by one route, as a plan whose
    finish gives each covariate's multiset or the package error that ends
    it.  The local route is `_local_plan`.  The global route plans the
    covariates' rows of `_theta_plan` (reading or adding g's member list
    in `classes`), and each multiset equals `global_effects(...)
    .row_multiset(i)`.  A package error raised while planning, such as a
    cap on the class, gives a plan with no requests whose finish gives
    that error for every covariate."""
    if method == "local":
        return _local_plan(g, covariates, y, mods, max_siblings, max_component_edges, max_dags)
    if method != "global":
        raise ValueError("method must be 'global' or 'local'")
    try:
        requests, theta = _theta_plan(
            g, covariates, y, mods, max_component_edges, max_dags, classes
        )
    except CausalSpanError as e:
        # `e` is unbound when the block ends, so the finish keeps its own.
        return [], lambda betas, e=e: [e] * len(covariates)

    def finish(betas: list) -> list[EffectMultiset | CausalSpanError]:
        t = theta(betas)
        return [t if isinstance(t, CausalSpanError) else t.row_multiset(i) for i in covariates]

    return requests, finish


def _solved(source: Dataset | CovMatrix, y: int, plan: _Plan) -> list[EffectMultiset]:
    """The multisets of a `_route_plan` finished on source, or the first
    covariate's package error raised."""
    (out,) = _finish_plans([(source, y, plan)])
    for m in out:
        if isinstance(m, CausalSpanError):
            raise m
    return out


def local_effects(
    source: Dataset | CovMatrix,
    g: PDGraph,
    i: int,
    y: int,
    mods: frozenset[str] | tuple[str, ...] = (),
    max_siblings: int = DEFAULT_MAX_SIBLINGS,
    max_component_edges: int = DEFAULT_MAX_COMPONENT_EDGES,
    max_dags: int = DEFAULT_MAX_DAGS,
) -> EffectMultiset:
    """Effect multiset of covariate i without enumerating the class.

    Every subset of i's siblings whose members are pairwise adjacent (and
    adjacent to i's parents) can be the extra parents of i in some class
    member, so each such subset contributes the coefficient of i adjusted
    for parents plus subset.  Distinct values match the global route;
    multiplicities may not.

    The subsets are the cliques among the siblings adjacent to every
    parent of i, grown one sibling at a time in increasing order (Bron &
    Kerbosch without the maximality test), so the work follows the number
    of entries, not 2^k.  Each step appends the cliques that gain the
    largest sibling so far, in the order of the cliques they extend, so
    the entries come in increasing subset-mask order.
    """
    plan = _route_plan("local", g, (i,), y, mods, max_siblings, max_component_edges, max_dags)
    return _solved(source, y, plan)[0]


def oracle_multiplicities(
    g: PDGraph,
    i: int,
    max_siblings: int = DEFAULT_MAX_SIBLINGS,
    max_component_edges: int = DEFAULT_MAX_COMPONENT_EDGES,
    max_dags: int = DEFAULT_MAX_DAGS,
) -> dict[tuple[int, ...], int]:
    """For every sibling subset s of i, how many class members have
    parent set parents(i) union s.  Zero counts are included, so the keys
    always run over all sibling subsets."""
    members = _class_parent_masks(g, max_component_edges, max_dags)
    sibs = sorted(g.siblings(i))
    if len(sibs) > max_siblings:
        raise ResourceCapError(
            f"covariate {i} has {len(sibs)} undirected neighbours "
            f"(cap {max_siblings})"
        )
    base = g._pa[i]
    counts: dict[tuple[int, ...], int] = {}
    for r in range(len(sibs) + 1):
        for s in itertools.combinations(sibs, r):
            counts[s] = 0
    for pa in members:
        counts[tuple(_bits(pa[i] & ~base))] += 1
    return counts


def multiset_distance(a, b) -> float:
    """Distance between two multisets of reals: infinity when sizes
    differ, otherwise the largest gap between sorted order statistics."""
    va = sorted(a.values() if isinstance(a, EffectMultiset) else a)
    vb = sorted(b.values() if isinstance(b, EffectMultiset) else b)
    if len(va) != len(vb):
        return math.inf
    if not va:
        return 0.0
    return max(abs(x - y) for x, y in zip(va, vb))


@dataclass(frozen=True)
class CovariateScore:
    """Bootstrap summary for one covariate."""

    covariate: int
    score: float
    full_data_ambiguity: int | None
    replicate_ambiguities: tuple[int, ...]
    failures: int


@dataclass(frozen=True)
class BootstrapScores:
    """Causal scores for all covariates from resampled reruns."""

    response: int
    n_replicates: int
    scores: tuple[CovariateScore, ...]

    def ranked(self) -> list[CovariateScore]:
        """Highest score first, unscored covariates last; ties broken by
        covariate index."""

        def key(s: CovariateScore) -> tuple[bool, float, int]:
            unscored = s.score is None or math.isnan(s.score)
            return (unscored, -(s.score if not unscored else 0.0), s.covariate)

        return sorted(self.scores, key=key)


def bootstrap_scores(
    d: Dataset,
    cfg: CITestConfig = CITestConfig(),
    b: int = 10,
    seed: int = 0,
    mods: frozenset[str] | tuple[str, ...] = (),
    max_siblings: int = DEFAULT_MAX_SIBLINGS,
    max_component_edges: int = DEFAULT_MAX_COMPONENT_EDGES,
) -> BootstrapScores:
    """Score each covariate by the median, over b row resamples, of the
    smallest absolute value in its local effect multiset.

    A large score means every DAG compatible with the resampled data
    implies a strong effect.  Per-covariate failures inside a replicate
    (for example a sibling cap hit) are counted and excluded from the
    median; the full-data ambiguity is reported alongside.

    The full data and the b resamples run in groups of
    `pc._batch_size(p)`.  The full data and each resample's rows, drawn
    as indices, are reduced at once to their unchecked covariance
    (`gauss._finite_covariance`, which raises as it reduces a sample whose
    variance overflows), so no resample's rows outlive it.  A group's PC
    skeletons run in one `pc._pc_batch` call, and the local route's plans
    of all its graphs are solved in one `_betas` call, each reading its
    sample through its covariance.  Other errors are raised in the order
    full data then resamples.
    """
    if b < 1:
        raise ValueError("need at least one bootstrap replicate")
    mods = _check_mods(mods)
    rngs = (np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(b))
    rows = itertools.chain([slice(None)], (r.integers(0, d.n, size=d.n) for r in rngs))
    pending = (_finite_covariance(d.values[r], d.names) for r in rows)
    size, results = _batch_size(d.n_columns), []
    while group := list(itertools.islice(pending, size)):
        plans = []
        for result in _pc_batch(group, d.n, d.names, cfg):
            if isinstance(result, CausalSpanError):
                raise result
            cov, skeleton = result
            plan = _route_plan("local", _pc_result(*skeleton).graph, d.covariates, d.response,
                               mods, max_siblings, max_component_edges, DEFAULT_MAX_DAGS)
            plans.append((cov, d.response, plan))
        results += _finish_plans(plans)
    # One multiset or package error per covariate, for the full data and
    # each resample.
    full, *replicates = results
    scores = []
    for i, whole, reps in zip(d.covariates, full, zip(*replicates)):
        ok = [m for m in reps if isinstance(m, EffectMultiset)]
        score = statistics.median([m.min_abs() for m in ok]) if ok else math.nan
        ambiguity = whole.ambiguity() if isinstance(whole, EffectMultiset) else None
        ambiguities = tuple(m.ambiguity() for m in ok)
        scores.append(CovariateScore(i, float(score), ambiguity, ambiguities, b - len(ok)))
    return BootstrapScores(d.response, b, tuple(scores))
