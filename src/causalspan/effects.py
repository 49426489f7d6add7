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

Both routes run through one entry point, `_route_plan`, whose plan is
data: per covariate, its (adjustment set, multiplicity) entries, from the
class members or from sibling subsets, or the package error that ends
it.  `_finish_plans` alone solves plans, in one `_betas` call, and builds
each multiset.  Only `global_effects`, which returns every class member's
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
from typing import NamedTuple

import numpy as np

from .errors import CausalSpanError, NumericalRankError, ResourceCapError
from .gauss import CITestConfig, CovMatrix, Dataset, _betas, _finite_covariance
from .graphs import (
    DEFAULT_MAX_COMPONENT_EDGES,
    DEFAULT_MAX_DAGS,
    PDGraph,
    _bits,
    _check_vertex,
    _class_components,
    _class_members,
    _reach,
    allows_directed_path,
)
from .pc import PcResult, RepairResult, _batch_size, _pc_batch, _pc_result, repair_cpdag

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


class _Plan(NamedTuple):
    """The effects of a graph's covariates on y by one route, as data.

    For each covariate, `entries` holds either its entries in order, as
    (adjustment set, multiplicity) pairs with None for an effect forced to
    zero, or the package error that ends it.  `_finish_plans` solves the
    sets and tags each multiset with `method` and `mods`."""

    covariates: tuple[int, ...]
    y: int
    method: str
    mods: frozenset[str]
    entries: list[list[tuple[tuple[int, ...] | None, int]] | CausalSpanError]

    def requests(self) -> list[tuple[int, tuple[int, ...]]]:
        """The regressions (i, s) the plan needs, in entry order."""
        return [(i, s) for i, entries in zip(self.covariates, self.entries)
                if not isinstance(entries, CausalSpanError) for s, _ in entries if s is not None]


def _finish_plans(
    plans: list[tuple[Dataset | CovMatrix | None, _Plan]],
) -> list[list[EffectMultiset | CausalSpanError]]:
    """Each (source, plan) finished on source, in plan order: per
    covariate, its multiset, the plan's error for it, or the first
    NumericalRankError among its regressions in entry order.  All requests
    are solved in one `_betas` call over the distinct sources, so a batch
    of graphs and one graph take the same path.  A plan with no requests
    reads no source, so its source may be None."""
    index: dict[int, int] = {}
    sources, requests = [], []
    for source, plan in plans:
        asked = plan.requests()
        if asked:
            m = index.setdefault(id(source), len(sources))
            if m == len(sources):
                sources.append(source)
            requests += [(m, i, s, plan.y) for i, s in asked]
    solved = iter(_betas(sources, requests))
    out = []
    for _, plan in plans:
        finished: list[EffectMultiset | CausalSpanError] = []
        for i, entries in zip(plan.covariates, plan.entries):
            if isinstance(entries, CausalSpanError):
                finished.append(entries)
                continue
            values = [0.0 if s is None else next(solved) for s, _ in entries]
            error = next((v for v in values if isinstance(v, NumericalRankError)), None)
            finished.append(error or EffectMultiset(
                i, plan.y, tuple(EffectEntry(v, s, m) for v, (s, m) in zip(values, entries)),
                plan.method, plan.mods,
            ))
        out.append(finished)
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
    """The global route's plan for g.  A covariate's entries group the
    members of g's equivalence class by adjustment set, in order of first
    member in `enumerate_dags` order, with multiplicities counting
    members, so each distinct set is solved once per covariate.  The
    class's cap error is raised here.

    The adjustment set is the member's parents of i, under `prune_y` only
    those in y's skeleton component.  Without `zero_path` they depend
    only on the orientations of i's undirected component, so the entries
    come from that component alone: each of its orientations stands for
    the members that combine it with any orientation of the others.  Under
    `zero_path` a member in which i is not an ancestor of y gets None and
    the effect 0.0, which needs the members themselves.  `classes`, when
    given, holds the `_class_components` of graphs already listed, keyed
    by (graph, caps); g's are read from it or added.
    """
    mods = _check_mods(mods)
    _check_vertex(g, y, "response")
    for i in covariates:
        _check_covariate(g, i, y)
    classes = {} if classes is None else classes
    key = (g, max_component_edges, max_dags)
    if key not in classes:
        try:
            classes[key] = _class_components(g, max_component_edges, max_dags)
        except ResourceCapError as e:
            raise ResourceCapError(
                f"{e}; the local route avoids enumeration and scales further"
            ) from None
    comps = classes[key]
    if MOD_ZERO_PATH in mods:
        counts = [collections.Counter(row) for row in _member_rows(g, comps, covariates, y, mods)]
    else:
        keep = _keep(g, y, mods)
        size = math.prod(len(c.orientations) for c in comps)
        where = {v: c.orientations for c in comps for v in c.vertices}
        counts = []
        for i in covariates:
            # A vertex outside every component has g's parents in all members.
            own = where.get(i, [g._pa])
            each = size // len(own)
            seen = collections.Counter([pa[i] & keep for pa in own])
            counts.append({k: m * each for k, m in seen.items()})
    entries = [[(_adjustment(k), m) for k, m in c.items()] for c in counts]
    return _Plan(covariates, y, "global", mods, entries)


def _check_covariate(g: PDGraph, i: int, y: int) -> None:
    _check_vertex(g, i, "covariate")
    if i == y:
        raise ValueError("covariate and response must differ")


def _keep(g: PDGraph, y: int, mods: frozenset[str]) -> int:
    """The vertices an adjustment set may hold: under `prune_y` y's
    skeleton component, else all."""
    return _reach(g._adjacency(), 1 << y) if MOD_PRUNE_Y in mods else (1 << g.n) - 1


def _adjustment(key: int | None) -> tuple[int, ...] | None:
    return None if key is None else tuple(_bits(key))


def _member_rows(
    g: PDGraph, comps: list, covariates: tuple[int, ...], y: int, mods: frozenset[str]
) -> list[list[int | None]]:
    """For each covariate, its adjustment set's mask in each member of the
    class `comps` describes, in `enumerate_dags` order; None under
    `zero_path` where i is not an ancestor of y."""
    members = _class_members(g, comps)
    keep = _keep(g, y, mods)
    rows = [[pa[i] & keep for pa in members] for i in covariates]
    if MOD_ZERO_PATH in mods:
        ancestors = [_reach(pa, 1 << y) for pa in members]
        rows = [[k if a >> i & 1 else None for k, a in zip(row, ancestors)]
                for i, row in zip(covariates, rows)]
    return rows


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
    classes: dict = {}
    plan = _theta_plan(g, covariates, y, mods, max_component_edges, max_dags, classes)
    (comps,) = classes.values()
    # The class sets the column count, also when there are no covariates.
    columns = math.prod(len(c.orientations) for c in comps)
    rows = tuple(tuple(map(_adjustment, row))
                 for row in _member_rows(g, comps, covariates, y, plan.mods))
    values = [{e.adjustment: e.value for e in m.entries} for m in _solved(source, plan)]
    matrix = np.array([list(map(v.__getitem__, row)) for v, row in zip(values, rows)], dtype=float)
    return ThetaMatrix(covariates, y, matrix.reshape(len(rows), columns), rows, plan.mods)


def _local_plan(
    g: PDGraph,
    covariates: tuple[int, ...],
    y: int,
    mods: frozenset[str] | tuple[str, ...],
    max_siblings: int,
    max_component_edges: int,
    max_dags: int,
) -> _Plan:
    """The local route's plan for g: each covariate's entries, one per
    adjustment set with multiplicity 1, or the package error it would
    raise while planning (a sibling cap, or a cap on the class that
    `zero_path` asks).  g's adjacency masks, y's component and, under
    `zero_path`, g's class (`allows_directed_path`) are built once."""
    mods = _check_mods(mods)
    _check_vertex(g, y, "response")
    adj = g._adjacency()
    keep = _keep(g, y, mods)

    def entries(i: int) -> list[tuple[tuple[int, ...] | None, int]]:
        """i's entries, or the zero effect alone when `zero_path` finds no
        directed path from i to y."""
        _check_covariate(g, i, y)
        if MOD_ZERO_PATH in mods and not allows_directed_path(
            g, i, y, max_component_edges, max_dags
        ):
            return [(None, 1)]
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
        return [(tuple(_bits(pa | s)), 1) for s in cliques]

    planned: list[list[tuple[tuple[int, ...] | None, int]] | CausalSpanError] = []
    for i in covariates:
        try:
            planned.append(entries(i))
        except CausalSpanError as e:
            planned.append(e)
    return _Plan(covariates, y, "local", mods, planned)


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
    """The covariates' effects on g by one route, as a plan that
    `_finish_plans` turns into each covariate's multiset or the package
    error that ends it.  The local route is `_local_plan`; the global
    route is `_theta_plan` (reading or adding g's components in
    `classes`), and each of its multisets equals `global_effects(...)
    .row_multiset(i)`.  A package error raised while planning the global
    route, such as a cap on the class, is every covariate's entry."""
    if method == "local":
        return _local_plan(g, covariates, y, mods, max_siblings, max_component_edges, max_dags)
    if method != "global":
        raise ValueError("method must be 'global' or 'local'")
    try:
        return _theta_plan(g, covariates, y, mods, max_component_edges, max_dags, classes)
    except CausalSpanError as e:
        return _Plan(covariates, y, "global", frozenset(mods), [e] * len(covariates))


def _planned_graph(
    res: PcResult, method: str, mods: frozenset[str], seed: int
) -> tuple[PDGraph, RepairResult | None]:
    """The graph a route's plan reads from a PC estimate, and its repair:
    `pc.repair_cpdag(res, seed)` when res is not a valid CPDAG and the
    plan asks the class (the global route, and the local one under
    `zero_path`), else res's own graph and None."""
    if (method == "global" or MOD_ZERO_PATH in mods) and not res.validation.is_valid:
        rep = repair_cpdag(res, seed=seed)
        return rep.graph, rep
    return res.graph, None


def _solved(source: Dataset | CovMatrix, plan: _Plan) -> list[EffectMultiset]:
    """The multisets of a `_route_plan` finished on source, or the first
    covariate's package error raised."""
    (out,) = _finish_plans([(source, plan)])
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
    return _solved(source, plan)[0]


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
    _check_vertex(g, i, "covariate")
    members = _class_members(g, _class_components(g, max_component_edges, max_dags))
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
    of all its graphs (repaired with seed where `_planned_graph` says) are
    solved in one `_betas` call, each reading its sample through its
    covariance.  Other errors are raised in the order full data then
    resamples.
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
            g, _ = _planned_graph(_pc_result(*skeleton), "local", mods, seed)
            plan = _route_plan("local", g, d.covariates, d.response, mods, max_siblings,
                               max_component_edges, DEFAULT_MAX_DAGS)
            plans.append((cov, plan))
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
