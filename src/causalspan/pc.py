"""Estimation of the completed partially directed graph from data.

The skeleton search keeps adjacency as vertex bitmasks, as `graphs` does,
and tests conditional independence level by level against a snapshot of
them taken at the start of each level, so results do not depend on
incidental edge-removal order within a level.  The snapshot also fixes
every pair's conditioning sets before the level runs, so each level is
solved in two phases (first the pairs (i, j) with i < j, then the pairs
(j, i) whose edge survived); within a phase the pairs' sets stream into
stacks of a fixed number of blocks that span pairs, and a pair stops at
the stack holding its first independent or singular set.  numpy builds
each stack, and `gauss._stack_verdicts` decides it: when the correlation
matrix's eigenvalues vouch for all of its principal blocks at once (see
`CovMatrix`), by partial correlations from Gaussian elimination with an
error bound, sending to the exact solve only the blocks whose |rho| is
within that bound of the test's threshold band (a stack whose bound is
too wide takes it whole); otherwise, as with n < p, duplicated or
collinear columns or a near-singular population matrix, by the exact
solve of every block, each with its own SVD singularity check.  Either
way every verdict is the one the exact inverse gets, and no Python step
runs per conditioning set.  The verdicts are then read back as one test
at a time would meet them, so tests, separating sets and errors are
those of that order, with a Python step only per removed edge.
Collider orientation walks candidate triples in lexicographic order and
lets later triples overwrite earlier arrowheads; every overwrite is
recorded, because on finite samples the oriented graph can fail to admit
a consistent extension.  `repair_cpdag` restores validity in three
escalating stages.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import CausalSpanError, NumericalRankError
from .gauss import (
    CITestConfig,
    CovMatrix,
    Dataset,
    _fisher_z_rule,
    _Rule,
    _stack_verdicts,
    bic_score,
    correlation_matrix,
)
from .graphs import (
    CpdagValidation,
    PDGraph,
    _bits,
    _orient_colliders,
    cpdag_from_dag,
    extend_to_dag,
    meek_closure,
    validate_cpdag,
)

# Partial correlations at or below this magnitude count as zero when
# testing against a population covariance.
POPULATION_RHO_TOL = 1e-9

# Blocks per stacked solve, across pairs; fixed, so memory stays bounded
# however many pairs and sets a level has.  With no Python step per set,
# each stack's fixed cost (a dozen numpy calls) is what is left to
# amortise; 4096 blocks of k x k floats take 32 k^2 KB (3.2 MB at level 8).
_STACK = 4096

# Candidates `repair_cpdag` examines in its exact searches: sides of the
# conflicted edges in stage 1, subsets of collider triples in stage 2.
_REPAIR_SEARCH_CAP = 4096

SepsetTable = dict[tuple[int, int], tuple[int, ...]]

# A level's stopped pairs: (i, j) -> (dependent sets read before the
# stopping set, that set, whether its block is singular).
_Stops = dict[tuple[int, int], tuple[int, tuple[int, ...], bool]]


@dataclass
class PcDiagnostics:
    """Counters and event logs from a PC run."""

    tests_per_level: dict[int, int] = field(default_factory=dict)
    skipped_insufficient_n: int = 0
    overwrites: list[dict] = field(default_factory=list)
    candidate_triples: list[tuple[int, int, int]] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "tests_per_level": {str(k): v for k, v in sorted(self.tests_per_level.items())},
            "skipped_insufficient_n": self.skipped_insufficient_n,
            "collider_overwrites": self.overwrites,
            "candidate_colliders": [list(t) for t in self.candidate_triples],
        }


@dataclass
class PcResult:
    """Estimated graph plus everything needed to audit or repair it."""

    graph: PDGraph
    sepsets: SepsetTable
    diagnostics: PcDiagnostics
    validation: CpdagValidation


def _population_dependent(rho: float) -> bool:
    return abs(rho) > POPULATION_RHO_TOL


# The population test calls dependent exactly the |rho| above its bound,
# and independent every |rho| below it.
_POPULATION_RULE = _Rule(_population_dependent, POPULATION_RHO_TOL, POPULATION_RHO_TOL)


def _marginal_verdicts(corr: CovMatrix, rule: _Rule, floor: float) -> np.ndarray:
    """Level-0 verdicts of every pair (see `_stack_verdicts`) as a p x p
    int8 matrix, from one stack of the 2 x 2 blocks (i, j) with i < j;
    the matrix is exactly symmetric, so the block (j, i) equals (i, j) and
    the result is mirrored."""
    p = corr.n_columns
    verdicts = np.zeros((p, p), dtype=np.int8)
    iu, ju = np.triu_indices(p, 1)
    idx = np.stack([iu, ju], axis=1)
    blocks = corr.values[idx[:, :, None], idx[:, None, :]]
    verdicts[iu, ju] = verdicts[ju, iu] = _stack_verdicts(blocks, rule, floor)
    return verdicts


def _level_stops(
    corr: CovMatrix,
    pairs: Iterable[tuple[int, int]],
    neighbours: list[tuple[int, ...]],
    level: int,
    rule: _Rule,
    floor: float,
) -> _Stops:
    """The pairs (i, j) of `pairs` whose size-`level` subsets of
    neighbours[i] without j, in lexicographic order, include an independent
    or singular one: (i, j) -> (dependent sets before it, the set, whether
    it is singular).

    The pairs' sets stream, pair after pair, into stacks of at most _STACK
    blocks, and a pair cut by the end of a stack goes on into the next one
    only if the stack did not stop it: it solves its sets up to the end of
    the stack holding its first stop, and no list of the level's sets is
    built.  Each stack takes a fixed number of numpy calls: `repeat` makes
    the pair columns and `fromiter` the set columns, from each pair's slice
    of `combinations`, and `_stack_verdicts` decides every row, given
    `floor`, the bound on the blocks' smallest eigenvalue (0.0 when the
    matrix does not vouch for them).  `list.index` then finds each pair's
    first stop.
    """
    stops: _Stops = {}
    pending = iter(pairs)
    # The pair the last stack cut: (pair, its sets, sets solved, sets in all).
    cut = None
    while True:
        if cut is not None and cut[0] in stops:
            cut = None
        segments: list[tuple[tuple[int, int], int, int]] = []
        slices = []
        rows = 0
        while rows < _STACK:
            if cut is None:
                if (pair := next(pending, None)) is None:
                    break
                i, j = pair
                k = neighbours[i].index(j)
                nb = neighbours[i][:k] + neighbours[i][k + 1 :]
                cut = (pair, itertools.combinations(nb, level), 0, math.comb(len(nb), level))
            pair, sets, done, total = cut
            take = min(total - done, _STACK - rows)
            if take:
                segments.append((pair, done, take))
                slices.append(itertools.islice(sets, take))
                rows += take
            cut = (pair, sets, done + take, total) if done + take < total else None
        if not rows:
            return stops
        idx = np.empty((rows, level + 2), dtype=np.intp)
        idx[:, :2] = np.array([seg[0] for seg in segments]).repeat(
            [seg[2] for seg in segments], axis=0
        )
        idx[:, 2:] = np.fromiter(
            itertools.chain.from_iterable(itertools.chain.from_iterable(slices)),
            dtype=np.intp,
            count=rows * level,
        ).reshape(rows, level)
        blocks = corr.values.take(idx[:, :, None] * corr.n_columns + idx[:, None, :])
        verdicts = _stack_verdicts(blocks, rule, floor)
        # A False at the end stops every search; `left` is the first stop
        # at or after the last search's start, which stays the answer for
        # every later start up to it.
        dependent = (verdicts == 0).tolist() + [False]
        left, end = -1, 0
        for pair, done, take in segments:
            start, end = end, end + take
            if left < start:
                left = dependent.index(False, start)
            if left < end:
                s = tuple(idx[left, 2:].tolist())
                stops[pair] = (done + left - start, s, verdicts.item(left) == 2)


def estimate_skeleton(
    source: Dataset | CovMatrix,
    cfg: CITestConfig = CITestConfig(),
) -> tuple[PDGraph, SepsetTable, PcDiagnostics]:
    """Level-wise conditional-independence search for the skeleton.

    Starts from the complete undirected graph.  At level l, every ordered
    adjacent pair (i, j) is tested against each size-l subset of the
    adjacency set of i (snapshotted at the start of the level, j excluded)
    in lexicographic order; on an independence verdict the edge goes and
    the separating set is recorded.  Stops at the first level at which no
    adjacency set is large enough.  Adjacency sets are vertex bitmasks, as
    in `graphs`.

    The snapshot fixes every pair's sets before the level runs, so a level
    is solved in two phases of stacks across pairs: first the pairs (i, j)
    with i < j, which the search always reaches, then the pairs (j, i)
    whose edge survived the first phase (level 0 needs only the first,
    one stack of 2 x 2 blocks).  Within a phase the pairs' sets stream into
    stacks of at most _STACK blocks, and a pair stops at the stack holding
    its first independent or singular set; numpy builds and decides each
    stack (see `_level_stops`).  When the correlation matrix's eigenvalues
    rule out a singular block, the stacks are decided from eliminated
    partial correlations, and only blocks near the threshold take the
    exact solve; otherwise every block takes it, with its own check.

    The results are those of reading the verdicts in the order above (i,
    then j, then the sets), but only the removed edges are read back, in
    that order: at level 0 the upper triangle of the verdict matrix,
    whose nonzero entries give the removed edges in bulk, at higher
    levels the sorted stopped pairs.  A singular stop raises when it is
    the first one in that order.  `tests_per_level` counts every set of
    every pair read, less the sets after each stop, and the pair (j, i),
    j > i, is not read when (i, j) stopped.

    Data or a finite-n covariance uses the z-transform test at cfg.alpha;
    a population covariance (n=None) declares independence when |rho| <=
    POPULATION_RHO_TOL.  When n - l - 3 < 1 every subset counts in
    `skipped_insufficient_n` and the edge stays.
    """
    if isinstance(source, Dataset):
        corr = correlation_matrix(source)
    elif isinstance(source, CovMatrix):
        corr = source.correlation()
    else:
        raise TypeError("source must be a Dataset or CovMatrix")
    n, p1 = corr.n, corr.n_columns
    # The eigenvalue bound on every block, when the matrix vouches for them.
    floor = corr._eigen_floor if corr._blocks_conditioned else 0.0
    diag = PcDiagnostics()
    adj = [(1 << p1) - 1 & ~(1 << i) for i in range(p1)]
    sepsets: SepsetTable = {}
    level = 0
    while True:
        snapshot = adj.copy()
        degree = [a.bit_count() for a in snapshot]
        if max(degree, default=0) <= level:
            break
        if n is not None and n - level - 3 < 1:
            diag.skipped_insufficient_n += sum(d * math.comb(d - 1, level) for d in degree if d)
            level += 1
            continue
        # Neither rule calls a NaN (a singular block) dependent, so a
        # singular block stops its pair like an independent one.
        rule = _POPULATION_RULE if n is None else _fisher_z_rule(n, level, cfg.alpha)
        if level == 0:
            # Every pair (i, j) with i < j is read, and each stops on its
            # one set or not; the pair (j, i) is read only if (i, j) did
            # not stop, and then its mirrored verdict cannot stop it.
            verdicts = _marginal_verdicts(corr, rule, floor)
            iu, ju = np.nonzero(np.triu(verdicts, 1))
            singular = np.flatnonzero(verdicts[iu, ju] == 2)
            if singular.size:
                i, j = int(iu[singular[0]]), int(ju[singular[0]])
                raise NumericalRankError(f"correlation submatrix for ({i}, {j} | ()) is singular")
            keep = verdicts == 0
            np.fill_diagonal(keep, False)
            adj = [int.from_bytes(row.tobytes(), "little")
                   for row in np.packbits(keep, axis=1, bitorder="little")]
            sepsets.update(dict.fromkeys(zip(iu.tolist(), ju.tolist()), ()))
            tests = p1 * (p1 - 1) - len(iu)
        else:
            neighbours = [tuple(_bits(a)) for a in snapshot]
            first = [(i, j) for i, nb in enumerate(neighbours) for j in nb if j > i]
            stops = _level_stops(corr, first, neighbours, level, rule, floor)
            second = ((j, i) for i, j in first if (i, j) not in stops)
            stops.update(_level_stops(corr, second, neighbours, level, rule, floor))
            # Every pair read tests all its sets unless it stops; a pair
            # (j, i) with j > i is not read when (i, j) stopped.
            sets = [math.comb(d - 1, level) if d else 0 for d in degree]
            tests = sum(d * c for d, c in zip(degree, sets))
            for i, j in sorted(stops):
                read, s, singular = stops[(i, j)]
                if singular:
                    raise NumericalRankError(
                        f"correlation submatrix for ({i}, {j} | {s}) is singular"
                    )
                tests += read + 1 - sets[i] - (sets[j] if i < j else 0)
                adj[i] &= ~(1 << j)
                adj[j] &= ~(1 << i)
                sepsets[(i, j) if i < j else (j, i)] = s
        if tests:
            diag.tests_per_level[level] = tests
        level += 1
    zeros = [0] * p1
    return PDGraph._from_masks(zeros, zeros, adj), sepsets, diag


def _collider_triples(skeleton: PDGraph, sepsets: SepsetTable) -> list[tuple[int, int, int]]:
    """Sorted triples (i, j, k), i < k, with i - j - k, i and k nonadjacent
    and j outside the recorded separating set of (i, k)."""
    adj = skeleton._adjacency()
    return sorted(
        (i, j, k)
        for j, m in enumerate(adj)
        for i in _bits(m)
        for k in _bits((m & ~adj[i]) >> i + 1 << i + 1)
        if j not in sepsets.get((i, k), ())
    )


def orient_v_structures(
    skeleton: PDGraph,
    sepsets: SepsetTable,
    diag: PcDiagnostics | None = None,
) -> PDGraph:
    """Orient collider triples on a skeleton.

    A triple (i, j, k) with i - j - k, i and k nonadjacent, and j outside
    the recorded separating set of (i, k) gets both arrowheads pointed at
    j.  Triples apply in lexicographic order and later triples overwrite
    earlier orientations; the triples and each overwrite are logged on
    `diag`.
    """
    if not skeleton.is_fully_undirected():
        raise ValueError("orient_v_structures expects an undirected skeleton")
    triples = _collider_triples(skeleton, sepsets)
    if diag is None:
        return _orient_colliders(skeleton._adjacency(), triples)
    diag.candidate_triples = triples
    return _orient_colliders(skeleton._adjacency(), triples, diag.overwrites)


def pc_cpdag(
    source: Dataset | CovMatrix,
    cfg: CITestConfig = CITestConfig(),
) -> PcResult:
    """Full pipeline: skeleton, collider orientation, Meek closure.

    Never fails on an incoherent sample graph; the attached validation
    report says whether the estimate can be used as a CPDAG directly or
    needs repair_cpdag first.
    """
    skeleton, sepsets, diag = estimate_skeleton(source, cfg)
    oriented = orient_v_structures(skeleton, sepsets, diag)
    closed = meek_closure(oriented)
    return PcResult(closed, sepsets, diag, validate_cpdag(closed))


@dataclass(frozen=True)
class RepairResult:
    """Outcome of repair_cpdag: the usable graph and the stage that made it."""

    graph: PDGraph
    stage: int
    detail: str


def repair_cpdag(result: PcResult, seed: int = 0) -> RepairResult:
    """Make a PC estimate usable as a CPDAG.

    Every rebuild orients the skeleton's collider triples less a drop set,
    closes the graph under Meek's rules and keeps it if it validates.
    Stage 0 returns the graph unchanged when it already validates.  Stage 1
    revisits the recorded collider conflicts: every way of deciding which
    side of each conflicted edge wins is retried, when there are at most
    _REPAIR_SEARCH_CAP ways; a decision drops every triple that would point
    a decided edge the other way.  Stage 2 drops candidate triples (those
    recorded on the diagnostics): it tries the subsets fewest first (in
    `combinations` order within a size), at most _REPAIR_SEARCH_CAP of
    them, and when that cap is used up without a valid graph it drops the
    first k candidates for k = 1, 2, ... in turn.  Stage 3 orients the
    skeleton along a seeded random vertex order and returns that DAG's
    CPDAG, which always validates.
    """
    if result.validation.is_valid:
        return RepairResult(result.graph, 0, "estimate already valid")
    skeleton = result.graph.skeleton()
    adj = skeleton._adjacency()
    triples = _collider_triples(skeleton, result.sepsets)

    def rebuild(dropped: Iterable[tuple[int, int, int]]) -> PDGraph | None:
        dropped = set(dropped)
        g = meek_closure(_orient_colliders(adj, [t for t in triples if t not in dropped]))
        return g if validate_cpdag(g).is_valid else None

    # stage 1: re-decide conflicted edges
    conflicted = list(
        dict.fromkeys(tuple(sorted(ev["new"])) for ev in result.diagnostics.overwrites)
    )
    if conflicted and 2 ** len(conflicted) <= _REPAIR_SEARCH_CAP:
        for mask in range(2 ** len(conflicted)):
            # bit 0 keeps u -> v, bit 1 keeps v -> u
            losing = {
                (v, u) if mask >> bit & 1 == 0 else (u, v)
                for bit, (u, v) in enumerate(conflicted)
            }
            dropped = [t for t in triples if (t[0], t[1]) in losing or (t[2], t[1]) in losing]
            if (g := rebuild(dropped)) is not None:
                return RepairResult(
                    g, 1, f"re-decided {len(conflicted)} conflicted edges"
                )

    # stage 2: drop collider triples, fewest first
    candidates = result.diagnostics.candidate_triples
    if not candidates and (g := rebuild(())) is not None:
        return RepairResult(g, 2, "no collider triples to drop")
    fewest_first = itertools.chain.from_iterable(
        itertools.combinations(candidates, k) for k in range(1, len(candidates) + 1)
    )
    examined = 0
    for dropped in itertools.islice(fewest_first, _REPAIR_SEARCH_CAP):
        examined += 1
        if (g := rebuild(dropped)) is not None:
            return RepairResult(g, 2, f"dropped {len(dropped)} collider triples")
    if examined == _REPAIR_SEARCH_CAP:
        for k in range(1, len(candidates) + 1):
            if (g := rebuild(candidates[:k])) is not None:
                return RepairResult(g, 2, f"greedily dropped {k} collider triples")

    # stage 3: random consistent orientation of the skeleton
    rng = np.random.default_rng(seed)
    order = rng.permutation(result.graph.n)
    rank = np.empty(result.graph.n, dtype=int)
    rank[order] = np.arange(result.graph.n)
    edges = []
    for u, v in sorted(skeleton.undirected_edges()):
        edges.append((u, v) if rank[u] < rank[v] else (v, u))
    dag = PDGraph(result.graph.n, directed=edges)
    return RepairResult(cpdag_from_dag(dag), 3, "random orientation of skeleton")


def bic_select_alpha(
    d: Dataset,
    alphas: Iterable[float],
    seed: int = 0,
) -> tuple[float, dict[float, float]]:
    """Pick the test level by BIC.

    Each alpha runs the full pipeline (repairing when needed), extends the
    graph to a DAG, fits it, and scores it; the alpha with the lowest BIC
    wins, ties going to the smaller alpha.  Alphas that fail to produce a
    scoreable DAG get an infinite score.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("need at least one alpha")
    scores: dict[float, float] = {}
    for a in alphas:
        try:
            res = pc_cpdag(d, CITestConfig(a))
            g = res.graph
            if not res.validation.is_valid:
                g = repair_cpdag(res, seed=seed).graph
            dag = extend_to_dag(g)
            if dag is None:
                scores[a] = float("inf")
                continue
            scores[a] = bic_score(d, dag)
        except CausalSpanError:
            scores[a] = float("inf")
    best = min(sorted(alphas), key=lambda a: (scores[a], a))
    return best, scores
