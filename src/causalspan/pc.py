"""Estimation of the completed partially directed graph from data.

The skeleton search keeps adjacency as one boolean (matrices, p, p)
array and tests conditional independence level by level against the
adjacency at the start of each level, so results do not depend on
incidental edge-removal order within a level.  That snapshot also fixes
every pair's conditioning sets before the level runs, so each level is
solved in two phases (first the pairs (i, j) with i < j, then the pairs
(j, i) whose edge survived); within a phase the pairs' sets stream into
stacks of a fixed number of blocks that span pairs, and a pair stops at
the stack holding its first independent or singular set.  The search
runs on a batch of correlation matrices that share n and p (`_skeletons`;
`estimate_skeleton` is its batch of one), whose (matrix, i, j) items
share each phase's stacks, so a simulation's replicates or a bootstrap's
resamples fill stacks that each would leave nearly empty alone; both run
their samples' first stage as one call (`_pc_batch`), from the unchecked
covariances through one checked matrix pass to the skeletons.  A phase
is array work (`_level_stops`), and `gauss._stack_verdicts` decides each
stack, every row by its own matrix's eigenvalue floor, with the exact
inverse's verdicts.  The verdicts are read back as one test at a time
would meet them, so tests, separating sets and errors are those of that
order, with a Python step only per stack, per matrix and level, and per
removed edge; a singular stop ends only its own matrix's search.
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
    _sample_matrices,
    _stack_verdicts,
    bic_score,
    correlation_matrix,
)
from .graphs import (
    CpdagValidation,
    PDGraph,
    _colliders,
    _orient_colliders,
    cpdag_from_dag,
    extend_to_dag,
    meek_closure,
    validate_cpdag,
)

# Partial correlations at or below this magnitude count as zero when
# testing against a population covariance.
POPULATION_RHO_TOL = 1e-9

# Blocks per stacked solve, across pairs and matrices; fixed, so memory
# stays bounded however many pairs and sets a level has.  With no Python
# step per set, each stack's fixed cost (a dozen numpy calls) is what is
# left to amortise; 4096 blocks of k x k floats take 32 k^2 KB (3.2 MB at
# level 8).
_STACK = 4096

# Candidates `repair_cpdag` examines in its exact searches: sides of the
# conflicted edges in stage 1, subsets of collider triples in stage 2.
_REPAIR_SEARCH_CAP = 4096

SepsetTable = dict[tuple[int, int], tuple[int, ...]]

# The rows of a phase's item table (one column per item (matrix, i, j)):
# the matrix, i and j, where i's neighbours start in the level's flat
# neighbour list, j's place among them, and d, their number less one, so
# the item's sets are the combinations of range(d) with j's place skipped.
_M, _I, _J, _START, _SKIP, _D = range(6)


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


# A skeleton: the graph, its separating sets and the search's counters.
_Skeleton = tuple[PDGraph, SepsetTable, PcDiagnostics]


def _batch_size(p: int) -> int:
    """Matrices of p columns per `_skeletons` call: as many as keep the
    level-0 stack, every matrix's p(p - 1)/2 pairs, within _STACK rows, or
    one matrix when its pairs alone pass that.  So a batch holds only a
    few p x p matrices, and at large p it is the search of one matrix."""
    return max(1, _STACK // max(1, p * (p - 1) // 2))


def _gather(
    values: np.ndarray, floors: np.ndarray, matrix: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of a stack for `_stack_verdicts`, and their floors: row r
    is the block idx[r] x idx[r] of matrix[r] in the (M, p, p) stack
    `values`, read through one flat offset per cell."""
    p = values.shape[1]
    cells = (matrix[:, None] * p + idx)[:, :, None] * p + idx[:, None, :]
    return values.take(cells), floors.take(matrix)


def _marginal_verdicts(values: np.ndarray, floors: np.ndarray, rule: _Rule) -> np.ndarray:
    """Level-0 verdicts (see `_stack_verdicts`) of the (M, p, p) stack
    `values` as an (M, p, p) int8 array: the verdict of the pair (i, j),
    i < j, of matrix m at [m, i, j], zeros elsewhere.  One stack holds
    every pair's 2 x 2 block, gathered by fancy indexing with no flat
    index as large as the blocks: at large p this stack is the skeleton's
    largest.  The floors are a broadcast view, no copy, when M is 1."""
    size, p = values.shape[:2]
    verdicts = np.zeros((size, p, p), dtype=np.int8)
    iu, ju = np.triu_indices(p, 1)
    pair = np.stack([iu, ju], axis=1)
    m = np.arange(size)[:, None, None, None]
    blocks = values[m, pair[:, :, None], pair[:, None, :]].reshape(-1, 2, 2)
    floor = np.broadcast_to(floors[:, None], (size, len(pair))).reshape(-1)
    verdicts[:, iu, ju] = _stack_verdicts(blocks, rule, floor).reshape(size, len(pair))
    return verdicts


class _Combinations:
    """The size-`size` combinations of range(d), d <= dmax, in
    lexicographic order: row r of d is `rows[base[d] + r]`, r < length[d].

    A d's rows are made on demand from `itertools.combinations`, at least
    twice as many as it had, and appended to the table, which keeps them
    for the level: a d's rows go only as far as some item reads them, and
    the rows it outgrew are at most as many as it holds."""

    def __init__(self, size: int, dmax: int):
        self.size = size
        self.base = np.zeros(dmax + 1, dtype=np.intp)
        if size == 1:
            # The rows of every d are the first d rows of range(dmax).
            self.rows = np.arange(dmax)[:, None]
            self.length = np.arange(dmax + 1)
        else:
            self.rows = np.empty((0, size), dtype=np.intp)
            self.length = np.zeros(dmax + 1, dtype=np.intp)

    def take(self, d: np.ndarray, rank: np.ndarray) -> np.ndarray:
        """Row rank[r] of the combinations of range(d[r]), for every r."""
        short = rank >= self.length[d]
        if short.any():
            need = np.zeros(len(self.length), dtype=np.intp)
            np.maximum.at(need, d[short], rank[short] + 1)
            grown = need.nonzero()[0]
            blocks, end = [self.rows], len(self.rows)
            lengths = zip(grown.tolist(), need[grown].tolist(), self.length[grown].tolist())
            for v, k, had in lengths:
                made = itertools.combinations(range(v), self.size)
                made = itertools.islice(made, max(k, 2 * had))
                block = np.fromiter(itertools.chain.from_iterable(made), dtype=np.intp)
                blocks.append(block.reshape(-1, self.size))
                self.base[v], self.length[v] = end, len(blocks[-1])
                end += len(blocks[-1])
            self.rows = np.concatenate(blocks)
        return self.rows.take(self.base[d] + rank, axis=0)


def _level_stops(
    values: np.ndarray,
    floors: np.ndarray,
    items: np.ndarray,
    counts: np.ndarray,
    neighbours: np.ndarray,
    sets: _Combinations,
    rule: _Rule,
) -> list[tuple[np.ndarray, ...]]:
    """The items whose sets include an independent or singular one, in
    matrix m of the (M, p, p) stack `values`: for each stack that stopped
    some, in item order, their columns in `items`, the dependent sets read
    before the first such set, that set and whether its block is singular.

    Column t of `items` is an item (see `_M` ... `_D`) with counts[t] sets:
    the size-`sets.size` combinations of its matrix's neighbours of i
    without j, read from the flat list `neighbours`, in lexicographic
    order.  The items' sets stream, item after item, into stacks of at
    most _STACK blocks, and an item cut by the end of a stack goes on into
    the next one only if the stack did not stop it.  A stack's rows are a
    range of stream offsets: `searchsorted` on the items' cumulative counts
    gives each row its item and its set's rank, `sets` the rank's
    positions, and one comparison skips j's place.  `_stack_verdicts`
    decides every row by its matrix's entry of `floors`, and each stop
    compared with the one before marks each item's first.  So a stack
    takes a fixed number of numpy calls, none per item or per set.
    """
    # Exact in int64: a level's items have at most p - 2 times the sets of
    # items that the level below solved in full (C(d - 1, l) <= (d - 1)
    # C(d - 1, l - 1), and every edge left was solved both ways), so a
    # phase's offsets wrap only past 2^63 / p solved blocks.
    ends = counts.cumsum()
    starts = ends - counts
    total = int(ends[-1]) if len(ends) else 0
    found = []
    lo = 0
    while lo < total:
        hi = min(lo + _STACK, total)
        rank = np.arange(lo, hi)
        item = ends.searchsorted(rank, "right")
        rank -= starts[item]
        idx = np.empty((hi - lo, sets.size + 2), dtype=np.intp)
        idx[:, :2] = items[_I : _J + 1, item].T
        # The set's positions among i's neighbours, past j's place, then
        # the neighbours themselves.
        pos = idx[:, 2:]
        pos[...] = sets.take(items[_D][item], rank)
        pos += pos >= items[_SKIP][item][:, None]
        pos += items[_START][item][:, None]
        pos[...] = neighbours.take(pos)
        blocks, floor = _gather(values, floors, items[_M][item], idx)
        verdicts = _stack_verdicts(blocks, rule, floor)
        stop = verdicts.nonzero()[0]
        if stop.size:
            # The first stop of each item: the stops whose item differs
            # from the one before.
            at = item[stop]
            first = at != np.concatenate([[-1], at[:-1]])
            stop, at = stop[first], at[first]
            found.append((at, rank[stop], idx[stop, 2:], verdicts[stop] == 2))
            # The last item, cut by the end of the stack, does not go on
            # into the next one when this one stopped it.
            if at[-1] == item[-1]:
                hi = int(ends[at[-1]])
        lo = hi
    return found


def _skeletons(
    corrs: list[CovMatrix | CausalSpanError], cfg: CITestConfig
) -> list[_Skeleton | CausalSpanError]:
    """`estimate_skeleton` on each correlation matrix of a batch that
    shares n and p, or the error it raises; an error in `corrs` (a
    correlation that could not be made) is passed through.

    The matrices run level by level together on one boolean (M, p, p)
    adjacency array.  Level 0 is one stack of every matrix's pairs i < j;
    above it each phase streams the items (matrix, i, j) of every matrix
    into the same stacks (see `_level` and `_level_stops`), so a batch of
    small problems fills stacks that one problem alone would leave nearly
    empty.  Every item reads only its own matrix's blocks and floor, so
    each result, error and counter is the one the matrix gets alone.  A
    matrix whose level stops on a singular block leaves the batch with
    that error (its adjacency is cleared, so it makes no more items), and
    the others go on.  Python runs per level and matrix and per removed
    edge.  Callers pass at most `_batch_size(p)` matrices at a time, which
    keeps the level-0 stack and the stacked matrices small.
    """
    out: list[_Skeleton | CausalSpanError] = list(corrs)
    live = [m for m, c in enumerate(corrs) if isinstance(c, CovMatrix)]
    if not live:
        return out
    mats = [corrs[m] for m in live]
    n, p = mats[0].n, mats[0].n_columns
    if any(c.n != n or c.n_columns != p for c in mats):
        raise ValueError("a batch's matrices must share n and the column count")
    # A batch of one is read in place, not copied: at large p the copy
    # would be as large as the matrix.
    values = mats[0].values[None] if len(mats) == 1 else np.stack([c.values for c in mats])
    floors = np.array([c._eigen_floor for c in mats])
    adj = np.ones((len(mats), p, p), dtype=bool)
    adj[:, np.arange(p), np.arange(p)] = False
    sepsets: list[SepsetTable] = [{} for _ in mats]
    diags = [PcDiagnostics() for _ in mats]
    errors: dict[int, CausalSpanError] = {}
    level = 0
    while True:
        degrees = adj.sum(axis=2)
        if degrees.max(initial=0) <= level:
            break
        if n is not None and n - level - 3 < 1:
            for diag, row in zip(diags, degrees.tolist()):
                diag.skipped_insufficient_n += sum(d * math.comb(d - 1, level) for d in row if d)
            level += 1
            continue
        # Neither rule calls a NaN (a singular block) dependent, so a
        # singular block stops its pair like an independent one.
        rule = _POPULATION_RULE if n is None else _fisher_z_rule(n, level, cfg.alpha)
        if level == 0:
            # Every pair (i, j) with i < j is read, and each stops on its
            # one set or not; the pair (j, i) is read only if (i, j) did
            # not stop, and then its mirrored verdict cannot stop it.  The
            # matrix is exactly symmetric, so the block (j, i) equals (i, j).
            verdicts = _marginal_verdicts(values, floors, rule)
            tests = []
            for m, square in enumerate(verdicts):
                iu, ju = np.nonzero(square)
                tests.append(p * (p - 1) - len(iu))
                singular = np.flatnonzero(square[iu, ju] == 2)
                if singular.size:
                    i, j = int(iu[singular[0]]), int(ju[singular[0]])
                    errors[m] = NumericalRankError(
                        f"correlation submatrix for ({i}, {j} | ()) is singular"
                    )
                    continue
                sepsets[m].update(dict.fromkeys(zip(iu.tolist(), ju.tolist()), ()))
            adj &= (verdicts | verdicts.transpose(0, 2, 1)) == 0
        else:
            tests, stops = _level(values, floors, adj, degrees, level, rule)
            for key, u, s, bad in stops:
                m, (i, j) = key // (p * p), divmod(key % (p * p), p)
                if m in errors:
                    continue
                if bad:
                    errors[m] = NumericalRankError(
                        f"correlation submatrix for ({i}, {j} | {tuple(s)}) is singular"
                    )
                    continue
                tests[m] -= u
                adj[m, i, j] = adj[m, j, i] = False
                sepsets[m][(i, j) if i < j else (j, i)] = tuple(s)
        for m, t in enumerate(tests):
            if m in errors:
                adj[m] = False
            elif t:
                diags[m].tests_per_level[level] = t
        level += 1
    zeros = [0] * p
    masks = np.packbits(adj, axis=2, bitorder="little")
    for m, c in enumerate(live):
        sib = [int.from_bytes(row.tobytes(), "little") for row in masks[m]]
        graph = PDGraph._from_masks(zeros, zeros, sib)
        out[c] = errors[m] if m in errors else (graph, sepsets[m], diags[m])
    return out


def _pc_batch(
    covariances: list[np.ndarray], n: int, names: tuple[str, ...], cfg: CITestConfig
) -> list[tuple[CovMatrix, _Skeleton] | CausalSpanError]:
    """PC's skeleton stage on a batch of at most `_batch_size(p)` samples
    that share n and the column names, from each sample's unchecked
    covariance (`gauss._covariance_values`): one checked pass over their
    matrices (`gauss._sample_matrices`, which raises the first check's
    ValueError) and one `_skeletons` call on their correlations.  Each
    sample gives its checked covariance and skeleton, or the error that
    ends it: the DegenerateDataError of a sample whose matrices were not
    made, or its skeleton's NumericalRankError."""
    samples = _sample_matrices(covariances, n, names)
    skeletons = _skeletons([s if isinstance(s, CausalSpanError) else s[1] for s in samples], cfg)
    return [k if isinstance(k, CausalSpanError) else (s[0], k) for s, k in zip(samples, skeletons)]


def _level(
    values: np.ndarray,
    floors: np.ndarray,
    adj: np.ndarray,
    degrees: np.ndarray,
    level: int,
    rule: _Rule,
) -> tuple[list[int], list[tuple[int, int, list[int], bool]]]:
    """The two phases of a level above 0 of `_skeletons` on the (M, p, p)
    adjacency `adj` at the level's start, whose degrees are `degrees`.
    Returns each matrix's tests if no item stopped (every ordered pair
    reads all its sets), and the stopped items in search order: the flat
    offset (m p + i) p + j of each item (m, i, j), the sets it left unread
    (those after its stop and, in the first phase, all of its mirror's),
    its stopping set and whether that set's block is singular.

    The level's directed edges (m, i, j), in the order of their flat
    offsets in `adj`, make its flat neighbour list, in which row (m, i)
    holds i's neighbours.  The first phase's items are the edges with
    i < j; the second phase's are the mirrors (m, j, i), found by
    `searchsorted` on the edges' offsets, of the first phase's items that
    did not stop.
    """
    p = adj.shape[1]
    keys = adj.ravel().nonzero()[0]
    rows, vj = np.divmod(keys, p)
    owner, vi = np.divmod(rows, p)
    flat = degrees.ravel()
    d = flat[rows]
    start = flat.cumsum()[rows] - d
    dmax = int(flat.max())
    # Exact in int64 (see `_level_stops`); d = 0 has no sets.
    combs = np.array([0] + [math.comb(k - 1, level) for k in range(1, dmax + 1)])
    items = np.array([owner, vi, vj, start, np.arange(len(vj)) - start, d - 1])
    counts = combs[d]
    sets = _Combinations(level, dmax - 1)
    first = (vi < vj).nonzero()[0]
    # The mirror of the edge at offset (m p + i) p + j is at (m p + j) p + i.
    mirror = keys.searchsorted(keys[first] + (vj[first] - vi[first]) * (p - 1))
    counts1 = counts[first]
    found1 = _level_stops(values, floors, items[:, first], counts1, vj, sets, rule)
    kept = np.ones(len(first), dtype=bool)
    for at, *_ in found1:
        kept[at] = False
    second = mirror[kept]
    counts2 = counts[second]
    found2 = _level_stops(values, floors, items[:, second], counts2, vj, sets, rule)
    # A stopped item leaves unread the sets after its stop and, in the
    # first phase, every set of its mirror.
    stops = []
    phases = ((first, counts1 + counts[mirror], found1), (second, counts2, found2))
    for phase, total, found in phases:
        for at, read, s, bad in found:
            unread = total[at] - read - 1
            stops += zip(keys[phase[at]].tolist(), unread.tolist(), s.tolist(), bad.tolist())
    stops.sort()
    return (degrees * combs[degrees]).sum(axis=1).tolist(), stops


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
    adjacency set is large enough.  Adjacency is a boolean p x p array,
    and the returned graph holds it as vertex bitmasks, as in `graphs`.

    The snapshot fixes every pair's sets before the level runs, so a level
    is solved in two phases of stacks across pairs: first the pairs (i, j)
    with i < j, which the search always reaches, then the pairs (j, i)
    whose edge survived the first phase (level 0 needs only the first,
    one stack of 2 x 2 blocks).  Within a phase the pairs' sets stream into
    stacks of at most _STACK blocks, and a pair stops at the stack holding
    its first independent or singular set; numpy builds and decides each
    stack and finds each pair's first stop (see `_level_stops`).  This is
    the batch of one of `_skeletons`.

    The results are those of reading the verdicts in the order above (i,
    then j, then the sets), but only the removed edges are read back, in
    that order.  A singular stop raises when it is the first one in that
    order.  `tests_per_level` counts every set of every pair read, less
    the sets after each stop, and the pair (j, i), j > i, is not read when
    (i, j) stopped.

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
    (skeleton,) = _skeletons([corr], cfg)
    if isinstance(skeleton, CausalSpanError):
        raise skeleton
    return skeleton


def _collider_triples(skeleton: PDGraph, sepsets: SepsetTable) -> list[tuple[int, int, int]]:
    """Sorted triples (i, j, k), i < k, with i - j - k, i and k nonadjacent
    and j outside the recorded separating set of (i, k): the colliders of
    `graphs._colliders` with every neighbour taken as a parent."""
    adj = skeleton._adjacency()
    return sorted(t for t in _colliders(adj, adj) if t[1] not in sepsets.get((t[0], t[2]), ()))


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
    return _pc_result(*estimate_skeleton(source, cfg))


def _pc_result(skeleton: PDGraph, sepsets: SepsetTable, diag: PcDiagnostics) -> PcResult:
    """`pc_cpdag` from its skeleton: collider orientation, Meek closure
    and validation."""
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
    scoreable DAG get an infinite score; a covariance that cannot be made
    (`sample_covariance`'s error) fails every alpha alike and is raised,
    and so is the first alpha's package error when every alpha fails.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("need at least one alpha")
    d.covariance  # raises when the covariance cannot be made
    scores: dict[float, float] = {}
    errors: list[CausalSpanError] = []
    for a in alphas:
        try:
            g = repair_cpdag(pc_cpdag(d, CITestConfig(a)), seed=seed).graph
            dag = extend_to_dag(g)
            if dag is None:
                scores[a] = float("inf")
                continue
            scores[a] = bic_score(d, dag)
        except CausalSpanError as e:
            scores[a] = float("inf")
            errors.append(e)
    if errors and min(scores.values()) == float("inf"):
        raise errors[0]
    best = min(sorted(alphas), key=lambda a: (scores[a], a))
    return best, scores
