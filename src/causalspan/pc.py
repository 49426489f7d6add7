"""Estimation of the completed partially directed graph from data.

The skeleton search keeps adjacency as vertex bitmasks, as `graphs` does,
and tests conditional independence level by level against a snapshot of
them taken at the start of each level, so results do not depend on
incidental edge-removal order within a level.  The snapshot also fixes
every pair's conditioning sets before the level runs, so each level is
solved in two phases (first the pairs (i, j) with i < j, then the pairs
(j, i) whose edge survived); within a phase the pairs' sets stream into
stacks of a fixed number of blocks that span pairs, and a pair stops at
the stack holding its first independent or singular set.  The search
runs on a batch of correlation matrices that share n and p (`_skeletons`;
`estimate_skeleton` is its batch of one): the matrices go through the
levels together, and each phase streams the (matrix, i, j) items of all
of them into the same stacks, so many small problems, such as a
simulation's replicates or a bootstrap's resamples, fill stacks that each
would leave nearly empty alone.  A batch holds only as many matrices as
fit their level-0 pairs in one stack (`_batch_size`), so at large p it is
one matrix, and its memory is that of one search.  numpy builds each
stack, and `gauss._stack_verdicts` decides it, row by row from the row's
own matrix: when that matrix has a positive eigenvalue floor, a bound on
all of its principal blocks at once (`CovMatrix._eigen_floor`), by
partial correlations from Gaussian elimination with an error bound,
sending to the exact solve only the blocks whose |rho| is within that
bound of the test's threshold band (a block whose bound is too wide
takes it outright); otherwise, as with n < p, duplicated or collinear
columns or a near-singular population matrix, by the exact solve of
every block, each with its own SVD singularity check.  Either way every
verdict is the one the exact inverse gets, and no Python step runs per
conditioning set.  The verdicts are then read back as one test at a
time would meet them, so tests, separating sets and errors are those of
that order, with a Python step only per removed edge; a singular stop
ends only its own matrix's search.
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

# A level's stopped items: (matrix, i, j) -> (dependent sets read before
# the stopping set, that set, whether its block is singular).
_Stops = dict[tuple[int, int, int], tuple[int, tuple[int, ...], bool]]


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


def _marginal_verdicts(
    values: np.ndarray, floors: np.ndarray, batch: list[int], rule: _Rule
) -> np.ndarray:
    """Level-0 verdicts (see `_stack_verdicts`) of the matrices in `batch`
    as a (len(batch), p, p) int8 array: the verdict of the pair (i, j),
    i < j, of the b-th at [b, i, j], zeros elsewhere.  One stack holds
    every pair's 2 x 2 block, gathered by fancy indexing with no flat
    index as large as the blocks: at large p this stack is the skeleton's
    largest.  The floors are a broadcast view, no copy, when the batch is
    one matrix."""
    p = values.shape[1]
    verdicts = np.zeros((len(batch), p, p), dtype=np.int8)
    iu, ju = np.triu_indices(p, 1)
    pair = np.stack([iu, ju], axis=1)
    m = np.array(batch)[:, None, None, None]
    blocks = values[m, pair[:, :, None], pair[:, None, :]].reshape(-1, 2, 2)
    floor = np.broadcast_to(floors.take(batch)[:, None], (len(batch), len(pair))).reshape(-1)
    verdicts[:, iu, ju] = _stack_verdicts(blocks, rule, floor).reshape(len(batch), len(pair))
    return verdicts


def _level_stops(
    values: np.ndarray,
    items: Iterable[tuple[int, int, int]],
    neighbours: dict[int, list[tuple[int, ...]]],
    level: int,
    rule: _Rule,
    floors: np.ndarray,
) -> _Stops:
    """The items (m, i, j) whose size-`level` subsets of neighbours[m][i]
    without j, in lexicographic order, include an independent or singular
    one in matrix m of the (M, p, p) stack `values`: (m, i, j) -> (dependent
    sets before it, the set, whether it is singular).

    The items' sets stream, item after item, into stacks of at most _STACK
    blocks, whichever matrix they come from, and an item cut by the end of
    a stack goes on into the next one only if the stack did not stop it:
    it solves its sets up to the end of the stack holding its first stop,
    and no list of the level's sets is built.  Each stack takes a fixed
    number of numpy calls: `repeat` makes the item columns and `fromiter`
    the set columns, from each item's slice of `combinations`, `_gather`
    reads each row's block from its matrix, and `_stack_verdicts` decides
    every row, given its matrix's entry of `floors`, the matrix's
    `_eigen_floor`.  `list.index` then finds each item's first stop.
    """
    stops: _Stops = {}
    pending = iter(items)
    # The item the last stack cut: (item, its sets, sets solved, sets in all).
    cut = None
    while True:
        if cut is not None and cut[0] in stops:
            cut = None
        segments: list[tuple[tuple[int, int, int], int, int]] = []
        slices = []
        # The segments' items, flat, and their row counts: numpy reads a
        # flat list of ints far faster than a list of tuples.
        heads: list[int] = []
        takes: list[int] = []
        rows = 0
        while rows < _STACK:
            if cut is None:
                if (item := next(pending, None)) is None:
                    break
                m, i, j = item
                nb = neighbours[m][i]
                k = nb.index(j)
                nb = nb[:k] + nb[k + 1 :]
                cut = (item, itertools.combinations(nb, level), 0, math.comb(len(nb), level))
            item, sets, done, total = cut
            take = min(total - done, _STACK - rows)
            if take:
                segments.append((item, done, take))
                slices.append(itertools.islice(sets, take))
                heads += item
                takes.append(take)
                rows += take
            cut = (item, sets, done + take, total) if done + take < total else None
        if not rows:
            return stops
        head = np.array(heads, dtype=np.intp).reshape(-1, 3).repeat(takes, axis=0)
        idx = np.empty((rows, level + 2), dtype=np.intp)
        idx[:, :2] = head[:, 1:]
        idx[:, 2:] = np.fromiter(
            itertools.chain.from_iterable(itertools.chain.from_iterable(slices)),
            dtype=np.intp,
            count=rows * level,
        ).reshape(rows, level)
        blocks, floor = _gather(values, floors, head[:, 0], idx)
        verdicts = _stack_verdicts(blocks, rule, floor)
        # A False at the end stops every search; `left` is the first stop
        # at or after the last search's start, which stays the answer for
        # every later start up to it.
        dependent = (verdicts == 0).tolist() + [False]
        left, end = -1, 0
        for item, done, take in segments:
            start, end = end, end + take
            if left < start:
                left = dependent.index(False, start)
            if left < end:
                s = tuple(idx[left, 2:].tolist())
                stops[item] = (done + left - start, s, verdicts.item(left) == 2)


def _sample_matrices(ds: Dataset) -> tuple[CovMatrix | None, CovMatrix | CausalSpanError]:
    """A sample's covariance and its correlation matrix for `_skeletons`,
    or None and the error that making the correlation raised."""
    try:
        corr = correlation_matrix(ds)
    except CausalSpanError as e:
        return None, e
    return ds.covariance, corr


def _skeletons(
    corrs: list[CovMatrix | CausalSpanError], cfg: CITestConfig
) -> list[_Skeleton | CausalSpanError]:
    """`estimate_skeleton` on each correlation matrix of a batch that
    shares n and p, or the error it raises; an error in `corrs` (a
    correlation that could not be made) is passed through.

    The matrices run level by level together.  Level 0 is one stack of
    every matrix's pairs i < j; above it each phase streams the items
    (matrix, i, j) of every matrix into the same stacks (see
    `_level_stops`), so a batch of small problems fills stacks that one
    problem alone would leave nearly empty.  Every item reads only its own
    matrix's blocks and floor, so each result, error and counter is the
    one the matrix gets alone.  A matrix whose level stops on a singular
    block leaves the batch with that error, and the others go on.  Callers
    pass at most `_batch_size(p)` matrices at a time, which keeps the
    level-0 stack and the stacked matrices small.
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
    adj = [[(1 << p) - 1 & ~(1 << i) for i in range(p)] for _ in mats]
    sepsets: list[SepsetTable] = [{} for _ in mats]
    diags = [PcDiagnostics() for _ in mats]
    errors: dict[int, CausalSpanError] = {}
    active = list(range(len(mats)))
    level = 0
    while True:
        degrees = {m: [a.bit_count() for a in adj[m]] for m in active}
        active = [m for m in active if max(degrees[m], default=0) > level]
        if not active:
            break
        if n is not None and n - level - 3 < 1:
            for m in active:
                diags[m].skipped_insufficient_n += sum(
                    d * math.comb(d - 1, level) for d in degrees[m] if d
                )
            level += 1
            continue
        # Neither rule calls a NaN (a singular block) dependent, so a
        # singular block stops its pair like an independent one.
        rule = _POPULATION_RULE if n is None else _fisher_z_rule(n, level, cfg.alpha)
        tests = {}
        if level == 0:
            # Every pair (i, j) with i < j is read, and each stops on its
            # one set or not; the pair (j, i) is read only if (i, j) did
            # not stop, and then its mirrored verdict cannot stop it.  The
            # matrix is exactly symmetric, so the block (j, i) equals (i, j).
            verdicts = _marginal_verdicts(values, floors, active, rule)
            keep = (verdicts | verdicts.transpose(0, 2, 1)) == 0
            keep[:, np.arange(p), np.arange(p)] = False
            masks = np.packbits(keep, axis=2, bitorder="little")
            for m, square, mask in zip(active, verdicts, masks):
                iu, ju = np.nonzero(square)
                singular = np.flatnonzero(square[iu, ju] == 2)
                if singular.size:
                    i, j = int(iu[singular[0]]), int(ju[singular[0]])
                    errors[m] = NumericalRankError(
                        f"correlation submatrix for ({i}, {j} | ()) is singular"
                    )
                    continue
                adj[m] = [int.from_bytes(b.tobytes(), "little") for b in mask]
                sepsets[m].update(dict.fromkeys(zip(iu.tolist(), ju.tolist()), ()))
                tests[m] = p * (p - 1) - len(iu)
        else:
            neighbours = {m: [tuple(_bits(a)) for a in adj[m]] for m in active}
            first = [(m, i, j) for m in active for i, nb in enumerate(neighbours[m])
                     for j in nb if j > i]
            stops = _level_stops(values, first, neighbours, level, rule, floors)
            second = ((m, j, i) for m, i, j in first if (m, i, j) not in stops)
            stops.update(_level_stops(values, second, neighbours, level, rule, floors))
            # Every pair read tests all its sets unless it stops; a pair
            # (j, i) with j > i is not read when (i, j) stopped.
            sets = {m: [math.comb(d - 1, level) if d else 0 for d in degrees[m]] for m in active}
            tests = {m: sum(d * c for d, c in zip(degrees[m], sets[m])) for m in active}
            for (m, i, j), (read, s, singular) in sorted(stops.items()):
                if m in errors:
                    continue
                if singular:
                    errors[m] = NumericalRankError(
                        f"correlation submatrix for ({i}, {j} | {s}) is singular"
                    )
                    continue
                tests[m] += read + 1 - sets[m][i] - (sets[m][j] if i < j else 0)
                adj[m][i] &= ~(1 << j)
                adj[m][j] &= ~(1 << i)
                sepsets[m][(i, j) if i < j else (j, i)] = s
        active = [m for m in active if m not in errors]
        for m in active:
            if tests[m]:
                diags[m].tests_per_level[level] = tests[m]
        level += 1
    zeros = [0] * p
    for m, c in enumerate(live):
        graph = PDGraph._from_masks(zeros, zeros, adj[m])
        out[c] = errors[m] if m in errors else (graph, sepsets[m], diags[m])
    return out


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
    exact solve; otherwise every block takes it, with its own check.  This
    is the batch of one of `_skeletons`, which runs many matrices' searches
    through the same stacks.

    The results are those of reading the verdicts in the order above (i,
    then j, then the sets), but only the removed edges are read back, in
    that order: at level 0 the verdicts of the pairs i < j, whose nonzero
    entries give the removed edges in bulk, at higher levels the sorted
    stopped pairs.  A singular stop raises when it is the first one in
    that order.  `tests_per_level` counts every set of every pair read,
    less the sets after each stop, and the pair (j, i), j > i, is not read
    when (i, j) stopped.

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
