"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own algorithms: class
enumeration is re-derived by filtering all edge orientations, partial
correlations are re-derived by the classic recursion, and the skeleton
search by a one-test-at-a-time loop, so agreement is evidence rather than
tautology.  The graph references work on an n x n numpy edge-mark matrix
(``amat[u, v]`` means an edge mark of u points at v; an undirected edge
sets both cells), not on the package's vertex bitmasks, and touch a
`PDGraph` only through its public edge lists and constructor.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import causalspan
from causalspan import (
    CovMatrix,
    Dataset,
    EffectEntry,
    EffectMultiset,
    NumericalRankError,
    PDGraph,
    ResourceCapError,
    WeightedDag,
    allows_directed_path,
    beta_given_s,
    correlation_matrix,
    cpdag_from_dag,
    fisher_z_dependent,
    is_locally_valid,
    meek_closure,
    validate_cpdag,
)
from causalspan.errors import NotExtendableError
from causalspan.gauss import _partial_correlations
from causalspan.graphs import _bits, _reach, _undirected_components, extend_to_dag

# Populated by the acceptance tests; echoed after the run so the one-line
# verdicts are visible even when per-test output is captured.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# CLI subprocess environment

SOURCE_ROOT = str(Path(causalspan.__file__).resolve().parents[1])


def cli_env(extra=None):
    """CLI subprocess env with the absolute source root first on PYTHONPATH,
    because children run from temp directories and the package need not be
    installed; ``extra`` overrides are applied last."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        SOURCE_ROOT + os.pathsep + inherited if inherited else SOURCE_ROOT
    )
    if extra:
        env.update(extra)
    return env


# ---------------------------------------------------------------------------
# graph oracles


def to_amat(g: PDGraph) -> np.ndarray:
    """Writable edge-mark matrix of g."""
    amat = np.zeros((g.n, g.n), dtype=bool)
    for u, v in g.directed_edges():
        amat[u, v] = True
    for u, v in g.undirected_edges():
        amat[u, v] = amat[v, u] = True
    return amat


def from_amat(amat: np.ndarray) -> PDGraph:
    """The graph of an edge-mark matrix."""
    directed = [(int(u), int(v)) for u, v in np.argwhere(amat & ~amat.T)]
    undirected = [(int(u), int(v)) for u, v in np.argwhere(amat & amat.T) if u < v]
    return PDGraph(amat.shape[0], directed=directed, undirected=undirected)


def reference_v_structures(g: PDGraph) -> frozenset[tuple[int, int, int]]:
    """Collider triples (a, j, c), a < c, read off the edge-mark matrix."""
    amat = to_amat(g)
    d = amat & ~amat.T
    adj = amat | amat.T
    return frozenset(
        (int(a), j, int(c))
        for j in range(g.n)
        for a, c in itertools.combinations(np.nonzero(d[:, j])[0], 2)
        if not adj[a, c]
    )


def reference_topological_order(g: PDGraph) -> list[int] | None:
    """Kahn's algorithm over directed edges with a min-heap, smallest
    vertex first; None if there is a directed cycle."""
    amat = to_amat(g)
    d = amat & ~amat.T
    indeg = d.sum(axis=0)
    order: list[int] = []
    ready = sorted(int(i) for i in np.nonzero(indeg == 0)[0])
    indeg = indeg.copy()
    placed = np.zeros(g.n, dtype=bool)
    heapq.heapify(ready)
    while ready:
        i = heapq.heappop(ready)
        placed[i] = True
        order.append(i)
        for j in np.nonzero(d[i, :])[0]:
            indeg[j] -= 1
            if indeg[j] == 0 and not placed[j]:
                heapq.heappush(ready, int(j))
    if len(order) != g.n:
        return None
    return order


def reference_is_dag(g: PDGraph) -> bool:
    amat = to_amat(g)
    return not np.any(amat & amat.T) and reference_topological_order(g) is not None


def _reference_meek_pass(amat: np.ndarray) -> bool:
    """Meek's rules R1-R4 once over the whole graph, orienting in place;
    True if anything changed.  R1 reads the directed edges as they stood at
    the start of the pass; R2-R4 each scan the undirected pairs (both
    orders, sorted) as they stood at the start of the rule."""
    d = amat & ~amat.T
    u = amat & amat.T
    adj = amat | amat.T
    changed = False

    def orient(a: int, b: int) -> None:
        nonlocal changed
        amat[b, a] = False
        changed = True

    # R1: a -> b - c with a, c nonadjacent orients b -> c.
    for a, b in zip(*np.nonzero(d)):
        for c in np.nonzero(u[b, :])[0]:
            if c != a and not adj[a, c] and amat[b, c] and amat[c, b]:
                orient(int(b), int(c))
                u[b, c] = u[c, b] = False
                d[b, c] = True

    # R2: a -> b -> c with a - c orients a -> c.
    for a, c in sorted(map(tuple, np.argwhere(u))):
        if not (amat[a, c] and amat[c, a]):
            continue
        if np.any(d[a, :] & d[:, c]):
            orient(a, c)
            u[a, c] = u[c, a] = False
            d[a, c] = True

    # R3: a - b with a - c, a - d, c -> b, d -> b, c and d nonadjacent
    # orients a -> b.
    for a, b in sorted(map(tuple, np.argwhere(u))):
        if not (amat[a, b] and amat[b, a]):
            continue
        cand = np.nonzero(u[a, :] & d[:, b])[0]
        for c, dd in itertools.combinations(cand, 2):
            if not adj[c, dd]:
                orient(a, b)
                u[a, b] = u[b, a] = False
                d[a, b] = True
                break

    # R4: a - b with a - d, d -> c, c -> b, b and d nonadjacent, and a
    # adjacent to c orients a -> b.
    for a, b in sorted(map(tuple, np.argwhere(u))):
        if not (amat[a, b] and amat[b, a]):
            continue
        for dd in np.nonzero(u[a, :])[0]:
            if adj[b, dd]:
                continue
            hit = np.nonzero(d[dd, :] & d[:, b] & adj[a, :])[0]
            if hit.size:
                orient(a, b)
                u[a, b] = u[b, a] = False
                d[a, b] = True
                break

    return changed


def reference_meek_closure(g: PDGraph) -> PDGraph:
    """Meek's rules on the edge-mark matrix until no rule fires."""
    amat = to_amat(g)
    while _reference_meek_pass(amat):
        pass
    return from_amat(amat)


def reference_extend_to_dag(g: PDGraph) -> PDGraph | None:
    """Sink elimination on the edge-mark matrix: repeatedly take the
    smallest alive vertex with no directed out-edge whose undirected
    neighbours are adjacent to all its other neighbours, point its
    undirected edges at it, and remove it; None when none qualifies."""
    n = g.n
    work = to_amat(g)
    result = work.copy()
    alive = np.ones(n, dtype=bool)
    for _ in range(n):
        adj = work | work.T
        found = -1
        for x in range(n):
            if not alive[x]:
                continue
            out = work[x, :] & ~work[:, x] & alive
            if out.any():
                continue
            nbrs = np.nonzero((work[x, :] | work[:, x]) & alive)[0]
            sibs = [int(w) for w in nbrs if work[x, w] and work[w, x]]
            ok = True
            for w in sibs:
                for z in nbrs:
                    if z != w and not adj[w, z]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found = x
                break
        if found < 0:
            return None
        x = found
        for w in np.nonzero(work[x, :] & work[:, x])[0]:
            result[x, w] = False  # w -> x
        alive[x] = False
        work[x, :] = False
        work[:, x] = False
    return from_amat(result)


def reference_elimination_order(g: PDGraph) -> list[int] | None:
    """Smallest-simplicial-first elimination order of g's undirected
    subgraph, or None if that subgraph is not chordal."""
    amat = to_amat(g)
    adj = amat & amat.T
    alive = np.ones(g.n, dtype=bool)
    order: list[int] = []
    while len(order) < g.n:
        for x in np.nonzero(alive)[0]:
            nbrs = np.nonzero(adj[x, :] & alive)[0]
            if all(adj[a, b] for a, b in itertools.combinations(nbrs, 2)):
                break
        else:
            return None
        alive[x] = False
        order.append(int(x))
    return order


def reference_cpdag_from_dag(d: PDGraph) -> PDGraph:
    """The DAG's skeleton with its colliders oriented, closed under the
    reference Meek rules."""
    amat = to_amat(d)
    amat |= amat.T
    for a, j, c in reference_v_structures(d):
        amat[j, a] = amat[j, c] = False
    return reference_meek_closure(from_amat(amat))


def brute_force_class(g: PDGraph) -> list[PDGraph]:
    """Every DAG sharing g's skeleton and v-structures whose directed part
    extends g's, found by trying all orientations of the undirected edges."""
    und = sorted(g.undirected_edges())
    base_v = reference_v_structures(g)
    out = []
    for bits in itertools.product((False, True), repeat=len(und)):
        edges = list(g.directed_edges())
        for (u, v), flip in zip(und, bits):
            edges.append((v, u) if flip else (u, v))
        cand = PDGraph(g.n, directed=edges)
        if reference_is_dag(cand) and reference_v_structures(cand) == base_v:
            out.append(cand)
    return out


def reference_class_parent_masks(
    g: PDGraph, max_component_edges: int, max_dags: int, triangle_rule: bool = False
) -> list[tuple[int, ...]]:
    """The class search over the cross product of the components: one
    depth-first search over g's whole sorted undirected edge list, trying
    (u, v) before (v, u) and counting leaves against `max_dags`.  It
    refuses a -> b whenever b reaches a, by a full reachability walk on
    the child masks, or with `triangle_rule` only when a -> b closes a
    directed triangle, the package's rule.  Like `reference_local_effects`
    it shares the package's pre-checks and masks: it checks the admission
    rule and the product form, not those.  Same members, order and errors
    as `graphs._class_members` of `graphs._class_components`."""
    if extend_to_dag(g) is None:
        raise NotExtendableError("graph has no consistent extension to a DAG")
    for comp in _undirected_components(g._sib):
        edges = sum(g._sib[v].bit_count() for v in _bits(comp)) // 2
        if edges > max_component_edges:
            raise ResourceCapError(
                f"an undirected component has {edges} edges "
                f"(cap {max_component_edges})"
            )
    und = sorted(g.undirected_edges())
    adj = g._adjacency()
    children, parents = list(g._ch), list(g._pa)
    results: list[tuple[int, ...]] = []

    def closes_cycle(a: int, b: int) -> bool:
        if triangle_rule:
            return bool(children[b] & parents[a])
        return bool(_reach(children, 1 << b) >> a & 1)

    def rec(k: int) -> None:
        if k == len(und):
            results.append(tuple(parents))
            if len(results) > max_dags:
                raise ResourceCapError(f"equivalence class exceeds {max_dags} DAGs")
            return
        u, v = und[k]
        for a, b in ((u, v), (v, u)):
            if parents[b] & ~adj[a] or closes_cycle(a, b):
                continue
            children[a] |= 1 << b
            parents[b] |= 1 << a
            rec(k + 1)
            children[a] &= ~(1 << b)
            parents[b] &= ~(1 << a)

    rec(0)
    return results


def reference_theta_entries(
    g: PDGraph, covariates, y: int, mods, max_component_edges: int, max_dags: int
) -> list[list[tuple[tuple[int, ...] | None, int]]]:
    """The global route's plan entries counted over every member that
    `reference_class_parent_masks` (triangle rule) lists: per covariate,
    its (adjustment set, multiplicity) pairs in order of first member.
    The set is the member's parents of i, under "prune_y" only those in
    y's skeleton component; under "zero_path" it is None where i is not an
    ancestor of y."""
    members = reference_class_parent_masks(g, max_component_edges, max_dags, True)
    keep = _reach(g._adjacency(), 1 << y) if "prune_y" in mods else (1 << g.n) - 1
    out = []
    for i in covariates:
        keys = [pa[i] & keep for pa in members]
        if "zero_path" in mods:
            keys = [k if _reach(pa, 1 << y) >> i & 1 else None for k, pa in zip(keys, members)]
        counts = collections.Counter(keys)
        out.append([(None if k is None else tuple(_bits(k)), m) for k, m in counts.items()])
    return out


def _reference_closure(step: np.ndarray, start: int) -> np.ndarray:
    """Boolean mask of the vertices reachable from `start` along the
    boolean matrix `step` (start included), by repeated matrix products."""
    seen = np.zeros(step.shape[0], dtype=bool)
    seen[start] = True
    while True:
        nxt = seen | (seen.astype(int) @ step.astype(int) > 0)
        if (nxt == seen).all():
            return seen
        seen = nxt


def reference_global_effects(cov: np.ndarray, g: PDGraph, y: int, mods=()):
    """The global route re-derived: the members of `brute_force_class(g)`
    in orientation-vector order and, per covariate row and member column,
    the coefficient of i regressed with y on i and the member's parents of
    i, by `np.linalg.solve` on the covariance block.  Under "prune_y" only
    parents in y's skeleton component adjust; under "zero_path" a member
    without a directed path i -> y gets 0.0 and adjustment None.  A
    response among the adjusting parents gives 0.0, the package's
    convention.  Returns (matrix, adjustments, members)."""
    und = sorted(g.undirected_edges())
    members = sorted(
        brute_force_class(g),
        key=lambda d: tuple(0 if (u, v) in d.directed_edges() else 1 for u, v in und),
    )
    skeleton = to_amat(g)
    component = _reference_closure(skeleton | skeleton.T, y)
    covariates = [i for i in range(g.n) if i != y]
    matrix = np.zeros((len(covariates), len(members)))
    adjustments = []
    for r, i in enumerate(covariates):
        row = []
        for c, d in enumerate(members):
            amat = to_amat(d)
            if "zero_path" in mods and not _reference_closure(amat, i)[y]:
                row.append(None)
                continue
            s = tuple(
                int(v)
                for v in np.nonzero(amat[:, i])[0]
                if "prune_y" not in mods or component[v]
            )
            row.append(s)
            if y not in s:
                idx = [i, *s]
                coef = np.linalg.solve(cov[np.ix_(idx, idx)], cov[idx, y])
                matrix[r, c] = coef[0]
        adjustments.append(tuple(row))
    return matrix, tuple(adjustments), members


def reference_local_effects(
    source, g: PDGraph, i: int, y: int, mods, max_siblings: int,
    max_component_edges: int, max_dags: int,
) -> EffectMultiset:
    """The local route as a loop over all 2^k subsets of i's siblings in
    increasing mask order, each tested with `is_locally_valid`.  Unlike the
    other oracles it shares the package's zero-path test, validity test and
    regression: it checks the subset search, not those.  Under "prune_y"
    only parents and siblings in y's skeleton component are kept.  Raises
    the package's sibling-cap error."""
    mods = frozenset(mods)
    if "zero_path" in mods and not allows_directed_path(
        g, i, y, max_component_edges, max_dags
    ):
        return EffectMultiset(i, y, (EffectEntry(0.0, None, 1),), "local", mods)
    pa, sibs = g.parents(i), sorted(g.siblings(i))
    if "prune_y" in mods:
        skeleton = to_amat(g)
        component = _reference_closure(skeleton | skeleton.T, y)
        pa = {v for v in pa if component[v]}
        sibs = [v for v in sibs if component[v]]
    if len(sibs) > max_siblings:
        raise ResourceCapError(
            f"covariate {i} has {len(sibs)} undirected neighbours (cap {max_siblings})"
        )
    entries = []
    for mask in range(2 ** len(sibs)):
        s = [sibs[b] for b in range(len(sibs)) if mask >> b & 1]
        if is_locally_valid(g, i, s):
            adj = tuple(sorted(pa | set(s)))
            entries.append(EffectEntry(beta_given_s(source, i, adj, y), adj, 1))
    return EffectMultiset(i, y, tuple(entries), "local", mods)


def _hooked_orientation(skeleton, sepsets, forced=None, dropped=()):
    """Collider orientation with repair hooks, on an edge-direction dict:
    the triples (i, j, k), i < k, i - j - k, i and k nonadjacent, j outside
    the separating set of (i, k), in sorted order, each pointing both edges
    at j; a triple in `dropped` is skipped, and so is a triple that would
    point an edge the other way from its direction in `forced` (keyed by
    the sorted pair)."""
    triples = sorted(
        (i, j, k)
        for j in range(skeleton.n)
        for i, k in itertools.combinations(sorted(skeleton.adjacent(j)), 2)
        if k not in skeleton.adjacent(i) and j not in sepsets.get((i, k), ())
    )
    forced = forced or {}
    dropped = set(dropped)
    heads = {}
    for i, j, k in triples:
        want = [(i, j), (k, j)]
        if (i, j, k) in dropped or any(
            forced.get((min(a, b), max(a, b)), (a, b)) != (a, b) for a, b in want
        ):
            continue
        for a, b in want:
            heads[(min(a, b), max(a, b))] = (a, b)
    undirected = [e for e in skeleton.undirected_edges() if e not in heads]
    return PDGraph(skeleton.n, directed=heads.values(), undirected=undirected)


def reference_repair(result, seed: int, cap: int):
    """`repair_cpdag` with search cap `cap`, rebuilding through
    `_hooked_orientation`: stage 1 pins each side of the conflicted edges
    instead of dropping triples, and every rebuild re-reads the triples
    from the skeleton.  It shares the package's Meek closure, validation
    and CPDAG of a DAG: it checks the triple handling, not those.
    Returns (stage, detail, graph)."""
    if result.validation.is_valid:
        return 0, "estimate already valid", result.graph
    skeleton = result.graph.skeleton()

    def rebuild(forced=None, dropped=()):
        g = meek_closure(_hooked_orientation(skeleton, result.sepsets, forced, dropped))
        return g if validate_cpdag(g).is_valid else None

    conflicted = []
    for ev in result.diagnostics.overwrites:
        key = tuple(sorted(ev["new"]))
        if key not in conflicted:
            conflicted.append(key)
    if conflicted and 2 ** len(conflicted) <= cap:
        for mask in range(2 ** len(conflicted)):
            forced = {
                (u, v): (u, v) if mask >> bit & 1 == 0 else (v, u)
                for bit, (u, v) in enumerate(conflicted)
            }
            g = rebuild(forced=forced)
            if g is not None:
                return 1, f"re-decided {len(conflicted)} conflicted edges", g
    triples = list(result.diagnostics.candidate_triples)
    if not triples:
        g = rebuild()
        if g is not None:
            return 2, "no collider triples to drop", g
    fewest_first = itertools.chain.from_iterable(
        itertools.combinations(triples, k) for k in range(1, len(triples) + 1)
    )
    examined = 0
    for dropped in itertools.islice(fewest_first, cap):
        examined += 1
        g = rebuild(dropped=dropped)
        if g is not None:
            return 2, f"dropped {len(dropped)} collider triples", g
    if examined == cap:
        for k in range(1, len(triples) + 1):
            g = rebuild(dropped=triples[:k])
            if g is not None:
                return 2, f"greedily dropped {k} collider triples", g
    rng = np.random.default_rng(seed)
    rank = np.empty(result.graph.n, dtype=int)
    rank[rng.permutation(result.graph.n)] = np.arange(result.graph.n)
    edges = [(u, v) if rank[u] < rank[v] else (v, u) for u, v in skeleton.undirected_edges()]
    dag = PDGraph(result.graph.n, directed=edges)
    return 3, "random orientation of skeleton", cpdag_from_dag(dag)


def relabel(g: PDGraph, perm: list[int]) -> PDGraph:
    """Image of g under the vertex relabeling v -> perm[v]."""
    directed = [(perm[u], perm[v]) for u, v in g.directed_edges()]
    undirected = [(perm[u], perm[v]) for u, v in g.undirected_edges()]
    return PDGraph(g.n, directed=directed, undirected=undirected)


def random_pdgraph_dag(rng: np.random.Generator, p: int, density: float) -> PDGraph:
    """Random DAG in vertex order: edge j -> i for j < i with given density."""
    edges = [
        (j, i)
        for i in range(p)
        for j in range(i)
        if rng.random() < density
    ]
    return PDGraph(p, directed=edges)


# ---------------------------------------------------------------------------
# numeric oracle


def recursive_partial_correlation(cov: np.ndarray, i: int, j: int, s: tuple[int, ...]) -> float:
    """Textbook recursion: rho_{ij|S} via conditioning on one element of S
    at a time.  Independent of the package's matrix-inverse route."""
    if not s:
        return cov[i, j] / np.sqrt(cov[i, i] * cov[j, j])
    k, rest = s[0], s[1:]
    rij = recursive_partial_correlation(cov, i, j, rest)
    rik = recursive_partial_correlation(cov, i, k, rest)
    rjk = recursive_partial_correlation(cov, j, k, rest)
    return (rij - rik * rjk) / np.sqrt((1 - rik**2) * (1 - rjk**2))


def ols_coefficient(values: np.ndarray, i: int, s: tuple[int, ...], y: int) -> float:
    """Coefficient of column i in the least-squares fit of column y on an
    intercept, column i and the columns in s, solved on the raw rows.
    Independent of the package's covariance route."""
    x = np.column_stack([np.ones(values.shape[0]), values[:, [i, *s]]])
    coef, *_ = np.linalg.lstsq(x, values[:, y], rcond=None)
    return float(coef[1])


def reference_skeleton(source, alpha: float, max_level: int | None = None):
    """PC-stable skeleton search one test at a time: each block's own
    inverse, its own normal quantile, no package CI helpers.  Returns
    (undirected edges, sepsets, tests per level, skipped tests)."""
    cov = source.covariance if isinstance(source, Dataset) else source
    sd = np.sqrt(np.diag(cov.values))
    corr = cov.values / np.outer(sd, sd)
    np.fill_diagonal(corr, 1.0)
    corr = (corr + corr.T) / 2.0
    n, p = cov.n, corr.shape[0]
    quantile = norm.ppf(1.0 - alpha / 2.0)

    def independent(i, j, s):
        idx = [i, j, *s]
        block = corr[np.ix_(idx, idx)]
        if np.linalg.cond(block) > 1e12:
            raise NumericalRankError(
                f"correlation submatrix for ({i}, {j} | {s}) is singular"
            )
        om = np.linalg.inv(block)
        rho = min(1.0, max(-1.0, -om[0, 1] / math.sqrt(om[0, 0] * om[1, 1])))
        if n is None:
            return abs(rho) <= 1e-9
        if abs(rho) >= 1.0:
            return False
        return abs(math.atanh(rho)) * math.sqrt(n - len(s) - 3) <= quantile

    adj = [set(range(p)) - {i} for i in range(p)]
    sepsets, tests, skipped = {}, {}, 0
    level = 0
    while max_level is None or level <= max_level:
        snapshot = [frozenset(a) for a in adj]
        if not any(len(snapshot[i]) - 1 >= level for i in range(p) if snapshot[i]):
            break
        for i in range(p):
            for j in sorted(snapshot[i]):
                if j not in adj[i]:
                    continue
                for s in itertools.combinations(sorted(snapshot[i] - {j}), level):
                    if n is not None and n - level - 3 < 1:
                        skipped += 1
                        continue
                    tests[level] = tests.get(level, 0) + 1
                    if independent(i, j, s):
                        adj[i].discard(j)
                        adj[j].discard(i)
                        sepsets[(min(i, j), max(i, j))] = s
                        break
        level += 1
    edges = {(i, j) for i in range(p) for j in adj[i] if i < j}
    return edges, sepsets, tests, skipped


def reference_streamed_blocks(
    source, alpha: float, stack: int
) -> tuple[dict[int, int], dict[int, int]]:
    """Blocks and stacked calls per level of the streamed skeleton search,
    from one-set-at-a-time verdicts: level 0 is one stack of the pairs
    i < j; above it each phase (the pairs (i, j) with i < j, then the pairs
    (j, i) whose edge survived) streams its pairs' sets into stacks of
    `stack` blocks, and a pair stops at the stack holding its first stop.
    So with c rows streamed before it, a pair with m sets adds
    min(m, (floor((c + k) / stack) + 1) * stack - c) rows when its first
    stop is set k, and m rows when it has none; the phase makes
    ceil(rows / stack) calls.  It shares the package's block solve and
    test, so it checks only how much gets solved, and it raises the
    package's error for the first singular stop in search order."""
    corr = correlation_matrix(source) if isinstance(source, Dataset) else source.correlation()
    n, p = corr.n, corr.n_columns
    blocks: dict[int, int] = {}
    calls: dict[int, int] = {}

    def stop(i, j, s) -> tuple[tuple[int, ...], bool] | None:
        """(s, whether its block is singular) if (i, j | s) stops the pair:
        neither test calls a NaN (a singular block) dependent."""
        idx = np.array([(i, j, *s)])
        rho = _partial_correlations(
            corr.values[idx[:, :, None], idx[:, None, :]], corr._eigen_floor
        )[0]
        dependent = abs(rho) > 1e-9 if n is None else fisher_z_dependent(rho, n, len(s), alpha)
        return None if dependent else (s, math.isnan(rho))

    def add(level, rows, made):
        if rows:
            blocks[level] = blocks.get(level, 0) + rows
            calls[level] = calls.get(level, 0) + made

    adj = [set(range(p)) - {i} for i in range(p)]
    level = 0
    while any(len(a) > level for a in adj):
        snapshot = [sorted(a) for a in adj]
        if n is not None and n - level - 3 < 1:
            level += 1
            continue
        stops = {}
        first = [(i, j) for i in range(p) for j in snapshot[i] if i < j]
        if level == 0:
            add(0, len(first), 1)
            for i, j in first:
                if found := stop(i, j, ()):
                    stops[i, j] = found
        else:
            # A generator, so the second phase sees the first one's stops.
            second = ((j, i) for i, j in first if (i, j) not in stops)
            for phase in (first, second):
                rows = 0
                for i, j in phase:
                    sets = list(itertools.combinations([v for v in snapshot[i] if v != j], level))
                    verdicts = ((k, stop(i, j, s)) for k, s in enumerate(sets))
                    found = next(((k, f) for k, f in verdicts if f), None)
                    if found is None:
                        rows += len(sets)
                        continue
                    k, stops[i, j] = found
                    rows += min(len(sets), ((rows + k) // stack + 1) * stack - rows)
                add(level, rows, -(-rows // stack))
        for i in range(p):
            for j in snapshot[i]:
                if j in adj[i] and (i, j) in stops:
                    s, singular = stops[i, j]
                    if singular:
                        raise NumericalRankError(
                            f"correlation submatrix for ({i}, {j} | {s}) is singular"
                        )
                    adj[i].discard(j)
                    adj[j].discard(i)
        level += 1
    return blocks, calls


# ---------------------------------------------------------------------------
# model fixtures


def _weighted(p: int, edges: dict[tuple[int, int], float], evars=None) -> WeightedDag:
    g = PDGraph(p, directed=[(j, i) for (i, j) in edges])
    w = np.zeros((p, p))
    for (i, j), val in edges.items():
        w[i, j] = val
    return WeightedDag(g, w)


@pytest.fixture
def hub_direct_model():
    """Four variables: a hub driving two children, all three feeding the
    response.  The hub's adjusted effect (0.4) is far below its regression
    coefficient (2).  Columns: X1, X2, X3, Y with Y last."""
    w = _weighted(4, {(0, 1): 0.8, (2, 1): 0.8, (3, 0): -1.0, (3, 1): 2.0, (3, 2): -1.0})
    evars = np.array([0.36, 1.0, 0.36, 1.0])
    return w, evars


@pytest.fixture
def hub_indirect_model():
    """Same X-part as hub_direct_model but the response depends only on the
    hub's children, so the hub matters causally (1.6) yet has regression
    coefficient 0."""
    w = _weighted(4, {(0, 1): 0.8, (2, 1): 0.8, (3, 0): 1.0, (3, 2): 1.0})
    evars = np.array([0.36, 1.0, 0.36, 1.0])
    return w, evars


def weighted_cov(w: WeightedDag, evars) -> CovMatrix:
    """Exact covariance (I - W)^-1 diag(evars) (I - W)^-T of the linear
    model with the given error variances."""
    inv_ib = np.linalg.inv(np.eye(len(w.weights)) - w.weights)
    sigma = inv_ib @ np.diag(np.asarray(evars, dtype=float)) @ inv_ib.T
    return CovMatrix((sigma + sigma.T) / 2.0)


@pytest.fixture
def path_graph():
    """Undirected 4-vertex path X4 - X1 - X2 - X3 (vertex 0 is internal);
    its class has four members and vertex 0 has siblings {1, 3}."""
    return PDGraph(4, undirected=[(0, 1), (0, 3), (1, 2)])


@pytest.fixture
def path_weighted():
    """A weighted DAG whose equivalence class is exactly path_graph's:
    chain 3 -> 0 -> 1 -> 2 with distinct weights and no collider."""
    return _weighted(4, {(0, 3): 1.5, (1, 0): 0.5, (2, 1): 2.0})


@pytest.fixture
def identified_chain():
    """Five columns X1, W, X2, X3, Y: X1 -> X2 (2.0) and W -> X2 (0.8) form a
    collider, X2 -> Y (0.5) is then compelled, X3 is isolated.  Every edge is
    identified, and the total effect of X1 on Y is exactly 1.0."""
    return _weighted(5, {(2, 0): 2.0, (2, 1): 0.8, (4, 2): 0.5})
