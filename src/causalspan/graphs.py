"""Partially directed graphs and Markov-equivalence-class machinery.

A partially directed graph mixes directed edges u -> v and undirected edges
u - v, with at most one edge per vertex pair.  The functions here cover the
combinatorics this package needs: collider (v-structure) detection, Meek's
orientation rules, consistent extension to a DAG, enumeration of all DAGs
sharing a graph's skeleton and colliders, the completed partially directed
graph (CPDAG) of a DAG, and chordal-graph utilities.

Enumeration is a depth-first search on per-vertex bitmasks (children,
parents, adjacency) rather than on the adjacency matrix: each step orients
one undirected edge only if that makes no new collider and no directed
cycle, and each leaf is checked once more before it becomes a `PDGraph`.
Meek's rules live only in `meek_closure`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import NotExtendableError, ResourceCapError


class VStructure(NamedTuple):
    """Collider triple a -> collider <- c with a and c nonadjacent; a < c."""

    a: int
    collider: int
    c: int


class PDGraph:
    """Immutable partially directed graph on vertices 0..n-1.

    Internally an n x n boolean matrix ``amat`` where ``amat[u, v]`` means
    u has an edge mark pointing at v.  A directed edge u -> v sets only
    ``amat[u, v]``; an undirected edge sets both cells.  Instances are
    value objects: all mutating operations return new graphs.
    """

    __slots__ = ("_n", "_amat")

    def __init__(
        self,
        n: int,
        directed: Iterable[tuple[int, int]] = (),
        undirected: Iterable[tuple[int, int]] = (),
    ):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        amat = np.zeros((n, n), dtype=bool)
        marks: dict[tuple[int, int], str] = {}

        def check(u: int, v: int, kind: str) -> tuple[int, int]:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in marks:
                raise ValueError(f"duplicate edge between {u} and {v}")
            marks[key] = kind
            return key

        for u, v in directed:
            check(u, v, "directed")
            amat[u, v] = True
        for u, v in undirected:
            check(u, v, "undirected")
            amat[u, v] = True
            amat[v, u] = True
        amat.setflags(write=False)
        self._n = n
        self._amat = amat

    @classmethod
    def _from_amat(cls, amat: np.ndarray) -> "PDGraph":
        g = object.__new__(cls)
        g._n = amat.shape[0]
        a = amat.copy()
        a.setflags(write=False)
        g._amat = a
        return g

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    def amat_copy(self) -> np.ndarray:
        """Writable copy of the internal adjacency matrix."""
        return self._amat.copy()

    def parents(self, i: int) -> frozenset[int]:
        mask = self._amat[:, i] & ~self._amat[i, :]
        return frozenset(int(j) for j in np.nonzero(mask)[0])

    def children(self, i: int) -> frozenset[int]:
        mask = self._amat[i, :] & ~self._amat[:, i]
        return frozenset(int(j) for j in np.nonzero(mask)[0])

    def siblings(self, i: int) -> frozenset[int]:
        """Vertices joined to i by an undirected edge."""
        mask = self._amat[i, :] & self._amat[:, i]
        return frozenset(int(j) for j in np.nonzero(mask)[0])

    def adjacent(self, i: int) -> frozenset[int]:
        mask = self._amat[i, :] | self._amat[:, i]
        return frozenset(int(j) for j in np.nonzero(mask)[0])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._amat[u, v] or self._amat[v, u])

    def has_directed(self, u: int, v: int) -> bool:
        return bool(self._amat[u, v] and not self._amat[v, u])

    def has_undirected(self, u: int, v: int) -> bool:
        return bool(self._amat[u, v] and self._amat[v, u])

    def directed_edges(self) -> frozenset[tuple[int, int]]:
        mask = self._amat & ~self._amat.T
        return frozenset((int(u), int(v)) for u, v in zip(*np.nonzero(mask)))

    def undirected_edges(self) -> frozenset[tuple[int, int]]:
        """Undirected edges as (u, v) pairs with u < v."""
        mask = self._amat & self._amat.T
        return frozenset(
            (int(u), int(v)) for u, v in zip(*np.nonzero(mask)) if u < v
        )

    def edge_count(self) -> int:
        return len(self.directed_edges()) + len(self.undirected_edges())

    # -- structure predicates --------------------------------------------

    def is_fully_directed(self) -> bool:
        return not np.any(self._amat & self._amat.T)

    def is_fully_undirected(self) -> bool:
        return bool(np.array_equal(self._amat, self._amat.T))

    def topological_order(self) -> list[int] | None:
        """Kahn's algorithm over directed edges; None if there is a directed
        cycle.  Undirected edges are ignored.  Smallest vertex index first,
        so the order is deterministic."""
        d = self._amat & ~self._amat.T
        indeg = d.sum(axis=0)
        order: list[int] = []
        ready = sorted(int(i) for i in np.nonzero(indeg == 0)[0])
        indeg = indeg.copy()
        placed = np.zeros(self._n, dtype=bool)
        import heapq

        heapq.heapify(ready)
        while ready:
            i = heapq.heappop(ready)
            placed[i] = True
            order.append(i)
            for j in np.nonzero(d[i, :])[0]:
                indeg[j] -= 1
                if indeg[j] == 0 and not placed[j]:
                    heapq.heappush(ready, int(j))
        if len(order) != self._n:
            return None
        return order

    def is_dag(self) -> bool:
        return self.is_fully_directed() and self.topological_order() is not None

    # -- derived graphs ---------------------------------------------------

    def skeleton(self) -> "PDGraph":
        return PDGraph._from_amat(self._amat | self._amat.T)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PDGraph):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._amat, other._amat)

    def __hash__(self) -> int:
        return hash((self._n, self._amat.tobytes()))

    def __repr__(self) -> str:
        d = sorted(self.directed_edges())
        u = sorted(self.undirected_edges())
        return f"PDGraph(n={self._n}, directed={d}, undirected={u})"

    # -- serialization ------------------------------------------------------

    def to_json_dict(self, names: list[str] | None = None) -> dict:
        """JSON-ready dict: {"p": n, "names": [...], "edges": [...]} where an
        undirected edge appears once with from < to and "directed": false."""
        if names is None:
            names = [f"V{i}" for i in range(self._n)]
        if len(names) != self._n:
            raise ValueError("names length does not match vertex count")
        edges = [
            {"from": u, "to": v, "directed": True}
            for u, v in sorted(self.directed_edges())
        ]
        edges += [
            {"from": u, "to": v, "directed": False}
            for u, v in sorted(self.undirected_edges())
        ]
        edges.sort(key=lambda e: (e["from"], e["to"], not e["directed"]))
        return {"p": self._n, "names": list(names), "edges": edges}

    def to_json(self, names: list[str] | None = None) -> str:
        return json.dumps(self.to_json_dict(names), indent=2)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PDGraph":
        n = int(obj["p"])
        directed = []
        undirected = []
        for e in obj.get("edges", []):
            u, v = int(e["from"]), int(e["to"])
            if e.get("directed", True):
                directed.append((u, v))
            else:
                undirected.append((u, v))
        return cls(n, directed=directed, undirected=undirected)

    @classmethod
    def from_json(cls, text: str) -> "PDGraph":
        return cls.from_json_dict(json.loads(text))


# -- colliders and orientation rules ----------------------------------------


def find_v_structures(g: PDGraph) -> frozenset[VStructure]:
    """All collider triples a -> j <- c with a, c nonadjacent (a < c)."""
    out = set()
    for j in range(g.n):
        pa = sorted(g.parents(j))
        for a, c in itertools.combinations(pa, 2):
            if not g.has_edge(a, c):
                out.add(VStructure(a, j, c))
    return frozenset(out)


def _directed_path_exists(amat: np.ndarray, src: int, dst: int) -> bool:
    """True if a path src -> ... -> dst exists over directed edges of amat."""
    if src == dst:
        return True
    d = amat & ~amat.T
    seen = np.zeros(amat.shape[0], dtype=bool)
    stack = [src]
    seen[src] = True
    while stack:
        u = stack.pop()
        for v in np.nonzero(d[u, :])[0]:
            if v == dst:
                return True
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return False


def _meek_pass(amat: np.ndarray) -> bool:
    """Apply Meek's rules R1-R4 once over the whole graph, orienting in
    place.  Only undirected edges gain direction; an edge already directed
    is never flipped.  Returns True if anything changed."""
    n = amat.shape[0]
    d = amat & ~amat.T
    u = amat & amat.T
    adj = amat | amat.T
    changed = False

    def orient(a: int, b: int) -> None:
        nonlocal changed
        amat[b, a] = False
        changed = True

    # R1: a -> b - c with a, c nonadjacent orients b -> c, else a -> b <- c
    # would be a new collider.
    for a, b in zip(*np.nonzero(d)):
        for c in np.nonzero(u[b, :])[0]:
            if c != a and not adj[a, c] and amat[b, c] and amat[c, b]:
                orient(int(b), int(c))
                u[b, c] = u[c, b] = False
                d[b, c] = True

    # R2: a -> b -> c with a - c orients a -> c, else there is a cycle.
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
        done = False
        for c, dd in itertools.combinations(cand, 2):
            if not adj[c, dd]:
                orient(a, b)
                u[a, b] = u[b, a] = False
                d[a, b] = True
                done = True
                break
        if done:
            continue

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


def meek_closure(g: PDGraph) -> PDGraph:
    """Apply Meek's orientation rules until no rule fires.

    Undirected edges whose direction is forced by the existing directed
    edges become directed; nothing else changes.  The scan order is fixed,
    so the result is deterministic; on inputs that admit a consistent
    extension the result is independent of rule order.
    """
    amat = g.amat_copy()
    while _meek_pass(amat):
        pass
    return PDGraph._from_amat(amat)


# -- consistent extension -----------------------------------------------------


def extend_to_dag(g: PDGraph) -> PDGraph | None:
    """Orient all undirected edges of g into a DAG with the same skeleton
    and the same colliders, or return None if no such DAG exists.

    Classic sink-elimination: repeatedly find a vertex with no outgoing
    directed edge whose undirected neighbours are adjacent to all of its
    other neighbours, point its undirected edges at it, and remove it.
    """
    n = g.n
    work = g.amat_copy()
    result = g.amat_copy()
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
    return PDGraph._from_amat(result)


def is_extendable(g: PDGraph) -> bool:
    return extend_to_dag(g) is not None


# -- equivalence-class enumeration -------------------------------------------


def _undirected_components(g: PDGraph) -> list[list[tuple[int, int]]]:
    """Connected components of the undirected subgraph, as edge lists."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = sorted(g.undirected_edges())
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    comp: dict[int, list[tuple[int, int]]] = {}
    for u, v in edges:
        comp.setdefault(find(u), []).append((u, v))
    return [comp[r] for r in sorted(comp)]


def _bits(mask: int) -> Iterator[int]:
    """Vertices of a bitmask, smallest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reaches(children: list[int], src: int, dst: int) -> bool:
    """True if a directed path src -> ... -> dst exists over child masks."""
    seen = frontier = children[src]
    while frontier:
        if frontier >> dst & 1:
            return True
        step = 0
        for v in _bits(frontier):
            step |= children[v]
        frontier = step & ~seen
        seen |= frontier
    return False


def enumerate_dags(
    g: PDGraph,
    max_component_edges: int = 12,
    max_dags: int = 25000,
) -> list[PDGraph]:
    """All DAGs with g's skeleton and collider set, obtained by orienting
    g's undirected edges.  Existing directed edges are kept as they are.

    A depth-first search on per-vertex bitmasks orients the undirected
    edges one at a time in sorted order, trying (u, v) before (v, u).  An
    orientation a -> b is admitted only if it creates no new collider at b
    (every parent of b is adjacent to a) and no directed cycle (no path
    b -> ... -> a).  Each leaf is checked once more: it must be acyclic
    with exactly g's colliders.

    The output order is deterministic: DAGs are sorted by their orientation
    vector over the sorted undirected edge list (0 = kept as (u, v) with
    u < v, 1 = reversed).

    Raises ResourceCapError if any undirected connected component has more
    than `max_component_edges` edges or more than `max_dags` DAGs are found,
    and NotExtendableError if g has no consistent extension.
    """
    if extend_to_dag(g) is None:
        raise NotExtendableError("graph has no consistent extension to a DAG")
    for comp in _undirected_components(g):
        if len(comp) > max_component_edges:
            raise ResourceCapError(
                f"an undirected component has {len(comp)} edges "
                f"(cap {max_component_edges})"
            )
    und = sorted(g.undirected_edges())
    base_vs = find_v_structures(g)
    n = g.n
    adj = [sum(1 << v for v in g.adjacent(u)) for u in range(n)]
    children, parents = [0] * n, [0] * n
    for u, v in g.directed_edges():
        children[u] |= 1 << v
        parents[v] |= 1 << u
    results: list[tuple[tuple[int, ...], PDGraph]] = []

    def leaf_ok() -> bool:
        left = (1 << n) - 1
        while left:
            sources = sum(1 << v for v in _bits(left) if not parents[v] & left)
            if not sources:
                return False  # directed cycle
            left &= ~sources
        return base_vs == {
            (a, j, c)
            for j in range(n)
            for a, c in itertools.combinations(_bits(parents[j]), 2)
            if not adj[a] >> c & 1
        }

    def rec(k: int, vec: tuple[int, ...]) -> None:
        if k == len(und):
            if leaf_ok():
                amat = g.amat_copy()
                for (u, v), flip in zip(und, vec):
                    amat[(u, v) if flip else (v, u)] = False
                results.append((vec, PDGraph._from_amat(amat)))
                if len(results) > max_dags:
                    raise ResourceCapError(f"equivalence class exceeds {max_dags} DAGs")
            return
        u, v = und[k]
        for a, b, flip in ((u, v, 0), (v, u, 1)):
            if parents[b] & ~adj[a] or _reaches(children, b, a):
                continue  # new collider at b, or a directed cycle
            children[a] |= 1 << b
            parents[b] |= 1 << a
            rec(k + 1, vec + (flip,))
            children[a] &= ~(1 << b)
            parents[b] &= ~(1 << a)

    rec(0, ())
    results.sort(key=lambda t: t[0])
    return [d for _, d in results]


def cpdag_from_dag(d: PDGraph) -> PDGraph:
    """The completed partially directed graph of d: its skeleton with every
    edge directed that has the same orientation in all DAGs equivalent to d
    (same skeleton, same colliders), undirected otherwise."""
    if not d.is_dag():
        raise ValueError("input must be a DAG")
    amat = (d.amat_copy() | d.amat_copy().T)
    for a, j, c in find_v_structures(d):
        amat[j, a] = False
        amat[j, c] = False
    pat = PDGraph._from_amat(amat)
    return meek_closure(pat)


# -- chordal utilities ---------------------------------------------------------


def perfect_elimination_order(g: PDGraph) -> list[int] | None:
    """A perfect elimination order of a fully undirected graph, or None if
    the graph is not chordal.

    Each vertex in the returned order is simplicial (its later neighbours
    form a clique) in the subgraph induced by it and the vertices after it.
    """
    if not g.is_fully_undirected():
        raise ValueError("perfect elimination order requires an undirected graph")
    n = g.n
    adj = g.amat_copy()
    alive = np.ones(n, dtype=bool)
    order: list[int] = []

    def simplicial(x: int) -> bool:
        nbrs = np.nonzero(adj[x, :] & alive)[0]
        for a, b in itertools.combinations(nbrs, 2):
            if not adj[a, b]:
                return False
        return True

    remaining = n
    while remaining:
        pick = -1
        for x in range(n):
            if alive[x] and simplicial(x):
                pick = x
                break
        if pick < 0:
            return None
        alive[pick] = False
        order.append(pick)
        remaining -= 1
    return order


def is_chordal(g: PDGraph) -> bool:
    """True if the fully undirected graph g has no chordless cycle of
    length four or more."""
    return perfect_elimination_order(g) is not None


# -- reachability -----------------------------------------------------------


def has_directed_path(g: PDGraph, i: int, y: int) -> bool:
    """True if a path of directed edges leads from i to y (i == y counts)."""
    return _directed_path_exists(g._amat, i, y)


def skeleton_component(g: PDGraph, y: int) -> frozenset[int]:
    """Vertices connected to y by some path over the skeleton (y included)."""
    adj = g._amat | g._amat.T
    seen = np.zeros(g.n, dtype=bool)
    seen[y] = True
    stack = [y]
    while stack:
        u = stack.pop()
        for v in np.nonzero(adj[u, :])[0]:
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return frozenset(int(x) for x in np.nonzero(seen)[0])


def reachable_toward(g: PDGraph, i: int, y: int, over: str = "parents") -> frozenset[int]:
    """The parents (or siblings, per `over`) of i that have a skeleton path
    to y."""
    if over == "parents":
        base = g.parents(i)
    elif over == "siblings":
        base = g.siblings(i)
    else:
        raise ValueError("over must be 'parents' or 'siblings'")
    comp = skeleton_component(g, y)
    return frozenset(v for v in base if v in comp)


def allows_directed_path(
    g: PDGraph,
    i: int,
    y: int,
    max_component_edges: int = 12,
    max_dags: int = 25000,
) -> bool:
    """True if some DAG with g's skeleton and colliders has a directed path
    from i to y.

    Two shortcuts run first: no skeleton path means no, and an existing
    directed path means yes (directed edges of g appear in every such DAG).
    Otherwise the equivalence class is enumerated, under the same caps as
    enumerate_dags.
    """
    if y not in skeleton_component(g, i):
        return False
    if has_directed_path(g, i, y):
        return True
    for d in enumerate_dags(g, max_component_edges, max_dags):
        if has_directed_path(d, i, y):
            return True
    return False


# -- local validity -----------------------------------------------------------


def is_locally_valid(g: PDGraph, i: int, s: Iterable[int]) -> bool:
    """True if pointing the siblings in s at i (and the rest away) creates
    no collider at i.

    Checks that s is pairwise adjacent and that every member of s is
    adjacent to every parent of i.  The second clause only matters on
    graphs that are not valid CPDAGs, where parents may be nonadjacent to
    siblings; on valid CPDAGs it never fails.
    """
    s = sorted(int(x) for x in s)
    sibs = g.siblings(i)
    for x in s:
        if x not in sibs:
            raise ValueError(f"{x} is not a sibling of {i}")
    for a, b in itertools.combinations(s, 2):
        if not g.has_edge(a, b):
            return False
    pa = g.parents(i)
    for x in s:
        for p in pa:
            if not g.has_edge(x, p):
                return False
    return True


# -- validation ----------------------------------------------------------------


@dataclass(frozen=True)
class CpdagValidation:
    """Report on whether a partially directed graph can serve as a CPDAG."""

    extendable: bool
    undirected_chordal: bool
    problems: tuple[str, ...]

    @property
    def is_valid(self) -> bool:
        return self.extendable and self.undirected_chordal


def validate_cpdag(g: PDGraph) -> CpdagValidation:
    """Check the two structural requirements for a usable CPDAG: a
    consistent extension exists, and the undirected subgraph is chordal."""
    problems = []
    ext = is_extendable(g)
    if not ext:
        problems.append("no consistent extension to a DAG exists")
    und = PDGraph(g.n, undirected=sorted(g.undirected_edges()))
    chordal = is_chordal(und)
    if not chordal:
        problems.append("undirected subgraph is not chordal")
    return CpdagValidation(ext, chordal, tuple(problems))
