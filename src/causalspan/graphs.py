"""Partially directed graphs and Markov-equivalence-class machinery.

A partially directed graph mixes directed edges u -> v and undirected edges
u - v, with at most one edge per vertex pair.  The functions here cover the
combinatorics this package needs: collider (v-structure) detection, Meek's
orientation rules, consistent extension to a DAG, enumeration of all DAGs
sharing a graph's skeleton and colliders, the completed partially directed
graph (CPDAG) of a DAG, and the check that a graph can serve as a CPDAG
(it has a consistent extension and a chordal undirected part).

There is one representation: per-vertex Python int bitmasks of parents,
children and siblings (bit v of ``pa[u]`` set means v -> u).  Every
algorithm here runs on those masks, with one reachability closure
(`_reach`), one acyclicity check (`_topological_order`), one collider
finder (`_colliders`) and one place that points collider triples at their
middle vertex (`_orient_colliders`); vertex sets leave the module as
frozensets and edge sets as frozensets of pairs.  `_reach` finds the
undirected components and answers `allows_directed_path` here, and serves
the effect routes' component and ancestor masks and `gauss`'s ancestor
sets; the class search itself needs no reachability (see
`enumerate_dags`).  A class is kept as the product of its undirected
components' orientations (`_class_components`), each component searched
once; `_class_members` expands the product for callers that need the
members themselves.  The PC skeleton search (`pc.estimate_skeleton`) keeps
its adjacency sets as the same masks, walks them with `_bits` and hands
them over as a graph's sibling masks.

The routines take one pass where one suffices: `cpdag_from_dag` labels a
DAG's edges in topological order (Chickering 1995) with no Meek fixpoint;
Meek passes skip the rows no rule can fire on; `extend_to_dag` re-tests
only a removed sink's neighbours and keeps its result on the graph, so
validation and the class search share it; chordality is decided by maximum
cardinality search (Tarjan & Yannakakis 1984).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import NotExtendableError, ResourceCapError

# Enumeration caps: undirected edges per component, and class members.
DEFAULT_MAX_COMPONENT_EDGES = 12
DEFAULT_MAX_DAGS = 25000


def _bits(mask: int) -> Iterator[int]:
    """Vertices of a bitmask, smallest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_vertex(g: PDGraph, v: int, role: str) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"{role} {v} is not a vertex of the graph (0..{g.n - 1})")


def _children_of(pa: Sequence[int]) -> list[int]:
    """Child masks from parent masks."""
    ch = [0] * len(pa)
    for v, m in enumerate(pa):
        for u in _bits(m):
            ch[u] |= 1 << v
    return ch


class PDGraph:
    """Immutable partially directed graph on vertices 0..n-1.

    Stored as per-vertex int bitmasks: ``_pa[v]`` holds the parents of v,
    ``_ch[v]`` its children and ``_sib[v]`` its undirected neighbours.
    Instances are value objects: all mutating operations return new graphs.
    ``_ext``, once set, holds `extend_to_dag`'s result; it is a cache, not
    part of the value.
    """

    __slots__ = ("_pa", "_ch", "_sib", "_ext")

    def __init__(
        self,
        n: int,
        directed: Iterable[tuple[int, int]] = (),
        undirected: Iterable[tuple[int, int]] = (),
    ):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        pa, sib = [0] * n, [0] * n
        seen: set[tuple[int, int]] = set()

        def check(u: int, v: int) -> tuple[int, int]:
            u, v = operator.index(u), operator.index(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge between {u} and {v}")
            seen.add(key)
            return u, v

        for e in directed:
            u, v = check(*e)
            pa[v] |= 1 << u
        for e in undirected:
            u, v = check(*e)
            sib[u] |= 1 << v
            sib[v] |= 1 << u
        self._set(pa, _children_of(pa), sib)

    def _set(self, pa: Sequence[int], ch: Sequence[int], sib: Sequence[int]) -> None:
        self._pa = tuple(pa)
        self._ch = tuple(ch)
        self._sib = tuple(sib)

    @classmethod
    def _from_masks(cls, pa: Sequence[int], ch: Sequence[int], sib: Sequence[int]) -> "PDGraph":
        """Graph of parent, child and sibling masks, trusted to be consistent."""
        g = object.__new__(cls)
        g._set(pa, ch, sib)
        return g

    def _adjacency(self) -> list[int]:
        return [p | c | s for p, c, s in zip(self._pa, self._ch, self._sib)]

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._pa)

    def parents(self, i: int) -> frozenset[int]:
        return frozenset(_bits(self._pa[i]))

    def children(self, i: int) -> frozenset[int]:
        return frozenset(_bits(self._ch[i]))

    def siblings(self, i: int) -> frozenset[int]:
        """Vertices joined to i by an undirected edge."""
        return frozenset(_bits(self._sib[i]))

    def adjacent(self, i: int) -> frozenset[int]:
        return frozenset(_bits(self._pa[i] | self._ch[i] | self._sib[i]))

    def directed_edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for v, m in enumerate(self._pa) for u in _bits(m))

    def undirected_edges(self) -> frozenset[tuple[int, int]]:
        """Undirected edges as (u, v) pairs with u < v."""
        return frozenset(
            (u, v) for u, m in enumerate(self._sib) for v in _bits(m >> u << u)
        )

    # -- structure predicates --------------------------------------------

    def is_fully_directed(self) -> bool:
        return not any(self._sib)

    def is_fully_undirected(self) -> bool:
        return not any(self._pa)

    def topological_order(self) -> list[int] | None:
        """Order of the directed edges, smallest ready vertex first, so it is
        deterministic; None if there is a directed cycle.  Undirected edges
        are ignored."""
        return _topological_order(self._pa)

    def is_dag(self) -> bool:
        return self.is_fully_directed() and self.topological_order() is not None

    # -- derived graphs ---------------------------------------------------

    def skeleton(self) -> "PDGraph":
        none = [0] * self.n
        return PDGraph._from_masks(none, none, self._adjacency())

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PDGraph):
            return NotImplemented
        return self._pa == other._pa and self._sib == other._sib

    def __hash__(self) -> int:
        return hash((self._pa, self._sib))

    def __repr__(self) -> str:
        d = sorted(self.directed_edges())
        u = sorted(self.undirected_edges())
        return f"PDGraph(n={self.n}, directed={d}, undirected={u})"

    # -- serialization ------------------------------------------------------

    def to_json_dict(self, names: list[str] | None = None) -> dict:
        """JSON-ready dict: {"p": n, "names": [...], "edges": [...]} where an
        undirected edge appears once with from < to and "directed": false."""
        if names is None:
            names = [f"V{i}" for i in range(self.n)]
        if len(names) != self.n:
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
        return {"p": self.n, "names": list(names), "edges": edges}


# -- mask primitives -----------------------------------------------------------


def _reach(step: Sequence[int], seen: int) -> int:
    """The vertex set `seen` closed under following `step` masks."""
    frontier = seen
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= step[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def _dag_of(pa: Sequence[int]) -> PDGraph:
    """The DAG with parent masks `pa`."""
    return PDGraph._from_masks(pa, _children_of(pa), [0] * len(pa))


def _topological_order(pa: Sequence[int]) -> list[int] | None:
    """Repeatedly place the smallest vertex whose parents are all placed;
    None if some vertices never qualify (a directed cycle)."""
    order: list[int] = []
    left = (1 << len(pa)) - 1
    while left:
        for v in _bits(left):
            if not pa[v] & left:
                break
        else:
            return None
        order.append(v)
        left ^= 1 << v
    return order


def _colliders(pa: Sequence[int], adj: Sequence[int]) -> set[tuple[int, int, int]]:
    """Triples (a, j, c), a < c, with a -> j <- c and a, c nonadjacent."""
    return {
        (a, j, c)
        for j, m in enumerate(pa)
        for a in _bits(m)
        for c in _bits((m & ~adj[a]) >> a + 1 << a + 1)
    }


def _pairwise_adjacent(vs: int, adj: Sequence[int]) -> bool:
    """True if the vertices of mask `vs` form a clique."""
    return all(not vs & ~adj[x] & ~(1 << x) for x in _bits(vs))


# -- colliders and orientation rules ----------------------------------------


def _orient_colliders(
    adj: Sequence[int],
    triples: Iterable[tuple[int, int, int]],
    overwrites: list[dict] | None = None,
) -> PDGraph:
    """The graph with adjacency masks `adj` in which both edges of each
    triple (i, j, k) point at j, in the given order, and every other edge is
    undirected.  A later triple overwrites an earlier arrowhead; each such
    flip of an edge j -> a is appended to `overwrites`, when given, as
    {"edge": [j, a], "new": [a, j], "triple": [i, j, k]}."""
    pa = [0] * len(adj)
    for i, j, k in triples:
        for a in (i, k):
            if pa[a] >> j & 1:
                pa[a] ^= 1 << j
                if overwrites is not None:
                    overwrites.append({"edge": [j, a], "new": [a, j], "triple": [i, j, k]})
            pa[j] |= 1 << a
    ch = _children_of(pa)
    sib = [m & ~p & ~c for m, p, c in zip(adj, pa, ch)]
    return PDGraph._from_masks(pa, ch, sib)


def _meek_pass(pa: list[int], ch: list[int], sib: list[int], adj: Sequence[int]) -> bool:
    """Apply Meek's rules R1-R4 once over the whole graph, orienting the
    masks in place.  Only undirected edges gain direction; an edge already
    directed is never flipped.  R1 reads the directed edges as they stood
    at the start of the pass; R2-R4 each scan the undirected pairs (both
    orders, sorted) as they stood at the start of the rule.  Returns True
    if anything changed.  A rule reads each sibling row at its turn, which
    gives the same pairs: orienting a - b changes no other pair of row a.
    Every rule needs a directed edge; R2 skips a with no child, R3 and R4
    skip b with fewer than two parents or with none."""
    if not any(pa) or not any(sib):
        return False
    changed = False

    def orient(a: int, b: int) -> None:
        nonlocal changed
        sib[a] &= ~(1 << b)
        sib[b] &= ~(1 << a)
        ch[a] |= 1 << b
        pa[b] |= 1 << a
        changed = True

    # R1: a -> b - c with a, c nonadjacent orients b -> c, else a -> b <- c
    # would be a new collider.
    for a, m in enumerate(tuple(ch)):
        for b in _bits(m):
            for c in _bits(sib[b] & ~adj[a]):
                orient(b, c)

    # R2: a -> b -> c with a - c orients a -> c, else there is a cycle.
    for a, m in enumerate(sib):
        if ch[a]:
            for c in _bits(m):
                if ch[a] & pa[c]:
                    orient(a, c)

    # R3: a - b with a - c, a - d, c -> b, d -> b, c and d nonadjacent
    # orients a -> b.
    for a, m in enumerate(sib):
        for b in _bits(m):
            cd = sib[a] & pa[b]
            if cd & (cd - 1) and not _pairwise_adjacent(cd, adj):
                orient(a, b)

    # R4: a - b with a - d, d -> c, c -> b, b and d nonadjacent, and a
    # adjacent to c orients a -> b.
    for a, m in enumerate(sib):
        for b in _bits(m):
            if not pa[b]:
                continue
            for d in _bits(sib[a] & ~adj[b] & ~(1 << b)):
                if ch[d] & pa[b] & adj[a]:
                    orient(a, b)
                    break

    return changed


def meek_closure(g: PDGraph) -> PDGraph:
    """Apply Meek's orientation rules until no rule fires.

    Undirected edges whose direction is forced by the existing directed
    edges become directed; nothing else changes.  The scan order is fixed,
    so the result is deterministic; on inputs that admit a consistent
    extension the result is independent of rule order.
    """
    pa, ch, sib = list(g._pa), list(g._ch), list(g._sib)
    adj = g._adjacency()
    while _meek_pass(pa, ch, sib, adj):
        pass
    return PDGraph._from_masks(pa, ch, sib)


# -- consistent extension -----------------------------------------------------


def extend_to_dag(g: PDGraph) -> PDGraph | None:
    """Orient all undirected edges of g into a DAG with the same skeleton
    and the same colliders, or return None if no such DAG exists.

    Classic sink elimination (Dor & Tarsi 1992): repeatedly take the
    smallest remaining vertex with no outgoing directed edge whose
    undirected neighbours are adjacent to all of its other neighbours,
    point its undirected edges at it, and remove it.  The result is kept on
    g, so each graph object is extended once.
    """
    if not hasattr(g, "_ext"):
        g._ext = _sink_elimination(g)
    return g._ext


def _sink_elimination(g: PDGraph) -> PDGraph | None:
    """`extend_to_dag` without the memo.  A removal changes only its
    neighbours' eligibility, so every remaining vertex outside `untested`
    is still ineligible, and the smallest untested one that passes is the
    smallest eligible vertex."""
    adj, ch, sib = g._adjacency(), g._ch, g._sib
    pa = list(g._pa)
    alive = untested = (1 << g.n) - 1
    while untested:
        low = untested & -untested
        untested ^= low
        x = low.bit_length() - 1
        if ch[x] & alive:
            continue
        nbrs = adj[x] & alive
        if all(not nbrs & ~adj[w] & ~(1 << w) for w in _bits(sib[x] & alive)):
            pa[x] |= sib[x] & alive
            alive ^= low
            untested |= nbrs
    return None if alive else _dag_of(pa)


# -- equivalence-class enumeration -------------------------------------------


def _undirected_components(sib: Sequence[int]) -> list[int]:
    """Vertex masks of the connected components of the undirected subgraph
    that have an edge, by smallest vertex."""
    comps = []
    left = sum(1 << v for v, m in enumerate(sib) if m)
    while left:
        comp = _reach(sib, left & -left)
        comps.append(comp)
        left &= ~comp
    return comps


class _Component(NamedTuple):
    """One undirected component of a graph and the orientations of its
    edges that the class search admits, in search order, each as the
    graph's per-vertex parent masks with only this component oriented."""

    vertices: tuple[int, ...]
    orientations: list[tuple[int, ...]]


def _orientations(
    g: PDGraph,
    comp: int,
    und: Sequence[tuple[int, int]],
    adj: Sequence[int],
    size: int,
    max_dags: int,
) -> list[tuple[int, ...]]:
    """The orientations of component `comp`'s edges, as `_Component`
    holds them, that the depth-first search of `enumerate_dags` reaches
    on the component's own sorted edges.  It raises the class cap error
    as soon as `size` times the orientations reached passes `max_dags`.
    Its admission rule reads only g's directed edges and the component's
    own orientations, so each component is searched alone."""
    edges = [(u, v) for u, v in und if comp >> u & 1]
    children, parents = list(g._ch), list(g._pa)
    listed: list[tuple[int, ...]] = []

    def rec(k: int) -> None:
        if k == len(edges):
            listed.append(tuple(parents))
            if size * len(listed) > max_dags:
                raise ResourceCapError(f"equivalence class exceeds {max_dags} DAGs")
            return
        u, v = edges[k]
        for a, b in ((u, v), (v, u)):
            if parents[b] & ~adj[a] or children[b] & parents[a]:
                continue  # new collider at b, or a directed triangle
            children[a] |= 1 << b
            parents[b] |= 1 << a
            rec(k + 1)
            children[a] &= ~(1 << b)
            parents[b] &= ~(1 << a)

    rec(0)
    return listed


def _class_components(
    g: PDGraph, max_component_edges: int, max_dags: int
) -> list[_Component]:
    """g's class as the product of its undirected components' orientations
    (Andersson, Madigan & Perlman 1997), under the checks and caps that
    `enumerate_dags` describes, in its order: the extension pre-check, each
    component's edge cap, then the class cap.  The class size is the
    product of the components' counts.  Every component has an orientation
    once g extends, so the product only grows, and each component's search
    stops as soon as the running product passes `max_dags`: no component
    is listed past the cap."""
    if extend_to_dag(g) is None:
        raise NotExtendableError("graph has no consistent extension to a DAG")
    comps = _undirected_components(g._sib)
    for comp in comps:
        edges = sum(g._sib[v].bit_count() for v in _bits(comp)) // 2
        if edges > max_component_edges:
            raise ResourceCapError(
                f"an undirected component has {edges} edges "
                f"(cap {max_component_edges})"
            )
    if not comps and max_dags < 1:  # g itself is the class's one member
        raise ResourceCapError(f"equivalence class exceeds {max_dags} DAGs")
    und = sorted(g.undirected_edges())
    adj = g._adjacency()
    out, size = [], 1
    for comp in comps:
        listed = _orientations(g, comp, und, adj, size, max_dags)
        size *= len(listed)
        out.append(_Component(tuple(_bits(comp)), listed))
    return out


def _class_members(g: PDGraph, comps: Sequence[_Component]) -> list[tuple[int, ...]]:
    """Per-vertex parent masks of every member of g's class, from its
    `_class_components`, in `enumerate_dags` order.  A member's
    orientation vector over g's sorted undirected edges, read as a binary
    number, ORs one number per component, which is its sort key."""
    und = sorted(g.undirected_edges())
    keyed = []
    for c in comps:
        bits = [(u, v, 1 << len(und) - 1 - k) for k, (u, v) in enumerate(und) if u in c.vertices]
        keyed.append([(sum(w for u, v, w in bits if pa[u] >> v & 1), pa) for pa in c.orientations])
    members = []
    for combo in itertools.product(*keyed):
        pa, key = list(g._pa), 0
        for c, (part, oriented) in zip(comps, combo):
            key |= part
            for v in c.vertices:
                pa[v] = oriented[v]
        members.append((key, tuple(pa)))
    members.sort(key=operator.itemgetter(0))
    return [pa for _, pa in members]


def enumerate_dags(
    g: PDGraph,
    max_component_edges: int = DEFAULT_MAX_COMPONENT_EDGES,
    max_dags: int = DEFAULT_MAX_DAGS,
) -> list[PDGraph]:
    """All DAGs with g's skeleton and collider set, obtained by orienting
    g's undirected edges.  Existing directed edges are kept as they are.

    The class is the product of the orientations of g's undirected
    components (Andersson, Madigan & Perlman 1997): whether an
    orientation is admitted depends only on g's directed edges and the
    orientations in its own component.  So each component is searched
    once, and the members are the combinations of one orientation per
    component.  A depth-first search on the parent and child masks orients
    a component's undirected edges one at a time in sorted order, trying
    (u, v) before (v, u).  An orientation a -> b is admitted only if it creates no new
    collider at b (every parent of b is adjacent to a) and closes no
    directed triangle (no c with b -> c -> a).  So every leaf is a member
    and needs no further check.  A new collider needs two nonadjacent
    parents of one vertex, the later of which the rule refused.  A leaf
    has no directed cycle either, although the rule only looks at
    triangles, because g passed the extension pre-check:
    - a chordless cycle of length >= 4 in the skeleton has a sink in the
      consistent extension D; that sink is a collider of D, hence of g, so
      g fixes both of its cycle edges inward and no leaf directs the cycle;
    - a shortest directed cycle of length >= 4 with a chord gets shorter
      whichever way the chord points, so a cyclic leaf has a directed
      triangle;
    - the search refuses the last of a triangle's edges it orients, and a
      triangle directed in g already failed the pre-check.
    The triangle rule prunes later than a full reachability test would (a
    cycle whose chord is not oriented yet), so the search may visit a few
    more dead-end prefixes, but it reaches the same leaves.

    The output order is deterministic: DAGs come in the order of their
    orientation vector over g's whole sorted undirected edge list (0 =
    kept as (u, v) with u < v, 1 = reversed), the order in which one
    search over all edges would reach them.

    Raises NotExtendableError if g has no consistent extension, else
    ResourceCapError if any undirected connected component has more than
    `max_component_edges` edges, else ResourceCapError if the class has
    more than `max_dags` DAGs, which the search finds out before it lists
    a component past the cap.
    """
    comps = _class_components(g, max_component_edges, max_dags)
    return [_dag_of(pa) for pa in _class_members(g, comps)]


def cpdag_from_dag(d: PDGraph) -> PDGraph:
    """The completed partially directed graph of d: its skeleton with every
    edge directed that has the same orientation in all DAGs equivalent to d
    (same skeleton, same colliders), undirected otherwise.

    Chickering's labelling visits each y in topological order with x its
    latest parent.  If a compelled w -> x has w not a parent of y, or a
    parent of y other than x is not adjacent to x, every edge into y is
    compelled; otherwise those from x's compelled parents are."""
    order = d.topological_order()
    if order is None or not d.is_fully_directed():
        raise ValueError("input must be a DAG")
    pa, rank = d._pa, {v: r for r, v in enumerate(order)}
    compelled = [0] * d.n
    for y in order:
        if pa[y]:
            x = max(_bits(pa[y]), key=rank.__getitem__)
            strict = compelled[x] & ~pa[y] or pa[y] & ~pa[x] & ~(1 << x)
            compelled[y] = pa[y] if strict else compelled[x]
    reversible = [m & ~c for m, c in zip(pa, compelled)]
    sib = [r | c for r, c in zip(reversible, _children_of(reversible))]
    return PDGraph._from_masks(compelled, [c & ~s for c, s in zip(d._ch, sib)], sib)


# -- reachability -----------------------------------------------------------


def allows_directed_path(
    g: PDGraph,
    i: int,
    y: int,
    max_component_edges: int = DEFAULT_MAX_COMPONENT_EDGES,
    max_dags: int = DEFAULT_MAX_DAGS,
) -> bool:
    """True if some DAG with g's skeleton and colliders has a directed path
    from i to y.

    Two shortcuts run first: no skeleton path means no, and an existing
    directed path means yes (directed edges of g appear in every such DAG).
    Otherwise the members of the equivalence class are listed, under the
    same caps as enumerate_dags, and each member's ancestors of y are read
    off its parent masks (`_class_ancestors`).
    """
    _check_vertex(g, i, "covariate")
    _check_vertex(g, y, "response")
    if not _reach(g._adjacency(), 1 << i) >> y & 1:
        return False
    if _reach(g._ch, 1 << i) >> y & 1:
        return True
    return bool(_class_ancestors(g, y, max_component_edges, max_dags) >> i & 1)


@functools.lru_cache(maxsize=1)
def _class_ancestors(g: PDGraph, y: int, max_component_edges: int, max_dags: int) -> int:
    """The vertices that are ancestors of y in some member of g's class.
    The last answer is kept, so one plan's covariates list the class once."""
    members = _class_members(g, _class_components(g, max_component_edges, max_dags))
    return functools.reduce(operator.or_, [_reach(pa, 1 << y) for pa in members], 0)


# -- local validity -----------------------------------------------------------


def is_locally_valid(g: PDGraph, i: int, s: Iterable[int]) -> bool:
    """True if pointing the siblings in s at i (and the rest away) creates
    no collider at i.

    Checks that s is pairwise adjacent and that every member of s is
    adjacent to every parent of i.  The second clause only matters on
    graphs that are not valid CPDAGs, where parents may be nonadjacent to
    siblings; on valid CPDAGs it never fails.
    """
    _check_vertex(g, i, "covariate")
    mask = 0
    for x in sorted(int(x) for x in s):
        if x < 0 or not g._sib[i] >> x & 1:
            raise ValueError(f"{x} is not a sibling of {i}")
        mask |= 1 << x
    adj = g._adjacency()
    return _pairwise_adjacent(mask, adj) and all(
        not g._pa[i] & ~adj[x] for x in _bits(mask)
    )


# -- validation ----------------------------------------------------------------


def _perfect_elimination_order(adj: Sequence[int]) -> list[int] | None:
    """A perfect elimination order of the undirected graph with adjacency
    masks `adj`, or None if it is not chordal.  Maximum cardinality search
    visits next a vertex with the most visited neighbours; the graph is
    chordal exactly when each vertex's visited neighbours, less the last
    visited, are adjacent to that last one, and the reversed visit order is
    then perfect.  Vertices without an edge are not visited and come last."""
    n = len(adj)
    buckets = [sum(1 << v for v, m in enumerate(adj) if m)] + [0] * n
    weight, visit = [0] * n, [0] * n
    visited = top = 0
    for k in range(1, buckets[0].bit_count() + 1):
        while not buckets[top]:
            top -= 1
        v = (buckets[top] & -buckets[top]).bit_length() - 1
        buckets[top] ^= 1 << v
        if earlier := adj[v] & visited:
            last = max(_bits(earlier), key=visit.__getitem__)
            if earlier & ~adj[last] & ~(1 << last):
                return None
        visit[v], visited = k, visited | 1 << v
        for u in _bits(adj[v] & ~visited):
            buckets[weight[u]] ^= 1 << u
            weight[u] += 1
            buckets[weight[u]] |= 1 << u
        top += 1
    return sorted(range(n), key=lambda v: -visit[v])


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
    ext = extend_to_dag(g) is not None
    if not ext:
        problems.append("no consistent extension to a DAG exists")
    chordal = _perfect_elimination_order(g._sib) is not None
    if not chordal:
        problems.append("undirected subgraph is not chordal")
    return CpdagValidation(ext, chordal, tuple(problems))
