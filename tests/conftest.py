"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own algorithms: class
enumeration is re-derived by filtering all edge orientations, partial
correlations are re-derived by the classic recursion, and the skeleton
search by a one-test-at-a-time loop, so agreement is evidence rather than
tautology.
"""

from __future__ import annotations

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
    NumericalRankError,
    PDGraph,
    WeightedDag,
    find_v_structures,
)

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


def brute_force_class(g: PDGraph) -> list[PDGraph]:
    """Every DAG sharing g's skeleton and v-structures whose directed part
    extends g's, found by trying all orientations of the undirected edges."""
    und = sorted(g.undirected_edges())
    base_v = set(find_v_structures(g))
    out = []
    for bits in itertools.product((False, True), repeat=len(und)):
        edges = list(g.directed_edges())
        for (u, v), flip in zip(und, bits):
            edges.append((v, u) if flip else (u, v))
        cand = PDGraph(g.n, directed=edges)
        if cand.is_dag() and set(find_v_structures(cand)) == base_v:
            out.append(cand)
    return out


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
    """Exact covariance of the linear model with the given error variances."""
    from causalspan import structural_covariance

    return CovMatrix(structural_covariance(w.weights, evars))


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
