"""Synthetic linear Gaussian models and the replicated evaluation loop.

Random DAGs use the vertex order as topological order: each edge j -> i
with j < i enters independently with probability en / (p - 1) on p
vertices, so every vertex's expected total degree is en.  Edge weights are
uniform on [1, 2]; noise is standard normal.  A blocked variant confines
edges to consecutive equal-size vertex groups, which keeps large systems
tractable because every question about one block stays inside it.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .effects import DEFAULT_MAX_SIBLINGS, EffectMultiset, _theta, local_effects
from .errors import CausalSpanError, ResourceCapError
from .gauss import CITestConfig, CovMatrix, Dataset, structural_covariance
from .graphs import DEFAULT_MAX_COMPONENT_EDGES, DEFAULT_MAX_DAGS, PDGraph, cpdag_from_dag
from .pc import _batch_size, _pc_result, _sample_matrices, _skeletons, repair_cpdag


@dataclass(frozen=True)
class WeightedDag:
    """A DAG together with edge coefficients.

    weights[i, j] is the coefficient of X_j in the equation for X_i and is
    nonzero exactly where the graph has the edge j -> i.
    """

    graph: PDGraph
    weights: np.ndarray

    def __post_init__(self):
        if not self.graph.is_dag():
            raise ValueError("WeightedDag requires a DAG")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.graph.n, self.graph.n):
            raise ValueError("weight matrix shape must match the graph")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        for i in range(self.graph.n):
            pa = self.graph.parents(i)
            nz = {int(j) for j in np.nonzero(w[i, :])[0]}
            if nz != set(pa):
                raise ValueError(
                    f"weights for vertex {i} do not match its parents"
                )
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        order = self.graph.topological_order()
        object.__setattr__(self, "_order", tuple(order))

    @property
    def order(self) -> tuple[int, ...]:
        """Cached topological order of the graph."""
        return self._order  # type: ignore[attr-defined]

    @property
    def n(self) -> int:
        return self.graph.n


@dataclass(frozen=True)
class SimScenario:
    """One replicated experiment configuration."""

    n_vertices: int
    en: float
    n: int
    n_reps: int
    blocks: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_vertices < 2:
            raise ValueError("need at least two vertices")
        if not (0 < self.en < self.n_vertices):
            raise ValueError("expected degree must lie in (0, n_vertices)")
        if self.n < 2:
            raise ValueError("need at least two observations")
        if self.n_reps < 1:
            raise ValueError("need at least one replicate")
        if self.blocks is not None:
            if self.blocks < 1 or self.n_vertices % self.blocks != 0:
                raise ValueError("blocks must evenly divide the vertex count")
            if self.n_vertices // self.blocks < 2:
                raise ValueError("blocks must hold at least two vertices")


@dataclass(frozen=True)
class SimRecord:
    """One method's outcome on one replicate."""

    rep: int
    method: str
    e2_ave: float | None
    e2_min: float | None
    runtime_s: float
    status: str
    x: int
    y: int


def _block_of(v: int, block_size: int) -> int:
    return v // block_size


def random_weighted_dag(
    n_vertices: int,
    en: float,
    rng: np.random.Generator,
    blocks: int | None = None,
) -> WeightedDag:
    """Draw a random weighted DAG as described in the module docstring."""
    if blocks is not None:
        block_size = n_vertices // blocks
        prob = min(1.0, en / (block_size - 1))
    else:
        block_size = n_vertices
        prob = min(1.0, en / (n_vertices - 1))
    coin = rng.random((n_vertices, n_vertices))
    magnitude = rng.uniform(1.0, 2.0, size=(n_vertices, n_vertices))
    weights = np.zeros((n_vertices, n_vertices))
    edges = []
    for j in range(n_vertices):
        for i in range(j + 1, n_vertices):
            if _block_of(i, block_size) != _block_of(j, block_size):
                continue
            if coin[j, i] < prob:
                edges.append((j, i))
                weights[i, j] = magnitude[j, i]
    return WeightedDag(PDGraph(n_vertices, directed=edges), weights)


def generate_data(
    w: WeightedDag,
    n: int,
    rng: np.random.Generator | int,
    response: int | None = None,
    names: Sequence[str] | None = None,
) -> Dataset:
    """Sample n rows of the linear system X = W X + e with standard normal
    noise, visiting vertices in topological order."""
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    eps = rng.standard_normal((n, w.n))
    values = np.zeros((n, w.n))
    for i in w.order:
        pa = np.nonzero(w.weights[i, :])[0]
        values[:, i] = eps[:, i]
        if pa.size:
            values[:, i] += values[:, pa] @ w.weights[i, pa]
    if names is None:
        names = tuple(f"X{i + 1}" for i in range(w.n))
    if response is None:
        response = w.n - 1
    return Dataset(values, tuple(names), response)


def population_covariance(w: WeightedDag) -> CovMatrix:
    """Exact covariance of the system with unit noise variances."""
    return CovMatrix(structural_covariance(w.weights), n=None)


def population_effects(
    w: WeightedDag,
    i: int,
    y: int,
    method: str = "global",
    mods: frozenset[str] | tuple[str, ...] = (),
    max_component_edges: int = DEFAULT_MAX_COMPONENT_EDGES,
    max_dags: int = DEFAULT_MAX_DAGS,
    max_siblings: int = DEFAULT_MAX_SIBLINGS,
) -> EffectMultiset:
    """The effect multiset a perfect oracle would report: the CPDAG of the
    true DAG combined with the exact covariance."""
    return _route_effects(
        population_covariance(w), cpdag_from_dag(w.graph), i, y, method, mods,
        max_component_edges, max_dags, max_siblings,
    )


def _route_effects(
    source: Dataset | CovMatrix, g: PDGraph, i: int, y: int, method: str,
    mods: frozenset[str] | tuple[str, ...], max_component_edges: int, max_dags: int,
    max_siblings: int, classes: dict | None = None,
) -> EffectMultiset:
    """Covariate i's effect multiset by one route.  The global route
    solves i's row only (its entries equal
    `global_effects(...).row_multiset(i)`) and reads or adds g's member
    list in `classes` (see `_theta`); the local route is `local_effects`."""
    if method == "global":
        return _theta(
            source, g, (i,), y, mods, max_component_edges, max_dags, classes
        ).row_multiset(i)
    if method == "local":
        return local_effects(
            source, g, i, y, mods, max_siblings, max_component_edges, max_dags
        )
    raise ValueError("method must be 'global' or 'local'")


def error_measures(
    estimate: EffectMultiset, truth: EffectMultiset
) -> tuple[float, float]:
    """Squared errors of two multiset summaries: the mean absolute value
    and the minimum absolute value, estimate versus truth."""
    e_ave = (estimate.mean_abs() - truth.mean_abs()) ** 2
    e_min = (estimate.min_abs() - truth.min_abs()) ** 2
    return float(e_ave), float(e_min)


def run_scenario(
    scenario: SimScenario,
    methods: Sequence[str] = ("local", "global"),
    alpha: float = 0.01,
    compute_truth: bool = True,
    max_component_edges: int = DEFAULT_MAX_COMPONENT_EDGES,
    max_dags: int = DEFAULT_MAX_DAGS,
    max_siblings: int = DEFAULT_MAX_SIBLINGS,
) -> list[SimRecord]:
    """Run the replicated experiment.

    Each replicate draws a model, picks a response and a covariate
    (uniformly; from the same block when blocked), samples data, computes
    the true effect multiset, and runs every requested method against it.
    Failures are recorded per replicate and the scenario continues.  The
    random stream is split per replicate, so any execution order gives the
    same records.  Each equivalence class is listed once per call: the
    truth, the global estimate and later replicates reuse the member list
    of a graph already listed.

    The replicates run in groups of `pc._batch_size(p)`, each in three
    passes.  The first draws the group's replicates in turn and keeps only
    each one's sample covariance and correlation matrix, not its n x p
    values.  The second runs the group's PC skeletons as one batch
    (`pc._skeletons`), which fills the skeleton's stacks across
    replicates.  The third orients, repairs and estimates each replicate;
    the routes read the data only through the sample covariance.  A
    replicate's `runtime_s` is its share of the batch's skeleton time (the
    batch time over the replicates in it), plus its own correlation,
    orientation and repair time, plus the method's time.
    """
    for m in methods:
        if m not in ("local", "global"):
            raise ValueError(f"unknown method: {m}")
    cfg = CITestConfig(alpha)
    children = np.random.SeedSequence(scenario.seed).spawn(scenario.n_reps)
    size = _batch_size(scenario.n_vertices)
    records: list[SimRecord] = []
    classes: dict = {}
    for start in range(0, scenario.n_reps, size):
        draws, corrs = zip(*(_draw(scenario, child) for child in children[start : start + size]))
        t0 = time.perf_counter()
        skeletons = _skeletons(list(corrs), cfg)
        batched = sum(isinstance(corr, CovMatrix) for corr in corrs)
        share = (time.perf_counter() - t0) / max(batched, 1)
        for k, ((w, x, y, cov, own), skeleton) in enumerate(zip(draws, skeletons), start):
            # The replicate's own correlation time and its share of the batch.
            own += 0.0 if cov is None else share
            truth: EffectMultiset | None = None
            truth_status = "ok"
            if compute_truth:
                try:
                    truth = _route_effects(
                        population_covariance(w), cpdag_from_dag(w.graph), x, y, "global", (),
                        max_component_edges, max_dags, max_siblings, classes,
                    )
                except ResourceCapError:
                    truth_status = "truth_resource_error"
                except CausalSpanError:
                    truth_status = "truth_error"
            t0 = time.perf_counter()
            graph = None
            pc_error: CausalSpanError | None = None
            if isinstance(skeleton, CausalSpanError):
                pc_error = skeleton
            else:
                try:
                    pc_res = _pc_result(*skeleton)
                    graph = pc_res.graph
                    if not pc_res.validation.is_valid:
                        # Both methods see the same repaired structure so the
                        # error comparison isolates the effect-computation
                        # strategy.
                        graph = repair_cpdag(pc_res, seed=scenario.seed).graph
                except CausalSpanError as e:
                    pc_error = e
            structure_time = own + time.perf_counter() - t0
            for method in methods:
                t1 = time.perf_counter()
                est: EffectMultiset | None = None
                status = "ok"
                if pc_error is not None:
                    status = f"failed:{type(pc_error).__name__}"
                else:
                    try:
                        est = _route_effects(
                            cov, graph, x, y, method, (), max_component_edges, max_dags,
                            max_siblings, classes,
                        )
                    except CausalSpanError as e:
                        status = f"failed:{type(e).__name__}"
                runtime = structure_time + (time.perf_counter() - t1)
                e2_ave = e2_min = None
                if est is not None and truth is not None:
                    e2_ave, e2_min = error_measures(est, truth)
                elif est is not None and compute_truth:
                    status = truth_status
                records.append(
                    SimRecord(k, method, e2_ave, e2_min, runtime, status, x, y)
                )
    return records


def _draw(
    scenario: SimScenario, child: np.random.SeedSequence
) -> tuple[tuple, CovMatrix | CausalSpanError]:
    """One replicate, drawn from its own stream: (its model, covariate,
    response, sample covariance and the seconds its correlation took), and
    that correlation matrix, or the error making it raised (the covariance
    is then None)."""
    rng = np.random.default_rng(child)
    block_size = scenario.n_vertices // (scenario.blocks or 1)
    w = random_weighted_dag(scenario.n_vertices, scenario.en, rng, scenario.blocks)
    y = int(rng.integers(scenario.n_vertices))
    same_block = [
        v
        for v in range(scenario.n_vertices)
        if v != y and _block_of(v, block_size) == _block_of(y, block_size)
    ]
    x = int(rng.choice(same_block))
    data = generate_data(w, scenario.n, rng, response=y)
    t0 = time.perf_counter()
    cov, corr = _sample_matrices(data)
    return (w, x, y, cov, time.perf_counter() - t0), corr


CSV_COLUMNS = ("rep", "method", "e2_ave", "e2_min", "runtime_s", "status")


def write_records_csv(records: Iterable[SimRecord], fileobj, timing: bool = True) -> None:
    """Write replicate records as CSV.  With timing off the runtime column
    is left empty, which keeps the bytes reproducible across runs."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.rep,
                r.method,
                "" if r.e2_ave is None else repr(r.e2_ave),
                "" if r.e2_min is None else repr(r.e2_min),
                repr(round(r.runtime_s, 6)) if timing else "",
                r.status,
            ]
        )


def summarize_records(records: Sequence[SimRecord]) -> dict[str, dict[str, float | int]]:
    """Per-method medians of the error measures and mean runtime over the
    replicates that succeeded."""
    out: dict[str, dict[str, float | int]] = {}
    for method in sorted({r.method for r in records}):
        rows = [r for r in records if r.method == method]
        ok = [r for r in rows if r.status == "ok" and r.e2_ave is not None]
        summary: dict[str, float | int] = {
            "replicates": len(rows),
            "succeeded": len(ok),
        }
        if ok:
            summary["median_e2_ave"] = float(statistics.median(r.e2_ave for r in ok))
            summary["median_e2_min"] = float(statistics.median(r.e2_min for r in ok))
        timed = [r for r in rows if r.status == "ok"]
        if timed:
            summary["mean_runtime_s"] = float(
                sum(r.runtime_s for r in timed) / len(timed)
            )
        out[method] = summary
    return out
