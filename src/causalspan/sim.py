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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .effects import DEFAULT_MAX_SIBLINGS, EffectMultiset, _Plan, _finish_plans, _route_plan
from .effects import _solved
from .errors import CausalSpanError, DegenerateDataError, ResourceCapError
from .gauss import CITestConfig, CovMatrix, Dataset, _covariance_values, structural_covariance
from .graphs import DEFAULT_MAX_COMPONENT_EDGES, DEFAULT_MAX_DAGS, PDGraph, cpdag_from_dag
from .pc import _batch_size, _pc_batch, _pc_result, repair_cpdag


@dataclass(frozen=True)
class WeightedDag:
    """A DAG together with edge coefficients.

    weights[i, j] is the coefficient of X_j in the equation for X_i and is
    nonzero exactly where the graph has the edge j -> i.
    """

    graph: PDGraph
    weights: np.ndarray

    def __post_init__(self):
        order = self.graph.topological_order()
        if order is None or not self.graph.is_fully_directed():
            raise ValueError("WeightedDag requires a DAG")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.graph.n, self.graph.n):
            raise ValueError("weight matrix shape must match the graph")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        edges = np.array(list(self.graph.directed_edges()), dtype=np.intp).reshape(-1, 2)
        parents = np.zeros(w.shape, dtype=bool)
        parents[edges[:, 1], edges[:, 0]] = True
        wrong = ((w != 0) != parents).any(axis=1)
        if wrong.any():
            raise ValueError(f"weights for vertex {wrong.argmax()} do not match its parents")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
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
    block = _block_of(np.arange(n_vertices), block_size)
    # Row-major order lists the edges j -> i by j, then i.
    js, is_ = np.nonzero(np.triu(coin < prob, 1) & (block[:, None] == block))
    weights = np.zeros((n_vertices, n_vertices))
    weights[is_, js] = magnitude[js, is_]
    edges = list(zip(js.tolist(), is_.tolist()))
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
    cov = population_covariance(w)
    plan = _route_plan(method, cpdag_from_dag(w.graph), (i,), y, mods, max_siblings,
                       max_component_edges, max_dags)
    return _solved(cov, plan)[0]


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
    truth, the global estimate and later replicates reuse the components
    (`graphs._class_components`) of a graph already listed.

    The replicates run in batches of `pc._batch_size(p)`, each in four
    passes.  The first draws the batch's replicates in turn and reduces
    each one's values at once to its unchecked sample covariance, so no
    n x p array outlives its replicate.  The second runs the batch's PC
    skeletons in one `pc._pc_batch` call, which also makes and checks
    their sample matrices, and (with the truth) checks the batch's
    population covariances in one `CovMatrix._stack` pass.  A draw that
    fails ends the first pass: the second runs on the replicates drawn
    before it, so their check errors come first, and then the draw's
    error is raised.  The third orients and repairs each replicate's
    estimate and appends one plan for its truth and one per method: an
    `effects._route_plan`, or, when the estimate failed, a plan whose one
    covariate's entry is that error.  The fourth solves them all in one
    `_finish_plans` call, which builds every multiset, before it scores
    each replicate; the routes read the data only through the sample
    covariance.  A replicate's `runtime_s` leaves out the truth's work, as
    it did when each replicate ran alone.  It is its own reduction,
    orientation and repair time; when its matrices were made, its share of
    the `_pc_batch` call (the call's time over the replicates whose
    matrices it made); and the method's planning time and its plan's share
    of the regression solve (the solve's time over the requests, for the
    plan's).
    """
    for m in methods:
        if m not in ("local", "global"):
            raise ValueError(f"unknown method: {m}")
    cfg = CITestConfig(alpha)
    caps = (max_siblings, max_component_edges, max_dags)
    children = np.random.SeedSequence(scenario.seed).spawn(scenario.n_reps)
    size = _batch_size(scenario.n_vertices)
    records: list[SimRecord] = []
    classes: dict = {}
    for start in range(0, scenario.n_reps, size):
        draws: list[_Draw] = []
        failure = None
        for child in children[start : start + size]:
            try:
                draws.append(_draw(scenario, child))
            except Exception as e:
                failure = e
                break
        if not draws:
            raise failure
        t0 = time.perf_counter()
        batch = _pc_batch([d.covariance for d in draws], scenario.n, draws[0].names, cfg)
        made = [not isinstance(r, DegenerateDataError) for r in batch]
        share = (time.perf_counter() - t0) / max(sum(made), 1)
        if failure is not None:
            raise failure
        if compute_truth:
            weights = np.stack([d.w.weights for d in draws])
            pops = CovMatrix._stack(structural_covariance(weights), [None] * len(draws))
            for c in pops:
                if isinstance(c, ValueError):
                    raise c
        plans: list = []
        planned = []
        for k, (draw, result) in enumerate(zip(draws, batch)):
            xs, y = (draw.x,), draw.y
            truth = None
            if compute_truth:
                truth = len(plans)
                true_graph = cpdag_from_dag(draw.w.graph)
                plan = _route_plan("global", true_graph, xs, y, (), *caps, classes)
                plans.append((pops[k], plan))
            t0 = time.perf_counter()
            failed = isinstance(result, CausalSpanError)
            if not failed:
                # Both methods see the same repaired structure so the error
                # comparison isolates the effect-computation strategy.
                cov, skeleton = result
                graph = repair_cpdag(_pc_result(*skeleton), seed=scenario.seed).graph
            own = draw.seconds + share if made[k] else draw.seconds
            structure_time = own + time.perf_counter() - t0
            estimates = []
            for method in methods:
                t1 = time.perf_counter()
                source, plan = None, _Plan(xs, y, method, frozenset(), [result])
                if not failed:
                    source, plan = cov, _route_plan(method, graph, xs, y, (), *caps, classes)
                estimates.append((method, len(plans), structure_time + time.perf_counter() - t1))
                plans.append((source, plan))
            planned.append((start + k, draw, truth, estimates))
        # The solve's time split evenly over the requests: each method's
        # row gets its own plan's part, and the truth's part is left out.
        asked = [len(plan.requests()) for _, plan in plans]
        t0 = time.perf_counter()
        done = _finish_plans(plans)
        per_request = (time.perf_counter() - t0) / max(sum(asked), 1)
        for k, draw, truth, estimates in planned:
            truth_status = "ok"
            if truth is not None:
                (truth,) = done[truth]
                if isinstance(truth, ResourceCapError):
                    truth_status = "truth_resource_error"
                elif isinstance(truth, CausalSpanError):
                    truth_status = "truth_error"
            for method, index, runtime in estimates:
                (estimate,) = done[index]
                runtime += asked[index] * per_request
                e2_ave = e2_min = None
                status = "ok"
                if isinstance(estimate, CausalSpanError):
                    status = f"failed:{type(estimate).__name__}"
                elif truth is not None and truth_status == "ok":
                    e2_ave, e2_min = error_measures(estimate, truth)
                elif compute_truth:
                    status = truth_status
                records.append(SimRecord(
                    k, method, e2_ave, e2_min, runtime, status, draw.x, draw.y
                ))
    return records


class _Draw(NamedTuple):
    """One replicate's model, covariate, response and column names, its
    unchecked sample covariance and the seconds that reduction took."""

    w: WeightedDag
    x: int
    y: int
    names: tuple[str, ...]
    covariance: np.ndarray
    seconds: float


def _draw(scenario: SimScenario, child: np.random.SeedSequence) -> _Draw:
    """One replicate, drawn from its own stream, with its values reduced
    at once to their covariance (`gauss._covariance_values`)."""
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
    covariance = _covariance_values(data.values)
    return _Draw(w, x, y, data.names, covariance, time.perf_counter() - t0)


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
