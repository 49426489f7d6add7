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
from .graphs import _bits, _dag_of, _topological_order
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
        if not self.graph.is_fully_directed():
            raise ValueError("WeightedDag requires a DAG")
        edges = [[pa >> j & 1 for j in range(self.graph.n)] for pa in self.graph._pa]
        (d,) = self._batch(np.array([edges], dtype=bool), [self.weights])
        object.__setattr__(self, "weights", d.weights)
        object.__setattr__(self, "_order", d._order)

    @classmethod
    def _batch(cls, edges: np.ndarray, weights: np.ndarray | list) -> list["WeightedDag"]:
        """One model per matrix of the (m, p, p) stacks: edges[k, i, j]
        marks the edge j -> i of model k and weights[k] is its weight
        matrix.  These are the model checks, run once over the stacks and
        in this order: each graph acyclic, the weights stack shaped as the
        edges stack, every weight finite, and every weight nonzero exactly
        on the edges.  A model built by the constructor is a batch of one.
        The weights stack is made read-only (a float array is not copied)
        and each model's weights are a view of it."""
        m, p = edges.shape[:2]
        pas = [[0] * p for _ in range(m)]
        for k, i, j in zip(*(a.tolist() for a in np.nonzero(edges))):
            pas[k][i] |= 1 << j
        orders = [_topological_order(pa) for pa in pas]
        if None in orders:
            raise ValueError("WeightedDag requires a DAG")
        weights = np.asarray(weights, dtype=float)
        if weights.shape != edges.shape:
            raise ValueError("weight matrix shape must match the graph")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        wrong = ((weights != 0) != edges).any(axis=2)
        if wrong.any():
            raise ValueError(f"weights for vertex {np.argwhere(wrong)[0, 1]} do not match its parents")
        weights.setflags(write=False)
        out = []
        for pa, w, order in zip(pas, weights, orders):
            d = object.__new__(cls)
            object.__setattr__(d, "graph", _dag_of(pa))
            object.__setattr__(d, "weights", w)
            object.__setattr__(d, "_order", tuple(order))
            out.append(d)
        return out

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


def random_weighted_dag(
    n_vertices: int,
    en: float,
    rng: np.random.Generator,
    blocks: int | None = None,
) -> WeightedDag:
    """Draw a random weighted DAG as described in the module docstring."""
    return _weighted_dags(n_vertices, en, [rng], blocks)[0]


def _weighted_dags(
    p: int, en: float, rngs: Sequence[np.random.Generator], blocks: int | None
) -> list[WeightedDag]:
    """One model per generator, built at once from each one's (p, p)
    uniform coins and then its [1, 2] magnitudes: j -> i, j < i, is an
    edge where coins[j, i] falls under the edge probability and j, i share
    a block, with weight magnitudes[j, i]."""
    drawn = [(rng.random((p, p)), rng.uniform(1.0, 2.0, size=(p, p))) for rng in rngs]
    coins, magnitudes = (np.stack(a) for a in zip(*drawn))
    block_size = p // blocks if blocks is not None else p
    prob = min(1.0, en / (block_size - 1))
    block = np.arange(p) // block_size
    edges = (np.triu(coins < prob, 1) & (block[:, None] == block)).transpose(0, 2, 1)
    weights = np.where(edges, magnitudes.transpose(0, 2, 1), 0.0)
    return WeightedDag._batch(edges, weights)


def generate_data(
    w: WeightedDag,
    n: int,
    rng: np.random.Generator | int,
    response: int | None = None,
    names: Sequence[str] | None = None,
) -> Dataset:
    """Sample n rows of the linear system X = W X + e with standard normal
    noise (`_sample_values`)."""
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    values = _sample_values(w, n, rng)
    if names is None:
        names = tuple(f"X{i + 1}" for i in range(w.n))
    if response is None:
        response = w.n - 1
    return Dataset(values, tuple(names), response)


def _sample_values(w: WeightedDag, n: int, rng: np.random.Generator) -> np.ndarray:
    """n rows of X = W X + e: the noise e, standard normal, to which each
    vertex's parent terms are added in place, in topological order."""
    values = rng.standard_normal((n, w.n))
    pa = w.graph._pa
    for i in w.order:
        if pa[i]:
            idx = list(_bits(pa[i]))
            values[:, i] += values[:, idx] @ w.weights[i, idx]
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    return values


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
    passes.  The first (`_draws`) makes each replicate's random calls in
    stream order, builds the batch's models from them at once with one run
    of `WeightedDag`'s checks, then samples each replicate's values in turn
    (`_sample_values`) and reduces them at once to their unchecked sample
    covariance, so no n x p array outlives its replicate.  The second runs
    the batch's PC skeletons in one `pc._pc_batch` call, which also makes
    and checks their sample matrices, and (with the truth) checks the batch's
    population covariances in one `CovMatrix._stack` pass.  A draw that
    fails ends the first pass: the second runs on the replicates drawn
    before it, so their check errors come first, and then the draw's
    error is raised.  The third orients and repairs each replicate's
    estimate and appends, replicate by replicate, one plan for its truth
    (with the truth) and one per method: an `effects._route_plan`, or,
    when the estimate failed, a plan whose one covariate's entry is that
    error.  The fourth solves them all in one `_finish_plans` call, which
    builds every multiset, and scores each replicate, reading the plans
    back in that order; the routes read the data only through the sample
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
        draws, failure = _draws(scenario, children[start : start + size])
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
        runtimes = []
        for k, (draw, result) in enumerate(zip(draws, batch)):
            xs, y = (draw.x,), draw.y
            if compute_truth:
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
            for method in methods:
                t1 = time.perf_counter()
                source, plan = None, _Plan(xs, y, method, frozenset(), [result])
                if not failed:
                    source, plan = cov, _route_plan(method, graph, xs, y, (), *caps, classes)
                runtimes.append(structure_time + time.perf_counter() - t1)
                plans.append((source, plan))
        # The solve's time split evenly over the requests: each method's
        # row gets its own plan's part, and the truth's part is left out.
        asked = [len(plan.requests()) for _, plan in plans]
        t0 = time.perf_counter()
        done = _finish_plans(plans)
        per_request = (time.perf_counter() - t0) / max(sum(asked), 1)
        solved, times = iter(zip(done, asked)), iter(runtimes)
        for k, draw in enumerate(draws, start):
            truth, truth_status = None, "ok"
            if compute_truth:
                (truth,), _ = next(solved)
                if isinstance(truth, ResourceCapError):
                    truth_status = "truth_resource_error"
                elif isinstance(truth, CausalSpanError):
                    truth_status = "truth_error"
            for method in methods:
                (estimate,), n_asked = next(solved)
                runtime = next(times) + n_asked * per_request
                e2_ave = e2_min = None
                status = truth_status
                if isinstance(estimate, CausalSpanError):
                    status = f"failed:{type(estimate).__name__}"
                elif truth is not None and status == "ok":
                    e2_ave, e2_min = error_measures(estimate, truth)
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


def _draws(
    scenario: SimScenario, children: Sequence[np.random.SeedSequence]
) -> tuple[list[_Draw], Exception | None]:
    """A batch of replicates, each drawn from its own stream: its model's
    coins and magnitudes, y, x from y's block and then its noise.  The
    batch's models are built at once (`_weighted_dags`); each replicate's
    values (`_sample_values`) are reduced at once to their covariance
    (`gauss._covariance_values`).  A replicate whose values fail ends the
    batch: the replicates drawn before it come back with its error."""
    p = scenario.n_vertices
    block_size = p // (scenario.blocks or 1)
    rngs = [np.random.default_rng(child) for child in children]
    models = _weighted_dags(p, scenario.en, rngs, scenario.blocks)
    picks = []
    for rng in rngs:
        y = int(rng.integers(p))
        first = y // block_size * block_size
        picks.append((int(rng.choice([v for v in range(first, first + block_size) if v != y])), y))
    names = tuple(f"X{i + 1}" for i in range(p))
    draws: list[_Draw] = []
    for w, rng, (x, y) in zip(models, rngs, picks):
        try:
            values = _sample_values(w, scenario.n, rng)
            t0 = time.perf_counter()
            covariance = _covariance_values(values)
        except Exception as e:
            return draws, e
        draws.append(_Draw(w, x, y, names, covariance, time.perf_counter() - t0))
        del values  # freed before the next replicate's values are drawn
    return draws, None


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
