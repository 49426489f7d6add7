"""Workload inputs, the untraced commands, and their output checks.

Every workload draws its input from the benchmark seed alone, and the
program sees only the generated CSV (or, for `sim-small`, the scenario).
The inputs are built so that any seed gives nearly the same amount of
work; run-to-run spread then comes from the program and the machine, not
from the luck of the draw.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

from causalspan import cli, sim
from causalspan.gauss import CITestConfig
from causalspan.graphs import PDGraph, cpdag_from_dag
from causalspan.pc import pc_cpdag

# The CLI defaults, passed as flags so that CAUSALSPAN_* variables in the
# environment cannot change the work.
ALPHA = 0.01
MAX_ENUM = 12
MAX_SIB = 25
FLAGS = ["--alpha", str(ALPHA), "--max-enum", str(MAX_ENUM), "--max-sib", str(MAX_SIB)]
# local-wide and score-boot sample every seed's data from one random model
# (structure and weights), drawn from this seed.  A model drawn per seed
# changes PC's test count by 6-30% from seed to seed, which would hide the
# program's own spread; a fresh sample of one model changes it by about 6%.
MODEL_SEED = 0
# The exact counts every run records and compares with earlier runs.
EXACT = (
    "pc.ci_tests", "pc.ci_tests.l0", "pc.ci_tests.l1", "pc.ci_tests.l2", "pc.ci_tests.l3plus",
    "pc.repairs", "graphs.class_dags", "gauss.solves", "gauss.distinct_solves",
)


@dataclass
class Spec:
    """Sizes of one workload; `selfcheck.py` shrinks them."""

    p: int = 0            # variables, response included
    n: int = 0            # rows per dataset
    en: float = 3.0       # expected degree
    trees: tuple[int, ...] = ()      # global-class: tree sizes
    bootstrap: int = 0
    reps: int = 0


# sim-small: at p = 5 a class has at most 10 edges and 120 DAGs, so no cap
# of the CLI defaults can fail a replicate; at en = 3.5 and n = 1000 about
# one estimate in seven is not a valid CPDAG, so every run repairs.
SPECS = {
    "local-wide": Spec(p=50, n=1000),
    "global-class": Spec(p=30, n=1000, trees=(5, 6, 7)),
    "score-boot": Spec(p=16, n=500, bootstrap=10),
    "sim-small": Spec(p=5, n=1000, en=3.5, reps=60),
}


@dataclass
class Inputs:
    """What set-up produced: a CSV and its response, or a scenario."""

    path: str = ""
    response: str = ""
    scenario: sim.SimScenario | None = None

    def fingerprint(self) -> str:
        h = hashlib.sha256(repr(self.scenario).encode())
        if self.path:
            with open(self.path, "rb") as f:
                h.update(f.read())
        return h.hexdigest()


def _class_model(sizes: tuple[int, ...], p: int, rng: np.random.Generator) -> sim.WeightedDag:
    """Random recursive trees of the given sizes, then v-structures
    a -> c <- b on the remaining vertices, three at a time.  A tree has no
    collider, so a tree on m vertices has m DAGs in its class, and every
    v-structure edge is compelled: the class has prod(sizes) members.
    Every vertex has a neighbour, so PC can drop a false edge at level 1;
    between two isolated vertices it could not.  PC recovers the class
    from about 7 draws in 8; with a dozen isolated vertices, from about
    half."""
    weights = np.zeros((p, p))
    edges = []
    start = 0
    for m in sizes:
        for k in range(1, m):
            edges.append((start + int(rng.integers(k)), start + k))
        start += m
    for a in range(start, p - 2, 3):
        edges += [(a, a + 2), (a + 1, a + 2)]
    for parent, child in edges:
        weights[child, parent] = rng.uniform(1.0, 2.0)
    return sim.WeightedDag(PDGraph(p, directed=edges), weights)


def _write_csv(d, path: str) -> None:
    header = ",".join(d.names)
    np.savetxt(path, d.values, fmt="%.17g", delimiter=",", header=header, comments="")


def make_inputs(workload: str, spec: Spec, seed: int, workdir: str) -> Inputs:
    """Draw the workload's input from `seed` and write it under workdir."""
    if workload == "sim-small":
        return Inputs(scenario=sim.SimScenario(
            n_vertices=spec.p, en=spec.en, n=spec.n, n_reps=spec.reps, seed=seed))
    rng = np.random.default_rng(seed)
    if workload == "global-class":
        # The first model whose class PC recovers exactly, so the estimated
        # class has prod(trees) members for every seed.
        while True:
            w = _class_model(spec.trees, spec.p, rng)
            d = sim.generate_data(w, spec.n, rng)
            if pc_cpdag(d.standardize(), CITestConfig(ALPHA)).graph == cpdag_from_dag(w.graph):
                break
    else:
        w = sim.random_weighted_dag(spec.p, spec.en, np.random.default_rng(MODEL_SEED))
        d = sim.generate_data(w, spec.n, rng)
    path = os.path.join(workdir, f"{workload}.csv")
    _write_csv(d, path)
    return Inputs(path=path, response=d.names[d.response])


# -- untraced commands ---------------------------------------------------------


@dataclass
class Outcome:
    """One command invocation: wall time, exit code and parsed output."""

    seconds: float
    code: int
    output: object


def run_estimate(path: str, response: str, method: str, out: str) -> Outcome:
    t0 = time.perf_counter()
    code = cli.main(["estimate", "--input", path, "--response", response, *FLAGS,
                     "--method", method, "--seed", "0", "--out", out])
    dt = time.perf_counter() - t0
    report = None
    if code == cli.EXIT_OK:
        with open(out, encoding="utf-8") as f:
            report = json.load(f)
    return Outcome(dt, code, report)


def run_score(path: str, response: str, b: int, seed: int, out: str) -> Outcome:
    t0 = time.perf_counter()
    code = cli.main(["score", "--input", path, "--response", response, *FLAGS,
                     "--bootstrap", str(b), "--seed", str(seed), "--out", out])
    dt = time.perf_counter() - t0
    rows = None
    if code == cli.EXIT_OK:
        with open(out, encoding="utf-8") as f:
            rows = f.read().splitlines()
    return Outcome(dt, code, rows)


def run_sim(scenario: sim.SimScenario) -> Outcome:
    t0 = time.perf_counter()
    records = sim.run_scenario(scenario, methods=("local", "global"), alpha=ALPHA)
    return Outcome(time.perf_counter() - t0, 0, records)


def record_key(r: sim.SimRecord) -> tuple:
    """A simulation record without its wall-clock field."""
    return (r.rep, r.method, r.e2_ave, r.e2_min, r.status, r.x, r.y)


def run_command(workload: str, spec: Spec, inputs: Inputs, seed: int, workdir: str) -> Outcome:
    """Run the workload's command once."""
    if workload == "sim-small":
        return run_sim(inputs.scenario)
    out = os.path.join(workdir, "out")
    if workload == "score-boot":
        return run_score(inputs.path, inputs.response, spec.bootstrap, seed, out)
    method = "global" if workload == "global-class" else "local"
    return run_estimate(inputs.path, inputs.response, method, out)


# -- output checks -------------------------------------------------------------


def counts_of(report: dict) -> dict[str, int]:
    """The EXACT counts, read from one `estimate` report."""
    levels = {int(k): v for k, v in report["diagnostics"]["tests_per_level"].items()}
    sizes = [sum(e["multiplicity"] for e in m["effects"]) for m in report["effects"]]
    return {
        "pc.ci_tests": sum(levels.values()),
        "pc.ci_tests.l0": levels.get(0, 0),
        "pc.ci_tests.l1": levels.get(1, 0),
        "pc.ci_tests.l2": levels.get(2, 0),
        "pc.ci_tests.l3plus": sum(v for k, v in levels.items() if k >= 3),
        "pc.repairs": int(report["repair"] is not None),
        "graphs.class_dags": max(sizes) if report["method"] == "global" else 0,
        # one solve per covariate and class member, one per distinct (i, S)
        "gauss.solves": sum(sizes),
        "gauss.distinct_solves": sum(len(m["effects"]) for m in report["effects"]),
    }


def check_output(workload: str, spec: Spec, output) -> list[str]:
    """Problems with one command's output, for any seed."""
    problems = []
    if workload == "sim-small":
        if len(output) != 2 * spec.reps:
            problems.append(f"expected {2 * spec.reps} records, got {len(output)}")
        return problems
    if workload == "score-boot":
        if output[0] != "covariate,score,ambiguity,failures":
            problems.append(f"unexpected header {output[0]!r}")
        if len(output) != spec.p:
            problems.append(f"expected {spec.p - 1} score rows, got {len(output) - 1}")
        for row in output[1:]:
            name, score, _, _ = row.split(",")
            if not math.isfinite(float(score)):
                problems.append(f"covariate {name}: score {score}")
        return problems
    if len(output["effects"]) != spec.p - 1:
        problems.append(f"expected {spec.p - 1} multisets, got {len(output['effects'])}")
    for m in output["effects"]:
        if not m["effects"] or not all(math.isfinite(e["value"]) for e in m["effects"]):
            problems.append(f"covariate {m['covariate']}: empty or non-finite multiset")
    if workload == "global-class":
        expected = math.prod(spec.trees)
        sizes = {sum(e["multiplicity"] for e in m["effects"]) for m in output["effects"]}
        if sizes != {expected}:
            problems.append(f"class sizes {sorted(sizes)}, expected {expected}")
    return problems


def routes_agree(global_report: dict, local_report: dict, tol: float = 1e-9) -> list[str]:
    """The paper's guarantee: both routes give the same distinct adjustment
    sets for every covariate, with values equal to within tol."""
    problems = []
    for g, l in zip(global_report["effects"], local_report["effects"]):
        gv = {tuple(e["adjustment"]): e["value"] for e in g["effects"]}
        lv = {tuple(e["adjustment"]): e["value"] for e in l["effects"]}
        if gv.keys() != lv.keys():
            problems.append(f"covariate {g['covariate']}: adjustment sets differ")
        elif any(abs(gv[a] - lv[a]) > tol for a in gv):
            problems.append(f"covariate {g['covariate']}: values differ by more than {tol}")
    return problems


def sim_summary(records) -> dict[str, float]:
    """Median squared errors against population truth, per method."""
    out = {}
    for method in ("local", "global"):
        ok = [r for r in records if r.method == method and r.status == "ok"]
        # with no successful record the run has failed; 0 keeps the JSON valid
        out[f"sim_e2_min_{method}"] = statistics.median(r.e2_min for r in ok) if ok else 0.0
        out[f"sim_e2_ave_{method}"] = statistics.median(r.e2_ave for r in ok) if ok else 0.0
    return out
