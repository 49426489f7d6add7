"""causalspan benchmark: one workload per run, checked outputs, JSON result.

    python3 perfbench/run.py --workload local-wide --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/` directory only.  With `--trace 0` it repeats the workload's command
for `--seconds` seconds and reports the end-to-end metrics; with
`--trace 1` it alternates untraced commands with traced step-by-step
decompositions (see traced.py) and reports the per-layer metrics.  The
last line of standard output is the result object; the lines before it
name every metric with its unit.  Records and span traces go to
`.perfbench/` in the checkout.

On a shared machine the speed of the same code drifts by tens of percent
over minutes.  A fixed calibration kernel (`calibrate`) therefore runs
before and after every command, and the end-to-end `command_s` is in
calibrated seconds: the median over commands of wall time x
CAL_NOMINAL_S / the mean of the kernel times on either side, the time
the work would take where the kernel takes CAL_NOMINAL_S.  The kernel
runs no package code, so a faster or slower program moves it one for
one.  The wall times are printed and recorded as well (estimate_s,
score_s, sim_reps_per_s, command_wall_s).

`setup_s` is in calibrated seconds as well, with kernel runs made around
the set-up itself: the median time to import the package and warm up,
over SETUP_REPEATS samples (this process, then fresh interpreters), plus
the median time to make the inputs, over SETUP_REPEATS samples.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads: on a small machine a second
# BLAS thread makes each small solve slower, not faster.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("local-wide", "global-class", "score-boot", "sim-small")
SETUP_REPEATS = 4
CAL_NOMINAL_S = 0.25
SETUP_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import run; print(run.load(sys.argv[2]))"
E2E_UNITS = {"setup_s": "s", "command_s": "s", "peak_rss_mb": "MB"}


def calibrate(rounds: int = 400) -> float:
    """Seconds for a fixed kernel in the mix the program spends its time on:
    the steps of one conditional-independence test (rebuild and check a
    50 x 50 correlation matrix, invert a small block, a normal quantile),
    one least-squares solve with its rank check, and Python dict work.
    It runs no package code, so a change to the program cannot move it;
    only the machine's speed does."""
    import numpy as np
    from scipy.stats import norm

    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 50))
    cov = a.T @ a / 200
    sd = np.sqrt(np.diag(cov))
    x = rng.standard_normal((1000, 4))
    y = x.sum(axis=1)
    t0 = time.perf_counter()
    for k in range(rounds):
        c = cov / np.outer(sd, sd)
        np.allclose(c, c.T)
        np.linalg.eigvalsh(c)
        idx = [k % 50, (k + 7) % 50, (k + 13) % 50, (k + 19) % 50]
        sub = c[np.ix_(idx, idx)]
        np.linalg.cond(sub)
        np.linalg.inv(sub)
        norm.ppf(0.995)
        np.linalg.matrix_rank(x)
        np.linalg.lstsq(x, y, rcond=None)
        seen = {(j, k % 7): j * 0.5 for j in range(40)}
        sorted(seen.items(), key=lambda kv: -kv[1])
    return time.perf_counter() - t0


def calibrated(wall: list[float], scale: list[float]) -> float:
    """Median wall time in calibrated seconds; scale[i] is the mean of the
    kernel times taken just before and just after command i."""
    return CAL_NOMINAL_S * statistics.median(t / c for t, c in zip(wall, scale))


def load(workdir: str) -> float:
    """Import the package and the benchmark's modules, then warm up;
    returns the seconds this took."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import causalspan  # noqa: F401
    import traced  # noqa: F401
    import workloads  # noqa: F401

    warm_up(Path(workdir))
    return time.perf_counter() - t0


def load_in_fresh_interpreter(workdir: Path) -> float:
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(HERE), str(workdir)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def source_digest() -> str:
    """Hash of the package source, so stored counts are only compared
    between runs of the same program."""
    h = hashlib.sha256()
    for path in sorted((SRC / "causalspan").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy

    return {
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "source": source_digest(),
    }


class Checks:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def comparable(workload, output):
    """The parts of a command's output that must repeat exactly."""
    import workloads as w

    if workload == "sim-small":
        return [w.record_key(r) for r in output]
    if workload == "score-boot":
        return output
    return {k: output[k] for k in ("graph", "repair", "effects", "diagnostics")}


def run_once(workload, spec, inputs, seed, workdir, checks, first):
    """One untraced command with its output checks; returns the outcome.

    The failure base is command invocations; for `score-boot` it adds
    covariate x replicate pairs, and for `sim-small` it is records."""
    import workloads as w

    gc.collect()
    o = w.run_command(workload, spec, inputs, seed, workdir)
    if o.code != 0:
        checks.record("command", [f"exit code {o.code}"])
        return o
    problems = w.check_output(workload, spec, o.output)
    key = comparable(workload, o.output)
    if first.setdefault("untraced", key) != key:
        problems.append("output differs from the first call")
    if workload == "sim-small":
        bad = [r for r in o.output if r.status != "ok"]
        checks.attempted += len(o.output) - 1   # record() below adds the last one
        checks.failed += len(bad)
        checks.problems += [f"rep {r.rep} {r.method}: {r.status}" for r in bad]
    elif workload == "score-boot":
        checks.attempted += (spec.p - 1) * spec.bootstrap
        checks.failed += sum(int(row.rsplit(",", 1)[1]) for row in o.output[1:])
    checks.record("command", problems)
    return o


def run_traced(workload, spec, inputs, seed, first, checks, tracer) -> None:
    """The step-by-step decomposition, checked against the untraced output."""
    import traced as tr
    import workloads as w

    if workload == "sim-small":
        out = [w.record_key(r) for r in tr.traced_sim(tracer, inputs.scenario)]
    elif workload == "score-boot":
        out = tr.traced_score(tracer, inputs.path, inputs.response, spec.bootstrap, seed)
    else:
        method = "global" if workload == "global-class" else "local"
        out = tr.traced_estimate(tracer, inputs.path, inputs.response, method)
    checks.record("traced command", [] if out == first.get("untraced") else [
        "step-by-step decomposition differs from the untraced command"])


def warm_up(workdir: Path) -> None:
    """Load everything the commands touch lazily, on a tiny problem."""
    import workloads as w
    from causalspan import sim

    workdir.mkdir(parents=True, exist_ok=True)
    inputs = w.make_inputs("global-class", w.Spec(p=5, n=200, trees=(2, 3)), 0, str(workdir))
    for method in ("local", "global"):
        w.run_estimate(inputs.path, inputs.response, method, str(workdir / "warm"))
    sim.run_scenario(sim.SimScenario(n_vertices=4, en=1.0, n=50, n_reps=1, seed=0))


def after_checks(workload, spec, inputs, seed, output, workdir, first, checks,
                 tracer) -> dict:
    """Checks made once per run, outside the timed commands; returns the
    exact counts and deterministic outputs of this run.  `score` and
    `run_scenario` output no counts, so they come from a traced command
    (`tracer`, or one made here when the run is untraced)."""
    import traced as tr
    import workloads as w

    if workload in ("score-boot", "sim-small"):
        if tracer is None:
            tracer = tr.Tracer(run_id=0)
            run_traced(workload, spec, inputs, seed, first, checks, tracer)
        m = tr.layer_metrics(tracer)
        exact = {k: m[k] for k in w.EXACT}
        if workload == "sim-small":
            return {**exact, **w.sim_summary(output)}
        return {**exact, "score_rows": output}
    if workload == "global-class":
        local = w.run_estimate(inputs.path, inputs.response, "local", str(workdir / "check"))
        checks.record("routes agree", [f"exit code {local.code}"] if local.code
                      else w.routes_agree(output, local.output))
    return w.counts_of(output)


def check_repeatable(workload, spec, seed, exact, env, checks) -> None:
    """Exact counts must repeat from run to run of the same program, sizes
    and seed."""
    key = hashlib.sha256(f"{env['source']} {spec!r}".encode()).hexdigest()[:16]
    path = OUT / "counts" / f"{workload}-seed{seed}-{key}.json"
    text = json.dumps(exact, sort_keys=True)
    if path.exists():
        checks.record("counts repeat across runs",
                      [] if path.read_text() == text else ["exact counts changed"])
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "causalspan" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a causalspan checkout",
              file=sys.stderr)
        return 2
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        loads = [load(str(workdir / "warm"))]
        import causalspan
        import traced as tr
        import workloads as w

        if Path(causalspan.__file__).resolve().parent != SRC / "causalspan":
            print(f"error: imported causalspan from {causalspan.__file__}", file=sys.stderr)
            return 2
        env = environment()
        spec = w.SPECS[args.workload]
        checks = Checks()
        cals = [calibrate()]
        load_scale = [cals[0]]
        for k in range(SETUP_REPEATS - 1):
            loads.append(load_in_fresh_interpreter(workdir / f"probe{k}"))
            cals.append(calibrate())
            load_scale.append((cals[-2] + cals[-1]) / 2)
        setups, digests = [], set()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = w.make_inputs(args.workload, spec, args.seed, str(workdir))
            setups.append(time.perf_counter() - t0)
            digests.add(inputs.fingerprint())
        cals.append(calibrate())
        checks.record("inputs repeat for one seed",
                      [] if len(digests) == 1 else ["set-up gave different inputs"])
        setup_s = (calibrated(loads, load_scale)
                   + calibrated(setups, [(cals[-2] + cals[-1]) / 2] * len(setups)))

        first: dict = {}
        untraced, traced, tracers = [], [], []
        untraced_scale, traced_scale = [], []
        start = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            o = run_once(args.workload, spec, inputs, args.seed, str(workdir), checks, first)
            untraced.append(o.seconds)
            cals.append(calibrate())
            untraced_scale.append((cals[-2] + cals[-1]) / 2)
            if args.trace:
                tracer = tr.Tracer(run_id=len(tracers))
                t0 = time.perf_counter()
                run_traced(args.workload, spec, inputs, args.seed, first, checks, tracer)
                traced.append(time.perf_counter() - t0)
                tracers.append(tracer)
                cals.append(calibrate())
                traced_scale.append((cals[-2] + cals[-1]) / 2)
            now = time.perf_counter()
            # stop unless another pass of the same length still fits
            if 2 * now - t_pass - start > args.seconds:
                break
        exact = after_checks(args.workload, spec, inputs, args.seed, o.output, workdir,
                             first, checks, tracers[0] if tracers else None)
        check_repeatable(args.workload, spec, args.seed, exact, env, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    command_s = statistics.median(untraced)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "load_runs_s": loads,
              "input_runs_s": setups, "command_runs_s": untraced, "traced_runs_s": traced,
              "calibration_runs_s": cals,
              "exact": exact, "problems": checks.problems}
    if args.trace:
        per_pass = [tr.layer_metrics(t) for t in tracers]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = (calibrated(traced, traced_scale)
                                       - calibrated(untraced, untraced_scale))
        checks.record("traced counts match the command's output", [
            f"{k}: traced {values[k]}, output {v}" for k, v in exact.items()
            if k in values and values[k] != v])
        values.update({k: exact.get(k, 0.0) for k in
                       ("sim_e2_min_local", "sim_e2_min_global",
                        "sim_e2_ave_local", "sim_e2_ave_global")})
        units = {k: unit_of(k) for k in values}
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        with open(traces / f"{args.workload}-seed{args.seed}.json", "w") as f:
            json.dump({"spans": [s for t in tracers for s in t.spans],
                       "layer_self_s": [t.self_times() for t in tracers]}, f)
    else:
        values = {"setup_s": setup_s,
                  "command_s": calibrated(untraced, untraced_scale),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = dict(E2E_UNITS)
        # the wall time, under the name of the command it measures
        if args.workload == "sim-small":
            detail = {"sim_reps_per_s": spec.reps / command_s}
        else:
            detail = {"score_s" if args.workload == "score-boot" else "estimate_s": command_s}
        detail.update(command_wall_s=command_s, calibration_s=statistics.median(cals))
        detail["fail_ratio"] = checks.failed / checks.attempted
        record["detail"] = detail
        for k, v in detail.items():
            print(f"{k} = {v:.6g} {unit_of(k)}")
    record["metrics"] = values
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1, default=str)
    print("environment: " + json.dumps(env))
    for k, v in exact.items():
        if k != "score_rows":
            print(f"{k} = {v} (exact)")
    for p in checks.problems:
        print("check failed: " + p, file=sys.stderr)
    for k, v in values.items():
        print(f"{k} = {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.startswith("sim_e2_"):
        return "sq_effect"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.startswith("pc.us_per") or name.startswith("gauss.us_per"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
