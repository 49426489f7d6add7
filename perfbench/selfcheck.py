"""Fast self-check of the benchmark at tiny sizes (about two minutes).

    python3 perfbench/selfcheck.py

Checks BENCHMARK.json against the benchmark's schema rules, then runs
every workload twice with tracing off and twice with it on, shrunk to
tiny inputs, and checks that each result names exactly the metrics of
BENCHMARK.json with their units, that every output check passes, and
that the exact counts repeat.  Exits 0 when all holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy loads

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def schema_problems(bench: dict) -> list[str]:
    p = []
    if set(bench) != KEYS:
        p.append(f"top-level keys {sorted(bench)}")
        return p
    cmd = bench["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32
            and all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        p.append("command must be a list of at most 32 short strings")
    elif any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        p.append("command leaves the checkout")
    paths = bench["paths"]
    if not (1 <= len(paths) <= 16 and all(PATH.fullmatch(x) and ".." not in x.split("/")
                                          for x in paths)):
        p.append("paths must be 1-16 relative directories")
    if not (isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60):
        p.append("run_seconds must be a whole number from 1 to 60")
    names = []
    if not 2 <= len(bench["workloads"]) <= 8:
        p.append("need 2 to 8 workloads")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            p.append(f"workload {w.get('name')}: needs a name and a one-line why")
        names.append(w["name"])
    for key, fields, top in (("end_to_end", {"name", "unit", "better", "bound"}, 16),
                             ("per_layer", {"name", "unit", "better"}, 128)):
        if not 1 <= len(bench[key]) <= top:
            p.append(f"{key}: 1 to {top} metrics")
        for m in bench[key]:
            if set(m) != fields:
                p.append(f"{key} {m.get('name')}: keys {sorted(m)}")
                continue
            if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("higher", "lower"):
                p.append(f"{key} {m['name']}: bad unit or direction")
            if key == "end_to_end" and not 0 < m["bound"] <= 0.25:
                p.append(f"{m['name']}: bound must lie in (0, 0.25]")
            names.append(m["name"])
    p += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    p += [f"name {n!r} used twice" for n in set(names) if names.count(n) > 1]
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        p.append("setup_s must be an end-to-end metric in s, lower is better")
    elif any(m["bound"] > setup[0]["bound"] for m in bench["end_to_end"]):
        p.append("setup_s must have the largest bound")
    return p


TINY = {
    "local-wide": dict(p=8, n=200),
    "global-class": dict(p=6, n=200, trees=(2, 3)),
    "score-boot": dict(p=6, n=200, bootstrap=2),
    "sim-small": dict(p=5, n=100, en=2.0, reps=3),
}


def result_of(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    if code != 0:
        raise SystemExit(f"{workload}: exit code {code}")
    return json.loads(buf.getvalue().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = schema_problems(bench)
    sys.path.insert(0, str(run.SRC))
    import workloads

    for name, sizes in TINY.items():
        workloads.SPECS[name] = workloads.Spec(**sizes)
    run.SETUP_REPEATS = 2
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for workload in run.WORKLOADS:
            a, b = result_of(workload, trace), result_of(workload, trace)
            for r in (a, b):
                if set(r) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{workload}: result keys {sorted(r)}")
                if not r["correct"] or r["failed"] or r["attempted"] < 1:
                    problems.append(f"{workload} trace {trace}: checks failed")
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                if got != want:
                    problems.append(f"{workload} trace {trace}: metrics {got} != {want}")
            exact = {k for k, u in want.items() if u == "count"}
            for k in exact & set(a["metrics"]):
                if a["metrics"][k]["value"] != b["metrics"][k]["value"]:
                    problems.append(f"{workload}: count {k} differs between runs")
    for p in problems:
        print("selfcheck: " + p)
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
