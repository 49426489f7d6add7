"""Summarise the results of benchmark runs into one BENCH record.

    python3 perfbench/record.py LABEL [OUTFILE]

Reads every `.perfbench/results/*.json` that `run.py` wrote in this
checkout and writes `perfbench/records/BENCH_<LABEL>.json` (or OUTFILE):
for each workload and metric, the run count, median and quartiles as
`statistics.quantiles` gives them, the spread (interquartile range over
median), and each seed's exact counts, which must be identical on every
machine.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summary(values: list[float]) -> dict:
    out = {"runs": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    label = argv[0]
    target = Path(argv[1]) if len(argv) > 1 else HERE / "records" / f"BENCH_{label}.json"
    values: dict = defaultdict(lambda: defaultdict(list))
    exact: dict = defaultdict(dict)
    environments = {}
    for path in sorted((ROOT / ".perfbench" / "results").glob("*.json")):
        r = json.loads(path.read_text())
        mode = "traced" if r["trace"] else "untraced"
        for k, v in {**r["metrics"], **r.get("detail", {})}.items():
            values[(r["workload"], mode)][k].append(v)
        load = r["environment"]["loadavg_at_start"][0]
        values[(r["workload"], mode)]["loadavg_at_start"].append(load)
        exact[r["workload"]][str(r["seed"])] = {
            k: v for k, v in r["exact"].items() if k != "score_rows"}
        environments[r["environment"]["source"]] = r["environment"]
    record = {
        "label": label,
        "environments": list(environments.values()),
        "workloads": {
            f"{w} ({mode})": {k: summary(v) for k, v in metrics.items()}
            for (w, mode), metrics in sorted(values.items())
        },
        "exact": exact,
    }
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
