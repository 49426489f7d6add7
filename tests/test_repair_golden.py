"""Golden outcomes of `repair_cpdag`.

`repair_golden.json` holds, for every PC estimate of the recipe below that
fails validation (seeds 0-399), the repair's stage, its detail and the
sorted directed and undirected edges of the repaired graph at each search
cap in CAPS.  The small caps push stage 1 aside and make stage 2 run out
of subsets, so the greedy fallback runs too: 13 of the recorded repairs
are greedy.

Regenerate the file only when a change of the repairs is intended:

    PYTHONPATH=src python tests/test_repair_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from causalspan import CITestConfig, generate_data, pc, pc_cpdag, random_weighted_dag, repair_cpdag

GOLDEN = Path(__file__).with_name("repair_golden.json")
CAPS = (1, 2, 3, 8, 4096)


def estimate(seed: int) -> pc.PcResult:
    """PC at alpha 0.05 on data from a random DAG, p from 5 to 8, en 3,
    n in {40, 100, 300}, all picked by the seed."""
    rng = np.random.default_rng(seed)
    p = 5 + seed % 4
    n = (40, 100, 300)[seed // 4 % 3]
    w = random_weighted_dag(p, 3.0, rng)
    return pc_cpdag(generate_data(w, n, rng), CITestConfig(0.05))


def outcome(res: pc.PcResult) -> list:
    r = repair_cpdag(res)
    return [
        r.stage,
        r.detail,
        sorted(map(list, r.graph.directed_edges())),
        sorted(map(list, r.graph.undirected_edges())),
    ]


def dump(golden: dict[str, dict[str, list]]) -> str:
    """The golden dict as JSON, one repair per line."""
    seeds = []
    for seed, row in golden.items():
        caps = ",\n".join(f"  {json.dumps(cap)}: {json.dumps(v)}" for cap, v in row.items())
        seeds.append(f" {json.dumps(seed)}: {{\n{caps}\n }}")
    return "{\n" + ",\n".join(seeds) + "\n}\n"


@pytest.mark.parametrize("cap", CAPS)
def test_repairs_match_golden(cap, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    monkeypatch.setattr(pc, "_REPAIR_SEARCH_CAP", cap)
    for seed, row in golden.items():
        res = estimate(int(seed))
        assert not res.validation.is_valid
        assert outcome(res) == row[str(cap)], f"seed {seed}"


if __name__ == "__main__":
    golden = {}
    for seed in range(400):
        res = estimate(seed)
        if res.validation.is_valid:
            continue
        row = {}
        for cap in CAPS:
            pc._REPAIR_SEARCH_CAP = cap
            row[str(cap)] = outcome(res)
        golden[str(seed)] = row
    GOLDEN.write_text(dump(golden))
