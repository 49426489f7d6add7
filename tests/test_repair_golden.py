"""Golden outcomes of `repair_cpdag`.

Each golden file holds, for every PC estimate of its recipe below that
fails validation, the repair's stage, its detail and the sorted directed
and undirected edges of the repaired graph at each search cap in CAPS.
The small caps push stage 1 aside and make stage 2 run out of subsets, so
the greedy fallback runs too: 13 of the repairs in `repair_golden.json`
are greedy.

- `repair_golden.json`: p from 5 to 8, seeds 0-399.
- `repair_golden_wide.json`: p from 20 to 40, seeds 0-629, where the
  graph routines' rebuilds run on larger components.

Regenerate the files only when a change of the repairs is intended:

    PYTHONPATH=src python tests/test_repair_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from causalspan import CITestConfig, generate_data, pc, pc_cpdag, random_weighted_dag, repair_cpdag

CAPS = (1, 2, 3, 8, 4096)
# Golden file -> (smallest p, number of p values, seeds).
RECIPES = {
    "repair_golden.json": (5, 4, 400),
    "repair_golden_wide.json": (20, 21, 630),
}


def estimate(seed: int, p_min: int = 5, p_count: int = 4) -> pc.PcResult:
    """PC at alpha 0.05 on data from a random DAG with en 3, p from p_min
    to p_min + p_count - 1 and n in {40, 100, 300}, all picked by the seed."""
    rng = np.random.default_rng(seed)
    p = p_min + seed % p_count
    n = (40, 100, 300)[seed // p_count % 3]
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


def check(name: str, cap: int, monkeypatch) -> None:
    golden = json.loads(Path(__file__).with_name(name).read_text())
    p_min, p_count, _ = RECIPES[name]
    monkeypatch.setattr(pc, "_REPAIR_SEARCH_CAP", cap)
    for seed, row in golden.items():
        res = estimate(int(seed), p_min, p_count)
        assert not res.validation.is_valid
        assert outcome(res) == row[str(cap)], f"seed {seed}"


@pytest.mark.parametrize("cap", CAPS)
def test_repairs_match_golden(cap, monkeypatch):
    check("repair_golden.json", cap, monkeypatch)


@pytest.mark.parametrize("cap", CAPS)
def test_wide_repairs_match_golden(cap, monkeypatch):
    check("repair_golden_wide.json", cap, monkeypatch)


if __name__ == "__main__":
    for name, (p_min, p_count, seeds) in RECIPES.items():
        golden = {}
        for seed in range(seeds):
            res = estimate(seed, p_min, p_count)
            if res.validation.is_valid:
                continue
            row = {}
            for cap in CAPS:
                pc._REPAIR_SEARCH_CAP = cap
                row[str(cap)] = outcome(res)
            golden[str(seed)] = row
        Path(__file__).with_name(name).write_text(dump(golden))
