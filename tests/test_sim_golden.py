"""Golden records of `run_scenario`.

`sim_golden.json` holds, for a few fixed scenarios, the `repr` of every
record `run_scenario` returned (runtime set to 0.0, since wall time is
not reproducible).  The test compares today's records with them byte for
byte, so any change that moves one error value in its last bit, a status
or the draw of x and y fails here.

Regenerate the file only when a change of the records is intended:

    PYTHONPATH=src python tests/test_sim_golden.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from causalspan.sim import SimScenario, run_scenario

GOLDEN = Path(__file__).with_name("sim_golden.json")
ALPHA = 0.01

# The sim-small benchmark scenario on two seeds, one blocked scenario at
# p = 8 whose classes are larger than any at p = 5, and two at p = 20: at
# n = 500 the replicates' level-1 stream (about 22,800 blocks) crosses
# `pc._STACK`, so stacks span replicates and cut pairs; at n = 15 < p no
# matrix vouches for its blocks, and every block takes its own condition
# check.
SCENARIOS = {
    "sim-small-201": SimScenario(n_vertices=5, en=3.5, n=1000, n_reps=60, seed=201),
    "sim-small-202": SimScenario(n_vertices=5, en=3.5, n=1000, n_reps=60, seed=202),
    "blocked-p8": SimScenario(n_vertices=8, en=2.5, n=500, n_reps=30, blocks=2, seed=7),
    "p20-n500": SimScenario(n_vertices=20, en=3.0, n=500, n_reps=12, seed=5),
    "p20-n15": SimScenario(n_vertices=20, en=3.0, n=15, n_reps=12, seed=5),
}


def record_reprs(scenario: SimScenario) -> list[str]:
    records = run_scenario(scenario, alpha=ALPHA)
    return [repr(dataclasses.replace(r, runtime_s=0.0)) for r in records]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_records_match_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    assert record_reprs(SCENARIOS[name]) == golden


if __name__ == "__main__":
    out = {name: record_reprs(s) for name, s in SCENARIOS.items()}
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n")
