"""Golden scores of `bootstrap_scores`.

`score_golden.json` holds, for a few fixed inputs, the `repr` of the
`BootstrapScores` that `bootstrap_scores` returned.  The test compares
today's scores with them byte for byte, so any change that moves one score
in its last bit, a failure count or an ambiguity fails here.

Regenerate the file only when a change of the scores is intended:

    PYTHONPATH=src python tests/test_score_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from causalspan import effects
from causalspan.effects import bootstrap_scores
from causalspan.gauss import CITestConfig
from causalspan.sim import generate_data, random_weighted_dag

GOLDEN = Path(__file__).with_name("score_golden.json")
ALPHA = 0.01


def score_boot() -> str:
    """The score-boot benchmark's model (p = 16) at n = 500, standardized
    as the CLI does, with 10 resamples: the 11 samples are one batch."""
    w = random_weighted_dag(16, 3.0, np.random.default_rng(0))
    d = generate_data(w, 500, np.random.default_rng(4401)).standardize()
    return repr(bootstrap_scores(d, CITestConfig(ALPHA), b=10, seed=1))


def wide_in_batches() -> str:
    """41 columns at n = 300, with the 11 samples run in batches of 4, 4
    and 3, so each level phase streams several matrices' items through
    stacks that cut them."""
    rng = np.random.default_rng(41)
    d = generate_data(random_weighted_dag(41, 3.0, rng), 300, rng).standardize()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(effects, "_batch_size", lambda p: 4)
        return repr(bootstrap_scores(d, CITestConfig(ALPHA), b=10, seed=2))


def narrow_capped() -> str:
    """30 columns and 20 rows (n < p: no matrix has an eigenvalue floor,
    so every block gets its own condition check), with a sibling cap of 1
    that fails covariates."""
    rng = np.random.default_rng(20)
    d = generate_data(random_weighted_dag(30, 2.0, rng), 20, rng).standardize()
    return repr(bootstrap_scores(d, CITestConfig(ALPHA), b=6, seed=3, max_siblings=1))


INPUTS = {
    "score-boot": score_boot,
    "wide-batches-4-4-3": wide_in_batches,
    "narrow-max-sib-1": narrow_capped,
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_scores_match_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    assert INPUTS[name]() == golden


if __name__ == "__main__":
    out = {name: make() for name, make in INPUTS.items()}
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n")
