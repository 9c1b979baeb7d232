"""Scenario runs that more than one test module reads, made once per test
session."""

import time

import pytest

from tosca.data import make_splits, synth_gaussian
from tosca.engine import ScenarioConfig, run_scenario

# The d=32 headline: synth_gaussian's arguments (d, classes, train and test
# rows per class, separation, sigma, data seed) and the split and scenario
# seed.  Acceptance criterion 4 and the golden case ``d32`` both run it.
HEADLINE_DATA = (32, 50, 100, 50, 138.0, 23.0, 3)
HEADLINE_SEED = 1993


@pytest.fixture(scope="session")
def headline():
    """The headline's inputs and its ``joint``, ``tosca`` and ``finetune``
    runs at the default config, made once.

    ``seconds`` times this fixture's own work and nothing else, so it does
    not depend on which test asks for the fixture first.  Tests read the
    runs and must not change them.
    """
    t0 = time.perf_counter()
    train, test = synth_gaussian(*HEADLINE_DATA)
    splits = make_splits(train.class_ids, base=0, increment=5,
                         seed=HEADLINE_SEED)
    cfg = ScenarioConfig()
    runs = {method: run_scenario(train, test, splits, method, cfg,
                                 seed=HEADLINE_SEED)
            for method in ("joint", "tosca", "finetune")}
    return {"train": train, "test": test, "splits": splits, "cfg": cfg,
            "runs": runs, "seconds": time.perf_counter() - t0}
