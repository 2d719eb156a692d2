"""A floor on how many distinct ground truths a batch holds, per app and level.

A ground truth is counted by what the agent must find or do: the hidden
injection for a reactive app (routing, k8s), the golden program for cp. A
batch that repeats its ground truths counts the repeats as independent
samples in the report's intervals, so a change that narrows the query space
fails here. The floors are the counts of one fixed batch (1,500 queries,
levels 1-3 assigned round-robin, seed 5: 500 per level); a change that
widens the space may raise them.
"""

from collections import defaultdict

import pytest

from netbench.core.generate import generate_batch
from netbench.core.types import BenchmarkConfig
from netbench.digest import canonical_json

FLOORS = {
    "cp": {1: 193, 2: 162, 3: 490},
    "routing": {1: 495, 2: 500, 3: 500},
    "k8s": {1: 104, 2: 391, 3: 356},
}


def _ground_truth(app: str, truth) -> str:
    data = truth.to_json()
    return canonical_json(data["program"] if app == "cp" else data["hidden_injection"])


@pytest.mark.parametrize("app", sorted(FLOORS))
def test_distinct_ground_truths_per_level_stay_above_the_floor(app):
    config = BenchmarkConfig(app=app, num_queries=1500, levels=(1, 2, 3), seed=5)
    distinct = defaultdict(set)
    for query, truth in generate_batch(config):
        distinct[query.level].add(_ground_truth(app, truth))
    counts = {level: len(truths) for level, truths in sorted(distinct.items())}
    assert all(counts[level] >= floor for level, floor in FLOORS[app].items()), counts
