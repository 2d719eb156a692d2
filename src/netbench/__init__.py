"""Dynamic benchmark generation and evaluation for network operations.

The framework turns network applications into benchmark factories:
queries with executable ground truths are generated on demand, agents
are run against deterministic in-process emulators, and episodes are
scored for correctness, per-step safety, and latency.

Three applications ship built in:

* ``cp`` — constructive capacity planning over a datacenter topology
  graph (single-turn action programs).
* ``routing`` — reactive fault repair on a multi-subnet Linux router
  (multi-turn shell interaction).
* ``k8s`` — reactive NetworkPolicy troubleshooting in a microservice
  cluster (multi-turn kubectl interaction).
"""

from .core.episode import run_episode
from .core.generate import generate_batch, make_environment
from .core.types import BenchmarkConfig, GroundTruth, QuerySpec
from .errors import NetbenchError
from .evaluation.aggregate import aggregate_records
from .evaluation.metrics import MetricRecord, score_episode
from .evaluation.stats import ci95
from .seeds import derive_seed, rng_for

__version__ = "0.1.0"

__all__ = [
    "BenchmarkConfig",
    "GroundTruth",
    "MetricRecord",
    "NetbenchError",
    "QuerySpec",
    "aggregate_records",
    "ci95",
    "derive_seed",
    "generate_batch",
    "make_environment",
    "rng_for",
    "run_episode",
    "score_episode",
    "__version__",
]
