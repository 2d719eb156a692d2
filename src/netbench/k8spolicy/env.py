"""Multi-turn environment for reactive network-policy episodes."""

from __future__ import annotations

from ..core.reactive import ReactiveEnvironment
from ..core.types import GroundTruth
from .connectivity import connectivity_check
from .generate import rebuild_cluster
from .kubectl import exec_kubectl
from .model import cluster_digest


class K8sEnvironment(ReactiveEnvironment):
    def __init__(self, truth: GroundTruth, safety_rule: str = "strict"):
        super().__init__(rebuild_cluster(truth)[1], safety_rule)

    def verdict(self, policies):
        return connectivity_check(policies)

    def execute(self, policies, message):
        return exec_kubectl(policies, str(message.payload))

    def report(self, output: str, audit) -> str:
        return output + "\nConnectivity audit:\n" + audit.render()

    def final_digest(self) -> str:
        return cluster_digest(self.state)
