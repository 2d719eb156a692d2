"""Multi-turn environment for reactive network-policy episodes: the reactive game of ``K8S``."""

from __future__ import annotations

from ..core.reactive import ReactiveEnvironment
from .generate import K8S


class K8sEnvironment(ReactiveEnvironment):
    app = K8S

    def final_digest(self) -> str:
        return self.app.digest(self.state)
