"""Multi-turn environment for reactive routing episodes: the reactive game of ``ROUTING``."""

from __future__ import annotations

from ..core.reactive import ReactiveEnvironment
from .generate import ROUTING


class RoutingEnvironment(ReactiveEnvironment):
    app = ROUTING

    def final_digest(self) -> str:
        return self.app.digest(self.state)
