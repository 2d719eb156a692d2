"""Application-agnostic types, generation, and the episode loop."""
