"""Scoring, statistics, aggregation and report emission."""
