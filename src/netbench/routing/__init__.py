"""Reactive application: router and subnet fault repair."""
