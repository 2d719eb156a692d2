"""Constructive application: datacenter capacity planning."""
