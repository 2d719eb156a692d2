"""Reactive application: Kubernetes network-policy troubleshooting."""
