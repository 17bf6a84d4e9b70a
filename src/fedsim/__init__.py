"""Deterministic federated-learning simulator with divergence-aware aggregation.

The package namespace re-exports nothing: import each name from its submodule,
for example ``from fedsim.aggregation import aggregate``.
"""
