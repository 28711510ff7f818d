"""Experiment harness: runners for every figure/claim.

Import the submodule you need (``repro.harness.experiments``,
``.churn``, ``.crashsweep``, ...): the package itself loads nothing,
so a crash sweep never pulls in the simulator and a simulated run
never pulls in the runtime.
"""
