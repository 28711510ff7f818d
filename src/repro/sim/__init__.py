"""Deterministic discrete-event simulation substrate.

The kernel (:mod:`repro.sim.kernel`) provides processes-as-generators
over a virtual clock; :mod:`repro.sim.resources` adds FIFO resources
with utilization tracking and message channels;
:mod:`repro.sim.stats` the metric collectors; :mod:`repro.sim.rng`
named seeded random streams; and :mod:`repro.sim.failures` crash/repair
schedules for the availability experiments.
"""
