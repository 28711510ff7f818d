"""The repo's one benchmark: force path, read/restart path, simulator.

See ``README.md`` in this directory and ``BENCHMARK.json`` at the
repository root.  Everything here measures the code under ``src/``
from outside — by timing calls into public functions, by ``/proc`` CPU
accounting of the daemon and generator processes, and by the daemon's
``StatsCall`` wire counters — and changes none of it.
"""
