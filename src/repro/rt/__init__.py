"""Real network runtime: the protocol over TCP between OS processes.

Where :mod:`repro.sim` *models* the distributed log (simulated clocks,
LAN contention, failure injection), this package *runs* it:

* :mod:`repro.rt.filestore` — durable file-backed log-server storage:
  one fsync'd append stream, replayed on recovery into an in-memory
  index of handles (LSN → offset) held by the unchanged in-memory
  store;
* :mod:`repro.rt.server` — the asyncio log-server daemon speaking the
  Figure 4-1 message set in the binary encoding of
  :mod:`repro.net.codec`;
* :mod:`repro.rt.client` — the asyncio N-of-M replicated-log client
  with epoch-bumped restart;
* :mod:`repro.rt.cluster` — a loopback cluster harness spawning M
  server processes for tests and benchmarks;
* :mod:`repro.rt.loadgen` — an ET1-shaped load driver reporting
  throughput and ForceLog latency percentiles;
* :mod:`repro.rt.placement` — consistent-hash placement of tenant
  streams over the fleet, the ``placements.json`` cluster spec, and
  per-tenant quotas (the sharded multi-tenant layer over the runtime);
* :mod:`repro.rt.faultspec` — the one ``[target@]site:index:action``
  fault grammar and the crash-point counter every injector shares;
* :mod:`repro.rt.faultfs` — injectable storage I/O backends (the
  deterministic fault layer behind ``repro crashsweep``);
* :mod:`repro.rt.chaosproxy` — a fault-injecting TCP proxy (stall,
  one-way partition, and frame-level faults targeting exact protocol
  messages) so network faults compose with storage faults.

The core protocol logic (interval merging, quorum sizes, recovery
steps, retry schedule) is imported from :mod:`repro.core` unchanged —
the runtime swaps the simulated transport and storage for real ones.
"""
