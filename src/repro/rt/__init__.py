"""Real network runtime: the protocol over TCP between OS processes.

Where :mod:`repro.sim` *models* the distributed log (simulated clocks,
LAN contention, failure injection), this package *runs* it:

* :mod:`repro.rt.filestore` — durable file-backed log-server storage:
  an fsync'd append stream replayed through the unchanged in-memory
  store on recovery, plus a persisted append-forest index;
* :mod:`repro.rt.server` — the asyncio log-server daemon speaking the
  Figure 4-1 message set in the binary encoding of
  :mod:`repro.net.codec`;
* :mod:`repro.rt.client` — the asyncio N-of-M replicated-log client
  with epoch-bumped restart;
* :mod:`repro.rt.cluster` — a loopback cluster harness spawning M
  server processes for tests and benchmarks;
* :mod:`repro.rt.loadgen` — an ET1-shaped load driver reporting
  throughput and ForceLog latency percentiles (import it by name: it
  is not re-exported here, so that a ``repro serve`` daemon, which
  imports this package for :mod:`repro.rt.server`, does not load the
  workload and analysis models with it);
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

from .chaosproxy import ChaosProxy, ProxiedCluster, ProxyFleet
from .client import AsyncReplicatedLog, ServerConnection, async_retry
from .cluster import LoopbackCluster, ServerProcess
from .faultfs import FaultInjector, PassthroughIO, PowerLoss
from .faultspec import FaultSpec, FaultSpecError, parse_plan
from .filestore import FileLogStore, FilePageStore
from .placement import (
    ClusterSpec,
    HashRing,
    PlacementDirectory,
    TenantQuota,
    derive_client_seed,
    load_cluster_spec,
    loadgen_client_ids,
    qualified_client_id,
    tenant_of,
)
from .server import LogServerDaemon, run_server

__all__ = [
    "AsyncReplicatedLog",
    "ChaosProxy",
    "ClusterSpec",
    "FaultInjector",
    "FaultSpec",
    "FaultSpecError",
    "FileLogStore",
    "FilePageStore",
    "HashRing",
    "LogServerDaemon",
    "LoopbackCluster",
    "PassthroughIO",
    "PlacementDirectory",
    "PowerLoss",
    "ProxiedCluster",
    "ProxyFleet",
    "ServerConnection",
    "ServerProcess",
    "TenantQuota",
    "async_retry",
    "derive_client_seed",
    "load_cluster_spec",
    "loadgen_client_ids",
    "parse_plan",
    "qualified_client_id",
    "run_server",
    "tenant_of",
]
