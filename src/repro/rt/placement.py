"""Sharded multi-tenant placement: who writes where in a large fleet.

The paper's Section 5.4 assigns each client's write-set to N of the M
log servers by hand ("the load assignment need not be static...a
client can switch servers when necessary").  A fleet serving thousands
of client streams needs that assignment to be *automatic*, *balanced*,
and *stable under roster changes* — the shape Taurus runs with a
shared fleet of Log Stores serving many database masters.

Three pieces, all coordinator-free:

* :class:`HashRing` — a consistent-hash ring with virtual nodes.  The
  ring is a pure function of the server roster (BLAKE2b of
  ``"<server_id>#<vnode>"``), so **any process computes the identical
  ring from the roster alone** — no directory service, no handshakes.
  Placing ``(tenant, client)`` keys on the ring balances streams to
  within a few percent at ≥100 vnodes, and adding or removing one
  server remaps only ~1/M of keys (the classic minimal-movement
  property, verified by hypothesis tests).

* :class:`ClusterSpec` — the ``placements.json`` file format: the
  ``host:port`` roster, the replication shape ``(N, δ)``, ring vnodes,
  and per-tenant quotas.  One file shared by ``repro serve`` (quotas),
  ``repro loadgen``/``ring``/``stats --all`` (roster), the loopback
  harness, and the placement directory.

* :class:`PlacementDirectory` — the client-facing view: for a client
  id it yields the full *preference order* of the fleet (a ring walk
  visiting every server exactly once) whose first N servers are the
  write set.  The same order ranks spares, so the Section 5.4 switch
  a crash triggers lands on the same server a deliberate rebalance
  would pick — failure handling and rebalancing converge on one
  directory.

Tenancy is encoded in the client id: ``"<tenant>/<stream>"`` (a plain
id is its own tenant).  Placement keys hash the full id, so one
tenant's streams spread over the fleet instead of hot-spotting a
single write set.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from hashlib import blake2b, sha256
from typing import Iterable, Mapping

from ..core.config import ReplicationConfig
from ..core.errors import ConfigurationError

#: Default virtual nodes per server.  128 keeps the worst arc within a
#: few percent of 1/M; the balance property test pins the bound.
DEFAULT_VNODES = 128

#: Separates tenant from stream in a client id.
TENANT_SEPARATOR = "/"


def tenant_of(client_id: str) -> str:
    """The tenant a client id belongs to (a plain id is its own tenant)."""
    return client_id.partition(TENANT_SEPARATOR)[0]


def qualified_client_id(tenant: str, stream: str) -> str:
    """``"<tenant>/<stream>"`` — the id a placed, quota'd client uses."""
    if not tenant or TENANT_SEPARATOR in tenant:
        raise ValueError(f"bad tenant name {tenant!r}")
    return f"{tenant}{TENANT_SEPARATOR}{stream}"


def _hash64(key: str) -> int:
    """Stable 64-bit ring position — identical across processes.

    Python's built-in ``hash`` is salted per process (PYTHONHASHSEED),
    which would break the coordinator-free contract; BLAKE2b is not.
    """
    return int.from_bytes(blake2b(key.encode("utf-8"),
                                  digest_size=8).digest(), "big")


class HashRing:
    """Consistent-hash ring over a server roster, with virtual nodes.

    Immutable once built; derive changed rings with
    :meth:`with_server` / :meth:`without_server`.  Every point is
    ``_hash64("<sid>#<vnode>")``, so two processes holding the same
    roster hold byte-identical rings.

    ``capacities`` weights servers for heterogeneous fleets: a server
    with capacity ``c`` gets ``round(vnodes * c)`` virtual nodes (at
    least 1), so a box declared twice as big draws ~twice the arc — and
    with it ~twice the streams.  Servers absent from the mapping weigh
    1.0, so a capacity-free roster builds the exact same ring as
    before.
    """

    def __init__(self, server_ids: Iterable[str], *,
                 vnodes: int = DEFAULT_VNODES,
                 capacities: Mapping[str, float] | None = None):
        self.server_ids = tuple(sorted(set(server_ids)))
        if not self.server_ids:
            raise ConfigurationError("a hash ring needs at least one server")
        if vnodes < 1:
            raise ConfigurationError("vnodes must be at least 1")
        self.vnodes = vnodes
        self.capacities = {sid: float(c)
                           for sid, c in dict(capacities or {}).items()
                           if sid in self.server_ids}
        for sid, c in self.capacities.items():
            if not c > 0:
                raise ConfigurationError(
                    f"server {sid!r} capacity must be positive, got {c}")
        points: list[tuple[int, str]] = []
        for sid in self.server_ids:
            for v in range(self.vnode_count(sid)):
                points.append((_hash64(f"{sid}#{v}"), sid))
        # Ties (vanishingly rare at 64 bits) break by server id, so
        # the ring stays deterministic even then.
        points.sort()
        self._points = points
        self._hashes = [h for h, _ in points]

    def successors(self, key: str, count: int) -> list[str]:
        """The first ``count`` *distinct* servers clockwise of ``key``."""
        if count > len(self.server_ids):
            raise ConfigurationError(
                f"asked for {count} distinct servers, roster has "
                f"{len(self.server_ids)}"
            )
        start = bisect_right(self._hashes, _hash64(key))
        picked: list[str] = []
        seen: set[str] = set()
        n = len(self._points)
        for i in range(n):
            sid = self._points[(start + i) % n][1]
            if sid not in seen:
                seen.add(sid)
                picked.append(sid)
                if len(picked) == count:
                    break
        return picked

    def preference(self, key: str) -> list[str]:
        """Every server, in ring-walk order from ``key``.

        The head is the write set; the tail ranks spares, so a failure
        switch and a rebalance pick replacements identically.
        """
        return self.successors(key, len(self.server_ids))

    def vnode_count(self, server_id: str) -> int:
        """Virtual nodes this server contributes (capacity-weighted)."""
        return max(1, round(self.vnodes * self.capacities.get(server_id,
                                                              1.0)))

    def with_server(self, server_id: str, *,
                    capacity: float | None = None) -> "HashRing":
        capacities = dict(self.capacities)
        if capacity is not None:
            capacities[server_id] = capacity
        return HashRing(self.server_ids + (server_id,),
                        vnodes=self.vnodes, capacities=capacities)

    def without_server(self, server_id: str) -> "HashRing":
        rest = [sid for sid in self.server_ids if sid != server_id]
        return HashRing(rest, vnodes=self.vnodes,
                        capacities=self.capacities)


@dataclass(frozen=True, slots=True)
class TenantQuota:
    """Per-tenant admission limits, enforced server-side.

    ``max_streams`` bounds concurrent client streams per tenant on one
    server (0 = unlimited); ``max_records_per_s`` bounds the rate of
    appended records (streamed or forced, each charged once) per
    tenant per server via a token bucket (0 = unlimited).  Over-quota requests get a typed
    ``ErrorReply`` (``ERR_QUOTA``) — the same back-pressure path a
    wedged disk uses — which the client backs off on instead of
    switching servers (every server would refuse equally).
    """

    max_streams: int = 0
    max_records_per_s: float = 0.0
    #: burst allowance, in seconds of rate (bucket capacity).
    burst_s: float = 1.0
    #: seconds a stream slot may sit idle before it can be reclaimed
    #: to admit a new stream (0 = sticky for the daemon's lifetime).
    idle_ttl_s: float = 0.0

    def as_dict(self) -> dict:
        return {"max_streams": self.max_streams,
                "max_records_per_s": self.max_records_per_s,
                "burst_s": self.burst_s,
                "idle_ttl_s": self.idle_ttl_s}

    @classmethod
    def from_dict(cls, raw: Mapping) -> "TenantQuota":
        return cls(max_streams=int(raw.get("max_streams", 0)),
                   max_records_per_s=float(raw.get("max_records_per_s", 0.0)),
                   burst_s=float(raw.get("burst_s", 1.0)),
                   idle_ttl_s=float(raw.get("idle_ttl_s", 0.0)))


@dataclass(slots=True)
class ClusterSpec:
    """The ``placements.json`` cluster description.

    Replaces ad-hoc positional server lists: one file names the
    ``host:port`` roster, the replication shape, the ring geometry,
    and tenant quotas, and every tool (``serve``, ``loadgen``,
    ``ring``, ``stats --all``, the loopback harness) reads the same
    one.  On disk::

        {"servers": {"s1": "127.0.0.1:4001", ...},
         "copies": 2, "delta": 8, "vnodes": 128,
         "capacities": {"s1": 2.0},
         "quotas": {"acme": {"max_streams": 4,
                             "max_records_per_s": 2000}}}

    ``capacities`` is the weighted-placement policy: a server's
    capacity multiplies its virtual-node count on the ring (absent =
    1.0), so heterogeneous fleets declare their big boxes once in the
    spec and every process places streams proportionally.
    """

    servers: dict[str, tuple[str, int]]
    copies: int = 2
    delta: int = 8
    vnodes: int = DEFAULT_VNODES
    quotas: dict[str, TenantQuota] = field(default_factory=dict)
    capacities: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.servers and self.copies > len(self.servers):
            raise ConfigurationError(
                f"spec names N={self.copies} copies but only "
                f"{len(self.servers)} servers"
            )
        for sid in self.capacities:
            if self.servers and sid not in self.servers:
                raise ConfigurationError(
                    f"capacity for unknown server {sid!r}")

    def config(self) -> ReplicationConfig:
        return ReplicationConfig(total_servers=len(self.servers),
                                 copies=self.copies, delta=self.delta)

    def as_dict(self) -> dict:
        doc = {
            "servers": {sid: f"{host}:{port}"
                        for sid, (host, port) in sorted(self.servers.items())},
            "copies": self.copies,
            "delta": self.delta,
            "vnodes": self.vnodes,
            "quotas": {tenant: quota.as_dict()
                       for tenant, quota in sorted(self.quotas.items())},
        }
        if self.capacities:
            doc["capacities"] = {sid: cap for sid, cap
                                 in sorted(self.capacities.items())}
        return doc

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ClusterSpec":
        servers: dict[str, tuple[str, int]] = {}
        for sid, addr in dict(raw.get("servers", {})).items():
            if isinstance(addr, str):
                host, _, port = addr.rpartition(":")
            else:  # ["host", port] is accepted too
                host, port = addr
            if not host:
                raise ConfigurationError(
                    f"server {sid!r}: expected host:port, got {addr!r}")
            servers[str(sid)] = (host, int(port))
        return cls(
            servers=servers,
            copies=int(raw.get("copies", 2)),
            delta=int(raw.get("delta", 8)),
            vnodes=int(raw.get("vnodes", DEFAULT_VNODES)),
            quotas={str(t): TenantQuota.from_dict(q)
                    for t, q in dict(raw.get("quotas", {})).items()},
            capacities={str(s): float(c)
                        for s, c in dict(raw.get("capacities", {})).items()},
        )

    def save(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def load_cluster_spec(path: str) -> ClusterSpec:
    """Read and validate a ``placements.json`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        return ClusterSpec.from_dict(json.load(fh))


class PlacementDirectory:
    """The fleet directory a client computes for itself from a roster.

    Wraps a :class:`ClusterSpec` with the ring built over its roster.
    ``version`` counts roster changes so logs and stats can tell which
    generation a client is placed against; derived directories
    (:meth:`without_server` / :meth:`with_server`) bump it.
    """

    def __init__(self, spec: ClusterSpec, *, version: int = 0):
        if not spec.servers:
            raise ConfigurationError("placement needs a non-empty roster")
        self.spec = spec
        self.version = version
        self.ring = HashRing(spec.servers, vnodes=spec.vnodes,
                             capacities=spec.capacities)

    # -- what a client asks --------------------------------------------

    def addresses(self) -> dict[str, tuple[str, int]]:
        return dict(self.spec.servers)

    def config(self) -> ReplicationConfig:
        return self.spec.config()

    def preference(self, client_id: str) -> list[str]:
        """Fleet in ring-walk order for this client: write set first,
        then spares in the order a switch should try them."""
        return self.ring.preference(client_id)

    def write_set(self, client_id: str) -> list[str]:
        return self.ring.successors(client_id, self.spec.copies)

    # -- roster changes ------------------------------------------------

    def without_server(self, server_id: str) -> "PlacementDirectory":
        """The directory after removing (quarantining) one server."""
        if server_id not in self.spec.servers:
            raise ConfigurationError(f"unknown server {server_id!r}")
        servers = {sid: addr for sid, addr in self.spec.servers.items()
                   if sid != server_id}
        spec = ClusterSpec(servers=servers, copies=self.spec.copies,
                           delta=self.spec.delta, vnodes=self.spec.vnodes,
                           quotas=dict(self.spec.quotas),
                           capacities={sid: cap for sid, cap
                                       in self.spec.capacities.items()
                                       if sid != server_id})
        return PlacementDirectory(spec, version=self.version + 1)

    def with_server(self, server_id: str,
                    address: tuple[str, int]) -> "PlacementDirectory":
        """The directory after adding one server to the roster."""
        servers = dict(self.spec.servers)
        servers[server_id] = address
        spec = ClusterSpec(servers=servers, copies=self.spec.copies,
                           delta=self.spec.delta, vnodes=self.spec.vnodes,
                           quotas=dict(self.spec.quotas),
                           capacities=dict(self.spec.capacities))
        return PlacementDirectory(spec, version=self.version + 1)

    # -- introspection -------------------------------------------------

    def assignments(self, client_ids: Iterable[str]) -> dict[str, list[str]]:
        """client id → write set, for ``repro ring`` and tests."""
        return {cid: self.write_set(cid) for cid in client_ids}

    def moved_clients(self, other: "PlacementDirectory",
                      client_ids: Iterable[str]) -> list[str]:
        """Clients whose *write set* differs between two directories —
        the movement a rebalance causes (order within the set ignored:
        reordering spares moves no data)."""
        return [cid for cid in client_ids
                if set(self.write_set(cid)) != set(other.write_set(cid))]

    def digest(self) -> str:
        """A stable fingerprint of the directory (roster + geometry).

        Two processes agreeing on this digest compute identical write
        sets for every possible client id.
        """
        doc = {"servers": sorted(self.spec.servers),
               "copies": self.spec.copies,
               "vnodes": self.spec.vnodes}
        if self.spec.capacities:
            # Capacities reshape the ring, so they reshape write sets;
            # omitted when empty so capacity-free digests are unchanged.
            doc["capacities"] = sorted(self.spec.capacities.items())
        return sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def loadgen_client_ids(clients: int, tenants: int = 0,
                       prefix: str = "lg") -> list[str]:
    """The client ids a placed ``loadgen --clients K`` run uses.

    With ``tenants`` > 0, streams round-robin over ``t1..t<T>`` as
    ``"t<j>/<prefix>-<i>"``; otherwise each client is its own tenant
    (``"<prefix>-<i>"``).  Shared by the CLI, the benchmark, and the
    tests so they all place the same ids.
    """
    if tenants > 0:
        return [qualified_client_id(f"t{(i % tenants) + 1}",
                                    f"{prefix}-{i + 1}")
                for i in range(clients)]
    return [f"{prefix}-{i + 1}" for i in range(clients)]


def derive_client_seed(base_seed: int, client_index: int) -> int:
    """Deterministic per-client RNG seed for multi-client runs.

    A stable hash of ``(base_seed, client_index)`` — not ``base_seed +
    i`` (adjacent bases would alias neighbouring clients) and not
    ``hash()`` (salted per process) — so K-client sweeps are
    reproducible run-to-run and across machines.
    """
    return _hash64(f"seed:{base_seed}:{client_index}")
