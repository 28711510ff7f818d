"""Simulated local-area network.

Section 2 stipulates a high-speed LAN with multiple physical links per
node ("two complete networks, including two network interfaces in each
processing node"), and Section 4.1 sizes the load at about seven
megabits per second — enough to saturate a 10 Mbit/s network, halved
if multicast is available.

The model:

* a LAN is a shared medium with finite bandwidth — transmissions
  serialize through one :class:`~repro.sim.resources.Resource`, which is
  what makes saturation visible;
* per-packet propagation/interface latency is constant;
* loss and duplication are independent Bernoulli events per packet
  (local networks are inherently reliable, so rates default to 0 and
  tests raise them to exercise recovery);
* multicast delivers one transmission to many receivers, charging the
  medium once — the halving Section 4.1 describes;
* :class:`DualLan` stripes over two networks and fails over when one
  is down.

Every node owns a :class:`~repro.sim.resources.Channel` per network —
its NIC receive queue, able to absorb back-to-back packets.
"""

from __future__ import annotations

import random
from typing import Iterable

from ..sim.kernel import Simulator
from ..sim.resources import Channel, Resource
from ..sim.stats import Counter
from .packet import Packet


class Lan:
    """One shared-medium network."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = 10e6,
        latency_s: float = 200e-6,
        loss_prob: float = 0.0,
        dup_prob: float = 0.0,
        rng: random.Random | None = None,
        name: str = "lan",
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not (0 <= loss_prob < 1 and 0 <= dup_prob < 1):
            raise ValueError("loss/dup probabilities must be in [0, 1)")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self.loss_prob = loss_prob
        self.dup_prob = dup_prob
        self.rng = rng if rng is not None else random.Random(0)
        self.name = name
        self.medium = Resource(sim, capacity=1, name=f"{name}.medium")
        self._nics: dict[str, Channel] = {}
        self.up = True
        # traffic accounting for the Section 4.1 experiment
        self.packets_sent = Counter(f"{name}.packets")
        self.bytes_sent = Counter(f"{name}.bytes")
        self.packets_lost = 0
        self.packets_duplicated = 0

    def attach(self, node_id: str) -> Channel:
        """Register a node; returns its NIC receive queue."""
        if node_id in self._nics:
            return self._nics[node_id]
        nic = Channel(self.sim, name=f"{self.name}.nic.{node_id}")
        self._nics[node_id] = nic
        return nic

    def nic(self, node_id: str) -> Channel:
        return self._nics[node_id]

    def send(self, packet: Packet):
        """Transmit ``packet`` to its destination.  ``yield from`` me.

        Holds the medium for the transmission time, then delivers after
        the propagation latency.  Loss and duplication are decided per
        delivery.  Sending on a downed network silently drops (the
        sender's timeout machinery notices).
        """
        return self._transmit(packet, [packet.dst])

    def multicast(self, packet: Packet, destinations: Iterable[str]):
        """One transmission, many receivers (Section 4.1's halving)."""
        return self._transmit(packet, list(destinations))

    def _transmit(self, packet: Packet, destinations: list[str]):
        # medium.use() inlined — this generator runs once per packet on
        # the wire, and the extra delegation layer is measurable.
        medium = self.medium
        yield medium.acquire()
        try:
            yield self.sim.timeout(
                packet.wire_size * 8 / self.bandwidth_bps
            )
        finally:
            medium.release()
            medium.total_served += 1
        # Counter.add inlined (once per transmission).
        c = self.packets_sent
        c.count += 1
        c.total += 1.0
        c = self.bytes_sent
        c.count += 1
        c.total += packet.wire_size
        if not self.up:
            self.packets_lost += len(destinations)
            return
        if self.loss_prob == 0.0 and self.dup_prob == 0.0:
            # Reliable-LAN fast path (the default configuration): no
            # rng draws per delivery.  Each Lan owns its rng, so
            # skipping draws cannot perturb any other random stream.
            for dst in destinations:
                self._deliver(packet, dst)
            return
        for dst in destinations:
            if self.rng.random() < self.loss_prob:
                self.packets_lost += 1
                continue
            copies = 1
            if self.rng.random() < self.dup_prob:
                copies = 2
                self.packets_duplicated += 1
            for _ in range(copies):
                self._deliver(packet, dst)

    def _deliver(self, packet: Packet, dst: str) -> None:
        nic = self._nics.get(dst)
        if nic is None:
            self.packets_lost += 1
            return
        # nic.put is the delivery callback directly — no closure per
        # packet in flight.
        self.sim._schedule_at(self.sim.now + self.latency_s, nic.put, packet)

    # failure injection ------------------------------------------------------

    def crash(self) -> None:
        self.up = False

    def restart(self) -> None:
        self.up = True

    def utilization(self) -> float:
        return self.medium.utilization()


class DualLan:
    """Two redundant networks with a shared address space.

    Traffic is striped across both networks while both are up (halving
    per-network load); if one is down, all traffic uses the other.
    Receivers must drain both NICs — :meth:`attach` returns both
    channels.
    """

    def __init__(self, net_a: Lan, net_b: Lan):
        self.sim = net_a.sim
        self.nets = (net_a, net_b)
        self._stripe = 0

    def attach(self, node_id: str) -> tuple[Channel, Channel]:
        return (self.nets[0].attach(node_id), self.nets[1].attach(node_id))

    def _pick(self) -> Lan:
        up = [n for n in self.nets if n.up]
        if not up:
            # both down: pick one; the send will be dropped and the
            # sender's retry logic takes over.
            return self.nets[0]
        self._stripe += 1
        return up[self._stripe % len(up)]

    def send(self, packet: Packet):
        # returns the picked network's transmit generator directly, so
        # ``yield from`` callers pay one delegation layer, not three.
        return self._pick().send(packet)

    def multicast(self, packet: Packet, destinations: Iterable[str]):
        return self._pick().multicast(packet, destinations)

    @property
    def packets_sent(self) -> int:
        return sum(n.packets_sent.count for n in self.nets)

    @property
    def bytes_sent(self) -> float:
        return sum(n.bytes_sent.total for n in self.nets)

    def utilization(self) -> tuple[float, float]:
        return (self.nets[0].utilization(), self.nets[1].utilization())
