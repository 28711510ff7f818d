"""Tests for the simulated LAN."""

import random

import pytest

from repro.net.lan import DualLan, Lan
from repro.net.packet import Packet
from repro.sim.kernel import Simulator


def packet(src="a", dst="b"):
    return Packet(src=src, dst=dst, conn_id=1, seq=1, allocation=64,
                  payload=None)


class TestLan:
    def test_delivery(self):
        sim = Simulator()
        lan = Lan(sim)
        nic = lan.attach("b")
        lan.attach("a")

        def sender():
            yield from lan.send(packet())

        sim.spawn(sender())
        sim.run()
        assert len(nic) == 1

    def test_transmission_time_from_bandwidth(self):
        sim = Simulator()
        lan = Lan(sim, bandwidth_bps=10e6, latency_s=0.0)
        lan.attach("a")
        lan.attach("b")

        def sender():
            yield from lan.send(packet())

        sim.spawn(sender())
        sim.run()
        assert sim.now == pytest.approx(64 * 8 / 10e6)

    def test_latency_added_after_transmission(self):
        sim = Simulator()
        lan = Lan(sim, bandwidth_bps=10e6, latency_s=0.001)
        nic = lan.attach("b")
        lan.attach("a")
        arrival = {}

        def sender():
            yield from lan.send(packet())

        def receiver():
            yield nic.get()
            arrival["t"] = sim.now

        sim.spawn(sender())
        sim.spawn(receiver())
        sim.run()
        assert arrival["t"] == pytest.approx(64 * 8 / 10e6 + 0.001)

    def test_medium_serializes_senders(self):
        sim = Simulator()
        lan = Lan(sim, bandwidth_bps=10e6, latency_s=0.0)
        lan.attach("a")
        lan.attach("b")

        def sender():
            yield from lan.send(packet())

        sim.spawn(sender())
        sim.spawn(sender())
        sim.run()
        assert sim.now == pytest.approx(2 * 64 * 8 / 10e6)

    def test_loss(self):
        sim = Simulator()
        lan = Lan(sim, loss_prob=1.0 - 1e-12, rng=random.Random(0))
        nic = lan.attach("b")
        lan.attach("a")

        def sender():
            for _ in range(10):
                yield from lan.send(packet())

        sim.spawn(sender())
        sim.run()
        assert len(nic) == 0
        assert lan.packets_lost == 10

    def test_duplication(self):
        sim = Simulator()
        lan = Lan(sim, dup_prob=1.0 - 1e-12, rng=random.Random(0))
        nic = lan.attach("b")
        lan.attach("a")

        def sender():
            yield from lan.send(packet())

        sim.spawn(sender())
        sim.run()
        assert len(nic) == 2
        assert lan.packets_duplicated == 1

    def test_unknown_destination_dropped(self):
        sim = Simulator()
        lan = Lan(sim)
        lan.attach("a")

        def sender():
            yield from lan.send(packet(dst="ghost"))

        sim.spawn(sender())
        sim.run()
        assert lan.packets_lost == 1

    def test_downed_network_drops(self):
        sim = Simulator()
        lan = Lan(sim)
        nic = lan.attach("b")
        lan.attach("a")
        lan.crash()

        def sender():
            yield from lan.send(packet())

        sim.spawn(sender())
        sim.run()
        assert len(nic) == 0
        lan.restart()
        assert lan.up

    def test_multicast_single_transmission(self):
        """One medium transmission reaches all receivers (Section 4.1)."""
        sim = Simulator()
        lan = Lan(sim, bandwidth_bps=10e6, latency_s=0.0)
        nics = [lan.attach(f"r{i}") for i in range(3)]
        lan.attach("a")

        def sender():
            yield from lan.multicast(packet(dst="r0"), ["r0", "r1", "r2"])

        sim.spawn(sender())
        sim.run()
        assert all(len(n) == 1 for n in nics)
        assert lan.packets_sent.count == 1
        assert sim.now == pytest.approx(64 * 8 / 10e6)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Lan(sim, bandwidth_bps=0)
        with pytest.raises(ValueError):
            Lan(sim, loss_prob=1.5)


class TestDualLan:
    def build(self):
        sim = Simulator()
        a = Lan(sim, name="a")
        b = Lan(sim, name="b")
        dual = DualLan(a, b)
        return sim, a, b, dual

    def test_attach_returns_both_nics(self):
        sim, a, b, dual = self.build()
        nic_a, nic_b = dual.attach("x")
        assert nic_a is a.nic("x")
        assert nic_b is b.nic("x")

    def test_stripes_across_networks(self):
        sim, a, b, dual = self.build()
        dual.attach("x")
        dual.attach("y")

        def sender():
            for _ in range(10):
                yield from dual.send(packet(src="x", dst="y"))

        sim.spawn(sender())
        sim.run()
        assert a.packets_sent.count == 5
        assert b.packets_sent.count == 5

    def test_fails_over_when_one_down(self):
        sim, a, b, dual = self.build()
        dual.attach("x")
        dual.attach("y")
        a.crash()

        def sender():
            for _ in range(6):
                yield from dual.send(packet(src="x", dst="y"))

        sim.spawn(sender())
        sim.run()
        assert b.packets_sent.count == 6

    def test_totals_aggregate(self):
        sim, a, b, dual = self.build()
        dual.attach("x")
        dual.attach("y")

        def sender():
            for _ in range(4):
                yield from dual.send(packet(src="x", dst="y"))

        sim.spawn(sender())
        sim.run()
        assert dual.packets_sent == 4
        assert dual.bytes_sent == 4 * 64
