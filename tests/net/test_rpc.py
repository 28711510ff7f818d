"""Tests for the synchronous RPC layer."""

import random

import pytest

from repro.core.errors import ServerUnavailable
from repro.net.lan import Lan
from repro.net.rpc import RpcClient, RpcReply, serve_rpc
from repro.net.transport import Endpoint
from repro.net.messages import IntervalListCall, IntervalListReply
from repro.sim.kernel import Simulator


def build(loss_prob=0.0, seed=0, handler_delay=0.001):
    sim = Simulator()
    lan = Lan(sim, loss_prob=loss_prob, rng=random.Random(seed))
    client = Endpoint(sim, lan, "client")
    server = Endpoint(sim, lan, "server")
    calls_served = []

    def server_side():
        conn = yield from server.accept()

        def handler(body):
            yield sim.timeout(handler_delay)
            calls_served.append(body)
            return IntervalListReply(client_id=body.client_id, intervals=())

        yield from serve_rpc(sim, conn, handler)

    sim.spawn(server_side())
    return sim, lan, client, calls_served


class TestRpc:
    def test_call_returns_reply_body(self):
        sim, lan, client, served = build()
        result = {}

        def client_side():
            conn = yield from client.connect("server")
            rpc = RpcClient(sim, conn)

            def pump():
                while True:
                    message = yield conn.inbox.get()
                    if isinstance(message, RpcReply):
                        rpc.dispatch(message)

            sim.spawn(pump())
            reply = yield from rpc.call(IntervalListCall(client_id="c1"))
            result["reply"] = reply

        sim.spawn(client_side())
        sim.run(until=10)
        assert isinstance(result["reply"], IntervalListReply)
        assert len(served) == 1

    def test_retries_on_loss_then_succeeds(self):
        sim, lan, client, served = build(loss_prob=0.4, seed=2)
        result = {"count": 0}

        def client_side():
            conn = yield from client.connect("server")
            rpc = RpcClient(sim, conn)

            def pump():
                while True:
                    message = yield conn.inbox.get()
                    if isinstance(message, RpcReply):
                        rpc.dispatch(message)

            sim.spawn(pump())
            for _ in range(10):
                yield from rpc.call(IntervalListCall(client_id="c1"),
                                    retries=8)
                result["count"] += 1
            result["retries"] = rpc.retries

        sim.spawn(client_side())
        sim.run(until=120)
        assert result["count"] == 10
        assert result["retries"] > 0

    def test_gives_up_after_budget(self):
        sim = Simulator()
        lan = Lan(sim)
        client = Endpoint(sim, lan, "client")
        server = Endpoint(sim, lan, "server")

        def server_side():
            yield from server.accept()
            # accept the connection, never answer RPCs

        sim.spawn(server_side())
        result = {}

        def client_side():
            conn = yield from client.connect("server")
            rpc = RpcClient(sim, conn)
            try:
                yield from rpc.call(IntervalListCall(client_id="c1"),
                                    timeout_s=0.1, retries=1)
            except ServerUnavailable:
                result["failed_at"] = sim.now

        sim.spawn(client_side())
        sim.run(until=60)
        assert result["failed_at"] == pytest.approx(0.2, abs=0.05)

    def test_duplicate_reply_ignored(self):
        sim, lan, client, served = build()
        result = {}

        def client_side():
            conn = yield from client.connect("server")
            rpc = RpcClient(sim, conn)

            def pump():
                while True:
                    message = yield conn.inbox.get()
                    if isinstance(message, RpcReply):
                        first = rpc.dispatch(message)
                        second = rpc.dispatch(message)  # duplicated
                        result.setdefault("dups", []).append((first, second))

            sim.spawn(pump())
            yield from rpc.call(IntervalListCall(client_id="c1"))

        sim.spawn(client_side())
        sim.run(until=10)
        assert result["dups"][0] == (True, False)

    def test_non_rpc_messages_ignored_by_server(self):
        sim = Simulator()
        lan = Lan(sim)
        client = Endpoint(sim, lan, "client")
        server = Endpoint(sim, lan, "server")
        served = []

        def server_side():
            conn = yield from server.accept()

            def handler(body):
                served.append(body)
                return IntervalListReply(client_id="x", intervals=())
                yield  # pragma: no cover

            yield from serve_rpc(sim, conn, handler)

        def client_side():
            conn = yield from client.connect("server")
            yield from conn.send("not-an-rpc")

        sim.spawn(server_side())
        sim.spawn(client_side())
        sim.run(until=10)
        assert served == []
