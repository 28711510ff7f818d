"""A fault-injecting loopback TCP proxy (network chaos layer).

Grown out of the stallable proxy in ``tests/rt/test_backpressure.py``:
interposed between a client and one daemon, :class:`ChaosProxy`
reproduces the network's misbehavior on demand so it can compose with
the storage faults of :mod:`repro.rt.faultfs` and the protocol faults
of :mod:`repro.rt.clientfault` in one sweep.

Two layers of faults:

**Runtime toggles** (applied per 4096-byte chunk):

* **stall** — stop forwarding in both directions while still reading
  from the peer (the observable behavior of a SIGSTOP'd server: TCP
  connects succeed, small sends land in kernel buffers, replies stop);
* **one-way partition** — drop *everything* in one direction while the
  other keeps flowing (the asymmetric gray failure keep-alive probes
  are for).  :meth:`partition` and :meth:`heal` are both
  per-direction.

**Frame-level plans** (network-family specs of the one grammar in
:mod:`repro.rt.faultspec`): when ``plans`` or ``record`` is set, each
pump direction runs an incremental
:class:`~repro.net.codec.FrameScanner`, so faults target *protocol
messages* instead of arbitrary byte windows.  A plan's crash point is
``net.<kind>.<dir>:<index>`` — the ``index``-th frame of message kind
``kind`` (a Figure 4-1 type name: ``writelog``, ``forcelog``,
``newhighlsn``, ...) crossing the proxy in direction ``dir`` (``c2s``
or ``s2c``) — and its action one of
:data:`~repro.rt.faultspec.NET_ACTIONS`:

``drop``
    swallow the frame (a lost message; TCP framing stays intact);
``corrupt-payload``
    flip one bit in the frame's body — for record-bearing messages the
    receiver's CRC rejects it (header-only frames degrade to
    ``corrupt-header``);
``corrupt-header``
    flip one bit in the message magic — the receiver's decoder fails
    and tears the connection down (silent header corruption is outside
    the model: TCP checksums make an undetectably-flipped LSN a
    Byzantine fault, not a network fault);
``truncate-mid-frame``
    forward half the frame, then kill the connection (both sides);
``delay``
    hold the frame for ``net_delay_s`` before forwarding;
``duplicate``
    forward the frame twice (the at-least-once network);
``partition-after``
    forward the frame, then drop everything in its direction — on
    every connection — until :meth:`heal` (the §5.4 sweep's "old
    server alive but half-connected" shape);
``kill-connection-after``
    forward the frame, then close both sides of this connection.

Frame indices count per ``(kind, direction)`` site across the proxy's
lifetime, so the timing-dependent keep-alive ping/pong traffic never
shifts another kind's indices and a traced clean run enumerates
replayable points.  The bit a corruption flips is drawn from a seeded
:class:`random.Random`, so a chaos run is replayable from its seed.

:class:`ProxyFleet` puts one proxy in front of every server of an
address map (real ``repro serve`` daemons) for the network crash
sweep.
"""

from __future__ import annotations

import asyncio
import random

from ..net.codec import (
    FRAME_PREFIX_BYTES,
    MESSAGE_HEADER_BYTES,
    FrameScanner,
    WireCodecError,
)
from .faultspec import (
    FaultSpec,
    FaultSpecError,
    PointCounter,
    by_target,
    plan_text,
)

#: Valid ``direction`` arguments to :meth:`ChaosProxy.partition`
#: (``both`` is a toggle convenience, not a frame direction).
DIRECTIONS = ("c2s", "s2c", "both")

#: Offset of the message body within a full frame image.
_BODY_OFFSET = FRAME_PREFIX_BYTES + MESSAGE_HEADER_BYTES


class ChaosProxy:
    """A loopback TCP proxy that misbehaves on command.

    ``stall`` and ``partition`` are toggled at runtime; frame-level
    behavior (``plans``, ``record``) is documented in the module
    docstring.
    """

    def __init__(self, upstream_host: str, upstream_port: int, *,
                 seed: int = 0, plans: tuple[FaultSpec, ...] = (),
                 record: bool = False, net_delay_s: float = 0.25):
        self.upstream = (upstream_host, upstream_port)
        self.stalled = asyncio.Event()
        self.stalled.set()  # set == flowing
        self.net_delay_s = net_delay_s
        #: frame site → invocations seen (proxy-global, so indices are
        #: stable across the reconnects a killed connection causes).
        self._points = PointCounter("net", plans)
        #: every frame point seen, in order.
        self.trace = self._points.trace
        self._frame_aware = bool(plans) or record
        self._rng = random.Random(seed)
        self._blocked: set[str] = set()
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self.port = 0
        #: every armed spec that fired, in firing order.
        self.fired: list[FaultSpec] = []
        self.faults_injected = 0
        self.bytes_forwarded = 0
        self.chunks_dropped = 0
        #: per-direction drop counters (chunks and frames both count).
        self.dropped_by_direction: dict[str, int] = {"c2s": 0, "s2c": 0}
        self.frames_forwarded = 0
        self.frames_dropped = 0
        self.frames_corrupted = 0
        self.frames_duplicated = 0
        self.frames_truncated = 0
        self.frames_delayed = 0
        self.connections_killed = 0
        #: pump directions that hit a scan error and fell back to raw
        #: passthrough (corruption desynchronized the framing).
        self.scan_errors = 0

    @property
    def tripped(self) -> str | None:
        """The first armed spec that fired, as its spec text."""
        return self.fired[0].spec if self.fired else None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]

    # -- runtime fault toggles -----------------------------------------

    def stall(self) -> None:
        """Stop forwarding in both directions (hung-server shape)."""
        self.stalled.clear()

    def unstall(self) -> None:
        self.stalled.set()

    def partition(self, direction: str = "both") -> None:
        """Silently drop all traffic flowing in ``direction``.

        Unlike :meth:`stall`, the other direction keeps flowing —
        ``"s2c"`` makes a server that hears everything but is never
        heard from, ``"c2s"`` the reverse.
        """
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        if direction == "both":
            self._blocked |= {"c2s", "s2c"}
        else:
            self._blocked.add(direction)

    def heal(self, direction: str = "both") -> None:
        """Lift the partition in ``direction`` only (default: all).

        Symmetric with :meth:`partition`: healing ``"c2s"`` after a
        ``"both"`` block leaves the ``s2c`` half in place, so
        asymmetric fault schedules compose without silently clearing
        each other.  Stall state is separate.
        """
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        if direction == "both":
            self._blocked.clear()
        else:
            self._blocked.discard(direction)

    # -- the pump ------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            up_reader, up_writer = await asyncio.open_connection(
                *self.upstream)
        except OSError:
            writer.close()
            return
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        writers = (up_writer, writer)

        def close_both() -> None:
            for w in writers:
                try:
                    w.close()
                except Exception:
                    pass

        try:
            await asyncio.gather(
                self._pump(reader, up_writer, "c2s", close_both),
                self._pump(up_reader, writer, "s2c", close_both),
            )
        except asyncio.CancelledError:
            pass  # close() tearing the connection down
        finally:
            close_both()
            if task is not None:
                self._conn_tasks.discard(task)

    async def _pump(self, src, dst, direction, close_both) -> None:
        scanner = FrameScanner() if self._frame_aware else None
        raw = scanner is None
        try:
            while True:
                chunk = await src.read(4096)
                if not chunk:
                    break
                await self.stalled.wait()
                if direction in self._blocked:
                    self.chunks_dropped += 1
                    self.dropped_by_direction[direction] += 1
                    continue
                if not raw:
                    try:
                        frames = scanner.feed(chunk)
                    except WireCodecError:
                        # The peer's own stream is malformed: forward
                        # what is buffered verbatim and let the other
                        # endpoint's decoder reject it.
                        self.scan_errors += 1
                        raw = True
                        chunk = scanner.take_buffer()
                    else:
                        for frame in frames:
                            if not await self._forward_frame(
                                    frame, dst, direction, close_both):
                                return
                        continue
                dst.write(chunk)
                await dst.drain()
                self.bytes_forwarded += len(chunk)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            try:
                dst.close()
            except Exception:
                pass

    def _flip_bit(self, data: bytes, lo: int, hi: int) -> bytes:
        pos = lo + self._rng.randrange(hi - lo)
        bit = 1 << self._rng.randrange(8)
        return data[:pos] + bytes([data[pos] ^ bit]) + data[pos + 1:]

    async def _forward_frame(self, frame, dst, direction,
                             close_both) -> bool:
        """Apply any armed plan to one frame; False ends the pump."""
        plan = self._points.hit(f"net.{frame.kind}.{direction}")
        # Re-check the partition per frame: a ``partition-after`` armed
        # earlier in this same chunk must swallow the rest of it too.
        if direction in self._blocked:
            self.frames_dropped += 1
            self.dropped_by_direction[direction] += 1
            return True
        data = frame.data
        partition_after = False
        if plan is not None:
            self.faults_injected += 1
            self.fired.append(plan)
            action = plan.action
            if action == "drop":
                self.frames_dropped += 1
                self.dropped_by_direction[direction] += 1
                return True
            if action == "delay":
                self.frames_delayed += 1
                await asyncio.sleep(self.net_delay_s)
            elif action == "corrupt-payload":
                # Header-only frames have no body; degrade to the
                # header flip (which the magic check always catches).
                if len(data) > _BODY_OFFSET:
                    data = self._flip_bit(data, _BODY_OFFSET, len(data))
                else:
                    data = self._flip_bit(data, FRAME_PREFIX_BYTES,
                                          FRAME_PREFIX_BYTES + 2)
                self.frames_corrupted += 1
            elif action == "corrupt-header":
                # Flip within the magic: deterministically detectable.
                # An undetectable header flip (say, in the LSN field)
                # would be Byzantine, outside the crash-failure model.
                data = self._flip_bit(data, FRAME_PREFIX_BYTES,
                                      FRAME_PREFIX_BYTES + 2)
                self.frames_corrupted += 1
            elif action == "truncate-mid-frame":
                cut = max(FRAME_PREFIX_BYTES + 1, len(data) // 2)
                self.frames_truncated += 1
                self.connections_killed += 1
                try:
                    dst.write(data[:cut])
                    await dst.drain()
                except (ConnectionError, OSError):
                    pass
                close_both()
                return False
            elif action == "duplicate":
                self.frames_duplicated += 1
                dst.write(data)  # first copy; second falls through
            elif action == "partition-after":
                partition_after = True
            elif action == "kill-connection-after":
                self.connections_killed += 1
                try:
                    dst.write(data)
                    await dst.drain()
                except (ConnectionError, OSError):
                    pass
                close_both()
                return False
        dst.write(data)
        await dst.drain()
        self.bytes_forwarded += len(data)
        self.frames_forwarded += 1
        if partition_after:
            self.partition(direction)
        return True

    async def close(self) -> None:
        """Stop listening and tear down every in-flight connection.

        Pump tasks are cancelled and both sides of each proxied
        connection closed, so a stalled or partitioned connection
        cannot outlive the proxy.
        """
        if self._server is not None:
            self._server.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None


class ProxyFleet:
    """One :class:`ChaosProxy` in front of every server of an address map.

    The crash sweep fronts a real
    :class:`~repro.rt.cluster.LoopbackCluster` with one of these per
    case: each network-family spec is routed to the proxy of its
    ``target`` (``s1`` when unset), ``record`` makes every proxy trace
    its frame points, and the client under test is pointed at
    :meth:`addresses`.
    """

    def __init__(self, addresses, *, plans: tuple[FaultSpec, ...] = (),
                 record: bool = False):
        self._upstream = dict(addresses)
        self.record = record
        self._plans = by_target(plans, "s1")
        for sid in self._plans:
            if sid not in self._upstream:
                raise FaultSpecError(
                    plan_text(plans), sid,
                    "names a server that is not in the cluster",
                )
        self.proxies: dict[str, ChaosProxy] = {}

    async def start(self) -> None:
        for sid, (host, port) in sorted(self._upstream.items()):
            proxy = ChaosProxy(
                host, port,
                plans=self._plans.get(sid, ()), record=self.record,
            )
            await proxy.start()
            self.proxies[sid] = proxy

    def addresses(self) -> dict[str, tuple[str, int]]:
        return {sid: ("127.0.0.1", proxy.port)
                for sid, proxy in self.proxies.items()}

    def heal(self) -> None:
        for proxy in self.proxies.values():
            proxy.heal()

    @property
    def fired(self) -> list[FaultSpec]:
        """Every armed spec that fired, proxy by proxy."""
        return [spec for p in self.proxies.values() for spec in p.fired]

    async def close(self) -> None:
        for proxy in self.proxies.values():
            await proxy.close()
