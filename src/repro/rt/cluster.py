"""Loopback cluster harness: M log-server daemons as real OS processes.

Spawns ``python -m repro serve`` subprocesses on 127.0.0.1 with
ephemeral ports, harvesting each daemon's ``REPRO-SERVE <server_id>
<host> <port>`` banner from stdout.  Tests and benchmarks use it to
exercise the runtime across genuine process boundaries — a SIGKILLed
server really loses its event loop, OS buffers, and sockets, and a
restarted one really recovers from its fsync'd files.

Server data directories live under ``root_dir/<server_id>/``; stderr
goes to ``root_dir/<server_id>/server.log`` for post-mortems.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..core.errors import ProtocolError
from ..net.codec import frame, read_message
from ..net.messages import StatsCall, StatsReply


async def fetch_stats(host: str, port: int, timeout: float = 2.0,
                      client_id: str = "") -> dict[str, int]:
    """One daemon's Stats counters, over a connection of their own.

    Raises :class:`OSError` or :class:`asyncio.TimeoutError` when the
    daemon cannot be reached, and :class:`ProtocolError` when it
    answers with anything but a StatsReply.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout)
    try:
        writer.write(frame(StatsCall(client_id)))
        await writer.drain()
        reply = await asyncio.wait_for(read_message(reader), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    if not isinstance(reply, StatsReply):
        raise ProtocolError(f"unexpected reply: {reply!r}")
    return reply.as_dict()


def _repo_src_dir() -> str:
    """The ``src/`` directory containing the ``repro`` package."""
    return str(Path(__file__).resolve().parents[2])


@dataclass
class ServerProcess:
    """One spawned log-server daemon and how to reach it."""

    server_id: str
    data_dir: str
    host: str = ""
    port: int = 0
    process: subprocess.Popen | None = field(default=None, repr=False)
    log_file: object = field(default=None, repr=False)

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


class LoopbackCluster:
    """Spawn and manage M daemon processes on the loopback interface.

    Usable as a context manager::

        with LoopbackCluster(root_dir, num_servers=3) as cluster:
            log = AsyncReplicatedLog("c", cluster.addresses(), config)
            ...
            cluster.kill("s1")       # SIGKILL: no goodbye, no flush
            cluster.restart("s1")    # recovers from its fsync'd files
    """

    def __init__(
        self,
        root_dir: str,
        num_servers: int = 3,
        *,
        startup_timeout: float = 15.0,
        server_args: list[str] | None = None,
    ):
        self.root_dir = str(root_dir)
        self.startup_timeout = startup_timeout
        #: extra ``repro serve`` CLI arguments applied to every spawn
        #: (e.g. ``["--fault-trace", "trace.txt"]``).
        self.server_args = list(server_args or [])
        self.servers: dict[str, ServerProcess] = {}
        for i in range(num_servers):
            sid = f"s{i + 1}"
            data_dir = os.path.join(self.root_dir, sid)
            os.makedirs(data_dir, exist_ok=True)
            self.servers[sid] = ServerProcess(server_id=sid,
                                              data_dir=data_dir)

    # -- lifecycle ----------------------------------------------------

    def start(self, extra_args: dict[str, list[str]] | None = None) -> None:
        """Start every daemon not running, overlapping their startups.

        All processes are spawned before any banner is awaited, so a
        cold M-daemon start costs max(daemon init), not the sum — the
        crash sweep starts a fresh 3-daemon cluster per case and feels
        the difference directly.  ``extra_args`` maps a server id to
        one-shot ``repro serve`` arguments for this spawn, as in
        :meth:`start_server`.  Every banner is awaited before the first
        daemon that died before announcing is raised.
        """
        extra_args = extra_args or {}
        started = [self._spawn(sid, extra_args.get(sid))
                   for sid in self.servers if not self.servers[sid].alive]
        failed = []
        for entry in started:
            try:
                self._await_banner(entry)
            except RuntimeError as exc:
                failed.append(exc)
        if failed:
            raise failed[0]

    def start_server(self, server_id: str,
                     extra_args: list[str] | None = None) -> ServerProcess:
        """Launch (or relaunch) one daemon and wait for its banner.

        ``extra_args`` are one-shot ``repro serve`` arguments for this
        spawn only (e.g. ``["--fault-plan", "log.fsync:3:power-loss"]``
        in a crash sweep — the restart after the injected crash must
        not re-arm the fault).
        """
        entry = self.servers[server_id]
        if entry.alive:
            return entry
        self._spawn(server_id, extra_args)
        self._await_banner(entry)
        return entry

    def _spawn(self, server_id: str,
               extra_args: list[str] | None = None) -> ServerProcess:
        """Fork one daemon process without waiting for its banner."""
        entry = self.servers[server_id]
        env = dict(os.environ)
        env["PYTHONPATH"] = _repo_src_dir() + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        log_path = os.path.join(entry.data_dir, "server.log")
        entry.log_file = open(log_path, "ab")
        entry.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--data-dir", entry.data_dir,
             "--server-id", server_id,
             "--port", "0"]
            + self.server_args + list(extra_args or []),
            stdout=subprocess.PIPE,
            stderr=entry.log_file,
            env=env,
        )
        return entry

    def _await_banner(self, entry: ServerProcess) -> None:
        """Block until the daemon prints ``REPRO-SERVE <id> <host> <port>``."""
        deadline = time.monotonic() + self.startup_timeout
        assert entry.process is not None and entry.process.stdout is not None
        while time.monotonic() < deadline:
            line = entry.process.stdout.readline()
            if not line:
                if entry.process.poll() is not None:
                    raise RuntimeError(
                        f"server {entry.server_id} exited with "
                        f"{entry.process.returncode} before announcing; "
                        f"see {entry.data_dir}/server.log"
                    )
                continue
            parts = line.decode("utf-8", "replace").split()
            if len(parts) == 4 and parts[0] == "REPRO-SERVE":
                entry.host, entry.port = parts[2], int(parts[3])
                return
        raise TimeoutError(
            f"server {entry.server_id} did not announce within "
            f"{self.startup_timeout}s"
        )

    def kill(self, server_id: str) -> None:
        """SIGKILL a daemon — the crash the paper's design tolerates."""
        entry = self.servers[server_id]
        if entry.process is not None and entry.process.poll() is None:
            entry.process.send_signal(signal.SIGKILL)
            entry.process.wait()
        self._close_log(entry)

    def suspend(self, server_id: str) -> None:
        """SIGSTOP a daemon: the gray failure a crash detector misses.

        The process keeps its sockets; the kernel keeps accepting TCP
        payloads into its receive buffer, so connects and small sends
        still *succeed* — only replies stop coming.  Exactly the hang
        the client's keep-alive probes exist to catch.
        """
        entry = self.servers[server_id]
        if entry.process is not None and entry.process.poll() is None:
            entry.process.send_signal(signal.SIGSTOP)

    def resume(self, server_id: str) -> None:
        """SIGCONT a suspended daemon; it resumes where it stopped."""
        entry = self.servers[server_id]
        if entry.process is not None and entry.process.poll() is None:
            entry.process.send_signal(signal.SIGCONT)

    def wait(self, server_id: str, timeout: float = 30.0) -> int:
        """Wait for a daemon to exit on its own; return its exit status.

        Used by the crash sweep: a daemon with an armed fault plan
        exits with :data:`repro.rt.faultfs.FAULT_EXIT_CODE` when the
        injected power loss fires.
        """
        entry = self.servers[server_id]
        assert entry.process is not None, "server was never started"
        code = entry.process.wait(timeout=timeout)
        self._close_log(entry)
        return code

    def restart(self, server_id: str,
                extra_args: list[str] | None = None) -> ServerProcess:
        """Bring a killed daemon back on a fresh ephemeral port."""
        self.kill(server_id)
        return self.start_server(server_id, extra_args)

    def revive(self, armed: list[str] | None = None) -> list[str]:
        """Restore the fleet to a clean, fully-alive state.

        ``armed`` names servers that were started with a one-shot
        ``--fault-plan``: they are restarted unconditionally (the plan
        may not have fired yet, and verification traffic must not trip
        it).  Any other daemon that died — an injected storage crash
        exits with :data:`~repro.rt.faultfs.FAULT_EXIT_CODE` mid-case —
        is started fresh without a plan.  Returns the ids restarted,
        which get new ephemeral ports.  Used by the multi-fault fuzz
        phase of ``repro crashsweep`` between cases.
        """
        restarted: list[str] = []
        for sid in sorted(set(armed or [])):
            self.restart(sid)
            restarted.append(sid)
        for sid, entry in self.servers.items():
            if not entry.alive:
                self.start_server(sid)
                restarted.append(sid)
        return restarted

    def stop(self) -> None:
        for entry in self.servers.values():
            if entry.process is not None and entry.process.poll() is None:
                # a SIGSTOP'd child cannot act on SIGTERM; wake it first
                entry.process.send_signal(signal.SIGCONT)
                entry.process.terminate()
        for entry in self.servers.values():
            if entry.process is not None:
                try:
                    entry.process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    entry.process.kill()
                    entry.process.wait()
            self._close_log(entry)

    @staticmethod
    def _close_log(entry: ServerProcess) -> None:
        if entry.log_file is not None:
            entry.log_file.close()
            entry.log_file = None

    # -- addressing ---------------------------------------------------

    def addresses(self) -> dict[str, tuple[str, int]]:
        """server id → (host, port), for every *started* server.

        A killed server keeps its (now dead) address so clients observe
        a genuine connection failure rather than a missing entry.
        """
        return {sid: entry.address for sid, entry in self.servers.items()
                if entry.port}

    def cluster_spec(self, *, copies: int = 2, delta: int = 8,
                     vnodes: int | None = None, quotas=None,
                     capacities=None):
        """A :class:`~repro.rt.placement.ClusterSpec` over this roster.

        Built after :meth:`start` (the ephemeral ports must be known);
        the spec feeds a placement directory or ``write_spec`` for the
        CLI tools.
        """
        from .placement import DEFAULT_VNODES, ClusterSpec
        return ClusterSpec(
            servers=self.addresses(),
            copies=copies,
            delta=delta,
            vnodes=vnodes if vnodes is not None else DEFAULT_VNODES,
            quotas=dict(quotas or {}),
            capacities=dict(capacities or {}),
        )

    def write_spec(self, path: str | None = None, **spec_kwargs) -> str:
        """Write ``placements.json`` for this cluster; return its path.

        Defaults to ``<root_dir>/placements.json`` — the file the CLI
        tools (``repro ring/loadgen/stats --cluster-spec``) consume.
        """
        spec = self.cluster_spec(**spec_kwargs)
        if path is None:
            path = os.path.join(self.root_dir, "placements.json")
        return spec.save(path)

    def __enter__(self) -> "LoopbackCluster":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
