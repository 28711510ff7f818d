"""The one in-process cluster of the ``tests/rt`` suite.

``M`` :class:`~repro.rt.server.LogServerDaemon` instances over
:class:`~repro.rt.filestore.FileLogStore` directories under ``root``,
all on this process's event loop — real sockets and real files, but
fast and debuggable.  Optionally each daemon shares one tenant quota
table, and optionally each sits behind its own
:class:`~repro.rt.chaosproxy.ChaosProxy`: ``proxy_kwargs`` go to the
*faulty* server's proxy (default ``"s1"``, aliased as ``proxy``), the
others get clean ones, and :meth:`addresses` then names the proxies
(``proxied=True``).
"""

from __future__ import annotations

import os

from repro.rt.chaosproxy import ChaosProxy
from repro.rt.filestore import FileLogStore
from repro.rt.server import LogServerDaemon


class Cluster:
    """``async with Cluster(tmp_path) as cluster:`` — daemons s1…sM."""

    def __init__(self, root, m: int = 3, *, quotas=None,
                 daemon_cls=LogServerDaemon, proxied: bool = False,
                 faulty: str = "s1", **proxy_kwargs):
        self.root = root
        self.m = m
        self.quotas = quotas
        self.daemon_cls = daemon_cls
        self.proxied = proxied
        self.faulty = faulty
        self.proxy_kwargs = proxy_kwargs
        self.daemons: dict[str, LogServerDaemon] = {}
        self.proxies: dict[str, ChaosProxy] = {}
        self.proxy: ChaosProxy | None = None

    async def __aenter__(self):
        for i in range(self.m):
            sid = f"s{i + 1}"
            daemon = await self.start(sid)
            if self.proxied:
                proxy = ChaosProxy(
                    daemon.host, daemon.port,
                    **(self.proxy_kwargs if sid == self.faulty else {}))
                await proxy.start()
                self.proxies[sid] = proxy
        self.proxy = self.proxies.get(self.faulty)
        return self

    async def start(self, sid: str, port: int = 0) -> LogServerDaemon:
        daemon = self.daemon_cls(
            FileLogStore(os.path.join(self.root, sid), sid), port=port,
            quotas=self.quotas)
        await daemon.start()
        self.daemons[sid] = daemon
        return daemon

    async def stop(self, sid: str) -> None:
        await self.daemons[sid].close()

    async def bounce(self, sid: str) -> None:
        """Crash/restart one daemon on the same port; its durable files
        survive, its memory does not."""
        port = self.daemons[sid].port
        await self.stop(sid)
        await self.start(sid, port=port)

    def addresses(self) -> dict[str, tuple[str, int]]:
        if self.proxied:
            return {sid: ("127.0.0.1", proxy.port)
                    for sid, proxy in self.proxies.items()}
        return {sid: (d.host, d.port) for sid, d in self.daemons.items()}

    def fences(self, client_id: str) -> dict[str, int]:
        return {sid: d.store.fence_epoch(client_id)
                for sid, d in self.daemons.items()}

    async def __aexit__(self, *exc):
        for proxy in self.proxies.values():
            await proxy.close()
        for daemon in self.daemons.values():
            try:
                await daemon.close()
            except Exception:
                pass
