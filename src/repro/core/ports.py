"""Transport-independent access to log servers.

The replication algorithm of Section 3 is independent of how requests
reach a server: the paper runs it over specialized LAN protocols, the
tests run it over direct function calls, and the simulator runs it over
a modelled network.  :class:`ServerPort` is the small interface the
algorithm needs; :class:`DirectServerPort` binds it straight to an
in-process :class:`~repro.core.store.LogServerStore`.
"""

from __future__ import annotations

from typing import Callable, Mapping, Protocol, runtime_checkable

from .errors import ServerUnavailable
from .intervals import ServerIntervals
from .procedure import ACK, COPY, INSTALL, INTERVAL_LIST, READ, Call
from .records import Epoch, LSN, StoredRecord
from .store import LogServerStore


@runtime_checkable
class ServerPort(Protocol):
    """What the client-side algorithm requires of one log server.

    Implementations raise :class:`~repro.core.errors.ServerUnavailable`
    (or its subclass ``RecordNotStored``) when the server cannot serve
    the request; the algorithm treats both as per-server failures and
    moves to another server.
    """

    @property
    def server_id(self) -> str: ...

    def server_write_log(
        self, client_id: str, lsn: LSN, epoch: Epoch, present: bool,
        data: bytes = b"", kind: str = "data",
    ) -> None: ...

    def server_read_log(self, client_id: str, lsn: LSN) -> StoredRecord: ...

    def interval_list(self, client_id: str) -> ServerIntervals: ...

    def copy_log(
        self, client_id: str, lsn: LSN, epoch: Epoch, present: bool,
        data: bytes = b"", kind: str = "data",
    ) -> None: ...

    def install_copies(self, client_id: str, epoch: Epoch) -> int: ...


class DirectServerPort:
    """A port that invokes a local :class:`LogServerStore` directly.

    Used by unit and property tests, and by the closed-form availability
    experiments where network timing is irrelevant.
    """

    def __init__(self, store: LogServerStore):
        self._store = store

    @property
    def server_id(self) -> str:
        return self._store.server_id

    @property
    def store(self) -> LogServerStore:
        """The underlying store (exposed for failure injection in tests)."""
        return self._store

    def server_write_log(
        self, client_id: str, lsn: LSN, epoch: Epoch, present: bool,
        data: bytes = b"", kind: str = "data",
    ) -> None:
        self._store.server_write_log(client_id, lsn, epoch, present, data, kind)

    def server_read_log(self, client_id: str, lsn: LSN) -> StoredRecord:
        return self._store.server_read_log(client_id, lsn)

    def interval_list(self, client_id: str) -> ServerIntervals:
        return self._store.interval_list(client_id)

    def copy_log(
        self, client_id: str, lsn: LSN, epoch: Epoch, present: bool,
        data: bytes = b"", kind: str = "data",
    ) -> None:
        self._store.copy_log(client_id, lsn, epoch, present, data, kind)

    def install_copies(self, client_id: str, epoch: Epoch) -> int:
        return self._store.install_copies(client_id, epoch)


def port_performer(
    ports: Mapping[str, ServerPort], client_id: str,
) -> Callable[[Call], object]:
    """The direct driver's half of :func:`repro.core.procedure.run`.

    Answers a procedure's log-server calls with plain method calls on
    ``ports``; a server id with no port is an unavailable server.  A
    port has no generator representative and no fence, so a procedure
    that asks for one was handed the wrong driver.
    """

    def perform(call: Call):
        port = ports.get(call.server_id)
        if port is None:
            raise ServerUnavailable(call.server_id, "no port for this server")
        op, args = call.op, call.args
        if op == INTERVAL_LIST:
            return port.interval_list(client_id).intervals
        if op == READ:
            return (port.server_read_log(client_id, *args),)
        if op == COPY:
            for r in args[1]:
                port.copy_log(client_id, r.lsn, r.epoch, r.present,
                              r.data, r.kind)
            return ACK
        if op == INSTALL:
            port.install_copies(client_id, *args)
            return ACK
        raise NotImplementedError(f"a ServerPort cannot serve {op!r}")

    return perform
