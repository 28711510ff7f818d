"""The complete transaction-processing client node (Section 2).

A :class:`ClientNode` bundles the pieces a processing node carries: the
volatile database cache over stable storage, the recovery manager, and
a replicated-log backend.  Its crash/restart lifecycle exercises the
whole paper: crash loses the cache and the log's volatile state;
restart runs client initialization (Section 3.1.2) followed by
database restart recovery from the log.
"""

from __future__ import annotations

from typing import Iterable

from ..core.config import ReplicationConfig
from ..core.epoch import make_generator
from ..core.replicated_log import ReplicatedLog
from ..core.store import LogServerStore
from .backends import DirectLogBackend, SimLogBackend
from .recovery_manager import Database, RecoveryManager, Transaction
from .splitting import UndoCache


class ClientNode:
    """Database + recovery manager + replicated log, with a lifecycle."""

    def __init__(
        self,
        backend,
        db: Database | None = None,
        undo_cache: UndoCache | None = None,
        checkpoint_every: int = 0,
    ):
        self.backend = backend
        self.db = db if db is not None else Database()
        self.rm = RecoveryManager(
            backend, self.db, undo_cache=undo_cache,
            checkpoint_every=checkpoint_every,
        )
        self.crashes = 0

    # -- builders -----------------------------------------------------------

    @classmethod
    def direct(
        cls,
        m: int = 3,
        n: int = 2,
        delta: int = 1,
        client_id: str = "client-0",
        undo_cache: UndoCache | None = None,
        checkpoint_every: int = 0,
    ) -> tuple["ClientNode", dict[str, LogServerStore]]:
        """An in-process node over ``m`` fresh server stores."""
        stores = {f"server-{i}": LogServerStore(f"server-{i}") for i in range(m)}
        log = ReplicatedLog(
            client_id=client_id,
            stores=stores,
            config=ReplicationConfig(total_servers=m, copies=n, delta=delta),
            epoch_source=make_generator(3),
        )
        log.initialize()
        node = cls(DirectLogBackend(log), undo_cache=undo_cache,
                   checkpoint_every=checkpoint_every)
        return node, stores

    @classmethod
    def simulated(cls, sim_client, undo_cache: UndoCache | None = None,
                  checkpoint_every: int = 0) -> "ClientNode":
        """A node over an (already running) :class:`SimLogClient`."""
        return cls(SimLogBackend(sim_client), undo_cache=undo_cache,
                   checkpoint_every=checkpoint_every)

    # -- convenience transaction driver ------------------------------------------

    def run_transaction(
        self, updates: Iterable[tuple[str, str]], abort: bool = False
    ):
        """Begin, apply ``updates``, then commit (or abort).

        ``yield from`` me; returns the Transaction.
        """
        txn = yield from self.rm.begin()
        for key, value in updates:
            yield from self.rm.update(txn, key, value)
        if abort:
            yield from self.rm.abort(txn)
        else:
            yield from self.rm.commit(txn)
        return txn

    def read(self, key: str) -> str:
        return self.db.read(key)

    # -- lifecycle ------------------------------------------------------------------

    def crash(self) -> None:
        """Node crash: database cache and log volatile state are lost."""
        self.db.crash()
        self.rm.active.clear()
        if self.rm.undo_cache is not None:
            self.rm.undo_cache.clear()
        self.backend.crash()
        self.crashes += 1

    def restart(self):
        """Log client initialization, then database restart recovery."""
        yield from self.backend.restart()
        summary = yield from self.rm.restart_recovery()
        return summary
