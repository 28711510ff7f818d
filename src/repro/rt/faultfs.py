"""Injectable storage I/O backends for the real runtime.

:class:`FileLogStore` routes every mutating filesystem call — open,
write, fsync, rename, directory fsync, unlink — through a backend
object with this interface.  The default :class:`PassthroughIO` is a
thin veneer over the ``os`` module; :class:`FaultInjector` is the
deterministic fault layer behind ``repro crashsweep``.

Every call names its **site** (``log.write.record``, ``log.fsync``,
``log.group-fsync`` — the fsync a server group commit shares across
parked ForceLogs — ``compact.rename``, ...).  The injector counts
invocations per site, so
``(site, index)`` identifies one exact I/O operation of a deterministic
workload — a *crash point*.  A storage-family
:class:`~repro.rt.faultspec.FaultSpec` (grammar and parser in
:mod:`repro.rt.faultspec`) arms one point with one action:

``enospc`` / ``eio``
    raise :class:`OSError` with that errno (the store's wedge path);
``bit-flip``
    flip one bit in the payload before writing it (the CRC path);
``short-write``
    write only a prefix of the payload, then crash (torn write);
``torn``
    write only a prefix of the payload and *keep running* — the lying
    disk.  On its own this is silent corruption (like ``bit-flip``);
    its purpose is **combined-fault plans**, where a later armed crash
    (e.g. power loss at the following ``compact.rename``) freezes the
    disk while the torn bytes are still uncommitted;
``power-loss``
    crash *before* the operation takes effect.

A plan may arm *several* points at once, so a sweep case can model
compound failures such as a torn ``compact.write`` followed by power
loss at the next ``compact.rename``.

A crash freezes the disk in the state an ALICE-style crash-consistency
model allows:

* every file is truncated back to its last fsync barrier (for
  ``short-write`` the flushed prefix of the torn write survives — both
  the all-lost and the torn shape are exercised by the sweep);
* directory operations (create, rename, unlink) that were not yet
  covered by a directory fsync are rolled back — a file's ``fsync``
  does **not** commit its own directory entry.

In-process (``mode="raise"``) the crash raises :class:`PowerLoss`
(a ``BaseException`` so ``except OSError`` recovery paths cannot
swallow it); in a daemon (``mode="exit"``) it prints
``REPRO-FAULT-CRASH <site>:<index>`` to stderr and ``os._exit``\\ s with
:data:`FAULT_EXIT_CODE` so the harness can tell an injected crash from
a genuine one.

Injected files are opened unbuffered so written == flushed and the
power-cut surgery is exact.
"""

from __future__ import annotations

import errno
import os
import sys
from pathlib import Path

from .faultspec import PointCounter

#: Exit status of a daemon killed by an injected power loss.
FAULT_EXIT_CODE = 86

#: The banner a daemon prints to stderr before an injected exit.
CRASH_BANNER = "REPRO-FAULT-CRASH"

#: Actions that return an error to the caller instead of ending the run.
_ERRNO_ACTIONS = {"enospc": errno.ENOSPC, "eio": errno.EIO}


class PowerLoss(BaseException):
    """The machine died at ``point`` (in-process simulation).

    Deliberately a ``BaseException``: the store's ``except OSError``
    wedge paths must not observe it, because after power loss there is
    no process left to wedge.
    """

    def __init__(self, point: str):
        super().__init__(point)
        self.point = point


class PassthroughIO:
    """The default backend: real I/O, no bookkeeping, no faults."""

    #: mirrored by :class:`FaultInjector`; always 0 here.
    faults_injected = 0

    def open(self, path: str | Path, mode: str, site: str):
        return open(path, mode)

    def write(self, fh, data: bytes, site: str) -> None:
        fh.write(data)

    def fsync(self, fh, site: str) -> None:
        fh.flush()
        os.fsync(fh.fileno())

    def replace(self, src: str | Path, dst: str | Path, site: str) -> None:
        os.replace(src, dst)

    def unlink(self, path: str | Path, site: str) -> None:
        os.unlink(path)

    def fsync_dir(self, path: str | Path, site: str) -> None:
        dir_fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


class TrackedFile:
    """An unbuffered file handle whose flushed/synced extents are known.

    ``written`` is the byte size the file would have if the process
    lived on; ``synced`` is the size guaranteed to survive power loss.
    Exposes the small slice of the file interface the stores use.
    """

    __slots__ = ("path", "_fh", "written", "synced")

    def __init__(self, path: str, fh, written: int, synced: int):
        self.path = path
        self._fh = fh
        self.written = written
        self.synced = synced

    def write(self, data: bytes) -> int:
        n = self._fh.write(data)
        self.written += n
        return n

    def flush(self) -> None:  # unbuffered; kept for interface parity
        pass

    def fileno(self) -> int:
        return self._fh.fileno()

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class FaultInjector(PassthroughIO):
    """Deterministic fault-injecting backend.

    With no ``specs`` it is a *recording* passthrough: every site
    invocation is appended to :attr:`trace` (and ``trace_path`` if
    given), which is how the sweep enumerates crash points.  Each
    armed storage-family spec makes its point misbehave as described
    in the module docstring.
    """

    def __init__(self, specs=(), *,
                 mode: str = "raise",
                 trace_path: str | Path | None = None):
        if mode not in ("raise", "exit"):
            raise ValueError(f"mode must be 'raise' or 'exit', not {mode!r}")
        self._points = PointCounter("storage", specs, trace_path=trace_path)
        #: every ``site:index`` reached, in order.
        self.trace = self._points.trace
        self.mode = mode
        self.faults_injected = 0
        #: set to the crash point once a simulated power loss happened;
        #: any further I/O raises :class:`PowerLoss` again so stray
        #: finalizers cannot write to the "dead" disk.
        self.tripped: str | None = None
        self._files: list[TrackedFile] = []
        #: last fsync-covered size per path (source of truth for the
        #: power-cut truncation).
        self._synced: dict[str, int] = {}
        #: directory operations not yet covered by a directory fsync,
        #: in execution order, as (dirpath, op-tuple).
        self._pending_ops: list[tuple[str, tuple]] = []

    # -- bookkeeping ---------------------------------------------------

    def _hit(self, site: str) -> str | None:
        """Count one invocation; return the armed action, if any."""
        if self.tripped is not None:
            raise PowerLoss(self.tripped)
        spec = self._points.hit(site)
        return spec.action if spec is not None else None

    def _point(self) -> str:
        return self.trace[-1]

    def _fail(self, action: str) -> None:
        """Raise the armed errno action as a plain OSError."""
        self.faults_injected += 1
        raise OSError(_ERRNO_ACTIONS[action],
                      f"injected {action} at {self._point()}")

    def _act(self, action: str | None) -> None:
        """Apply a non-write-site action (crash actions crash *before*
        the operation; bit-flip/short-write/torn degrade to power-loss
        away from a payload)."""
        if action is None:
            return
        if action in _ERRNO_ACTIONS:
            self._fail(action)
        self._crash(keep_flushed=False)

    # -- the backend interface -----------------------------------------

    def open(self, path: str | Path, mode: str, site: str):
        path = os.fspath(path)
        action = self._hit(site)
        self._act(action)
        existed = os.path.exists(path)
        fh = open(path, mode, buffering=0)
        size = os.fstat(fh.fileno()).st_size
        if existed:
            # Bytes that predate this injector are durable unless we
            # already know better (e.g. the path was a rename target).
            synced = min(self._synced.get(path, size), size)
        else:
            synced = 0
            self._pending_ops.append(
                (os.path.dirname(path), ("create", path))
            )
        self._synced[path] = synced
        tracked = TrackedFile(path, fh, written=size, synced=synced)
        self._files.append(tracked)
        return tracked

    def write(self, fh: TrackedFile, data: bytes, site: str) -> None:
        action = self._hit(site)
        if action is None:
            fh.write(data)
            return
        if action in _ERRNO_ACTIONS:
            self._fail(action)
        if action == "bit-flip":
            self.faults_injected += 1
            mid = len(data) // 2
            flipped = data[:mid] + bytes([data[mid] ^ 0x10]) + data[mid + 1:]
            fh.write(flipped)
            return
        if action == "torn":
            self.faults_injected += 1
            fh.write(data[:max(1, len(data) // 2)])
            return
        if action == "short-write":
            self.faults_injected += 1
            fh.write(data[:max(1, len(data) // 2)])
            self._crash(keep_flushed=True)
        self._crash(keep_flushed=False)  # power-loss

    def fsync(self, fh: TrackedFile, site: str) -> None:
        action = self._hit(site)
        self._act(action)
        os.fsync(fh.fileno())
        fh.synced = fh.written
        self._synced[fh.path] = fh.synced

    def replace(self, src: str | Path, dst: str | Path, site: str) -> None:
        src, dst = os.fspath(src), os.fspath(dst)
        action = self._hit(site)
        self._act(action)
        pre = Path(dst).read_bytes() if os.path.exists(dst) else None
        pre_synced = self._synced.get(
            dst, len(pre) if pre is not None else 0
        )
        src_bytes = Path(src).read_bytes()
        src_synced = min(self._synced.get(src, len(src_bytes)),
                         len(src_bytes))
        os.replace(src, dst)
        self._synced[dst] = src_synced
        self._synced.pop(src, None)
        self._pending_ops.append((
            os.path.dirname(dst),
            ("replace", src, dst, pre, pre_synced, src_bytes, src_synced),
        ))

    def unlink(self, path: str | Path, site: str) -> None:
        path = os.fspath(path)
        action = self._hit(site)
        self._act(action)
        data = Path(path).read_bytes()
        synced = min(self._synced.get(path, len(data)), len(data))
        os.unlink(path)
        self._synced.pop(path, None)
        self._pending_ops.append(
            (os.path.dirname(path), ("unlink", path, data, synced))
        )

    def fsync_dir(self, path: str | Path, site: str) -> None:
        path = os.fspath(path)
        action = self._hit(site)
        self._act(action)
        super().fsync_dir(path, site)
        # The barrier commits every pending operation in this directory.
        self._pending_ops = [
            (d, op) for d, op in self._pending_ops if d != path
        ]

    # -- the crash -----------------------------------------------------

    def _crash(self, *, keep_flushed: bool) -> None:
        """Freeze the disk in a crash-legal state and die.

        ``keep_flushed=False`` is the power-loss shape: every file
        reverts to its last fsync barrier.  ``keep_flushed=True`` is
        the torn-write shape: flushed bytes (including the partial
        in-flight write) survive.  Pending directory operations are
        rolled back in both shapes — fsync of a file never commits its
        directory entry.
        """
        self.faults_injected += 1
        point = self._point()
        self.tripped = point
        if not keep_flushed:
            for path, synced in list(self._synced.items()):
                if os.path.exists(path):
                    os.truncate(path, min(synced, os.path.getsize(path)))
        for _, op in reversed(self._pending_ops):
            self._rollback(op, keep_flushed=keep_flushed)
        self._pending_ops = []
        self.close_all()
        if self.mode == "exit":
            print(f"{CRASH_BANNER} {point}", file=sys.stderr, flush=True)
            os._exit(FAULT_EXIT_CODE)
        raise PowerLoss(point)

    @staticmethod
    def _rollback(op: tuple, *, keep_flushed: bool) -> None:
        kind = op[0]
        if kind == "create":
            _, path = op
            if os.path.exists(path):
                os.unlink(path)
        elif kind == "unlink":
            _, path, data, synced = op
            Path(path).write_bytes(data if keep_flushed else data[:synced])
        else:  # replace
            _, src, dst, pre, pre_synced, src_bytes, src_synced = op
            if pre is None:
                if os.path.exists(dst):
                    os.unlink(dst)
            else:
                Path(dst).write_bytes(
                    pre if keep_flushed else pre[:pre_synced]
                )
            Path(src).write_bytes(
                src_bytes if keep_flushed else src_bytes[:src_synced]
            )

    # -- lifecycle -----------------------------------------------------

    def close_all(self) -> None:
        """Close every tracked handle (harness cleanup after a crash)."""
        for tracked in self._files:
            try:
                tracked.close()
            except OSError:
                pass
        self._points.close()
