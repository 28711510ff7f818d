"""Queueing resources for the simulation kernel.

Two primitives cover everything the log-server and client models need:

* :class:`Resource` — a FIFO server with fixed capacity (a CPU, a disk
  arm) that tracks busy time so experiments can report utilization, the
  quantity Section 4.1 reasons about; and
* :class:`Channel` — an unbounded FIFO of messages with blocking
  ``get``, used for process mailboxes.

Hot-path contract (mirrors the kernel's pooling caveat): the events
returned by ``Channel.get`` and ``Resource.acquire`` must be yielded
immediately — ``msg = yield ch.get()`` — not stored, re-yielded later,
or combined with ``any_of``/``all_of``.  The non-blocking paths return
a shared pre-triggered event per channel/resource (consumed inline by
the yielding process with no allocation and no heap traffic), and
blocked waiters are recycled through the kernel's event free list
after delivery.  Every use in this repository follows the contract.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .kernel import Event, Simulator


def _wake_waiter(ev: Event, value: Any) -> None:
    """Deliver ``value`` to a queued waiter event.

    The dominant case — a sole waiting process in the ``_proc`` slot —
    is handed to the kernel as a direct-resume heap entry (``None``
    callback), which resumes the process at the pop and recycles the
    event object.  Demoted or not-yet-waited events fall back to the
    general trigger and are not recycled.
    """
    if ev._proc is not None:
        ev._value = value
        sim = ev.sim
        seq = sim._seq + 1
        sim._seq = seq
        sim._ready.append((seq, None, ev))
    else:
        ev.succeed(value)


def _pooled_event(sim: Simulator, name: str) -> Event:
    """A fresh untriggered event, reusing the kernel free list."""
    pool = sim._event_pool
    if pool:
        ev = pool.pop()
        ev.name = name
        return ev
    return Event(sim, name)


class Resource:
    """A FIFO resource with ``capacity`` concurrent holders.

    Usage from a process::

        grant = yield resource.acquire()
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()

    or, for the dominant pattern of "hold for a fixed service time",
    the one-liner ``yield from resource.use(service_time)``.

    Busy time is integrated continuously, so ``utilization(t0, t1)``
    reports the fraction of capacity-time consumed — directly
    comparable with the paper's CPU- and disk-utilization estimates.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        #: precomputed grant-event name (acquire() is a hot path; an
        #: f-string per call shows up in profiles)
        self._acquire_name = name + ".acquire"
        #: shared grant event for the uncontended case: always
        #: triggered, value always 0.0 (no queueing delay)
        self._ready_ev = Event(sim, self._acquire_name)
        self._ready_ev._triggered = True
        self._ready_ev._value = 0.0
        self._in_use = 0
        self._queue: deque[Event] = deque()
        # utilization accounting
        self._busy_integral = 0.0
        self._last_change = sim.now
        self.total_served = 0
        self._wait_total = 0.0
        self._wait_count = 0

    # -- accounting -------------------------------------------------------

    def _account(self) -> None:
        now = self.sim.now
        self._busy_integral += self._in_use * (now - self._last_change)
        self._last_change = now

    def utilization(self, t0: float = 0.0, t1: float | None = None) -> float:
        """Fraction of capacity-time busy over ``[t0, t1]``.

        ``t0`` must be 0 for exact results (the integral is cumulative);
        passing a later ``t0`` subtracts nothing and is rejected to
        avoid silent misuse.
        """
        if t0 != 0.0:
            raise ValueError("utilization is tracked cumulatively from t=0")
        self._account()
        end = t1 if t1 is not None else self.sim.now
        if end <= 0:
            return 0.0
        return self._busy_integral / (end * self.capacity)

    def busy_integral(self) -> float:
        """Cumulative busy capacity-time; diff two snapshots to get the
        utilization of a measurement window."""
        self._account()
        return self._busy_integral

    def mean_wait(self) -> float:
        """Mean queueing delay experienced by granted acquisitions."""
        if self._wait_count == 0:
            return 0.0
        return self._wait_total / self._wait_count

    # -- acquisition -------------------------------------------------------

    def acquire(self) -> Event:
        """An event that succeeds when a unit of the resource is granted.

        The event's value is the time spent queueing.  Yield it
        immediately (see the module hot-path contract).
        """
        if self._in_use < self.capacity:
            # inlined _account()/_note_wait(0): granting an idle unit
            # is the dominant case and sits on the hot path.
            now = self.sim.now
            self._busy_integral += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use += 1
            self._wait_count += 1
            return self._ready_ev
        ev = _pooled_event(self.sim, self._acquire_name)
        # Stash enqueue time on the event for wait accounting.
        ev._value = self.sim.now  # reused as enqueue timestamp
        self._queue.append(ev)
        return ev

    def release(self) -> None:
        """Return one unit; hands it to the queue head if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        if self._queue:
            ev = self._queue.popleft()
            waited = self.sim.now - ev._value
            self._note_wait(waited)
            _wake_waiter(ev, waited)
            # _in_use stays the same: the unit moves to the next holder.
            self._account()
        else:
            # _account() inlined: the uncontended release is on the
            # per-packet hot path.
            now = self.sim.now
            self._busy_integral += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use -= 1

    def _note_wait(self, waited: float) -> None:
        self._wait_total += waited
        self._wait_count += 1

    def use(self, duration: float):
        """Acquire, hold for ``duration``, release.  ``yield from`` me.

        Returns the queueing delay, so callers can separate waiting
        from service in latency breakdowns.
        """
        waited = yield self.acquire()
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release()
            self.total_served += 1
        return waited


class Channel:
    """An unbounded FIFO message queue with blocking ``get``.

    ``put`` never blocks (the paper's servers shed load explicitly
    rather than by back-pressure, Section 4.2).  ``get`` returns an
    event yielding the next message; yield it immediately (see the
    module hot-path contract).
    """

    def __init__(self, sim: Simulator, name: str = "channel"):
        self.sim = sim
        self.name = name
        self._get_name = name + ".get"
        #: shared get event for the non-empty case; its value is
        #: rewritten per get and consumed inline by the yielder.
        self._ready_ev = Event(sim, self._get_name)
        self._ready_ev._triggered = True
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self.total_put = 0
        self.total_got = 0
        self.max_depth = 0
        #: optional callback invoked whenever a message is consumed;
        #: the transport uses it to grant flow-control allocation.
        self.consume_hook = None
        #: optional synchronous receiver: when set, ``put`` hands the
        #: item straight to this callable instead of queueing it.  The
        #: network endpoint demultiplexer uses it — per-packet demux is
        #: entirely non-blocking, so routing in the delivery event
        #: avoids one kernel event and one process resumption per
        #: packet received.
        self.receiver = None

    def put(self, item: Any) -> None:
        self.total_put += 1
        receiver = self.receiver
        if receiver is not None:
            self.total_got += 1
            receiver(item)
            return
        if self._getters:
            # inlined _wake_waiter/_note_consumed (hottest transport path)
            ev = self._getters.popleft()
            if ev._proc is not None:
                ev._value = item
                sim = self.sim
                seq = sim._seq + 1
                sim._seq = seq
                sim._ready.append((seq, None, ev))
            else:
                ev.succeed(item)
            self.total_got += 1
            if self.consume_hook is not None:
                self.consume_hook()
            return
        items = self._items
        items.append(item)
        if len(items) > self.max_depth:
            self.max_depth = len(items)

    def get(self) -> Event:
        items = self._items
        if items:
            # shared pre-triggered event: the yielding process
            # continues inline — no allocation, no heap round-trip.
            ev = self._ready_ev
            ev._value = items.popleft()
            self.total_got += 1
            if self.consume_hook is not None:
                self.consume_hook()
            return ev
        pool = self.sim._event_pool
        if pool:
            ev = pool.pop()
            ev.name = self._get_name
        else:
            ev = Event(self.sim, self._get_name)
        self._getters.append(ev)
        return ev

    def _note_consumed(self) -> None:
        self.total_got += 1
        if self.consume_hook is not None:
            self.consume_hook()

    def __len__(self) -> int:
        return len(self._items)
