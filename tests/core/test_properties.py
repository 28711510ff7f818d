"""Property-based tests of the replication algorithm's invariants.

The properties the paper's correctness argument rests on:

1. every WriteLog-acknowledged record is readable with its exact data,
   across any sequence of client crashes and restarts;
2. LSNs strictly increase across WriteLog calls, including across
   restarts;
3. interval merge keeps the highest epoch per LSN regardless of report
   order;
4. the merged picture of any ``M − N + 1``-subset of servers covers
   every acknowledged record.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ReplicationConfig
from repro.core.epoch import make_generator
from repro.core.intervals import MergedIntervalMap, ServerIntervals, intervals_from_lsns
from repro.core.replicated_log import ReplicatedLog
from repro.core.store import LogServerStore


def build(m, n, delta=1):
    stores = {f"s{i}": LogServerStore(f"s{i}") for i in range(m)}
    log = ReplicatedLog(
        "c1", stores,
        ReplicationConfig(m, n, delta=delta),
        make_generator(3),
    )
    log.initialize()
    return log, stores


# operations: write payload, crash+restart, or crash/restart a server
op_strategy = st.one_of(
    st.binary(min_size=0, max_size=40).map(lambda b: ("write", b)),
    st.just(("restart", None)),
    st.integers(min_value=0, max_value=2).map(lambda i: ("toggle", i)),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(op_strategy, max_size=25))
def test_acknowledged_records_always_readable(ops):
    """Durability across arbitrary crash/restart interleavings (M=3, N=2)."""
    log, stores = build(3, 2)
    store_list = list(stores.values())
    acknowledged: dict[int, bytes] = {}
    for op, arg in ops:
        if op == "write":
            try:
                lsn = log.write(arg)
            except Exception:
                # not enough servers up; re-init when possible
                for st_ in store_list:
                    st_.restart()
                log.initialize()
                continue
            acknowledged[lsn] = arg
        elif op == "restart":
            log.crash()
            for st_ in store_list:
                st_.restart()
            log.initialize()
        else:
            target = store_list[arg]
            if target.available:
                target.crash()
            else:
                target.restart()
    # bring everything up and re-initialize, then audit
    for st_ in store_list:
        st_.restart()
    log.crash()
    log.initialize()
    for lsn, data in acknowledged.items():
        assert log.read(lsn).data == data


@settings(max_examples=40, deadline=None)
@given(
    writes=st.lists(st.integers(0, 255), min_size=0, max_size=30),
    restart_at=st.integers(min_value=0, max_value=30),
)
def test_lsns_strictly_increase_across_restarts(writes, restart_at):
    log, _ = build(3, 2)
    last = 0
    for i, byte in enumerate(writes):
        if i == restart_at:
            log.crash()
            log.initialize()
        lsn = log.write(bytes([byte]))
        assert lsn > last
        last = lsn


@settings(max_examples=80, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.integers(1, 30),           # lsn
            st.integers(1, 6),            # epoch
            st.sampled_from(["a", "b", "c"]),  # server
        ),
        max_size=60,
    )
)
def test_merge_keeps_highest_epoch_regardless_of_order(entries):
    merged_fwd = MergedIntervalMap()
    for lsn, epoch, server in entries:
        merged_fwd.note(lsn, epoch, server)
    merged_rev = MergedIntervalMap()
    for lsn, epoch, server in reversed(entries):
        merged_rev.note(lsn, epoch, server)
    for lsn in set(e[0] for e in entries):
        expected = max(e[1] for e in entries if e[0] == lsn)
        assert merged_fwd.epoch_of(lsn) == expected
        assert merged_rev.epoch_of(lsn) == expected
        assert set(merged_fwd.servers_for(lsn)) == set(merged_rev.servers_for(lsn))


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(1, 40), st.integers(1, 5)),
        max_size=50,
    )
)
def test_interval_compression_roundtrip(pairs):
    """intervals_from_lsns covers exactly the input (lsn, epoch) pairs."""
    intervals = intervals_from_lsns(pairs)
    covered = set()
    for interval in intervals:
        for lsn in interval.lsns():
            covered.add((lsn, interval.epoch))
    assert covered == set(pairs)
    # intervals are maximal: no two adjacent same-epoch intervals
    for a, b in zip(intervals, intervals[1:]):
        if a.epoch == b.epoch:
            assert b.lo > a.hi + 1


@settings(max_examples=30, deadline=None)
@given(
    n_writes=st.integers(0, 12),
    seed=st.integers(0, 10_000),
)
def test_any_init_quorum_covers_all_acknowledged_records(n_writes, seed):
    """Merging any M−N+1 interval lists names a holder for every record."""
    m, n = 5, 2
    log, stores = build(m, n)
    lsns = [log.write(b"x%d" % i) for i in range(n_writes)]
    rng = random.Random(seed)
    subset = rng.sample(sorted(stores), m - n + 1)
    reports = [
        ServerIntervals(sid, stores[sid].client_state("c1").intervals())
        for sid in subset
    ]
    merged = MergedIntervalMap.merge(reports)
    for lsn in lsns:
        assert lsn in merged
        assert len(merged.servers_for(lsn)) >= 1
