"""Property-based tests of Section 5.3 truncation against the merge.

The log-space-management argument needs truncation to commute with the
interval merge: a client that prunes its read-routing table at the
low-water mark must end up with exactly the picture it would have
built by re-initializing against servers that already truncated.  If
the two orders disagreed, a crash between the TruncateLog round and
the next initialization would change what the client believes the log
contains.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import MergedIntervalMap, ServerIntervals
from repro.core.records import StoredRecord
from repro.core.store import ClientLogState

# (lsn, epoch) pairs small enough to collide: multi-epoch rewrites of
# the same LSN are the interesting case for the highest-epoch-wins rule.
pairs_strategy = st.sets(
    st.tuples(st.integers(min_value=1, max_value=30),
              st.integers(min_value=1, max_value=5)),
    max_size=40,
)
reports_strategy = st.lists(pairs_strategy, min_size=1, max_size=4)
low_water_strategy = st.integers(min_value=1, max_value=35)


def state_from_pairs(pairs, client_id="c1"):
    """Append the pairs to a ClientLogState in legal write order."""
    state = ClientLogState(client_id)
    for lsn, epoch in sorted(pairs, key=lambda p: (p[1], p[0])):
        state.append(StoredRecord(lsn, epoch, data=b"x"))
    return state


def merged_from_states(states):
    return MergedIntervalMap.merge(
        ServerIntervals(f"s{i}", state.intervals())
        for i, state in enumerate(states)
    )


@settings(max_examples=120, deadline=None)
@given(reports=reports_strategy, low_water=low_water_strategy)
def test_prune_then_merge_equals_merge_then_prune(reports, low_water):
    """Server-side truncate_below then merge ≡ merge then prune_below."""
    truncate_first = [state_from_pairs(p) for p in reports]
    for state in truncate_first:
        state.truncate_below(low_water)
    pruned_at_servers = merged_from_states(truncate_first)

    prune_last = merged_from_states(state_from_pairs(p) for p in reports)
    prune_last.prune_below(low_water)

    assert pruned_at_servers.segments() == prune_last.segments()
    assert pruned_at_servers.high_lsn() == prune_last.high_lsn()


@settings(max_examples=120, deadline=None)
@given(reports=reports_strategy, low_water=low_water_strategy)
def test_prune_below_drops_exactly_the_prefix(reports, low_water):
    """prune_below removes every LSN below the mark and nothing else."""
    merged = merged_from_states(state_from_pairs(p) for p in reports)
    before = {lsn: merged.entry(lsn) for lsn in merged.lsns()}
    pruned = merged.prune_below(low_water)

    assert pruned == sum(1 for lsn in before if lsn < low_water)
    assert merged.lsns() == [lsn for lsn in before if lsn >= low_water]
    for lsn in merged.lsns():
        assert merged.entry(lsn) == before[lsn]


@settings(max_examples=120, deadline=None)
@given(reports=reports_strategy,
       first=low_water_strategy, second=low_water_strategy)
def test_prune_composition_is_max(reports, first, second):
    """Pruning twice ≡ pruning once at the higher mark (monotone)."""
    twice = merged_from_states(state_from_pairs(p) for p in reports)
    twice.prune_below(first)
    twice.prune_below(second)

    once = merged_from_states(state_from_pairs(p) for p in reports)
    once.prune_below(max(first, second))

    assert twice.segments() == once.segments()


@settings(max_examples=120, deadline=None)
@given(pairs=pairs_strategy, low_water=low_water_strategy)
def test_truncate_below_clips_the_server_state(pairs, low_water):
    """ClientLogState.truncate_below drops the prefix consistently."""
    state = state_from_pairs(pairs)
    lsns_before = {lsn for lsn, _ in pairs}
    dropped = state.truncate_below(low_water)

    assert dropped == sum(1 for r in [p for p in pairs]
                          if r[0] < low_water)
    assert all(r.lsn >= low_water for r in state.records)
    for lsn in lsns_before:
        if lsn < low_water:
            assert state.lookup(lsn) is None
        else:
            assert state.lookup(lsn) is not None
    for interval in state.intervals():
        assert interval.lo >= low_water
    # Re-truncating at or below the mark is a no-op.
    assert state.truncate_below(low_water) == 0
