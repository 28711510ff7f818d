"""Recovery correctness: regression + property tests against an oracle.

The oracle is plain: the database after crash recovery must equal the
dictionary produced by applying exactly the committed transactions in
order.  Hypothesis drives random transaction mixes (commits, aborts,
in-flight at crash, page cleans at arbitrary points, both logging
modes) and checks the oracle after every crash.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.node import ClientNode
from repro.client.splitting import UndoCache

from ..conftest import drain


class TestLoserThenWinnerRegression:
    """A loser's undo must never clobber a later winner (found live)."""

    def test_abort_then_commit_same_key(self):
        node, _ = ClientNode.direct()
        drain(node.run_transaction([("k", "first")]))
        drain(node.run_transaction([("k", "aborted")], abort=True))
        drain(node.run_transaction([("k", "final")]))
        node.crash()
        drain(node.restart())
        assert node.db.stable["k"] == "final"

    def test_abort_then_commit_with_splitting(self):
        node, _ = ClientNode.direct(undo_cache=UndoCache())
        drain(node.run_transaction([("k", "first")]))
        # abort with a mid-transaction clean: the undo reaches the log
        txn = drain(node.rm.begin())
        drain(node.rm.update(txn, "k", "dirty"))
        drain(node.rm.clean_page("k"))
        drain(node.rm.abort(txn))
        drain(node.run_transaction([("k", "final")]))
        node.crash()
        drain(node.restart())
        assert node.db.stable["k"] == "final"

    def test_in_flight_loser_then_nothing(self):
        node, _ = ClientNode.direct()
        drain(node.run_transaction([("k", "good")]))
        txn = drain(node.rm.begin())
        drain(node.rm.update(txn, "k", "wip"))
        drain(node.rm.clean_page("k"))  # contaminate stable
        node.crash()
        drain(node.restart())
        assert node.db.stable["k"] == "good"


# operation alphabet for the property test
txn_strategy = st.lists(
    st.tuples(
        st.integers(0, 5),                       # key index
        st.integers(0, 99),                      # value token
    ),
    min_size=1, max_size=4,
)
op_strategy = st.one_of(
    st.tuples(st.just("commit"), txn_strategy),
    st.tuples(st.just("abort"), txn_strategy),
    st.tuples(st.just("clean"), st.integers(0, 5)),
    st.tuples(st.just("crash"), st.none()),
)


def _run_script(ops, split: bool, mid_clean_seed: int):
    undo_cache = UndoCache() if split else None
    node, _ = ClientNode.direct(m=3, n=2, undo_cache=undo_cache)
    oracle: dict[str, str] = {}
    rng = random.Random(mid_clean_seed)
    for op, arg in ops:
        if op in ("commit", "abort"):
            txn = drain(node.rm.begin())
            staged = {}
            for key_index, token in arg:
                key = f"k{key_index}"
                value = f"v{token}.{txn.txid}"
                drain(node.rm.update(txn, key, value))
                staged[key] = value
                if rng.random() < 0.2:
                    dirty = node.db.dirty_keys()
                    if dirty:
                        drain(node.rm.clean_page(rng.choice(dirty)))
            if op == "commit":
                drain(node.rm.commit(txn))
                oracle.update(staged)
            else:
                drain(node.rm.abort(txn))
        elif op == "clean":
            key = f"k{arg}"
            drain(node.rm.clean_page(key))
        elif op == "crash":
            node.crash()
            drain(node.restart())
            for key, value in oracle.items():
                assert node.db.stable.get(key, "") == value, (
                    f"{key}: stable={node.db.stable.get(key)!r} "
                    f"oracle={value!r}")
    # final crash + audit
    node.crash()
    drain(node.restart())
    for key, value in oracle.items():
        assert node.db.stable.get(key, "") == value
    # and no phantom committed values
    for key, value in node.db.stable.items():
        if key.startswith("k") and key in oracle:
            assert value == oracle[key]


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(op_strategy, max_size=12), seed=st.integers(0, 1000))
def test_recovery_matches_oracle_combined(ops, seed):
    _run_script(ops, split=False, mid_clean_seed=seed)


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(op_strategy, max_size=12), seed=st.integers(0, 1000))
def test_recovery_matches_oracle_split(ops, seed):
    _run_script(ops, split=True, mid_clean_seed=seed)
