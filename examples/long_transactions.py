#!/usr/bin/env python3
"""Long design transactions with record splitting (Sections 2 and 5.2).

"Workstation nodes might execute longer transactions on design or
office automation databases" — the other workload the paper targets.
This example runs the same stream of long transactions (dozens of
updates each, occasional aborts, periodic page cleaning) through two
otherwise-identical nodes:

* one logging combined undo/redo records, and
* one splitting records: redo to the log servers immediately, undo
  cached in client memory (Section 5.2),

then prints the log volume, undo traffic, and abort behaviour side by
side — the paper's predicted effects, measured.

Run:  python examples/long_transactions.py
"""

import random

from repro.client import ClientNode, UndoCache
from repro.tables import format_table
from repro.workload import LongTxnParams


def drain(gen):
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


def run_mix(node: ClientNode, seed: int, transactions: int,
            params: LongTxnParams) -> dict:
    rng = random.Random(seed)
    aborted = 0
    for seq in range(transactions):
        n_updates = rng.randint(params.updates_min, params.updates_max)
        will_abort = rng.random() < params.abort_probability
        abort_at = rng.randint(1, n_updates) if will_abort else -1
        txn = drain(node.rm.begin())
        rolled_back = False
        for i in range(n_updates):
            if i == abort_at:
                drain(node.rm.abort(txn))
                aborted += 1
                rolled_back = True
                break
            key = f"part:{rng.randrange(params.keys)}"
            drain(node.rm.update(txn, key, f"rev{txn.txid}.{i}"))
            # the buffer manager occasionally cleans a dirty page while
            # the transaction is still running (WAL path)
            if rng.random() < 0.03 and node.db.dirty_keys():
                drain(node.rm.clean_page(rng.choice(node.db.dirty_keys())))
        if not rolled_back:
            drain(node.rm.commit(txn))
        if (seq + 1) % 10 == 0:
            drain(node.rm.clean_all())
    return {
        "bytes": node.rm.bytes_logged,
        "records": node.rm.records_logged,
        "undo_logged": node.rm.undo_records_logged,
        "abort_reads": node.rm.remote_abort_reads,
        "local_aborts": node.rm.local_aborts,
        "aborted": aborted,
    }


def main() -> None:
    params = LongTxnParams(updates_min=15, updates_max=60,
                           abort_probability=0.12, keys=400)
    transactions = 50

    combined_node, _ = ClientNode.direct(m=3, n=2)
    split_node, _ = ClientNode.direct(m=3, n=2, undo_cache=UndoCache())
    combined = run_mix(combined_node, seed=7, transactions=transactions,
                       params=params)
    split = run_mix(split_node, seed=7, transactions=transactions,
                    params=params)

    print(f"{transactions} long transactions "
          f"({params.updates_min}-{params.updates_max} updates each, "
          f"{combined['aborted']} aborted)\n")
    print(format_table(
        ["", "combined records", "split + undo cache"],
        [
            ("bytes sent to log servers",
             f"{combined['bytes']:,}", f"{split['bytes']:,}"),
            ("log records written",
             combined["records"], split["records"]),
            ("undo components that reached the log",
             combined["undo_logged"], split["undo_logged"]),
            ("log-server reads during aborts",
             combined["abort_reads"], split["abort_reads"]),
            ("aborts served from client memory",
             combined["local_aborts"], split["local_aborts"]),
        ],
    ))
    saved = 100 * (1 - split["bytes"] / combined["bytes"])
    print(f"\nsplitting saved {saved:.1f}% of logged bytes on this mix and")
    print("made every abort local — with long-enough transactions and")
    print("cleaning pressure, undo components do reach the log (WAL), which")
    print("is exactly the dependence on transaction length Section 5.2 notes.")

    # both nodes end with identical committed state
    combined_node.crash()
    split_node.crash()
    drain(combined_node.restart())
    drain(split_node.restart())
    assert combined_node.db.stable == split_node.db.stable
    print("\nafter crash recovery, both nodes hold identical committed "
          "state. done.")


if __name__ == "__main__":
    main()
