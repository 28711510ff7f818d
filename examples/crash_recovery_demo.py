#!/usr/bin/env python3
"""Crash recovery walkthrough: the Figures 3-1 → 3-3 story, live.

Recreates the paper's worked example step by step — three log servers,
a client writing in two epochs, a partially written record 10, and the
restart procedure that masks it — printing each server's
LSN/Epoch/Present table after every step so the output can be read
against the paper's figures.  Then it runs a full transaction-level
recovery: a banking database crashes mid-transaction and restart
recovery rebuilds exactly the committed state.

Run:  python examples/crash_recovery_demo.py
"""

from repro.client import ClientNode, UndoCache
from repro.harness.experiments import run_paper_figure_states
from repro.tables import format_table


def drain(gen):
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


def show(title: str, tables: dict) -> None:
    print(f"\n=== {title} ===")
    for server_id in sorted(tables):
        print()
        print(format_table(["LSN", "Epoch", "Present"],
                           tables[server_id], title=server_id))


def part_one() -> None:
    print("PART 1 — the paper's three-server example")
    states = run_paper_figure_states()
    show("Figure 3-2: record 10 partially written (Server 3 only)",
         states.figure_3_2)
    show("Figure 3-3: after crash recovery using Servers 1 and 2",
         states.figure_3_3)
    print(f"\nreplicated log now contains records "
          f"{states.replicated_log_contents}")
    print("record 4: guard from the first restart (footnote 2);")
    print("record 10: masked by the epoch-4 guard — the partial write on "
          "Server 3 can never win a merge again.")


def part_two() -> None:
    print("\n\nPART 2 — transaction-level recovery over the replicated log")
    node, _stores = ClientNode.direct(m=3, n=2, undo_cache=UndoCache())

    drain(node.run_transaction([("alice", "100"), ("bob", "100")]))
    print("committed: alice=100, bob=100")

    # a transfer commits…
    drain(node.run_transaction([("alice", "70"), ("bob", "130")]))
    print("committed: alice=70, bob=130 (transfer of 30)")

    # …and another is in flight when the machine dies
    txn = drain(node.rm.begin())
    drain(node.rm.update(txn, "alice", "0"))
    drain(node.rm.update(txn, "bob", "200"))
    print("in flight (uncommitted): alice=0, bob=200")
    print("\n*** node crashes: page cache, undo cache, log buffers gone ***")
    node.crash()

    summary = drain(node.restart())
    print(f"\nrestart recovery: {summary['winners']} winners, "
          f"{summary['losers']} losers, "
          f"{summary['records_scanned']} log records scanned")
    print(f"alice = {node.db.stable['alice']}  (expected 70)")
    print(f"bob   = {node.db.stable['bob']}  (expected 130)")
    assert node.db.stable["alice"] == "70"
    assert node.db.stable["bob"] == "130"
    print("\nthe in-flight transfer vanished atomically; the committed "
          "one survived. done.")


if __name__ == "__main__":
    part_one()
    part_two()
