#!/usr/bin/env python3
"""Quickstart: a replicated log in five minutes.

Builds a three-server replicated log (dual-copy, the paper's practical
choice), writes and reads records, crashes the client, and shows the
restart procedure masking a partially written record — the core
guarantee of Section 3.1.2.

Run:  python examples/quickstart.py
"""

from repro.core.replicated_log import quickstart_log
from repro.core.errors import LSNNotWritten, RecordNotPresent


def main() -> None:
    # Three in-memory log servers, each record stored on two of them.
    log, stores = quickstart_log(m=3, n=2)
    print(f"replicated log ready: M=3 servers, N=2 copies, "
          f"epoch {log.current_epoch}, write set {log.write_set}")

    # -- WriteLog / ReadLog / EndOfLog ------------------------------------
    first = log.write(b"begin transaction 1")
    second = log.write(b"update account 42: 100 -> 85")
    third = log.write(b"commit transaction 1")
    print(f"\nwrote LSNs {first}..{third}; EndOfLog = {log.end_of_log()}")
    print(f"ReadLog({second}) -> {log.read(second).data.decode()!r}")

    # -- a server fails; the client switches and keeps going -------------
    victim = log.write_set[0]
    stores[victim].crash()
    fourth = log.write(b"written during the outage")
    print(f"\nserver {victim} down; WriteLog still works: LSN {fourth} "
          f"(write set is now {log.write_set})")
    stores[victim].restart()

    # -- client crash with a partially written record ---------------------
    partial_lsn = log.end_of_log() + 1
    stores[log.write_set[0]].server_write_log(
        log.client_id, partial_lsn, log.current_epoch, True,
        b"reached only ONE server before the crash")
    log.crash()
    log.initialize()  # gather interval lists, new epoch, copy + guards
    print(f"\nclient restarted: epoch is now {log.current_epoch}")
    try:
        record = log.read(partial_lsn)
        print(f"partial record survived (it was in the merged quorum): "
              f"{record.data!r}")
    except (RecordNotPresent, LSNNotWritten):
        print(f"partial record at LSN {partial_lsn} was masked by a "
              "not-present guard — it never happened, consistently")

    # -- everything acknowledged is still there ---------------------------
    for lsn in (first, second, third, fourth):
        assert log.read(lsn).data  # raises if anything was lost
    print("\nall acknowledged records intact after the crash. done.")

    # what one server's table looks like (the paper's figure format)
    sid = log.write_set[0]
    print(f"\n{sid} stores (LSN, Epoch, Present):")
    for row in stores[sid].dump_table(log.client_id):
        print(f"  {row}")


if __name__ == "__main__":
    main()
