"""Two-OS-process ownership handoff against real ``repro serve`` daemons.

The CI smoke for the linearizable handoff: process A (clientworker
``--mode run``) commits ET1 transactions against a live fleet; mid-run,
process B (``--mode takeover``) seizes the stream — generator epoch
bump, durable fence on ≥ M−N+1 servers, Section 5.4 recovery.  The
check is the whole point of fencing:

* A observes the *terminal* refusal (exits with status 3) instead of
  retrying forever or, worse, committing;
* A's and B's journals, read as one history, keep every promise
  :func:`~repro.harness.oracle.check` names: B drew a higher epoch,
  B's recovered log holds, byte-identical, every record A had
  acknowledged before the fence landed, nothing fabricated, and the
  stream stays live for B (post-takeover writes are acked).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from repro.harness.clientworker import EXIT_FENCED
from repro.harness.oracle import History, check
from repro.rt.cluster import LoopbackCluster

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _spawn(addresses, journal: Path, mode: str, txns: int):
    servers = ",".join(f"{sid}={host}:{port}"
                       for sid, (host, port) in sorted(addresses.items()))
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return subprocess.Popen(
        [sys.executable, "-m", "repro.harness.clientworker",
         "--servers", servers, "--journal", str(journal),
         "--mode", mode, "--txns", str(txns)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _wait_for_ack(journal: Path, timeout: float = 30.0) -> None:
    """Block until the writer has at least one acknowledged txn."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if any(event["op"] == "ack"
               for event in History.load(journal).events):
            return
        time.sleep(0.05)
    raise AssertionError("writer never acknowledged a transaction")


def test_second_process_takes_over_live_writer(tmp_path):
    a_journal = tmp_path / "writer.journal"
    b_journal = tmp_path / "taker.journal"
    with LoopbackCluster(tmp_path / "data", num_servers=3) as cluster:
        # Enough transactions that A is still mid-run when B lands;
        # the fence ends A long before it gets through them.
        writer = _spawn(cluster.addresses(), a_journal, "run", txns=400)
        taker = None
        try:
            _wait_for_ack(a_journal)
            taker = _spawn(cluster.addresses(), b_journal, "takeover",
                           txns=1)
            assert taker.wait(timeout=60.0) == 0
            assert writer.wait(timeout=60.0) == EXIT_FENCED
        finally:
            for proc in (writer, taker):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait()

    history = History.load(a_journal, b_journal)
    assert check(history) == []
    # The check had something to hold: A acked a whole transaction
    # before the fence, and B observed the log after it.
    acks = [event["high"] for event in history.events
            if event["op"] == "ack"]
    assert acks[0] >= 7
    assert history.events[-1]["op"] == "observe"
