"""repro — reproduction of *Distributed Logging for Transaction Processing*.

Daniels, Spector & Thompson, SIGMOD 1987 (Carnegie Mellon University).

The package implements the paper's replicated-log algorithm and every
substrate its evaluation depends on:

* :mod:`repro.core` — the replicated log, epoch generator, and
  availability analysis (Section 3, Appendix I);
* :mod:`repro.sim` — a deterministic discrete-event simulation kernel;
* :mod:`repro.net` — the simulated local network and the Figure 4-1
  client/server protocol (Section 4.2);
* :mod:`repro.storage` — disk and NVRAM models, the append-forest
  index, and the interleaved log stream (Sections 4.1, 4.3, 5.1);
* :mod:`repro.server` — the log-server node (Section 4);
* :mod:`repro.client` — the transaction-processing client node,
  recovery manager, and log splitting/caching (Sections 2, 5.2);
* :mod:`repro.workload` — ET1 and long-transaction workloads;
* :mod:`repro.baselines` — local duplexed-disk logging and unbatched
  per-record RPC logging;
* :mod:`repro.analysis` — the Section 4.1 capacity model;
* :mod:`repro.harness` — experiment runners for every figure/claim.

Every package is a namespace: its ``__init__`` holds only this kind of
docstring, and each name is imported from the module that defines it,
so ``import repro.rt.server`` loads the daemon and nothing else.

Quickstart::

    from repro.core.replicated_log import quickstart_log

    log, stores = quickstart_log(m=3, n=2)
    lsn = log.write(b"hello, 1987")
    assert log.read(lsn).data == b"hello, 1987"
"""
