"""Core replicated-logging algorithm (Section 3 and Appendix I).

Public surface of the algorithm layer:

* :class:`~repro.core.replicated_log.ReplicatedLog` — the client-side
  replicated log (WriteLog / ReadLog / EndOfLog + restart procedure).
* :class:`~repro.core.store.LogServerStore` — one server's durable
  single-copy state (ServerWriteLog / ServerReadLog / IntervalList,
  CopyLog / InstallCopies).
* :class:`~repro.core.epoch.ReplicatedIdGenerator` — Appendix I's
  replicated increasing unique-identifier generator.
* :mod:`~repro.core.availability` — the Section 3.2 closed forms.
"""
