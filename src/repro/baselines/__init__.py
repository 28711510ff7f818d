"""Baselines the paper compares replicated logging against.

* :class:`~repro.baselines.local_log.LocalDiskLog` — logging to the
  processing node's own (single or duplexed) disks;
* :class:`~repro.baselines.unbatched.UnbatchedBackend` — one RPC per
  log record (the Section 4.1 strawman).
"""
