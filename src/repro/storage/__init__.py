"""Storage substrate: disks, NVRAM, the append-forest, and log streams.

* :mod:`repro.storage.disk` — seek/rotation/transfer timing model with
  the paper's slow- and fast-disk presets, plus duplexed mirrors;
* :mod:`repro.storage.nvram` — the low-latency non-volatile buffer of
  Sections 4.1/5.1;
* :mod:`repro.storage.append_forest` — the Section 4.3 index;
* :mod:`repro.storage.log_stream` — the interleaved sequential stream
  with interval-list checkpoints and the post-crash scan;
* :mod:`repro.storage.pages` — append-only page stores (write-once and
  reusable variants).
"""
