"""The transaction-processing client node.

* :mod:`repro.client.log_client` — the network logging process
  (grouping, forces, δ bound, retries, server switching, restart);
* :mod:`repro.client.backends` — one generator interface over the
  direct and simulated logs;
* :mod:`repro.client.recovery_manager` — WAL transactions, page
  cleaning, checkpoints, restart recovery;
* :mod:`repro.client.splitting` — Section 5.2 undo caching;
* :mod:`repro.client.node` — the assembled client node with a
  crash/restart lifecycle.
"""
