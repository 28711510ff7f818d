"""Simulated LAN and the Figure 4-1 log-server protocol (Section 4.2).

* :mod:`repro.net.lan` — shared-medium networks, dual-network
  redundancy, multicast;
* :mod:`repro.net.packet` — single-packet framing with transport
  headers;
* :mod:`repro.net.transport` — Watson-style connections: three-way
  handshake, permanently unique sequence numbers, moving-window
  allocations;
* :mod:`repro.net.messages` — the WriteLog / ForceLog / NewInterval /
  NewHighLSN / MissingInterval / IntervalList / ReadLogForward /
  ReadLogBackward / CopyLog / InstallCopies message set;
* :mod:`repro.net.rpc` — strict RPCs for the infrequent synchronous
  calls;
* :mod:`repro.net.codec` — the binary wire codec the real runtime
  (:mod:`repro.rt`) uses, encoding each message to exactly its
  ``wire_size`` bytes.
"""
