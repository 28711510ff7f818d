"""The log-server node: protocol service, NVRAM buffering, disk stream.

:class:`~repro.server.log_server.SimLogServer` is the full node of
Section 4; :mod:`repro.server.client_state` holds the per-client gap
detection; :mod:`repro.server.load` the shedding and assignment
strategies of Sections 4.2 and 5.4.
"""
