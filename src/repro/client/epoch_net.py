"""The replicated identifier generator over the network (Appendix I).

The appendix's footnote places generator-state representatives on log
server nodes, so NewID's quorum Read and Write travel over the same
connections as the log traffic.  :class:`NetworkEpochSource` performs
NewID with RPCs issued through a :class:`~repro.client.SimLogClient`'s
connections: read ``⌈(N+1)/2⌉`` representatives, write a value higher
than any read to ``⌈N/2⌉`` of them.

The source also supports the plain ``new_id()`` interface (raising) so
misconfiguration fails loudly rather than silently skipping the
network.
"""

from __future__ import annotations

from ..core.epoch import new_id
from ..core.errors import NotEnoughServers


class NetworkEpochSource:
    """NewID by quorum RPCs against representative-hosting servers."""

    def __init__(self, representative_server_ids: list[str]):
        if not representative_server_ids:
            raise NotEnoughServers("generator needs representatives")
        self.rep_ids = list(representative_server_ids)
        self.new_ids_issued = 0

    def new_id(self) -> int:
        raise NotImplementedError(
            "NetworkEpochSource issues ids over the network; the client "
            "drives procedure()"
        )

    def procedure(self):
        """One NewID as a procedure over the representative servers.

        The client drives it as the epoch step of its restart.  Raises
        :class:`NotEnoughServers` when either quorum cannot be reached.
        """
        value = yield from new_id(self.rep_ids)
        self.new_ids_issued += 1
        return value
