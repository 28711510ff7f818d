"""Tests for the transport-independent server port abstraction."""

from repro.core.ports import DirectServerPort, ServerPort
from repro.core.store import LogServerStore


class TestDirectServerPort:
    def test_satisfies_protocol(self):
        port = DirectServerPort(LogServerStore("s"))
        assert isinstance(port, ServerPort)

    def test_server_id_delegates(self):
        port = DirectServerPort(LogServerStore("srv-9"))
        assert port.server_id == "srv-9"

    def test_store_exposed_for_failure_injection(self):
        store = LogServerStore("s")
        port = DirectServerPort(store)
        assert port.store is store

    def test_full_operation_roundtrip(self):
        port = DirectServerPort(LogServerStore("s"))
        port.server_write_log("c", 1, 1, True, b"v")
        assert port.server_read_log("c", 1).data == b"v"
        report = port.interval_list("c")
        assert report.server_id == "s"
        assert len(report.intervals) == 1
        port.copy_log("c", 1, 2, True, b"v2")
        assert port.install_copies("c", 2) == 1
        assert port.server_read_log("c", 1).epoch == 2
