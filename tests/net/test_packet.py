"""Tests for packet framing."""

from repro.core.records import StoredRecord
from repro.net.messages import WriteLogMsg
from repro.net.packet import (
    PACKET_HEADER_BYTES,
    PACKET_PAYLOAD_BYTES,
    Packet,
    fits_in_packet,
)


def make_packet(payload=None, **kw):
    defaults = dict(src="a", dst="b", conn_id=1, seq=1, allocation=64,
                    payload=payload)
    defaults.update(kw)
    return Packet(**defaults)


class TestPacket:
    def test_wire_size_includes_header(self):
        packet = make_packet(payload=None)
        assert packet.wire_size == PACKET_HEADER_BYTES

    def test_wire_size_adds_payload(self):
        msg = WriteLogMsg(
            client_id="c1", epoch=1,
            records=(StoredRecord(lsn=1, epoch=1, data=b"x" * 100),),
        )
        packet = make_packet(payload=msg)
        assert packet.wire_size == PACKET_HEADER_BYTES + msg.wire_size

    def test_frame_ids_unique(self):
        a = make_packet()
        b = make_packet()
        assert a.frame_id != b.frame_id

    def test_duplicate_shares_frame_id(self):
        packet = make_packet()
        assert packet.duplicate().frame_id == packet.frame_id

    def test_fits_in_packet(self):
        assert fits_in_packet(PACKET_PAYLOAD_BYTES)
        assert not fits_in_packet(PACKET_PAYLOAD_BYTES + 1)

    def test_et1_force_fits_one_packet(self):
        """Seven 100-byte ET1 records ride in a single packet."""
        records = tuple(
            StoredRecord(lsn=i, epoch=1, data=b"u" * 100)
            for i in range(1, 8)
        )
        msg = WriteLogMsg(client_id="c1", epoch=1, records=records)
        assert fits_in_packet(msg.wire_size)
