"""A file beside ``log.dat`` is not the store's business.

``log.dat`` is the only file a :class:`FileLogStore` reads or writes.
Data directories written before the store dropped its append-forest
index also hold ``forest-<client hex>.idx`` files; a store that parsed
them could be stopped from starting by bytes it does not need — an
index page whose CRC verified but whose node was too short raised an
untyped ``struct.error`` out of the constructor while the log itself
was intact.  Whatever such a file holds, the store must open to the
same state as without it, and leave the file's bytes alone through
appends, a compaction and close.
"""

from __future__ import annotations

import random
import shutil
import struct
import zlib

import pytest

from repro.core.records import StoredRecord
from repro.rt.filestore import FileLogStore

#: what an index file of generation 0 started with: magic, generation,
#: CRC-32 of the generation field.
_OLD_HEADER = struct.pack("!HQI", 0x4C47, 0,
                          zlib.crc32(struct.pack("!Q", 0)))
#: one page whose CRC verifies, holding a 4-byte node body: too short
#: for any node.
_SHORT_PAGE = struct.pack("!HHI", 0x4C46, 4, zlib.crc32(bytes(4))) \
    + bytes(4)

STRAY = {
    "short-node-page": _OLD_HEADER + _SHORT_PAGE,
    "random-bytes": random.Random(0).randbytes(4096),
    "empty": b"",
}


def rec(lsn, epoch=1):
    return StoredRecord(lsn=lsn, epoch=epoch, data=f"c{lsn}.{epoch}".encode())


def _write_log(data_dir) -> None:
    store = FileLogStore(data_dir, "s1")
    store.append_records("c", tuple(rec(i) for i in range(1, 6)), fsync=True)
    store.append_records("c", tuple(rec(i) for i in (8, 9)), fsync=True)
    store.fence_write("c", 2)
    store.generator_write(7)
    store.close()


def _state(store: FileLogStore) -> tuple:
    lsns = list(store.stored_lsns("c"))
    return (lsns, [store.read_record("c", lsn) for lsn in lsns],
            store.interval_list("c").intervals, store.fence_epoch("c"),
            store.generator_value)


@pytest.mark.parametrize("content", STRAY.values(), ids=STRAY.keys())
def test_a_stray_index_file_is_never_read_or_touched(tmp_path, content):
    clean = tmp_path / "clean"
    _write_log(clean)
    stray = tmp_path / "stray"
    shutil.copytree(clean, stray)
    index_file = stray / f"forest-{'c'.encode().hex()}.idx"
    index_file.write_bytes(content)

    want = FileLogStore(clean, "s1")
    try:
        expected = _state(want)
    finally:
        want.close()
    store = FileLogStore(stray, "s1")
    try:
        assert _state(store) == expected
        store.append_records("c", (rec(10), rec(11)), fsync=False)
        store.sync()
        assert store.truncate_below("c", 3) == 2  # a compaction
        assert store.stored_lsns("c") == [3, 4, 5, 8, 9, 10, 11]
    finally:
        store.close()
    assert index_file.read_bytes() == content
