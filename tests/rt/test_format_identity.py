"""The on-disk format is pinned byte for byte.

One scripted history — two interleaved streams, gaps, duplicates,
WriteLog-then-Force re-sends, CopyLog + InstallCopies, a fence, the
generator, a truncation (compaction), two forced ``_compact()`` calls,
and a reopen — must leave ``log.dat`` with the SHA-256 it had at the
commit before the store stopped holding payloads in memory (29ac684),
and no other file in the data directory.  The goldens were produced by
running :func:`scripted_history` there.

Compaction used to re-encode records from memory and now copies their
stored images by offset; replay used to parse a whole-file read and
now streams; the store used to keep an append-forest index file per
client beside ``log.dat`` and now keeps only the log.  None of these
may show here.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.core.records import StoredRecord
from repro.rt.filestore import FileLogStore

GOLDEN = {
    "after-install": {
        "log.dat":
            "b75dd66df43ef0ffb17aba66c25eaa83e535605c6489fe6682a0ac5f642da30d",
    },
    "after-truncate": {
        "log.dat":
            "9f90bbbcec140bd10db0a33268f0a7010d5ca96e62082a674915e4e95b0044e2",
    },
    "after-forced-compact": {
        "log.dat":
            "b9d2fe68bf03550c2b499729876e7436b2da1e3aea96b3414c295e4f7e873b75",
    },
    "after-watermark-compact": {
        "log.dat":
            "84f98ca1f8a88755b65cdc96b792bd8c6cf4feea807e45eb10befda6a8247516",
    },
    "after-reopen": {
        "log.dat":
            "052c8ef33c42361de1baa0b1ca47821df587c18c54c2d590e9eb70aa926a9a1a",
    },
}


def _rec(cid: str, lsn: int, epoch: int = 1, size: int = 40,
         present: bool = True, kind: str = "data") -> StoredRecord:
    data = (f"{cid}:{lsn}:{epoch}|".encode() * (size // 4 + 1))[:size]
    return StoredRecord(lsn, epoch, present=present,
                        data=data if present else b"", kind=kind)


def _digests(store: FileLogStore) -> dict[str, str]:
    store.flush()
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(store.data_dir).iterdir())
    }


def scripted_history(data_dir) -> dict[str, dict[str, str]]:
    """Run the history; return the file digests at each checkpoint."""
    out: dict[str, dict[str, str]] = {}
    store = FileLogStore(data_dir, "s1")
    # two interleaved streams; "a" leaves a gap at 4..5
    store.append_records("a", tuple(_rec("a", i) for i in (1, 2, 3)),
                         fsync=False)
    store.append_records("b", tuple(_rec("b", i, size=300)
                                    for i in (1, 2)), fsync=True)
    store.append_records("a", tuple(_rec("a", i, kind="commit")
                                    for i in (6, 7)), fsync=False)
    # WriteLog then the Force that re-sends it plus two new records
    store.append_records("b", tuple(_rec("b", i) for i in (3, 4)),
                         fsync=False)
    store.append_records("b", tuple(_rec("b", i) for i in (3, 4, 5, 6)),
                         fsync=True)
    # a duplicate of a record synced long ago (compared after read-back)
    store.append_record("a", _rec("a", 2), fsync=True)
    store.append_record("a", _rec("a", 8, size=0), fsync=False)
    # CopyLog + InstallCopies: epoch 2 rewrites b/5..6, masks b/7
    for record in (_rec("b", 5, 2), _rec("b", 6, 2),
                   _rec("b", 7, 2, present=False)):
        store.stage_copy("b", record)
    store.install_copies("b", 2)
    store.append_records("b", tuple(_rec("b", i, 2) for i in (8, 9)),
                         fsync=True)
    store.fence_write("a", 3)
    store.generator_write(41)
    out["after-install"] = _digests(store)
    # staged but not installed when the compaction runs
    store.stage_copy("a", _rec("a", 7, 4))
    assert store.truncate_below("a", 3) == 2
    assert store.compactions == 1
    out["after-truncate"] = _digests(store)
    store.append_records("a", tuple(_rec("a", i, 3) for i in (9, 10, 11)),
                         fsync=True)
    assert store.truncate_below("c", 5) == 0  # mark only, no compaction
    store._compact()
    out["after-forced-compact"] = _digests(store)
    # grow the log with nothing reclaimable, then compact it again (a
    # size watermark once fired the same compaction after these appends)
    for lsn in (10, 14):
        store.append_records("b", tuple(_rec("b", i, 2, size=500)
                                        for i in range(lsn, lsn + 4)),
                             fsync=True)
    store._compact()
    assert store.compactions == 3
    out["after-watermark-compact"] = _digests(store)
    store.append_records("a", (_rec("a", 12, 3),), fsync=True)
    store.close()
    store = FileLogStore(data_dir, "s1")
    store.append_records("b", (_rec("b", 18, 2),), fsync=True)
    out["after-reopen"] = _digests(store)
    store.close()
    return out


def test_scripted_history_matches_parent_goldens(tmp_path):
    assert scripted_history(tmp_path / "s1") == GOLDEN


if __name__ == "__main__":  # regenerate: run at the reference commit
    import json
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        print(json.dumps(scripted_history(Path(root) / "s1"), indent=4))
