"""The on-disk format is pinned byte for byte.

One scripted history — two interleaved streams, gaps, duplicates,
WriteLog-then-Force re-sends, CopyLog + InstallCopies, a fence, the
generator, a truncation (compaction), a forced ``_compact()``, a
watermark-triggered one, and a reopen that has to rebuild a lost forest
file from the log scan — must leave ``log.dat`` and every
``forest-*.idx`` with the SHA-256 they had at the commit before the
store stopped holding payloads in memory (PR 17's parent, 29ac684).
The goldens were produced by running :func:`scripted_history` there.

Compaction used to re-encode records from memory and now copies their
stored images by offset; replay used to index the forest after a
whole-file scan and now does so while streaming.  Both must be
invisible here.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.core.records import StoredRecord
from repro.rt.filestore import FileLogStore

GOLDEN = {
    "after-install": {
        "forest-61.idx":
            "983889a590d810c6f0e7f9b916c5490407a468c209788dd6eb8eb2a769f918be",
        "forest-62.idx":
            "3e7fdbf4bea07ffd9b09ec915ce64546c637f90eb5e5acc6e6c1c0fc08f94d08",
        "log.dat":
            "b75dd66df43ef0ffb17aba66c25eaa83e535605c6489fe6682a0ac5f642da30d",
    },
    "after-truncate": {
        "forest-61.idx":
            "04c055d162f0da2565e05b2dec6a5f4e4471c0bc33b02c211f670ea98b7aa870",
        "forest-62.idx":
            "382a087f9d64c9c76c4860f2535fea754d75cdd0313e5433020ddea02a18798a",
        "log.dat":
            "9f90bbbcec140bd10db0a33268f0a7010d5ca96e62082a674915e4e95b0044e2",
    },
    "after-forced-compact": {
        "forest-61.idx":
            "ebe771ff7faaf241ae8f49ba16737202e4df2f58ba3bc1409e170e717debcb62",
        "forest-62.idx":
            "a1d46329656e9637a17f7cedc27ae75b477e6c1b973054d40953353003600926",
        "log.dat":
            "b9d2fe68bf03550c2b499729876e7436b2da1e3aea96b3414c295e4f7e873b75",
    },
    "after-watermark-compact": {
        "forest-61.idx":
            "90c4a27678d7a7a54049b7b0c7cd588c22217c58c7fc0c2d7745bd353a0648a9",
        "forest-62.idx":
            "6fb28b5f75e30c212e5873e04d7273fd33026cc290a15fb5cd80632b4c27d804",
        "log.dat":
            "84f98ca1f8a88755b65cdc96b792bd8c6cf4feea807e45eb10befda6a8247516",
    },
    "after-reopen": {
        "forest-61.idx":
            "d8bad9b9079a95136d1f55cf5c10714177d59501f8ea5ce062232120b90f3cce",
        "forest-62.idx":
            "f39ff76e1c404861e592415941d9b7e797517c3fac0b98fb2e9859124808a3b5",
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
        if path.name == "log.dat" or path.name.startswith("forest-")
    }


def scripted_history(data_dir) -> dict[str, dict[str, str]]:
    """Run the history; return the file digests at each checkpoint."""
    out: dict[str, dict[str, str]] = {}
    store = FileLogStore(data_dir, "s1", compact_watermark_bytes=6000)
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
    # outgrow the watermark with nothing reclaimable: the size fallback
    # compacts once the file has doubled past the last compaction
    lsn = 10
    while store.compactions < 3:
        store.append_records("b", tuple(_rec("b", i, 2, size=500)
                                        for i in range(lsn, lsn + 4)),
                             fsync=True)
        lsn += 4
    assert lsn < 60
    out["after-watermark-compact"] = _digests(store)
    store.append_records("a", (_rec("a", 12, 3),), fsync=True)
    store.close()
    # a forest file lost whole: reopen rebuilds it from the log scan
    (Path(data_dir) / f"forest-{'b'.encode().hex()}.idx").unlink()
    store = FileLogStore(data_dir, "s1")
    store.append_records("b", (_rec("b", lsn, 2),), fsync=True)
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
