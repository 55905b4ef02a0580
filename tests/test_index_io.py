import random
import struct
import zlib

import numpy as np
import pytest

from twigjoin.document import ingest
from twigjoin.index_io import (
    FORMAT_VERSION,
    MAGIC,
    Index,
    IndexFormatError,
    from_bytes,
    load,
    save,
    to_bytes,
)
from twigjoin.cli import main
from twigjoin.matcher import evaluate
from twigjoin.path_guide import ExtentList, PathGuide, _component_byte_lens

from conftest import gen_doc, mixed_query


@pytest.fixture(scope="module")
def sample():
    xml = gen_doc(seed=41, target=600)
    pg = PathGuide.build_from_xml(xml)
    idx = Index.from_guide(pg)
    return xml, pg, idx, to_bytes(idx)


def reseal(payload: bytes) -> bytes:
    """Recompute the trailing checksum after tampering with payload."""
    return payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


def test_round_trip_bytes_identical(sample):
    xml, pg, idx, data = sample
    clone = from_bytes(data)
    assert to_bytes(clone) == data


def test_round_trip_structure(sample):
    xml, pg, idx, data = sample
    clone = from_bytes(data).guide
    assert [n.tag for n in clone.nodes] == [n.tag for n in pg.nodes]
    assert [n.parent for n in clone.nodes] == [n.parent for n in pg.nodes]
    assert [n.path for n in clone.nodes] == [n.path for n in pg.nodes]
    for a, b in zip(clone.extents, pg.extents):
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.byte_lens, b.byte_lens)


def test_counts_preserved(sample):
    xml, pg, idx, data = sample
    assert idx.node_count == sum(1 for _ in ingest(xml))
    assert idx.max_depth == max(n.depth for n in pg.nodes)
    clone = from_bytes(data)
    assert (clone.node_count, clone.max_depth) == (idx.node_count, idx.max_depth)


def test_save_load(tmp_path, sample):
    xml, pg, idx, data = sample
    p = tmp_path / "doc.idx"
    save(idx, p)
    assert p.read_bytes() == data
    clone = load(p)
    assert to_bytes(clone) == data


def test_reloaded_guide_evaluates_identically(sample):
    xml, pg, idx, data = sample
    clone = from_bytes(data).guide
    rng = random.Random(2)
    for _ in range(15):
        q = mixed_query(rng, pg)
        rs_a, met_a = evaluate(pg, q)
        rs_b, met_b = evaluate(clone, q)
        assert rs_a.matches == rs_b.matches
        assert (met_a.nodes_read, met_a.bytes_scanned) == (
            met_b.nodes_read,
            met_b.bytes_scanned,
        )


def test_flipped_byte_fails_checksum(sample):
    xml, pg, idx, data = sample
    rng = random.Random(9)
    for _ in range(20):
        pos = rng.randrange(len(data) - 4)  # leave the crc itself alone
        bad = bytearray(data)
        bad[pos] ^= 0x40
        with pytest.raises(IndexFormatError, match="checksum"):
            from_bytes(bytes(bad))


def test_truncation_detected(sample):
    xml, pg, idx, data = sample
    for cut in (len(data) - 1, len(data) // 2, 13):
        with pytest.raises(IndexFormatError):
            from_bytes(data[:cut])
    with pytest.raises(IndexFormatError, match="too short"):
        from_bytes(b"TW")


def test_bad_magic_detected(sample):
    xml, pg, idx, data = sample
    tampered = b"NOTANIDX" + data[len(MAGIC) : -4]
    with pytest.raises(IndexFormatError, match="magic"):
        from_bytes(reseal(tampered))


def test_bad_version_detected(sample):
    xml, pg, idx, data = sample
    payload = bytearray(data[:-4])
    struct.pack_into("<I", payload, len(MAGIC), FORMAT_VERSION + 9)
    with pytest.raises(IndexFormatError, match="version"):
        from_bytes(reseal(bytes(payload)))


def test_trailing_bytes_detected(sample):
    xml, pg, idx, data = sample
    with pytest.raises(IndexFormatError, match="trailing"):
        from_bytes(reseal(data[:-4] + b"\x00\x00"))


def test_inconsistent_tables_detected():
    # hand-built index claiming two roots; checksum and framing are
    # valid, the table content is not
    payload = bytearray()
    payload += MAGIC
    payload += struct.pack("<IQI", FORMAT_VERSION, 2, 0)
    payload += struct.pack("<I", 2)
    for tag in (b"A", b"B"):
        payload += struct.pack("<IHH", 0xFFFFFFFF, 0, len(tag)) + tag
    for _ in range(2):
        payload += struct.pack("<IQ", 1, 0)  # one depth-0 label, empty blob
    with pytest.raises(IndexFormatError, match="inconsistent guide tables"):
        from_bytes(reseal(bytes(payload)))


def test_bad_extent_encoding_detected():
    # valid framing and checksum, garbage varint inside an extent blob
    p = bytearray()
    p += MAGIC
    p += struct.pack("<IQI", FORMAT_VERSION, 2, 1)
    p += struct.pack("<I", 2)
    p += struct.pack("<IHH", 0xFFFFFFFF, 0, 1) + b"A"
    p += struct.pack("<IHH", 0, 1, 1) + b"B"
    p += struct.pack("<IQ", 1, 0)
    p += struct.pack("<IQ", 1, 1) + b"\xf8"  # invalid lead byte
    with pytest.raises(IndexFormatError, match="bad extent encoding"):
        from_bytes(reseal(bytes(p)))


def _resealed_with_rows(pg: PathGuide, gid: int, rows: np.ndarray) -> bytes:
    """A CRC-valid index of pg whose extent gid holds rows instead."""
    bad = PathGuide.from_tables(
        [n.tag for n in pg.nodes], [n.parent for n in pg.nodes], [e.rows for e in pg.extents]
    )
    bad.extents[gid] = ExtentList(gid, rows, _component_byte_lens(rows))
    return to_bytes(Index.from_guide(bad))


def test_unsorted_extent_is_rejected(tmp_path):
    # reversing R/A/C makes //A[./B]/C find 1 of its 3 matches if loaded
    xml = b"<R>" + b"<A><B/><C/></A>" * 3 + b"</R>"
    pg = PathGuide.build_from_xml(xml)
    gid = pg.nodes[pg.nodes[1].children["C"]].gid
    data = _resealed_with_rows(pg, gid, pg.extents[gid].rows[::-1].copy())
    with pytest.raises(IndexFormatError, match=f"guide node {gid} is not sorted"):
        from_bytes(data)
    path = tmp_path / "bad.idx"
    path.write_bytes(data)
    assert main(["query", str(path), "//A[./B]/C"]) == 2


def test_permuted_or_duplicated_rows_are_rejected(tmp_path):
    pg = PathGuide.build_from_xml(gen_doc(seed=43, target=600))
    rng = random.Random(31)
    multi = [e.gid for e in pg.extents if len(e) > 1]
    assert len(multi) >= 20
    path = tmp_path / "bad.idx"
    for trial in range(40):
        gid = rng.choice(multi)
        rows = pg.extents[gid].rows
        if trial % 2:
            perm = list(range(len(rows)))
            while perm == sorted(perm):
                rng.shuffle(perm)
            rows = rows[perm]
        else:
            at = rng.randrange(len(rows))
            rows = np.insert(rows, at, rows[at], axis=0)
        bad = _resealed_with_rows(pg, gid, rows)
        with pytest.raises(IndexFormatError, match="not sorted"):
            from_bytes(bad)
        if trial < 4:
            path.write_bytes(bad)
            assert main(["query", str(path), "//*[./*]/*", "--count"]) == 2


@pytest.mark.parametrize("field,value", [("node_count", 999), ("max_depth", 99)])
def test_wrong_header_stats_are_rejected(sample, field, value):
    xml, pg, idx, data = sample
    stats = {"node_count": idx.node_count, "max_depth": idx.max_depth, field: value}
    payload = bytearray(data[:-4])
    struct.pack_into("<QI", payload, len(MAGIC) + 4, stats["node_count"], stats["max_depth"])
    with pytest.raises(IndexFormatError, match="header stats"):
        from_bytes(reseal(bytes(payload)))
