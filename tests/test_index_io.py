import collections
import random
import re
import struct
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest

from twigjoin import dewey, index_io
from twigjoin.document import ingest
from twigjoin.index_io import (
    FORMAT_VERSION,
    MAGIC,
    MAX_TAG_BYTES,
    Index,
    IndexFormatError,
    from_bytes,
    load,
    save,
    to_bytes,
)
from twigjoin.cli import main
from twigjoin.dt import build_dt_schema
from twigjoin.matcher import ResultLimitError, evaluate
from twigjoin.oracle import leaf_scan_match
from twigjoin.path_guide import GuideError, PathGuide

from twigjoin.twig import parse, split

import frozen_codec
import frozen_load
from conftest import children, from_tables, gen_doc, mixed_query


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
    assert clone.nodes == pg.nodes
    assert [*map(clone.path_tags, range(len(clone)))] == [*map(pg.path_tags, range(len(pg)))]
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


def test_reloaded_guide_plans_identically(sample):
    xml, pg, idx, data = sample
    clone = from_bytes(data).guide
    assert clone.tag_id == pg.tag_id
    for name in ("parents", "tags", "depths", "kids", "kid_start", "pre", "end", "by_pre",
                 "tag_pre", "tag_start", "pos", "up"):
        assert np.array_equal(getattr(clone, name), getattr(pg, name)), name
    rng = random.Random(4)
    planned = 0
    for _ in range(40):
        d = split(parse(mixed_query(rng, pg)))
        for branch in d.branches:
            assert clone.eval_single_branch(branch) == pg.eval_single_branch(branch)
        if d.jps:
            built, loaded = build_dt_schema(pg, d), build_dt_schema(clone, d)
            assert [t.jp for t in loaded.tables] == [t.jp for t in built.tables]
            for a, b in zip(loaded.tables, built.tables):
                assert np.array_equal(a.records, b.records)
                assert np.array_equal(a.ends, b.ends)
            planned += not built.is_empty
    assert planned >= 10


def test_build_load_and_evaluate_make_no_guide_nodes(sample):
    # the node table stays arrays: GuideNode objects (pg.nodes) are made
    # only when something outside the query path asks for them
    xml, pg, idx, data = sample
    rng = random.Random(12)
    queries = [mixed_query(rng, pg) for _ in range(30)] + ["//A", "/*/*", "//B//C"]
    twigs = sum(bool(split(parse(q)).jps) for q in queries)
    assert 0 < twigs < len(queries)
    built = PathGuide.build_from_xml(xml)
    loaded = from_bytes(to_bytes(Index.from_guide(built))).guide
    for guide in (built, loaded):
        for q in queries:
            rs, _ = evaluate(guide, q)
            assert rs.lines() == evaluate(pg, q)[0].lines()
        assert "nodes" not in vars(guide)


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


def test_index_of_no_guide_nodes_is_rejected():
    # framing, checksum and header stats agree with an empty guide, which
    # no document builds: a guide has a root
    payload = MAGIC + struct.pack("<IQI", FORMAT_VERSION, 0, 0) + struct.pack("<I", 0)
    for load_bytes in (from_bytes, frozen_load.from_bytes):
        with pytest.raises(IndexFormatError,
                           match=r"^inconsistent guide tables: empty node table: no root$"):
            load_bytes(reseal(payload))
    with pytest.raises(GuideError, match="empty node table"):
        from_tables([], [], [])


def _with_parent(data: bytes, gid: int, parent: int) -> bytes:
    """The index with guide node gid's parent field set, CRC resealed."""
    payload = bytearray(data[:-4])
    pos = len(MAGIC) + struct.calcsize("<IQI") + struct.calcsize("<I")
    for _ in range(gid):
        pos += struct.calcsize("<IHH") + struct.unpack_from("<IHH", payload, pos)[2]
    struct.pack_into("<I", payload, pos, parent)
    return reseal(bytes(payload))


@pytest.mark.parametrize("parent", [3, 1], ids=["forward", "self"])
def test_parent_that_is_not_earlier_is_rejected(tmp_path, parent):
    pg = PathGuide.build_from_xml(b"<R><A><C/></A><B/></R>")
    assert [n.tag for n in pg.nodes] == ["R", "A", "C", "B"]
    data = _with_parent(to_bytes(Index.from_guide(pg)), 1, parent)
    with pytest.raises(IndexFormatError, match=f"parent {parent} is not an earlier node"):
        from_bytes(data)
    path = tmp_path / "bad.idx"
    path.write_bytes(data)
    assert main(["query", str(path), "//A"]) == 2


def _rewired(data: bytes, agree: bool) -> bytes:
    """The index of depth-1 guide nodes with each node from 2 on made the
    child of the node before it, CRC resealed.  The stored depths stay 1,
    or are made to agree with the new parents."""
    payload = bytearray(data[:-4])
    pos = len(MAGIC) + struct.calcsize("<IQI")
    (n,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    for g in range(n):
        if g > 1:
            struct.pack_into("<IH", payload, pos, g - 1, g if agree else 1)
        pos += struct.calcsize("<IHH") + struct.unpack_from("<IHH", payload, pos)[2]
    return reseal(bytes(payload))


@pytest.mark.parametrize("agree,error", [
    (False, "inconsistent guide tables: extent width mismatch for guide node 2"),
    (True, "extent of guide node 2: 1 labels of depth 2 cannot be held in 1 bytes"),
], ids=["depths-kept", "depths-agree"])
@pytest.mark.parametrize("n", [1000, 2000, 3000])
def test_rewired_parents_are_rejected_in_memory_linear_in_the_file(n, agree, error):
    # n depth-1 guide nodes whose parents, rewired, form a chain n deep:
    # node by depth matrices derived from those parents would take
    # memory quadratic in the file's size
    tables = [np.zeros((1, 0), np.int64)] + [np.array([[g]]) for g in range(1, n + 1)]
    pg = from_tables(["R"] + [f"T{g}" for g in range(n)], [-1] + [0] * n, tables)
    bad = _rewired(to_bytes(Index.from_guide(pg)), agree)
    tracemalloc.start()
    try:
        with pytest.raises(IndexFormatError, match=f"^{error}$"):
            from_bytes(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * len(bad) + 256 * 2**10


def test_non_utf8_tag_is_rejected(tmp_path):
    p = bytearray()
    p += MAGIC
    p += struct.pack("<IQI", FORMAT_VERSION, 1, 0)
    p += struct.pack("<I", 1)
    p += struct.pack("<IHH", 0xFFFFFFFF, 0, 1) + b"\xff"
    p += struct.pack("<IQ", 1, 0)
    data = reseal(bytes(p))
    with pytest.raises(IndexFormatError, match="guide node 0: tag is not UTF-8"):
        from_bytes(data)
    path = tmp_path / "bad.idx"
    path.write_bytes(data)
    assert main(["query", str(path), "//A"]) == 2


def test_tag_length_is_bounded_by_its_u16(tmp_path):
    # the bound is on UTF-8 bytes: each é is two
    fits = "B" + "é" * ((MAX_TAG_BYTES - 1) // 2)
    pg = PathGuide.build_from_xml(f"<R><{fits}/></R>".encode())
    data = to_bytes(Index.from_guide(pg))
    assert from_bytes(data).guide.path_tags(1) == ("R", fits)
    assert to_bytes(from_bytes(data)) == data
    xml = tmp_path / "long.xml"
    xml.write_bytes(f"<R><{'B' + fits}/></R>".encode())
    pg = PathGuide.build_from_xml(xml.read_bytes())
    with pytest.raises(IndexFormatError, match=f"guide node 1: tag is {MAX_TAG_BYTES + 1} UTF-8"):
        to_bytes(Index.from_guide(pg))
    out = tmp_path / "long.idx"
    assert main(["index", str(xml), "-o", str(out)]) == 2
    assert not out.exists()


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
    tables = [e.rows for e in pg.extents]
    tables[gid] = rows
    with mock.patch.object(PathGuide, "_check_store"):
        bad = from_tables([n.tag for n in pg.nodes], [n.parent for n in pg.nodes],
                                    tables)
    return to_bytes(Index.from_guide(bad))


def _load_error(pg: PathGuide, gid: int, rows: np.ndarray) -> str | None:
    """Reference for the load checks of a sorted store: with extent gid
    holding rows, no label may sit in two extents, and every label minus
    its last component must be a label of the parent's extent."""
    tables = [[tuple(r) for r in e.rows.tolist()] for e in pg.extents]
    tables[gid] = [tuple(r) for r in rows.tolist()]
    if len({lab for t in tables for lab in t}) < sum(map(len, tables)):
        return "shares a label"
    for node in pg.nodes[1:]:
        if any(label[:-1] not in set(tables[node.parent]) for label in tables[node.gid]):
            return "has no parent label"
    return None


def test_unsorted_extent_is_rejected(tmp_path):
    # reversing R/A/C makes //A[./B]/C find 1 of its 3 matches if loaded
    xml = b"<R>" + b"<A><B/><C/></A>" * 3 + b"</R>"
    pg = PathGuide.build_from_xml(xml)
    gid = children(pg, 1)["C"]
    data = _resealed_with_rows(pg, gid, pg.extents[gid].rows[::-1].copy())
    with pytest.raises(IndexFormatError, match=f"guide node {gid} is not sorted"):
        from_bytes(data)
    path = tmp_path / "bad.idx"
    path.write_bytes(data)
    assert main(["query", str(path), "//A[./B]/C"]) == 2


def test_label_outside_its_parent_extent_is_rejected(tmp_path):
    # with R/A/C rewritten to [1.2, 3.2], //A/C would answer 3.2 on dt
    # and leafscan alike if loaded, though no A has the label 3
    pg = PathGuide.build_from_xml(b"<R><A><B/><C/></A><A><B/><C/></A></R>")
    gid = children(pg, 1)["C"]
    data = _resealed_with_rows(pg, gid, np.array([[1, 2], [3, 2]]))
    with pytest.raises(IndexFormatError,
                       match=f"label 3.2 of guide node {gid} has no parent label in guide node 1"):
        from_bytes(data)
    path = tmp_path / "bad.idx"
    path.write_bytes(data)
    assert main(["query", str(path), "//A/C"]) == 2


def test_component_edits_load_only_while_labels_stay_nested(tmp_path):
    # edits that keep the extent sorted pass the sort check, so only
    # the containment check stands between them and a wrong answer
    pg = PathGuide.build_from_xml(gen_doc(seed=43, target=600))
    rng = random.Random(37)
    path = tmp_path / "bad.idx"
    loaded = rejected = 0
    while min(loaded, rejected) < 15:
        gid = rng.randrange(1, len(pg))
        rows = pg.extents[gid].rows.copy()
        i, c = rng.randrange(len(rows)), rng.randrange(rows.shape[1])
        rows[i, c] = rng.randint(1, int(rows[:, c].max()) + 2)
        labels = [tuple(r) for r in rows.tolist()]
        if labels != sorted(set(labels)):
            continue
        data = _resealed_with_rows(pg, gid, rows)
        error = _load_error(pg, gid, rows)
        if error is None:
            loaded += 1
            assert to_bytes(from_bytes(data)) == data
        else:
            rejected += error == "has no parent label"
            with pytest.raises(IndexFormatError, match=error):
                from_bytes(data)
            if rejected <= 2:
                path.write_bytes(data)
                assert main(["query", str(path), "//*/*", "--count"]) == 2


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


# ------------------------------------------------ batched codec oracles


def _per_extent_bytes(pg: PathGuide) -> bytes:
    """The index of pg as the frozen per-label encoder writes it."""
    out = bytearray(MAGIC)
    out += struct.pack("<IQI", FORMAT_VERSION, int(pg.start[-1]), int(pg.depths.max(initial=0)))
    out += struct.pack("<I", len(pg.nodes))
    for node in pg.nodes:
        tag = node.tag.encode()
        out += struct.pack("<IHH", 0xFFFFFFFF if node.parent < 0 else node.parent,
                           node.depth, len(tag)) + tag
    for ext in pg.extents:
        blob = b"".join(frozen_codec.encode(dewey.DeweyLabel(row)) for row in ext.rows.tolist())
        out += struct.pack("<IQ", len(ext), len(blob)) + blob
    return reseal(bytes(out))


def _per_extent_load(data: bytes) -> PathGuide:
    """The guide the per-extent loader gives for a CRC-valid index: one
    frozen_codec.decode per extent blob, then from_tables.  Raises
    IndexFormatError where that loader did."""
    try:
        pos = len(MAGIC) + struct.calcsize("<IQI")
        (n,) = struct.unpack_from("<I", data, pos)
        pos += 4
        tags, parents, depths, tables = [], [], [], []
        for _ in range(n):
            parent, depth, tag_len = struct.unpack_from("<IHH", data, pos)
            tags.append(data[pos + 8 : pos + 8 + tag_len].decode())
            parents.append(-1 if parent == 0xFFFFFFFF else parent)
            depths.append(depth)
            pos += 8 + tag_len
        for gid in range(n):
            count, blob_len = struct.unpack_from("<IQ", data, pos)
            blob = data[pos + 12 : pos + 12 + blob_len]
            if len(blob) < blob_len:
                raise IndexFormatError("truncated")
            comps = frozen_codec.decode(blob).components
            if len(comps) != count * depths[gid]:
                raise IndexFormatError("components do not form labels")
            if depths[gid] == 0 and count != 1:  # rejected by from_tables, after allocating
                raise IndexFormatError("the root extent holds one label")
            tables.append(np.array(comps, dtype=np.int64).reshape(count, depths[gid]))
            pos += 12 + blob_len
        if pos != len(data) - 4:
            raise IndexFormatError("trailing bytes")
        pg = from_tables(tags, parents, tables)
    except (struct.error, UnicodeDecodeError, dewey.LabelError, GuideError) as exc:
        raise IndexFormatError(str(exc)) from None
    node_count, max_depth = struct.unpack_from("<QI", data, len(MAGIC) + 4)
    if (node_count, max_depth) != (int(pg.start[-1]), int(pg.depths.max(initial=0))):
        raise IndexFormatError("header stats")
    return pg


def _extent_offsets(data: bytes) -> list[int]:
    """Per guide node, the offset of its extent header (u32 count, u64 length)."""
    pos = len(MAGIC) + struct.calcsize("<IQI")
    (n,) = struct.unpack_from("<I", data, pos)
    pos += 4
    for _ in range(n):
        pos += 8 + struct.unpack_from("<IHH", data, pos)[2]
    heads = []
    for _ in range(n):
        heads.append(pos)
        pos += 12 + struct.unpack_from("<IQ", data, pos)[1]
    return heads


def _edited(data: bytes, pos: int, value: int) -> bytes:
    payload = bytearray(data[:-4])
    payload[pos] = value
    return reseal(bytes(payload))


def _same_store(a: PathGuide, b: PathGuide) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("comps", "start", "byte_lens"))


def test_encoder_matches_per_label_encoder(sample):
    xml, pg, idx, data = sample
    assert _per_extent_bytes(pg) == data
    assert _same_store(_per_extent_load(data), from_bytes(data).guide)


@pytest.mark.parametrize("chunk", [index_io.CHUNK_BYTES, 7, 64])
def test_round_trip_at_component_class_boundaries(chunk):
    # the last and first value of each byte-length class, and the
    # largest 5-byte value, in every column of a 3-deep extent
    edges = [1, 127, 128, 16511, 16512, 2113663, 2113664, dewey._MAX_COMPONENT]
    a = np.array(edges, dtype=np.int64)[:, None]
    b = np.array([[x, y] for x in edges for y in edges], dtype=np.int64)
    c = np.array([[x, y, z] for x, y in b.tolist() for z in edges[::3]], dtype=np.int64)
    pg = from_tables(["R", "A", "B", "C"], [-1, 0, 1, 2],
                               [np.zeros((1, 0), np.int64), a, b, c])
    with mock.patch.object(index_io, "CHUNK_BYTES", chunk):
        data = to_bytes(Index.from_guide(pg))
        assert data == _per_extent_bytes(pg)
        clone = from_bytes(data).guide
    assert _same_store(clone, pg)
    assert to_bytes(Index.from_guide(clone)) == data


@pytest.mark.parametrize("chunk", [index_io.CHUNK_BYTES, 64])
def test_single_byte_edits_agree_with_the_per_extent_loader(sample, chunk):
    # a third of the edits raise the last byte of an extent, which keeps
    # it sorted and often loads; the rest are any byte, any value
    xml, pg, idx, data = sample
    heads = _extent_offsets(data)
    last_bytes = [h - 1 for h in heads[1:] + [len(data) - 4] if data[h - 1] < 0x60]
    rng = random.Random(chunk)
    loaded = rejected = 0
    with mock.patch.object(index_io, "CHUNK_BYTES", chunk):
        for trial in range(150):
            if trial % 3:
                pos = rng.randrange(heads[0], len(data) - 4)
                value = rng.choice([b for b in range(256) if b != data[pos]])
            else:
                pos = rng.choice(last_bytes)
                value = data[pos] + rng.randint(1, 0x1F)
            bad = _edited(data, pos, value)
            try:
                want = _per_extent_load(bad)
            except IndexFormatError:
                rejected += 1
                with pytest.raises(IndexFormatError):
                    from_bytes(bad)
                continue
            loaded += 1
            assert _same_store(from_bytes(bad).guide, want)
    assert loaded >= 15 and rejected >= 80


def _small_index() -> tuple[PathGuide, bytes, list[int]]:
    pg = PathGuide.build_from_xml(b"<R>" + b"<A><B/><B/></A>" * 3 + b"<C/></R>")
    assert [n.tag for n in pg.nodes] == ["R", "A", "B", "C"]
    data = to_bytes(Index.from_guide(pg))
    return pg, data, _extent_offsets(data)


def test_zero_component_is_rejected():
    pg, data, heads = _small_index()
    with pytest.raises(IndexFormatError,
                       match="bad extent encoding for guide node 2: component value 0"):
        from_bytes(_edited(data, heads[2] + 12 + 3, 0))


def test_component_running_into_the_next_extent_is_rejected():
    # B's last byte becomes the lead of a 2-byte component; the byte
    # after it is C's extent header
    pg, data, heads = _small_index()
    with pytest.raises(IndexFormatError,
                       match="bad extent encoding for guide node 2: truncated component"):
        from_bytes(_edited(data, heads[3] - 1, 0x80))


def test_count_disagreeing_with_the_components_is_rejected():
    pg, data, heads = _small_index()
    assert struct.unpack_from("<I", data, heads[2]) == (6,)
    with pytest.raises(IndexFormatError,
                       match="guide node 2: 12 components do not form 5 labels of depth 2"):
        from_bytes(_edited(data, heads[2], 5))


def test_bad_lead_byte_in_a_later_extent_of_a_chunk_is_rejected(sample):
    xml, pg, idx, data = sample
    heads = _extent_offsets(data)
    blob_lens = np.array([struct.unpack_from("<IQ", data, h)[1] for h in heads])
    a, b = next(index_io._chunks(blob_lens))
    gid = max(g for g in range(a, b) if blob_lens[g])
    assert gid - a >= 20
    with pytest.raises(IndexFormatError, match=f"bad extent encoding for guide node {gid}: "
                                               "invalid component lead byte"):
        from_bytes(_edited(data, heads[gid] + 12, 0xF8))


def test_label_count_is_bounded_by_the_file(tmp_path, sample):
    # the root's one label made five million: the store would take
    # hundreds of MB before any check saw it
    xml, pg, idx, data = sample
    payload = bytearray(data[:-4])
    struct.pack_into("<I", payload, _extent_offsets(data)[0], 5_000_000)
    bad = reseal(bytes(payload))
    tracemalloc.start()
    try:
        with pytest.raises(IndexFormatError, match="guide node 0: 5000000 labels of depth 0"):
            from_bytes(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    path = tmp_path / "bad.idx"
    path.write_bytes(bad)
    assert main(["query", str(path), "//*"]) == 2
    # a deeper extent whose labels could not fit its blob
    heads = _extent_offsets(data)
    gid = max(range(len(pg)), key=lambda g: pg.depths[g])
    payload = bytearray(data[:-4])
    struct.pack_into("<I", payload, heads[gid], 10**6)
    with pytest.raises(IndexFormatError,
                       match=f"guide node {gid}: 1000000 labels .* cannot be held"):
        from_bytes(reseal(bytes(payload)))


def test_empty_extent_is_rejected_before_the_store_is_allocated(tmp_path):
    # 5,000 depth-1 labels beside a 200-deep chain of empty guide nodes:
    # a 14 KB file whose store would be 5,001 x 200 int64 (8 MB)
    depth = 200
    blob = b"".join(frozen_codec.encode(dewey.DeweyLabel((i,))) for i in range(1, 5001))
    p = bytearray(MAGIC) + struct.pack("<IQI", FORMAT_VERSION, 5001, depth)
    p += struct.pack("<I", 2 + depth)
    p += struct.pack("<IHH", 0xFFFFFFFF, 0, 1) + b"R" + struct.pack("<IHH", 0, 1, 1) + b"A"
    for d in range(1, depth + 1):
        p += struct.pack("<IHH", 0 if d == 1 else d, d, 1) + b"C"
    p += struct.pack("<IQ", 1, 0) + struct.pack("<IQ", 5000, len(blob)) + blob
    p += struct.pack("<IQ", 0, 0) * depth
    bad = reseal(bytes(p))
    assert len(bad) < 15_000
    tracemalloc.start()
    try:
        with pytest.raises(IndexFormatError, match="extent of guide node 2 holds no labels"):
            from_bytes(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    path = tmp_path / "empty.idx"
    path.write_bytes(bad)
    assert main(["query", str(path), "//A"]) == 2


def test_load_allocates_no_more_than_the_file_bounds(tmp_path):
    # 16,000 depth-1 labels beside a chain of one-label extents 400 deep: a
    # 121 KB index whose labels, padded to the deepest, would fill 52 MB
    depth, wide = 400, 16_000
    tags, parents = ["R", "A"] + ["C"] * depth, [-1, 0, 0] + list(range(2, depth + 1))
    chain = [np.array([[wide + 1] + [1] * (d - 1)]) for d in range(1, depth + 1)]
    pg = from_tables(tags, parents, [np.zeros((1, 0), np.int64),
                                               np.arange(1, wide + 1)[:, None], *chain])
    data = to_bytes(Index.from_guide(pg))
    blob = int(pg.byte_lens.sum())  # bytes of the extent blobs
    labels = blob + 1  # every label but the root's takes a byte or more
    limit = (
        8 * len(data)  # the components, 8 B each, one file byte or more each
        + 3 * 8 * labels  # byte_lens, pos and up: an int64 each per label
        + 16 * 8 * labels  # the check: at most 16 int64 temporaries per label at once
        + 16 * 4 * len(pg)  # the node table and its planning arrays: at most 16 int32 per node
        + 2**20  # the node table's Python objects and the codec's chunk
    )
    tracemalloc.start()
    try:
        loaded = from_bytes(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, (peak, limit)
    assert to_bytes(loaded) == data
    path = tmp_path / "deep.idx"
    path.write_bytes(data)
    assert main(["query", str(path), "//C"]) == 0


def test_wide_and_deep_guide_loads_and_plans_in_memory_linear_in_the_file():
    # 10,000 depth-1 guide nodes beside a 600-deep chain of one-label
    # extents: a guide of 10,602 nodes whose paths padded to the deepest
    # would take 10,602 x 601 cells per array
    wide, depth = 10_000, 600
    tags = ["R"] + [f"T{i}" for i in range(wide)] + ["C"] * depth
    parents = [-1] + [0] * (wide + 1) + list(range(wide + 1, wide + depth))
    rows = ([np.zeros((1, 0), np.int64)] + [np.array([[i + 1]]) for i in range(wide)]
            + [np.array([[wide + 1] + [1] * (d - 1)]) for d in range(1, depth + 1)])
    data = to_bytes(Index.from_guide(from_tables(tags, parents, rows)))
    nodes, labels = len(tags), len(rows)  # each node takes 21 file bytes or more
    load_limit = (
        8 * len(data)  # the components, 8 B each, one file byte or more each
        + 3 * 8 * labels  # byte_lens, pos and up: an int64 each per label
        + 16 * 8 * labels  # the store check: at most 16 int64 temporaries per label at once
        + 512 * nodes  # per guide node: its records' offsets and gathers, its tag's
                       # str and dict entry, the node table and the planning arrays
        + 2**20
    )
    plan_limit = 16 * 8 * nodes + 2**20  # at most 16 int64 temporaries per guide node
    d = split(parse("/R/*[./C/C]/C"))  # child steps only: one pair per node a step reaches
    tracemalloc.start()
    try:
        loaded = from_bytes(data).guide
        load_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        plan = build_dt_schema(loaded, d)
        plan_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert load_peak < load_limit, (load_peak, load_limit)
    assert plan_peak < plan_limit, (plan_peak, plan_limit)
    head = wide + 1  # the chain's first node, the one depth-1 node with a child
    assert plan.tables[0].records.tolist() == [head]
    assert plan.tables[0].ends.tolist() == [[head, 0, head + 2], [head, 1, head + 1]]


def test_loaded_store_is_laid_out_like_a_built_one(sample):
    xml, pg, idx, data = sample
    for guide in (pg, from_bytes(data).guide):
        for name in ("comps", "byte_lens"):
            arr = getattr(guide, name)
            assert arr.dtype == np.int64 and arr.flags.c_contiguous, name
            assert arr.flags.owndata and not arr.flags.writeable, name


# --- the loader against the frozen per-node loader, on seeded mutants ---


def _fuzz_indexes() -> list[bytes]:
    """Small indexes of a generated document, of multi-byte UTF-8 tags, of
    a chain, and of components at the byte code's class boundaries."""
    edges = np.array([1, 127, 128, 16511, 16512, dewey._MAX_COMPONENT], dtype=np.int64)[:, None]
    guides = [
        PathGuide.build_from_xml(gen_doc(seed=41, target=120)),
        PathGuide.build_from_xml("<R><é><データ/><B/><データ/></é><ü><データ><C/></データ></ü></R>"
                                 .encode()),
        PathGuide.build_from_xml(b"<R><A><B><C><D/></C></B></A></R>"),
        from_tables(["R", "A", "B"], [-1, 0, 1], [np.zeros((1, 0), np.int64), edges,
                                                            np.hstack([edges, edges[::-1]])]),
    ]
    return [to_bytes(Index.from_guide(pg)) for pg in guides]


def _record_offsets(data: bytes) -> tuple[list[int], list[int]]:
    """The offsets of each node record and each extent header."""
    heads = _extent_offsets(data)
    nodes = [len(MAGIC) + struct.calcsize("<IQI") + 4]
    for _ in heads[1:]:
        nodes.append(nodes[-1] + 8 + struct.unpack_from("<H", data, nodes[-1] + 6)[0])
    return nodes, heads


def _mutant(rng: random.Random, data: bytes, nodes: list[int],
            heads: list[int]) -> tuple[str, bytes]:
    """One seeded mutation of a valid index, its checksum resealed."""
    p, n = bytearray(data[:-4]), len(nodes)
    spans = list(zip(heads, heads[1:] + [len(p)]))  # each extent: header and blob
    g = rng.randrange(n)
    kind = rng.choice(["flip", "word", "cut", "splice", "insert", "chain", "depth", "count",
                       "swap", "dup", "n_guide", "utf8_cut", "blob_len"])
    if kind == "flip":
        p[rng.randrange(len(p))] ^= 1 << rng.randrange(8)
    elif kind == "word":
        at = rng.randrange(len(p) - 3)
        word = rng.choice([0, 1, 0xFFFF, 0xFFFFFFFF, rng.getrandbits(32)])
        p[at : at + 4] = word.to_bytes(4, "little")
    elif kind == "cut":
        del p[rng.randrange(len(p)) :]
    elif kind == "splice":
        a = rng.randrange(len(p))
        del p[a : a + rng.randint(1, 24)]
    elif kind == "insert":
        a = rng.randrange(len(p) + 1)
        p[a:a] = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 12)))
    elif kind == "chain":  # parents from node g on rewired into one chain
        for k in range(max(g, 1), n):
            p[nodes[k] : nodes[k] + 4] = (k - 1).to_bytes(4, "little")
    elif kind == "depth":
        p[nodes[g] + 4 : nodes[g] + 6] = rng.choice([0, 1, 2, 7, 0xFFFF]).to_bytes(2, "little")
    elif kind == "count":
        count = rng.choice([0, 1, 2, rng.getrandbits(8), rng.getrandbits(32)])
        p[heads[g] : heads[g] + 4] = count.to_bytes(4, "little")
    elif kind == "swap":
        a, b = rng.sample(range(n), 2)
        ext = [bytes(p[x:y]) for x, y in spans]
        ext[a], ext[b] = ext[b], ext[a]
        p[heads[0] :] = b"".join(ext)
    elif kind == "dup":
        end = nodes[g + 1] if g + 1 < n else heads[0]
        p[end:end] = p[nodes[g] : end]
    elif kind == "n_guide":
        p[nodes[0] - 4 : nodes[0]] = ((n + rng.choice([-1, 1])) % 2**32).to_bytes(4, "little")
    elif kind == "utf8_cut":  # a tag byte no UTF-8 text holds, then a cut further on
        at = rng.randrange(nodes[g] + 8, nodes[g + 1] if g + 1 < n else heads[0])
        p[at] = rng.choice([0x80, 0xC0, 0xFE, 0xFF])
        del p[rng.randrange(at + 1, len(p)) :]
    else:  # a blob length whose next offset is past the end of int64
        blob_len = rng.choice([2**63 - heads[g] - 12, 2**63 - 1, 2**63, 2**64 - 1])
        p[heads[g] + 4 : heads[g] + 12] = blob_len.to_bytes(8, "little")
    return kind, reseal(bytes(p))


_GUIDE_FIELDS = ("parents", "tags", "depths", "comps", "start", "byte_lens", "pos", "up")


def _outcome(load, data: bytes) -> tuple:
    """The loader's error, type and text, or what it loaded."""
    try:
        index = load(data)
    except Exception as exc:  # noqa: BLE001 - any fault must be the same fault
        return type(exc).__name__, str(exc)
    pg = index.guide
    arrays = ((getattr(pg, f).dtype.str, getattr(pg, f).tolist()) for f in _GUIDE_FIELDS)
    return "loaded", pg.tag_names, to_bytes(index), *arrays


def _fault_class(outcome: tuple) -> str:
    """What a mutant's outcome was, at the grain the coverage check needs."""
    if outcome[0] == "loaded":
        return "loaded"
    cut = re.match(r"truncated index: need (\d+) bytes", outcome[1])
    if cut:
        need = int(cut[1])
        if need in (8, 12):
            return f"need {need}"
        return "need past int64" if need > 2**62 else "need payload"
    return "utf8" if "tag is not UTF-8" in outcome[1] else outcome[1].split(":")[0]


def test_seeded_mutants_load_as_the_frozen_loader_loads_them():
    rng = random.Random(24)
    seen = collections.Counter()
    for data in _fuzz_indexes():
        nodes, heads = _record_offsets(data)
        for _ in range(2000):
            kind, bad = _mutant(rng, data, nodes, heads)
            want = _outcome(frozen_load.from_bytes, bad)
            assert _outcome(from_bytes, bad) == want, (kind, bad.hex())
            seen[kind, _fault_class(want)] += 1
    # a cut node header, a UTF-8 fault before a later cut and a next
    # offset past int64: the faults a walk over the offsets can misplace
    for case in [("cut", "need 8"), ("utf8_cut", "utf8"), ("blob_len", "need past int64")]:
        assert seen[case] >= 5, case


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*")


def _queries_over(rng: random.Random, pg: PathGuide) -> list[str]:
    """A path, a twig under a guide node of two or more children, and a
    three-leaf twig, over the guide's own tags (* for a tag the query
    grammar cannot name)."""
    def name(g: int) -> str:
        tag = pg.tag_names[pg.tags[g]]
        return tag if _NAME.fullmatch(tag) else "*"

    nodes = range(len(pg))
    forks = [g for g in nodes if len(children(pg, g)) >= 2]
    if forks:
        g = rng.choice(forks)
        b, c = rng.sample(sorted(children(pg, g).values()), 2)
        twig = f"//{name(g)}[./{name(b)}]/{name(c)}"
    else:
        twig = f"//*[.//{name(rng.choice(nodes))}]//{name(rng.choice(nodes))}"
    a, b, c = (name(rng.choice(nodes)) for _ in range(3))
    return [f"//{a}", twig, f"//*[.//{a}][.//{b}]//{c}"]


def _traced(fn, *args):
    """fn(*args), and the peak of the memory it allocated, traced."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _rows_held(pg: PathGuide, q: str) -> int:
    """The most rows the engine holds for q at once, as it counts them
    against max_results: the bound raised until the query runs."""
    bound = 0
    while True:
        try:
            return max(bound, len(evaluate(pg, q, max_results=bound)[0]))
        except ResultLimitError as err:
            bound = err.rows


def test_loaded_mutants_answer_as_the_leaf_scan_does():
    # the mutants of the test above that load (633 of 8,000, 45 of them
    # distinct): whatever guide they hold, the engine answers on it as the
    # leaf-scan reference does, loading it and answering each query in
    # memory linear in the file, its labels and the rows the query holds
    rng, qrng = random.Random(24), random.Random(25)
    seen: set[bytes] = set()
    loaded = answered = 0
    for data in _fuzz_indexes():
        nodes, heads = _record_offsets(data)
        for _ in range(2000):
            _, bad = _mutant(rng, data, nodes, heads)
            if bad in seen:
                continue
            seen.add(bad)
            try:
                index, load_peak = _traced(from_bytes, bad)
            except (IndexFormatError, GuideError):
                continue
            pg, labels = index.guide, len(index.guide.byte_lens)
            load_limit = (
                32 * len(bad)  # 8 B of components per file byte, and 24 B of objects and
                               # arrays per file byte: 500 B per guide node of 21 bytes or more
                + 19 * 8 * labels  # byte_lens, pos, up and the store check's 16 temporaries
                + 2**20
            )
            assert load_peak < load_limit, (load_peak, load_limit, bad.hex())
            loaded += 1
            for q in _queries_over(qrng, pg):
                ref, _ = leaf_scan_match(pg, parse(q))
                want = ["\t".join(map(str, mt.leaf_labels)) for mt in ref]
                assert evaluate(pg, q)[0].lines() == want, (q, bad.hex())
                answered += bool(want)
                _, query_peak = _traced(evaluate, pg, q)
                query_limit = (
                    8 * len(bad)  # the walk's temporaries: 128 B per guide node
                    + 32 * 8 * labels  # the merge's ids, keys, orders and flags per label read
                    + 32 * 8 * _rows_held(pg, q)  # an entry (4 columns at most here), its
                                                  # fan-out indexes and its sorted copy
                    + 2**20
                )
                assert query_peak < query_limit, (q, query_peak, query_limit, bad.hex())
    assert loaded >= 40 and answered >= 60, (loaded, answered)
