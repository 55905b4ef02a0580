import random
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
    Index,
    IndexFormatError,
    from_bytes,
    load,
    save,
    to_bytes,
)
from twigjoin.cli import main
from twigjoin.dt import build_dt_schema
from twigjoin.matcher import evaluate
from twigjoin.path_guide import GuideError, PathGuide

from twigjoin.twig import parse, split

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


def test_reloaded_guide_plans_identically(sample):
    xml, pg, idx, data = sample
    clone = from_bytes(data).guide
    assert clone.tag_id == pg.tag_id
    for name in ("parents", "tags", "depths", "anc", "tag_paths", "pos", "up"):
        assert np.array_equal(getattr(clone, name), getattr(pg, name)), name
    rng = random.Random(4)
    planned = 0
    for _ in range(40):
        d = split(parse(mixed_query(rng, pg)))
        for branch in d.branches:
            assert clone.eval_single_branch(branch) == pg.eval_single_branch(branch)
        if d.jps:
            built, loaded = build_dt_schema(pg, d), build_dt_schema(clone, d)
            assert [t.slots for t in loaded.tables] == [t.slots for t in built.tables]
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
    assert [n.path[-1] for n in pg.nodes] == ["R", "A", "C", "B"]
    data = _with_parent(to_bytes(Index.from_guide(pg)), 1, parent)
    with pytest.raises(IndexFormatError, match=f"parent {parent} is not an earlier node"):
        from_bytes(data)
    path = tmp_path / "bad.idx"
    path.write_bytes(data)
    assert main(["query", str(path), "//A"]) == 2


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
        bad = PathGuide.from_tables([n.tag for n in pg.nodes], [n.parent for n in pg.nodes],
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
    gid = pg.nodes[pg.nodes[1].children["C"]].gid
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
    gid = pg.nodes[1].children["C"]
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
    """The index of pg as the per-label encoder writes it."""
    out = bytearray(MAGIC)
    out += struct.pack("<IQI", FORMAT_VERSION, int(pg.start[-1]), int(pg.depths.max(initial=0)))
    out += struct.pack("<I", len(pg.nodes))
    for node in pg.nodes:
        tag = node.tag.encode()
        out += struct.pack("<IHH", 0xFFFFFFFF if node.parent < 0 else node.parent,
                           node.depth, len(tag)) + tag
    for ext in pg.extents:
        blob = b"".join(dewey.encode(dewey.DeweyLabel(row)) for row in ext.rows.tolist())
        out += struct.pack("<IQ", len(ext), len(blob)) + blob
    return reseal(bytes(out))


def _per_extent_load(data: bytes) -> PathGuide:
    """The guide the per-extent loader gives for a CRC-valid index: one
    dewey.decode per extent blob, then from_tables.  Raises
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
            comps = dewey.decode(blob).components
            if len(comps) != count * depths[gid]:
                raise IndexFormatError("components do not form labels")
            if depths[gid] == 0 and count != 1:  # rejected by from_tables, after allocating
                raise IndexFormatError("the root extent holds one label")
            tables.append(np.array(comps, dtype=np.int64).reshape(count, depths[gid]))
            pos += 12 + blob_len
        if pos != len(data) - 4:
            raise IndexFormatError("trailing bytes")
        pg = PathGuide.from_tables(tags, parents, tables)
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
    pg = PathGuide.from_tables(["R", "A", "B", "C"], [-1, 0, 1, 2],
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
    blob = b"".join(dewey.encode(dewey.DeweyLabel((i,))) for i in range(1, 5001))
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
    pg = PathGuide.from_tables(tags, parents, [np.zeros((1, 0), np.int64),
                                               np.arange(1, wide + 1)[:, None], *chain])
    data = to_bytes(Index.from_guide(pg))
    blob = int(pg.byte_lens.sum())  # bytes of the extent blobs
    labels = blob + 1  # every label but the root's takes a byte or more
    limit = (
        8 * len(data)  # the components, 8 B each, one file byte or more each
        + 3 * 8 * labels  # byte_lens, pos and up: an int64 each per label
        + 16 * 8 * labels  # the check: at most 16 int64 temporaries per label at once
        + 2 * 4 * len(pg) * (depth + 1)  # anc and tag_paths: int32, node by depth
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


def test_loaded_store_is_laid_out_like_a_built_one(sample):
    xml, pg, idx, data = sample
    for guide in (pg, from_bytes(data).guide):
        for name in ("comps", "byte_lens"):
            arr = getattr(guide, name)
            assert arr.dtype == np.int64 and arr.flags.c_contiguous, name
            assert arr.flags.owndata and not arr.flags.writeable, name
