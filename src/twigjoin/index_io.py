"""Binary index file: the serialized guide plus all extent lists.

Layout (little-endian):

    magic   8s   b"TWIGIDX1"
    version u32  currently 1
    stats   u64 node_count, u32 max_depth
    guide   u32 guide node count, then per node in id order:
            u32 parent (0xFFFFFFFF for the root), u16 depth,
            u16 tag byte length, tag (UTF-8): at most MAX_TAG_BYTES
    extents per node in id order:
            u32 label count, u64 byte length, the labels in dewey's code
    footer  u32 CRC-32 of everything above

Serialization is canonical: the same guide always produces the same
bytes, so save/load/save round-trips are byte-identical.  This module
knows the layout only; the byte code is dewey's (encode_array and
decode_array, whose first fault names a guide node here).

The guide's store keeps the components in this file's order, so both
directions work on one slice of it per chunk of whole extents holding
about CHUNK_BYTES encoded bytes, and their temporaries stay bounded
however large the index is.

Loading reads the node records, then the extent headers, in two steps
each.  A walk reads only each record's length field (a tag's u16, a
blob's u64) and notes where each record starts; then one fancy index
gathers the fixed fields (parent and depth, count and blob length) from
those offsets as arrays.  Each distinct tag byte string is decoded once.
Faults are raised in file order with the texts a record-by-record reader
gives: a record header or payload cut short, at any length, is
"truncated index: need n bytes"; a tag that is not UTF-8 comes before
any cut after it.  The loader then checks the node table
(PathGuide.from_node_table) and rejects any extent whose labels could
not fit its blob (every component takes at least one byte; the depth-0
root extent holds exactly one label), and any empty extent, before
anything of size nodes x depth is allocated.  It then decodes each chunk
into its slice; PathGuide.adopt_store checks the store.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

import numpy as np

from .dewey import decode_array, encode_array
from .kernels import ranges
from .path_guide import GuideError, PathGuide

MAGIC = b"TWIGIDX1"
FORMAT_VERSION = 1
_NO_PARENT = 0xFFFFFFFF
MAX_TAG_BYTES = 0xFFFF  # a tag's UTF-8 length is stored as a u16
CHUNK_BYTES = 1 << 14  # encoded extent bytes per codec chunk
_STATS = struct.Struct("<IQI")
_NODE = np.dtype([("parent", "<u4"), ("depth", "<u2"), ("tag_len", "<u2")])  # packed: 8 bytes
_TAG_LEN = struct.Struct("<H")
_BLOB_LEN = struct.Struct("<Q")
_EXTENT_HEAD = np.dtype([("count", "<u4"), ("blob_len", "<u8")])  # packed: 12 bytes


class IndexFormatError(ValueError):
    """Malformed, truncated or corrupted index bytes, or a guide the
    format cannot hold."""


@dataclass
class Index:
    guide: PathGuide
    node_count: int
    max_depth: int

    @classmethod
    def from_guide(cls, pg: PathGuide) -> "Index":
        return cls(pg, int(pg.start[-1]), int(pg.depths.max(initial=0)))


def _chunks(blob_lens: np.ndarray) -> Iterator[tuple[int, int]]:
    """Extent ranges [a, b) of at most CHUNK_BYTES blob bytes, or one extent."""
    ends = np.cumsum(blob_lens)
    a = 0
    while a < len(blob_lens):
        limit = ends[a] - blob_lens[a] + CHUNK_BYTES
        b = max(a + 1, int(np.searchsorted(ends, limit, side="right")))
        yield a, b
        a = b


def to_bytes(index: Index) -> bytes:
    pg = index.guide
    head = bytearray(MAGIC)
    head += _STATS.pack(FORMAT_VERSION, index.node_count, index.max_depth)
    head += struct.pack("<I", len(pg))
    names = [tag.encode("utf-8") for tag in pg.tag_names]
    name_lens = np.array([len(name) for name in names], dtype=np.int64)
    lens = name_lens[pg.tags]
    over = np.flatnonzero(lens > MAX_TAG_BYTES)
    if len(over):
        g = int(over[0])
        raise IndexFormatError(f"guide node {g}: tag is {lens[g]} UTF-8 bytes, "
                               f"over the format's {MAX_TAG_BYTES}")
    nodes = np.empty(len(pg), dtype=_NODE)
    nodes["parent"] = np.where(pg.parents < 0, _NO_PARENT, pg.parents)
    nodes["depth"], nodes["tag_len"] = pg.depths, lens
    size = lens + _NODE.itemsize  # a node record: its fields, then its tag
    at = np.cumsum(size) - size
    table = np.empty(size.sum(), np.uint8)
    table[(at[:, None] + np.arange(_NODE.itemsize)).ravel()] = nodes.view(np.uint8)
    # each tag's bytes, gathered from the distinct names
    name_at = (np.cumsum(name_lens) - name_lens)[pg.tags]
    table[ranges(at + _NODE.itemsize, at + size)] = \
        np.frombuffer(b"".join(names), np.uint8)[ranges(name_at, name_at + lens)]
    head += table.tobytes()
    counts = np.diff(pg.start)
    blob_lens = np.diff(np.concatenate([[0], np.cumsum(pg.byte_lens)])[pg.start])
    crc, section = zlib.crc32(head), []
    for a, b in _chunks(blob_lens):
        heads = np.empty(b - a, dtype=_EXTENT_HEAD)
        heads["count"], heads["blob_len"] = counts[a:b], blob_lens[a:b]
        code, _ = encode_array(pg.comps[pg.comp_start[a] : pg.comp_start[b]])
        at = np.cumsum(blob_lens[a:b]) - blob_lens[a:b]  # each blob's start in code
        section.append(np.insert(code, np.repeat(at, _EXTENT_HEAD.itemsize), heads.view(np.uint8)))
        crc = zlib.crc32(section[-1], crc)
    return b"".join((head, *section, struct.pack("<I", crc & 0xFFFFFFFF)))


def _need(n: int, pos: int, end: int) -> None:
    if pos + n > end:
        raise IndexFormatError(f"truncated index: need {n} bytes at offset {pos}, have {end - pos}")


def _fill_store(raw: np.ndarray, depths: np.ndarray, counts: np.ndarray,
                blob_at: np.ndarray, blob_lens: np.ndarray) -> np.ndarray:
    """The components decoded from the blobs raw[blob_at[g] :][: blob_lens[g]],
    a chunk of extents at a time, each chunk's written into place."""
    comp_start = np.concatenate([[0], np.cumsum(counts * depths)])
    comps = np.empty(comp_start[-1], dtype=np.int64)
    head = np.arange(_EXTENT_HEAD.itemsize)
    for a, b in _chunks(blob_lens):
        lo = blob_at[a]
        span = raw[lo : blob_at[b - 1] + blob_lens[b - 1]]
        heads = ((blob_at[a + 1 : b] - lo - head.size)[:, None] + head).ravel()
        blobs = np.delete(span, heads)
        bounds = np.concatenate([[0], np.cumsum(blob_lens[a:b])])
        chunk, per_blob, fault = decode_array(blobs, bounds)
        if fault:
            pos, why = fault
            e = int(np.searchsorted(bounds, pos, side="right")) - 1
            raise IndexFormatError(f"bad extent encoding for guide node {a + e}: "
                                   f"{why} at offset {pos - bounds[e]} (byte 0x{blobs[pos]:02x})")
        wrong = np.flatnonzero(per_blob != counts[a:b] * depths[a:b])
        if len(wrong):
            g = a + wrong[0]
            raise IndexFormatError(
                f"extent of guide node {g}: {per_blob[wrong[0]]} components "
                f"do not form {counts[g]} labels of depth {depths[g]}"
            )
        comps[comp_start[a] : comp_start[b]] = chunk
    return comps


def _walk(data: bytes, pos: int, end: int, n: int, size: int,
          field: struct.Struct) -> tuple[list[int], int]:
    """Where each of the n records from pos starts, and the offset after the
    last one walked.  A record is a size-byte header ending in its payload's
    length (field), then the payload.  The walk stops after the first record
    whose payload runs past end, or at the first header that does; it reads
    nothing but the lengths, and checks nothing else."""
    last = end - size  # the last offset a whole header starts at
    starts = [0] * min(n, (end - pos) // size)  # at most this many headers fit
    unpack, at = field.unpack_from, size - field.size
    for k in range(len(starts)):
        if pos > last:
            del starts[k:]
            break
        starts[k] = pos
        pos += size + unpack(data, pos + at)[0]
    return starts, pos


def _gather(data: bytes, starts: np.ndarray, fields: np.dtype) -> np.ndarray:
    """The fields of the records that start at these offsets of data."""
    at = starts[:, None] + np.arange(fields.itemsize)
    return np.frombuffer(data, dtype=np.uint8)[at].view(fields)[:, 0]


def _check_cut(starts: list[int], pos: int, end: int, n: int, size: int) -> None:
    """Raise the first cut of a walk: its last payload, or then a header."""
    if pos > end:
        _need(pos - starts[-1] - size, starts[-1] + size, end)
    if len(starts) < n:
        _need(size, pos, end)


def _read_nodes(data: bytes, pos: int, end: int,
                n: int) -> tuple[list[str], np.ndarray, np.ndarray, int]:
    """The n node records from pos: their tags, parents and depths, and
    the offset after them.  Each distinct tag is decoded once, and a tag
    that is not UTF-8 is a fault before any cut after it."""
    starts, pos = _walk(data, pos, end, n, _NODE.itemsize, _TAG_LEN)
    whole = len(starts) - (pos > end)  # a tag cut short is not decoded
    ends = starts[1 : whole + 1] + [pos]
    raw_tags = [data[a + _NODE.itemsize : b] for a, b in zip(starts[:whole], ends)]
    names = dict.fromkeys(raw_tags)  # in order of first use
    for name in names:
        try:
            names[name] = str(name, "utf-8")
        except UnicodeDecodeError as exc:
            g = raw_tags.index(name)
            raise IndexFormatError(f"guide node {g}: tag is not UTF-8: {exc}") from None
    _check_cut(starts, pos, end, n, _NODE.itemsize)
    fields = _gather(data, np.array(starts, dtype=np.int64), _NODE)
    parents = fields["parent"].astype(np.int64)
    parents[parents == _NO_PARENT] = -1
    return list(map(names.__getitem__, raw_tags)), parents, fields["depth"], pos


def _read_extent_heads(data: bytes, pos: int, end: int,
                       n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The n extent headers from pos: per extent its label count, where its
    blob starts and its blob length; and the offset after the last blob."""
    starts, pos = _walk(data, pos, end, n, _EXTENT_HEAD.itemsize, _BLOB_LEN)
    _check_cut(starts, pos, end, n, _EXTENT_HEAD.itemsize)
    heads = np.array(starts, dtype=np.int64)
    fields = _gather(data, heads, _EXTENT_HEAD)
    counts, blob_lens = (fields[f].astype(np.int64) for f in ("count", "blob_len"))
    return counts, heads + _EXTENT_HEAD.itemsize, blob_lens, pos


def from_bytes(data: bytes) -> Index:
    data = bytes(data)  # the same object when it is bytes already
    if len(data) < len(MAGIC) + 4:
        raise IndexFormatError("index too short for a header")
    body = memoryview(data)[:-4]
    (stored,) = struct.unpack_from("<I", data, len(body))
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if stored != actual:
        raise IndexFormatError(
            f"checksum mismatch: stored 0x{stored:08x}, computed 0x{actual:08x}"
        )
    end = len(body)
    _need(len(MAGIC) + _STATS.size + 4, 0, end)
    if body[: len(MAGIC)] != MAGIC:
        raise IndexFormatError("bad magic; not an index file")
    version, node_count, max_depth = _STATS.unpack_from(body, len(MAGIC))
    if version != FORMAT_VERSION:
        raise IndexFormatError(f"unsupported format version {version}")
    pos = len(MAGIC) + _STATS.size
    (n_guide,) = struct.unpack_from("<I", body, pos)
    tags, parents, stored_depths, pos = _read_nodes(data, pos + 4, end, n_guide)
    counts, blob_at, blob_lens, pos = _read_extent_heads(data, pos, end, n_guide)
    if pos != end:
        raise IndexFormatError(f"{end - pos} trailing bytes after extents")
    try:
        pg = PathGuide.from_node_table(tags, parents, stored_depths)
        raw = np.frombuffer(body, dtype=np.uint8)
        depths = pg.depths.astype(np.int64)
        # a component takes a byte or more, the root's extent is its one label, no extent is empty
        over = np.flatnonzero((counts * depths > blob_lens) | ((depths == 0) & (counts != 1))
                              | (counts == 0))
        if len(over):
            g = over[0]
            if counts[g] == 0:
                raise IndexFormatError(f"extent of guide node {g} holds no labels")
            raise IndexFormatError(
                f"extent of guide node {g}: {counts[g]} labels of depth {depths[g]} "
                f"cannot be held in {blob_lens[g]} bytes"
            )
        pg.adopt_store(_fill_store(raw, depths, counts, blob_at, blob_lens), counts)
    except GuideError as exc:
        raise IndexFormatError(f"inconsistent guide tables: {exc}") from None
    index = Index.from_guide(pg)
    if (node_count, max_depth) != (index.node_count, index.max_depth):
        stats = f"node_count={node_count}, max_depth={max_depth}"
        raise IndexFormatError(f"header stats {stats} disagree with the guide")
    return index


def save(index: Index, path: Union[str, Path]) -> None:
    Path(path).write_bytes(to_bytes(index))


def load(path: Union[str, Path]) -> Index:
    return from_bytes(Path(path).read_bytes())
