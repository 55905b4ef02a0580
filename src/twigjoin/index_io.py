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
however large the index is.  Loading walks the extent headers, checks
the node table (PathGuide.from_node_table), then rejects any extent
whose labels could not fit its blob (every component takes at least one
byte; the depth-0 root extent holds exactly one label), and any empty
extent, before anything of size nodes x depth is allocated.  It then
decodes each chunk into its slice; PathGuide.adopt_store checks the store.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

import numpy as np

from .dewey import decode_array, encode_array
from .path_guide import GuideError, PathGuide

MAGIC = b"TWIGIDX1"
FORMAT_VERSION = 1
_NO_PARENT = 0xFFFFFFFF
MAX_TAG_BYTES = 0xFFFF  # a tag's UTF-8 length is stored as a u16
CHUNK_BYTES = 1 << 14  # encoded extent bytes per codec chunk
_STATS = struct.Struct("<IQI")
_NODE = struct.Struct("<IHH")
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
    lens = np.array([len(name) for name in names], dtype=np.int64)[pg.tags]
    over = np.flatnonzero(lens > MAX_TAG_BYTES)
    if len(over):
        g = int(over[0])
        raise IndexFormatError(f"guide node {g}: tag is {lens[g]} UTF-8 bytes, "
                               f"over the format's {MAX_TAG_BYTES}")
    for parent, depth, t in zip(pg.parents.tolist(), pg.depths.tolist(), pg.tags.tolist()):
        head += _NODE.pack(_NO_PARENT if parent < 0 else parent, depth, len(names[t]))
        head += names[t]
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


def from_bytes(data: bytes) -> Index:
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
    pos += 4
    parents: list[int] = []
    tags: list[str] = []
    stored_depths: list[int] = []
    for g in range(n_guide):
        _need(_NODE.size, pos, end)
        parent, depth, tag_len = _NODE.unpack_from(body, pos)
        pos += _NODE.size
        _need(tag_len, pos, end)
        try:
            tags.append(str(body[pos : pos + tag_len], "utf-8"))
        except UnicodeDecodeError as exc:
            raise IndexFormatError(f"guide node {g}: tag is not UTF-8: {exc}") from None
        pos += tag_len
        parents.append(-1 if parent == _NO_PARENT else parent)
        stored_depths.append(depth)
    # keep only the header offsets here and gather the fields below: three
    # arrays grown side by side left frag's peak RSS about 8 MB higher in
    # most benchmark runs
    heads = array("q")
    for _ in range(n_guide):
        _need(_EXTENT_HEAD.itemsize, pos, end)
        heads.append(pos)
        (blob_len,) = _BLOB_LEN.unpack_from(body, pos + 4)
        pos += _EXTENT_HEAD.itemsize
        _need(blob_len, pos, end)
        pos += blob_len
    if pos != end:
        raise IndexFormatError(f"{end - pos} trailing bytes after extents")
    try:
        pg = PathGuide.from_node_table(tags, parents, stored_depths)
        raw = np.frombuffer(body, dtype=np.uint8)
        blob_at = np.array(heads, dtype=np.int64) + _EXTENT_HEAD.itemsize
        fields = raw[blob_at[:, None] - np.arange(_EXTENT_HEAD.itemsize, 0, -1)].view(_EXTENT_HEAD)
        counts, blob_lens = (fields[f][:, 0].astype(np.int64) for f in ("count", "blob_len"))
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
