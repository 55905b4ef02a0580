"""Binary index file: the serialized guide plus all extent lists.

Layout (little-endian):

    magic   8s   b"TWIGIDX1"
    version u32  currently 1
    stats   u64 node_count, u32 max_depth
    guide   u32 guide node count, then per node in id order:
            u32 parent (0xFFFFFFFF for the root), u16 depth,
            u16 tag byte length, tag (UTF-8)
    extents per node in id order:
            u32 label count, u64 byte length,
            concatenated encoded labels (dewey's per-component code)
    footer  u32 CRC-32 of everything above

Serialization is canonical: the same guide always produces the same
bytes, so save/load/save round-trips are byte-identical.

The guide's store keeps the components in this file's order, so both
directions work on one slice of it per chunk of whole extents holding
about CHUNK_BYTES encoded bytes, and their temporaries stay bounded
however large the index is.  Loading walks the extent headers first and
rejects any extent whose labels could not fit its blob (every component
takes at least one byte; the depth-0 root extent holds exactly one
label), and any empty extent, before the store is allocated.  It then
decodes each chunk into its slice: a byte below 0x80 is a one-byte
component, so only the walk over the multi-byte lead candidates needs
pointer doubling.  The store gets the checks of PathGuide.adopt_store.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

import numpy as np

from .dewey import _CLASS_BASE, _CLASS_MARK, _MAX_COMPONENT, LabelError
from .path_guide import _LEN_BINS, GuideError, PathGuide

MAGIC = b"TWIGIDX1"
FORMAT_VERSION = 1
_NO_PARENT = 0xFFFFFFFF
CHUNK_BYTES = 1 << 14  # encoded extent bytes per codec chunk
_STATS = struct.Struct("<IQI")
_NODE = struct.Struct("<IHH")
_BLOB_LEN = struct.Struct("<Q")
_EXTENT_HEAD = np.dtype([("count", "<u4"), ("blob_len", "<u8")])  # packed: 12 bytes
_BASE = np.array(_CLASS_BASE, dtype=np.int64)
_MARK = np.array(_CLASS_MARK, dtype=np.uint8)


class IndexFormatError(ValueError):
    """Malformed, truncated or corrupted index bytes."""


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
    for parent, depth, t in zip(pg.parents.tolist(), pg.depths.tolist(), pg.tags.tolist()):
        head += _NODE.pack(_NO_PARENT if parent < 0 else parent, depth, len(names[t]))
        head += names[t]
    counts = np.diff(pg.start)
    blob_lens = np.diff(np.concatenate([[0], np.cumsum(pg.byte_lens)])[pg.start])
    # offset of each extent's header in the extent section
    at = np.cumsum(blob_lens + _EXTENT_HEAD.itemsize) - blob_lens - _EXTENT_HEAD.itemsize
    section = np.zeros(int(blob_lens.sum()) + _EXTENT_HEAD.itemsize * len(blob_lens), np.uint8)
    for a, b in _chunks(blob_lens):
        heads = np.empty(b - a, dtype=_EXTENT_HEAD)
        heads["count"], heads["blob_len"] = counts[a:b], blob_lens[a:b]
        section[(at[a:b, None] + np.arange(_EXTENT_HEAD.itemsize)).ravel()] = heads.view(np.uint8)
        comps = pg.comps[pg.comp_start[a] : pg.comp_start[b]]
        if comps.max(initial=0) > _MAX_COMPONENT:
            raise LabelError(f"component {comps.max()} outside encodable range")
        k = np.searchsorted(_LEN_BINS, comps, side="right")  # bytes - 1
        # the chunk's blobs are back to back but for one header per extent
        ext = np.repeat(np.arange(b - a) * _EXTENT_HEAD.itemsize, counts[a:b] * pg.depths[a:b])
        pos = np.cumsum(k + 1) - (k + 1) + ext + (at[a] + _EXTENT_HEAD.itemsize)
        rest = comps - _BASE[k]
        for j in range(5):  # byte j of each component that has it
            has = k >= j
            section[pos[has] + j] = (rest[has] >> (8 * (k[has] - j))) & 0xFF
        section[pos] |= _MARK[k]
    crc = zlib.crc32(section, zlib.crc32(head)) & 0xFFFFFFFF
    return b"".join((head, section.data, struct.pack("<I", crc)))


def _need(n: int, pos: int, end: int) -> None:
    if pos + n > end:
        raise IndexFormatError(f"truncated index: need {n} bytes at offset {pos}, have {end - pos}")


def _walk(nxt: np.ndarray) -> np.ndarray:
    """Which of 0 .. m-1 the walk 0 -> nxt[0] -> ... visits, where
    nxt[i] > i and m means off the end.  Pointer doubling: after round
    r, the walk's first 2**r steps are marked."""
    jump = np.append(nxt, len(nxt))
    seen = np.zeros(len(jump), dtype=bool)
    seen[0] = True
    while not seen[-1]:
        seen[jump[seen]] = True
        jump = jump[jump]
    return seen[:-1]


def _components(buf: np.ndarray, bounds: np.ndarray, first_gid: int):
    """Decode the blobs buf[bounds[e] : bounds[e + 1]] of guide nodes
    first_gid + e, stored back to back and followed by 4 bytes of padding.
    Returns every component in order and how many each blob holds.

    Each byte is a component's lead or one of its continuation bytes.  A
    lead below 0x80 is a whole component, so the walk from byte 0 steps
    over those one by one and only the bytes >= 0x80 that it lands on are
    multi-byte leads.
    """
    n = bounds[-1]
    hi = np.flatnonzero(buf[:n] >= 0x80)
    lead = buf[hi]
    extra = 1 + (lead >= 0xC0).astype(np.int64) + (lead >= 0xE0) + (lead >= 0xF0)
    if len(hi):
        on = _walk(np.searchsorted(hi, hi + extra + 1))
        hi, lead, extra = hi[on], lead[on], extra[on]
    starts = np.ones(len(buf), dtype=bool)  # the padding absorbs a component cut short
    value = (lead & (0x7F >> extra)).astype(np.int64)
    for j in range(1, 5):
        has = extra >= j
        starts[hi[has] + j] = False
        value[has] = (value[has] << 8) | buf[hi[has] + j]
    at = np.flatnonzero(starts[:n])
    comps = buf[at].astype(np.int64)
    comps[np.searchsorted(at, hi)] = value + _BASE[extra]
    blob_end = bounds[np.searchsorted(bounds, hi, side="right")]
    bad = [(int(pos[0]), why) for pos, why in [
        (hi[lead >= 0xF8], "invalid component lead byte"),
        (hi[hi + extra >= blob_end], "truncated component"),
        (at[comps == 0], "component value 0"),
    ] if len(pos)]
    if bad:  # the first one is the cause: the walk is off after it
        pos, why = min(bad)
        e = int(np.searchsorted(bounds, pos, side="right")) - 1
        raise IndexFormatError(f"bad extent encoding for guide node {first_gid + e}: "
                               f"{why} at offset {pos - bounds[e]} (byte 0x{buf[pos]:02x})")
    return comps, np.diff(np.searchsorted(at, bounds))


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
        buf = np.concatenate([np.delete(span, heads), np.zeros(4, dtype=np.uint8)])
        bounds = np.zeros(b - a + 1, dtype=np.int64)
        np.cumsum(blob_lens[a:b], out=bounds[1:])
        chunk, per_blob = _components(buf, bounds, a)
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
        pg = PathGuide.from_node_table(tags, parents)
        bad = np.flatnonzero(np.array(stored_depths, dtype=np.int64) != pg.depths)
        if len(bad):
            raise GuideError(f"extent width mismatch for guide node {bad[0]}")
    except GuideError as exc:
        raise IndexFormatError(f"inconsistent guide tables: {exc}") from None
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
    try:
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
