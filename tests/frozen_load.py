"""The per-node loader that `index_io.from_bytes` was before it walked
the record offsets and gathered the fields as arrays.  Kept verbatim,
with the helper it called, as the oracle for the loader: both must load
the same guide from the same bytes, or reject them with the same error.
"""

from __future__ import annotations

import struct
import zlib
from array import array

import numpy as np

from twigjoin.index_io import (
    _EXTENT_HEAD,
    _NO_PARENT,
    _STATS,
    FORMAT_VERSION,
    MAGIC,
    Index,
    IndexFormatError,
    _fill_store,
)
from twigjoin.path_guide import GuideError, PathGuide

_NODE = struct.Struct("<IHH")
_BLOB_LEN = struct.Struct("<Q")


def _need(n: int, pos: int, end: int) -> None:
    if pos + n > end:
        raise IndexFormatError(f"truncated index: need {n} bytes at offset {pos}, have {end - pos}")


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
