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
            concatenated encoded labels
    footer  u32 CRC-32 of everything above

Serialization is canonical: the same guide always produces the same
bytes, so save/load/save round-trips are byte-identical.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from . import dewey
from .path_guide import GuideError, PathGuide

MAGIC = b"TWIGIDX1"
FORMAT_VERSION = 1
_NO_PARENT = 0xFFFFFFFF


class IndexFormatError(ValueError):
    """Malformed, truncated or corrupted index bytes."""


@dataclass
class Index:
    guide: PathGuide
    node_count: int
    max_depth: int

    @classmethod
    def from_guide(cls, pg: PathGuide) -> "Index":
        return cls(pg, pg.total_nodes(), int(pg.depths.max(initial=0)))


def to_bytes(index: Index) -> bytes:
    pg = index.guide
    out = bytearray()
    out += MAGIC
    out += struct.pack("<IQI", FORMAT_VERSION, index.node_count, index.max_depth)
    out += struct.pack("<I", len(pg.nodes))
    for node in pg.nodes:
        parent = _NO_PARENT if node.parent < 0 else node.parent
        tag = node.tag.encode("utf-8")
        out += struct.pack("<IHH", parent, node.depth, len(tag))
        out += tag
    for ext in pg.extents:
        blob = b"".join(dewey.encode(dewey.DeweyLabel(row)) for row in ext.rows.tolist())
        out += struct.pack("<IQ", len(ext.rows), len(blob))
        out += blob
    out += struct.pack("<I", zlib.crc32(bytes(out)) & 0xFFFFFFFF)
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise IndexFormatError(
                f"truncated index: need {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def from_bytes(data: bytes) -> Index:
    if len(data) < len(MAGIC) + 4:
        raise IndexFormatError("index too short for a header")
    stored = struct.unpack("<I", data[-4:])[0]
    actual = zlib.crc32(data[:-4]) & 0xFFFFFFFF
    if stored != actual:
        raise IndexFormatError(
            f"checksum mismatch: stored 0x{stored:08x}, computed 0x{actual:08x}"
        )
    r = _Reader(data[:-4])
    if r.take(len(MAGIC)) != MAGIC:
        raise IndexFormatError("bad magic; not an index file")
    version, node_count, max_depth = r.unpack("<IQI")
    if version != FORMAT_VERSION:
        raise IndexFormatError(f"unsupported format version {version}")
    (n_guide,) = r.unpack("<I")
    parents: list[int] = []
    tags: list[str] = []
    depths: list[int] = []
    for _ in range(n_guide):
        parent, depth, tag_len = r.unpack("<IHH")
        try:
            tags.append(r.take(tag_len).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise IndexFormatError(f"guide node {len(tags)}: tag is not UTF-8: {exc}") from None
        parents.append(-1 if parent == _NO_PARENT else parent)
        depths.append(depth)
    extent_rows: list[np.ndarray] = []
    for gid in range(n_guide):
        count, blob_len = r.unpack("<IQ")
        blob = r.take(blob_len)
        try:
            label = dewey.decode(blob)
        except dewey.LabelError as exc:
            raise IndexFormatError(f"bad extent encoding for guide node {gid}: {exc}")
        comps = label.components
        depth = depths[gid]
        if len(comps) != count * depth:
            raise IndexFormatError(
                f"extent of guide node {gid}: {len(comps)} components "
                f"do not form {count} labels of depth {depth}"
            )
        extent_rows.append(np.array(comps, dtype=np.int64).reshape(count, depth))
    if r.pos != len(r.data):
        raise IndexFormatError(f"{len(r.data) - r.pos} trailing bytes after extents")
    try:
        pg = PathGuide.from_tables(tags, parents, extent_rows)
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
