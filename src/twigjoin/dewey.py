"""Hierarchical node labels: child ordinals from the root, compared
lexicographically, with a compact order-preserving byte encoding.

A label is the tuple of its 1-based child ordinals (DeweyLabel is a
tuple subclass that checks them), so labels equal, hash and order as
their tuples do: lexicographically, a proper prefix first, which for
labels of one document is document order.  The root carries the empty
label (printed as an epsilon), the only falsy one.  Byte encodings of
whole labels compare byte-lexicographically exactly like the labels
themselves, so encoded lists can be merged without decoding.
"""

from __future__ import annotations

from typing import Iterable


class LabelError(ValueError):
    """Invalid label construction or a malformed encoded label."""


# Biased length classes for one component.  The first byte's high bits
# give the byte count (0xxxxxxx=1, 10xxxxxx=2, 110xxxxx=3, 1110xxxx=4,
# 11110xxx=5); the remaining bits hold value-minus-class-base big-endian.
# Biasing makes every encoding canonical and keeps cross-class order.
_CLASS_BASE = (0, 0x80, 0x4080, 0x204080, 0x10204080)
_CLASS_CAP = (1 << 7, 1 << 14, 1 << 21, 1 << 28, 1 << 35)
_CLASS_MARK = (0x00, 0x80, 0xC0, 0xE0, 0xF0)
_MAX_COMPONENT = _CLASS_BASE[4] + _CLASS_CAP[4] - 1


class DeweyLabel(tuple):
    """Immutable hierarchical label: the tuple of its components, so it
    equals, hashes and orders exactly as that tuple does."""

    __slots__ = ()

    def __new__(cls, components: Iterable[int] = ()):
        comps = tuple(components)
        for c in comps:
            if not isinstance(c, int) or c < 1:
                raise LabelError(f"label component must be a positive integer, got {c!r}")
        return _new_label(cls, comps)

    @property
    def components(self) -> "DeweyLabel":
        return self

    @property
    def level(self) -> int:
        return len(self)

    def child(self, n: int) -> "DeweyLabel":
        """Label of this node's n-th child (n is 1-based).  Only n is
        checked: this label's components were checked when it was made."""
        if not isinstance(n, int) or n < 1:
            raise LabelError(f"child ordinal must be a positive integer, got {n!r}")
        return _new_label(DeweyLabel, (*self, n))

    def prefix(self, level: int) -> "DeweyLabel":
        """First `level` components; `level` may not exceed this label's level."""
        if level < 0 or level > len(self):
            raise LabelError(f"prefix level {level} out of range for label of level {len(self)}")
        return _new_label(DeweyLabel, self[:level])

    def is_ancestor_or_self(self, other: "DeweyLabel") -> bool:
        return other[: len(self)] == self

    def __repr__(self) -> str:
        return f"DeweyLabel({format_label(self)})"

    def __str__(self) -> str:
        return format_label(self)


_new_label = tuple.__new__  # a label of components already checked
EPSILON = DeweyLabel()


def child_label(parent: DeweyLabel, n: int) -> DeweyLabel:
    return parent.child(n)


def compare(a: DeweyLabel, b: DeweyLabel) -> int:
    """-1, 0 or 1.  Component-wise order; a proper prefix sorts first.

    For labels of one document this equals document preorder.
    """
    return (a > b) - (a < b)


def is_ancestor_or_self(a: DeweyLabel, b: DeweyLabel) -> bool:
    return a.is_ancestor_or_self(b)


def format_label(label: DeweyLabel) -> str:
    return ".".join(map(str, label)) if label else "ε"


def parse_label(text: str) -> DeweyLabel:
    text = text.strip()
    if text in ("ε", ""):
        return EPSILON
    try:
        return DeweyLabel(int(part) for part in text.split("."))
    except (ValueError, LabelError) as exc:
        raise LabelError(f"bad label text {text!r}: {exc}") from None


def encoded_component_len(value: int) -> int:
    """Byte length `value` occupies in the encoded form."""
    if value < 1 or value > _MAX_COMPONENT:
        raise LabelError(f"component {value} outside encodable range")
    for cls in range(5):
        if value < _CLASS_BASE[cls] + _CLASS_CAP[cls]:
            return cls + 1
    raise AssertionError("unreachable")


def _encode_component(value: int, out: bytearray) -> None:
    if value < 1 or value > _MAX_COMPONENT:
        raise LabelError(f"component {value} outside encodable range")
    for cls in range(5):
        if value < _CLASS_BASE[cls] + _CLASS_CAP[cls]:
            rest = value - _CLASS_BASE[cls]
            nbytes = cls + 1
            body = rest.to_bytes(nbytes, "big")
            out.append(_CLASS_MARK[cls] | body[0])
            out.extend(body[1:])
            return
    raise AssertionError("unreachable")


def encode(label: DeweyLabel) -> bytes:
    """Concatenated component encodings; ordered like `compare`."""
    out = bytearray()
    for c in label:
        _encode_component(c, out)
    return bytes(out)


def encoded_len(label: DeweyLabel) -> int:
    return sum(map(encoded_component_len, label))


def decode(data: bytes) -> DeweyLabel:
    """Inverse of `encode`.  Rejects truncated or non-canonical input."""
    comps = []
    i = 0
    n = len(data)
    while i < n:
        first = data[i]
        if first < 0x80:
            cls = 0
        elif first < 0xC0:
            cls = 1
        elif first < 0xE0:
            cls = 2
        elif first < 0xF0:
            cls = 3
        elif first < 0xF8:
            cls = 4
        else:
            raise LabelError(f"invalid component lead byte 0x{first:02x} at offset {i}")
        nbytes = cls + 1
        if i + nbytes > n:
            raise LabelError(f"truncated component at offset {i}")
        mark = _CLASS_MARK[cls]
        body = bytes([first & ~mark & 0xFF]) + data[i + 1 : i + nbytes]
        value = _CLASS_BASE[cls] + int.from_bytes(body, "big")
        if value < 1:
            raise LabelError(f"component value 0 at offset {i} is not a valid ordinal")
        comps.append(value)
        i += nbytes
    return DeweyLabel(comps)
