"""Hierarchical node labels: child ordinals from the root, compared
lexicographically, with a compact order-preserving byte code.

A label is the tuple of its 1-based child ordinals (DeweyLabel is a
tuple subclass that checks them), so labels equal, hash and order as
their tuples do: lexicographically, a proper prefix first, which for
labels of one document is document order.  The root carries the empty
label (printed as an epsilon), the only falsy one.

This module is the one home of the byte code, in which the index file
and the bytes_scanned counter are written.  Codes of whole labels
compare byte-lexicographically exactly like the labels themselves, so
encoded lists can be merged without decoding.  The codec takes whole
arrays (encode_array, decode_array, encoded_lens); encode and decode
are its one-label calls.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class LabelError(ValueError):
    """Invalid label construction or a malformed encoded label."""


# Biased length classes for one component.  The first byte's high bits
# give the byte count (0xxxxxxx=1, 10xxxxxx=2, 110xxxxx=3, 1110xxxx=4,
# 11110xxx=5); the remaining bits hold value-minus-class-base big-endian.
# Class k holds 2**(7 * (k + 1)) values, so class k + 1 starts where
# class k ends.  Biasing makes every encoding canonical and keeps
# cross-class order.
_CLASS_BASE = np.array([0, 0x80, 0x4080, 0x204080, 0x10204080], dtype=np.int64)
_CLASS_MARK = np.array([0x00, 0x80, 0xC0, 0xE0, 0xF0], dtype=np.uint8)
_MAX_COMPONENT = int(_CLASS_BASE[4]) + (1 << 35) - 1


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


def encode_array(comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The code of each component, back to back in one uint8 array, and
    each component's byte length.  Raises LabelError at the first
    component outside 1 .. _MAX_COMPONENT."""
    comps = np.asarray(comps, dtype=np.int64)
    if comps.min(initial=1) < 1 or comps.max(initial=1) > _MAX_COMPONENT:
        bad = comps[(comps < 1) | (comps > _MAX_COMPONENT)][0]
        raise LabelError(f"component {bad} outside encodable range")
    k = np.searchsorted(_CLASS_BASE[1:], comps, side="right")  # bytes - 1
    pos = np.cumsum(k + 1) - (k + 1)
    code = np.empty(len(comps) + int(k.sum()), dtype=np.uint8)
    rest = comps - _CLASS_BASE[k]
    code[pos] = _CLASS_MARK[k] | (rest >> 8 * k)  # the lead byte: the mark, then the top bits
    for j in range(1, 5):  # byte j of each component that has it
        i = np.flatnonzero(k >= j)
        code[pos[i] + j] = (rest[i] >> 8 * (k[i] - j)) & 0xFF
    return code, k + 1


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


def decode_array(buf: np.ndarray, bounds: np.ndarray):
    """Decode the blobs buf[bounds[e] : bounds[e + 1]], back to back from
    bounds[0] == 0.  Returns every component in order, how many each blob
    holds, and the first fault as (offset in buf, reason), or None; after
    a fault the components are not the blobs' own.

    Each byte is a component's lead or one of its continuation bytes.  A
    lead below 0x80 is a whole component, so the walk from byte 0 steps
    over those one by one and only the bytes >= 0x80 that it lands on are
    multi-byte leads.
    """
    n = int(bounds[-1])
    buf = np.concatenate([buf[:n], np.zeros(4, dtype=np.uint8)])  # absorbs a component cut short
    hi = np.flatnonzero(buf[:n] >= 0x80)
    lead = buf[hi]
    extra = 1 + (lead >= 0xC0).astype(np.int64) + (lead >= 0xE0) + (lead >= 0xF0)
    if len(hi):
        on = _walk(np.searchsorted(hi, hi + extra + 1))
        hi, lead, extra = hi[on], lead[on], extra[on]
    starts = np.ones(len(buf), dtype=bool)
    value = (lead & (0x7F >> extra)).astype(np.int64)
    for j in range(1, 5):
        has = extra >= j
        starts[hi[has] + j] = False
        value[has] = (value[has] << 8) | buf[hi[has] + j]
    at = np.flatnonzero(starts[:n])
    comps = buf[at].astype(np.int64)
    comps[np.searchsorted(at, hi)] = value + _CLASS_BASE[extra]
    blob_end = bounds[np.searchsorted(bounds, hi, side="right")]
    faults = [(int(pos[0]), why) for pos, why in [
        (hi[lead >= 0xF8], "invalid component lead byte"),
        (hi[hi + extra >= blob_end], "truncated component"),
        (at[comps == 0], "component value 0"),
    ] if len(pos)]
    # the first one is the cause: the walk is off after it
    return comps, np.diff(np.searchsorted(at, bounds)), min(faults, default=None)


def encoded_lens(comps: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The byte length of each label's code, for labels of widths[i]
    components back to back in comps: a byte per component and one more
    per class boundary it reaches.  Only the indices of the components
    at or past each boundary are made, never an int64 per component."""
    big = [np.flatnonzero(comps >= b) for b in _CLASS_BASE[1:]]
    label = np.searchsorted(np.cumsum(widths, dtype=np.int64), np.concatenate(big), side="right")
    lens = np.bincount(label, minlength=len(widths))
    lens += widths
    return lens


def encode(label: DeweyLabel) -> bytes:
    """One label's code (encode_array); ordered like `compare`.  Per label
    it costs 70-170 times a batched call: loop callers should use
    encode_array/decode_array."""
    try:
        comps = np.array(label, dtype=np.int64)
    except OverflowError:
        raise LabelError(f"a component of {label!r} is outside encodable range") from None
    return encode_array(comps)[0].tobytes()


def decode(data: bytes) -> DeweyLabel:
    """Inverse of `encode` (decode_array); rejects malformed input.  Per
    label it costs 70 times a batched call: loop callers should use
    decode_array."""
    comps, _, fault = decode_array(np.frombuffer(data, dtype=np.uint8), np.array([0, len(data)]))
    if fault:
        pos, why = fault
        raise LabelError(f"{why} at offset {pos} (byte 0x{data[pos]:02x})")
    return _new_label(DeweyLabel, tuple(comps.tolist()))
