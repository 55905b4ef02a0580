"""The scalar, per-label byte codec that `dewey` held before its
whole-array codec became the only one.  Kept verbatim, with the class
constants it read, as the oracle for the array codec: both must write
the same bytes and reject the same blobs at the same offset.
"""

from twigjoin.dewey import DeweyLabel, LabelError

# Biased length classes for one component.  The first byte's high bits
# give the byte count (0xxxxxxx=1, 10xxxxxx=2, 110xxxxx=3, 1110xxxx=4,
# 11110xxx=5); the remaining bits hold value-minus-class-base big-endian.
# Biasing makes every encoding canonical and keeps cross-class order.
_CLASS_BASE = (0, 0x80, 0x4080, 0x204080, 0x10204080)
_CLASS_CAP = (1 << 7, 1 << 14, 1 << 21, 1 << 28, 1 << 35)
_CLASS_MARK = (0x00, 0x80, 0xC0, 0xE0, 0xF0)
_MAX_COMPONENT = _CLASS_BASE[4] + _CLASS_CAP[4] - 1


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
