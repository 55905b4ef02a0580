import copy
import pickle
import random
import re
from itertools import chain

import numpy as np
import pytest

from twigjoin.dewey import (
    EPSILON,
    DeweyLabel,
    LabelError,
    child_label,
    compare,
    decode,
    decode_array,
    encode,
    encode_array,
    encoded_lens,
    format_label,
    parse_label,
)

import frozen_codec

# boundaries of the five component length classes
_CLASS_EDGES = [
    (1, 1), (127, 1),
    (128, 2), (16511, 2),
    (16512, 3), (2113663, 3),
    (2113664, 4), (270549119, 4),
    (270549120, 5), (34630287487, 5),
]


def test_child_label_example():
    assert child_label(parse_label("1.3"), 7) == parse_label("1.3.7")


def test_root_is_epsilon():
    assert EPSILON.level == 0
    assert format_label(EPSILON) == "ε"
    assert parse_label("ε") == EPSILON
    assert parse_label("") == EPSILON


def test_label_validation():
    with pytest.raises(LabelError):
        DeweyLabel((0,))
    with pytest.raises(LabelError):
        DeweyLabel((1, -2))
    with pytest.raises(LabelError):
        EPSILON.child(0)
    with pytest.raises(LabelError):
        parse_label("1.x.2")


@pytest.mark.parametrize("n", [0, -1, 1.5, "2"])
def test_child_checks_its_ordinal(n):
    for parent in (EPSILON, parse_label("1.3")):
        with pytest.raises(LabelError):
            parent.child(n)


def test_child_is_a_whole_label():
    lab = parse_label("1.3").child(7)
    assert type(lab) is DeweyLabel and lab.components == (1, 3, 7)
    assert lab == parse_label("1.3.7") and hash(lab) == hash(parse_label("1.3.7"))
    with pytest.raises(AttributeError):
        lab.components = (9,)


def test_immutability():
    lab = parse_label("1.2")
    for name in ("components", "level", "other"):
        with pytest.raises(AttributeError):
            setattr(lab, name, (9,))
    assert lab == (1, 2)


def test_label_is_its_component_tuple():
    rng = random.Random(5)
    labs = [DeweyLabel(tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 4))))
            for _ in range(200)]
    for lab in labs:
        comps = tuple(lab)
        assert lab == comps and comps == lab and hash(lab) == hash(comps)
        assert lab.components is lab
        assert len(lab) == lab.level
        assert bool(lab) == (lab != EPSILON)  # only the root is falsy
    assert sorted(labs) == sorted(labs, key=tuple)
    for a, b in zip(labs, labs[1:]):
        ta, tb = tuple(a), tuple(b)
        assert (a < b, a <= b, a > b, a >= b) == (ta < tb, ta <= tb, ta > tb, ta >= tb)
    assert DeweyLabel((1, 2)) == (1, 2) and {DeweyLabel((1, 2)): 0}[(1, 2)] == 0


@pytest.mark.parametrize("lab", [EPSILON, parse_label("3"), parse_label("1.20.7")])
def test_pickle_and_deepcopy_keep_the_type(lab):
    for got in (pickle.loads(pickle.dumps(lab)), copy.deepcopy(lab), copy.copy(lab)):
        assert type(got) is DeweyLabel and got == lab


@pytest.mark.parametrize("comps", [(0,), (1, -2), (1, 2.0), ("1",), (1, None)])
def test_bad_component_raises_label_error(comps):
    with pytest.raises(LabelError):
        DeweyLabel(comps)


def is_ancestor_or_self(a: DeweyLabel, b: DeweyLabel) -> bool:
    return b[: len(a)] == a


def test_prefix_and_ancestor():
    lab = parse_label("1.3.7")
    assert lab.prefix(2) == parse_label("1.3")
    assert lab.prefix(0) == EPSILON
    with pytest.raises(LabelError):
        lab.prefix(4)
    assert is_ancestor_or_self(parse_label("1.3"), lab)
    assert is_ancestor_or_self(lab, lab)
    assert is_ancestor_or_self(EPSILON, lab)
    assert not is_ancestor_or_self(lab, parse_label("1.3"))
    assert not is_ancestor_or_self(parse_label("1.4"), lab)


def test_compare_matches_tuple_order():
    rng = random.Random(1)
    labs = [
        DeweyLabel(tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 4))))
        for _ in range(300)
    ]
    for a in labs[:60]:
        for b in labs[:60]:
            want = (a.components > b.components) - (a.components < b.components)
            assert compare(a, b) == want


def test_format_parse_round_trip():
    rng = random.Random(2)
    for _ in range(200):
        lab = DeweyLabel(tuple(rng.randint(1, 10**6) for _ in range(rng.randint(0, 6))))
        assert parse_label(format_label(lab)) == lab


def test_component_length_classes():
    code, lens = encode_array([value for value, _ in _CLASS_EDGES])
    assert lens.tolist() == [want for _, want in _CLASS_EDGES]
    assert len(code) == sum(lens)
    for value, want in _CLASS_EDGES:
        assert len(encode(DeweyLabel((value,)))) == want


def test_encode_decode_round_trip_boundaries():
    for value, _ in _CLASS_EDGES:
        lab = DeweyLabel((value, 1, value))
        assert decode(encode(lab)) == lab


def test_encode_decode_round_trip_random():
    rng = random.Random(3)
    labs = []
    for _ in range(2000):
        n = rng.randint(0, 8)
        comps = tuple(
            rng.choice((rng.randint(1, 200), rng.randint(1, 10**9)))
            for _ in range(n)
        )
        labs.append(DeweyLabel(comps))
    datas = [encode(lab) for lab in labs]
    assert [decode(data) for data in datas] == labs
    comps = np.fromiter(chain.from_iterable(labs), np.int64)
    assert encoded_lens(comps, [*map(len, labs)]).tolist() == [*map(len, datas)]


def _label_of_every_class(rng: random.Random) -> DeweyLabel:
    """Components drawn from the class edges, _MAX_COMPONENT among them,
    or from inside a random class."""
    edges = [value for value, _ in _CLASS_EDGES]
    spans = list(zip(edges[::2], edges[1::2]))
    return DeweyLabel(tuple(
        rng.choice(edges) if rng.random() < 0.3 else rng.randint(*rng.choice(spans))
        for _ in range(rng.randint(0, 6))
    ))


def test_array_codec_writes_the_frozen_codec_bytes():
    rng = random.Random(8)
    labs = [_label_of_every_class(rng) for _ in range(3000)]
    want = [frozen_codec.encode(lab) for lab in labs]
    comps = np.fromiter(chain.from_iterable(labs), np.int64)
    assert {frozen_codec.encoded_component_len(c) for c in comps.tolist()} == {1, 2, 3, 4, 5}
    code, lens = encode_array(comps)
    assert code.tobytes() == b"".join(want)
    assert lens.tolist() == [frozen_codec.encoded_component_len(c) for c in comps.tolist()]
    assert encoded_lens(comps, [*map(len, labs)]).tolist() == [*map(len, want)]
    bounds = np.cumsum([0, *map(len, want)])
    back, per_blob, fault = decode_array(code, bounds)
    assert fault is None
    assert back.tolist() == comps.tolist() and per_blob.tolist() == [*map(len, labs)]
    for lab, data in zip(labs[:300], want):
        assert encode(lab) == data and decode(data) == lab


def _frozen_verdict(data: bytes):
    """The frozen decoder's label, or the offset at which it rejects data."""
    try:
        return frozen_codec.decode(data), None
    except LabelError as exc:
        return None, int(re.search(r"at offset (\d+)", str(exc))[1])


def test_single_byte_edits_are_judged_like_the_frozen_codec():
    # every value at every byte of short blobs of every class, and every
    # blob cut short: the same label, or a fault at the same offset
    labs = [(1,), (127, 128), (16511,), (16512, 1), (2113664,), (270549120, 2),
            (frozen_codec._MAX_COMPONENT,), (5, 16512, 3)]
    rejected = 0
    for blob in (frozen_codec.encode(DeweyLabel(lab)) for lab in labs):
        edits = [blob[:cut] for cut in range(len(blob))]
        edits += [blob[:i] + bytes([v]) + blob[i + 1:]
                  for i in range(len(blob)) for v in range(256)]
        for data in edits:
            want, at = _frozen_verdict(data)
            buf = np.frombuffer(data, np.uint8)
            comps, per_blob, fault = decode_array(buf, np.array([0, len(data)]))
            if want is None:
                rejected += 1
                assert fault is not None and fault[0] == at, data
                with pytest.raises(LabelError, match=f"at offset {at} "):
                    decode(data)
            else:
                assert fault is None and comps.tolist() == list(want), data
                assert per_blob.tolist() == [len(want)] and decode(data) == want
    assert rejected > 1000


def test_encoding_preserves_order():
    rng = random.Random(4)
    labs = [
        DeweyLabel(tuple(
            rng.choice((rng.randint(1, 300), rng.randint(1, 10**7)))
            for _ in range(rng.randint(0, 5))
        ))
        for _ in range(500)
    ]
    encs = [encode(lab) for lab in labs]
    by_label = sorted(range(len(labs)), key=lambda i: labs[i].components)
    by_bytes = sorted(range(len(labs)), key=lambda i: (encs[i], labs[i].components))
    # ties in bytes imply equal labels, so anchor both sorts the same way
    assert [labs[i] for i in by_label] == [labs[i] for i in by_bytes]


def test_component_out_of_range():
    for comps in ((34630287488,), (2**70,)):
        with pytest.raises(LabelError):
            encode(DeweyLabel(comps))
    for comps in ([3, 0], [-1], [1, 34630287488]):
        with pytest.raises(LabelError, match=f"component {comps[-1]} outside"):
            encode_array(comps)


def test_decode_rejects_bad_lead_byte():
    with pytest.raises(LabelError):
        decode(b"\xf8")
    with pytest.raises(LabelError):
        decode(b"\xff\x00\x00\x00\x00")


def test_decode_rejects_truncation():
    data = encode(parse_label("200"))
    assert len(data) == 2
    with pytest.raises(LabelError):
        decode(data[:1])


def test_decode_rejects_zero_component():
    with pytest.raises(LabelError):
        decode(b"\x00")


def test_every_byte_string_has_one_meaning():
    """Biased classes leave no second encoding for any value."""
    seen = {}
    for value in list(range(1, 300)) + [16510, 16511, 16512, 2113663, 2113664]:
        data = encode(DeweyLabel((value,)))
        assert data not in seen
        seen[data] = value
