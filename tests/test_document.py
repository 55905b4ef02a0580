import pytest

from twigjoin.dewey import parse_label
from twigjoin.document import (
    GeneratedDoc,
    GeneratorConfig,
    IngestError,
    NodeEvent,
    generate,
    ingest,
)

from conftest import DOC_SEEDS, gen_doc
from frozen_generate import generate as frozen_generate


def events(xml: bytes, **kw):
    return [(str(ev.label), ev.tag) for ev in ingest(xml, **kw)]


def test_ingest_tiny():
    assert events(b"<A><B/><C><D/></C></A>") == [
        ("ε", "A"),
        ("1", "B"),
        ("2", "C"),
        ("2.1", "D"),
    ]


def test_ingest_ordinals_span_all_tags():
    # ordinals count every element child, not per-tag positions
    assert events(b"<R><A/><B/><A/></R>") == [
        ("ε", "R"),
        ("1", "A"),
        ("2", "B"),
        ("3", "A"),
    ]


def test_ingest_skips_non_elements():
    xml = b"""<?xml version="1.0"?>
    <A>text<!-- comment --><B attr="1">more</B><?pi data?><C/></A>"""
    assert events(xml) == [("ε", "A"), ("1", "B"), ("2", "C")]


def test_ingest_deep_nesting():
    xml = b"<A>" * 30 + b"</A>" * 30
    got = events(xml)
    assert len(got) == 30
    assert got[-1] == (".".join(["1"] * 29), "A")


def test_ingest_depth_cap():
    xml = b"<A>" * 30 + b"</A>" * 30
    with pytest.raises(IngestError, match="depth"):
        events(xml, depth_cap=10)


def test_ingest_malformed():
    with pytest.raises(IngestError, match="byte"):
        events(b"<A><B></A>")
    with pytest.raises(IngestError):
        events(b"not xml at all")
    with pytest.raises(IngestError):
        events(b"")


def test_ingest_streams_from_file_object(tmp_path):
    p = tmp_path / "doc.xml"
    p.write_bytes(b"<A><B/></A>")
    with open(p, "rb") as fh:
        assert [ev.tag for ev in ingest(fh)] == ["A", "B"]


class Trickle:
    """A file object that hands out at most 3 bytes per read."""

    def __init__(self, data: bytes):
        self.data, self.at = data, 0

    def read(self, n: int = -1) -> bytes:
        chunk = self.data[self.at : self.at + min(n, 3)]
        self.at += len(chunk)
        return chunk


def test_node_event_is_an_immutable_value():
    label = parse_label("2.1")
    ev = NodeEvent(label, "D")
    assert ev.label is label and ev.tag == "D" and ev.depth == label.level == 2
    for name in ("label", "tag"):
        with pytest.raises(AttributeError):
            setattr(ev, name, None)
    same = NodeEvent(parse_label("2.1"), "D")
    assert ev == same and hash(ev) == hash(same)
    assert ev != NodeEvent(label, "E") and ev != NodeEvent(parse_label("2.2"), "D")


def test_ingest_reads_a_trickling_stream_alike():
    xml = generate(GeneratorConfig(seed=5, target_node_count=300)).xml
    events = list(ingest(xml))
    assert len(events) >= 150
    assert list(ingest(Trickle(xml))) == events
    assert [ev.depth for ev in events] == [ev.label.level for ev in events]


@pytest.mark.parametrize("xml, kw, message", [
    (b"<A>" * 30 + b"</A>" * 30, {"depth_cap": 10}, "element depth exceeds cap of 10 at byte 30"),
    (b'<?xml version="1.0"?>\n<R><A x="1">text</A><!-- c --><B><C/></B></R>', {"depth_cap": 2},
     "element depth exceeds cap of 2 at byte 55"),
    (b"<R>\n  <A><B></A>\n</R>", {}, "malformed XML at byte 14: mismatched tag"),
    (b"<A/><B/>", {}, "malformed XML at byte 4: junk after document element"),
    (b"<A><B/>", {}, "malformed XML at byte 7: no element found"),
    (b"", {}, "malformed XML at byte -1: no element found"),
])
def test_ingest_error_texts(xml, kw, message):
    for source in (xml, Trickle(xml)):
        with pytest.raises(IngestError) as err:
            list(ingest(source, **kw))
        assert str(err.value) == message


def test_generate_deterministic():
    cfg = GeneratorConfig(seed=42, target_node_count=500)
    a = generate(cfg)
    b = generate(cfg)
    assert isinstance(a, GeneratedDoc)
    assert a.xml == b.xml
    assert a.node_count == b.node_count


def test_generate_seed_changes_output():
    a = generate(GeneratorConfig(seed=1, target_node_count=300))
    b = generate(GeneratorConfig(seed=2, target_node_count=300))
    assert a.xml != b.xml


def test_generate_single_node():
    doc = generate(GeneratorConfig(max_depth=1, seed=0, target_node_count=100))
    assert doc.node_count == 1
    evs = list(ingest(doc.xml))
    assert len(evs) == 1
    assert evs[0].label.level == 0


def test_generate_bounds():
    cfg = GeneratorConfig(max_depth=5, max_fanout=4, seed=14, target_node_count=400)
    doc = generate(cfg)
    assert doc.node_count >= 100  # a few elements would bound nothing
    evs = list(ingest(doc.xml))
    assert len(evs) == doc.node_count
    children: dict[tuple, int] = {}
    for ev in evs:
        assert ev.label.level + 1 <= cfg.max_depth
        assert ev.tag in cfg.tag_alphabet
        if ev.label.level > 0:
            parent = ev.label.components[:-1]
            children[parent] = max(children.get(parent, 0), ev.label.components[-1])
    assert all(n <= cfg.max_fanout for n in children.values())


def test_generate_target_overshoot_bounded():
    # expansion stops opening subtrees once the target is hit, so the
    # overshoot is at most the open path depth
    cfg = GeneratorConfig(max_depth=12, seed=3, target_node_count=1000)
    doc = generate(cfg)
    assert 1000 <= doc.node_count <= 1000 + cfg.max_depth


@pytest.mark.parametrize("cfg", [
    GeneratorConfig(seed=7, target_node_count=100_000),  # the frag corpus
    *(GeneratorConfig(seed=7 + i, target_node_count=n)  # the ingest documents
      for i, n in enumerate((5_000, 10_000, 20_000))),
    GeneratorConfig(max_depth=1, seed=0, target_node_count=100),
    GeneratorConfig(max_depth=8, max_fanout=5, seed=2, target_node_count=100),
    GeneratorConfig(max_depth=3, max_fanout=1, seed=4, target_node_count=1),
    GeneratorConfig(max_depth=300, max_fanout=2, seed=9, target_node_count=900,
                    tag_alphabet=("a", "bc", "d")),
], ids=lambda cfg: f"seed{cfg.seed}-d{cfg.max_depth}-f{cfg.max_fanout}-n{cfg.target_node_count}")
def test_generate_repeats_the_recursive_generator(cfg):
    assert generate(cfg) == frozen_generate(cfg)


def test_generate_validation():
    with pytest.raises(ValueError):
        generate(GeneratorConfig(max_depth=0))
    with pytest.raises(ValueError):
        generate(GeneratorConfig(tag_alphabet=()))
    with pytest.raises(ValueError):
        generate(GeneratorConfig(target_node_count=0))
    # a tag must be a query step name, so every generated tag is queryable
    for alphabet in (("A", "1"), ("A<",), ("",), ("B", "A b"), ("é",)):
        with pytest.raises(ValueError, match="is not a query step name"):
            generate(GeneratorConfig(tag_alphabet=alphabet))
    generate(GeneratorConfig(tag_alphabet=("_x", "A-1.b"), target_node_count=50))


def test_generated_labels_parse_back():
    doc = generate(GeneratorConfig(seed=9, target_node_count=200))
    for ev in ingest(doc.xml):
        assert parse_label(str(ev.label)) == ev.label


def test_generate_can_undershoot():
    # the root draws no children
    cfg = GeneratorConfig(max_depth=8, max_fanout=5, seed=2, target_node_count=100)
    assert generate(cfg).node_count == 1


def test_gen_doc_rejects_degenerate_documents():
    with pytest.raises(ValueError, match="seed 2 gives 1 of 100 elements"):
        gen_doc(2, target=100)
    assert all(gen_doc(s, target=100) for s in DOC_SEEDS)
