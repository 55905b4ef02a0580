import random

import numpy as np
import pytest

from twigjoin.dewey import parse_label
from twigjoin.document import ingest
from twigjoin.metrics import Metrics
from twigjoin.oracle import MaterializedDoc, leaf_scan_match, naive_match
from twigjoin.path_guide import PathGuide
from twigjoin.twig import WILDCARD, parse, split

from conftest import build_all, gen_doc, mixed_query

L = parse_label


def doc_of(xml: bytes) -> MaterializedDoc:
    return MaterializedDoc.from_events(ingest(xml))


def leaf_tuples(matches):
    return [tuple(str(lab) for lab in mt.leaf_labels) for mt in matches]


# ------------------------------------------------------------- naive_match


def test_naive_hand_cases():
    doc = doc_of(b"<A><B/><C><B/></C></A>")
    assert leaf_tuples(naive_match(doc, parse("//A//B"))) == [("1",), ("2.1",)]
    assert leaf_tuples(naive_match(doc, parse("//A[./B]/C"))) == [("1", "2")]
    assert leaf_tuples(naive_match(doc, parse("/A/*"))) == [("1",), ("2",)]
    assert leaf_tuples(naive_match(doc, parse("/A"))) == [("ε",)]
    assert naive_match(doc, parse("/B")) == []
    assert naive_match(doc, parse("//B[./X]")) == []
    assert leaf_tuples(naive_match(doc, parse("//*"))) == [
        ("ε",),
        ("1",),
        ("2",),
        ("2.1",),
    ]


def test_naive_cross_product():
    doc = doc_of(b"<A><B/><B/><C/></A>")
    assert leaf_tuples(naive_match(doc, parse("//A[.//B]//C"))) == [
        ("1", "3"),
        ("2", "3"),
    ]


def test_naive_nested_same_tag():
    doc = doc_of(b"<A><A><A/></A></A>")
    assert leaf_tuples(naive_match(doc, parse("//A//A"))) == [("1",), ("1.1",)]
    # both descendant steps can land on the same deep node through
    # different intermediate embeddings; the tuple appears once
    assert leaf_tuples(naive_match(doc, parse("//A//A//A"))) == [("1.1",)]


def test_naive_dedups_embeddings():
    # two distinct embeddings of the JP produce the same leaf pair
    doc = doc_of(b"<A><A><B/><C/></A></A>")
    got = leaf_tuples(naive_match(doc, parse("//A[.//B]//C")))
    assert got == [("1.1", "1.2")]


def test_naive_child_axis_root_only_matches_root():
    doc = doc_of(b"<A><A><B/></A></A>")
    assert leaf_tuples(naive_match(doc, parse("/A/B"))) == []
    assert leaf_tuples(naive_match(doc, parse("/A/A/B"))) == [("1.1",)]


# -------------------------------------------------------- materialized docs


def test_from_events_round_trip_counts(small_corpus):
    for xml, pg, doc in small_corpus[:4]:
        assert doc.node_count == sum(1 for _ in ingest(xml))
        assert doc.node_count == sum(1 for _ in doc.iter_nodes())


def test_from_events_rejects_bad_streams():
    from twigjoin.dewey import EPSILON
    from twigjoin.document import NodeEvent

    two_roots = [NodeEvent(EPSILON, "A"), NodeEvent(EPSILON, "B")]
    with pytest.raises(ValueError, match="second root"):
        MaterializedDoc.from_events(two_roots)
    with pytest.raises(ValueError, match="empty"):
        MaterializedDoc.from_events([])


def test_from_guide_rebuilds_document(small_corpus):
    for xml, pg, doc in small_corpus[:4]:
        rebuilt = MaterializedDoc.from_guide(pg)
        assert rebuilt == doc


def test_from_guide_charges_full_scan(small_corpus):
    xml, pg, doc = small_corpus[1]
    met = Metrics()
    MaterializedDoc.from_guide(pg, met)
    assert met.nodes_read == len(pg.rows)
    assert met.bytes_scanned == int(pg.byte_lens.sum())


# ------------------------------------------------------------ leaf scanner


def test_leaf_scan_agrees_with_naive(small_corpus):
    rng = random.Random(47)
    nonempty = 0
    for xml, pg, doc in small_corpus:
        for _ in range(12):
            q = mixed_query(rng, pg)
            twig = parse(q)
            got, _ = leaf_scan_match(pg, twig)
            want = naive_match(doc, twig)
            assert [mt.leaf_labels for mt in got] == [
                mt.leaf_labels for mt in want
            ], q
            nonempty += bool(got)
    assert nonempty >= 30


def test_leaf_scan_reads_whole_name_extents(small_corpus):
    rng = random.Random(53)
    for xml, pg, doc in small_corpus[:6]:
        for _ in range(8):
            twig = parse(mixed_query(rng, pg))
            d = split(twig)
            _, met = leaf_scan_match(pg, twig)
            want = 0
            for branch in d.branches:
                tag = branch.steps[-1].test
                gids = [n.gid for n in pg.nodes if tag in (WILDCARD, n.tag)]
                want += np.diff(pg.start)[gids].sum()
            assert met.nodes_read == want


def test_leaf_scan_zero_jp_short_path():
    pg = PathGuide.build_from_xml(b"<A><B/><C><B/></C></A>")
    matches, met = leaf_scan_match(pg, parse("//A//B"))
    assert leaf_tuples(matches) == [("1",), ("2.1",)]
    # reads both B extents by name, nothing else
    assert met.nodes_read == sum(len(e) for e in pg.extents if pg.nodes[e.gid].tag == "B")
