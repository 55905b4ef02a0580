import gc
import random
import sys
import tracemalloc
import weakref
from collections import Counter
from itertools import product

import numpy as np
import pytest

import twigjoin
from twigjoin import matcher
from twigjoin.dewey import DeweyLabel, parse_label
from twigjoin.document import GeneratorConfig, generate, ingest
from twigjoin.dt import build_dt_schema, record_view
from twigjoin.kernels import BACKEND_NAMES, Backend, get_backend
from twigjoin.matcher import (
    Cursor,
    MatchTuple,
    ResultLimitError,
    ResultSet,
    _DIGITS,
    _PRINT_SLICE,
    _TEXT_ROWS,
    _cross,
    as_node_list,
    evaluate,
    jump,
    match_proc,
    row_text,
)
from twigjoin.metrics import Metrics
from twigjoin.oracle import MaterializedDoc, leaf_scan_match, naive_match
from twigjoin.path_guide import PathGuide
from twigjoin.twig import MAX_PATH_STEPS, QuerySyntaxError, parse, split

from conftest import (DEEP_SHAPES, DOC_SEEDS, build_all, children, deep_query, fan_out_doc,
                      from_tables, gen_doc, jp_leaves, mixed_query, random_query, spy_reads)
import frozen_match
from frozen_lines import lines as frozen_lines

L = parse_label


def labs(*texts: str) -> list[DeweyLabel]:
    return [L(t) for t in texts]


# ------------------------------------------------------------- label lists


def test_jump_fixture():
    cur = Cursor(as_node_list(labs("1.2.2.1", "1.3.3.1", "1.4")))
    nxt = jump(cur, 2, L("1.2"))
    assert nxt.position == 1
    assert cur.list.label_at(nxt.position) == L("1.3.3.1")


def test_as_node_list_validates_order():
    with pytest.raises(ValueError, match="sorted"):
        as_node_list(labs("1.2", "1.1"))
    with pytest.raises(ValueError, match="sorted"):
        as_node_list(labs("1.1", "1.1"))


def test_as_node_list_pads_ragged():
    nl = as_node_list(labs("1", "1.1", "2"))
    assert nl.rows.tolist() == [[1, 0], [1, 1], [2, 0]]
    assert [nl.label_at(i) for i in range(3)] == labs("1", "1.1", "2")
    assert as_node_list([L("")]).label_at(0) == L("")  # the root's label is no columns
    assert as_node_list([]).rows.shape == (0, 0)


def test_node_list_from_extent_keeps_rows():
    pg = PathGuide.build_from_xml(b"<A><B/><B/></A>")
    ext = pg.read_extent(1)
    nl = as_node_list(ext)
    assert nl.extent is ext
    assert nl.label_at(0) == L("1")
    assert nl.label_at(1) == L("2")


def test_every_public_name_resolves():
    # a name left in __all__ after its definition went would fail the import
    namespace: dict = {}
    exec("from twigjoin import *", namespace)
    assert set(twigjoin.__all__) <= namespace.keys()
    assert "match_multiway" not in namespace  # the engine has one join, match_proc


def random_label_list(rng: random.Random, n: int) -> list[DeweyLabel]:
    pool = set()
    for _ in range(6 * n):
        if len(pool) == n:
            break
        lvl = rng.randint(0, 4)
        pool.add(tuple(rng.randint(1, 3) for _ in range(lvl)))
    return [DeweyLabel(c) for c in sorted(pool)]


def test_cross_against_itertools_product():
    rng = random.Random(5)
    for k in range(1, 5):
        for trial in range(40):
            n = 0 if trial == 0 else rng.randint(1, 6)
            sizes = np.array([[rng.choice((0, 1, 1, 2, 3)) for _ in range(k)]
                              for _ in range(n)], dtype=np.int64).reshape(n, k)
            owner, digits = _cross(sizes)
            want = [(r, d) for r, row in enumerate(sizes.tolist())
                    for d in product(*map(range, row))]
            assert list(zip(owner.tolist(), map(tuple, digits.tolist()))) == want
            assert digits.shape == (len(want), k)


# --------------------------------------------------------------------- jump


def jump_oracle(labels, start, level, bound):
    def padded(lab):
        return (lab.components + (0,) * level)[:level]

    for i in range(start, len(labels)):
        if padded(labels[i]) > tuple(bound):
            return i
    return len(labels)


def test_jump_against_linear_oracle():
    rng = random.Random(12)
    for _ in range(250):
        labels = random_label_list(rng, rng.randint(1, 25))
        nl = as_node_list(labels)
        level = rng.randint(0, min(3, nl.rows.shape[1]))
        start = rng.randint(0, len(labels))
        bound = tuple(rng.randint(0, 3) for _ in range(level))
        got = jump(Cursor(nl, start), level, bound)
        assert got.position == jump_oracle(labels, start, level, bound)


def test_jump_validates_bound_and_level():
    nl = as_node_list(labs("1.1", "1.2"))
    with pytest.raises(ValueError, match="components"):
        jump(Cursor(nl), 2, L("1"))
    with pytest.raises(ValueError, match="level"):
        jump(Cursor(nl), 3, (1, 1, 1))
    nl = as_node_list(labs("1.1", "1.2", "2.1"))
    for position in (-1, 5):  # a position outside 0..len(list) reads nothing
        with pytest.raises(ValueError, match=f"position {position} outside 0..3"):
            jump(Cursor(nl, position), 1, (1,))


def test_jump_counts_work():
    met = Metrics()
    nl = as_node_list(labs(*(f"1.{i}" for i in range(1, 40))))
    jump(Cursor(nl), 2, L("1.20"), metrics=met)
    assert met.jumps == 1
    assert 0 < met.nodes_read < 39  # galloping beats the linear scan
    assert met.bytes_scanned == 0  # not extent-backed


def test_jump_meters_extent_bytes():
    pg = PathGuide.build_from_xml(b"<A>" + b"<B/>" * 30 + b"</A>")
    ext = pg.read_extent(1)
    met = Metrics()
    jump(Cursor(as_node_list(ext)), 1, (12,), metrics=met)
    assert met.bytes_scanned > 0
    assert met.bytes_scanned <= int(ext.byte_lens.sum())


def test_jump_from_the_end_of_an_extent_reads_nothing():
    pg = PathGuide.build_from_xml(b"<A>" + b"<B/>" * 30 + b"</A>")
    ext = pg.read_extent(1)
    met = Metrics()
    got = jump(Cursor(as_node_list(ext), len(ext)), 1, (12,), metrics=met)
    assert got.position == len(ext)
    assert (met.jumps, met.nodes_read, met.bytes_scanned) == (1, 0, 0)


def test_credit_counts_each_row_once():
    met = Metrics()
    met.credit(np.array([3, 0]), np.array([5, 7]))
    met.credit(np.array([3, 9]), np.array([5, 2]))
    assert met.bytes_scanned == 14
    assert met.nodes_read == 0
    # a row repeated within one call counts once too, in or out of row order
    met = Metrics()
    met.credit(np.array([4, 4, 2]), np.array([3, 3, 1]))
    assert met.bytes_scanned == 4
    met.credit(np.array([2, 6, 6]), np.array([1, 5, 5]))
    assert met.bytes_scanned == 9


def test_row_touched_by_two_merges_credits_its_bytes_once():
    # the inner table merges B with C under each A, the outer one
    # merges those witnesses with B again: every B row is read by both
    pg = PathGuide.build_from_xml(b"<R><A><B/><B/><C/></A><A><B/><C/></A></R>")
    b, c = (pg.read_extent(children(pg, 1)[t]) for t in "BC")
    rs, met = evaluate(pg, "//R[./A[./B]/C]//B")
    assert len(rs.plan.tables) == 2
    assert met.nodes_read == 2 * len(b) + len(c)
    assert met.bytes_scanned == int(b.byte_lens.sum() + c.byte_lens.sum())


def test_full_scan_credits_exactly_the_extent(small_corpus):
    for _, pg, _ in small_corpus[:4]:
        for node in pg.nodes[1:]:
            ext = pg.read_extent(node.gid)
            _, met = evaluate(pg, "/" + "/".join(pg.path_tags(node.gid)))
            assert met.nodes_read == len(ext)
            assert met.bytes_scanned == int(ext.byte_lens.sum())


def test_jump_and_multiway_credit_only_their_extents():
    # after a jump or a merge, a full credit of the extents it read must
    # add just the rows it left: a row credited elsewhere would show
    pg = PathGuide.build_from_xml(b"<R>" + b"<A><B/><C/><B/></A>" * 12 + b"</R>")
    b = pg.read_extent(children(pg, 1)["B"])
    assert b.first > 0
    met = Metrics()
    jump(Cursor(as_node_list(b)), 1, (7,), metrics=met)
    assert 0 < met.bytes_scanned < int(b.byte_lens.sum())
    met.credit(np.arange(b.first, b.first + len(b)), b.byte_lens)
    assert met.bytes_scanned == int(b.byte_lens.sum())
    # only the last A has a C, so the merge jumps past the other A's B rows
    pg = PathGuide.build_from_xml(b"<R>" + b"<A><B/></A>" * 12 + b"<A><B/><C/></A></R>")
    b, c = (pg.read_extent(children(pg, 1)[t]) for t in "BC")
    rs, met = evaluate(pg, "//A[./B]/C")
    assert len(rs) == 1
    assert set(rs.plan.tables[0].ends[:, 2].tolist()) == {b.gid, c.gid}
    planned = int(b.byte_lens.sum() + c.byte_lens.sum())
    assert met.jumps > 0
    assert 0 < met.bytes_scanned < planned
    for ext in (b, c):
        met.credit(np.arange(ext.first, ext.first + len(ext)), ext.byte_lens)
    assert met.bytes_scanned == planned


# ----------------------------------------------------- full-pipeline checks


def as_leaf_sets(matches):
    return {mt.leaf_labels for mt in matches}


def test_evaluate_matches_naive_corpus(small_corpus):
    rng = random.Random(101)
    compared = 0
    nonempty = 0
    for xml, pg, doc in small_corpus:
        for _ in range(18):
            q = mixed_query(rng, pg)
            want = naive_match(doc, parse(q))
            rs, met = evaluate(pg, q)
            assert [mt.leaf_labels for mt in rs.matches] == [
                mt.leaf_labels for mt in want
            ], q
            compared += 1
            nonempty += bool(rs.matches)
    assert compared == 18 * len(small_corpus)
    assert nonempty >= 40


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
@pytest.mark.parametrize("use_jump", [True, False])
def test_evaluate_options_agree(small_corpus, backend_name, use_jump):
    rng = random.Random(55)
    xml, pg, doc = small_corpus[5]
    for _ in range(25):
        q = mixed_query(rng, pg)
        want = naive_match(doc, parse(q))
        rs, _ = evaluate(pg, q, use_jump=use_jump, backend=backend_name)
        assert [mt.leaf_labels for mt in rs.matches] == [
            mt.leaf_labels for mt in want
        ], q


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_queries_of_the_most_steps_evaluate(shape):
    # in a chain of as many A's, the query reaches the deepest label
    n = MAX_PATH_STEPS
    events = list(ingest(b"<A>" * n + b"</A>" * n, depth_cap=n))
    pg, doc = PathGuide.build(events), MaterializedDoc.from_events(events)
    q = deep_query(shape, n)
    rs, _ = evaluate(pg, q)
    assert rs.lines() == [".".join(["1"] * (n - 1))]
    for want in (naive_match(doc, parse(q)), leaf_scan_match(pg, parse(q))[0]):
        assert [mt.leaf_labels for mt in want] == [mt.leaf_labels for mt in rs.matches]


def test_results_are_sorted_and_distinct(small_corpus):
    rng = random.Random(8)
    for xml, pg, doc in small_corpus[:6]:
        for _ in range(10):
            rs, _ = evaluate(pg, mixed_query(rng, pg))
            keys = [mt.leaf_labels for mt in rs.matches]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


def test_metrics_deterministic(small_corpus):
    xml, pg, doc = small_corpus[7]
    rng = random.Random(3)
    for _ in range(10):
        q = mixed_query(rng, pg)
        _, m1 = evaluate(pg, q)
        _, m2 = evaluate(pg, q)
        assert (m1.nodes_read, m1.bytes_scanned) == (m2.nodes_read, m2.bytes_scanned)
        assert (m1.prefix_comparisons, m1.jumps) == (m2.prefix_comparisons, m2.jumps)
        assert m1.micros > 0


def test_bytes_scanned_bounded_by_index(small_corpus):
    rng = random.Random(14)
    for xml, pg, doc in small_corpus[:6]:
        cap = int(pg.byte_lens.sum())
        for _ in range(10):
            _, met = evaluate(pg, mixed_query(rng, pg))
            assert met.bytes_scanned <= cap


def test_zero_jp_reads_extents_directly(small_corpus):
    xml, pg, doc = small_corpus[4]
    with spy_reads(pg) as reads:
        rs, met = evaluate(pg, "//B")
    want = naive_match(doc, parse("//B"))
    assert [mt.leaf_labels for mt in rs.matches] == [mt.leaf_labels for mt in want]
    assert met.prefix_comparisons == 0
    assert met.jumps == 0
    assert rs.top_jp_labels == []
    matched = set(pg.eval_single_branch(split(parse("//B")).branches[0]))
    assert set(reads) == matched
    assert met.nodes_read == np.diff(pg.start)[sorted(matched)].sum()


def test_empty_plan_reads_nothing(small_corpus):
    xml, pg, doc = small_corpus[2]
    # Z never occurs in generated documents
    with spy_reads(pg) as reads:
        rs, met = evaluate(pg, "//Z[./A]/B")
    assert rs.matches == []
    assert (met.nodes_read, met.bytes_scanned) == (0, 0)
    assert reads == []


def test_jp_query_reads_only_planned_extents(small_corpus):
    rng = random.Random(71)
    for xml, pg, doc in small_corpus[:8]:
        for _ in range(8):
            q = mixed_query(rng, pg)
            d = split(parse(q))
            if not d.jps:
                continue
            schema = build_dt_schema(pg, d)
            if schema.is_empty:
                continue
            allowed = {
                e
                for table in schema.tables
                for ends, _, _ in record_view(table, pg)
                for si, group in enumerate(table.jp.groups)
                if group.child is None
                for e in ends[si]
            }
            with spy_reads(pg) as reads:
                evaluate(pg, q)
            assert set(reads) <= allowed, q


def test_witnesses_and_jp_labels(small_corpus):
    rng = random.Random(19)
    seen_any = False
    cases = [
        (pg, mixed_query(rng, pg))
        for xml, pg, doc in small_corpus[4:9]
        for _ in range(20)
    ]
    for pg, q in cases:
        d = split(parse(q))
        if not d.jps:
            continue
        rs, _ = evaluate(pg, q)
        if not rs.matches:
            continue
        seen_any = True
        n_tables = len(d.jps)
        assert rs.top_jp_labels == sorted(set(rs.top_jp_labels))
        top = set()
        for mt in rs.matches:
            assert len(mt.jp_labels) == n_tables
            top.add(mt.jp_labels[-1])
            # the top JP dominates every leaf, so its witness label is
            # a shared prefix of the whole tuple
            w = mt.jp_labels[-1]
            for leaf in mt.leaf_labels:
                assert leaf.components[: w.level] == w.components
        assert top <= set(rs.top_jp_labels)
    assert seen_any


def test_result_set_lines():
    # answers are row ids of a built guide's store: the root's empty label
    # prints as an epsilon, components run to two digits, and one label
    # recurs in several answers and in both leaf columns
    pg = PathGuide.build_from_xml(b"<R>" + b"<A/>" * 11 + b"<A>" + b"<B/>" * 12
                                  + b"<B><C/></B></A></R>")
    row = {str(DeweyLabel(r.tolist())): ext.first + k
           for ext in pg.extents for k, r in enumerate(ext.rows)}
    leaves = np.array([[row[a], row[b]] for a, b in
                       [("ε", "12.13.1"), ("3", "12"), ("12", "12"), ("12", "12.10")]])
    jps = np.full((4, 1), row["ε"])
    rs = ResultSet(pg, leaves, jps, np.array([row["ε"], row["12"]]))
    assert rs.lines() == ["ε\t12.13.1", "3\t12", "12\t12", "12\t12.10"]
    assert rs.matches == [mt(("", "12.13.1"), ("",)), mt(("3", "12"), ("",)),
                          mt(("12", "12"), ("",)), mt(("12", "12.10"), ("",))]
    assert rs.top_jp_labels == labs("", "12")
    none = ResultSet(pg, leaves[:0], jps[:0], np.zeros(0, np.int64))
    assert (len(none), none.lines(), none.matches, none.top_jp_labels) == (0, [], [], [])


def test_answers_are_row_ids_of_the_store(small_corpus):
    # every answer column is int64 row ids, whose store rows (cut to
    # their guide node's depth) are the labels the answer reports
    rng = random.Random(23)
    for xml, pg, doc in small_corpus[:6]:
        def label(i: int) -> DeweyLabel:
            gid = np.searchsorted(pg.start, i, "right") - 1
            return DeweyLabel(pg.extents[gid].rows[i - pg.start[gid]].tolist())

        for q in ["//A", "//*"] + [mixed_query(rng, pg) for _ in range(10)]:
            rs, _ = evaluate(pg, q)
            d = split(parse(q))
            assert rs.leaves.shape == (len(rs), len(d.branches)), q
            assert rs.jps.shape == (len(rs), len(d.jps)), q
            assert rs.tops.ndim == 1, q
            assert {a.dtype for a in (rs.leaves, rs.jps, rs.tops)} == {np.dtype(np.int64)}, q
            assert [mt.leaf_labels for mt in rs.matches] == [
                tuple(map(label, row)) for row in rs.leaves.tolist()], q
            assert [mt.jp_labels for mt in rs.matches] == [
                tuple(map(label, row)) for row in rs.jps.tolist()], q
            assert rs.top_jp_labels == list(map(label, rs.tops.tolist())), q
            assert (np.diff(pg.pos[rs.tops]) > 0).all(), q


def test_lines_agree_with_labels(small_corpus):
    # the printer against str() of the label objects, on deep
    # multi-digit labels and the root's empty label too
    rng = random.Random(8)
    docs = [(xml, pg) for xml, pg, _ in small_corpus[:6]]
    docs.append((b"<R>" + b"<A/>" * 120 + b"<A><B/><B/></A></R>", None))
    queries = ["/R", "//A", "/R[./A]", "//A[./B]/B"]
    for xml, pg in docs:
        pg = pg or PathGuide.build_from_xml(xml)
        for q in queries + [mixed_query(rng, pg) for _ in range(15)]:
            rs, _ = evaluate(pg, q)
            want = ["\t".join(str(lab) for lab in mt.leaf_labels) for mt in rs.matches]
            assert rs.lines() == want, q


def schema_doc(records: int) -> bytes:
    """An XMark-like document: a guide of a dozen nodes, long sibling lists."""
    person = b"<person><name/><email/><address><city/><zip/></address><watch/><watch/></person>"
    item = b"<item><name/><text><bold/><emph/></text></item>"
    return (b"<site><people>" + person * records + b"</people><items>"
            + item * (records // 2) + b"</items></site>")


def digit_boundary_guide() -> PathGuide:
    """Components on every decimal-digit boundary and on the label
    codec's byte-class boundaries, at depths 1 to 3."""
    comps = sorted({1, 127, 128, 16511, 16512, 10**9 + 1}
                   | {10**i + d for i in range(1, 10) for d in (-1, 0)})
    two = [[a, b] for a in comps for b in comps]
    return from_tables(["R", "A", "B", "C"], [-1, 0, 1, 2],
                       [np.zeros((1, 0), np.int64), [[c] for c in comps], two,
                        [ab + [c] for ab in two[::5] for c in comps]])


def test_lines_repeat_the_frozen_formatter():
    # random answer matrices of 1-5 leaf columns, the root's empty label
    # in the first, a middle and the last column, on generated guides
    # and on one whose components sit on every decimal-digit boundary
    # and on the label codec's byte-class boundaries; as many answers as
    # fill a print slice, one fewer and one more
    guides = [PathGuide.build_from_xml(gen_doc(seed, target=150 + 60 * i))
              for i, seed in enumerate(DOC_SEEDS[:6])]
    guides += [PathGuide.build_from_xml(schema_doc(n)) for n in (3, 40, 1200)]
    guides.append(digit_boundary_guide())
    rng = np.random.default_rng(23)
    for pg in guides:
        assert pg.depths[0] == 0 and pg.start[1] == 1  # row 0 is the root
        for k in range(1, 6):
            for n in (0, 1, 2, int(rng.integers(3, 300)),
                      _PRINT_SLICE - 1, _PRINT_SLICE, _PRINT_SLICE + 1):
                leaves = rng.integers(0, pg.start[-1], size=(n, k))
                for col in {0, k // 2, k - 1}:
                    leaves[rng.random(n) < 0.2, col] = 0
                rs = ResultSet(pg, leaves, np.zeros((n, 0), np.int64), np.zeros(0, np.int64))
                assert rs.lines() == frozen_lines(rs), (k, n)


@pytest.mark.parametrize("widest", [9, 10, 99, 100, 999, 1_000, 9_999, 10_000, 10**9 + 1])
def test_lines_at_every_slot_width(widest):
    # a guide whose widest component is `widest`, with it in every print
    # slice, so that each slice prints at the width it sets; slices of
    # one answer to one more than a print slice, and slices of nothing
    # but the root's empty label
    comps = sorted(c for c in {1, 2, 9, 10, 99, 100, 999, 1_000, 9_999, 10_000,
                               widest // 2 + 1, widest} if c <= widest)
    pg = from_tables(["R", "A", "B"], [-1, 0, 1],
                               [np.zeros((1, 0), np.int64), [[c] for c in comps],
                                [[a, b] for a in comps for b in comps]])
    assert pg.comps.max() == widest
    assert sum(t.nbytes for t in _DIGITS) < 100_000  # the digit tables stay small
    rng = np.random.default_rng(widest)
    for k, n in product((1, 2, 3), (1, 2, _PRINT_SLICE - 1, _PRINT_SLICE, _PRINT_SLICE + 1)):
        leaves = rng.integers(0, pg.start[-1], size=(n, k))
        leaves[rng.random(n) < 0.2, 0] = 0
        leaves[::_PRINT_SLICE, k - 1] = pg.start[1] + len(comps) - 1  # the label [widest]
        rs = ResultSet(pg, leaves, np.zeros((n, 0), np.int64), np.zeros(0, np.int64))
        assert rs.lines() == frozen_lines(rs), (k, n)
        rs.leaves = np.zeros((n, k), np.int64)
        assert rs.lines() == frozen_lines(rs) == ["\t".join(["ε"] * k)] * n, (k, n)


def test_random_query_text_prints_or_raises_value_error():
    # seeded query texts, random twigs with up to three characters of the
    # query alphabet inserted, deleted or replaced, through parse, a
    # bounded evaluate and lines(): bad text raises a ValueError, a
    # syntax error points at the first character no query goes on with,
    # and every answer prints as the frozen formatter and the leaf-scan
    # reference print it
    pg = PathGuide.build_from_xml(gen_doc(DOC_SEEDS[1], target=80))
    rng = random.Random(2023)
    answered = 0
    for _ in range(2_000):
        text = random_query(rng, max_leaves=4)
        for _ in range(rng.randint(0, 3)):
            i = rng.randint(0, len(text))
            text = text[:i] + rng.choice(["", rng.choice("/[].* ABCDEFa1$")]) + text[i + rng.randint(0, 1):]
        try:
            rs, _ = evaluate(pg, text, max_results=100_000)
        except QuerySyntaxError as err:
            assert 0 <= err.position <= len(text), text
            # at the first character no valid query goes on with: the text
            # cut just past it fails there too (a blank there is trimmed)
            if text[err.position : err.position + 1].strip():
                with pytest.raises(QuerySyntaxError) as cut:
                    parse(text[: err.position + 1])
                assert cut.value.position == err.position, text
            continue
        except ValueError:
            continue
        ref, _ = leaf_scan_match(pg, parse(text))
        want = ["\t".join(map(str, mt.leaf_labels)) for mt in ref]
        assert rs.lines() == frozen_lines(rs) == want, text
        answered += len(rs) > 0
    assert answered >= 400, answered


def test_lines_allocate_within_their_bound():
    # //*[./A]//B on a frag-like document of 20,000 elements: 27,958
    # answers, so lines() prints them in 14 slices
    pg = PathGuide.build_from_xml(generate(GeneratorConfig(seed=7, target_node_count=20_000)).xml)
    rs, _ = evaluate(pg, "//*[./A]//B")
    (n, k), depth = rs.leaves.shape, int(pg.depths.max())
    answer = sum(map(sys.getsizeof, rs.lines())) + 8 * n  # the strings and their list
    limit = (
        4 * answer  # per byte of the answer: itself and up to three copies of its text
        + 8 * 8 * min(n, _PRINT_SLICE) * k * (depth + 1)  # a slice's temporaries: 8 int64 per label slot
        + 2**20  # slack: the guide's lookups and small arrays
    )
    tracemalloc.start()
    try:
        rs.lines()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, (peak, limit)


def test_memory_stays_bounded_pass_after_pass():
    # a long-lived process: the same frag-like pool through evaluate,
    # lines() and .matches, pass after pass, holds no more memory after
    # pass 30 than after pass 10, give or take the bound
    pg = PathGuide.build_from_xml(generate(GeneratorConfig(seed=7, target_node_count=2_000)).xml)
    pool = ["//A//A", "//A[./B][.//C]/D", "//*[./A][./B]", "//B/C[./D]/E",
            "//A[./B[./C]/D]/E", "//E//F", "//C/*[./A]/B"]
    held = {}
    tracemalloc.start()
    try:
        for p in range(1, 31):
            for q in pool:
                rs, _ = evaluate(pg, q)
                rs.lines()
                rs.matches
            if p in (10, 30):
                gc.collect()
                held[p] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held[30] - held[10] < 16 * 1024, held


def test_row_text_is_each_rows_label_and_a_tab():
    # every store row's text is its label as str() prints it and a tab,
    # in one buffer of exactly that many bytes: per component its digits
    # and one separator ("." or the tab), and the root's "ε" and its tab;
    # the offsets take 8 bytes per row, plus the end
    guides = [PathGuide.build_from_xml(gen_doc(seed, target=300)) for seed in DOC_SEEDS[:3]]
    guides += [PathGuide.build_from_xml(schema_doc(40)), digit_boundary_guide(),
               PathGuide.build_from_xml(b"<R/>")]
    for pg in guides:
        buf, off = row_text(pg)
        rows = pg.start[-1]
        block, depth, _ = pg.label_block(np.arange(rows))
        labels = [DeweyLabel(r[:d]) for r, d in zip(block.tolist(), depth.tolist())]
        assert buf.dtype == np.uint8 and off.dtype == np.int64 and off.nbytes == 8 * (rows + 1)
        assert off[0] == 0 and off[-1] == buf.nbytes
        assert [buf[off[i] : off[i + 1]].tobytes().decode() for i in range(rows)] == [f"{lab}\t" for lab in labels]
        assert buf.nbytes == sum(len(str(c)) + 1 for c in pg.comps.tolist()) + len("ε\t".encode())
        assert row_text(pg)[0] is buf  # built once, kept on the guide


def test_row_text_build_allocates_within_its_bound():
    # the build writes into its final buffer depth by depth: beside what
    # it keeps, a depth's rows, their last components and index arrays
    # (48 bytes a row of the most populous depth), and a step's copy of
    # its rows' parent texts (48 bytes a byte of _TEXT_ROWS texts as
    # long as the longest), never a padded matrix of the whole store
    pg = PathGuide.build_from_xml(generate(GeneratorConfig(seed=7, target_node_count=20_000)).xml)
    widest = int(np.bincount(pg.depths, weights=np.diff(pg.start)).max())
    tracemalloc.start()
    try:
        buf, off = row_text(pg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    longest = int(np.diff(off).max())
    limit = buf.nbytes + off.nbytes + 48 * widest + 48 * _TEXT_ROWS * longest + 2**16
    assert peak < limit, (peak, limit)


def test_printed_guide_is_collected_after_del():
    # the text lives on the guide, so nothing keeps a printed guide alive
    pg = PathGuide.build_from_xml(gen_doc(DOC_SEEDS[0], target=300))
    rs, _ = evaluate(pg, "//A[./B]//C")
    assert rs.lines() and rs.top_lines()
    assert pg.row_text is not None
    ref = weakref.ref(pg)
    del pg, rs
    gc.collect()
    assert ref() is None


def test_only_printing_builds_the_text():
    pg = PathGuide.build_from_xml(gen_doc(DOC_SEEDS[1], target=300))
    for q in ("//A[./B]//C", "//B[./C][./A]", "//A//B", "/*"):
        rs, _ = evaluate(pg, q)
        len(rs), rs.matches, rs.top_jp_labels
    assert pg.row_text is None
    assert rs.lines() == [str(mt.leaf_labels[0]) for mt in rs.matches]
    assert pg.row_text is not None


def test_top_lines_print_the_top_witnesses():
    for seed in DOC_SEEDS[:4]:
        pg = PathGuide.build_from_xml(gen_doc(seed, target=300))
        for q in ("//A[./B]//C", "//*[./A][./B]", "/*[.//A]", "//A//B"):
            rs, _ = evaluate(pg, q)
            assert rs.top_lines() == list(map(str, rs.top_jp_labels)), q


def test_max_results_fails_before_the_fan_out():
    n = 100
    pg = PathGuide.build_from_xml(fan_out_doc(n))
    q = "//B[.//C]//D"
    rs, _ = evaluate(pg, q)
    assert len(rs) == n * n
    needed = rs.leaves.nbytes + rs.jps.nbytes  # the answers alone
    tracemalloc.start()
    try:
        with pytest.raises(ResultLimitError) as err:
            evaluate(pg, q, max_results=n * n - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.rows, err.value.limit) == (n * n, n * n - 1)
    assert peak < needed
    assert peak < 8 * n * n  # less than one int64 per would-be answer
    assert evaluate(pg, q, max_results=n * n)[0].lines() == rs.lines()
    # a zero-JP query is bounded by the extents it would sort
    with pytest.raises(ResultLimitError):
        evaluate(pg, "//C", max_results=n - 1)
    assert len(evaluate(pg, "//C", max_results=n)[0]) == n


def test_evaluate_is_bounded_by_default(monkeypatch):
    # no max_results: the engine's DEFAULT_MAX_RESULTS, read at call
    # time, bounds a zero-JP query and a twig alike
    n = 30
    pg = PathGuide.build_from_xml(fan_out_doc(n))
    monkeypatch.setattr(matcher, "DEFAULT_MAX_RESULTS", n - 1)
    for q, rows in (("//C", n), ("//B[.//C]//D", n * n)):
        with pytest.raises(ResultLimitError) as err:
            evaluate(pg, q)
        assert (err.value.rows, err.value.limit) == (rows, n - 1), q
        assert len(evaluate(pg, q, max_results=rows)[0]) == rows, q
    with pytest.raises(ResultLimitError):  # match_proc on its own too
        match_proc(build_dt_schema(pg, split(parse("//B[.//C]//D"))), pg)
    monkeypatch.setattr(matcher, "DEFAULT_MAX_RESULTS", n * n)
    assert len(evaluate(pg, "//B[.//C]//D")[0]) == n * n


def random_plans(seed: int, docs: int, per_doc: int):
    """(pg, query, schema) for seeded random twigs with a non-empty plan,
    on generated documents whose tags recur at many depths."""
    rng = random.Random(seed)
    for _ in range(docs):
        cfg = GeneratorConfig(max_depth=rng.choice((4, 6, 8)), max_fanout=rng.choice((3, 5, 8)),
                              seed=rng.randrange(1 << 30),
                              target_node_count=rng.choice((60, 120, 250)))
        pg = PathGuide.build_from_xml(generate(cfg).xml)
        for _ in range(per_doc):
            q = mixed_query(rng, pg)
            d = split(parse(q))
            if d.jps and not (schema := build_dt_schema(pg, d)).is_empty:
                yield pg, q, schema


def outcome(proc, schema, pg, max_results=None):
    """Answers, witness rows, top witnesses and the four counters, or the
    rows a ResultLimitError names."""
    m = Metrics()
    try:
        rs = proc(schema, pg, metrics=m, max_results=max_results)
    except ResultLimitError as err:
        return err.rows
    return (rs.leaves.tolist(), rs.jps.tolist(), rs.tops.tolist(),
            m.nodes_read, m.bytes_scanned, m.prefix_comparisons, m.jumps)


def sort_case(schema, pg, ti: int) -> str:
    """How table ti's entries get sorted: a nested child of several levels
    can repeat entries; else several levels merge by witness; else none."""
    levels = [len(np.unique(pg.depths[t.records])) for t in schema.tables]
    if any(levels[g.child] > 1 for g in schema.tables[ti].jp.groups if g.child is not None):
        return "lexsort"
    return "witness" if levels[ti] > 1 else "none"


def test_match_proc_repeats_the_frozen_fan_out():
    cases = Counter()
    for pg, q, schema in random_plans(37, docs=50, per_doc=40):
        cases.update(sort_case(schema, pg, ti) for ti in range(len(schema.tables)))
        got, want = (outcome(proc, schema, pg, 100_000)
                     for proc in (match_proc, frozen_match.match_proc))
        assert got == want, q
    assert min(cases[c] for c in ("none", "witness", "lexsort")) >= 20, cases


def owns_several_entries(rs: ResultSet, schema) -> bool:
    """Whether a nested slot's witness owns two or more of the answers'
    assignments to its child's leaves."""
    jps = [t.jp for t in schema.tables]
    for t in schema.tables:
        for c in (g.child for g in t.jp.groups if g.child is not None):
            cols = sorted(jp_leaves(jps, jps[c]))
            pairs = np.unique(np.column_stack([rs.jps[:, c], rs.leaves[:, cols]]), axis=0)
            if len(np.unique(pairs[:, 0])) < len(pairs):
                return True
    return False


def test_result_bound_counts_entries_as_the_frozen_fan_out_did():
    checked = 0
    for pg, q, schema in random_plans(41, docs=40, per_doc=30):
        full = outcome(match_proc, schema, pg)
        if not owns_several_entries(match_proc(schema, pg), schema):
            continue
        checked += 1
        # climb max_results through every bound the query is refused at
        n = 0
        while isinstance(got := outcome(match_proc, schema, pg, n), int):
            assert got == outcome(frozen_match.match_proc, schema, pg, n), (q, n)
            n = got
        assert got == full, q
        if n:  # n is the largest table's entry count, so n - 1 is refused at n
            assert outcome(match_proc, schema, pg, n - 1) == n, q
            assert outcome(frozen_match.match_proc, schema, pg, n - 1) == n, q
    assert checked >= 20


def test_result_bound_between_two_levels_of_one_table():
    # A at depths 1 and 2: the table merges both levels in one call, and
    # a bound between them names the entries through the level it breaks
    pg = PathGuide.build_from_xml(b"<R><A><B/><C/><A><B/><B/><C/></A></A></R>")
    schema = build_dt_schema(pg, split(parse("//A[./B]/C")))
    assert len(np.unique(pg.depths[schema.tables[0].records])) == 2
    for bound, rows in ((0, 1), (1, 3), (2, 3)):
        assert outcome(match_proc, schema, pg, bound) == rows, bound
        assert outcome(frozen_match.match_proc, schema, pg, bound) == rows, bound
    assert len(outcome(match_proc, schema, pg, 3)[0]) == 3


def recording_backend(calls: list) -> Backend:
    """The default backend, recording each merge call's keys and offsets."""
    base = get_backend()

    def multiway_merge(keys, offsets, *args):
        calls.append((keys.ravel().tolist(), offsets.tolist(), args[:2]))
        return base.multiway_merge(keys, offsets, *args)

    return Backend(base.name, base.jump_scan, multiway_merge)


def test_table_call_is_the_per_level_calls_as_segments():
    # a one-level table makes exactly the per-level loop's call; a table of
    # several levels makes one call whose segment s, the s-th cut of every
    # slot, is that loop's call at its level s, with its keys raised past
    # the segments before it
    segmented = 0
    for pg, q, schema in random_plans(43, docs=30, per_doc=30):
        got, want = [], []
        for proc, calls in ((match_proc, got), (frozen_match.match_proc, want)):
            proc(schema, pg, backend=recording_backend(calls), max_results=100_000)
        levels = [len(np.unique(pg.depths[t.records])) for t in schema.tables]
        assert len(got) == len(schema.tables), q
        for (keys, offsets, rest), table, n_levels in zip(got, schema.tables, levels):
            per_level, want = want[:n_levels], want[n_levels:]
            if n_levels == 1:
                assert (keys, offsets, rest) == per_level[0], q
                continue
            segmented += 1
            k = len(table.jp.groups)
            assert (len(offsets), offsets[0], offsets[-1]) == (k * n_levels + 1, 0, len(keys)), q
            for s, (level_keys, level_offsets, level_rest) in enumerate(per_level):
                lists = [keys[offsets[j * n_levels + s] : offsets[j * n_levels + s + 1]]
                         for j in range(k)]
                assert list(np.cumsum([0] + [len(a) for a in lists])) == level_offsets, q
                assert [x - s * len(pg.pos) for a in lists for x in a] == level_keys, q
                assert rest == level_rest, q
        assert want == [], q
    assert segmented >= 20, segmented


def test_match_proc_empty_schema(small_corpus):
    xml, pg, doc = small_corpus[0]
    schema = build_dt_schema(pg, split(parse("//Z[./B]/C")))
    assert schema.is_empty
    rs = match_proc(schema, pg)
    assert (len(rs), rs.matches, rs.top_jp_labels, rs.lines()) == (0, [], [], [])
    assert rs.plan is schema


def mt(leaves: tuple[str, ...], jps: tuple[str, ...] = ()) -> MatchTuple:
    return MatchTuple(tuple(labs(*leaves)), tuple(labs(*jps)))


def check_against_naive(xml: bytes, q: str) -> ResultSet:
    pg, doc = build_all(xml)
    rs, _ = evaluate(pg, q)
    want = naive_match(doc, parse(q))
    assert [m.leaf_labels for m in rs.matches] == [m.leaf_labels for m in want]
    return rs


def test_nested_slots_fan_out_to_the_cross_product():
    # one R witness; its B slot holds two entries (C 1.1 or 1.2), its
    # E slot two (G 2.2 or 2.3): four tuples, the E slot varying fastest
    rs = check_against_naive(
        b"<R><B><C/><C/><D/></B><E><F/><G/><G/></E></R>",
        "//R[./B[./C][./D]]/E[./F][./G]",
    )
    assert rs.matches == [
        mt((c, "1.3", "2.1", g), ("1", "2", "")) for c in ("1.1", "1.2") for g in ("2.2", "2.3")
    ]
    assert rs.top_jp_labels == [L("")]


def test_multi_entry_slot_before_a_multi_row_slot_fans_out_in_leaf_order():
    # in the one R run, slot 0's B rows own 2 and 1 entries and slot 1
    # holds two E rows; the answers come out sorted with no sort after
    xml = b"<R><B><C/><C/><D/></B><B><C/><D/></B><E/><E/></R>"
    q = "//R[./B[./C][./D]]/E"
    rs = check_against_naive(xml, q)
    want = [(c, d, e) for c, d in (("1.1", "1.3"), ("1.2", "1.3"), ("2.1", "2.2"))
            for e in ("3", "4")]
    assert [m.leaf_labels for m in rs.matches] == [tuple(labs(*t)) for t in want]
    pg = PathGuide.build_from_xml(xml)
    ref, _ = leaf_scan_match(pg, parse(q))
    assert [m.leaf_labels for m in rs.matches] == [m.leaf_labels for m in ref]
    assert rs.lines() == ["\t".join(t) for t in want]


def test_assignment_under_two_witnesses_keeps_the_shallowest():
    rs = check_against_naive(b"<A><A><B/><C/></A></A>", "//A[.//B][.//C]")
    assert rs.matches == [mt(("1.1", "1.2"), ("",))]
    assert rs.top_jp_labels == labs("", "1")


def test_root_label_queries():
    xml = b"<R><A/><A/><B/></R>"
    rs = check_against_naive(xml, "/R")  # a zero-width extent
    assert rs.matches == [mt(("",))]
    assert rs.lines() == [str(L(""))]
    rs = check_against_naive(xml, "/R[./A][./B]")  # a JP at level 0
    assert rs.matches == [mt(("1", "3"), ("",)), mt(("2", "3"), ("",))]
    assert rs.top_jp_labels == labs("")


def counting_backend(calls: list[int]) -> Backend:
    """The default backend, recording each merge call's list count."""
    base = get_backend()

    def multiway_merge(stacked, offsets, *args):
        calls.append(len(offsets) - 1)
        return base.multiway_merge(stacked, offsets, *args)

    def jump_scan(*args):
        calls.append(0)
        return base.jump_scan(*args)

    return Backend(base.name, jump_scan, multiway_merge)


def test_one_kernel_call_per_table(small_corpus):
    # one merge per table, in table order, with a list per slot and level
    rng = random.Random(23)
    multi_level = 0
    for xml, pg, doc in small_corpus:
        for _ in range(15):
            q = mixed_query(rng, pg)
            d = split(parse(q))
            calls: list[int] = []
            rs, _ = evaluate(pg, q, backend=counting_backend(calls))
            if not d.jps:
                assert calls == []
                continue
            schema = build_dt_schema(pg, d)
            if schema.is_empty:
                assert calls == []
                continue
            lists = [len(table.jp.groups) * len({level for _, level, _ in record_view(table, pg)})
                     for table in schema.tables]
            assert calls == lists, q
            multi_level += sum(lists) > sum(len(t.jp.groups) for t in schema.tables)
            want = naive_match(doc, parse(q))
            assert [mt.leaf_labels for mt in rs.matches] == [
                mt.leaf_labels for mt in want
            ], q
    assert multi_level >= 5


def test_many_queries_leave_the_guide_unchanged(small_corpus):
    xml, pg, doc = small_corpus[3]

    def sizes() -> dict[str, int]:
        return {k: len(v) for k, v in vars(pg).items()}

    before = sizes()
    for i in range(1000):
        evaluate(pg, ("//A[./B]//C", "//B", "//*[./A][.//C]")[i % 3])
    assert sizes() == before
