import random
from itertools import product

import numpy as np
import pytest

from twigjoin.dewey import DeweyLabel, parse_label
from twigjoin.dt import build_dt_schema
from twigjoin.kernels import BACKEND_NAMES, Backend, get_backend
from twigjoin.matcher import (
    Cursor,
    MatchTuple,
    NodeList,
    ResultSet,
    as_node_list,
    evaluate,
    jump,
    match_multiway,
    match_proc,
)
from twigjoin.metrics import Metrics
from twigjoin.oracle import naive_match
from twigjoin.path_guide import PathGuide
from twigjoin.twig import parse, split

from conftest import build_all, gen_doc, mixed_query, spy_reads

L = parse_label


def labs(*texts: str) -> list[DeweyLabel]:
    return [L(t) for t in texts]


# ------------------------------------------------------------ merge fixture


FIX_A = labs("1.1.1", "1.2.2.1", "1.3.2")
FIX_B = labs("1.1.2", "1.2.9", "1.3.3.1")


def test_pair_merge_fixture_level2():
    got = match_multiway([FIX_A, FIX_B], 2)
    assert got == [
        (L("1.1.1"), L("1.1.2")),
        (L("1.2.2.1"), L("1.2.9")),
        (L("1.3.2"), L("1.3.3.1")),
    ]


@pytest.mark.parametrize("level,count", [(0, 9), (1, 9), (2, 3), (3, 0)])
def test_pair_merge_fixture_other_levels(level, count):
    assert len(match_multiway([FIX_A, FIX_B], level)) == count


def test_jump_fixture():
    cur = Cursor(as_node_list(labs("1.2.2.1", "1.3.3.1", "1.4")))
    nxt = jump(cur, 2, L("1.2"))
    assert nxt.position == 1
    assert cur.list.label_at(nxt.position) == L("1.3.3.1")


# ------------------------------------------------------------------- inputs


def test_as_node_list_validates_order():
    with pytest.raises(ValueError, match="sorted"):
        as_node_list(labs("1.2", "1.1"))
    with pytest.raises(ValueError, match="sorted"):
        as_node_list(labs("1.1", "1.1"))


def test_as_node_list_pads_ragged():
    nl = as_node_list(labs("1", "1.1", "2"))
    assert nl.rows.tolist() == [[1, 0], [1, 1], [2, 0]]
    assert [nl.label_at(i) for i in range(3)] == labs("1", "1.1", "2")


def test_node_list_from_extent_keeps_rows():
    pg = PathGuide.build_from_xml(b"<A><B/><B/></A>")
    ext = pg.read_extent(1)
    nl = as_node_list(ext)
    assert nl.extent is ext
    assert nl.label_at(0) == L("1")
    assert nl.label_at(1) == L("2")


def test_short_labels_do_not_fake_prefixes():
    # ⟨1⟩ has no level-2 prefix; zero padding must not match it
    assert match_multiway([labs("1"), labs("1")], 2) == []
    got = match_multiway([labs("1", "1.1.1"), labs("1.1.2")], 2)
    assert got == [(L("1.1.1"), L("1.1.2"))]


# ---------------------------------------------------------- merge vs oracle


def brute_multiway(lists, level):
    buckets = []
    for labels in lists:
        d = {}
        for lab in labels:
            if lab.level >= level:
                d.setdefault(lab.components[:level], []).append(lab)
        buckets.append(d)
    shared = set(buckets[0])
    for d in buckets[1:]:
        shared &= set(d)
    out = []
    for p in sorted(shared):
        out.extend(product(*(d[p] for d in buckets)))
    return out


def random_label_list(rng: random.Random, n: int) -> list[DeweyLabel]:
    pool = set()
    for _ in range(6 * n):
        if len(pool) == n:
            break
        lvl = rng.randint(0, 4)
        pool.add(tuple(rng.randint(1, 3) for _ in range(lvl)))
    return [DeweyLabel(c) for c in sorted(pool)]


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
@pytest.mark.parametrize("use_jump", [True, False])
def test_multiway_against_brute_force(backend_name, use_jump):
    rng = random.Random(BACKEND_NAMES.index(backend_name) * 2 + int(use_jump))
    for _ in range(150):
        k = rng.randint(1, 4)
        level = rng.randint(0, 3)
        lists = [random_label_list(rng, rng.randint(1, 15)) for _ in range(k)]
        got = match_multiway(lists, level, use_jump=use_jump, backend=backend_name)
        assert got == brute_multiway(lists, level)


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
        cap = pg.total_extent_bytes()
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
    assert met.nodes_read == sum(pg.extent_size(g) for g in matched)


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
                for rec in table.records
                for si, slot in enumerate(table.slots)
                if slot.kind == "leaf"
                for e in rec.ends[si]
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
    rs = ResultSet(
        [MatchTuple((L("1.2"), L("1.3.1")), ()), MatchTuple((L("2"),), ())],
        [],
    )
    assert rs.lines() == ["1.2\t1.3.1", "2"]


def test_match_proc_empty_schema(small_corpus):
    xml, pg, doc = small_corpus[0]
    schema = build_dt_schema(pg, split(parse("//Z[./B]/C")))
    assert schema.is_empty
    assert match_proc(schema, pg) == ([], [])


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
    base = get_backend()

    def multiway_merge(*args):
        calls.append(1)
        return base.multiway_merge(*args)

    def jump_scan(*args):
        calls.append(1)
        return base.jump_scan(*args)

    return Backend(base.name, jump_scan, multiway_merge)


def test_one_kernel_call_per_table_level(small_corpus):
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
            pairs = {
                (ti, rec.jp_level)
                for ti, table in enumerate(schema.tables)
                for rec in table.records
            }
            assert len(calls) == len(pairs), q
            multi_level += len(pairs) > len(schema.tables)
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
