import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

from twigjoin.dewey import DeweyLabel, parse_label
from twigjoin.dt import build_dt_schema, record_view
from twigjoin.kernels import BACKEND_NAMES, Backend, get_backend
from twigjoin.matcher import (
    Cursor,
    MatchTuple,
    NodeList,
    ResultLimitError,
    ResultSet,
    _cross,
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

from conftest import build_all, fan_out_doc, gen_doc, mixed_query, spy_reads

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


def test_multiway_needs_a_list():
    with pytest.raises(ValueError, match="at least one list"):
        match_multiway([], 1)


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
    b, c = (pg.read_extent(pg.nodes[1].children[t]) for t in "BC")
    rs, met = evaluate(pg, "//R[./A[./B]/C]//B")
    assert len(rs.plan.tables) == 2
    assert met.nodes_read == 2 * len(b) + len(c)
    assert met.bytes_scanned == int(b.byte_lens.sum() + c.byte_lens.sum())


def test_full_scan_credits_exactly_the_extent(small_corpus):
    for _, pg, _ in small_corpus[:4]:
        for node in pg.nodes[1:]:
            ext = pg.read_extent(node.gid)
            _, met = evaluate(pg, "/" + "/".join(node.path))
            assert met.nodes_read == len(ext)
            assert met.bytes_scanned == int(ext.byte_lens.sum())


def test_jump_and_multiway_credit_only_their_extents():
    # after the merge, a full credit of the same extents must add just
    # the rows the merge left: a row credited elsewhere would show
    pg = PathGuide.build_from_xml(b"<R>" + b"<A><B/><C/><B/></A>" * 12 + b"</R>")
    b, c = (pg.read_extent(pg.nodes[1].children[t]) for t in "BC")
    assert min(b.first, c.first) > 0
    met = Metrics()
    jump(Cursor(as_node_list(b)), 1, (7,), metrics=met)
    assert 0 < met.bytes_scanned < int(b.byte_lens.sum())
    met.credit(np.arange(b.first, b.first + len(b)), b.byte_lens)
    assert met.bytes_scanned == int(b.byte_lens.sum())
    met = Metrics()
    match_multiway([c, b], 1, metrics=met)
    assert 0 < met.bytes_scanned
    for ext in (b, c):
        met.credit(np.arange(ext.first, ext.first + len(ext)), ext.byte_lens)
    assert met.bytes_scanned == int(b.byte_lens.sum() + c.byte_lens.sum())


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
                for si, slot in enumerate(table.slots)
                if slot.kind == "leaf"
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
    # the matrix formatter against str() of the label objects, on deep
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
                (ti, level)
                for ti, table in enumerate(schema.tables)
                for _, level, _ in record_view(table, pg)
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
