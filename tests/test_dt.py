import random
from itertools import product

import pytest

from twigjoin.dt import DTRecord, build_dt, build_dt_schema, explain
from twigjoin.path_guide import PathGuide
from twigjoin.twig import jp_order, parse, split

from conftest import DOC_SEEDS, gen_doc, mixed_query, spy_reads, steps_to_regex


def schema_for(pg: PathGuide, q: str):
    return build_dt_schema(pg, split(parse(q)))


def recs(table) -> set[tuple]:
    """Every (one end per slot, level, JP guide node) a table allows."""
    return {
        (combo, r.jp_level, r.jp_guide)
        for r in table.records
        for combo in product(*r.ends)
    }


# ----------------------------------------------------------- pinned examples


def test_single_jp_one_record():
    pg = PathGuide.build_from_xml(b"<A><B/><C><D/></C></A>")
    # gids: A=0, A/B=1, A/C=2, A/C/D=3
    schema = schema_for(pg, "//A[.//B]//C//D")
    assert len(schema.tables) == 1
    table = schema.tables[0]
    assert tuple(s.kind for s in table.slots) == ("leaf", "leaf")
    assert recs(table) == {((1, 3), 0, 0)}
    assert not schema.is_empty


def test_two_ends_in_one_slot_share_one_record():
    pg = PathGuide.build_from_xml(b"<A><B/><X><B/></X><C/></A>")
    # gids: A=0, A/B=1, A/X=2, A/X/B=3, A/C=4
    schema = schema_for(pg, "//A[.//B]/C")
    assert schema.tables[0].records == [DTRecord(((1, 3), (4,)), 0, 0)]
    assert "(A/B | A/X/B, A/C) level=0 jp=A" in explain(schema, pg)


def test_missing_branch_empties_table():
    pg = PathGuide.build_from_xml(b"<A><B/><C/></A>")
    schema = schema_for(pg, "//A[.//B]//C//D")
    assert schema.tables[0].records == []
    assert schema.is_empty


def test_one_tuple_joins_at_two_depths():
    # nested occurrence of the JP tag: the same end pair is dominated by
    # matching guide nodes at depth 0 and depth 2, one record each
    pg = PathGuide.build_from_xml(b"<A><B/><X><A><B/><C><D/></C></A></X></A>")
    # gids: A=0, A/B=1, A/X=2, A/X/A=3, A/X/A/B=4, A/X/A/C=5, A/X/A/C/D=6
    schema = schema_for(pg, "//A[.//B]//C//D")
    assert recs(schema.tables[0]) == {
        ((1, 6), 0, 0),
        ((4, 6), 0, 0),
        ((4, 6), 2, 3),
    }


def test_one_end_fits_two_jp_depths():
    # //A//A: the end A/X/A/A fits under the JP guide nodes A and A/X/A
    pg = PathGuide.build_from_xml(b"<A><B/><X><A><B/><A/></A></X></A>")
    # gids: A=0, A/B=1, A/X=2, A/X/A=3, A/X/A/B=4, A/X/A/A=5
    d = split(parse("//A[.//A]//B"))
    schema = build_dt_schema(pg, d)
    assert schema.tables[0].records == [
        DTRecord(((3, 5), (1, 4)), 0, 0),
        DTRecord(((5,), (4,)), 2, 3),
    ]
    assert [recs(t) for t in schema.tables] == oracle_schema_records(pg, d)


@pytest.mark.parametrize(
    "q", ["//*[./B][.//C]", "/*[./B]//C", "//*[./*][.//*]", "/*/*[./C][./D]",
          "//*[.//*[./C][./D]]//B", "/*[./*/C]//*/D"],
)
def test_wildcard_trunks_match_oracle(q):
    pg = PathGuide.build_from_xml(
        b"<A><B><C/><D/></B><C><B/></C><X><B><C/><D/></B><D/></X></A>"
    )
    d = split(parse(q))
    schema = build_dt_schema(pg, d)
    assert [recs(t) for t in schema.tables] == oracle_schema_records(pg, d)
    assert not schema.is_empty


def test_tail_alignment_blocks_false_join():
    # g=A/A matches //A/* and is an ancestor of both ends, but the B end
    # hangs two levels below it while the slot's tail is the child step
    # ./B; a record here would claim a match the document cannot have
    pg = PathGuide.build_from_xml(b"<A><A><A><B/></A><C/></A></A>")
    schema = schema_for(pg, "//A/*[./B][./C]")
    assert schema.tables[0].records == []


def test_three_branch_two_table_plan():
    pg = PathGuide.build_from_xml(
        b"<A><B><C/><D/></B><E/><X><B><C/><D/></B></X></A>"
    )
    schema = schema_for(pg, "//A[.//B/C][.//B/D]//E")
    assert len(schema.tables) == 2
    deep, top = schema.tables
    assert deep.jp.node.test == "B"
    assert top.jp.node.test == "A"
    assert tuple(s.kind for s in deep.slots) == ("leaf", "leaf")
    assert tuple(s.kind for s in top.slots) == ("nested", "leaf")
    assert [slot.child_table for slot in top.slots] == [0, None]
    # nested slot candidates are the deep table's distinct jp_guide gids
    nested_ends = {e for r in top.records for e in r.ends[0]}
    assert nested_ends <= {r.jp_guide for r in deep.records}


def test_zero_jp_is_rejected():
    pg = PathGuide.build_from_xml(b"<A><B/></A>")
    with pytest.raises(ValueError, match="no DT"):
        schema_for(pg, "//A/B")


def test_build_dt_arity_check():
    pg = PathGuide.build_from_xml(b"<A><B/><C/></A>")
    (jp,) = split(parse("//A[./B]/C")).jps
    with pytest.raises(ValueError, match="candidate list"):
        build_dt(pg, [[1]], jp)


def test_build_reads_no_extents():
    pg = PathGuide.build_from_xml(b"<A><B><C/><D/></B><E/></A>")
    with spy_reads(pg) as reads:
        schema_for(pg, "//A[.//B/C][.//B/D]//E")
        schema_for(pg, "//A[./B]//E")
    assert reads == []


# ------------------------------------------------------- brute-force oracle


def _ancestors(pg: PathGuide, gid: int) -> set[int]:
    out = set()
    g = gid
    while g != -1:
        out.add(g)
        g = pg.nodes[g].parent
    return out


def _path_str(pg: PathGuide, gid: int) -> str:
    return "".join(pg.nodes[gid].path)


def oracle_schema_records(pg: PathGuide, d) -> list[set[tuple]]:
    """Record sets per table, emitted straight from the three conditions
    with regex path matching; quadratic and proud of it."""
    out: list[set[tuple]] = []
    built: dict[int, set[int]] = {}  # twig-node id -> distinct jp_guide gids
    for jp in jp_order(d):
        trunk = steps_to_regex(jp.trunk_steps)
        slot_cands: list[list[int]] = []
        for group in jp.groups:
            if group.kind == "leaf":
                pat = steps_to_regex(d.branches[group.leaf_id].steps)
                slot_cands.append(
                    [g for g in range(len(pg.nodes)) if pat.match(_path_str(pg, g))]
                )
            else:
                slot_cands.append(sorted(built[id(group.jp_node)]))
        records: set[tuple] = set()
        for g in range(len(pg.nodes)):
            if not trunk.match(_path_str(pg, g)):
                continue
            depth = pg.nodes[g].depth
            filtered = []
            for group, cands in zip(jp.groups, slot_cands):
                tail = steps_to_regex(group.steps)
                keep = [
                    e
                    for e in cands
                    if g in _ancestors(pg, e)
                    and tail.match("".join(pg.nodes[e].path[depth + 1 :]))
                ]
                filtered.append(keep)
            for combo in product(*filtered):
                records.add((tuple(combo), depth, g))
        built[id(jp.node)] = {g for (_, _, g) in records}
        out.append(records)
    return out


def test_schema_matches_brute_force_oracle():
    rng = random.Random(99)
    checked = 0
    nonempty = 0
    for i, seed in enumerate(DOC_SEEDS[:8]):
        pg = PathGuide.build_from_xml(gen_doc(seed, target=70 + 30 * i))
        for _ in range(60):
            d = split(parse(mixed_query(rng, pg)))
            if not d.jps:
                continue
            schema = build_dt_schema(pg, d)
            want = oracle_schema_records(pg, d)
            assert len(schema.tables) == len(want)
            for table, expect in zip(schema.tables, want):
                assert len(table.records) == len({r.jp_guide for r in table.records})
                assert recs(table) == expect
            checked += 1
            if not schema.is_empty:
                nonempty += 1
    assert checked >= 150
    assert nonempty >= 30


def test_schema_structural_invariants():
    rng = random.Random(7)
    for seed in DOC_SEEDS[:4]:
        pg = PathGuide.build_from_xml(gen_doc(seed, target=100))
        for _ in range(50):
            d = split(parse(mixed_query(rng, pg)))
            if not d.jps:
                continue
            schema = build_dt_schema(pg, d)
            order = jp_order(d)
            assert [t.jp for t in schema.tables] == order
            for ti, table in enumerate(schema.tables):
                assert len(table.slots) == len(table.jp.groups)
                assert tuple(s.kind for s in table.slots) == tuple(
                    "leaf" if g.kind == "leaf" else "nested"
                    for g in table.jp.groups
                )
                for r in table.records:
                    assert len(r.ends) == len(table.slots)
                    assert pg.nodes[r.jp_guide].depth == r.jp_level
                    for ends in r.ends:
                        assert ends and list(ends) == sorted(set(ends))
                        for e in ends:
                            assert pg.anc[e, pg.depths[r.jp_guide]] == r.jp_guide
                for slot in table.slots:
                    if slot.kind == "nested":
                        assert slot.child_table < ti  # consumed table built earlier


# ------------------------------------------------------------------ explain


def test_explain_lists_plan():
    pg = PathGuide.build_from_xml(b"<A><B><C/><D/></B><E/></A>")
    schema = schema_for(pg, "//A[.//B/C][.//B/D]//E")
    text = explain(schema, pg)
    assert "DT 1 @ B" in text
    assert "DT 2 @ A" in text
    assert "nested -> DT 1" in text
    assert "leaf -> branch 2" in text
    assert "records: 1" in text
    assert "level=" in text


def test_explain_truncates():
    # one record per A guide node: A, A/C/A and A/D/A
    pg = PathGuide.build_from_xml(
        b"<A><B/><E/><C><A><B/><E/></A></C><D><A><B/><E/></A></D></A>"
    )
    schema = schema_for(pg, "//A[.//B]//E")
    total = len(schema.tables[0].records)
    assert total > 1
    text = explain(schema, pg, max_records=1)
    assert f"... {total - 1} more" in text
