import random
from itertools import product

import numpy as np
import pytest

from twigjoin.document import GeneratorConfig, generate
from twigjoin.dt import build_dt_schema, explain, record_view
from twigjoin.matcher import match_proc
from twigjoin.metrics import Metrics
from twigjoin.path_guide import PathGuide
from twigjoin.twig import parse, split

from conftest import DOC_SEEDS, gen_doc, mixed_query, spy_reads, steps_to_regex
from frozen_plan import FrozenPlanner


def schema_for(pg: PathGuide, q: str):
    return build_dt_schema(pg, split(parse(q)))


def recs(pg: PathGuide, table) -> set[tuple]:
    """Every (one end per slot, level, JP guide node) a table allows."""
    return {
        (combo, level, jp_guide)
        for ends, level, jp_guide in record_view(table, pg)
        for combo in product(*ends)
    }


# ----------------------------------------------------------- pinned examples


def test_single_jp_one_record():
    pg = PathGuide.build_from_xml(b"<A><B/><C><D/></C></A>")
    # gids: A=0, A/B=1, A/C=2, A/C/D=3
    schema = schema_for(pg, "//A[.//B]//C//D")
    assert len(schema.tables) == 1
    table = schema.tables[0]
    assert [g.child for g in table.jp.groups] == [None, None]
    assert recs(pg, table) == {((1, 3), 0, 0)}
    assert not schema.is_empty


def test_two_ends_in_one_slot_share_one_record():
    pg = PathGuide.build_from_xml(b"<A><B/><X><B/></X><C/></A>")
    # gids: A=0, A/B=1, A/X=2, A/X/B=3, A/C=4
    schema = schema_for(pg, "//A[.//B]/C")
    assert record_view(schema.tables[0], pg) == [(((1, 3), (4,)), 0, 0)]
    assert "(A/B | A/X/B, A/C) level=0 jp=A" in explain(schema, pg)


def test_missing_branch_empties_table():
    pg = PathGuide.build_from_xml(b"<A><B/><C/></A>")
    schema = schema_for(pg, "//A[.//B]//C//D")
    assert record_view(schema.tables[0], pg) == []
    assert schema.is_empty


def test_one_tuple_joins_at_two_depths():
    # nested occurrence of the JP tag: the same end pair is dominated by
    # matching guide nodes at depth 0 and depth 2, one record each
    pg = PathGuide.build_from_xml(b"<A><B/><X><A><B/><C><D/></C></A></X></A>")
    # gids: A=0, A/B=1, A/X=2, A/X/A=3, A/X/A/B=4, A/X/A/C=5, A/X/A/C/D=6
    schema = schema_for(pg, "//A[.//B]//C//D")
    assert recs(pg, schema.tables[0]) == {
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
    assert record_view(schema.tables[0], pg) == [
        (((3, 5), (1, 4)), 0, 0),
        (((5,), (4,)), 2, 3),
    ]
    assert [recs(pg, t) for t in schema.tables] == oracle_schema_records(pg, d)


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
    assert [recs(pg, t) for t in schema.tables] == oracle_schema_records(pg, d)
    assert not schema.is_empty


def test_tail_alignment_blocks_false_join():
    # g=A/A matches //A/* and is an ancestor of both ends, but the B end
    # hangs two levels below it while the slot's tail is the child step
    # ./B; a record here would claim a match the document cannot have
    pg = PathGuide.build_from_xml(b"<A><A><A><B/></A><C/></A></A>")
    schema = schema_for(pg, "//A/*[./B][./C]")
    assert record_view(schema.tables[0], pg) == []


def test_three_branch_two_table_plan():
    pg = PathGuide.build_from_xml(
        b"<A><B><C/><D/></B><E/><X><B><C/><D/></B></X></A>"
    )
    schema = schema_for(pg, "//A[.//B/C][.//B/D]//E")
    assert len(schema.tables) == 2
    deep, top = schema.tables
    assert deep.jp.node.test == "B"
    assert top.jp.node.test == "A"
    assert [g.child for g in deep.jp.groups] == [None, None]
    assert [g.child for g in top.jp.groups] == [0, None]
    assert [g.leaf_id for g in top.jp.groups] == [None, 2]
    # the nested slot's ends are exactly the deep table's JP guide nodes
    nested_ends = {e for ends, _, _ in record_view(top, pg) for e in ends[0]}
    assert nested_ends == {jp_guide for _, _, jp_guide in record_view(deep, pg)}


def test_zero_jp_is_rejected():
    pg = PathGuide.build_from_xml(b"<A><B/></A>")
    with pytest.raises(ValueError, match="no DT"):
        schema_for(pg, "//A/B")


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
        g = int(pg.parents[g])
    return out


def _path_str(pg: PathGuide, gid: int) -> str:
    return "".join(pg.path_tags(gid))


def oracle_schema_records(pg: PathGuide, d) -> list[set[tuple]]:
    """Record sets per table, emitted straight from the three conditions
    with regex path matching, then reduced top-down: a child table keeps
    the records its parent's kept records name.  Quadratic and proud of
    it."""
    out: list[set[tuple]] = []
    built: list[set[int]] = []  # per JP of d.jps -> distinct jp_guide gids
    for jp in d.jps:
        trunk = steps_to_regex(jp.trunk_steps)
        slot_cands: list[list[int]] = []
        for group in jp.groups:
            if group.child is None:
                pat = steps_to_regex(d.branches[group.leaf_id].steps)
                slot_cands.append(
                    [g for g in range(len(pg)) if pat.match(_path_str(pg, g))]
                )
            else:
                slot_cands.append(sorted(built[group.child]))
        records: set[tuple] = set()
        for g in range(len(pg)):
            if not trunk.match(_path_str(pg, g)):
                continue
            depth = int(pg.depths[g])
            filtered = []
            for group, cands in zip(jp.groups, slot_cands):
                tail = steps_to_regex(group.steps)
                keep = [
                    e
                    for e in cands
                    if g in _ancestors(pg, e)
                    and tail.match("".join(pg.path_tags(e)[depth + 1 :]))
                ]
                filtered.append(keep)
            for combo in product(*filtered):
                records.add((tuple(combo), depth, g))
        built.append({g for (_, _, g) in records})
        out.append(records)
    for jp, records in reversed(list(zip(d.jps, out))):  # parents sit after their children
        for i, group in enumerate(jp.groups):
            if group.child is not None:
                named = {combo[i] for combo, _, _ in records}
                out[group.child] = {r for r in out[group.child] if r[2] in named}
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
                view = record_view(table, pg)
                assert len(view) == len({jp_guide for _, _, jp_guide in view})
                assert recs(pg, table) == expect
            checked += 1
            if not schema.is_empty:
                nonempty += 1
    assert checked >= 150
    assert nonempty >= 30


# wildcards, tags the documents lack, and slots of two descendant steps
FROZEN_PLAN_QUERIES = (
    "//C[.//B//*][./A]//B", "//*[.//*//*]//*", "//A[.//B//C][.//D//E]/F", "//*[./*][./*]",
    "//A[./Z]//B", "//Z[./A]/B", "/A[.//*//B]//C", "//B[.//A//A//A][.//C]//*",
    "//A//B[./C[.//D//E]/F]//*", "/*/*[./*]//*",
)


def test_plan_agrees_with_the_frozen_planner():
    # the plan is the frozen planner's minus exactly the records, with
    # their ends rows, that no kept record of the parent table names
    rng = random.Random(17)
    checked = nonempty = reduced = 0
    for i, seed in enumerate(DOC_SEEDS):
        pg = PathGuide.build_from_xml(gen_doc(seed, target=100 + 40 * i))
        frozen = FrozenPlanner(pg)
        queries = list(FROZEN_PLAN_QUERIES) + [mixed_query(rng, pg) for _ in range(120)]
        for q in queries:
            d = split(parse(q))
            if not d.jps:
                continue
            built, want = build_dt_schema(pg, d), frozen.build_dt_schema(d)
            assert len(built.tables) == len(want.tables)
            named = {}  # per child table, the ends its parent's kept records name
            for ti in reversed(range(len(want.tables))):  # parents first
                a, b = built.tables[ti], want.tables[ti]
                keep = [g for g in b.records.tolist() if ti not in named or g in named[ti]]
                assert a.records.tolist() == keep, q
                assert a.ends.tolist() == [row for row in b.ends.tolist() if row[0] in keep], q
                for si, group in enumerate(a.jp.groups):
                    if group.child is not None:
                        named[group.child] = {e for _, slot, e in a.ends.tolist() if slot == si}
                reduced += len(keep) < len(b.records) and not want.is_empty
            checked += 1
            nonempty += not want.is_empty
    assert checked >= 600 and nonempty >= 150 and reduced >= 10, (checked, nonempty, reduced)


def outcome(schema, pg, use_jump):
    """lines(), witness rows and top witnesses, then the four counters."""
    m = Metrics()
    rs = match_proc(schema, pg, metrics=m, use_jump=use_jump)
    return ((rs.lines(), rs.jps.tolist(), rs.tops.tolist()),
            (m.nodes_read, m.bytes_scanned, m.prefix_comparisons, m.jumps))


def test_reduced_plan_answers_as_the_frozen_one_with_no_more_work():
    # a record no parent record names joins no answer: dropping it changes
    # no answer or witness, and only takes reads and comparisons away
    rng = random.Random(29)
    fewer = 0
    for i, seed in enumerate(DOC_SEEDS):
        pg = PathGuide.build_from_xml(gen_doc(seed, target=100 + 20 * i))
        frozen = FrozenPlanner(pg)
        for q in [mixed_query(rng, pg) for _ in range(60)]:
            d = split(parse(q))
            if not d.jps:
                continue
            for use_jump in (True, False):
                want, before = outcome(frozen.build_dt_schema(d), pg, use_jump)
                got, after = outcome(build_dt_schema(pg, d), pg, use_jump)
                assert got == want, q
                assert all(a <= b for a, b in zip(after, before)), (q, use_jump, after, before)
                fewer += after[0] < before[0]
    assert fewer >= 8, fewer


def test_a_child_keeps_only_the_records_its_parent_names():
    pg = PathGuide.build_from_xml(generate(GeneratorConfig(seed=3, target_node_count=2000)).xml)
    d = split(parse("//*[./A[./B][./C]]/D"))
    frozen, built = FrozenPlanner(pg).build_dt_schema(d), build_dt_schema(pg, d)
    assert [len(t.records) for t in frozen.tables] == [20, 13]
    assert [len(t.records) for t in built.tables] == [13, 13]
    (want, before), (got, after) = outcome(frozen, pg, True), outcome(built, pg, True)
    assert got == want and len(got[0]) == 59
    assert (before[0], after[0]) == (137, 99)


def test_schema_structural_invariants():
    rng = random.Random(7)
    for seed in DOC_SEEDS[:4]:
        pg = PathGuide.build_from_xml(gen_doc(seed, target=100))
        for _ in range(50):
            d = split(parse(mixed_query(rng, pg)))
            if not d.jps:
                continue
            schema = build_dt_schema(pg, d)
            assert [t.jp for t in schema.tables] == list(d.jps)
            for ti, table in enumerate(schema.tables):
                for group in table.jp.groups:
                    # a JP group's child table is built earlier, for that JP
                    assert (group.child is None) != (group.leaf_id is None)
                    if group.child is not None:
                        assert group.child < ti
                        child = schema.tables[group.child].jp
                        assert child.trunk_steps == table.jp.trunk_steps + group.steps
                rows = table.ends
                assert rows.shape[1] == 3
                # ends rows are sorted and distinct
                assert (np.lexsort(rows.T[::-1]) == np.arange(len(rows))).all()
                assert (np.diff(rows, axis=0) != 0).any(axis=1).all()
                # every record has an end in every slot, and no other row
                assert np.array_equal(np.unique(rows[:, 0]), table.records)
                for si in range(len(table.jp.groups)):
                    assert np.array_equal(np.unique(rows[rows[:, 1] == si, 0]), table.records)
                # every end sits below its JP guide node: in its interval, not at it
                g, e = rows[:, 0], rows[:, 2]
                assert ((pg.pre[g] < pg.pre[e]) & (pg.pre[e] < pg.end[g])).all()
                for ends, level, jp_guide in record_view(table, pg):
                    assert len(ends) == len(table.jp.groups)
                    assert pg.depths[jp_guide] == level
                    for slot_ends in ends:
                        assert slot_ends and list(slot_ends) == sorted(set(slot_ends))
                        for e in slot_ends:
                            assert jp_guide in _ancestors(pg, e) and e != jp_guide


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
