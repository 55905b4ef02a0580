import random

import numpy as np
import pytest

from twigjoin.dewey import DeweyLabel, encoded_len
from twigjoin.document import NodeEvent, ingest
from twigjoin.path_guide import GuideError, PathGuide, _component_byte_lens
from twigjoin.twig import CHILD, DESCENDANT, Step, parse, split

from conftest import DOC_SEEDS, gen_doc, random_steps, spy_reads, steps_to_regex


def ev(label: str, tag: str) -> NodeEvent:
    comps = () if label == "" else tuple(int(c) for c in label.split("."))
    return NodeEvent(DeweyLabel(comps), tag)


@pytest.fixture(scope="module")
def guides():
    out = []
    for i, seed in enumerate(DOC_SEEDS[:6]):
        xml = gen_doc(seed, target=90 + 40 * i)
        out.append((xml, PathGuide.build_from_xml(xml)))
    return out


def test_one_node_per_distinct_path(guides):
    for xml, pg in guides:
        paths = set()
        stack: list[str] = []
        for e in ingest(xml):
            del stack[e.label.level :]
            stack.append(e.tag)
            paths.add(tuple(stack))
        assert {n.path for n in pg.nodes} == paths
        assert len({n.path for n in pg.nodes}) == len(pg.nodes)


def test_extents_partition_document(guides):
    for xml, pg in guides:
        total = 0
        seen: set[tuple] = set()
        for node in pg.nodes:
            ext = pg.extents[node.gid]
            assert ext.rows.shape == (len(ext), node.depth)
            rows = [tuple(r) for r in ext.rows.tolist()]
            assert rows == sorted(rows)
            assert len(set(rows)) == len(rows)
            # disjointness across nodes: (depth, row) identifies a label
            keyed = {(node.depth, r) for r in rows}
            assert not (keyed & seen)
            seen |= keyed
            total += len(rows)
        assert total == sum(1 for _ in ingest(xml))


def test_tree_invariants(guides):
    for _, pg in guides:
        assert pg.root == 0
        assert pg.nodes[0].parent == -1
        for node in pg.nodes[1:]:
            parent = pg.nodes[node.parent]
            assert parent.gid < node.gid
            assert node.depth == parent.depth + 1
            assert node.path == parent.path + (node.tag,)
            assert parent.children[node.tag] == node.gid
        for tag, gids in pg.by_tag.items():
            for g in gids:
                assert pg.nodes[g].tag == tag
        assert sorted(g for gids in pg.by_tag.values() for g in gids) == list(
            range(len(pg.nodes))
        )


def test_ancestor_helpers(guides):
    _, pg = guides[0]
    for node in pg.nodes:
        assert len(node.ancestors) == node.depth + 1
        assert node.ancestors[-1] == node.gid
        for d, a in enumerate(node.ancestors):
            assert pg.ancestor_at_depth(node.gid, d) == a
            assert pg.is_ancestor_or_self(a, node.gid)
        if node.gid:
            assert not pg.is_ancestor_or_self(node.gid, node.parent)


def test_eval_single_branch_matches_regex_oracle(guides):
    rng = random.Random(77)
    for _, pg in guides:
        strings = {n.gid: "".join(n.path) for n in pg.nodes}
        for _ in range(120):
            steps = random_steps(rng, rng.randint(1, 5))
            got = set(pg.eval_single_branch(steps))
            pat = steps_to_regex(steps)
            want = {g for g, s in strings.items() if pat.match(s)}
            assert got == want, steps


def test_eval_single_branch_queries():
    pg = PathGuide.build_from_xml(b"<A><B><C/></B><B><D/></B><C/></A>")
    by_path = {"".join(n.path): n.gid for n in pg.nodes}
    assert by_path == {"A": 0, "AB": 1, "ABC": 2, "ABD": 3, "AC": 4}

    def run(q: str) -> list[int]:
        (branch,) = split(parse(q)).branches
        return pg.eval_single_branch(branch)

    assert run("/A") == [0]
    assert run("/B") == []
    assert run("//C") == [2, 4]
    assert run("/A/B/C") == [2]
    assert run("//A//C") == [2, 4]
    assert run("/A/*") == [1, 4]
    assert run("//*") == [0, 1, 2, 3, 4]
    assert run("//B//C") == [2]


def test_eval_reads_no_extents(guides):
    for _, pg in guides:
        rng = random.Random(3)
        with spy_reads(pg) as reads:
            for _ in range(40):
                pg.eval_single_branch(random_steps(rng, rng.randint(1, 4)))
        assert reads == []


def test_byte_lens_agree_with_label_codec():
    # dual route: vectorized class binning vs the codec itself, across
    # every length-class boundary
    edge = [1, 127, 128, 16511, 16512, 2113663, 2113664, 270549119, 270549120]
    rows = np.array(sorted((a, b) for a in edge for b in edge), dtype=np.int64)
    got = _component_byte_lens(rows)
    want = [encoded_len(DeweyLabel(tuple(map(int, r)))) for r in rows]
    assert got.tolist() == want


def test_byte_lens_on_built_guide(guides):
    for _, pg in guides:
        for ext in pg.extents:
            want = [encoded_len(lbl) for lbl in ext.labels()]
            assert ext.byte_lens.tolist() == want


def test_total_counters(guides):
    xml, pg = guides[0]
    assert pg.total_nodes() == sum(1 for _ in ingest(xml))
    assert pg.total_extent_bytes() == sum(
        int(e.byte_lens.sum()) for e in pg.extents
    )


def test_build_rejects_orphan():
    with pytest.raises(GuideError, match="orphan"):
        PathGuide.build([ev("", "A"), ev("1.1", "B")])


def test_build_rejects_second_root():
    with pytest.raises(GuideError, match="second root"):
        PathGuide.build([ev("", "A"), ev("", "B")])


def test_build_rejects_non_extending_label():
    with pytest.raises(GuideError, match="does not extend"):
        PathGuide.build([ev("", "A"), ev("1", "B"), ev("2.1", "C")])


def test_build_rejects_empty_stream():
    with pytest.raises(GuideError, match="empty"):
        PathGuide.build([])


def test_build_rejects_unsorted_extent():
    bad = [ev("", "A"), ev("2", "B"), ev("1", "B")]
    with pytest.raises(GuideError, match="not sorted"):
        PathGuide.build(bad)


def test_from_tables_round_trip(guides):
    for _, pg in guides:
        clone = PathGuide.from_tables(
            [n.tag for n in pg.nodes],
            [n.parent for n in pg.nodes],
            [e.rows for e in pg.extents],
        )
        assert [n.path for n in clone.nodes] == [n.path for n in pg.nodes]
        for a, b in zip(clone.extents, pg.extents):
            assert np.array_equal(a.rows, b.rows)
            assert np.array_equal(a.byte_lens, b.byte_lens)


def test_from_tables_rejects_duplicate_child_tag():
    rows = [np.zeros((1, 0)), np.ones((1, 1)), np.ones((1, 1))]
    with pytest.raises(GuideError, match="duplicate child tag"):
        PathGuide.from_tables(["A", "B", "B"], [-1, 0, 0], rows)


def test_from_tables_rejects_width_mismatch():
    rows = [np.zeros((1, 0)), np.ones((2, 3))]
    with pytest.raises(GuideError, match="width"):
        PathGuide.from_tables(["A", "B"], [-1, 0], rows)


@pytest.mark.parametrize("rows", [[[2], [1]], [[1], [1]], [[1], [3], [2]]])
def test_from_tables_rejects_unsorted_or_duplicate_rows(rows):
    tables = [np.zeros((1, 0)), np.array(rows)]
    with pytest.raises(GuideError, match="guide node 1 is not sorted"):
        PathGuide.from_tables(["A", "B"], [-1, 0], tables)


def test_sorted_check_agrees_with_tuple_order():
    # reference: Python tuple comparison, one extent at a time; extents
    # of one depth sit next to each other in the vectorized check
    rng = random.Random(5)

    def extent(depth: int) -> list[tuple[int, ...]]:
        rows = [tuple(rng.randint(1, 3) for _ in range(depth)) for _ in range(rng.randint(1, 5))]
        return sorted(set(rows)) if rng.random() < 0.7 else rows

    rejected = 0
    for _ in range(300):
        n_b, n_c = rng.randint(1, 4), rng.randint(0, 3)
        tags = ["A"] + [f"B{i}" for i in range(n_b)] + [f"C{i}" for i in range(n_c)]
        parents = [-1] + [0] * n_b + [1] * n_c
        exts = [[()] * (1 if rng.random() < 0.9 else 2)]
        exts += [extent(1) for _ in range(n_b)] + [extent(2) for _ in range(n_c)]
        tables = [np.array(e, dtype=np.int64).reshape(len(e), len(e[0])) for e in exts]
        if all(a < b for e in exts for a, b in zip(e, e[1:])):
            PathGuide.from_tables(tags, parents, tables)
        else:
            rejected += 1
            with pytest.raises(GuideError, match="not sorted"):
                PathGuide.from_tables(tags, parents, tables)
    assert 50 <= rejected <= 250
