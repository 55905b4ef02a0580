import random

import numpy as np
import pytest

from twigjoin.dewey import DeweyLabel, encoded_len
from twigjoin.document import NodeEvent, ingest
from twigjoin.index_io import Index, from_bytes, to_bytes
from twigjoin.kernels import prefix_ranks
from twigjoin.path_guide import GuideError, PathGuide
from twigjoin.twig import CHILD, DESCENDANT, Step, parse, split, steps_match

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
        assert pg.nodes[0].depth == 0
        assert pg.nodes[0].parent == -1
        for node in pg.nodes[1:]:
            parent = pg.nodes[node.parent]
            assert parent.gid < node.gid
            assert node.depth == parent.depth + 1
            assert node.path == parent.path + (node.tag,)
            assert parent.children[node.tag] == node.gid
        for node in pg.nodes:
            assert pg.parents[node.gid] == node.parent
            assert pg.tag_names[pg.tags[node.gid]] == node.tag
            assert pg.tag_id[node.tag] == pg.tags[node.gid]
        assert sorted(pg.tag_id.values()) == list(range(len(pg.tag_names)))


def parent_chain(pg: PathGuide, gid: int) -> list[int]:
    """The gids from the root down to gid, by walking parent links."""
    chain = [gid]
    while pg.nodes[chain[0]].parent >= 0:
        chain.insert(0, pg.nodes[chain[0]].parent)
    return chain


def test_ancestor_helpers(guides):
    _, pg = guides[0]
    for node in pg.nodes:
        chain = parent_chain(pg, node.gid)
        assert len(chain) == node.depth + 1
        for d, a in enumerate(chain):
            assert pg.anc[node.gid, d] == a
            assert pg.anc[node.gid, pg.depths[a]] == a
        if node.gid:
            assert pg.anc[node.parent, pg.depths[node.gid]] != node.gid


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


# ------------------------------------------------------------ step matcher


def steps_of(q: str) -> tuple[Step, ...]:
    (branch,) = split(parse(q)).branches
    return branch.steps


def matrix_oracle(pg: PathGuide, steps, ends) -> np.ndarray:
    """match_steps cell by cell: steps_match on every suffix of each path."""
    out = np.zeros((pg.anc.shape[1] + 1, len(ends)), dtype=bool)
    for i, e in enumerate(ends):
        path = pg.nodes[e].path
        for x in range(len(path) + 1):
            out[x, i] = steps_match(steps, path[x:])
    return out


def test_derived_arrays_agree_with_nodes(guides):
    for _, pg in guides:
        width = max(n.depth for n in pg.nodes) + 1
        assert pg.anc.shape == pg.tag_paths.T.shape == (len(pg), width)
        for arr in (pg.parents, pg.tags, pg.depths, pg.anc, pg.tag_paths):
            assert arr.dtype == np.int32
        names = list(pg.tag_id)
        for n in pg.nodes:
            pad = [-1] * (width - n.depth - 1)
            assert pg.depths[n.gid] == n.depth
            assert names[pg.tags[n.gid]] == n.tag
            assert pg.anc[n.gid].tolist() == parent_chain(pg, n.gid) + pad
            tag_path = pg.tag_paths[:, n.gid].tolist()
            assert [names[t] for t in tag_path[: n.depth + 1]] == list(n.path)
            assert tag_path[n.depth + 1 :] == pad
            assert pg.path_tags(n.gid) == n.path


def test_row_order_and_ancestor_keys(guides):
    # pos is each row's place in the event stream, up its parent label's
    # row, and the positions of ancestors at level L rank any set of rows
    # exactly as their L-prefixes do
    rng = random.Random(23)
    for xml, built in guides:
        loaded = from_bytes(to_bytes(Index.from_guide(built))).guide
        events = [e.label.components for e in ingest(xml)]
        for pg in (built, loaded):
            owner = np.repeat(np.arange(len(pg)), np.diff(pg.start))
            depth = pg.depths[owner]
            labels = [tuple(r) for ext in pg.extents for r in ext.rows.tolist()]
            width = int(depth.max())
            padded = np.array([lab + (0,) * (width - len(lab)) for lab in labels])
            assert [events[p] for p in pg.pos] == labels
            assert pg.up[depth == 0].tolist() == [-1]
            assert all(labels[u] == lab[:-1] for u, lab in zip(pg.up, labels) if lab)
            for level in range(int(depth.max()) + 1):
                deep = np.flatnonzero(depth >= level)
                for _ in range(5):
                    ids = rng.sample(deep.tolist(), rng.randint(1, len(deep)))
                    ids = np.array(ids, dtype=np.int64)
                    keys = pg.pos[pg.ancestors(ids, owner[ids], level)]
                    ranks = np.unique(keys, return_inverse=True)[1]
                    assert np.array_equal(ranks, prefix_ranks(padded[ids], level))


def test_match_steps_agrees_with_steps_match(guides):
    rng = random.Random(21)
    for _, pg in guides:
        ends = np.arange(len(pg))
        for _ in range(20):
            steps = random_steps(rng, rng.randint(1, 5))
            assert np.array_equal(pg.match_steps(steps, ends), matrix_oracle(pg, steps, ends))


@pytest.mark.parametrize(
    "xml,expect",
    [
        # root-only guide
        (b"<R/>", {"/R": [0], "//R": [0], "/*": [0], "//*": [0], "/R/R": [],
                   "//R//R": [], "/R/*": [], "/X": []}),
        # a tag the guide lacks, first, in the middle and last
        (b"<A><B><C/></B></A>", {"//Z": [], "/Z//C": [], "//A//Z//C": [], "/A/Z": [],
                                 "/A//C": [2], "//*": [0, 1, 2]}),
        # more steps than the guide is deep
        (b"<A><B><C/></B></A>", {"/*/*/*": [2], "/*/*/*/*": [], "//*//*//*": [2],
                                 "//*//*//*//*": [], "//A//B//C//C": []}),
    ],
)
def test_step_matcher_edge_cases(xml, expect):
    pg = PathGuide.build_from_xml(xml)
    strings = {n.gid: "".join(n.path) for n in pg.nodes}
    ends = np.arange(len(pg))
    assert not pg.branch_mask(()).any() and pg.eval_single_branch(()) == []
    for q, want in expect.items():
        steps = steps_of(q)
        mask = pg.branch_mask(steps)
        assert mask.dtype == bool and mask.shape == (len(pg),)
        assert np.flatnonzero(mask).tolist() == pg.eval_single_branch(steps) == want, q
        assert want == [g for g, s in strings.items() if steps_to_regex(steps).match(s)]
        assert np.array_equal(pg.match_steps(steps, ends), matrix_oracle(pg, steps, ends)), q


def test_match_steps_sees_every_split_depth():
    # row x: the steps consume A/X/A/A from depth x down
    pg = PathGuide.build_from_xml(b"<A><X><A><A/></A></X></A>")
    for q, cols in {"//A": [0, 1, 2, 3], "/A": [3], "//X//A": [0, 1], "/A//A": [0, 2]}.items():
        m = pg.match_steps(steps_of(q), np.array([3]))
        assert np.flatnonzero(m[:, 0]).tolist() == cols, q


def test_eval_single_branch_on_a_large_guide():
    # linear reference: steps_match once per guide node and sequence
    pg = PathGuide.build_from_xml(gen_doc(seed=0, target=4000, max_depth=12))
    assert len(pg) >= 2500
    paths = [n.path for n in pg.nodes]
    rng = random.Random(13)
    hits = 0
    for _ in range(100):
        steps = random_steps(rng, rng.randint(1, 6))
        want = [g for g, p in enumerate(paths) if steps_match(steps, p)]
        assert pg.eval_single_branch(steps) == want, steps
        hits += bool(want)
    assert hits >= 30


def test_eval_reads_no_extents(guides):
    for _, pg in guides:
        rng = random.Random(3)
        with spy_reads(pg) as reads:
            for _ in range(40):
                pg.eval_single_branch(random_steps(rng, rng.randint(1, 4)))
        assert reads == []


def test_byte_lens_agree_with_label_codec():
    # dual route: vectorized class binning vs the codec itself, across
    # every length-class boundary, in a store of labels 0, 1 and 2 deep
    edge = [1, 127, 128, 16511, 16512, 2113663, 2113664, 270549119, 270549120]
    rows = np.array(sorted((a, b) for a in edge for b in edge), dtype=np.int64)
    pg = PathGuide.from_tables(["R", "A", "B"], [-1, 0, 1],
                               [np.zeros((1, 0), np.int64), np.array(edge)[:, None], rows])
    want = [encoded_len(DeweyLabel(tuple(map(int, r)))) for e in pg.extents for r in e.rows]
    assert pg.byte_lens.tolist() == want


def test_byte_lens_on_built_guide(guides):
    for _, pg in guides:
        for ext in pg.extents:
            want = [encoded_len(DeweyLabel(row)) for row in ext.rows.tolist()]
            assert ext.byte_lens.tolist() == want


def test_total_counters(guides):
    xml, pg = guides[0]
    assert int(pg.start[-1]) == sum(1 for _ in ingest(xml))
    assert int(pg.byte_lens.sum()) == sum(
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


def test_build_accepts_document_order_only(guides):
    # any two events swapped break document order; some swaps leave
    # every extent sorted, and build must still reject them
    xml, _ = guides[0]
    events = list(ingest(xml))
    PathGuide.build(events)
    rng = random.Random(9)
    for _ in range(60):
        i, j = sorted(rng.sample(range(1, len(events)), 2))
        swapped = events[:i] + [events[j]] + events[i + 1 : j] + [events[i]] + events[j + 1 :]
        with pytest.raises(GuideError):
            PathGuide.build(swapped)
    with pytest.raises(GuideError, match="not sorted after 2"):
        PathGuide.build([ev("", "A"), ev("2", "B"), ev("1", "C")])


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


def test_from_tables_rejects_second_root():
    rows = [np.zeros((1, 0)), np.zeros((1, 0))]
    with pytest.raises(GuideError, match="second root"):
        PathGuide.from_tables(["A", "B"], [-1, -1], rows)


@pytest.mark.parametrize("parents", [[-1, 2, 0], [-1, 1, 0], [-1, 0, -3]])
def test_from_tables_rejects_parent_that_is_not_earlier(parents):
    rows = [np.zeros((1, 0)), np.ones((1, 1)), np.ones((1, 1))]
    with pytest.raises(GuideError, match="is not an earlier node"):
        PathGuide.from_tables(["A", "B", "C"], parents, rows)


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
    # reference: Python tuple comparison, one extent at a time, for
    # sortedness; Python sets for labels shared by two extents and for
    # nesting (every C label, under B0, must extend a B0 label).  The
    # vectorized checks see the whole store at once.
    rng = random.Random(5)

    def extent(depth: int) -> list[tuple[int, ...]]:
        rows = [tuple(rng.randint(1, 3) for _ in range(depth)) for _ in range(rng.randint(1, 5))]
        return sorted(set(rows)) if rng.random() < 0.7 else rows

    rejected = loaded = 0
    for _ in range(300):
        n_b, n_c = rng.randint(1, 4), rng.randint(0, 3)
        tags = ["A"] + [f"B{i}" for i in range(n_b)] + [f"C{i}" for i in range(n_c)]
        parents = [-1] + [0] * n_b + [1] * n_c
        exts = [[()] * (1 if rng.random() < 0.9 else 2)]
        exts += [extent(1) for _ in range(n_b)] + [extent(2) for _ in range(n_c)]
        tables = [np.array(e, dtype=np.int64).reshape(len(e), len(e[0])) for e in exts]
        nested = all(c[:1] in exts[1] for e in exts[1 + n_b :] for c in e)
        shared = len({lab for e in exts for lab in e}) < sum(map(len, exts))
        if not all(a < b for e in exts for a, b in zip(e, e[1:])):
            rejected += 1
            with pytest.raises(GuideError, match="not sorted"):
                PathGuide.from_tables(tags, parents, tables)
        elif shared:
            with pytest.raises(GuideError, match="shares a label"):
                PathGuide.from_tables(tags, parents, tables)
        elif nested:
            loaded += 1
            PathGuide.from_tables(tags, parents, tables)
        else:
            with pytest.raises(GuideError, match="has no parent label in guide node 1"):
                PathGuide.from_tables(tags, parents, tables)
    assert 50 <= rejected <= 250
    assert 20 <= loaded <= 250

    # the same reference below level 2: a chain A/B/C with sibling extents
    # D0, D1 and, under D0, E0, E1 (labels 3 and 4 deep), built by
    # extending parent labels and then editing a component, so that a
    # label can miss its grandparent's prefix and siblings can share
    # labels.  The message names the first offender: by row for an
    # unsorted extent, in tuple order for a shared label or a missing
    # parent; a store that loads has pos and up of that order.
    rng = random.Random(7)
    tags = ["A", "B", "C", "D0", "D1", "E0", "E1"]
    parents = [-1, 0, 1, 2, 2, 3, 3]
    seen = {"unsorted": 0, "shared deep": 0, "grandparent": 0, "no parent deep": 0, "loaded": 0}
    for _ in range(400):
        exts: list[list[tuple[int, ...]]] = [[()]]
        for g in range(1, len(tags)):
            rows = [rng.choice(exts[parents[g]]) + (rng.randint(1, 4),)
                    for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.3:
                i = rng.randrange(len(rows))
                c = rng.randrange(len(rows[i]))
                rows[i] = rows[i][:c] + (rng.randint(1, 5),) + rows[i][c + 1 :]
            exts.append(sorted(set(rows)) if rng.random() < 0.9 else rows)
        tables = [np.array(e, dtype=np.int64).reshape(len(e), len(e[0])) for e in exts]
        unsorted = [g for g, e in enumerate(exts) if any(a > b for a, b in zip(e, e[1:]))]
        labels = sorted((lab, g) for g, e in enumerate(exts) for lab in e)
        shared = [(a, g) for (a, g), (b, _) in zip(labels, labels[1:]) if a == b]
        orphans = sorted((lab, g) for g, e in enumerate(exts) if g
                         for lab in e if lab[:-1] not in set(exts[parents[g]]))
        if unsorted:
            seen["unsorted"] += 1
            want = f"guide node {unsorted[0]} is not sorted or shares a label"
        elif shared:
            seen["shared deep"] += len(shared[0][0]) > 2
            want = f"guide node {shared[0][1]} is not sorted or shares a label"
        elif orphans:
            lab, g = orphans[0]
            seen["no parent deep"] += len(lab) > 2
            seen["grandparent"] += any(len(m) == 4 and m[:2] not in exts[2] for m, _ in labels)
            want = (f"label {'.'.join(map(str, lab))} of guide node {g} has no parent label "
                    f"in guide node {parents[g]}")
        else:
            seen["loaded"] += 1
            pg = PathGuide.from_tables(tags, parents, tables)
            rows = [lab for e in exts for lab in e]
            assert pg.pos.tolist() == [sorted(rows).index(lab) for lab in rows]
            assert [rows[u] for u in pg.up[1:]] == [lab[:-1] for lab in rows[1:]]
            continue
        with pytest.raises(GuideError) as err:
            PathGuide.from_tables(tags, parents, tables)
        assert str(err.value) == want
    assert min(seen.values()) >= 30, seen
