import random
import tracemalloc

import numpy as np
import pytest

from twigjoin.dewey import DeweyLabel
from twigjoin.document import GeneratorConfig, NodeEvent, generate, ingest
from twigjoin.index_io import Index, from_bytes, to_bytes
from twigjoin.kernels import prefix_ranks
from twigjoin.path_guide import GuideError, PathGuide
from twigjoin.twig import CHILD, DESCENDANT, Step, parse, split, steps_match

from conftest import (DOC_SEEDS, children, from_tables, gen_doc, random_steps, spy_reads,
                      steps_to_regex)
import frozen_codec
from frozen_build import build as frozen_build
from frozen_plan import FrozenPlanner


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
        got = [pg.path_tags(g) for g in range(len(pg))]
        assert set(got) == paths
        assert len(set(got)) == len(pg)


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
            assert pg.path_tags(node.gid) == pg.path_tags(parent.gid) + (node.tag,)
            assert children(pg, parent.gid)[node.tag] == node.gid
        # the nodes are the node table's rows, and nothing more
        assert pg.nodes == [(g, pg.tag_names[t], p, d) for g, (t, p, d)
                            in enumerate(zip(pg.tags.tolist(), pg.parents.tolist(),
                                             pg.depths.tolist()))]
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
    # g lies in e's interval exactly when a walk up parents from e reaches g;
    # the virtual document node (-1) reaches every node
    for _, pg in guides[:2]:
        for e in range(len(pg)):
            chain = set(parent_chain(pg, e))
            assert len(chain) == pg.depths[e] + 1
            for g in range(-1, len(pg)):
                inside = pg.pre[g] <= pg.pre[e] < pg.end[g]
                assert inside == (g in chain or g == -1), (g, e)


def test_children_lists_restate_parents(guides):
    for _, pg in guides:
        for g in range(-1, len(pg)):
            kids = pg.kids[pg.kid_start[g + 1] : pg.kid_start[g + 2]].tolist()
            assert sorted(kids) == np.flatnonzero(pg.parents == g).tolist()
            assert [pg.tags[k] for k in kids] == sorted(pg.tags[k] for k in kids)
        assert pg.kid_start[0] == 0 and pg.kid_start[-1] == len(pg)
        assert np.array_equal(np.sort(pg.kids), np.arange(len(pg)))


def test_eval_single_branch_matches_regex_oracle(guides):
    rng = random.Random(77)
    for _, pg in guides:
        strings = {g: "".join(pg.path_tags(g)) for g in range(len(pg))}
        for _ in range(120):
            steps = random_steps(rng, rng.randint(1, 5))
            got = set(pg.eval_single_branch(steps))
            pat = steps_to_regex(steps)
            want = {g for g, s in strings.items() if pat.match(s)}
            assert got == want, steps


def test_eval_single_branch_queries():
    pg = PathGuide.build_from_xml(b"<A><B><C/></B><B><D/></B><C/></A>")
    by_path = {"".join(pg.path_tags(g)): g for g in range(len(pg))}
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


def walk_oracle(pg: PathGuide, steps, starts) -> set[tuple[int, int]]:
    """walk pair by pair: steps_match on the path below each start node."""
    out = set()
    for e in range(len(pg)):
        chain = [-1] + parent_chain(pg, e)
        path = pg.path_tags(e)
        for s in starts:
            if s in chain[:-1] and steps_match(steps, path[pg.depths[s] + 1 if s >= 0 else 0 :]):
                out.add((s, e))
    return out


def walk_pairs(pg: PathGuide, steps, starts) -> set[tuple[int, int]]:
    origin, node = pg.walk(steps, starts)
    pairs = list(zip(origin.tolist(), node.tolist()))
    assert len(pairs) == len(set(pairs))  # each pair once
    return set(pairs)


def test_derived_arrays_agree_with_nodes(guides):
    for _, pg in guides:
        n = len(pg)
        for arr in (pg.parents, pg.tags, pg.depths, pg.kids, pg.kid_start, pg.pre, pg.end,
                    pg.by_pre, pg.tag_pre, pg.tag_start):
            assert arr.dtype == np.int32
        assert [len(a) for a in (pg.kids, pg.kid_start, pg.pre, pg.end, pg.by_pre, pg.tag_pre)] \
            == [n, n + 2, n + 1, n + 1, n, 2 * n]
        # one run per tag id, then an empty one for a tag the guide lacks
        # and one of all ranks for the wildcard
        t = len(pg.tag_names)
        assert len(pg.tag_start) == t + 3 and pg.tag_start[t] == pg.tag_start[t + 1] == n
        assert pg.tag_pre[n:].tolist() == list(range(n))
        # the virtual document node's interval holds every rank
        assert (pg.pre[-1], pg.end[-1]) == (-1, n)
        # pre-order: a node after its parent, its subtree a run of end - pre ranks
        assert pg.pre[0] == 0
        assert np.array_equal(pg.by_pre[pg.pre[:n]], np.arange(n))
        for node in pg.nodes:
            subtree = [g for g in range(n) if node.gid in parent_chain(pg, g)]
            assert sorted(pg.pre[subtree].tolist()) == list(range(pg.pre[node.gid], pg.end[node.gid]))
        # per tag, the ranks of its nodes, ascending
        for t in range(len(pg.tag_names)):
            ranks = pg.tag_pre[pg.tag_start[t] : pg.tag_start[t + 1]].tolist()
            assert ranks == sorted(pg.pre[np.flatnonzero(pg.tags == t)].tolist())


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


def test_walk_agrees_with_steps_match(guides):
    rng = random.Random(21)
    for _, pg in guides:
        starts = list(range(-1, len(pg)))
        for _ in range(20):
            steps = random_steps(rng, rng.randint(1, 5))
            assert walk_pairs(pg, steps, starts) == walk_oracle(pg, steps, starts), steps


def test_eval_single_branch_agrees_with_the_frozen_planner():
    rng = random.Random(31)
    checked = hits = 0
    for i, seed in enumerate(DOC_SEEDS):
        pg = PathGuide.build_from_xml(gen_doc(seed, target=80 + 30 * i))
        frozen = FrozenPlanner(pg)
        for _ in range(130):
            steps = random_steps(rng, rng.randint(1, 6))
            want = frozen.eval_single_branch(steps)
            assert pg.eval_single_branch(steps) == want, steps
            checked += 1
            hits += bool(want)
    assert checked >= 1500 and hits >= 300


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
    strings = {g: "".join(pg.path_tags(g)) for g in range(len(pg))}
    starts = list(range(-1, len(pg)))
    assert pg.eval_single_branch(()) == []
    assert walk_pairs(pg, (), starts) == {(s, s) for s in starts}
    assert walk_pairs(pg, steps_of("//*"), []) == set()
    for q, want in expect.items():
        steps = steps_of(q)
        assert pg.eval_single_branch(steps) == want, q
        assert want == [g for g, s in strings.items() if steps_to_regex(steps).match(s)]
        assert walk_pairs(pg, steps, starts) == walk_oracle(pg, steps, starts), q


def test_walk_sees_every_split_depth():
    # the start nodes from which the steps consume the rest of A/X/A/A:
    # -1 (the document node) for all of it, 2 for the last A only
    pg = PathGuide.build_from_xml(b"<A><X><A><A/></A></X></A>")
    for q, starts in {"//A": [-1, 0, 1, 2], "/A": [2], "//X//A": [-1, 0],
                      "/A//A": [-1, 1]}.items():
        origin, node = pg.walk(steps_of(q), [-1, 0, 1, 2])
        assert sorted(origin[node == 3].tolist()) == starts, q


def test_eval_single_branch_on_a_large_guide():
    # linear reference: steps_match once per guide node and sequence
    pg = PathGuide.build_from_xml(gen_doc(seed=0, target=4000, max_depth=12))
    assert len(pg) >= 2500
    paths = [pg.path_tags(g) for g in range(len(pg))]
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
    pg = from_tables(["R", "A", "B"], [-1, 0, 1],
                               [np.zeros((1, 0), np.int64), np.array(edge)[:, None], rows])
    want = [frozen_codec.encoded_len(DeweyLabel(tuple(map(int, r))))
            for e in pg.extents for r in e.rows]
    assert pg.byte_lens.tolist() == want


def test_byte_lens_on_built_guide(guides):
    for _, pg in guides:
        for ext in pg.extents:
            want = [frozen_codec.encoded_len(DeweyLabel(row)) for row in ext.rows.tolist()]
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


def assert_same_guide(pg: PathGuide, want: PathGuide) -> None:
    assert pg.tag_names == want.tag_names
    for name in ("parents", "tags", "depths", "comps", "start", "byte_lens", "pos", "up"):
        got, ref = getattr(pg, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name


def corrupt(rng: random.Random, events: list[NodeEvent]) -> list[NodeEvent]:
    """events with one of seven faults put in at a random place; some
    leave the stream in document order (a raised last component with no
    later sibling, a deleted leaf)."""
    k = rng.randrange(len(events))
    comps, tag = events[k].label.components, events[k].tag

    def at_k(new: tuple[int, ...]) -> list[NodeEvent]:
        return events[:k] + [NodeEvent(DeweyLabel(new), tag)] + events[k + 1 :]

    fault = rng.randrange(7)
    if fault == 0 and len(events) > 1:  # swap two events
        i, j = sorted(rng.sample(range(len(events)), 2))
        return events[:i] + [events[j]] + events[i + 1 : j] + [events[i]] + events[j + 1 :]
    if fault == 1 and comps:  # raise or lower one component
        c = rng.randrange(len(comps))
        value = max(1, comps[c] + rng.choice([-2, -1, 1, 2]))
        return at_k(comps[:c] + (value,) + comps[c + 1 :])
    if fault == 2:  # delete an event
        return events[:k] + events[k + 1 :]
    if fault == 3:  # a second root
        return events[: k + 1] + [NodeEvent(DeweyLabel(), tag)] + events[k + 1 :]
    if fault == 4 and comps:  # cut a label
        return at_k(comps[:-1])
    if fault == 5:  # extend a label
        return at_k(comps + (rng.randint(1, 3),))
    # a depth jump: an event two levels below the one before it
    return events[: k + 1] + [NodeEvent(DeweyLabel(comps + (1, 1)), tag)] + events[k + 1 :]


def test_build_repeats_the_frozen_loop_builder():
    # clean streams give the loop builder's node table and store; a
    # corrupted one is rejected with its exact message, or built alike
    streams = [list(ingest(gen_doc(seed, target=60 + 20 * i))) for i, seed in enumerate(DOC_SEEDS[:8])]
    for events in streams:
        assert_same_guide(PathGuide.build(events), frozen_build(events))
    rng = random.Random(23)
    kinds = ("orphan", "not sorted after", "second root", "does not extend", "empty")
    seen = dict.fromkeys(kinds, 0)
    for _ in range(2400):
        events = rng.choice(streams)
        if rng.random() < 0.4:  # a prefix of a document is a document
            events = events[: rng.choice([1, 2, rng.randint(1, len(events))])]
        events = corrupt(rng, events)
        try:
            want = frozen_build(events)
        except GuideError as exc:
            with pytest.raises(GuideError) as err:
                PathGuide.build(events)
            assert str(err.value) == str(exc)
            seen[next(k for k in kinds if k in str(exc))] += 1
        else:
            assert_same_guide(PathGuide.build(events), want)
    assert sum(seen.values()) >= 2000 and min(seen.values()) >= 30, seen


def test_build_allocates_within_its_bound():
    # a frag-like document of 20,000 elements in about 7,000 guide nodes
    xml = generate(GeneratorConfig(seed=7, target_node_count=20_000)).xml
    events = list(ingest(xml))
    components = sum(len(ev.label.components) for ev in events)
    limit = (
        8 * components  # the store: an int64 per component
        + 12 * 8 * len(events)  # at most 12 int64 temporaries per event at once
        + 2**20  # the node table, its planning matrices and the checks' chunk
    )
    tracemalloc.start()
    try:
        PathGuide.build(events)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, (peak, limit)


def test_from_tables_round_trip(guides):
    for _, pg in guides:
        clone = from_tables(
            [n.tag for n in pg.nodes],
            [n.parent for n in pg.nodes],
            [e.rows for e in pg.extents],
        )
        assert clone.nodes == pg.nodes
        for a, b in zip(clone.extents, pg.extents):
            assert np.array_equal(a.rows, b.rows)
            assert np.array_equal(a.byte_lens, b.byte_lens)


def test_from_tables_rejects_duplicate_child_tag():
    rows = [np.zeros((1, 0)), np.ones((1, 1)), np.ones((1, 1))]
    with pytest.raises(GuideError, match="duplicate child tag"):
        from_tables(["A", "B", "B"], [-1, 0, 0], rows)


def test_from_tables_rejects_second_root():
    rows = [np.zeros((1, 0)), np.zeros((1, 0))]
    with pytest.raises(GuideError, match="second root"):
        from_tables(["A", "B"], [-1, -1], rows)


@pytest.mark.parametrize("parents", [[-1, 2, 0], [-1, 1, 0], [-1, 0, -3]])
def test_from_tables_rejects_parent_that_is_not_earlier(parents):
    rows = [np.zeros((1, 0)), np.ones((1, 1)), np.ones((1, 1))]
    with pytest.raises(GuideError, match="is not an earlier node"):
        from_tables(["A", "B", "C"], parents, rows)


def test_from_tables_rejects_width_mismatch():
    rows = [np.zeros((1, 0)), np.ones((2, 3))]
    with pytest.raises(GuideError, match="width"):
        from_tables(["A", "B"], [-1, 0], rows)


@pytest.mark.parametrize("rows", [[[2], [1]], [[1], [1]], [[1], [3], [2]]])
def test_from_tables_rejects_unsorted_or_duplicate_rows(rows):
    tables = [np.zeros((1, 0)), np.array(rows)]
    with pytest.raises(GuideError, match="guide node 1 is not sorted"):
        from_tables(["A", "B"], [-1, 0], tables)


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
                from_tables(tags, parents, tables)
        elif shared:
            with pytest.raises(GuideError, match="shares a label"):
                from_tables(tags, parents, tables)
        elif nested:
            loaded += 1
            from_tables(tags, parents, tables)
        else:
            with pytest.raises(GuideError, match="has no parent label in guide node 1"):
                from_tables(tags, parents, tables)
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
            pg = from_tables(tags, parents, tables)
            rows = [lab for e in exts for lab in e]
            assert pg.pos.tolist() == [sorted(rows).index(lab) for lab in rows]
            assert [rows[u] for u in pg.up[1:]] == [lab[:-1] for lab in rows[1:]]
            continue
        with pytest.raises(GuideError) as err:
            from_tables(tags, parents, tables)
        assert str(err.value) == want
    assert min(seen.values()) >= 30, seen
