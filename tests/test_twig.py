import random
import re
from collections import Counter

import pytest

from twigjoin.twig import (
    CHILD,
    DESCENDANT,
    MAX_PATH_STEPS,
    QuerySyntaxError,
    Step,
    TwigNode,
    TwigPattern,
    _merge_siblings,
    parse,
    print_query,
    split,
    steps_match,
    steps_to_str,
)

from conftest import (DEEP_SHAPES, deep_query, group_leaves, jp_leaves, random_query, random_steps,
                      steps_to_regex)
import frozen_split


def canonicalize(t: TwigPattern) -> TwigPattern:
    """Same twig with children everywhere in a deterministic order."""

    def canon(node: TwigNode) -> TwigNode:
        kids = sorted(map(canon, node.children), key=lambda c: print_query(TwigPattern(c)))
        return TwigNode(node.axis, node.test, kids)

    return TwigPattern(canon(t.root))


def branch_strs(q: str) -> list[str]:
    return [steps_to_str(b.steps) for b in split(parse(q)).branches]


# ------------------------------------------------------------------ parsing


def test_parse_linear():
    t = parse("/A/B//C")
    assert (t.root.axis, t.root.test) == (CHILD, "A")
    b = t.root.children[0]
    c = b.children[0]
    assert (b.axis, b.test, c.axis, c.test) == (CHILD, "B", DESCENDANT, "C")
    assert c.is_leaf()


def test_parse_predicates_and_trunk():
    t = parse("//A[./B]//C")
    assert [(c.axis, c.test) for c in t.root.children] == [
        (CHILD, "B"),
        (DESCENDANT, "C"),
    ]
    assert len(t.root.children) >= 2


def test_parse_wildcard():
    t = parse("//*[./B]/C")
    assert t.root.test == "*"
    assert branch_strs("//*[./B]/C") == ["//*/B", "//*/C"]


def test_trie_merge_shared_predicate_prefix():
    # two predicates sharing a step become one subtree with a JP at it
    t = parse("//A[.//B/C][.//B/D]//E")
    a = t.root
    assert len(a.children) == 2
    b, e = a.children
    assert (b.test, e.test) == ("B", "E")
    assert [c.test for c in b.children] == ["C", "D"]
    assert branch_strs("//A[.//B/C][.//B/D]//E") == ["//A//B/C", "//A//B/D", "//A//E"]
    assert len(split(t).jps) == 2


def test_trie_merge_predicate_with_trunk():
    assert branch_strs("//A[./B/X]/B/Y") == ["//A/B/X", "//A/B/Y"]
    t = parse("//A[./B/X]/B/Y")
    assert len(t.root.children) == 1  # the two B steps merged


def test_leaf_never_merges_with_internal():
    t = parse("//A[./B][./B/C]")
    assert [(c.test, c.is_leaf()) for c in t.root.children] == [
        ("B", True),
        ("B", False),
    ]
    assert branch_strs("//A[./B][./B/C]") == ["//A/B", "//A/B/C"]


def test_duplicate_leaves_collapse():
    t = parse("//A[./B][./B]")
    assert len(t.root.children) == 1
    assert branch_strs("//A[./B][./B]") == ["//A/B"]
    assert split(t).jps == ()


def test_axis_distinguishes_siblings():
    # same test, different axis: no merge
    t = parse("//A[./B/C][.//B/D]")
    assert [(c.axis, c.test) for c in t.root.children] == [
        (CHILD, "B"),
        (DESCENDANT, "B"),
    ]


def test_merge_is_recursive():
    q = "//A[./B[./X/P][./X/Q]][./B/Y]"
    t = parse(q)
    (b,) = t.root.children
    x, y = b.children
    assert [c.test for c in x.children] == ["P", "Q"]
    assert y.is_leaf()
    assert branch_strs(q) == ["//A/B/X/P", "//A/B/X/Q", "//A/B/Y"]


@pytest.mark.parametrize(
    "text,pos_of",
    [
        ("", ""),
        ("A/B", "A"),
        ("//", None),
        ("//A//", None),
        ("//A[./B", 7),  # the end of the text, where ']' was expected
        ("//A[./B x]", " x"),
        ("//A[]", "]"),
        ("//A[/B]", "/B"),
        ("//A[.B]", "B"),
        ("//A[./B]C", "C"),
        ("//A$", "$"),
        (" //A$", "$"),
        ("  A/B", "A"),
        ("\t //A[./B]C ", "C"),
        (" \n//A[.B]", "B"),
    ],
)
def test_syntax_errors_carry_position(text, pos_of):
    with pytest.raises(QuerySyntaxError) as exc:
        parse(text)
    assert "position" in str(exc.value)
    if isinstance(pos_of, int):
        assert exc.value.position == pos_of
    elif pos_of:
        assert exc.value.position == text.index(pos_of)
    else:
        assert 0 <= exc.value.position <= len(text)


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_paths_are_bounded_in_steps(shape):
    t = parse(deep_query(shape, MAX_PATH_STEPS))
    (branch,) = split(t).branches
    assert len(branch.steps) == MAX_PATH_STEPS
    assert print_query(parse(print_query(t))) == print_query(t)
    # rejected at the first step past the bound, however deep the query
    for steps in (MAX_PATH_STEPS + 1, 3000):
        text = deep_query(shape, steps)
        with pytest.raises(QuerySyntaxError, match=f"longer than {MAX_PATH_STEPS} steps") as exc:
            parse(text)
        assert exc.value.position == [m.start() for m in re.finditer("A", text)][MAX_PATH_STEPS]


def test_names_allow_xml_ish_chars():
    t = parse("/root-1/_x.y")
    assert t.root.test == "root-1"
    assert t.root.children[0].test == "_x.y"


# ----------------------------------------------------------------- printing


@pytest.mark.parametrize(
    "q",
    [
        "/A",
        "//A//B/C",
        "//A[./B]//C",
        "//A[.//B[./C]/D]//E",
        "//*[./B][.//C/D]/E",
    ],
)
def test_print_round_trip(q):
    t = parse(q)
    assert print_query(t) == q
    assert parse(print_query(t)) == t


def test_print_round_trip_random():
    rng = random.Random(5)
    for _ in range(300):
        t = parse(random_query(rng))
        assert parse(print_query(t)) == t


# -------------------------------------------------------------- steps_match


def test_steps_match_examples():
    steps = split(parse("//A//B/C")).branches[0].steps
    assert steps_match(steps, ("A", "B", "C"))
    assert steps_match(steps, ("A", "X", "B", "C"))
    assert steps_match(steps, ("X", "A", "B", "C"))
    assert not steps_match(steps, ("A", "B"))
    assert not steps_match(steps, ("A", "B", "C", "C"))  # B/C is a child step
    assert not steps_match(steps, ("A", "C"))
    assert steps_match((), ())
    assert not steps_match((), ("A",))


def test_steps_match_against_regex_oracle():
    rng = random.Random(11)
    for _ in range(3000):
        steps = random_steps(rng, rng.randint(0, 6))
        tags = tuple(rng.choice("ABC") for _ in range(rng.randint(0, 8)))
        want = steps_to_regex(steps).match("".join(tags)) is not None
        assert steps_match(steps, tags) == want, (steps, tags)


# ------------------------------------------------------------ decomposition


def test_split_single_branch():
    d = split(parse("//A/B//C"))
    assert len(d.branches) == 1
    assert d.branches[0].leaf_id == 0
    assert d.jps == ()
    assert steps_to_str(d.branches[0].steps) == "//A/B//C"


def test_split_leaf_ids_are_preorder():
    d = split(parse("//A[.//B/C][.//B/D]//E"))
    assert [b.leaf_id for b in d.branches] == [0, 1, 2]
    leaf_tests = [b.steps[-1].test for b in d.branches]
    assert leaf_tests == ["C", "D", "E"]


def test_split_jp_structure():
    d = split(parse("//A[.//B/C][.//B/D]//E"))
    by_depth = {jp.depth: jp for jp in d.jps}
    a, b = by_depth[0], by_depth[1]
    assert steps_to_str(a.trunk_steps) == "//A"
    assert steps_to_str(b.trunk_steps) == "//A//B"
    assert jp_leaves(d.jps, a) == frozenset({0, 1, 2})
    assert jp_leaves(d.jps, b) == frozenset({0, 1})

    kinds = {g.child is None for g in b.groups}
    assert kinds == {True}
    a_kinds = sorted((g.child is None, steps_to_str(g.steps)) for g in a.groups)
    assert a_kinds == [(False, "//B"), (True, "//E")]
    (jp_group,) = [g for g in a.groups if g.child is not None]
    assert d.jps[jp_group.child] is b
    assert group_leaves(d.jps, jp_group) == frozenset({0, 1})


def test_jp_order_deepest_first():
    d = split(parse("//A[.//B/C][.//B/D]//E"))
    assert [jp.depth for jp in d.jps] == [1, 0]

    d2 = split(parse("//A[./B[./X][./Y]][./C[./P][./Q]]"))
    assert [jp.depth for jp in d2.jps] == [1, 1, 0]
    # equal depth ties break on the smallest contained leaf id
    assert [min(jp_leaves(d2.jps, jp)) for jp in d2.jps] == [0, 2, 0]


def test_split_properties_random():
    rng = random.Random(23)
    for _ in range(400):
        t = parse(random_query(rng))
        d = split(t)
        assert [b.leaf_id for b in d.branches] == list(range(len(d.branches)))
        assert len(d.branches) == len(t.leaves())
        for jp in d.jps:
            assert len(jp.node.children) >= 2
            assert len(jp.groups) == len(jp.node.children)
            group_leafs = [group_leaves(d.jps, g) for g in jp.groups]
            seen: set[int] = set()
            for ids in group_leafs:
                assert not (ids & seen)
                seen |= ids
            assert frozenset(seen) == jp_leaves(d.jps, jp)
            for g in jp.groups:
                full = jp.trunk_steps + g.steps
                for lid in group_leaves(d.jps, g):
                    bs = d.branches[lid].steps
                    assert bs[: len(full)] == full
                if g.child is None:
                    assert d.branches[g.leaf_id].steps == full
                else:
                    assert len(d.jps[g.child].node.children) >= 2
                    assert d.jps[g.child].trunk_steps == full


def test_split_repeats_the_frozen_split_and_jp_order():
    # one walk, JPs in evaluation order and nested groups linked by index,
    # against the two walks, id()-keyed maps and sort it replaced
    rng = random.Random(29)
    reached = Counter()
    for _ in range(5_000):
        text = random_query(rng, max_leaves=6, max_jps=4)
        t = parse(text)
        d, old = split(t), frozen_split.split(t)
        assert d.branches == old.branches, text
        order = frozen_split.jp_order(old)
        assert len(d.jps) == len(order), text
        for jp, want in zip(d.jps, order):
            assert jp.node is want.node, text
            assert (jp.depth, jp.trunk_steps) == (want.depth, want.trunk_steps), text
            assert [(g.steps, g.leaf_id) for g in jp.groups] == [
                (g.steps, g.leaf_id) for g in want.groups], text
            for g, w in zip(jp.groups, want.groups):
                assert (g.child is None) == (w.kind == "leaf"), text
                if g.child is not None:
                    assert d.jps[g.child].node is w.jp_node, text
                    reached["nested"] += 1
        reached["3+ JPs"] += len(d.jps) >= 3
    assert min(reached["nested"], reached["3+ JPs"]) >= 40, reached


def test_branches_reassemble_to_pattern():
    rng = random.Random(31)
    for _ in range(300):
        t = parse(random_query(rng))
        d = split(t)
        chains = []
        for b in d.branches:
            node = None
            for step in reversed(b.steps):
                node = TwigNode(step.axis, step.test, [node] if node else [])
            chains.append(node)
        merged = _merge_siblings(chains)
        assert len(merged) == 1
        assert canonicalize(TwigPattern(merged[0])) == canonicalize(t)
