"""Twig patterns: parsing, splitting into single branches, join points.

Grammar::

    Query     := ('/'|'//') Step (('/'|'//') Step)*
    Step      := Test Predicate*
    Test      := NAME | '*'
    Predicate := '[' RelPath ']'
    RelPath   := ('./'|'.//') Step (('/'|'//') Step)*

Predicates become twig children; the step after a step's last predicate
continues the trunk.  A node with two or more children is a Join Point
(JP).  Splitting yields one single-branch query per leaf plus a
descriptor for every JP, in one walk.  The descriptors come in
evaluation order, deepest JP first (ties by leftmost leaf), and a JP's
child group ends at a leaf, named by its branch's leaf id, or at a
nested JP, named by its index in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CHILD = "child"
DESCENDANT = "descendant"
WILDCARD = "*"

MAX_PATH_STEPS = 256  # steps on one root-to-leaf path: keeps every twig walk shallow
_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | set("0123456789.-")


def is_name(text: str) -> bool:
    """Whether text is a step name: a letter or "_", then letters, digits,
    "_", "." or "-".  Such a name is an XML name too."""
    return text[:1] in _NAME_START and set(text[1:]) <= _NAME_CONT


class QuerySyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass
class TwigNode:
    axis: str
    test: str
    children: list["TwigNode"] = field(default_factory=list)

    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class TwigPattern:
    root: TwigNode

    def nodes(self) -> list[TwigNode]:
        out: list[TwigNode] = []
        stack = [self.root]
        while stack:
            n = stack.pop()
            out.append(n)
            stack.extend(reversed(n.children))
        return out

    def leaves(self) -> list[TwigNode]:
        return [n for n in self.nodes() if n.is_leaf()]


@dataclass(frozen=True)
class Step:
    axis: str
    test: str


@dataclass(frozen=True)
class SingleBranchQuery:
    steps: tuple[Step, ...]
    leaf_id: int


@dataclass(frozen=True)
class ChildGroup:
    """One child subtree of a JP: a pure step path down to either a
    leaf or the topmost JP inside that subtree.  Exactly one of leaf_id
    (the leaf's branch) and child (the JP's index in Decomposition.jps,
    which is its table's index too) is set."""

    steps: tuple[Step, ...]
    leaf_id: int | None = None
    child: int | None = None


@dataclass(frozen=True)
class JPDescriptor:
    node: TwigNode
    depth: int  # twig depth of the JP node, root = 0
    trunk_steps: tuple[Step, ...]  # root .. JP inclusive
    groups: tuple[ChildGroup, ...]


@dataclass(frozen=True)
class Decomposition:
    pattern: TwigPattern
    branches: tuple[SingleBranchQuery, ...]
    jps: tuple[JPDescriptor, ...]


def test_matches(test: str, tag: str) -> bool:
    return test == WILDCARD or test == tag


def steps_to_str(steps: tuple[Step, ...]) -> str:
    return "".join(("//" if s.axis == DESCENDANT else "/") + s.test for s in steps)


# ---------------------------------------------------------------- parsing


def _parse_axis(s: str, i: int) -> tuple[str, int]:
    if s.startswith("//", i):
        return DESCENDANT, i + 2
    if s.startswith("/", i):
        return CHILD, i + 1
    raise QuerySyntaxError("expected '/' or '//'", i)


def _parse_test(s: str, i: int) -> tuple[str, int]:
    if i < len(s) and s[i] == "*":
        return WILDCARD, i + 1
    if i >= len(s) or s[i] not in _NAME_START:
        raise QuerySyntaxError("empty step", i)
    j = i + 1
    while j < len(s) and s[j] in _NAME_CONT:
        j += 1
    return s[i:j], j


def _parse_chain(s: str, i: int, axis: str, depth: int) -> tuple[TwigNode, int]:
    """Steps from twig depth `depth` on (the query's first step is 1),
    each with its predicates and each the previous one's child, while a
    '/' or '//' follows; stops at the first other character."""
    chain: list[TwigNode] = []
    while True:
        if depth > MAX_PATH_STEPS:
            raise QuerySyntaxError(f"a path of the query is longer than {MAX_PATH_STEPS} steps", i)
        test, i = _parse_test(s, i)
        node = TwigNode(axis, test)
        while i < len(s) and s[i] == "[":
            i += 1
            if i >= len(s) or s[i] != ".":
                raise QuerySyntaxError("predicate must start with './' or './/'", i)
            axis, i = _parse_axis(s, i + 1)
            child, i = _parse_chain(s, i, axis, depth + 1)
            if i >= len(s) or s[i] != "]":
                raise QuerySyntaxError("unterminated predicate: expected ']'", i)
            i += 1
            node.children.append(child)
        if chain:
            chain[-1].children.append(node)
        chain.append(node)
        if i >= len(s) or s[i] != "/":
            return chain[0], i
        axis, i = _parse_axis(s, i)
        depth += 1


def _merge_siblings(children: list[TwigNode]) -> list[TwigNode]:
    """Merge siblings with the same (axis, test) into one node.

    The twig is a trie of its branches: two predicate chains sharing a
    step prefix share the node, which is how a step becomes a JP.  A
    leaf never merges with an internal sibling (end nodes must stay
    leaves), and duplicate leaf siblings collapse to one.
    """
    out: list[TwigNode] = []
    leaves: dict[tuple[str, str], TwigNode] = {}
    internal: dict[tuple[str, str], TwigNode] = {}
    for c in children:
        key = (c.axis, c.test)
        if c.is_leaf():
            if key not in leaves:
                leaves[key] = c
                out.append(c)
        elif key in internal:
            internal[key].children.extend(c.children)
        else:
            internal[key] = c
            out.append(c)
    for c in out:
        if c.children:
            c.children = _merge_siblings(c.children)
    return out


def parse(text: str) -> TwigPattern:
    """Parse query text into a twig pattern.

    Raises QuerySyntaxError, whose .position is the index of the
    offending character in text (the first one no query goes on with,
    or the end of the text, its trailing blanks trimmed, when it ends
    too soon), on malformed input, including a missing slash between a
    predicate and the next trunk step and a predicate whose ']' is
    missing, and at the first step past MAX_PATH_STEPS on any
    root-to-leaf path.
    """
    s = text.rstrip()  # positions index text itself: the leading blanks stay
    if not s:
        raise QuerySyntaxError("empty query", 0)
    axis, i = _parse_axis(s, len(s) - len(s.lstrip()))
    root, i = _parse_chain(s, i, axis, 1)
    if i < len(s):
        raise QuerySyntaxError("expected '/' or '//'", i)
    root.children = _merge_siblings(root.children)
    return TwigPattern(root)


# ---------------------------------------------------------------- printing


def _axis_str(axis: str, first: bool) -> str:
    if axis == DESCENDANT:
        return ".//" if first else "//"
    return "./" if first else "/"


def _print_node(node: TwigNode, first: bool) -> str:
    out = _axis_str(node.axis, first) + node.test
    for pred in node.children[:-1]:
        out += "[" + _print_node(pred, first=True) + "]"
    if node.children:
        out += _print_node(node.children[-1], first=False)
    return out


def print_query(t: TwigPattern) -> str:
    """Canonical printer; parse(print_query(t)) reproduces t."""
    return _print_node(t.root, first=False)


# ---------------------------------------------------------------- matching


def steps_match(steps: tuple[Step, ...], tags: tuple[str, ...]) -> bool:
    """True iff the step sequence consumes exactly the whole tag path.

    A child step consumes one tag; a descendant step consumes one or
    more, the last of which must satisfy its test.  Dynamic program
    over reachable consumption points, so repeated tags cost nothing
    extra.
    """
    m = len(tags)
    reach = {0}
    for step in steps:
        nxt: set[int] = set()
        for j in reach:
            if step.axis == CHILD:
                if j < m and test_matches(step.test, tags[j]):
                    nxt.add(j + 1)
            else:
                for j2 in range(j, m):
                    if test_matches(step.test, tags[j2]):
                        nxt.add(j2 + 1)
        if not nxt:
            return False
        reach = nxt
    return m in reach


# ---------------------------------------------------------------- splitting


def split(t: TwigPattern) -> Decomposition:
    """One SingleBranchQuery per leaf, in preorder, plus a descriptor per
    JP in evaluation order: deepest first, ties broken by leftmost leaf.

    One walk down the twig: a group is a chain of one-child steps, and
    the JP that ends one is walked on the spot, so it is found after
    every JP beneath it.  A nested group names its JP by finding order
    until the JPs are sorted, then by the JP's place in jps.
    """
    branches: list[SingleBranchQuery] = []
    found: list[tuple] = []  # per JP as found: its sort key, node, depth, trunk, groups

    def group(node: TwigNode, trunk: tuple[Step, ...], depth: int) -> tuple:
        """(steps, leaf_id, found index) of the group that starts at node."""
        steps = [Step(node.axis, node.test)]
        while len(node.children) == 1:
            node, depth = node.children[0], depth + 1
            steps.append(Step(node.axis, node.test))
        trunk += tuple(steps)
        if not node.children:
            branches.append(SingleBranchQuery(trunk, len(branches)))
            return tuple(steps), len(branches) - 1, None
        key = (-depth, len(branches))
        groups = [group(c, trunk, depth + 1) for c in node.children]
        found.append((key, node, depth, trunk, groups))
        return tuple(steps), None, len(found) - 1

    group(t.root, (), 0)
    order = sorted(range(len(found)), key=lambda f: found[f][0])
    rank = {f: r for r, f in enumerate(order)}  # finding order -> place in jps
    jps = []
    for f in order:
        _, node, depth, trunk, groups = found[f]
        links = tuple(ChildGroup(steps, leaf_id, None if c is None else rank[c])
                      for steps, leaf_id, c in groups)
        jps.append(JPDescriptor(node, depth, trunk, links))
    return Decomposition(t, tuple(branches), tuple(jps))
