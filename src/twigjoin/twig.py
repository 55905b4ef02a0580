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
descriptor for every JP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CHILD = "child"
DESCENDANT = "descendant"
WILDCARD = "*"

MAX_PATH_STEPS = 256  # steps on one root-to-leaf path: keeps every twig walk shallow
_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | set("0123456789.-")


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

    def is_jp(self) -> bool:
        return len(self.children) >= 2


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
    leaf or the topmost JP inside that subtree."""

    kind: str  # "leaf" | "jp"
    steps: tuple[Step, ...]
    leaf_ids: frozenset[int]
    leaf_id: int | None = None
    jp_node: TwigNode | None = None


@dataclass(frozen=True)
class JPDescriptor:
    node: TwigNode
    depth: int  # twig depth of the JP node, root = 0
    trunk_steps: tuple[Step, ...]  # root .. JP inclusive
    groups: tuple[ChildGroup, ...]
    leaf_ids: frozenset[int]

    @property
    def min_leaf(self) -> int:
        return min(self.leaf_ids)


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


def _parse_step(s: str, i: int, axis: str, depth: int) -> tuple[TwigNode, int]:
    """The step at twig depth `depth` (the query's first step is 1)."""
    if depth > MAX_PATH_STEPS:
        raise QuerySyntaxError(f"a path of the query is longer than {MAX_PATH_STEPS} steps", i)
    test, i = _parse_test(s, i)
    node = TwigNode(axis, test)
    while i < len(s) and s[i] == "[":
        start = i
        child, i = _parse_relpath(s, i + 1, depth + 1)
        if i >= len(s) or s[i] != "]":
            raise QuerySyntaxError("unterminated predicate", start)
        i += 1
        node.children.append(child)
    return node, i


def _parse_relpath(s: str, i: int, depth: int) -> tuple[TwigNode, int]:
    if i >= len(s) or s[i] != ".":
        raise QuerySyntaxError("predicate must start with './' or './/'", i)
    axis, i = _parse_axis(s, i + 1)
    root, i = _parse_step(s, i, axis, depth)
    tail = root
    while i < len(s) and s[i] == "/":
        axis, i = _parse_axis(s, i)
        depth += 1
        node, i = _parse_step(s, i, axis, depth)
        tail.children.append(node)
        tail = node
    return root, i


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
    offending character in text, on malformed input, including a
    missing slash between a predicate and the next trunk step, and at
    the first step past MAX_PATH_STEPS on any root-to-leaf path.
    """
    s = text.rstrip()  # positions index text itself: the leading blanks stay
    if not s:
        raise QuerySyntaxError("empty query", 0)
    axis, i = _parse_axis(s, len(s) - len(s.lstrip()))
    root, i = _parse_step(s, i, axis, 1)
    tail, depth = root, 1
    while i < len(s):
        if s[i] != "/":
            raise QuerySyntaxError("expected '/' or '//'", i)
        axis, i = _parse_axis(s, i)
        depth += 1
        node, i = _parse_step(s, i, axis, depth)
        tail.children.append(node)
        tail = node
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


def _canon_node(node: TwigNode) -> TwigNode:
    kids = [_canon_node(c) for c in node.children]
    kids.sort(key=lambda c: _print_node(c, first=False))
    return TwigNode(node.axis, node.test, kids)


def canonicalize(t: TwigPattern) -> TwigPattern:
    """Same twig with children everywhere in a deterministic order."""
    return TwigPattern(_canon_node(t.root))


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
    """One SingleBranchQuery per leaf plus a descriptor per JP."""
    branches: list[SingleBranchQuery] = []
    leaf_id_of: dict[int, int] = {}
    leaves_under: dict[int, frozenset[int]] = {}

    def collect(node: TwigNode, steps: tuple[Step, ...]) -> frozenset[int]:
        steps = steps + (Step(node.axis, node.test),)
        if node.is_leaf():
            leaf_id = len(branches)
            branches.append(SingleBranchQuery(steps, leaf_id))
            leaf_id_of[id(node)] = leaf_id
            ids = frozenset([leaf_id])
        else:
            acc: set[int] = set()
            for c in node.children:
                acc |= collect(c, steps)
            ids = frozenset(acc)
        leaves_under[id(node)] = ids
        return ids

    collect(t.root, ())

    def group_of(child: TwigNode) -> ChildGroup:
        steps = [Step(child.axis, child.test)]
        node = child
        while len(node.children) == 1:
            node = node.children[0]
            steps.append(Step(node.axis, node.test))
        if node.children:
            return ChildGroup(
                kind="jp",
                steps=tuple(steps),
                leaf_ids=leaves_under[id(child)],
                jp_node=node,
            )
        return ChildGroup(
            kind="leaf",
            steps=tuple(steps),
            leaf_ids=leaves_under[id(child)],
            leaf_id=leaf_id_of[id(node)],
        )

    jps: list[JPDescriptor] = []

    def find_jps(node: TwigNode, steps: tuple[Step, ...], depth: int) -> None:
        steps = steps + (Step(node.axis, node.test),)
        if node.is_jp():
            jps.append(
                JPDescriptor(
                    node=node,
                    depth=depth,
                    trunk_steps=steps,
                    groups=tuple(group_of(c) for c in node.children),
                    leaf_ids=leaves_under[id(node)],
                )
            )
        for c in node.children:
            find_jps(c, steps, depth + 1)

    find_jps(t.root, (), 0)
    return Decomposition(t, tuple(branches), tuple(jps))


def jp_order(d: Decomposition) -> list[JPDescriptor]:
    """Deepest JP first; ties broken by leftmost leaf."""
    return sorted(d.jps, key=lambda jp: (-jp.depth, jp.min_leaf))
