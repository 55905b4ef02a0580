"""`twig.split` as it walked the twig twice, keyed its maps by id() of
the twig nodes and named a nested group's JP by its node, and
`twig.jp_order`, which sorted the JPs it returned into evaluation
order.  Kept verbatim, with the descriptors they made, as the oracle
for the one-walk split: both must give the same branches, JPs, groups
and links for every twig.
"""

from __future__ import annotations

from dataclasses import dataclass

from twigjoin.twig import SingleBranchQuery, Step, TwigNode, TwigPattern


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
        if len(node.children) >= 2:
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
