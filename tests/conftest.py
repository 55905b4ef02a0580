"""Shared fixtures and generators for the test suite.

The random query generators come in two flavors: free-form text
(exercises parsing and empty results) and guide-anchored (walks real
paths of a document, so results are usually non-empty and queries
often carry JPs).  Both are rejection-sampled to stated branch/JP
budgets after parsing.
"""

from __future__ import annotations

import random
import re
from contextlib import contextmanager

import numpy as np
import pytest

from twigjoin.document import GeneratorConfig, generate, ingest
from twigjoin.oracle import MaterializedDoc
from twigjoin.path_guide import PathGuide
from twigjoin.twig import CHILD, DESCENDANT, Step, parse, split

TAGS = "ABCDEF"
# Seeds 0-11 with 12, 13 and 14 in place of 2, 6 and 10, whose roots
# draw no children under gen_doc's defaults.
DOC_SEEDS = (0, 1, 12, 3, 4, 5, 13, 7, 8, 9, 14, 11)


def from_tables(tags, parents, extent_rows) -> PathGuide:
    """A guide rebuilt from flat tables, checking them: per node its tag,
    its parent and its extent's labels as rows of components."""
    pg = PathGuide.from_node_table(tags, parents, [np.shape(rows)[1] for rows in extent_rows])
    comps = [np.asarray(rows, dtype=np.int64).ravel() for rows in extent_rows]
    pg.adopt_store(np.concatenate(comps), [*map(len, extent_rows)])
    return pg


def gen_doc(seed: int, target: int = 120, max_depth: int = 8, max_fanout: int = 5):
    """A generated document of at least half the target size.

    The generator stops wherever the random tree ends, which for some
    seeds is a lone root; a test on such a document checks nothing.
    """
    cfg = GeneratorConfig(
        max_depth=max_depth,
        max_fanout=max_fanout,
        seed=seed,
        target_node_count=target,
    )
    doc = generate(cfg)
    if doc.node_count < target / 2:
        raise ValueError(f"seed {seed} gives {doc.node_count} of {target} elements")
    return doc.xml


def fan_out_doc(n: int, depth: int = 4) -> bytes:
    """One B holding n C and n D leaves, each below its own chain of
    `depth` E elements: //B[.//C]//D has n * n answers of deep labels."""
    chain = lambda leaf: "<E>" * depth + f"<{leaf}/>" + "</E>" * depth  # noqa: E731
    return f"<R><B>{(chain('C') + chain('D')) * n}</B></R>".encode()


def deep_query(shape: str, steps: int) -> str:
    """A query of `steps` A steps on one path: a child-axis trunk, or
    predicates nested one in the next."""
    if shape == "trunk":
        return "/A" * steps
    return "//A" + "[./A" * (steps - 1) + "]" * (steps - 1)


DEEP_SHAPES = ("trunk", "predicates")


@contextmanager
def spy_reads(pg: PathGuide):
    """Yield a list that collects the gid of every pg.read_extent call."""
    reads: list[int] = []
    read = pg.read_extent

    def spy(gid: int):
        reads.append(gid)
        return read(gid)

    pg.read_extent = spy
    try:
        yield reads
    finally:
        del pg.read_extent


def build_all(xml: bytes):
    return PathGuide.build_from_xml(xml), MaterializedDoc.from_events(ingest(xml))


def random_query(rng: random.Random, max_leaves: int = 5, max_jps: int = 3) -> str:
    def test():
        return "*" if rng.random() < 0.12 else rng.choice(TAGS)

    def axis():
        return "//" if rng.random() < 0.55 else "/"

    def branch(steps_left: int, leaves_left: int) -> tuple[str, int]:
        out = axis() + test()
        used = 1
        while steps_left > 1 and rng.random() < 0.55:
            n_preds = 0
            if leaves_left - used >= 1 and rng.random() < 0.35:
                n_preds = 1 if rng.random() < 0.75 else 2
            for _ in range(n_preds):
                if leaves_left - used < 1:
                    break
                sub, sub_used = branch(max(1, steps_left // 2), leaves_left - used)
                out += "[." + sub + "]"
                used += sub_used
            out += axis() + test()
            steps_left -= 1
        return out, used

    while True:
        text, _ = branch(rng.randint(1, 6), max_leaves)
        try:
            t = parse(text)
        except Exception:
            continue
        d = split(t)
        if len(d.branches) <= max_leaves and len(d.jps) <= max_jps:
            return text


def group_leaves(jps, group) -> frozenset[int]:
    """The leaf ids under a JP's child group, read down the child links;
    jps is Decomposition.jps, or the schema tables' JPs in order."""
    if group.child is None:
        return frozenset([group.leaf_id])
    return jp_leaves(jps, jps[group.child])


def jp_leaves(jps, jp) -> frozenset[int]:
    """The leaf ids under a JP, read down the child links."""
    return frozenset().union(*(group_leaves(jps, g) for g in jp.groups))


def children(pg: PathGuide, g: int) -> dict[str, int]:
    """The children of guide node g, by tag, in gid order."""
    kids = np.flatnonzero(pg.parents == g).tolist()
    return {pg.tag_names[pg.tags[k]]: k for k in kids}


def _gid_at(pg: PathGuide, path: tuple, depth: int) -> int:
    g = 0
    for tag in path[1 : depth + 1]:
        g = children(pg, g)[tag]
    return g


def anchored_query(rng: random.Random, pg: PathGuide,
                   max_leaves: int = 5, max_jps: int = 3) -> str:
    while True:
        path = pg.path_tags(rng.choice(range(len(pg))))
        k = rng.randint(1, min(4, len(path)))
        idxs = sorted(rng.sample(range(len(path)), k))
        parts = []
        prev = -1
        for i in idxs:
            axis = "/" if i == prev + 1 else "//"
            test = path[i] if rng.random() > 0.10 else "*"
            parts.append((axis, test))
            prev = i
        text = ""
        for j, (axis, test) in enumerate(parts):
            text += axis + test
            if rng.random() < 0.45:
                kids = children(pg, _gid_at(pg, path, idxs[j]))
                if kids:
                    n_preds = 2 if len(kids) > 1 and rng.random() < 0.35 else 1
                    for ctag in rng.sample(sorted(kids), min(n_preds, len(kids))):
                        sub_axis = "./" if rng.random() < 0.7 else ".//"
                        sub_tail = ""
                        grand = children(pg, kids[ctag])
                        if grand and rng.random() < 0.4:
                            sub_tail = ("/" if rng.random() < 0.7 else "//") \
                                + rng.choice(sorted(grand))
                        text += f"[{sub_axis}{ctag}{sub_tail}]"
        try:
            t = parse(text)
        except Exception:
            continue
        d = split(t)
        if len(d.branches) <= max_leaves and len(d.jps) <= max_jps:
            return text


def mixed_query(rng: random.Random, pg: PathGuide) -> str:
    if rng.random() < 0.55:
        return anchored_query(rng, pg)
    return random_query(rng)


def steps_to_regex(steps: tuple[Step, ...]) -> re.Pattern:
    """Independent oracle for steps_match: tag paths as strings.

    Valid only for single-character tags.  A child step consumes one
    tag, a descendant step consumes at least one and ends on a match.
    """
    out = []
    for step in steps:
        test = "." if step.test == "*" else re.escape(step.test)
        if step.axis == CHILD:
            out.append(test)
        else:
            out.append(f".*{test}")
    return re.compile("".join(out) + r"\Z")


def random_steps(rng: random.Random, n: int) -> tuple[Step, ...]:
    return tuple(
        Step(
            CHILD if rng.random() < 0.5 else DESCENDANT,
            "*" if rng.random() < 0.15 else rng.choice(TAGS),
        )
        for _ in range(n)
    )


@pytest.fixture(scope="session")
def small_corpus():
    """A pile of (xml, pg, doc) triples reused across test modules."""
    out = []
    for i, seed in enumerate(DOC_SEEDS):
        xml = gen_doc(seed=seed, target=40 + i * 25)
        pg, doc = build_all(xml)
        out.append((xml, pg, doc))
    return out
