"""Seeded inputs for the benchmark: documents and query pools.

Two document families:

* ``frag`` documents come from the engine's own random generator
  (``twigjoin.generate``): tags uniform over a small alphabet, so almost
  every root path is distinct and the guide is nearly as large as the
  document.
* ``schema`` documents come from ``schema_xml`` below: a fixed,
  XMark-shaped element schema where only repetition counts and optional
  children are random, so the guide stays a few dozen nodes and every
  extent holds thousands of labels.

Query pools are drawn from templates.  Frag templates fill tag slots
with distinct tags from the alphabet; schema templates are instantiated
from real paths of the schema tree.  Every twig branch below a join
point uses the child axis only: descendant-tailed twigs explode (one
probe, ``//B[.//C]//D`` on the frag corpus, produced 1,299,488 matches,
60 s of evaluation and 2.2 GB of peak memory), which would make runs
unsteady and hide everything else.  The frag pool keeps one such query,
``//A[./B][.//C]/D``, because it is the ROADMAP baseline probe.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

FRAG_TAGS = "ABCDEF"

# Always in the frag stream: the ROADMAP baseline probes.
FRAG_FIXED = ("//A//A", "//A[./B][.//C]/D", "//*[./A][./B]")

FRAG_PATH_TEMPLATES = (
    "//{0}/{1}/{2}",
    "//{0}//{1}/{2}",
    "//{0}/*/{1}",
    "//{0}/{1}/{2}/{3}",
)

# One, two and three join points, a `*` join point, and nesting.
FRAG_TWIG_TEMPLATES = (
    "//{0}/{1}[./{2}]/{3}",
    "//{0}/{1}[./{2}][./{3}]",
    "//{0}[./{1}/{2}][./{3}]/{4}",
    "//{0}/{1}/*[./{2}]/{3}",
    "//{0}/{1}[./{2}[./{3}]/{4}]/{5}",
    "//{0}[./{1}[./{2}]/{3}]/{4}",
    "//{0}[./{1}[./{2}]/{3}][./{4}[./{5}]/{0}]/{1}",
)


def frag_queries(
    rng: random.Random, paths_per_template: int, twigs_per_template: int
) -> tuple[list[str], list[str]]:
    """Distinct path and twig queries over the frag tag alphabet."""

    def fill(templates: tuple[str, ...], per: int) -> list[str]:
        out: list[str] = []
        for tpl in templates:
            while sum(1 for q in out if _same_template(q, tpl)) < per:
                q = tpl.format(*rng.sample(FRAG_TAGS, 6))
                if q not in out and q not in FRAG_FIXED:
                    out.append(q)
        return out

    return fill(FRAG_PATH_TEMPLATES, paths_per_template), fill(
        FRAG_TWIG_TEMPLATES, twigs_per_template
    )


def _same_template(query: str, template: str) -> bool:
    return _shape(query) == _shape(template.format(*"XXXXXX"))


def _shape(query: str) -> str:
    return "".join("X" if ch in FRAG_TAGS else ch for ch in query)


# ------------------------------------------------------------ schema


@dataclass(eq=False)
class SpecNode:
    """One element type of the schema.

    ``occurs`` is how many of it each parent holds: an int (exactly),
    a float (present with that probability), an (lo, hi) pair (uniform
    count) or a str naming a top-level collection sized by scale.
    """

    tag: str
    occurs: object
    children: list["SpecNode"] = field(default_factory=list)
    parent: "SpecNode | None" = None

    @property
    def path(self) -> tuple[str, ...]:
        return (self.parent.path if self.parent else ()) + (self.tag,)

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()

    def bounded(self) -> bool:
        """No top-level collection below: a twig rooted here cannot
        cross-multiply two collections."""
        return all(
            not isinstance(n.occurs, str) for c in self.children for n in c.walk()
        )


def _n(tag: str, occurs: object, *children: SpecNode) -> SpecNode:
    node = SpecNode(tag, occurs, list(children))
    for c in children:
        c.parent = node
    return node


def _item() -> SpecNode:
    return _n(
        "item", "items",
        _n("name", 1), _n("quantity", 1), _n("description", 1, _n("text", 1)),
        _n("mail", (0, 3), _n("from", 1), _n("date", 1)),
    )


REGIONS = ("europe", "asia")


def schema_spec() -> SpecNode:
    return _n(
        "site", 1,
        _n("regions", 1, *(_n(r, 1, _item()) for r in REGIONS)),
        _n("people", 1, _n(
            "person", "persons",
            _n("name", 1), _n("emailaddress", 1),
            _n("address", 0.5, _n("city", 1), _n("country", 1)),
            _n("profile", 0.6, _n("interest", (0, 3)), _n("age", 0.5)),
            _n("watches", 0.4, _n("watch", (1, 4))),
        )),
        _n("open_auctions", 1, _n(
            "open_auction", "open_auctions",
            _n("initial", 1),
            _n("bidder", (0, 4), _n("date", 1), _n("increase", 1), _n("personref", 1)),
            _n("current", 1), _n("seller", 1),
            _n("annotation", 1, _n("author", 1), _n("description", 1, _n("text", 1))),
        )),
        _n("closed_auctions", 1, _n(
            "closed_auction", "closed_auctions",
            _n("seller", 1), _n("buyer", 1), _n("price", 1), _n("date", 1),
        )),
    )


# XMark's collection ratios at scale factor 1; items split over REGIONS.
_COLLECTION_WEIGHT = {
    "items": 21750 / len(REGIONS),
    "persons": 25500,
    "open_auctions": 12000,
    "closed_auctions": 9750,
}


def _mean_count(occurs: object) -> float:
    if isinstance(occurs, tuple):
        return (occurs[0] + occurs[1]) / 2
    return float(occurs)


def _mean_size(node: SpecNode) -> float:
    return 1 + sum(_mean_count(c.occurs) * _mean_size(c) for c in node.children)


def _collection_sizes(spec: SpecNode, target_elements: int) -> dict[str, int]:
    per_scale = sum(
        _COLLECTION_WEIGHT[n.occurs] * _mean_size(n)
        for n in spec.walk()
        if isinstance(n.occurs, str)
    )
    scale = target_elements / per_scale
    return {k: max(1, round(w * scale)) for k, w in _COLLECTION_WEIGHT.items()}


def schema_xml(seed: int, target_elements: int) -> tuple[bytes, int]:
    """A schema-shaped document of about `target_elements` elements;
    returns (XML bytes, element count)."""
    rng = random.Random(seed)
    spec = schema_spec()
    sizes = _collection_sizes(spec, target_elements)
    parts: list[str] = []
    count = 0

    def times(occurs: object) -> int:
        if isinstance(occurs, str):
            return sizes[occurs]
        if isinstance(occurs, tuple):
            return rng.randint(*occurs)
        if isinstance(occurs, float):
            return 1 if rng.random() < occurs else 0
        return occurs

    def emit(node: SpecNode) -> None:
        nonlocal count
        count += 1
        kids = [(c, times(c.occurs)) for c in node.children]
        if not any(k for _, k in kids):
            parts.append(f"<{node.tag}/>")
            return
        parts.append(f"<{node.tag}>")
        for c, k in kids:
            for _ in range(k):
                emit(c)
        parts.append(f"</{node.tag}>")

    emit(spec)
    return "".join(parts).encode("utf-8"), count


def _branch(node: SpecNode, rng: random.Random) -> str:
    """A child-axis path from `node` down one or two steps."""
    if node.children and rng.random() < 0.5:
        return f"{node.tag}/{rng.choice(node.children).tag}"
    return node.tag


def _trunk(node: SpecNode, rng: random.Random) -> str:
    form = rng.randrange(3)
    if form == 0:
        return "//" + node.tag
    if form == 1:
        return f"//{node.parent.tag}/{node.tag}"
    path = ["*" if t in REGIONS else t for t in node.path]
    return "/" + "/".join(path)


def _twig_forms(spec: SpecNode):
    """(join-point candidates, builder) per twig form.

    A candidate is a bounded element type with two or more child types,
    so every twig it roots has answers bounded by a few per witness.
    """
    jps = [n for n in spec.walk() if len(n.children) >= 2 and n.bounded()]

    def nested_children(n: SpecNode) -> list[SpecNode]:
        return [c for c in n.children if c in jps]

    def one_jp(n, rng):
        a, b = rng.sample(n.children, 2)
        return f"{_trunk(n, rng)}[./{_branch(a, rng)}]/{_branch(b, rng)}"

    def three_branch(n, rng):
        a, b, c = rng.sample(n.children, 3)
        return f"{_trunk(n, rng)}[./{_branch(a, rng)}][./{_branch(b, rng)}]/{_branch(c, rng)}"

    def star_jp(n, rng):
        a, b = rng.sample(n.children, 2)
        return f"//{n.parent.tag}/*[./{_branch(a, rng)}]/{_branch(b, rng)}"

    def sub(c, rng):
        x, y = rng.sample(c.children, 2)
        return f"{c.tag}[./{x.tag}]/{y.tag}"

    def nested(n, rng):
        c = rng.choice(nested_children(n))
        other = rng.choice([k for k in n.children if k is not c])
        return f"{_trunk(n, rng)}[./{sub(c, rng)}]/{_branch(other, rng)}"

    def three_jp(n, rng):
        c1, c2 = rng.sample(nested_children(n), 2)
        return f"{_trunk(n, rng)}[./{sub(c1, rng)}][./{sub(c2, rng)}]"

    return (
        (jps, one_jp),
        ([n for n in jps if len(n.children) >= 3], three_branch),
        (jps, star_jp),
        ([n for n in jps if nested_children(n)], nested),
        ([n for n in jps if len(nested_children(n)) >= 2], three_jp),
    )


def schema_queries(rng: random.Random) -> tuple[list[str], list[str]]:
    """Distinct path and twig queries over real paths of the schema.

    Every element type gets one path query and every (twig form, join
    point candidate) pair one twig, so the pool's make-up is the same
    for every seed; the seed picks trunk spellings and branches.
    """
    spec = schema_spec()
    paths: list[str] = []
    for n in spec.walk():
        if n.parent is None:
            continue
        _add_distinct(paths, lambda: _path(n, rng))
    twigs: list[str] = []
    for candidates, build in _twig_forms(spec):
        for n in candidates:
            _add_distinct(twigs, lambda: build(n, rng))
    return paths, twigs


def _path(n: SpecNode, rng: random.Random) -> str:
    if n.parent.parent is None or rng.random() < 0.5:
        return _trunk(n, rng)
    return f"//{n.parent.parent.tag}//{n.tag}"


def _add_distinct(out: list[str], draw, attempts: int = 20) -> None:
    for _ in range(attempts):
        q = draw()
        if q not in out:
            out.append(q)
            return
