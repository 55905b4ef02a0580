"""XML ingestion into a labeled element-event stream, and a seeded
random document generator for benchmarking.

Only element structure is indexed: text, attributes, comments and
processing instructions carry no query semantics here and are skipped.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from typing import IO, Iterator, NamedTuple, Sequence, Union
from xml.parsers import expat

from .dewey import EPSILON, DeweyLabel
from .twig import is_name

DEFAULT_DEPTH_CAP = 64
_CHUNK = 1 << 16


class IngestError(ValueError):
    """Malformed input or structural violation while reading XML."""


class _DepthCapHit(Exception):
    pass


class NodeEvent(NamedTuple):
    """One element, in document order: its label and tag.  A named tuple,
    so making one per element costs one tuple; immutable, and equal
    events compare and hash equal."""

    label: DeweyLabel
    tag: str

    @property
    def depth(self) -> int:
        return self.label.level


def ingest(
    source: Union[bytes, IO[bytes]],
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> Iterator[NodeEvent]:
    """Stream one NodeEvent per element, preorder.

    The document element gets the empty label; each element's children
    get consecutive ordinals starting at 1 (all element children count,
    regardless of tag).  Raises IngestError naming the byte offset on
    malformed XML, or when nesting exceeds `depth_cap`.
    """
    if isinstance(source, (bytes, bytearray)):
        stream: IO[bytes] = io.BytesIO(source)
    else:
        stream = source

    parser = expat.ParserCreate()
    pending: list[NodeEvent] = []
    # per open element, its label and its children so far: two stacks,
    # so that an element keeps no container but its label and event
    labels: list[DeweyLabel] = []
    counts: list[int] = []
    depth_err: list[str] = []
    # NodeEvent(label, tag) and a child's DeweyLabel without their
    # Python-level constructors: n below is always 1 or more
    new_event = new_label = tuple.__new__
    emit, push, push_count = pending.append, labels.append, counts.append
    pop, pop_count = labels.pop, counts.pop

    def on_start(tag: str, _attrs) -> None:
        if len(labels) >= depth_cap:
            depth_err.append(
                f"element depth exceeds cap of {depth_cap} at byte {parser.CurrentByteIndex}"
            )
            raise _DepthCapHit
        if labels:
            n = counts[-1] + 1
            counts[-1] = n
            label = new_label(DeweyLabel, (*labels[-1], n))
        else:
            label = EPSILON
        emit(new_event(NodeEvent, (label, tag)))
        push(label)
        push_count(0)

    def on_end(_tag: str) -> None:
        pop()
        pop_count()

    parser.StartElementHandler = on_start
    parser.EndElementHandler = on_end

    while True:
        chunk = stream.read(_CHUNK)
        try:
            parser.Parse(chunk, not chunk)
        except _DepthCapHit:
            raise IngestError(depth_err[0]) from None
        except expat.ExpatError as exc:
            raise IngestError(
                f"malformed XML at byte {parser.ErrorByteIndex}: "
                f"{expat.errors.messages[exc.code]}"
            ) from None
        yield from pending
        pending.clear()
        if not chunk:
            break


@dataclass
class GeneratorConfig:
    """Knobs for the random document generator.

    Depth counts nodes on the root path, so max_depth=1 yields a lone
    root element.  Child counts are uniform in [0, max_fanout]; tags are
    uniform over the alphabet, so homonymous siblings are common.  Every
    tag must be a step name of the query grammar (twig.is_name).
    """

    max_depth: int = 12
    max_fanout: int = 10
    tag_alphabet: Sequence[str] = ("A", "B", "C", "D", "E", "F")
    seed: int = 0
    target_node_count: int = 10_000

    def validate(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.max_fanout < 1:
            raise ValueError("max_fanout must be >= 1")
        if not self.tag_alphabet:
            raise ValueError("tag_alphabet must be non-empty")
        bad = [tag for tag in self.tag_alphabet if not is_name(tag)]
        if bad:
            raise ValueError(f"tag {bad[0]!r} is not a query step name")
        if self.target_node_count < 1:
            raise ValueError("target_node_count must be >= 1")


@dataclass(frozen=True)
class GeneratedDoc:
    xml: bytes
    node_count: int


def generate(config: GeneratorConfig) -> GeneratedDoc:
    """Deterministic random document: same config and seed, same bytes.

    Top-down expansion; generation stops opening new subtrees once
    target_node_count is reached, so the final count may overshoot by at
    most the depth of the open path, and undershoots when the random tree
    ends first: a root that draws no children is the whole document.
    """
    config.validate()
    rng = random.Random(config.seed)
    alphabet = list(config.tag_alphabet)
    parts: list[str] = ['<?xml version="1.0" encoding="UTF-8"?>\n']
    choice, randint, emit = rng.choice, rng.randint, parts.append
    target, max_depth, max_fanout = config.target_node_count, config.max_depth, config.max_fanout
    # per open element, its tag and the children it has left to draw: two
    # stacks in place of recursion, so any max_depth works
    tags: list[str] = []
    left: list[int] = []
    count = 0
    while True:  # draw an element, one level under the open ones
        tag = choice(alphabet)
        count += 1
        n_children = randint(0, max_fanout) if len(tags) + 1 < max_depth else 0
        if n_children and count < target:
            emit(f"<{tag}>")
            tags.append(tag)
            left.append(n_children - 1)
            continue
        emit(f"<{tag}/>")
        while tags:  # close the open elements that draw no further child
            if left[-1] and count < target:
                left[-1] -= 1
                break
            emit(f"</{tags.pop()}>")
            left.pop()
        else:
            break
    parts.append("\n")
    return GeneratedDoc("".join(parts).encode("utf-8"), count)
