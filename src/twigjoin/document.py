"""XML ingestion into a labeled element-event stream, and a seeded
random document generator for benchmarking.

Only element structure is indexed: text, attributes, comments and
processing instructions carry no query semantics here and are skipped.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from typing import IO, Iterator, Sequence, Union
from xml.parsers import expat

from .dewey import EPSILON, DeweyLabel

DEFAULT_DEPTH_CAP = 64
_CHUNK = 1 << 16


class IngestError(ValueError):
    """Malformed input or structural violation while reading XML."""


class _DepthCapHit(Exception):
    pass


@dataclass(frozen=True)
class NodeEvent:
    """One element, in document order."""

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
    # Stack entries are [label, child_count] for every open element.
    stack: list[list] = []
    depth_err: list[str] = []

    def on_start(tag: str, _attrs) -> None:
        if len(stack) >= depth_cap:
            depth_err.append(
                f"element depth exceeds cap of {depth_cap} at byte {parser.CurrentByteIndex}"
            )
            raise _DepthCapHit
        if stack:
            top = stack[-1]
            top[1] += 1
            label = top[0].child(top[1])
        else:
            label = EPSILON
        pending.append(NodeEvent(label, tag))
        stack.append([label, 0])

    def on_end(_tag: str) -> None:
        stack.pop()

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
    uniform over the alphabet, so homonymous siblings are common.
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
    count = 0

    def emit(depth: int) -> None:
        nonlocal count
        tag = rng.choice(alphabet)
        count += 1
        n_children = 0
        if depth < config.max_depth:
            n_children = rng.randint(0, config.max_fanout)
        kept = 0
        for _ in range(n_children):
            if count >= config.target_node_count:
                break
            if kept == 0:
                parts.append(f"<{tag}>")
            kept += 1
            emit(depth + 1)
        if kept:
            parts.append(f"</{tag}>")
        else:
            parts.append(f"<{tag}/>")

    emit(1)
    parts.append("\n")
    return GeneratedDoc("".join(parts).encode("utf-8"), count)
