"""`document.generate` as it was when it recursed once per level of the
tree.  Kept verbatim as the oracle for the iterative generator: both
must give the same bytes and count for every config the recursion can
reach.
"""

from __future__ import annotations

import random

from twigjoin.document import GeneratedDoc, GeneratorConfig


def generate(config: GeneratorConfig) -> GeneratedDoc:
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
