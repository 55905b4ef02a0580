"""Release gate for the engine: nine criteria, one verdict line each.

Each test prints ``criterion N: PASS/FAIL - ...`` straight to the real
stdout so the verdict survives pytest's capture, then asserts.  The
criteria mix exact fixtures (label algebra, jump landing, round trips)
with statistical sweeps (oracle equivalence, trend curves on a large
generated document).
"""

from __future__ import annotations

import csv
import io
import random
import sys
import time
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest

from twigjoin import index_io
from twigjoin.cli import main
from twigjoin.dewey import (
    EPSILON,
    DeweyLabel,
    child_label,
    compare,
    decode_array,
    encode_array,
    encoded_lens,
    format_label,
    parse_label,
)
from twigjoin.document import GeneratorConfig, generate
from twigjoin.dt import build_dt_schema, record_view
from twigjoin.index_io import IndexFormatError
from twigjoin.matcher import Cursor, as_node_list, evaluate, jump
from twigjoin.oracle import naive_match
from twigjoin.path_guide import PathGuide
from twigjoin.twig import parse, split

from conftest import build_all, gen_doc, mixed_query, spy_reads

L = parse_label


def _report(num: int, ok: bool, detail: str) -> bool:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {verdict} - {detail}", file=sys.__stdout__)
    return ok


# ------------------------------------------------------------------ fixtures


@pytest.fixture(scope="module")
def sweep():
    """Shared random sweep backing criteria 2 and 3.

    Runs every engine/oracle pair once and keeps the evidence both
    criteria need, so the expensive loop happens a single time.
    """
    t0 = time.perf_counter()
    mismatches = 0
    read_violations = 0
    pairs = 0
    jp_pairs = 0
    rng = random.Random(20260816)
    for seed in range(26):
        # 1004, 1006, 1009, 1014, 1020 and 1025 give one-element documents
        xml = gen_doc(
            seed=1000 + seed + 26 * (seed in (4, 6, 9, 14, 20, 25)),
            target=40 + (seed % 8) * 20,
            max_depth=8 + (seed % 3) * 2,
            max_fanout=5 + (seed % 2) * 5,
        )
        pg, doc = build_all(xml)
        for _ in range(40):
            while True:
                text = mixed_query(rng, pg)
                dec = split(parse(text))
                if len(dec.branches) <= 5 and len(dec.jps) <= 3:
                    break
            pairs += 1
            with spy_reads(pg) as read_log:
                rs, _ = evaluate(pg, parse(text))
            got = {mt.leaf_labels for mt in rs.matches}
            want = {mt.leaf_labels for mt in naive_match(doc, parse(text))}
            if got != want:
                mismatches += 1
            if dec.jps:
                jp_pairs += 1
                reads = set(read_log)
                schema = build_dt_schema(pg, dec)
                if schema.is_empty:
                    if reads:
                        read_violations += 1
                else:
                    allowed = {
                        e
                        for t in schema.tables
                        for ends, _, _ in record_view(t, pg)
                        for i, group in enumerate(t.jp.groups)
                        if group.child is None
                        for e in ends[i]
                    }
                    if not reads <= allowed:
                        read_violations += 1
    return SimpleNamespace(
        pairs=pairs,
        jp_pairs=jp_pairs,
        mismatches=mismatches,
        read_violations=read_violations,
        elapsed=time.perf_counter() - t0,
    )


@pytest.fixture(scope="module")
def big(tmp_path_factory):
    """A 100k-node generated document, indexed on disk."""
    doc = generate(GeneratorConfig(seed=42, target_node_count=100_000))
    pg = PathGuide.build_from_xml(doc.xml)
    path = tmp_path_factory.mktemp("acc") / "big.idx"
    index_io.save(index_io.Index.from_guide(pg), str(path))
    return SimpleNamespace(path=str(path), pg=pg)


def _bench_rows(capsys, big, mode: str) -> dict[str, dict[str, int]]:
    assert main(["bench", big.path, "--auto", mode]) == 0
    rows = csv.DictReader(io.StringIO(capsys.readouterr().out))
    out: dict[str, dict[str, int]] = {}
    for r in rows:
        out.setdefault(r["name"], {})[r["engine"]] = int(r["nodes_read"])
    return out


# ------------------------------------------------------------------ criteria


def test_criterion_1_label_fixtures():
    ok_child = child_label(L("1.3"), 7) == L("1.3.7")
    cur = Cursor(as_node_list([L("1.2.2.1"), L("1.3.3.1"), L("1.4")]))
    landed = jump(cur, 2, L("1.2"))
    ok_jump = cur.list.label_at(landed.position) == L("1.3.3.1")
    ok_root = EPSILON.level == 0 and format_label(EPSILON) == "ε"
    ok = ok_child and ok_jump and ok_root
    assert _report(
        1, ok,
        f"label fixtures (child={ok_child}, jump={ok_jump}, root={ok_root})",
    )


def test_criterion_2_oracle_equivalence(sweep):
    ok = (
        sweep.mismatches == 0
        and sweep.pairs >= 1000
        and sweep.elapsed < 300.0
    )
    assert _report(
        2, ok,
        f"engine equals naive oracle on {sweep.pairs} pairs, "
        f"{sweep.mismatches} mismatches, {sweep.elapsed:.1f}s",
    )


def test_criterion_3_leaf_only_extent_access(sweep):
    ok = sweep.read_violations == 0 and sweep.jp_pairs >= 200
    assert _report(
        3, ok,
        f"extent reads confined to plan leaf slots on {sweep.jp_pairs} "
        f"join queries, {sweep.read_violations} violations",
    )


def test_criterion_4_jump_equals_linear_scan():
    rng = random.Random(4)
    cases = 10_000
    bad = 0
    for _ in range(cases):
        pool = set()
        n = rng.randint(1, 20)
        for _ in range(6 * n):
            if len(pool) == n:
                break
            lvl = rng.randint(0, 4)
            pool.add(tuple(rng.randint(1, 3) for _ in range(lvl)))
        labels = [DeweyLabel(c) for c in sorted(pool)]
        nl = as_node_list(labels)
        level = rng.randint(0, min(3, nl.rows.shape[1]))
        start = rng.randint(0, len(labels))
        bound = tuple(rng.randint(0, 3) for _ in range(level))
        want = next(
            (
                i for i in range(start, len(labels))
                if (labels[i].components + (0,) * level)[:level] > bound
            ),
            len(labels),
        )
        if jump(Cursor(nl, start), level, bound).position != want:
            bad += 1
    assert _report(4, bad == 0, f"jump == linear on {cases} cases, {bad} off")


def test_criterion_5_encoding_round_trip_and_order():
    spans = (
        (1, 127),
        (128, 16511),
        (16512, 2113663),
        (2113664, 270549119),
        (270549120, 34630287487),
    )
    rng = random.Random(5)
    labels = [EPSILON]
    for _ in range(100_000 - 1):
        lvl = rng.randint(0, 6)
        labels.append(DeweyLabel(tuple(
            rng.randint(*spans[rng.randrange(5)]) for _ in range(lvl)
        )))
    # one call each way through the array codec the index writes with
    widths = np.fromiter(map(len, labels), np.int64, len(labels))
    comps = np.fromiter(chain.from_iterable(labels), np.int64)
    code, _ = encode_array(comps)
    bounds = np.concatenate([[0], np.cumsum(encoded_lens(comps, widths))])
    back, per_label, fault = decode_array(code, bounds)
    if fault is None and np.array_equal(per_label, widths):
        owner = np.repeat(np.arange(len(labels)), widths)
        bad_rt = len(np.unique(owner[back != comps]))
    else:
        bad_rt = len(labels)
    blob = code.tobytes()
    encs = [blob[a:b] for a, b in zip(bounds.tolist(), bounds[1:].tolist())]
    by_bytes = [labels[i] for i in sorted(range(len(labels)), key=encs.__getitem__)]
    by_comp = sorted(labels, key=lambda lab: lab.components)
    order_ok = by_bytes == by_comp
    sign_bad = 0
    for _ in range(10_000):
        i, j = rng.randrange(len(labels)), rng.randrange(len(labels))
        a, b, ea, eb = labels[i], labels[j], encs[i], encs[j]
        if ((compare(a, b) > 0) - (compare(a, b) < 0)) != ((ea > eb) - (ea < eb)):
            sign_bad += 1
    ok = bad_rt == 0 and order_ok and sign_bad == 0
    assert _report(
        5, ok,
        f"{len(labels)} labels round-trip ({bad_rt} bad), byte order "
        f"{'==' if order_ok else '!='} label order, {sign_bad} sign splits",
    )


def test_criterion_6_single_branch_trend(big, capsys):
    rows = _bench_rows(capsys, big, "single-branch")
    names = [f"sb{k}" for k in range(2, 10)]
    dominated = all(rows[n]["dt"] <= rows[n]["leafscan"] for n in names)
    dt_curve = [rows[n]["dt"] for n in names]
    shrinking = all(
        dt_curve[i + 1] <= dt_curve[i] * 1.05
        for i in range(len(dt_curve) - 1)
    )
    ok = dominated and shrinking
    assert _report(
        6, ok,
        f"single-branch sweep: dt<=leafscan per row {dominated}, dt curve "
        f"{dt_curve[0]}->{dt_curve[-1]} non-increasing {shrinking}",
    )


def test_criterion_7_multi_branch_trend(big, capsys):
    rows = _bench_rows(capsys, big, "multi-branch")
    names = [f"mb{k}" for k in range(2, 6)]
    grows = {
        e: all(
            rows[names[i + 1]][e] >= rows[names[i]][e]
            for i in range(len(names) - 1)
        )
        for e in ("dt", "leafscan")
    }
    ratio = {e: rows["mb5"][e] / rows["mb2"][e] for e in ("dt", "leafscan")}
    ok = grows["dt"] and grows["leafscan"] and ratio["dt"] < ratio["leafscan"]
    assert _report(
        7, ok,
        f"multi-branch sweep: monotone {grows}, growth dt "
        f"{ratio['dt']:.2f}x vs leafscan {ratio['leafscan']:.2f}x",
    )


def test_criterion_8_zero_jp_shortcut(big, capsys):
    assert main(["query", big.path, "//A/B", "--count", "--explain"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    _, met = evaluate(big.pg, parse("//A/B"))
    ok = first == "no DT required" and met.prefix_comparisons == 0
    assert _report(
        8, ok,
        f"zero-join query: explain says {first!r}, "
        f"{met.prefix_comparisons} prefix comparisons",
    )


def test_criterion_9_index_round_trip_and_corruption(big):
    payload = index_io.to_bytes(index_io.load(big.path))
    identical = index_io.to_bytes(index_io.from_bytes(payload)) == payload
    rng = random.Random(9)
    caught = 0
    flips = 20
    for _ in range(flips):
        pos = rng.randrange(len(payload))
        bad = bytearray(payload)
        bad[pos] ^= 0x40
        try:
            index_io.from_bytes(bytes(bad))
        except IndexFormatError:
            caught += 1
    ok = identical and caught == flips
    assert _report(
        9, ok,
        f"round trip identical {identical}, {caught}/{flips} "
        "corruptions detected",
    )
