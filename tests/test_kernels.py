import random
import sys
from collections import Counter
from itertools import product

import numpy as np
import pytest

from twigjoin.kernels import (
    BACKEND_NAMES,
    ENV_VAR,
    Backend,
    _impl,
    _numba_backend,
    _on_ranks,
    _vector,
    default_backend_name,
    get_backend,
    jump_scan,
    prefix_ranks,
)
from twigjoin.matcher import ResultLimitError, _cross, evaluate
from twigjoin.path_guide import PathGuide

from conftest import gen_doc, mixed_query
from frozen_jump import jump_scan as frozen_jump
from frozen_merge import multiway_merge as frozen_merge

# the scalar merge, uncompiled: the source numba compiles
SCALAR = Backend("scalar", jump_scan, _on_ranks(_impl.multiway_merge))

both_backends = pytest.mark.parametrize("backend_name", BACKEND_NAMES)


def make_list(rng: random.Random, n: int, width: int, plen: int, pool: int = 3) -> np.ndarray:
    """Sorted, duplicate-free rows whose prefixes collide across calls
    (components drawn from 1..pool) so merges see real runs."""
    rows = set()
    for _ in range(40 * n):
        if len(rows) == n:
            break
        prefix = tuple(rng.randint(1, pool) for _ in range(plen))
        suffix = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, width - plen)))
        rows.add((prefix + suffix + (0,) * width)[:width])
    return np.array(sorted(rows), dtype=np.int64).reshape(len(rows), width)


def stack(lists: list[np.ndarray]):
    k = len(lists)
    offsets = np.zeros(k + 1, dtype=np.int64)
    for j, arr in enumerate(lists):
        offsets[j + 1] = offsets[j] + len(arr)
    total = int(offsets[-1])
    width = lists[0].shape[1]
    stacked = np.zeros((total, width), dtype=np.int64)
    for j, arr in enumerate(lists):
        stacked[offsets[j] : offsets[j + 1]] = arr
    return stacked, offsets


def expand(out, count) -> np.ndarray:
    """The tuples of the kernel's runs, as rows of global positions."""
    k = out.shape[1] // 2
    first, stop = out[:count, :k], out[:count, k:]
    run, digits = _cross(stop - first)
    return first[run] + digits


def run_merge(backend_name, lists, plen, use_jump):
    be = get_backend(backend_name)
    stacked, offsets = stack(lists)
    touched = np.zeros(max(len(stacked), 1), dtype=np.uint8)
    reads = np.zeros(len(lists), dtype=np.int64)
    out, count, comps, jumps = be.multiway_merge(
        stacked, offsets, plen, use_jump, touched, reads
    )
    return expand(out, count), touched, reads, comps, jumps


def big_lists(rng: random.Random, pool: int):
    """Three to six lists of a few hundred rows, one of them often
    sparse (at most five rows), so that jumps gallop far and binary
    searches run deep."""
    k = rng.randint(3, 6)
    width = rng.randint(3, 5)
    plen = rng.randint(2, width)
    sizes = [rng.randint(100, 400) for _ in range(k)]
    if rng.random() < 0.6:
        sizes[rng.randrange(k)] = rng.randint(1, 5)
    return [make_list(rng, n, width, plen, pool) for n in sizes], plen


def merge_oracle(lists, plen) -> list[tuple[int, ...]]:
    """Equal-prefix cross products, ascending by prefix, last list
    varying fastest (global row indices)."""
    offsets = [0]
    for arr in lists:
        offsets.append(offsets[-1] + len(arr))
    by_prefix: list[dict[tuple, list[int]]] = []
    for j, arr in enumerate(lists):
        d: dict[tuple, list[int]] = {}
        for i, row in enumerate(arr.tolist()):
            d.setdefault(tuple(row[:plen]), []).append(offsets[j] + i)
        by_prefix.append(d)
    shared = set(by_prefix[0])
    for d in by_prefix[1:]:
        shared &= set(d)
    out: list[tuple[int, ...]] = []
    for prefix in sorted(shared):
        out.extend(product(*(d[prefix] for d in by_prefix)))
    return out


@both_backends
@pytest.mark.parametrize("use_jump", [True, False])
def test_merge_against_brute_force(backend_name, use_jump):
    rng = random.Random(BACKEND_NAMES.index(backend_name) * 2 + int(use_jump))
    for trial in range(120):
        k = rng.randint(1, 4)
        width = rng.randint(1, 5)
        plen = rng.randint(0, width)
        lists = [make_list(rng, rng.randint(1, 18), width, plen) for _ in range(k)]
        got, touched, reads, comps, jumps = run_merge(
            backend_name, lists, plen, use_jump
        )
        want = merge_oracle(lists, plen)
        assert got.tolist() == [list(t) for t in want], (trial, plen)
        for row in got.tolist():
            for gi in row:
                assert touched[gi] == 1
        if not use_jump:
            assert jumps == 0
        assert (reads >= 0).all()


@both_backends
def test_merge_empty_list_short_circuits(backend_name):
    lists = [
        np.array([[1, 2]], dtype=np.int64),
        np.zeros((0, 2), dtype=np.int64),
    ]
    got, touched, reads, comps, jumps = run_merge(backend_name, lists, 2, True)
    assert len(got) == 0
    assert reads.tolist() == [0, 0]
    assert not touched.any()


@both_backends
def test_merge_plen_zero_is_full_cross_product(backend_name):
    rng = random.Random(4)
    lists = [make_list(rng, 3, 2, 1), make_list(rng, 4, 2, 1)]
    got, *_ = run_merge(backend_name, lists, 0, True)
    assert len(got) == 12
    assert got.tolist() == [list(t) for t in merge_oracle(lists, 0)]


@both_backends
def test_merge_single_list_emits_everything(backend_name):
    rng = random.Random(9)
    lst = make_list(rng, 10, 3, 2)
    got, *_ = run_merge(backend_name, [lst], 2, True)
    assert got.ravel().tolist() == list(range(len(lst)))


@both_backends
def test_jump_flag_changes_nothing_but_counters(backend_name):
    rng = random.Random(17)
    for _ in range(40):
        k = rng.randint(2, 3)
        lists = [make_list(rng, rng.randint(2, 20), 4, 2) for _ in range(k)]
        a, _, _, _, ja = run_merge(backend_name, lists, 2, True)
        b, _, _, _, jb = run_merge(backend_name, lists, 2, False)
        assert a.tolist() == b.tolist()
        assert jb == 0 and ja >= 0


def test_backends_agree_exactly():
    # every backend that runs here against the uncompiled scalar merge,
    # on runs, so that long runs (a small prefix pool) cost nothing to compare
    backends = {be.name: be for be in map(get_backend, BACKEND_NAMES)}
    rng = random.Random(33)
    for trial, be in product(range(260), backends.values()):
        if trial < 200:
            k = rng.randint(1, 4)
            width = rng.randint(1, 4)
            plen = rng.randint(0, width)
            lists = [make_list(rng, rng.randint(1, 15), width, plen) for _ in range(k)]
        else:
            lists, plen = big_lists(rng, pool=rng.choice([3, 5, 12]))
        stacked, offsets = stack(lists)
        use_jump = rng.random() < 0.5
        results = []
        for merge in (be.multiway_merge, SCALAR.multiway_merge):
            touched = np.zeros(max(len(stacked), 1), dtype=np.uint8)
            reads = np.zeros(len(lists), dtype=np.int64)
            out, count, comps, jumps = merge(stacked, offsets, plen, use_jump, touched, reads)
            results.append((out[:count].tolist(), comps, jumps,
                            touched.tolist(), reads.tolist()))
        assert results[0] == results[1], (trial, use_jump)


@both_backends
@pytest.mark.parametrize("use_jump", [True, False])
def test_merge_repeats_the_frozen_column_kernel(backend_name, use_jump):
    # the rank-based kernel must retrace the column-by-column kernel
    # exactly: same output, reads, touches, comparisons and jumps
    be = get_backend(backend_name)
    rng = random.Random(101 + BACKEND_NAMES.index(backend_name) * 2 + int(use_jump))
    for trial in range(360):
        if trial < 300:
            k = rng.randint(1, 4)
            width = rng.randint(1, 5)
            plen = 0 if trial % 10 == 0 else rng.randint(0, width)
            sizes = [0 if rng.random() < 0.1 else rng.randint(1, 25) for _ in range(k)]
            lists = [make_list(rng, n, width, plen) for n in sizes]
        else:
            # many distinct prefixes keep the frozen kernel's tuples few
            lists, plen = big_lists(rng, pool=12)
            k, sizes = len(lists), [len(a) for a in lists]
        stacked, offsets = stack(lists)
        results = []
        for merge, tuples in ((be.multiway_merge, expand),
                              (frozen_merge, lambda out, count: out[:count])):
            touched = np.zeros(max(len(stacked), 1), dtype=np.uint8)
            reads = np.zeros(k, dtype=np.int64)
            out, count, comps, jumps = merge(stacked, offsets, plen, use_jump, touched, reads)
            got = tuples(out, count)
            results.append((got.tolist(), len(got), comps, jumps,
                            touched.tolist(), reads.tolist()))
        assert results[0] == results[1], (trial, sizes, plen)


@both_backends
@pytest.mark.parametrize("use_jump", [True, False])
def test_merge_emits_maximal_runs_in_key_order(backend_name, use_jump):
    be = get_backend(backend_name)
    rng = random.Random(211 + BACKEND_NAMES.index(backend_name) * 2 + int(use_jump))
    for trial in range(200):
        k = rng.randint(1, 4)
        width = rng.randint(1, 4)
        plen = rng.randint(0, width)
        sizes = [0 if rng.random() < 0.1 else rng.randint(1, 25) for _ in range(k)]
        stacked, offsets = stack([make_list(rng, n, width, plen) for n in sizes])
        touched = np.zeros(max(len(stacked), 1), dtype=np.uint8)
        reads = np.zeros(k, dtype=np.int64)
        out, count, _, _ = be.multiway_merge(stacked, offsets, plen, use_jump, touched, reads)
        keys = prefix_ranks(stacked, plen)
        first, stop = out[:count, :k], out[:count, k:]
        assert count <= min(sizes), (trial, sizes)
        assert (keys[first[1:, 0]] > keys[first[:-1, 0]]).all(), trial
        for run in range(count):
            key = keys[first[run, 0]]
            for j in range(k):
                lo, hi = first[run, j], stop[run, j]
                assert offsets[j] <= lo < hi <= offsets[j + 1]
                assert (keys[lo:hi] == key).all(), (trial, run, j)
                assert lo == offsets[j] or keys[lo - 1] != key, (trial, run, j)
                assert hi == offsets[j + 1] or keys[hi] != key, (trial, run, j)


def segment_cases(rng: random.Random, trials: int):
    """Random segmented merge inputs: k lists per segment, S segments, each
    list's keys sorted and drawn from a small pool, some lists empty; the
    keys of a segment lie below the next's, as the matcher's do."""
    for _ in range(trials):
        k, n_seg = rng.randint(1, 4), rng.choice((1, 1, 2, 3, 5))
        segments = []
        for _ in range(n_seg):
            pool = rng.randint(1, 12)
            segments.append([sorted(rng.randint(0, pool) for _ in range(
                0 if rng.random() < 0.1 else rng.randint(1, 20))) for _ in range(k)])
        yield k, segments, rng.random() < 0.5


def segmented_call(merge, k: int, segments, use_jump: bool):
    """One call over the segments, keys raised segment by segment, each
    list's segments back to back: (out rows, count, touched, reads,
    comps, jumps, offsets)."""
    floors, floor = [], 0
    for lists in segments:
        floors.append(floor)
        floor = max((x + floor for keys_j in lists for x in keys_j), default=floor - 1) + 1
    keys, offsets = [], [0]
    for j in range(k):
        for lists, floor in zip(segments, floors):
            keys += [x + floor for x in lists[j]]
            offsets.append(len(keys))
    touched = np.zeros(max(len(keys), 1), dtype=np.uint8)
    reads = np.zeros(k, dtype=np.int64)
    out, count, comps, jumps = merge(np.array(keys, dtype=np.int64),
                                     np.array(offsets, dtype=np.int64), use_jump, touched, reads)
    return (out[:count].tolist(), count, touched[: len(keys)].tolist(), reads.tolist(),
            comps, jumps, offsets)


def on_backend(name: str):
    """The named backend's merge as a kernel on 1-D keys."""
    be = get_backend(name)

    def merge(keys, offsets, use_jump, touched, reads):
        return be.multiway_merge(keys[:, None], offsets, 1, use_jump, touched, reads)

    return merge


SEGMENT_KERNELS = {
    "scalar": _impl.multiway_merge,  # uncompiled: the source numba compiles
    "vector": _vector.multiway_merge,
    **{name: on_backend(name) for name in BACKEND_NAMES},
}


@pytest.mark.parametrize("kernel", SEGMENT_KERNELS)
def test_segmented_call_is_the_per_segment_calls(kernel):
    # a segment merges as a call of its own would: same runs, touches,
    # reads per list and counters, summed over the segments, each of its
    # positions mapped list by list into the joint call
    merge = SEGMENT_KERNELS[kernel]
    rng = random.Random(7 + list(SEGMENT_KERNELS).index(kernel))
    seen = Counter()
    for k, segments, use_jump in segment_cases(rng, 600):
        *got, joint = segmented_call(merge, k, segments, use_jump)
        n_seg = len(segments)
        out, touched, reads, comps, jumps = [], [0] * len(got[2]), [0] * k, 0, 0
        for s, lists in enumerate(segments):
            o, _, t, r, cm, jm, own = segmented_call(merge, k, [lists], use_jump)
            # list j's position p of this call is joint[j*n_seg + s] + p - own[j]
            shift = [joint[j * n_seg + s] - own[j] for j in range(k)]
            out += [[p + shift[j % k] for j, p in enumerate(row)] for row in o]
            for j in range(k):
                for p in range(own[j], own[j + 1]):
                    touched[p + shift[j]] = t[p]
            reads = [a + b for a, b in zip(reads, r)]
            comps, jumps = comps + cm, jumps + jm
            seen["empty"] += not all(lists)
            seen["mid"] += all(lists) and min(map(max, lists)) < max(map(max, lists))
            # a live segment whose first key is the live segment before's
            # last key + 1 (segmented_call raises a segment's keys to one past
            # the previous one's): a run at that last key stops at its
            # segment's end, not at the next key's row
            live_pair = s > 0 and all(lists) and all(segments[s - 1])
            seen["adjacent"] += live_pair and min(map(min, lists)) == 0
        assert got == [out, len(out), touched, reads, comps, jumps], (k, segments, use_jump)
        seen["single"] += n_seg == 1
        seen["several"] += n_seg > 1
    assert min(seen.values()) >= 100, seen


def long_extent_doc(rng: random.Random, records: int) -> bytes:
    """A root over `records` A records, each with a handful of B, C and
    D children, some over E leaves: a guide of a few nodes whose
    extents run to hundreds of labels, so a one-JP query plans to one
    record and merges whole extents."""
    kids = ("<B/>", "<C/>", "<D/>", "<B><E/></B>", "<D><E/><E/></D>")
    body = "".join("<A>" + "".join(rng.choice(kids) for _ in range(rng.randint(0, 5)))
                   + "</A>" for _ in range(records))
    return f"<R>{body}</R>".encode()


LONG_EXTENT_QUERIES = (
    "//A[./B]/C",
    "//A[./B][./C]/D",
    "//A[.//E]/C",
    "/R/A[./D/E]/B",
    "//A[./C][./D]//E",
    "//*[./B][./D]",
)


def answers_and_counters(pg, query, use_jump, backend):
    try:  # a few random twigs have millions of answers
        rs, m = evaluate(pg, query, use_jump=use_jump, backend=backend, max_results=20_000)
    except ResultLimitError as exc:
        return exc.rows
    return (rs.lines(), rs.jps.tolist(), rs.tops.tolist(), m.nodes_read,
            m.bytes_scanned, m.prefix_comparisons, m.jumps)


@pytest.mark.parametrize("use_jump", [True, False])
def test_evaluate_counters_match_the_scalar_kernel(use_jump):
    # the numpy merge against the uncompiled scalar one, end to end:
    # same answers, witnesses and all four work counters
    numpy_be = get_backend("numpy")
    long_pg = PathGuide.build_from_xml(long_extent_doc(random.Random(5), 600))
    for query in LONG_EXTENT_QUERIES:
        rs, _ = evaluate(long_pg, query, backend=numpy_be)
        assert [len(t.records) for t in rs.plan.tables] == [1], query
        got = answers_and_counters(long_pg, query, use_jump, numpy_be)
        assert got == answers_and_counters(long_pg, query, use_jump, SCALAR), query
        assert got[5] > 0 and (got[6] > 0) == use_jump, query

    rng = random.Random(8)
    merged = 0
    for seed in (0, 1, 3, 4):
        pg = PathGuide.build_from_xml(gen_doc(seed=seed, target=600))
        for _ in range(25):
            query = mixed_query(rng, pg)
            got = answers_and_counters(pg, query, use_jump, numpy_be)
            assert got == answers_and_counters(pg, query, use_jump, SCALAR), query
            merged += not isinstance(got, int) and got[5] > 0
    assert merged >= 30, merged


def jump_oracle(rows: np.ndarray, lo: int, hi: int, bound, plen: int) -> int:
    for i in range(lo, hi):
        if tuple(rows[i, :plen].tolist()) > tuple(bound[:plen]):
            return i
    return hi


@both_backends
def test_jump_scan_against_linear_oracle(backend_name):
    be = get_backend(backend_name)
    rng = random.Random(21)
    for _ in range(300):
        width = rng.randint(1, 4)
        plen = rng.randint(1, width)
        rows = make_list(rng, rng.randint(1, 40), width, plen)
        lo = rng.randint(0, len(rows))
        hi = rng.randint(lo, len(rows))
        bound = np.array([rng.randint(0, 4) for _ in range(plen)], dtype=np.int64)
        pos, read = be.jump_scan(rows, lo, hi, bound, plen)
        assert pos == jump_oracle(rows, lo, hi, bound, plen)
        if lo >= hi:
            assert len(read) == 0
        else:
            assert 1 <= len(read) <= (hi - lo)
            assert lo <= read.min() and read.max() < hi


@both_backends
def test_jump_scan_first_row_hit(backend_name):
    be = get_backend(backend_name)
    rows = np.array([[5, 1], [6, 2]], dtype=np.int64)
    pos, read = be.jump_scan(rows, 0, 2, np.array([4, 9], dtype=np.int64), 2)
    assert pos == 0 and read.tolist() == [0]


@both_backends
def test_jump_scan_no_hit(backend_name):
    be = get_backend(backend_name)
    rows = np.array([[1], [2], [3]], dtype=np.int64)
    pos, _ = be.jump_scan(rows, 0, 3, np.array([7], dtype=np.int64), 1)
    assert pos == 3


def test_jump_scan_repeats_the_frozen_column_kernel():
    # the list comparison must retrace the column-by-column kernel
    # exactly: same position, and the same rows read, each once
    rng = random.Random(33)
    cases = 0
    while cases < 10_000:
        width = rng.randint(1, 5)
        labels = {tuple(rng.randint(1, 3) for _ in range(rng.randint(0, width)))
                  for _ in range(rng.randint(0, 14))}
        rows = np.zeros((len(labels), width), dtype=np.int64)
        for i, lab in enumerate(sorted(labels)):
            rows[i, : len(lab)] = lab
        plen = rng.randint(0, width)
        bound = np.array([rng.randint(0, 4) for _ in range(plen)], dtype=np.int64)
        for lo in range(len(rows) + 1):
            for hi in range(lo, len(rows) + 1):
                touched = np.zeros(len(rows), dtype=np.uint8)
                want_pos, want_reads = frozen_jump(rows, lo, hi, bound, plen, touched)
                pos, read = jump_scan(rows, lo, hi, bound, plen)
                assert read.dtype == np.int64
                assert (pos, len(read)) == (want_pos, want_reads), (rows, lo, hi, bound)
                assert len(set(read.tolist())) == len(read)
                assert sorted(read.tolist()) == np.flatnonzero(touched).tolist()
                cases += 1


def test_env_flag_selects_default(monkeypatch):
    for name in BACKEND_NAMES:
        monkeypatch.setenv(ENV_VAR, name)
        assert default_backend_name() == name
        assert get_backend() is get_backend(name)
    monkeypatch.setenv(ENV_VAR, "weird")
    assert default_backend_name() == "numba"
    monkeypatch.delenv(ENV_VAR)
    assert default_backend_name() == "numba"


def test_numba_backend_is_compiled_when_numba_imports():
    pytest.importorskip("numba")
    assert get_backend("numba").name == "numba"


@pytest.fixture
def fresh_numba_backend():
    """Forget the cached numba backend before and after the test, so a
    faked import state neither sees nor leaks a cached result."""
    _numba_backend.cache_clear()
    yield
    _numba_backend.cache_clear()


def test_numba_missing_falls_back_to_numpy(monkeypatch, fresh_numba_backend):
    monkeypatch.setitem(sys.modules, "numba", None)
    be = get_backend("numba")
    assert be is get_backend("numpy")
    assert be.name == "numpy"


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        get_backend("fortran")
