import hashlib
import itertools
import random
import tracemalloc
from array import array
from collections import Counter

import pytest

from tiersim import metrics, workload
from tiersim.metrics import recall_precision
from tiersim.migrator import project_write_times
from tiersim.workload import (
    GUPS_DRAW_CHUNK, PAGE_LIMIT, AccessTrace, GupsPhase, HotOracle, WorkloadError,
    _draw_gups_pages, gen_gups, gen_phase_change, gen_seq_microbench,
)

from columns import node_column, write_column
from test_invariants import set_recall_precision
from test_migrator import make_space


def brute_force_hot(trace, interval, threshold=2):
    lo, hi = trace.interval_bounds(interval)
    counts = Counter(trace.vpages[lo:hi])
    return {p for p, c in counts.items() if c >= threshold}


# `choice` draws `n.bit_length()` bits, so 1 and powers of two reject half
# their draws; their neighbours sit on either side of a change in bit count.
DRAW_LENGTHS = (1, 2, 3, 4, 63, 64, 65, 1024, 1025)


def choice_reference(rng, lo, n_hot, n_cold, hot_access_fraction, count):
    """The GUPS draw as first written, with `Random.choice` over lists of the
    hot pages lo..lo+n_hot-1 and of the cold pages below and above them."""
    hot = list(range(lo, lo + n_hot))
    cold = list(range(lo)) + list(range(lo + n_hot, n_hot + n_cold))
    return [rng.choice(hot) if rng.random() < hot_access_fraction else rng.choice(cold)
            for _ in range(count)]


def hot_starts(n_cold):
    """Where a hot set may start among `n_cold` cold pages: at page 0, so
    that no cold page lies below it, in the middle, and at the top, so that
    none lies above it."""
    return sorted({0, n_cold // 2, n_cold})


class TestGups:
    def test_hotset_size_and_share(self):
        trace = gen_gups(1024, 0.2, 0.8, 200_000, [0], seed=11,
                         accesses_per_interval=2048)
        counts = Counter(trace.vpages)
        # the ~205 hottest pages should absorb ~80% of the traffic
        hottest = [p for p, _ in counts.most_common(205)]
        share = sum(counts[p] for p in hottest) / len(trace)
        assert abs(share - 0.8) < 0.02

    def test_single_hot_page_with_full_fraction(self):
        trace = gen_gups(2, 0.4, 1.0, 500, [0], seed=5, accesses_per_interval=100)
        oracle = HotOracle.from_trace(trace)
        target = trace.vpages[0]
        assert all(p == target for p in trace.vpages)
        for i in range(trace.num_intervals):
            assert set(oracle.hot_sets[i]) == {target}

    def test_fixed_seed_reproduces_trace(self):
        a = gen_gups(512, 0.2, 0.8, 5000, [0, 1], seed=42)
        b = gen_gups(512, 0.2, 0.8, 5000, [0, 1], seed=42)
        assert a.vpages == b.vpages
        assert write_column(a) == write_column(b)
        assert a.nodes == b.nodes

    def test_rejects_bad_params(self):
        with pytest.raises(WorkloadError):
            gen_gups(0, 0.2, 0.8, 100, [0], seed=1)
        with pytest.raises(WorkloadError):  # no room for a cold page
            gen_gups(1, 0.2, 0.8, 100, [0], seed=1)
        with pytest.raises(WorkloadError):
            gen_gups(16, 0.2, 0.8, 0, [0], seed=1)
        with pytest.raises(WorkloadError):
            gen_gups(16, 1.2, 0.8, 100, [0], seed=1)
        with pytest.raises(WorkloadError, match="footprint_pages"):
            # the hot-set share is checked after the footprint: fails fast if it is not
            gen_gups(PAGE_LIMIT + 1, 1.2, 0.8, 100, [0], seed=1)

    @pytest.mark.parametrize("n_hot", DRAW_LENGTHS)
    def test_draw_matches_random_choice(self, n_hot):
        """The inlined draw picks the pages `Random.choice` picks and leaves
        the generator where `Random.choice` leaves it, wherever the hot set
        starts."""
        for n_cold in DRAW_LENGTHS:
            for lo in hot_starts(n_cold):
                got, ref = random.Random(17), random.Random(17)
                pages = array("I")
                _draw_gups_pages(got, pages, lo, n_hot, n_cold, 0.5, 600)
                assert list(pages) == choice_reference(ref, lo, n_hot, n_cold, 0.5, 600), \
                    (n_cold, lo)
                assert got.getstate() == ref.getstate(), (n_cold, lo)

    def test_chunked_draw_matches_random_choice(self):
        """A draw over several chunks, the last one partial, puts the pages
        `Random.choice` picks into the column and leaves the generator where
        `Random.choice` leaves it, wherever the hot set starts."""
        count = 2 * GUPS_DRAW_CHUNK + 1234
        for lo in hot_starts(1025):
            got, ref = random.Random(23), random.Random(23)
            pages = array("I")
            _draw_gups_pages(got, pages, lo, 63, 1025, 0.7, count)
            assert list(pages) == choice_reference(ref, lo, 63, 1025, 0.7, count), lo
            assert got.getstate() == ref.getstate(), lo

    def test_round_robin_node_assignment(self):
        trace = gen_gups(64, 0.25, 0.8, 100, [0, 1], seed=9)
        assert list(trace.nodes[:4]) == [0, 1, 0, 1]

    def test_init_pass_touches_every_page_once_first(self):
        trace = gen_gups(32, 0.25, 0.8, 100, [0], seed=3, init_pass=True)
        assert list(trace.vpages[:32]) == list(range(32))
        assert len(trace) == 132


def oracle_cases():
    """A GUPS trace, then sequential traces over 12 pages in 5 passes, read
    only, half read or all written, whose interval divides the period (4),
    does not (5), is longer than it (30) or is the whole trace (None):
    periods of 12 and 24 accesses."""
    yield gen_gups(256, 0.2, 0.8, 8000, [0], seed=13, accesses_per_interval=500)
    for api in (4, 5, 30, None):
        yield gen_seq_microbench("read_only", 12, 5, api or 60)
        yield gen_seq_microbench("half_read", 12, 5, api or 120)
        yield AccessTrace(array("I", range(12)) * 5, True, 0, api or 60, footprint=12)


class TestOracle:
    def test_oracle_matches_brute_force(self):
        for trace in oracle_cases():
            oracle = HotOracle.from_trace(trace)
            assert len(oracle.hot_sets) == trace.num_intervals
            for i in range(trace.num_intervals):
                assert set(oracle.hot_sets[i]) == brute_force_hot(trace, i)

    @pytest.mark.parametrize("threshold", [1, 3])
    def test_oracle_follows_the_threshold(self, monkeypatch, threshold):
        """Each page's count stops at the threshold, whatever it is: a page
        is hot once it reaches it, and only then."""
        monkeypatch.setattr(workload, "HOT_THRESHOLD_ACCESSES", threshold)
        for trace in oracle_cases():
            oracle = HotOracle.from_trace(trace)
            for i in range(trace.num_intervals):
                hot = oracle.hot_sets[i]
                assert len(set(hot)) == len(hot)
                assert set(hot) == brute_force_hot(trace, i, threshold)

    def test_a_key_collision_counts_the_interval(self, monkeypatch):
        """With every page column keyed alike, each interval is compared to
        the first one, and any that differs is counted."""
        monkeypatch.setattr(workload, "crc32", lambda pages: 0)
        self.test_oracle_matches_brute_force()

    def test_equal_intervals_share_one_array(self):
        """`half_read_big`'s period is 4 intervals, so its 32 intervals hold
        4 distinct columns.  A page is hot at its second access, right after
        its first, so each array is in first-access order."""
        trace, oracle = half_read_big()
        assert len(oracle.hot_sets) == 32
        assert len({id(hot) for hot in oracle.hot_sets}) == 4
        for i, hot in enumerate(oracle.hot_sets):
            lo, hi = trace.interval_bounds(i)
            assert hot is oracle.hot_sets[i % 4]
            assert list(hot) == list(dict.fromkeys(trace.vpages[lo:hi]))

    def test_single_access_page_excluded(self):
        trace = AccessTrace([1, 2, 2], [False] * 3, [0] * 3, accesses_per_interval=3,
                            footprint=3)
        oracle = HotOracle.from_trace(trace)
        assert set(oracle.hot_sets[0]) == {2}

    def test_negative_page_rejected(self):
        with pytest.raises(WorkloadError):
            AccessTrace([0, -1], [False] * 2, [0] * 2, accesses_per_interval=2,
                        footprint=1)
        with pytest.raises(WorkloadError):
            AccessTrace(array("q", [0, -1]), [False] * 2, [0] * 2, accesses_per_interval=2,
                        footprint=1)
        with pytest.raises(WorkloadError, match="negative"):
            AccessTrace(array("i", [0, -1]), [False] * 2, [0] * 2, accesses_per_interval=2,
                        footprint=1)

    def test_page_beyond_four_bytes_rejected(self):
        with pytest.raises(WorkloadError, match="0..4294967295"):
            AccessTrace([0, PAGE_LIMIT], [False] * 2, [0] * 2, accesses_per_interval=2,
                        footprint=PAGE_LIMIT + 1)
        top = AccessTrace([PAGE_LIMIT - 1], [False], [0], accesses_per_interval=1,
                          footprint=PAGE_LIMIT)
        assert top.footprint == PAGE_LIMIT
        assert list(top.vpages) == [PAGE_LIMIT - 1]

    def test_page_past_the_stated_footprint_rejected(self):
        """The oracle counts pages below the footprint the trace states, and
        names a page at or past it rather than failing on its index."""
        trace = AccessTrace([0, 5, 1], [False] * 3, [0] * 3, accesses_per_interval=3,
                            footprint=2)
        with pytest.raises(WorkloadError, match="page 5 .* 2 pages"):
            HotOracle.from_trace(trace)
        at_edge = AccessTrace([1, 2], [False] * 2, 0, accesses_per_interval=2, footprint=2)
        with pytest.raises(WorkloadError, match="page 2 .* 2 pages"):
            HotOracle.from_trace(at_edge)

    def test_scoring_the_array_matches_the_set(self):
        """A page mask scored against the oracle's array gives what the set
        formula gives for the mask's pages, also against one hot page and
        against none."""
        oracle = HotOracle.from_trace(gen_gups(256, 0.2, 0.8, 8000, [0], seed=13,
                                               accesses_per_interval=500))
        for hot in oracle.hot_sets:
            cold = next(p for p in range(256) if p not in set(hot))
            for detected in (set(), set(hot), set(range(0, 256, 3)), {cold}, {hot[0]}):
                mask = bytearray(256)
                for p in detected:
                    mask[p] = 1
                for wanted in (hot, hot[:1], hot[:0]):
                    assert (recall_precision(mask, wanted)
                            == set_recall_precision(detected, wanted))
            # nothing detected: no page is correct, and precision is vacuous
            assert hot and recall_precision(bytearray(256), hot) == (0.0, 1.0)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, metrics.RECALL_CHUNK])
    def test_scoring_in_chunks_matches_the_set(self, monkeypatch, chunk):
        """Recall gathers the mask `RECALL_CHUNK` hot pages at a time.  Hot
        sets of none to two chunks and a page leave a last chunk of one page,
        of a full chunk and of lengths between, and score as the set formula
        does."""
        monkeypatch.setattr(metrics, "RECALL_CHUNK", chunk)
        rng = random.Random(chunk)
        pages = 2 * chunk + 300
        mask = bytearray(rng.getrandbits(1) for _ in range(pages))
        detected = {p for p in range(pages) if mask[p]}
        for n in {0, 1, 2, 3, chunk - 1, chunk, chunk + 1, chunk + 2, 2 * chunk - 1,
                  2 * chunk, 2 * chunk + 1}:
            hot = array("I", rng.sample(range(pages), n))
            assert recall_precision(mask, hot) == set_recall_precision(detected, hot), n

    def test_empty_interval_empty_set(self):
        trace = AccessTrace([], [], [], accesses_per_interval=4, footprint=0)
        oracle = HotOracle.from_trace(trace)
        assert oracle.hot_sets == []


class TestPhaseChange:
    def test_disjoint_hotsets_change_at_boundaries(self):
        phases = [GupsPhase(1024, 0.1, 1.0, 4096) for _ in range(4)]
        oracle = HotOracle.from_trace(gen_phase_change(phases, seed=1, nodes=[0],
                                                       accesses_per_interval=1024))
        # hot sets inside one phase are stable; across phases they differ
        first = set(oracle.hot_sets[0])
        fifth = set(oracle.hot_sets[4])
        assert first != fifth

    def test_mid_interval_boundary_oracle_from_actual_counts(self):
        phases = [GupsPhase(64, 0.2, 1.0, 300), GupsPhase(64, 0.2, 1.0, 300)]
        trace = gen_phase_change(phases, seed=1, nodes=[0], accesses_per_interval=200)
        oracle = HotOracle.from_trace(trace)
        # interval 1 spans the boundary at access 300
        assert set(oracle.hot_sets[1]) == brute_force_hot(trace, 1)

    def test_requires_two_phases(self):
        with pytest.raises(WorkloadError):
            gen_phase_change([GupsPhase(64, 0.2, 0.8, 100)], seed=1, nodes=[0])


class TestMicrobench:
    def test_read_only_order(self):
        t = gen_seq_microbench("read_only", 3, 1, 3)
        assert list(t.vpages) == [0, 1, 2]
        assert (t.write, t.writes) == (False, None)  # a constant, no column

    def test_half_read_pairs(self):
        t = gen_seq_microbench("half_read", 2, 1, 4)
        assert list(t.vpages) == [0, 0, 1, 1]
        assert t.write is None
        assert list(t.writes) == [False, True, False, True]

    def test_unknown_kind(self):
        with pytest.raises(WorkloadError):
            gen_seq_microbench("mixed", 4, 1, 4)

    def test_rejects_more_pages_than_the_column_holds(self):
        # the kind is checked after the pages: fails fast if they are not
        with pytest.raises(WorkloadError, match="array_pages"):
            gen_seq_microbench("mixed", PAGE_LIMIT + 1, 1, 4)


class TestSlice:
    def test_head_fraction_stays_inside_the_slice(self):
        t = gen_seq_microbench("read_only", 12, 1, 4)
        second = t.interval_slice(1)
        assert [v for v, _, _ in second.head_fraction(0.5).events()] == [4, 5]
        assert [v for v, _, _ in second.head_fraction(3.0).events()] == [4, 5, 6, 7]
        assert len(second.head_fraction(-1.0)) == 0


def half_read_big():
    trace = gen_seq_microbench("half_read", 32768, 8, accesses_per_interval=16384)
    return trace, HotOracle.from_trace(trace)


def gups_big():
    trace = gen_gups(65536, 0.2, 0.8, 524288, [0], seed=1, accesses_per_interval=65536)
    return trace, HotOracle.from_trace(trace)


def traced_bytes(build):
    """What `build()` returns, with the bytes it leaves allocated and the
    most it had allocated at once while it ran."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before


@pytest.fixture(scope="module")
def gups_big_traced():
    """`traced_bytes(gups_big)`, built once for the three bounds on it."""
    return traced_bytes(gups_big)


def held_per_access(traced) -> float:
    """Bytes a `traced_bytes` build leaves allocated per access of its trace."""
    (trace, _), held, _ = traced
    return held / len(trace)


@pytest.mark.parametrize("build", ["half_read", "gups"])
def test_trace_and_oracle_hold_at_most_ten_bytes_an_access(build, request):
    """The traces of `seq-rw-big.cfg` and `gups-big.cfg` with their oracles
    keep at most 10 bytes allocated an access: at most 7 bytes of columns
    plus 4 a hot page.  A list page column alone would add an 8-byte
    pointer."""
    traced = (traced_bytes(half_read_big) if build == "half_read"
              else request.getfixturevalue("gups_big_traced"))
    held = held_per_access(traced)
    assert held <= 10, held


def test_gups_trace_and_oracle_hold_at_most_five_and_a_half_bytes_an_access(
        gups_big_traced):
    """`gups-big.cfg`'s trace keeps its 4-byte page column and no write or
    node column, since every access writes and comes from one node; its
    oracle's hot pages add about 0.84 bytes an access."""
    held = held_per_access(gups_big_traced)
    assert held <= 5.5, held


def test_gups_build_peaks_at_most_six_bytes_an_access(gups_big_traced):
    """Building `gups-big.cfg`'s trace and oracle never has more than 6
    bytes allocated an access: the page column, one draw chunk and one
    interval's counts, with no page pool, no `Counter` of boxed pages, no
    write column and no copy of an interval's pages."""
    (trace, _), _, peak = gups_big_traced
    assert peak / len(trace) <= 6, peak / len(trace)


def test_write_projection_holds_at_most_sixteen_bytes_a_write():
    """A projection keeps eight bytes of time and four of page a write, in
    two arrays, and no boxed float.  Its pages are 256 and up: smaller ints
    are cached by CPython, and boxing them allocates nothing that could be
    seen."""
    writes = 4096
    trace = AccessTrace(array("I", range(256, 256 + writes)), bytearray(b"\x01") * writes,
                        0, accesses_per_interval=writes, footprint=256 + writes)
    space = make_space(num_pages=256 + writes, caps=(256 + writes, 1))
    projected, held, _ = traced_bytes(
        lambda: project_write_times(space, trace.interval_slice(0), 0.0))
    assert len(projected) == writes
    assert held / writes <= 16, held / writes


def test_half_read_trace_and_oracle_hold_at_most_six_bytes_an_access():
    """`seq-rw-big.cfg`'s trace repeats its 4 distinct intervals 8 times and
    its oracle keeps one hot set each: 5 bytes of columns plus a quarter
    byte of oracle an access."""
    assert held_per_access(traced_bytes(half_read_big)) <= 6


def trace_digest(traces, with_oracle: bool) -> str:
    """sha256 over each trace: its columns as lists (writes as bools, each
    constant expanded) and interval length, then, `with_oracle`, its
    oracle's hot sets.  These reprs are the ones of the list columns the
    generators first built, so the recorded digests still hold."""
    h = hashlib.sha256()
    for trace in traces:
        h.update(repr((list(trace.vpages), [bool(w) for w in write_column(trace)],
                       list(node_column(trace)), trace.accesses_per_interval)).encode())
        if with_oracle:
            hot_sets = HotOracle.from_trace(trace).hot_sets
            h.update(repr([sorted(s) for s in hot_sets]).encode())
    return h.hexdigest()


def gups_grid():
    for footprint, hot_fraction, init_pass, nodes in itertools.product(
            (2, 97, 300), (0.7, 1.0), (False, True), ([0], [0, 1], [2, 0, 1])):
        yield gen_gups(footprint, 0.2, hot_fraction, 1000, nodes,
                       seed=footprint + len(nodes), accesses_per_interval=128,
                       init_pass=init_pass)


def phase_change_grid():
    yield gen_phase_change([GupsPhase(128, 0.1, 0.9, 700, init_pass=True),
                            GupsPhase(64, 0.25, 0.6, 500),
                            GupsPhase(200, 0.05, 1.0, 333)],
                           seed=4, nodes=[0, 1], accesses_per_interval=256)
    yield gen_phase_change([GupsPhase(50, 0.3, 0.8, 401),
                            GupsPhase(50, 0.3, 0.8, 399, init_pass=True)],
                           seed=9, nodes=[1, 0, 2], accesses_per_interval=100)


def gups_edge_grid():
    """A GUPS trace over three draw chunks, the last one partial, and one
    that never draws its range's top page."""
    yield gen_gups(100_000, 0.01, 0.5, 2 * GUPS_DRAW_CHUNK + 500, [0], seed=5,
                   accesses_per_interval=4096)
    yield gen_gups(300, 0.2, 0.7, 60, [0, 1], seed=1, accesses_per_interval=16)


def microbench_grid():
    """Each kind over 1 and 3 passes, in one interval (None) or intervals of
    4 accesses."""
    for kind, passes, api in itertools.product(("read_only", "half_read"), (1, 3),
                                               (None, 4)):
        accesses = 5 * passes * (2 if kind == "half_read" else 1)
        yield gen_seq_microbench(kind, 5, passes, api or accesses, node=1)


# Recorded from the generators as first written (the microbench grid's by
# the generator that still had a `write_only` kind, on the grid without it):
# any change to a generated trace or oracle, however small, changes a digest.
@pytest.mark.parametrize("grid, with_oracle, digest", [
    (gups_grid, True,
     "1e64d262691dc351b2e04bf7bcc5cbda7422cb8e2889d301d3396b5df9f60b08"),
    (phase_change_grid, True,
     "4db31f3c5307de13e677ff1d93a618af8d4c908e065775d29ffbd9d5392a3a3e"),
    (microbench_grid, False,
     "771d48fa2de95c6d2667a6316e97e239da7e98b87d17806d6054f76151bf9e2f"),
], ids=["gups-contiguous", "phase_change", "microbench"])
def test_generated_traces_are_pinned(grid, with_oracle, digest):
    assert trace_digest(grid(), with_oracle) == digest


@pytest.mark.parametrize("grid, footprints, one_node", [
    (gups_grid, (2,) * 12 + (97,) * 12 + (300,) * 12, 12),
    (gups_edge_grid, (100_000, 300), 1), (phase_change_grid, (200, 50), 0),
    (microbench_grid, (5,) * 8, 8),
], ids=["gups-contiguous", "gups-edges", "phase_change", "microbench"])
def test_generated_traces_state_their_footprint_and_one_node(grid, footprints, one_node):
    """Every generator states the footprint it was given, above every page
    it drew: a GUPS trace its `footprint_pages`, a phase-change trace its
    largest phase's, a microbench its `array_pages`.  A trace keeps one node
    exactly when its generator made every access from one node: the grids
    give several nodes only to generators that use them all."""
    stated, one_node_seen = [], 0
    for trace in grid():
        stated.append(trace.footprint)
        assert max(trace.vpages) < trace.footprint
        if trace.node is not None:
            one_node_seen += 1
            assert trace.nodes is None
        else:
            assert len(trace.nodes) == len(trace)
            assert len(set(trace.nodes)) > 1
    assert (tuple(stated), one_node_seen) == (footprints, one_node)


@pytest.mark.parametrize("grid, constant", [
    (gups_grid, 36), (gups_edge_grid, 2), (phase_change_grid, 2), (microbench_grid, 4),
], ids=["gups-contiguous", "gups-edges", "phase_change", "microbench"])
def test_generated_traces_keep_a_write_column_only_when_it_mixes(grid, constant):
    """GUPS and phase-change accesses all write, and `read_only` ones all
    read: those traces keep the flag as `write` with no column.  Only
    `half_read`, whose accesses alternate, keeps its column."""
    constant_seen = 0
    for trace in grid():
        if trace.write is None:
            assert len(trace.writes) == len(trace)
            assert set(trace.writes) == {0, 1}
        else:
            constant_seen += 1
            assert trace.writes is None
    assert constant_seen == constant


def test_gups_footprint_is_the_configured_one():
    """A GUPS trace that never draws its range's top page still states the
    whole range, so a run simulates the memory its config names."""
    _, short = gups_edge_grid()
    assert max(short.vpages) + 1 < short.footprint == 300


def test_a_one_node_trace_reads_back_its_column():
    """A one-node, all-write trace stores neither column, and its slices
    read both back, as `node_column` and `write_column` expand them."""
    trace = gen_gups(64, 0.25, 0.8, 100, [3], seed=9, init_pass=True)
    assert (trace.node, trace.write, trace.footprint) == (3, True, 64)
    assert (trace.nodes, trace.writes) == (None, None)
    slc = trace.interval_slice(0)
    assert list(slc.nodes()) == [3] * 164 == list(node_column(trace))
    assert [(n, w) for _, w, n in slc.head_fraction(0.5).events()] == [(3, True)] * 82
    assert list(write_column(trace)) == [1] * 164
    with pytest.raises(OverflowError):  # as a column holding the node would
        AccessTrace([0], [False], 65536, accesses_per_interval=1, footprint=1)
