"""Replayable SRSWOR and the nested two-phase scheme."""

import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dsmedian.montecarlo import GeneratorSpec, MarginalSpec, generate_population
from dsmedian.sampling import (
    SeedSpec,
    TwoPhaseSample,
    _draw_picks,
    _draws,
    _lemire,
    _picks,
    _resolve,
    _stream_generator,
    _stream_state,
    draw_two_phase,
    srswor,
)


def swap_loop(picks, N):
    """The dense partial Fisher-Yates swap loop on a numpy pool, given its
    picks: the reference every resolution must reproduce index for index."""
    pool = np.arange(N, dtype=np.int64)
    for i, j in enumerate(picks):
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:len(picks)]


def reference_sample_indices(rng, N, k):
    """The swap loop on the picks ``rng`` draws."""
    return swap_loop(rng.integers(low=np.arange(k), high=N), N)


ORACLE_SIZES = [(2, 1), (2, 2), (7, 3), (10, 10), (600, 150), (5000, 600), (20000, 1200)]
ORACLE_SEEDS = 500


class TestSeedSpec:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SeedSpec(-1, 0)

    def test_rejects_too_wide(self):
        with pytest.raises(ValueError):
            SeedSpec(2**64, 0)

    def test_rekeyed_generator_draws_as_a_fresh_one(self):
        # one generator re-keyed per stream, as _draw_picks redraws its
        # fallback rows, after draws that leave a buffered half word or a
        # partly consumed Philox buffer behind: raw words leave neither, so
        # an odd count of 32-bit draws before each re-key does
        rng = SeedSpec(2002).generator()
        half_word = partial_buffer = False
        for N, k in ORACLE_SIZES:
            m = max(1, k // 4)
            for r in range(ORACLE_SEEDS):
                rng.integers(2**32, size=2 * (r % 4) + 1, dtype=np.uint32)
                state = rng.bit_generator.state
                half_word |= state["has_uint32"] == 1
                partial_buffer |= 0 < state["buffer_pos"] < 4
                rng.bit_generator.state = _stream_state(2002, r)
                fresh = SeedSpec(2002, r).generator()
                for size, picks in ((N, k), (k, m)):  # first phase, then positions in it
                    expected = _picks(fresh, size, picks)
                    assert np.array_equal(_picks(rng, size, picks), expected), (N, k, r)
        assert half_word and partial_buffer


UNIT = MarginalSpec("normal", 0.0, 1.0)
COPULA = GeneratorSpec(0.8, 0.6, 0.7, UNIT, UNIT, UNIT)


def sparse_swap_loop(picks):
    """The swap loop with the pool kept as a dict of the moved entries."""
    pool, out = {}, []
    for i, j in enumerate(picks):
        out.append(pool.get(j, j))
        pool[j] = pool.get(i, i)
    return np.array(out, dtype=np.int64)


def fresh_two_phase(rng, N, n, m):
    first = reference_sample_indices(rng, N, n)
    return np.sort(first), np.sort(first[reference_sample_indices(rng, n, m)])


# every public use of the thread's generator on a stream, with what a fresh
# generator of the stream gives: raw words, the Generator.integers fallback
# (n == N; 64-bit picks past 2**32 units) and the population's normals
STREAM_JOBS = {
    "draw_two_phase(5000, 600, 150)": (
        lambda seed: draw_two_phase(5000, 600, 150, seed),
        lambda rng: fresh_two_phase(rng, 5000, 600, 150)),
    "draw_two_phase(8, 8, 3)": (
        lambda seed: draw_two_phase(8, 8, 3, seed), lambda rng: fresh_two_phase(rng, 8, 8, 3)),
    "srswor(20000, 1200)": (
        lambda seed: srswor(20000, 1200, seed),
        lambda rng: np.sort(reference_sample_indices(rng, 20000, 1200))),
    "srswor(5, 5)": (
        lambda seed: srswor(5, 5, seed), lambda rng: np.sort(reference_sample_indices(rng, 5, 5))),
    "srswor(2**33, 40)": (
        lambda seed: srswor(2**33, 40, seed),
        lambda rng: np.sort(sparse_swap_loop(_picks(rng, 2**33, 40)))),
    "generate_population(50)": (
        lambda seed: generate_population(COPULA, 50, seed).xyz,
        lambda rng: np.matmul(COPULA.cholesky(), rng.standard_normal((3, 50))) * 1.0 + 0.0),
}


def job_bytes(result):
    """The bytes of a job's arrays: a sample's phases, or one array."""
    if isinstance(result, TwoPhaseSample):
        result = result.first_phase, result.second_phase
    if isinstance(result, np.ndarray):
        result = (result,)
    return b"".join(part.tobytes() for part in result)


class TestStreamGenerator:
    """The public draws and generate_population share one Philox generator
    per thread, set to each stream's start: whatever ran before on the
    thread, or on another thread at once, each equals a fresh generator's."""

    STREAMS = range(12)

    def expected(self):
        return {(name, r): job_bytes(fresh(SeedSpec(2002, r).generator()))
                for name, (_, fresh) in STREAM_JOBS.items() for r in self.STREAMS}

    @staticmethod
    def run(name, r):
        return job_bytes(STREAM_JOBS[name][0](SeedSpec(2002, r)))

    def test_one_generator_per_thread(self):
        mine = _stream_generator(1, 2)
        assert _stream_generator(3, 4) is mine
        with ThreadPoolExecutor(1) as pool:
            theirs = pool.submit(_stream_generator, 1, 2).result()
        assert theirs is not mine

    def test_interleaved_streams_draw_as_fresh_generators(self):
        expected = self.expected()
        for order in (list(STREAM_JOBS), list(STREAM_JOBS)[::-1]):
            for r in self.STREAMS:
                for name in order:
                    assert self.run(name, r) == expected[name, r], (name, r)

    def test_threads_at_once_draw_as_fresh_generators(self):
        # more threads than cores, switching as often as the interpreter
        # allows: a generator shared between threads would mix their streams
        expected = {key: {value} for key, value in self.expected().items()}
        threads = 4
        start = threading.Barrier(threads, timeout=60)

        def run(shift):
            start.wait()
            got = {}
            for _ in range(3):
                for r in [*self.STREAMS[shift:], *self.STREAMS[:shift]]:
                    for name in STREAM_JOBS:
                        got.setdefault((name, r), set()).add(self.run(name, r))
            return got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(threads) as pool:
                futures = [pool.submit(run, 3 * t) for t in range(threads)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * threads


# k close to N, or k large against sqrt(N), makes many picks repeat or fall below k;
# (1200, 300) is the second phase of a superpop-n20000 draw
ORDER_SIZES = [(2, 2), (10, 10), (50, 49), (1000, 999), (600, 150), (5000, 600), (20000, 1200),
               (1200, 300)]


class TestSampleIndices:
    @pytest.mark.parametrize("N,k", ORDER_SIZES)
    def test_matches_swap_loop_in_order(self, N, k):
        # the second phase indexes the first in draw order, so the order counts
        for r in range(ORACLE_SEEDS):
            seed = SeedSpec(2002, r)
            got = _resolve(_draw_picks(2002, [r], N, k)[0], N)[0]
            expected = reference_sample_indices(seed.generator(), N, k)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected), (N, k, r)


# (100000, 600) is the design-csv estimate draw; at (10**6, 600) nearly
# every pick lies at or above k and occurs once, so few steps are kept
BLOCK_SIZES = ORDER_SIZES + [(100_000, 600), (10**6, 600)]
BLOCK_STREAMS = 48


@st.composite
def pick_blocks(draw):
    """(picks, N): a (B, k) block with picks[b, i] in [i, N), each pick a
    self-pick, the next position (a writer chain), the last position (all
    equal) or any valid one."""
    N = draw(st.integers(1, 80))
    k = draw(st.integers(1, N))
    B = draw(st.integers(1, 4))
    picks = np.empty((B, k), dtype=np.int64)
    for b in range(B):
        for i in range(k):
            picks[b, i] = draw(st.sampled_from([i, min(i + 1, N - 1), N - 1,
                                                draw(st.integers(i, N - 1))]))
    return picks, N


class TestResolve:
    @pytest.mark.parametrize("N,k", BLOCK_SIZES)
    @pytest.mark.parametrize("B", [1, 3, 16])
    def test_block_rows_match_swap_loop(self, N, k, B):
        # every row of a block resolves as the reference does on its own stream
        for lo in range(0, BLOCK_STREAMS, B):
            streams = range(lo, lo + B)
            block = np.stack([_picks(SeedSpec(2002, r).generator(), N, k) for r in streams])
            got = _resolve(block, N)
            assert got.dtype == np.int64 and got.shape == (B, k)
            for row, r in zip(got, streams):
                expected = reference_sample_indices(SeedSpec(2002, r).generator(), N, k)
                assert np.array_equal(row, expected), (N, k, B, r)

    @given(pick_blocks())
    @settings(derandomize=True, max_examples=200, deadline=None)
    @example((np.arange(6)[None], 6))  # every step a self-pick
    @example((np.full((2, 5), 9), 10))  # every pick equal
    @example((np.minimum(np.arange(1, 41), 39)[None], 40))  # step i writes position i + 1
    @example((np.array([[3, 3, 3, 3], [1, 2, 3, 3]]), 4))  # a chain ending in a self-pick
    def test_arbitrary_picks_match_swap_loop(self, case):
        picks, N = case
        got = _resolve(picks, N)
        for row, row_picks in zip(got, picks):
            assert np.array_equal(row, swap_loop(row_picks, N)), (picks, N)

    @given(pick_blocks())
    @settings(derandomize=True, max_examples=200, deadline=None)
    @example((np.full((2, 5), 9), 10))  # every pick equal, and at or above k
    def test_picks_past_2_62_shift_their_outputs(self, case):
        # no swap loop holds 2**62 units: every pick at or above k, and N, move
        # up by 2**62, so N * k passes 2**63 and the keys take the picks' ranks;
        # the outputs at or above k move up with them and the others stay
        picks, N = case
        k = picks.shape[1]
        got = _resolve(np.where(picks >= k, picks + 2**62, picks), N + 2**62)
        for row, row_picks in zip(got, picks):
            expected = swap_loop(row_picks, N)
            assert np.array_equal(row, np.where(expected >= k, expected + 2**62, expected)), (
                picks, N)

    @pytest.mark.parametrize("B", [1, 16])
    def test_table_stays_a_multiple_of_the_picks(self, B):
        # the resolver's memory is O(B k), not O(B N): the sorted keys, decoded
        # in place beside their steps, the pointer table and the outputs
        N, k = 10**6, 50_000
        block = np.stack([_picks(SeedSpec(2002, r).generator(), N, k) for r in range(B)])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _resolve(block, N)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 8 * block.nbytes, peak / block.nbytes


def integers_picks(r, N, n, m):
    """Stream r's first-phase picks over range(N), then its second-phase
    picks over range(n), by ``Generator.integers``."""
    rng = SeedSpec(2002, r).generator()
    return rng.integers(low=np.arange(n), high=N), rng.integers(low=np.arange(m), high=n)


def raw_words(streams, n, m):
    """The block of raw Philox words a draw of the streams reads."""
    return np.stack([SeedSpec(2002, r).generator().bit_generator.random_raw((n + m + 1) // 2)
                     for r in streams])


# (N, n, m): ORDER_SIZES and BLOCK_SIZES hold n == N, odd n (1000, 999) and
# large N; m == 0 is a one-phase draw, as srswor's
PICK_SIZES = [(N, k, k // 4) for N, k in BLOCK_SIZES] + [
    (5000, 601, 150),  # odd n: the second phase opens on a high half
    (5000, 600, 151),  # odd n + m: the last word's high half goes unused
    (2**32, 1, 0),  # a span of 2**32, whose pick numpy takes as the half itself
    (2**32, 3, 1),  # spans just under 2**32: nearly every row redrawn
    (2**32 + 1, 3, 1),  # 64-bit picks: every row by Generator.integers
    (3 * 2**30, 1, 0),  # numpy rejects a quarter of the halves here
    (3 * 2**30, 2, 1),
]


class TestPicks:
    @pytest.mark.parametrize("N,n,m", PICK_SIZES)
    @pytest.mark.parametrize("B", [1, 16])
    def test_rows_match_integers_on_their_own_streams(self, N, n, m, B):
        for lo in range(0, BLOCK_STREAMS, B):
            streams = range(lo, lo + B)
            first, second = _draw_picks(2002, streams, N, n, m)
            assert first.dtype == second.dtype == np.int64
            assert first.shape == (B, n) and second.shape == (B, m)
            for r, got_first, got_second in zip(streams, first, second):
                expected_first, expected_second = integers_picks(r, N, n, m)
                assert np.array_equal(got_first, expected_first), (N, n, m, B, r)
                assert np.array_equal(got_second, expected_second), (N, n, m, B, r)

    @pytest.mark.parametrize("N,n,m", [(600, 150, 37), (5000, 600, 150), (5000, 601, 151),
                                       (20000, 1200, 300), (100_000, 600, 150)])
    def test_kernel_vouches_for_nearly_every_row(self, N, n, m):
        # the fallback alone passes the test above: the kernel's own picks must
        # be exact, on nearly every row
        streams = range(BLOCK_STREAMS)
        first, second, inexact = _lemire(raw_words(streams, n, m), N, n, m)
        assert len(inexact) <= 2
        for r in set(streams) - set(inexact):
            expected_first, expected_second = integers_picks(r, N, n, m)
            assert np.array_equal(first[r], expected_first), (N, n, m, r)
            assert np.array_equal(second[r], expected_second), (N, n, m, r)

    def test_kernel_exact_at_a_span_of_2_32(self):
        streams = range(BLOCK_STREAMS)
        first, _, inexact = _lemire(raw_words(streams, 1, 0), 2**32, 1, 0)
        assert len(inexact) == 0
        assert np.array_equal(first[:, 0], [integers_picks(r, 2**32, 1, 0)[0][0] for r in streams])

    def test_redrawn_rows_keep_their_neighbours(self):
        # flagged and exact rows alternate within one block
        N, n, m = 3 * 2**30, 1, 0
        streams = range(16)
        first, _, inexact = _lemire(raw_words(streams, n, m), N, n, m)
        exact = np.ones(16, dtype=bool)
        exact[inexact] = False
        assert exact.any() and not exact.all()
        got, _ = _draw_picks(2002, streams, N, n, m)
        assert np.array_equal(got[exact], first[exact])
        for r in streams:
            assert np.array_equal(got[r], integers_picks(r, N, n, m)[0]), r


class TestDraws:
    @pytest.mark.parametrize("N,n,m", PICK_SIZES)
    def test_block_rows_equal_the_public_draws(self, N, n, m):
        # a chunk of 16, then a tail of 5, as the engine draws 21 replicates
        for streams in (range(16), range(16, 21)):
            first, second = _draws(2002, streams, N, n, m)
            assert first.shape == (len(streams), n) and second.shape == (len(streams), m)
            for r, got_first, got_second in zip(streams, first, second):
                if m:
                    sample = draw_two_phase(N, n, m, SeedSpec(2002, r))
                    expected_first, expected_second = sample.first_phase, sample.second_phase
                else:
                    expected_first, expected_second = srswor(N, n, SeedSpec(2002, r)), []
                assert np.array_equal(got_first, expected_first), (N, n, m, r)
                assert np.array_equal(got_second, expected_second), (N, n, m, r)


class TestSrswor:
    def test_census(self):
        assert np.array_equal(srswor(5, 5, SeedSpec(0, 0)), np.arange(5))

    def test_determinism(self):
        a = srswor(100, 17, SeedSpec(42, 3))
        b = srswor(100, 17, SeedSpec(42, 3))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = srswor(100, 17, SeedSpec(42, 3))
        b = srswor(100, 17, SeedSpec(42, 4))
        assert not np.array_equal(a, b)

    def test_k_distinct_sorted_in_range(self, rng):
        for _ in range(100):
            N = int(rng.integers(1, 60))
            k = int(rng.integers(1, N + 1))
            idx = srswor(N, k, SeedSpec(int(rng.integers(2**32)), 0))
            assert idx.size == k
            assert np.unique(idx).size == k
            assert idx[0] >= 0 and idx[-1] < N
            assert np.all(np.diff(idx) > 0)

    @pytest.mark.parametrize("N,k", ORACLE_SIZES)
    def test_matches_swap_loop(self, N, k):
        for r in range(ORACLE_SEEDS):
            seed = SeedSpec(2002, r)
            expected = np.sort(reference_sample_indices(seed.generator(), N, k))
            assert np.array_equal(srswor(N, k, seed), expected), (N, k, r)

    def test_k_larger_than_N(self):
        with pytest.raises(ValueError):
            srswor(4, 5, SeedSpec(0, 0))

    def test_size_past_int64_names_the_bound(self):
        # numpy raised its own "high is out of bounds for int64"
        with pytest.raises(ValueError, match=r"N < 2\*\*63, got k=2, N=1180591620717411303424"):
            srswor(2**70, 2, SeedSpec(1))
        idx = srswor(2**63 - 1, 2, SeedSpec(1))
        assert idx.size == 2 and idx[0] < idx[1] <= 2**63 - 2

    def test_non_integer_sizes_rejected(self):
        # 10.5 units drew three indices
        for N, k in ((10.5, 3), (10, 3.0), ("10", 3)):
            with pytest.raises(ValueError, match="require integers"):
                srswor(N, k, SeedSpec(1))
        expected = srswor(10, 3, SeedSpec(1))
        assert np.array_equal(srswor(np.int64(10), np.int32(3), SeedSpec(1)), expected)

    def test_single_draw_uniform(self):
        # 60,000 draws of one index from six: each count within 3 sigma of 10,000
        counts = np.zeros(6, dtype=int)
        for r in range(60_000):
            counts[srswor(6, 1, SeedSpec(1234, r))[0]] += 1
        sigma = math.sqrt(60_000 * (1 / 6) * (5 / 6))
        assert np.all(np.abs(counts - 10_000) <= 3 * sigma), counts

    def test_every_subset_equally_probable(self):
        # all 10 two-subsets of five units within 3 sigma of uniform
        from collections import Counter

        R = 30_000
        counts = Counter(tuple(srswor(5, 2, SeedSpec(88, r))) for r in range(R))
        assert len(counts) == 10
        sigma = math.sqrt(R * 0.1 * 0.9)
        for subset, c in counts.items():
            assert abs(c - R / 10) <= 3 * sigma, (subset, c)


class TestDrawTwoPhase:
    def test_nested_and_sized(self):
        s = draw_two_phase(4, 3, 2, SeedSpec(9, 0))
        assert s.n == 3 and s.m == 2
        assert set(s.second_phase) <= set(s.first_phase)

    def test_census_first_phase(self):
        s = draw_two_phase(8, 8, 3, SeedSpec(9, 0))
        assert np.array_equal(s.first_phase, np.arange(8))

    def test_determinism(self):
        a = draw_two_phase(50, 20, 7, SeedSpec(5, 11))
        b = draw_two_phase(50, 20, 7, SeedSpec(5, 11))
        assert np.array_equal(a.first_phase, b.first_phase)
        assert np.array_equal(a.second_phase, b.second_phase)

    @pytest.mark.parametrize("N,n", [(N, k) for N, k in ORACLE_SIZES if k >= 2])
    def test_matches_swap_loop(self, N, n):
        m = max(1, n // 4)
        for r in range(ORACLE_SEEDS):
            seed = SeedSpec(2002, r)
            rng = seed.generator()
            first = reference_sample_indices(rng, N, n)
            second = first[reference_sample_indices(rng, n, m)]
            s = draw_two_phase(N, n, m, seed)
            assert np.array_equal(s.first_phase, np.sort(first)), (N, n, r)
            assert np.array_equal(s.second_phase, np.sort(second)), (N, n, r)

    @pytest.mark.parametrize("N,n", [(N, k) for N, k in ORACLE_SIZES if k >= 2])
    def test_sample_equals_checked_constructor(self, N, n):
        # the draw builds its sample unchecked: sorted read-only int64 arrays
        # that the public constructor accepts unchanged
        m = max(1, n // 4)
        for r in range(ORACLE_SEEDS):
            s = draw_two_phase(N, n, m, SeedSpec(2002, r))
            checked = TwoPhaseSample(s.first_phase, s.second_phase)
            for got, expected in ((s.first_phase, checked.first_phase),
                                  (s.second_phase, checked.second_phase)):
                assert got.dtype == np.int64 and not got.flags.writeable
                assert np.all(got[1:] > got[:-1])
                assert np.array_equal(got, expected), (N, n, r)

    def test_size_ordering_enforced(self):
        with pytest.raises(ValueError, match="m < n"):
            draw_two_phase(10, 5, 5, SeedSpec(0, 0))
        with pytest.raises(ValueError, match="m < n"):
            draw_two_phase(10, 11, 5, SeedSpec(0, 0))

    def test_size_past_int64_names_the_bound(self):
        # numpy raised OverflowError at 2**63 and ValueError on its own bound at 2**64
        for N in (2**63, 2**64):
            with pytest.raises(ValueError, match=rf"N < 2\*\*63 with m >= 1, got m=2, n=5, N={N}"):
                draw_two_phase(N, 5, 2, SeedSpec(1))
        s = draw_two_phase(2**63 - 1, 5, 2, SeedSpec(1))
        assert s.n == 5 and s.first_phase[-1] <= 2**63 - 2

    def test_non_integer_sizes_rejected(self):
        # a float n ended in numpy's TypeError, and a float N drew
        for N, n, m in ((5000, 600.0, 150), (5000.0, 600, 150), (5000, 600, 150.0)):
            with pytest.raises(ValueError, match="require integers"):
                draw_two_phase(N, n, m, SeedSpec(1))
        s = draw_two_phase(np.int64(5000), np.int64(600), np.int64(150), SeedSpec(1))
        t = draw_two_phase(5000, 600, 150, SeedSpec(1))
        assert np.array_equal(s.first_phase, t.first_phase)
        assert np.array_equal(s.second_phase, t.second_phase)

    def test_nestedness_many_draws(self, rng):
        for r in range(200):
            N = int(rng.integers(4, 40))
            n = int(rng.integers(2, N + 1))
            m = int(rng.integers(1, n))
            s = draw_two_phase(N, n, m, SeedSpec(77, r))
            assert set(s.second_phase) <= set(s.first_phase)

    def test_second_phase_marginal_law(self):
        # over 50,000 replicates each unit lands in S_m with frequency m/N
        R = 50_000
        freq = np.zeros(8)
        for r in range(R):
            s = draw_two_phase(8, 5, 2, SeedSpec(77, r))
            freq[s.second_phase] += 1
        freq /= R
        band = 3 * math.sqrt(0.25 * 0.75 / R)
        assert np.all(np.abs(freq - 2 / 8) <= band), freq

    def test_first_phase_inclusion_probability(self):
        R = 20_000
        freq = np.zeros(8)
        for r in range(R):
            s = draw_two_phase(8, 5, 2, SeedSpec(78, r))
            freq[s.first_phase] += 1
        freq /= R
        band = 3 * math.sqrt(0.625 * 0.375 / R)
        assert np.all(np.abs(freq - 5 / 8) <= band), freq

    def test_second_phase_set_law_uniform(self):
        # the second phase of a (6, 4, 2) scheme is a SRSWOR pair from the
        # population: all 15 pairs within 3 sigma of uniform
        from collections import Counter

        R = 30_000
        counts = Counter(tuple(draw_two_phase(6, 4, 2, SeedSpec(89, r)).second_phase)
                         for r in range(R))
        assert len(counts) == 15
        p = 1 / 15
        sigma = math.sqrt(R * p * (1 - p))
        for pair, c in counts.items():
            assert abs(c - R * p) <= 3 * sigma, (pair, c)


class TestTwoPhaseSample:
    def test_rejects_non_subset(self):
        # above the largest first-phase index, and between first-phase values
        for first, second in (([0, 1, 2], [3]), ([0, 2, 4], [0, 5]), ([0, 2, 4], [1, 4])):
            with pytest.raises(ValueError, match="subset"):
                TwoPhaseSample(first_phase=first, second_phase=second)

    def test_rejects_duplicates(self):
        for first, second in (([0, 1, 1], [0]), ([0, 1, 2], [1, 1])):
            with pytest.raises(ValueError, match="duplicates"):
                TwoPhaseSample(first_phase=first, second_phase=second)

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError, match="^indices must be nonnegative$"):
            TwoPhaseSample(first_phase=[-1, 2, 3], second_phase=[2])

    def test_rejects_equal_sizes(self):
        with pytest.raises(ValueError, match="m < n"):
            TwoPhaseSample(first_phase=[0, 1], second_phase=[0, 1])

    def test_rejects_non_integer_indices(self):
        # floats were truncated to valid-looking indices, and 1e30 overflowed
        for first, second in (([0.7, 1.2, 2.9], [1.9]), ([1e30, 2, 3], [2]),
                              ([0, 1, 2], [1.0]), ([True, False, True], [True]),
                              ([2**70, 1, 2], [1])):
            with pytest.raises(ValueError, match="must be integers"):
                TwoPhaseSample(first_phase=first, second_phase=second)

    def test_integer_dtypes_accepted_and_empty_phase_message_kept(self):
        s = TwoPhaseSample(np.array([4, 0, 2], dtype=np.uint8), np.array([2], dtype=np.int32))
        assert s.first_phase.dtype == np.int64 and np.array_equal(s.first_phase, [0, 2, 4])
        with pytest.raises(ValueError, match="both phases nonempty"):
            TwoPhaseSample(first_phase=[0, 1, 2], second_phase=[])
