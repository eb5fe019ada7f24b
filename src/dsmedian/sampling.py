"""SRSWOR and the nested two-phase selection scheme, fully replayable.

Randomness is owned by a counter-based Philox generator keyed by
``(master_seed, stream_id)``: the same :class:`SeedSpec` reproduces the
same draw on any platform, and distinct stream ids can be consumed
concurrently with no coordination.  Subsets are selected by a partial
Fisher-Yates shuffle whose bounded integers (its picks) are those of the
generator's rejection-based ``integers`` method, so every k-subset is
equally likely.

A draw's picks come from the stream's raw 64-bit Philox words, two
32-bit halves each, the low half first, by numpy's 32-bit Lemire rule
(:func:`_lemire`): pick i over N is ``i + (half * (N - i) >> 32)``.
numpy redraws a half whose leftover ``half * (N - i) mod 2**32`` lies
below a threshold under ``N - i``, so a stream with a leftover below
``N - i`` goes whole to ``Generator.integers`` (:func:`_picks`), as does
every draw over more than 2**32 units, whose picks take 64-bit words,
or of all N units, whose last pick takes no half.  So the picks are
``Generator.integers``'s on every stream, whatever numpy's threshold.

:func:`_resolve` then turns a (B, k) block of picks into the B
shuffles' outputs at once, exactly: only the steps whose pick lies below
k or recurs can output other than their pick, and one value sort of each
row's keys ``pick << s | i``, s = (k - 1).bit_length(), finds exactly
those steps and orders them, and a shift and a mask decode them.  The
keys fit int64 while ``N << s <= 2**63``; only a draw over more than
2**31 units can pass that, and its keys take the picks' ranks.

One entry, :func:`_draws`, draws a block of streams, setting one Philox
generator to each stream's start, the state a fresh
:meth:`SeedSpec.generator` starts from, so a draw is the same whatever
block it is drawn in.  The replicate engine calls it once per chunk, and
the public draws with a block of one.  Each thread keeps one such
generator (:func:`_stream_generator`), which ``generate_population``
shares: every use sets its whole state to the stream's start first, so
no draw sees another's words, across threads or in a forked worker, and
no draw pays for building a generator.  The package's own draw checks its
sizes, not its indices: it builds its :class:`TwoPhaseSample` from
indices valid by construction, while the public constructor checks every
one.
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core_stats import _integers

__all__ = ["SeedSpec", "TwoPhaseSample", "srswor", "draw_two_phase"]

_U64 = 2**64
_I64 = 2**63  # the public draws' size bound: a pick is an int64
_U32 = 2**32


@dataclass(frozen=True)
class SeedSpec:
    """(master_seed, stream_id) pair that fully determines every draw."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not _integers(v) or not 0 <= int(v) < _U64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        """Fresh counter-based generator for this (master_seed, stream_id)."""
        return np.random.Generator(np.random.Philox(key=_key(self.master_seed, self.stream_id)))


def _key(master_seed: int, stream_id: int) -> np.ndarray:
    """The Philox key of a stream: [master_seed, stream_id]."""
    return np.array([master_seed, stream_id], dtype=np.uint64)


@functools.cache
def _fresh_state() -> dict:
    """A fresh Philox generator's state: counter 0, no buffered word or
    half word.  Built at the first draw, not at import."""
    return np.random.Philox(0).state


def _stream_state(master_seed: int, stream_id: int) -> dict:
    """The Philox state ``SeedSpec(master_seed, stream_id).generator()``
    starts from: a fresh generator's, with the stream's key."""
    fresh = _fresh_state()
    return {**fresh, "state": {**fresh["state"], "key": _key(master_seed, stream_id)}}


_local = threading.local()  # this thread's Philox generator, built at its first draw


def _stream_generator(master_seed: int, stream_id: int) -> np.random.Generator:
    """This thread's one Philox generator, set to the start of the stream
    ``(master_seed, stream_id)``: it draws what a fresh
    ``SeedSpec(master_seed, stream_id).generator()`` draws.  Each use sets
    the whole state, so threads, forked workers and interleaved streams
    never see each other's words; setting it costs a fraction of a build."""
    try:
        rng = _local.rng
    except AttributeError:
        rng = _local.rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = _stream_state(master_seed, stream_id)
    return rng


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given,
    past its constructor's checks: for the package's values valid by construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, eq=False)
class TwoPhaseSample:
    """Nested index sets: second_phase (size m) inside first_phase (size n),
    as sorted read-only int64 arrays, every index checked by the constructor
    (:func:`draw_two_phase`'s sample, valid by construction, skips it)."""

    first_phase: np.ndarray
    second_phase: np.ndarray

    def __post_init__(self) -> None:
        first, second = np.asarray(self.first_phase), np.asarray(self.second_phase)
        for phase in (first, second):
            if phase.size and not np.issubdtype(phase.dtype, np.integer):
                raise ValueError(f"phase indices must be integers, got dtype {phase.dtype}")
        first = np.sort(np.asarray(first, dtype=np.int64))
        second = np.sort(np.asarray(second, dtype=np.int64))
        if (first[1:] == first[:-1]).any() or (second[1:] == second[:-1]).any():
            raise ValueError("phase index sets must not contain duplicates")
        if not (0 < second.size < first.size):
            raise ValueError("require m < n with both phases nonempty")
        if first.size and first[0] < 0:
            raise ValueError("indices must be nonnegative")
        # second is sorted, so only its last insertion point can run past the end
        pos = np.searchsorted(first, second)
        if pos[-1] == first.size or (first[pos] != second).any():
            raise ValueError("second phase must be a subset of the first phase")
        first.flags.writeable = False
        second.flags.writeable = False
        object.__setattr__(self, "first_phase", first)
        object.__setattr__(self, "second_phase", second)

    @property
    def n(self) -> int:
        return self.first_phase.size

    @property
    def m(self) -> int:
        return self.second_phase.size


def _picks(rng: np.random.Generator, N: int, k: int) -> np.ndarray:
    """The k bounded integers of a partial Fisher-Yates shuffle of range(N),
    pick i uniform on [i, N), by ``Generator.integers``: the reference
    :func:`_draw_picks` falls back to."""
    return rng.integers(low=np.arange(k), high=N)


def _draw_picks(
    master_seed: int, streams: Sequence[int], N: int, n: int, m: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The (B, n) picks over range(N) and (B, m) picks over range(n) that
    ``_picks(rng, N, n)`` and then ``_picks(rng, n, m)`` draw on each of the
    B streams ``(master_seed, r)``, ``rng`` a fresh generator of the stream.

    The thread's generator is set to each stream's start in turn, and the
    picks come from its raw words through :func:`_lemire`.  A row it
    cannot vouch for is drawn again from the stream's start by
    ``Generator.integers``, and so is every row of a block that cannot use
    raw words: a draw over more than 2**32 units (64-bit picks) or of all
    N units (its last pick takes no half)."""
    B = len(streams)
    if N <= _U32 and m < n < N:
        words = np.empty((B, (n + m + 1) // 2), dtype=np.uint64)
        for b, r in enumerate(streams):
            words[b] = _stream_generator(master_seed, r).bit_generator.random_raw(words.shape[1])
        first, second, redo = _lemire(words, N, n, m)
    else:
        first, second = np.empty((B, n), dtype=np.int64), np.empty((B, m), dtype=np.int64)
        redo = range(B)
    for b in redo:
        rng = _stream_generator(master_seed, streams[b])
        first[b], second[b] = _picks(rng, N, n), _picks(rng, n, m)
    return first, second


def _lemire(
    words: np.ndarray, N: int, n: int, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray | list[int]]:
    """The (B, n) picks over range(N) and (B, m) picks over range(n) of a
    (B, ceil((n + m) / 2)) block of raw Philox words, by numpy's 32-bit
    Lemire rule, and the rows that are not exact.

    Each word gives two 32-bit halves, the low half first (read as
    little-endian, whatever the machine's byte order), as numpy's
    ``next_uint32`` takes them; half n + i opens the second phase, on a
    high half when n is odd.  Pick i of a phase over N is
    ``i + (half * (N - i) >> 32)``, in uint64, for 1 < N - i <= 2**32.
    numpy redraws the half while its leftover ``half * (N - i) mod 2**32``
    lies below ``2**32 mod (N - i)``, so a row is not exact where any
    leftover lies below ``N - i``, a superset of that test.  At
    N - i = 2**32 numpy takes the half as is, and the flag compares with
    ``(N - i) mod 2**32``, which is 0 there."""
    offset, span, span_low = _lemire_spans(N, n, m)
    halves = words.astype("<u8", copy=False).view("<u4")
    scaled = halves[:, :n + m].astype(np.uint64)
    scaled *= span
    flagged = (scaled & 0xFFFFFFFF) < span_low
    scaled >>= 32
    scaled += offset
    picks = scaled.view(np.int64)  # every pick lies below N <= 2**32
    # about one draw in 1000 at (5000, 600, 150) has a flag: test the block first
    inexact = np.flatnonzero(flagged.any(axis=1)) if flagged.any() else []
    return picks[:, :n], picks[:, n:], inexact


@functools.lru_cache(maxsize=8)
def _lemire_spans(N: int, n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (n + m) uint64 offsets i of :func:`_lemire`'s two phases, their
    spans N - i and n - i, and the spans mod 2**32, read-only: built once
    per design, not per draw."""
    offset = np.arange(n + m, dtype=np.uint64)
    offset[n:] -= n
    span = np.full(n + m, n, dtype=np.uint64)
    span[:n] = N
    span -= offset
    arrays = offset, span, span & 0xFFFFFFFF
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _resolve(picks: np.ndarray, N: int) -> np.ndarray:
    """Each row of a (B, k) block of picks, ``picks[b, i]`` in ``[i, N)``,
    resolved to the first k entries of its partial Fisher-Yates shuffle of
    range(N), in draw order.

    Step i swaps pool positions i and p = ``picks[b, i]``, and position i is
    final after it, so step i outputs the value at p just before it.  Let
    W(s) be the value at position s just before step s.  A position is
    written only at its own step and at the steps that pick it, so:

    - step i outputs p if no earlier step picked p, and W(q) otherwise, for
      the previous step q that picked p, which left W(q) there;
    - W(s) is s if no step before s picked s, and W(t) otherwise, for the
      last step t < s that picked s: the writer of s.  W(s) is needed only
      by a later step that picks what step s picked and by the position
      step s wrote, so a self-pick (step s picks s) never needs it: a
      later step picks only from its own index on.

    Only positions below k have steps, so only the steps whose pick lies
    below k or recurs need either rule; every other step outputs its pick.
    One value sort of each row's unique keys ``pick << s | i``, with
    s = (k - 1).bit_length() so that every step i < k fits the low s bits,
    orders its steps by (pick, step), as ``pick * k + i`` would; a mask
    takes each step back and a shift its pick, in place of a division.  So
    a pick recurs exactly where it equals a neighbour's, and the steps kept
    are those and the picks below k.  That order puts each kept step just
    after its previous occurrence and each position's writers in step
    order; the last is its writer, or its own self-pick, whose W is never
    read.  Pointer jumping over the writers, whose steps strictly fall
    along a chain, gives every W it needs.

    Where ``N << s`` passes 2**63 the keys would overflow int64, so they
    take the picks' ranks in the block, which keep their order and ties.
    A rank is at most its pick, so the steps kept include every pick below
    k, and any other kept step's pick occurs once: it outputs that pick.
    """
    B, k = picks.shape
    s = (k - 1).bit_length()
    # the picks, or their ranks in the block where pick << s | i could pass int64
    codes = np.unique(picks, return_inverse=True)[1].reshape(B, k) if N << s > _I64 else picks
    keys = codes << s
    keys |= np.arange(k)
    keys.sort(axis=1)
    step = keys & ((1 << s) - 1)
    code = np.right_shift(keys, s, out=keys)  # the codes overwrite the keys
    if B > 1:  # flat b * k + i, ordered by (row, pick, step); one row is flat already
        step += k * np.arange(B)[:, None]
    repeat = np.zeros((B, k), dtype=bool)  # the step picks what the step before it picked
    np.equal(code[:, 1:], code[:, :-1], out=repeat[:, 1:])
    keep = (code < k) | repeat
    keep[:, :-1] |= repeat[:, 1:]  # and the step after it picks the same
    step, repeat = step[keep], repeat[keep][1:]
    pick = picks.ravel()[step]
    # the picked position, flat, where the pick is below k
    pos = step - step % k + pick if B > 1 else pick
    writes = pick < k
    writes[:-1] &= ~repeat  # only the last step to pick a position
    root = np.arange(B * k)  # flat position s -> the flat position whose index is W(s)
    nodes, link = pos[writes], step[writes]
    root[nodes] = link
    while not ((jump := root[link]) == link).all():
        root[nodes] = link = jump
    out = picks.flatten()
    out[step[1:][repeat]] = root[step[:-1][repeat]] % k
    return out.reshape(B, k)


def _draws(
    master_seed: int, streams: Sequence[int], N: int, n: int, m: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted (B, n) first phases and (B, m) second phases of the draws
    on the B streams ``(master_seed, r)``, r in ``streams``: the one entry
    to every draw.  Each phase's picks (:func:`_draw_picks`) are resolved
    as one block, and the second phase's positions in the first are
    gathered from the first phase in draw order; then both are sorted."""
    N, n, m = int(N), int(n), int(m)  # a numpy integer would turn the uint64 arithmetic to float
    first_picks, second_picks = _draw_picks(master_seed, streams, N, n, m)
    first = _resolve(first_picks, N)
    second = first[np.arange(len(first))[:, None], _resolve(second_picks, n)]
    first.sort(axis=1)
    second.sort(axis=1)
    return first, second


def srswor(N: int, k: int, seed: SeedSpec) -> np.ndarray:
    """Simple random sample without replacement: k distinct indices in [0, N).

    Returned sorted ascending.  Deterministic in ``seed``; every k-subset
    is equally probable.
    """
    if not (_integers(N, k) and 1 <= k <= N < _I64):
        raise ValueError(f"require integers 1 <= k <= N < 2**63, got k={k}, N={N}")
    return _draws(seed.master_seed, [seed.stream_id], N, k)[0][0]


def draw_two_phase(N: int, n: int, m: int, seed: SeedSpec) -> TwoPhaseSample:
    """Draw S_n by SRSWOR from the population, then S_m by SRSWOR within S_n.

    The marginal law of the second phase is SRSWOR of size m from the
    population; the two phases share one random stream so a single
    :class:`SeedSpec` replays the whole draw.
    """
    if not (_integers(N, n, m) and 1 <= m < n <= N < _I64):
        raise ValueError(
            f"require integers m < n <= N < 2**63 with m >= 1, got m={m}, n={n}, N={N}"
        )
    first, second = _draws(seed.master_seed, [seed.stream_id], N, n, m)
    first.flags.writeable = second.flags.writeable = False
    return _unchecked(TwoPhaseSample, first_phase=first[0], second_phase=second[0])
