"""SRSWOR and the nested two-phase selection scheme, fully replayable.

Randomness is owned by a counter-based Philox generator keyed by
``(master_seed, stream_id)``: the same :class:`SeedSpec` reproduces the
same draw on any platform, and distinct stream ids can be consumed
concurrently with no coordination.  Subsets are selected by a partial
Fisher-Yates shuffle whose bounded integers come from the generator's
rejection-based ``integers`` method, so every k-subset is equally likely.

A replicate loop need not build a generator per stream: re-keying one
Philox generator to ``[master_seed, stream_id]`` at counter 0 with an
empty buffer puts it in the state a fresh :meth:`SeedSpec.generator`
starts from, so its draws are the same.  The package's own draw checks its
sizes, not its indices: it builds its :class:`TwoPhaseSample` from indices
valid by construction, while the public constructor checks every one.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

__all__ = ["SeedSpec", "TwoPhaseSample", "srswor", "draw_two_phase"]

_U64 = 2**64


@dataclass(frozen=True)
class SeedSpec:
    """(master_seed, stream_id) pair that fully determines every draw."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 0 <= int(v) < _U64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        """Fresh counter-based generator for this (master_seed, stream_id)."""
        return np.random.Generator(np.random.Philox(key=_key(self.master_seed, self.stream_id)))


def _key(master_seed: int, stream_id: int) -> np.ndarray:
    """The Philox key of a stream: [master_seed, stream_id]."""
    return np.array([master_seed, stream_id], dtype=np.uint64)


def _rekey(rng: np.random.Generator, master_seed: int, stream_id: int) -> None:
    """Put ``rng``, a Philox generator, in the state that
    ``SeedSpec(master_seed, stream_id).generator()`` starts from: the
    stream's key, counter 0, no buffered word and no buffered half word."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": _key(master_seed, stream_id)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


@dataclass(frozen=True, eq=False)
class TwoPhaseSample:
    """Nested index sets: second_phase (size m) inside first_phase (size n),
    as sorted read-only int64 arrays.  ``_trusted``, for the package's own
    draw, adopts the sorted read-only arrays it passes without checks."""

    first_phase: np.ndarray
    second_phase: np.ndarray
    _trusted: InitVar[bool] = False

    def __post_init__(self, _trusted: bool) -> None:
        if _trusted:
            return
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


def _sample_indices(rng: np.random.Generator, N: int, k: int) -> np.ndarray:
    """First k entries of a partial Fisher-Yates shuffle of range(N).

    Step i swaps pool positions i and j = picks[i] >= i, after which
    position i is final.  The pool is kept sparse on Python ints: ``moved``
    maps each position a swap has written to its current value, and every
    other position still holds its own index.

    Only the steps whose pick recurs or lies below k run the swap; every
    other step outputs its pick unchanged.  That is exact: a position >= k
    is only ever read as a pick, so a write to it matters only if the pick
    recurs; a position below k is read at its own step, and only steps that
    pick it, all of which run, write to it.
    """
    picks = rng.integers(low=np.arange(k), high=N)
    order = picks.argsort()
    tie = np.flatnonzero(picks[order[1:]] == picks[order[:-1]])
    swaps = picks < k
    swaps[order[tie]] = True
    swaps[order[tie + 1]] = True
    steps = np.flatnonzero(swaps)
    moved: dict[int, int] = {}
    values = []
    for i, j in zip(steps.tolist(), picks[steps].tolist()):
        values.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    picks[steps] = values
    return picks


def srswor(N: int, k: int, seed: SeedSpec) -> np.ndarray:
    """Simple random sample without replacement: k distinct indices in [0, N).

    Returned sorted ascending.  Deterministic in ``seed``; every k-subset
    is equally probable.
    """
    if not 1 <= k <= N:
        raise ValueError(f"require 1 <= k <= N, got k={k}, N={N}")
    return np.sort(_sample_indices(seed.generator(), N, k))


def draw_two_phase(N: int, n: int, m: int, seed: SeedSpec) -> TwoPhaseSample:
    """Draw S_n by SRSWOR from the population, then S_m by SRSWOR within S_n.

    The marginal law of the second phase is SRSWOR of size m from the
    population; the two phases share one random stream so a single
    :class:`SeedSpec` replays the whole draw.
    """
    if not 1 <= m < n <= N:
        raise ValueError(f"require m < n <= N with m >= 1, got m={m}, n={n}, N={N}")
    return _draw(seed.generator(), N, n, m)


def _draw(rng: np.random.Generator, N: int, n: int, m: int) -> TwoPhaseSample:
    """:func:`draw_two_phase` from ``rng``, for checked sizes: the second
    phase is gathered from the first in draw order, then both are sorted."""
    first = _sample_indices(rng, N, n)
    second = np.sort(first[_sample_indices(rng, n, m)])
    first = np.sort(first)
    first.flags.writeable = second.flags.writeable = False
    return TwoPhaseSample(first, second, _trusted=True)
