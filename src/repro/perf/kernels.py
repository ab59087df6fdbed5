"""Process-wide memoized probability kernels.

Every standard-cell estimate evaluates the same small family of pure
combinatorial functions — the Eq. 2-3 row-spread distribution, the
Eq. 3 per-net track count, and the Eq. 8-9 central feed-through
probability — keyed only by (net size D, row count n) and a mode
string.  Across a sweep (many row counts per module, many modules per
chip, thousands of floorplan iterations) the same keys recur endlessly,
so these kernels are memoized once per process and shared by every
estimator call.

Two guarantees:

* **Bit-identical results.**  The cached implementations perform the
  same arithmetic, in the same order, as the original
  :mod:`repro.core.probability` closed forms; a cache hit returns the
  very float the uncached path would have produced.  Tests assert
  equality with caches on and off.
* **No recursion.**  The paper's b[i] recurrence is replaced by an
  iterative Stirling-table pass (:func:`surjection_table`) that
  computes all of b[1..limit] in one O(D * limit) sweep — no
  ``RecursionError`` for large D or n, and no repeated
  ``rows**components`` big-integer powers.  The literal recurrence
  survives only as a test oracle
  (:func:`repro.core.probability.surjection_count_recurrence`).

Cache statistics (hits/misses/entries/bypasses per kernel) are exposed
through :func:`kernel_cache_stats` so benchmarks and long-running
services can observe hit rates; :func:`set_cache_enabled` /
:func:`caches_disabled` exist for baseline measurements and
equivalence tests.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import EstimationError
from repro.units import round_up

#: Row-spread probability modes (see :mod:`repro.core.probability`):
#: the paper's Eq. 2 exponent k = min(n, D) vs the exact multinomial.
ROW_SPREAD_MODES = ("paper", "exact")


def _canonical_mode(components: int, rows: int, mode: str) -> str:
    """Collapse equivalent (D, n, mode) cache keys onto one.

    When ``D <= n`` the two modes are *literally* the same arithmetic:
    ``max_spread = D`` and both denominators are ``rows ** D``, so the
    PMF — and everything derived from it — is bit-identical.  Keying
    those calls under ``"paper"`` lets mixed-mode workloads (the verify
    suite runs both) share one cache entry instead of recomputing the
    identical value under a second key."""
    if mode == "exact" and components <= rows:
        return "paper"
    return mode


# ----------------------------------------------------------------------
# cache infrastructure
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CacheStats:
    """Observability snapshot for one kernel cache.

    ``bypasses`` counts calls made while memoization was globally
    disabled (:func:`caches_disabled` baseline runs).  They are neither
    hits nor misses — the cache was never consulted — so they are
    excluded from :attr:`hit_rate`.
    """

    hits: int
    misses: int
    entries: int
    bypasses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Kernel:
    """Memoizing wrapper around one pure kernel function.

    A plain dict keyed by the positional argument tuple; unlike
    ``functools.lru_cache`` it exposes hit/miss counters, can be
    disabled globally (for baseline timings and equivalence tests),
    and never evicts — the key space is tiny (net sizes x row counts).

    ``fast`` is an optional alternative implementation used to fill
    cache misses (the shared Stirling triangle below); the plain
    ``func`` remains the bypass path so disabled-cache baseline runs
    time the true seed arithmetic.
    """

    __slots__ = ("func", "fast", "name", "cache", "hits", "misses",
                 "bypasses")

    def __init__(self, func: Callable, fast: Optional[Callable] = None):
        self.func = func
        self.fast = fast if fast is not None else func
        self.name = func.__name__.lstrip("_")
        self.cache: Dict[tuple, object] = {}
        self.hits = 0
        self.misses = 0
        self.bypasses = 0

    def __call__(self, *key):
        if not _cache_state["enabled"]:
            # Not a miss: the cache was never consulted, so baseline
            # runs must not skew the hit rate.
            self.bypasses += 1
            return self.func(*key)
        try:
            value = self.cache[key]
        except KeyError:
            self.misses += 1
            value = self.fast(*key)
            self.cache[key] = value
            return value
        self.hits += 1
        return value

    def clear(self) -> None:
        self.cache.clear()
        self.hits = 0
        self.misses = 0
        self.bypasses = 0

    def stats(self) -> CacheStats:
        return CacheStats(self.hits, self.misses, len(self.cache),
                          self.bypasses)


_cache_state = {"enabled": True}
_KERNELS: Dict[str, _Kernel] = {}


def _kernel(func: Callable, fast: Optional[Callable] = None) -> _Kernel:
    wrapper = _Kernel(func, fast)
    _KERNELS[wrapper.name] = wrapper
    return wrapper


def kernel_cache_stats() -> Dict[str, CacheStats]:
    """Hits/misses/entries for every kernel cache in this process."""
    return {name: kernel.stats() for name, kernel in sorted(_KERNELS.items())}


def clear_kernel_caches() -> None:
    """Drop all cached values (including the shared Stirling triangle)
    and reset the counters."""
    for kernel in _KERNELS.values():
        kernel.clear()
    _TRIANGLE.clear()


def cache_enabled() -> bool:
    """Whether kernel memoization is currently active."""
    return _cache_state["enabled"]


def set_cache_enabled(enabled: bool) -> bool:
    """Turn memoization on or off; returns the previous setting.

    Disabling does not drop existing entries — re-enabling resumes
    hitting them.  Used by the benchmark harness to time the uncached
    seed path and by equivalence tests.
    """
    previous = _cache_state["enabled"]
    _cache_state["enabled"] = bool(enabled)
    return previous


@contextmanager
def caches_disabled() -> Iterator[None]:
    """Context manager: run a block with kernel memoization off."""
    previous = set_cache_enabled(False)
    try:
        yield
    finally:
        set_cache_enabled(previous)


# ----------------------------------------------------------------------
# Eq. 2: surjection counts via an iterative Stirling table
# ----------------------------------------------------------------------
def _surjection_table(components: int, limit: int) -> Tuple[int, ...]:
    _check_positive("components", components)
    _check_positive("limit", limit)
    # One in-place pass over the Stirling recurrence
    # S(d, i) = i * S(d-1, i) + S(d-1, i-1), descending i so the
    # previous row's S(d-1, i-1) is still in place when read.
    stirling = [0] * (limit + 1)
    stirling[0] = 1
    for _ in range(components):
        for i in range(limit, 0, -1):
            stirling[i] = i * stirling[i] + stirling[i - 1]
        stirling[0] = 0
    counts = []
    factorial = 1
    for i in range(1, limit + 1):
        factorial *= i
        counts.append(factorial * stirling[i])
    return tuple(counts)


class _SurjectionTriangle:
    """One process-wide triangle of surjection counts b(d, i).

    :func:`_surjection_table` redoes an O(D * limit) Stirling pass per
    distinct (D, limit) key.  Across a sweep the keys overlap heavily —
    (D, 2), (D, 3), ... all recompute the same prefix — so this class
    keeps a single triangle ``b(d, i) = i! * Stirling2(d, i)`` that
    only ever *extends*: new depth appends rows, new limit appends
    columns, and every previously computed cell is reused.  The
    recurrence (from S2(d, i) = i*S2(d-1, i) + S2(d-1, i-1), multiplied
    through by i!)::

        b(d, i) = i * (b(d-1, i) + b(d-1, i-1))

    with the virtual row b(0, 0) = 1, b(0, i>0) = 0.  All-integer
    arithmetic, so the values are exactly those of
    :func:`_surjection_table`.
    """

    __slots__ = ("_rows", "_limit", "extensions")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        #: _rows[d - 1][i - 1] == b(d, i), i = 1.._limit
        self._rows: List[List[int]] = []
        self._limit = 0
        self.extensions = 0

    def table(self, components: int, limit: int) -> Tuple[int, ...]:
        """b(components, 1..limit), growing the triangle as needed."""
        _check_positive("components", components)
        _check_positive("limit", limit)
        if components > len(self._rows) or limit > self._limit:
            self._grow(max(components, len(self._rows)),
                       max(limit, self._limit))
        return tuple(self._rows[components - 1][:limit])

    def _grow(self, depth: int, limit: int) -> None:
        self.extensions += 1
        rows = self._rows
        # Columns first, d ascending, so row d-1 is already extended
        # when row d reads b(d-1, limit).
        if limit > self._limit:
            for d, row in enumerate(rows, start=1):
                if d == 1:
                    row.extend(
                        1 if i == 1 else 0
                        for i in range(self._limit + 1, limit + 1)
                    )
                    continue
                prev = rows[d - 2]
                for i in range(self._limit + 1, limit + 1):
                    left = prev[i - 2] if i >= 2 else 0
                    row.append(i * (prev[i - 1] + left))
            self._limit = limit
        elif not rows:
            self._limit = limit
        # Then new rows at the (possibly new) full width.
        for d in range(len(rows) + 1, depth + 1):
            if d == 1:
                rows.append(
                    [1 if i == 1 else 0 for i in range(1, self._limit + 1)]
                )
                continue
            prev = rows[d - 2]
            row = []
            for i in range(1, self._limit + 1):
                left = prev[i - 2] if i >= 2 else 0
                row.append(i * (prev[i - 1] + left))
            rows.append(row)

    def stats(self) -> Dict[str, int]:
        return {
            "depth": len(self._rows),
            "limit": self._limit,
            "extensions": self.extensions,
            "cells": len(self._rows) * self._limit,
        }


_TRIANGLE = _SurjectionTriangle()


def surjection_triangle_stats() -> Dict[str, int]:
    """Depth/limit/extension statistics for the shared triangle."""
    return _TRIANGLE.stats()


surjection_table_kernel = _kernel(_surjection_table, fast=_TRIANGLE.table)


def surjection_table(components: int, limit: int) -> Tuple[int, ...]:
    """b[1..limit] for D = ``components``: b[i] = i! * Stirling2(D, i).

    All values come from a single O(D * limit) table pass — the batch
    engine's replacement for evaluating the paper's exponential
    recurrence once per (D, i) pair.
    """
    return surjection_table_kernel(components, limit)


def surjection_count(components: int, rows: int) -> int:
    """The paper's b[i]: ways to place D labelled components into
    exactly ``rows`` specific rows with no row empty."""
    _check_positive("components", components)
    _check_positive("rows", rows)
    if rows > components:
        return 0
    return surjection_table_kernel(components, rows)[rows - 1]


# ----------------------------------------------------------------------
# Eqs. 2-3: row-spread PMF, expectation, track demand
# ----------------------------------------------------------------------
def _row_spread_pmf(components: int, rows: int, mode: str) -> Tuple[float, ...]:
    _check_mode(mode)
    _check_positive("components", components)
    _check_positive("rows", rows)
    max_spread = min(rows, components)
    if mode == "exact":
        denominator = rows ** components
    else:
        denominator = rows ** max_spread
    counts = surjection_table_kernel(components, max_spread)
    raw = [
        math.comb(rows, i) * counts[i - 1]
        for i in range(1, max_spread + 1)
    ]
    try:
        weights = [value / denominator for value in raw]
        total = sum(weights)
    except OverflowError:
        total = math.inf
    if total == math.inf:
        # A net of a few hundred components (D = 299 at 16 rows, 1000
        # at 4): raw_i / n**min(n, D), or their sum, is beyond a float.
        # Each weight is then the exact ratio raw_i / sum(raw),
        # correctly rounded by integer true division.  Everywhere else
        # the arithmetic, and so every result, is unchanged.
        exact_total = sum(raw)
        return tuple(value / exact_total for value in raw)
    if total <= 0:
        raise EstimationError(
            f"degenerate row-spread distribution for D={components}, n={rows}"
        )
    return tuple(weight / total for weight in weights)


row_spread_pmf_kernel = _kernel(_row_spread_pmf)


def row_spread_pmf(
    components: int, rows: int, mode: str = "paper"
) -> Tuple[float, ...]:
    """Memoized P_rows(i), i = 1..min(n, D) (Eq. 2)."""
    return row_spread_pmf_kernel(
        components, rows, _canonical_mode(components, rows, mode)
    )


def _expected_row_spread(components: int, rows: int, mode: str) -> float:
    pmf = row_spread_pmf_kernel(
        components, rows, _canonical_mode(components, rows, mode)
    )
    return sum(i * p for i, p in enumerate(pmf, start=1))


expected_row_spread_kernel = _kernel(_expected_row_spread)


def expected_row_spread(
    components: int, rows: int, mode: str = "paper"
) -> float:
    """Memoized E(i) of Eq. 3."""
    return expected_row_spread_kernel(
        components, rows, _canonical_mode(components, rows, mode)
    )


def _tracks_for_net(components: int, rows: int, mode: str) -> int:
    if components <= 1:
        return 0
    return max(1, round_up(expected_row_spread_kernel(
        components, rows, _canonical_mode(components, rows, mode)
    )))


tracks_for_net_kernel = _kernel(_tracks_for_net)


def tracks_for_net(components: int, rows: int, mode: str = "paper") -> int:
    """Memoized per-net track demand (Eq. 3, rounded up)."""
    return tracks_for_net_kernel(
        components, rows, _canonical_mode(components, rows, mode)
    )


# ----------------------------------------------------------------------
# Eqs. 5-9: feed-through probabilities
# ----------------------------------------------------------------------
def feedthrough_probability(components: int, rows: int, row: int) -> float:
    """Closed-form Eq. 5: P(a D-component net straddles ``row``).

    Uncached — the central-row kernel below covers the estimator's hot
    path; direct per-row sweeps (the S1 study) touch each key once.
    """
    _check_positive("components", components)
    _check_positive("rows", rows)
    if not 1 <= row <= rows:
        raise EstimationError(f"row {row} out of range 1..{rows}")
    if components < 2:
        # A feed-through needs one component above and one below.
        return 0.0
    if row == 1 or row == rows:
        # No rows strictly above (or below) exist: exactly zero.
        return 0.0
    above = (row - 1) / rows
    below = (rows - row) / rows
    inside = 1.0 / rows
    probability = (
        1.0
        - (1.0 - above) ** components
        - (1.0 - below) ** components
        + inside ** components
    )
    return max(0.0, probability)


def _central_feedthrough_probability(
    rows: int, components: int, model: str
) -> float:
    _check_positive("rows", rows)
    if model == "two-component":
        return (rows - 1) ** 2 / (2.0 * rows * rows)
    if model == "general":
        if rows < 3 or components < 2:
            return 0.0
        if rows % 2 == 1:
            return feedthrough_probability(components, rows, (rows + 1) // 2)
        low = feedthrough_probability(components, rows, rows // 2)
        high = feedthrough_probability(components, rows, rows // 2 + 1)
        return (low + high) / 2.0
    raise EstimationError(
        f"unknown feed-through model {model!r} "
        "(expected 'two-component' or 'general')"
    )


central_feedthrough_probability_kernel = _kernel(
    _central_feedthrough_probability
)


def central_feedthrough_probability(
    rows: int, components: int = 2, model: str = "two-component"
) -> float:
    """Memoized feed-through probability at the central row (Eqs. 8-9)."""
    return central_feedthrough_probability_kernel(rows, components, model)


# ----------------------------------------------------------------------
# whole-histogram batch kernels
# ----------------------------------------------------------------------
def _tracks_for_histogram(
    histogram: Tuple[Tuple[int, int], ...], rows: int, mode: str
) -> Tuple[int, ...]:
    return tuple(
        _tracks_for_net(components, rows, mode) for components, _ in histogram
    )


def _tracks_for_histogram_fast(
    histogram: Tuple[Tuple[int, int], ...], rows: int, mode: str
) -> Tuple[int, ...]:
    return tuple(
        tracks_for_net_kernel(
            components, rows, _canonical_mode(components, rows, mode)
        )
        for components, _ in histogram
    )


tracks_for_histogram_kernel = _kernel(
    _tracks_for_histogram, fast=_tracks_for_histogram_fast
)


def tracks_for_histogram(
    net_size_histogram: Sequence[Tuple[int, int]],
    rows: int,
    mode: str = "paper",
) -> Tuple[int, ...]:
    """Per-net-size track demands for a whole (D, y_D) histogram.

    One kernel call per estimate instead of one per net size: a cache
    hit returns every net's Eq. 3 track count in one lookup, and a miss
    fills in via the per-net kernel (so partial overlap across
    histograms is still exploited).  The result aligns with the
    histogram: ``result[k]`` is the track demand of one net of size
    ``net_size_histogram[k][0]``.
    """
    histogram = tuple(net_size_histogram)
    if mode == "exact" and all(
        components <= rows for components, _ in histogram
    ):
        # Every net is in the D <= n regime where the modes coincide
        # bit-for-bit, so the whole-histogram entry can be shared too.
        mode = "paper"
    return tracks_for_histogram_kernel(histogram, rows, mode)


def _feedthrough_mean_for_histogram(
    histogram: Tuple[Tuple[int, int], ...], rows: int, model: str
) -> float:
    mean = 0.0
    for components, count in histogram:
        mean += count * _central_feedthrough_probability(
            rows, components, model
        )
    return mean


def _feedthrough_mean_for_histogram_fast(
    histogram: Tuple[Tuple[int, int], ...], rows: int, model: str
) -> float:
    mean = 0.0
    for components, count in histogram:
        mean += count * central_feedthrough_probability_kernel(
            rows, components, model
        )
    return mean


feedthrough_mean_for_histogram_kernel = _kernel(
    _feedthrough_mean_for_histogram, fast=_feedthrough_mean_for_histogram_fast
)


def feedthrough_mean_for_histogram(
    net_size_histogram: Sequence[Tuple[int, int]],
    rows: int,
    model: str = "general",
) -> float:
    """Expected central-row feed-through mass for a whole histogram.

    The Eq. 10 mean ``sum_D y_D * P_central(n, D)`` accumulated in
    histogram order — float addition order is preserved, so the value
    is bit-identical to the per-net loop it replaces.
    """
    return feedthrough_mean_for_histogram_kernel(
        tuple(net_size_histogram), rows, model
    )


# ----------------------------------------------------------------------
# per-channel crossing probabilities (the congestion model)
# ----------------------------------------------------------------------
def binary_float_power(base: float, exponent: int) -> float:
    """``base ** exponent`` by right-to-left square-and-multiply.

    The congestion kernels need one exponentiation algorithm whose
    scalar and vectorized evaluations agree bit-for-bit.  libm ``pow``
    (what ``float ** int`` and ``np.power`` reach) makes no such
    promise across implementations, but IEEE-754 multiplication does:
    this ladder performs the identical sequence of correctly-rounded
    multiplies whether ``base`` is a Python float or a NumPy array
    element, so the exact scalar path and the numpy grid path produce
    the same bits by construction.
    """
    if exponent < 0:
        raise EstimationError(f"exponent must be >= 0, got {exponent}")
    result = 1.0
    square = base
    remaining = exponent
    while remaining:
        if remaining & 1:
            result = result * square
        remaining >>= 1
        if remaining:
            square = square * square
    return result


def _channel_crossing_probability(
    components: int, rows: int, channel: int
) -> float:
    if components < 2 or channel == 0:
        return 0.0
    below = binary_float_power(channel / rows, components)
    above = binary_float_power((rows - channel) / rows, components)
    # Subtract the larger term first: the mathematical value is
    # symmetric under channel <-> rows - channel, and ordering the
    # operands makes the float result symmetric too (the congestion
    # model mirrors half its per-channel work on that guarantee).
    if below < above:
        below, above = above, below
    probability = (
        1.0
        - below
        - above
        + binary_float_power(1.0 / rows, components)
    )
    return min(1.0, max(0.0, probability))


channel_crossing_probability_kernel = _kernel(_channel_crossing_probability)


def channel_crossing_probability(
    components: int, rows: int, channel: int
) -> float:
    """P(a D-component net places a trunk in ``channel``).

    Channel numbering follows the global router
    (:mod:`repro.layout.routing.global_route`): ``rows + 1`` channels,
    channel k running below row k, channel ``rows`` above the top row.
    Under the paper's uniform-placement assumption a net uses channel
    k (1 <= k <= rows) iff it straddles the boundary between rows k-1
    and k, or lies entirely inside row k-1 (a single-row net routes in
    the channel above its row), two disjoint events whose union has
    the closed form::

        P = 1 - (k/n)^D - ((n-k)/n)^D + (1/n)^D

    — the per-boundary generalisation of Eq. 5's central straddle.
    Channel 0 is never used by the router and carries probability 0,
    as do single-component nets (nothing to route).
    """
    _check_positive("components", components)
    _check_positive("rows", rows)
    if not 0 <= channel <= rows:
        raise EstimationError(f"channel {channel} out of range 0..{rows}")
    return channel_crossing_probability_kernel(components, rows, channel)


def _channel_crossing_grid(
    histogram: Tuple[Tuple[int, int], ...], rows: int
) -> Tuple[Tuple[float, ...], ...]:
    return tuple(
        tuple(
            _channel_crossing_probability(components, rows, channel)
            for components, _ in histogram
        )
        for channel in range(rows + 1)
    )


def _channel_crossing_grid_fast(
    histogram: Tuple[Tuple[int, int], ...], rows: int
) -> Tuple[Tuple[float, ...], ...]:
    # One ladder per (entry, boundary) instead of two per cell: the
    # table (k/rows)^D over k = 0..rows covers both the below and
    # above terms of every channel, and the sorted subtraction matches
    # the per-cell kernel exactly (powers[1] IS (1/rows)^D).
    columns = []
    for components, _ in histogram:
        if components < 2:
            columns.append((0.0,) * (rows + 1))
            continue
        powers = [
            binary_float_power(k / rows, components)
            for k in range(rows + 1)
        ]
        single = powers[1]
        column = [0.0]
        for channel in range(1, rows + 1):
            below = powers[channel]
            above = powers[rows - channel]
            if below < above:
                below, above = above, below
            column.append(
                min(1.0, max(0.0, 1.0 - below - above + single))
            )
        columns.append(tuple(column))
    return tuple(
        tuple(column[channel] for column in columns)
        for channel in range(rows + 1)
    )


channel_crossing_grid_kernel = _kernel(
    _channel_crossing_grid, fast=_channel_crossing_grid_fast
)


def channel_crossing_grid(
    net_size_histogram: Sequence[Tuple[int, int]], rows: int
) -> Tuple[Tuple[float, ...], ...]:
    """Crossing probabilities for a whole (D, y_D) histogram.

    ``result[k][j]`` is :func:`channel_crossing_probability` of one
    net of size ``net_size_histogram[j][0]`` in channel ``k``
    (0..rows) — one memoized kernel call per (histogram, rows) pair,
    the congestion analogue of :func:`tracks_for_histogram`, with
    partial overlap across histograms still exploited through the
    per-(D, n, k) kernel on a miss.
    """
    _check_positive("rows", rows)
    return channel_crossing_grid_kernel(tuple(net_size_histogram), rows)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _check_positive(label: str, value: int) -> None:
    if value < 1:
        raise EstimationError(f"{label} must be >= 1, got {value}")


def _check_mode(mode: str) -> None:
    if mode not in ROW_SPREAD_MODES:
        raise EstimationError(
            f"unknown row-spread mode {mode!r} (expected one of "
            f"{ROW_SPREAD_MODES})"
        )
