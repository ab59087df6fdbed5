"""Vectorized float64 kernel backend (NumPy).

Evaluates the Eq. 2-3 whole-histogram track kernel and the Eq. 8-10
feed-through mean as array operations instead of per-net scalar loops:

* **Log-space tables.**  A cumulative log-factorial array gives
  ``log C(n, i)`` directly, and the surjection triangle is kept as
  float64 *logarithms* grown by the all-positive recurrence::

      log b(d, i) = log i + logaddexp(log b(d-1, i), log b(d-1, i-1))

  which never overflows and never cancels — the alternating
  inclusion-exclusion sum for b(d, i) loses ~e^(-i) relative accuracy
  when d approaches i, so it is deliberately not used.
* **One masked-tensor pass per estimate.**  For row counts ``n`` (a
  vector — the 2-D batched row-sweep kernel) and net sizes ``D``, the
  Eq. 2 log-weights ``log C(n, i) + log b(D, i)`` form a
  (rows x sizes x spread) tensor; the mode's denominator cancels under
  the estimator's renormalization, so a softmax over the spread axis
  yields every E(i) at once, for all candidate row counts, in one
  call.
* **Discontinuity guard with per-net exact fallback.**  The
  estimator's integer outputs pass E(i) through ``round_up``, whose
  *only* discontinuity sits at ``m + ROUND_EPSILON`` above each
  integer ``m`` (values at or below an integer round and ceil to the
  same result, so approaching an integer from below — the common
  large-D asymptote E -> rows — is perfectly safe in float).  Only
  expectations inside the :data:`NEAR_INTEGER_GUARD` window around
  that cut, or non-finite ones, are recomputed by the exact backend.
  As long as the true float error stays below the window margin
  (empirically ~1e-14, gated by ``mae verify --check
  backend_equivalence`` against the committed envelope), the integer
  outputs are *identical* to the exact backend's, and therefore so is
  every derived estimate field.

NumPy is imported on the backend's first evaluation, not with the
module, so a process on the exact backend never loads it.  Without
NumPy installed the backend reports ``available = False`` and the
registry's ``auto`` resolution falls back to ``exact``.
"""

from __future__ import annotations

import importlib.util
import math
from typing import List, Optional, Sequence, Tuple

from repro.errors import EstimationError
from repro.perf import kernels

#: Stands in for NumPy until the first evaluation imports it.
_NOT_IMPORTED = object()

#: The ``numpy`` module once imported; ``None`` means NumPy is absent.
_np = _NOT_IMPORTED

#: ``repro.units.round_up``'s epsilon, mirrored here: a value within
#: this of an integer rounds to it, anything further above is ceiled.
ROUND_EPSILON = 1e-9

#: Half-width of the fallback window around round_up's one
#: discontinuity at ``m + ROUND_EPSILON``.  A float64 value v with
#: ``|(v - rint(v)) - ROUND_EPSILON| > NEAR_INTEGER_GUARD`` and float
#: error below the window margin (measured ~1e-14, see
#: VERIFY_backend_envelope.json; 100x headroom) provably lands on the
#: same side of the cut as the true value, so the vectorized round_up
#: agrees with the exact backend bit-for-bit.  Everything below an
#: integer — including exact integers (rows = 1 gives E = 1, empty
#: central straddle gives mean = 0) and the large-D asymptote E ->
#: rows — is outside the window and stays on the vectorized path.
NEAR_INTEGER_GUARD = 1e-10


def _vector_power(base, exponent: int):
    """:func:`repro.perf.kernels.binary_float_power` on a float64 array.

    The same right-to-left square-and-multiply ladder, elementwise:
    every element undergoes the identical sequence of IEEE-754
    multiplies as the scalar kernel, so the resulting array is
    bit-identical to the scalar values — no libm ``pow`` involved.
    """
    result = _np.ones_like(base)
    square = base
    remaining = exponent
    while remaining:
        if remaining & 1:
            result = result * square
        remaining >>= 1
        if remaining:
            square = square * square
    return result


class _LogTables:
    """Grown-on-demand log-factorial array and log-surjection triangle."""

    __slots__ = ("log_factorial", "log_b", "growths")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.log_factorial = None  # lf[k] = log(k!), k = 0..N
        self.log_b = None          # log_b[d-1, i-1] = log b(d, i)
        self.growths = 0

    def ensure(self, max_n: int, max_d: int) -> None:
        """Grow the tables to cover C(n <= max_n, *) and b(d <= max_d,
        i <= min(max_n, max_d)).

        The triangle is only as wide as the spreads ever consulted
        (i <= min(rows, D), so row counts bound it far below the depth),
        and each recurrence step runs in place on the preallocated
        table — the rebuild after a reset costs one short vector op per
        net size, not a square table.
        """
        if self.log_factorial is None or len(self.log_factorial) <= max_n:
            target = max(max_n + 1, 64)
            if self.log_factorial is not None:
                target = max(target, 2 * len(self.log_factorial))
            values = _np.zeros(target)
            values[1:] = _np.cumsum(_np.log(_np.arange(1, target)))
            self.log_factorial = values
            self.growths += 1
        width_needed = min(max_n, max_d)
        if (
            self.log_b is None
            or self.log_b.shape[0] < max_d
            or self.log_b.shape[1] < width_needed
        ):
            depth = max(max_d, 16)
            width = max(width_needed, 16)
            if self.log_b is not None:
                depth = max(depth, 2 * self.log_b.shape[0])
                width = max(width, 2 * self.log_b.shape[1])
            width = min(width, depth)
            log_i = _np.log(_np.arange(1, width + 1))
            table = _np.full((depth, width), -_np.inf)
            table[0, 0] = 0.0
            shifted = _np.empty(width)
            for d in range(1, depth):
                prev = table[d - 1]
                shifted[0] = -_np.inf
                shifted[1:] = prev[:-1]
                row = table[d]
                _np.logaddexp(prev, shifted, out=row)
                row += log_i
            self.log_b = table
            self.growths += 1


class NumpyBackend:
    """Float64 whole-histogram / batched-row-sweep kernel backend."""

    name = "numpy"

    def __init__(self) -> None:
        self._tables = _LogTables()
        self._counters = {
            "evaluations": 0,
            "batched_evaluations": 0,
            "spread_fallbacks": 0,
            "feedthrough_fallbacks": 0,
            "congestion_fallbacks": 0,
        }

    @property
    def available(self) -> bool:
        """Whether NumPy is installed; answered without importing it."""
        if _np is _NOT_IMPORTED:
            return importlib.util.find_spec("numpy") is not None
        return _np is not None

    # ------------------------------------------------------------------
    # Eq. 2-3: expected row spread and track demand
    # ------------------------------------------------------------------
    def _spread_grid(self, sizes, row_counts):
        """E(i) for every (row count, net size) pair: shape (k, s).

        Entries with D <= 1 carry 0.0 (their track demand is defined as
        zero before E is ever consulted).  The Eq. 2 denominator — the
        only place the paper/exact modes differ — cancels under
        renormalization, so the grid serves both modes.
        """
        rows_arr = _np.asarray(row_counts, dtype=_np.int64)
        size_arr = _np.asarray(sizes, dtype=_np.int64)
        max_n = int(rows_arr.max())
        max_d = int(size_arr.max())
        self._tables.ensure(max_n, max_d)
        lf = self._tables.log_factorial
        spread = min(max_n, max_d)
        i_idx = _np.arange(1, spread + 1)
        n_col = rows_arr[:, None]
        # log C(n, i), -inf where i > n.
        log_c = _np.where(
            i_idx <= n_col,
            lf[n_col] - lf[i_idx] - lf[_np.clip(n_col - i_idx, 0, None)],
            -_np.inf,
        )
        # log b(D, i) rows of the triangle (-inf beyond i = D).
        log_b = self._tables.log_b[size_arr - 1][:, :spread]
        weights = log_c[:, None, :] + log_b[None, :, :]
        peak = weights.max(axis=2, keepdims=True)
        mass = _np.exp(weights - peak)
        total = mass.sum(axis=2)
        moment = (mass * i_idx).sum(axis=2)
        with _np.errstate(invalid="ignore", divide="ignore"):
            grid = moment / total
        return _np.where(size_arr[None, :] <= 1, 0.0, grid)

    def _tracks_grid(self, histogram, row_counts, mode):
        """Integer track demands for every (row count, histogram entry),
        guard-banded onto the exact backend's values."""
        sizes = [components for components, _ in histogram]
        grid = self._spread_grid(sizes, row_counts)
        with _np.errstate(invalid="ignore"):
            nearest = _np.rint(grid)
            delta = grid - nearest
            risky = ~_np.isfinite(grid) | (
                _np.abs(delta - ROUND_EPSILON) <= NEAR_INTEGER_GUARD
            )
        # Vectorized round_up, trusted everywhere outside the window.
        safe = _np.where(risky, 0.0, grid)
        rounded = _np.where(
            _np.abs(delta) <= ROUND_EPSILON, nearest, _np.ceil(safe)
        )
        tracks = _np.maximum(1, rounded).astype(_np.int64)
        tracks[:, _np.asarray(sizes) <= 1] = 0
        result: List[Tuple[int, ...]] = []
        for k, rows in enumerate(row_counts):
            row_tracks = tracks[k]
            if risky[k].any():
                row_tracks = row_tracks.copy()
                for s in _np.nonzero(risky[k])[0]:
                    if sizes[s] > 1:
                        self._counters["spread_fallbacks"] += 1
                        row_tracks[s] = kernels.tracks_for_net(
                            sizes[s], rows, mode
                        )
            result.append(tuple(row_tracks.tolist()))
        return tuple(result)

    def tracks_for_histogram(
        self,
        histogram: Sequence[Tuple[int, int]],
        rows: int,
        mode: str,
    ) -> Tuple[int, ...]:
        histogram = tuple(histogram)
        self._validate(rows, mode=mode)
        self._counters["evaluations"] += 1
        if not histogram:
            return ()
        return self._tracks_grid(histogram, (rows,), mode)[0]

    def tracks_for_histogram_rows(
        self,
        histogram: Sequence[Tuple[int, int]],
        row_counts: Sequence[int],
        mode: str,
    ) -> Tuple[Tuple[int, ...], ...]:
        histogram = tuple(histogram)
        row_counts = tuple(row_counts)
        for rows in row_counts:
            self._validate(rows, mode=mode)
        self._counters["batched_evaluations"] += 1
        if not histogram:
            return tuple(() for _ in row_counts)
        if not row_counts:
            return ()
        return self._tracks_grid(histogram, row_counts, mode)

    def spread_expectations(
        self,
        histogram: Sequence[Tuple[int, int]],
        rows: int,
        mode: str,
    ) -> Tuple[float, ...]:
        """Raw float64 E(i) per histogram entry, *before* the guard band
        — the probe the backend-equivalence envelope measures."""
        histogram = tuple(histogram)
        self._validate(rows, mode=mode)
        if not histogram:
            return ()
        sizes = [components for components, _ in histogram]
        return tuple(float(e) for e in self._spread_grid(sizes, (rows,))[0])

    # ------------------------------------------------------------------
    # Eq. 8-10: central-row feed-through mean
    # ------------------------------------------------------------------
    def _feedthrough_matrix(self, size_arr, row_counts):
        """Eq. 8 central-row straddle probability, shape (k, s).

        Both central rows of an even row count are evaluated at once
        (for odd counts the two coincide, and their IEEE average is the
        value itself), so a whole row sweep is one broadcasted pass.
        """
        rows_i = _np.asarray(row_counts, dtype=_np.int64)[:, None]
        rows_f = rows_i.astype(_np.float64)

        def at_row(row):
            above = (row - 1) / rows_f
            below = (rows_i - row) / rows_f
            p = (
                1.0
                - _np.power(1.0 - above, size_arr)
                - _np.power(1.0 - below, size_arr)
                + _np.power(1.0 / rows_f, size_arr)
            )
            return _np.maximum(0.0, p)

        low = ((rows_i + 1) // 2).astype(_np.float64)
        high = ((rows_i + 2) // 2).astype(_np.float64)
        probs = (at_row(low) + at_row(high)) / 2.0
        return _np.where(
            (rows_i < 3) | (size_arr[None, :] < 2), 0.0, probs
        )

    def _guarded_mean(
        self, mean: float, histogram, rows: int, model: str
    ) -> float:
        if not math.isfinite(mean):
            self._counters["feedthrough_fallbacks"] += 1
            return kernels.feedthrough_mean_for_histogram(
                histogram, rows, model
            )
        delta = mean - round(mean)
        if abs(delta - ROUND_EPSILON) <= NEAR_INTEGER_GUARD:
            # Inside the round_up discontinuity window: defer to the
            # exact accumulation so the estimator's integer is right.
            self._counters["feedthrough_fallbacks"] += 1
            return kernels.feedthrough_mean_for_histogram(
                histogram, rows, model
            )
        return mean

    def _feedthrough_means(self, histogram, row_counts, model: str):
        size_arr = _np.asarray(
            [components for components, _ in histogram], dtype=_np.float64
        )
        counts = _np.asarray(
            [count for _, count in histogram], dtype=_np.float64
        )
        means = self._feedthrough_matrix(size_arr, row_counts) @ counts
        return tuple(
            self._guarded_mean(float(mean), histogram, rows, model)
            for mean, rows in zip(means, row_counts)
        )

    def feedthrough_mean_for_histogram(
        self,
        histogram: Sequence[Tuple[int, int]],
        rows: int,
        model: str,
    ) -> float:
        histogram = tuple(histogram)
        self._validate(rows, model=model)
        self._counters["evaluations"] += 1
        if not histogram:
            return 0.0
        if model != "general":
            # The two-component model is one scalar per row count; the
            # exact kernel's memoized closed form is already optimal.
            return kernels.feedthrough_mean_for_histogram(
                histogram, rows, model
            )
        return self._feedthrough_means(histogram, (rows,), model)[0]

    def feedthrough_means_for_rows(
        self,
        histogram: Sequence[Tuple[int, int]],
        row_counts: Sequence[int],
        model: str,
    ) -> Tuple[float, ...]:
        histogram = tuple(histogram)
        row_counts = tuple(row_counts)
        for rows in row_counts:
            self._validate(rows, model=model)
        self._counters["batched_evaluations"] += 1
        if not histogram or not row_counts:
            return tuple(0.0 for _ in row_counts)
        if model != "general":
            return tuple(
                kernels.feedthrough_mean_for_histogram(histogram, rows, model)
                for rows in row_counts
            )
        return self._feedthrough_means(histogram, row_counts, model)

    # ------------------------------------------------------------------
    # per-channel crossing probabilities (the congestion model)
    # ------------------------------------------------------------------
    def _crossing_grid(self, sizes, rows: int):
        """Crossing probability per (channel 0..rows, histogram entry).

        The exponentiations run through :func:`_vector_power`, the
        elementwise mirror of the scalar kernel's ladder, and the
        surrounding subtractions/clamps are the same IEEE operations in
        the same order — so every element is bit-identical to
        :func:`repro.perf.kernels.channel_crossing_probability`.
        """
        rows_f = float(rows)
        channels = _np.arange(0, rows + 1, dtype=_np.float64)
        below = channels / rows_f
        above = (rows_f - channels) / rows_f
        grid = _np.zeros((rows + 1, len(sizes)))
        for j, components in enumerate(sizes):
            if components < 2:
                continue
            single = kernels.binary_float_power(1.0 / rows, components)
            below_power = _vector_power(below, components)
            above_power = _vector_power(above, components)
            # Larger term subtracted first, as in the scalar kernel:
            # keeps the float grid symmetric under k <-> rows - k.
            column = (
                1.0
                - _np.maximum(below_power, above_power)
                - _np.minimum(below_power, above_power)
                + single
            )
            grid[:, j] = _np.minimum(1.0, _np.maximum(0.0, column))
        grid[0, :] = 0.0  # channel 0 is never used by the router
        return grid

    def crossing_probabilities(
        self,
        histogram: Sequence[Tuple[int, int]],
        rows: int,
    ) -> Tuple[Tuple[float, ...], ...]:
        """Per-channel crossing probabilities, ``result[k][j]`` for
        channel ``k`` (0..rows) and histogram entry ``j``.

        Bit-identical to the exact backend by construction (see
        :func:`_crossing_grid`); the guard band still hands any
        non-finite element — impossible outside fault injection, but
        the scheme is uniform across kernels — back to the exact
        kernel, counted in ``congestion_fallbacks``.
        """
        histogram = tuple(histogram)
        self._validate(rows)
        self._counters["evaluations"] += 1
        if not histogram:
            return tuple(() for _ in range(rows + 1))
        sizes = [components for components, _ in histogram]
        grid = self._crossing_grid(sizes, rows)
        risky = ~_np.isfinite(grid)
        result = []
        for channel in range(rows + 1):
            values = grid[channel]
            if risky[channel].any():
                values = values.copy()
                for j in _np.nonzero(risky[channel])[0]:
                    self._counters["congestion_fallbacks"] += 1
                    values[j] = kernels.channel_crossing_probability(
                        sizes[j], rows, channel
                    )
            result.append(tuple(float(value) for value in values))
        return tuple(result)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _validate(self, rows: int, mode: Optional[str] = None,
                  model: Optional[str] = None) -> None:
        global _np
        if _np is _NOT_IMPORTED:
            try:
                import numpy as _np
            except ImportError:  # pragma: no cover - the no-NumPy CI leg
                _np = None
        if _np is None:
            from repro.errors import BackendUnavailableError

            raise BackendUnavailableError(
                "the numpy backend cannot evaluate: NumPy is not installed"
            )
        if rows < 1:
            raise EstimationError(f"rows must be >= 1, got {rows}")
        if mode is not None and mode not in kernels.ROW_SPREAD_MODES:
            raise EstimationError(
                f"unknown row-spread mode {mode!r} (expected one of "
                f"{kernels.ROW_SPREAD_MODES})"
            )
        if model is not None and model not in ("two-component", "general"):
            raise EstimationError(
                f"unknown feed-through model {model!r} "
                "(expected 'two-component' or 'general')"
            )

    def reset(self) -> None:
        """Drop the grown tables and zero the counters (bench phases
        start cold)."""
        self._tables.clear()
        for name in self._counters:
            self._counters[name] = 0

    def stats(self) -> dict:
        tables = self._tables
        return {
            **self._counters,
            "table_growths": tables.growths,
            "triangle_depth": (
                0 if tables.log_b is None else int(tables.log_b.shape[0])
            ),
            "guard": NEAR_INTEGER_GUARD,
        }


__all__ = ["NumpyBackend", "NEAR_INTEGER_GUARD", "ROUND_EPSILON"]
