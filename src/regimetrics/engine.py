"""Sliding-window correlation matrices and integral indicators.

For a period t and window length k, the engine takes the k preceding
channel vectors as a k x n block, forms the scaled Gram matrix

    R(t) = block' . block / (k - 1)

and reads off the per-channel integral indicator as the absolute row sum
of R(t). Summed over channels and evaluable periods this yields one
total per analysis run; two runs over the same periods can then be
compared regime-against-regime.

In raw mode the block holds the masked event values as-is, so R is a
scaled Gram matrix of the raw data. In standardized mode each channel is
z-scored inside its window first, which makes the entries Pearson
coefficients bounded by 1.

One chunked kernel computes every period at one OpenBLAS thread, so every
caller gets the same bits; ``window_correlation`` runs it on a single
period for inspection. In standardized mode a chunk takes its windows'
max and min from its own rows of the series by doubling spans, and adds
each window's rows one at a time, oldest first, for its sum and sum of
squares. No period's rows depend on another's, so ``indicator_series``
can hand a long run's second half to a forked child. ``naive_oracle``
recomputes everything with explicit triple loops and no matrix product,
so tests can check the kernel against an independent implementation.
"""

from __future__ import annotations

import ctypes
import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._fork import forked
from .errors import ValidationError
from .model import (
    RAW,
    STANDARDIZED,
    MappedSeries,
    _check_window_bounds,
    _frozen_array,
    validate_mode,
)

# No window length is inherent to the method; 12 is a conventional
# monthly-cycle default and every entry point surfaces it as a parameter.
DEFAULT_WINDOW = 12

SYMMETRY_TOL = 1e-12
STANDARDIZED_BOUND_TOL = 1e-9

# The kernel walks windows in chunks of periods of n * (n + 2k) doubles each that fit in
# this many bytes. A chunk holds its n x n Gram stack, and in standardized mode, before
# that, one (k, n) stack of z-scores and about six n-rows of window extremes and sums per
# period. Under tracemalloc a standardized chunk's temporaries peaked at 0.73 MB for
# n = 8 and 0.87 MB for n = 50 (1.05 and 0.87 MB with a second, contiguous z-score
# stack; 1.93 and 1.75 MB at a 2 MB budget). One period of n = 400 holds 1.23 MB raw,
# since its Gram matrix alone passes the budget past 350 channels. On a 2-core x86 host
# 1 MB chunks ran as fast as 2 MB within the host's noise (in process, medians of five
# alternating rounds of 15 calls: standardized 50,000 x 8 65.6 against 66.8 ms,
# standardized 10,000 x 50 111 against 111 ms, raw 10,000 x 50 69 against 67 ms).
_CHUNK_BYTES = 1 << 20
# Where the kernel's one-thread pin holds, a run of at least this many multiply-adds
# (periods x n^2 x k) computes its second half in a forked child. On a 2-core x86 host,
# with 1 MB chunks (in process, medians of five alternating rounds of 15 calls), a raw
# run of 50 channels and 4,600 periods (138M) took 74 ms serial and 56 ms split. Runs of
# 8 channels and 50,000 periods (38M), under this bound, gained from a split too:
# standardized 65 -> 50 ms (111 -> 75 ms in a noisier pass) and raw 52 -> 48 ms. With the
# bound at 2^25 the long benchmark case split too, and its peak RSS read higher in 10 of
# 10 pairs against the parent, its analyze time lower in only 6.
_SPLIT_MACS = 1 << 27


def _window_extremes(rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Max and min over each run of k consecutive rows of ``rows``.

    Doubling spans (van Herk 1992; Gil & Werman 1993): the extremes over
    spans of 1, 2, 4, ... rows come from two shifted slices of the last
    span, and two overlapping spans of the largest power of two up to k
    cover each window. That is log2(k) + 1 passes over the rows instead
    of k per window, and exact, since max and min never round.
    """
    count = len(rows) - k + 1
    hi = lo = rows
    span = 1
    while 2 * span <= k:
        hi = np.maximum(hi[:-span], hi[span:])
        lo = np.minimum(lo[:-span], lo[span:])
        span *= 2
    return np.maximum(hi[:count], hi[k - span :]), np.minimum(lo[:count], lo[k - span :])


def _row_sums(rows) -> np.ndarray:
    """Sum of two or more arrays, one add per array, in order."""
    rows = iter(rows)
    total = next(rows) + next(rows)
    for row in rows:
        total += row
    return total


def _standardize(rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Z-score every channel of each window of k consecutive ``rows`` in its window.

    Returns the (windows, k, n) z-scores and the (windows, n) degenerate
    flags. The z-scores are one (k, windows, n) stack, row l of every
    window at a time, scaled, centred and divided in place; the result is
    its transposed view, whose windows the Gram product reads with a row
    stride of windows x n. A channel is degenerate exactly when its window
    is constant; its column becomes zero. Each column is first scaled by a
    power of two taken from its largest magnitude, so squaring cannot
    overflow, and the z-scores equal the unscaled ones bit for bit
    wherever those neither overflow nor underflow. Window sums add the
    window's rows one at a time, oldest first.
    """
    count = len(rows) - k + 1
    hi, lo = _window_extremes(rows, k)
    degenerate = hi == lo
    _, exponent = np.frexp(np.maximum(hi, -lo))
    # scaled[l] is row l of every window, so each pass runs over contiguous memory.
    by_row = sliding_window_view(rows, count, axis=0).transpose(0, 2, 1)
    scaled = np.ldexp(by_row, -exponent)
    # A constant column centers on its own value, so it becomes exactly 0.
    scaled -= np.where(degenerate, scaled[0], _row_sums(scaled) / k)
    variance = _row_sums(map(np.square, scaled)) / (k - 1)
    scaled /= np.sqrt(np.where(degenerate, 1.0, variance))
    return scaled.transpose(1, 0, 2), degenerate


def _check_chunk(magnitude, sums, degenerate, mode: str, first: int, labels) -> None:
    """Check the invariants of one chunk of |R| stacks and their row sums.

    ``first`` is the period of the chunk's first window; an error names
    the first offending period and its channels.
    """

    def fail_if(bad: np.ndarray, message: str) -> None:
        if bad.any():
            row = int(np.flatnonzero(bad.any(axis=1))[0])
            names = ", ".join(labels[j] for j in np.flatnonzero(bad[row]))
            raise ValidationError(f"period {first + row}: {message} (channels {names})")

    fail_if(~np.isfinite(sums), "R overflows the float range")
    if mode != STANDARDIZED:
        return
    bound = 1.0 + STANDARDIZED_BOUND_TOL
    if magnitude.max() > bound:
        fail_if(
            (magnitude > bound).any(axis=2),
            "standardized coefficients must lie within [-1, 1]",
        )
    diag = np.diagonal(magnitude, axis1=1, axis2=2)
    fail_if(
        ~degenerate & (np.abs(diag - 1.0) > STANDARDIZED_BOUND_TOL),
        "nondegenerate channels must have unit self-correlation",
    )
    fail_if(
        degenerate & (diag > SYMMETRY_TOL),
        "degenerate channels must have zero self-correlation",
    )


def _chunk_periods(n: int, k: int) -> int:
    """Periods per kernel chunk: a chunk's live temporaries stay under ``_CHUNK_BYTES``.

    That holds while one period's n x (n + 2k) doubles fit the budget (n <= 350 at
    k = 12); past that a chunk is one period, whose Gram matrix alone passes it.
    """
    return max(1, _CHUNK_BYTES // (8 * n * (n + 2 * k)))


@functools.cache
def _openblas_threads():
    """The get and set thread-count functions of numpy's OpenBLAS, or None; looked up once."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split(None, 5)[5].strip() for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                handle = ctypes.CDLL(lib)
                get = getattr(handle, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(handle, f"{prefix}_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_


@contextmanager
def _one_blas_thread():
    """Run the block at one OpenBLAS thread where ``_openblas_threads`` resolves.

    Two threads may sum a Gram product's edge cells in another order. The
    caller's count is restored after, also on an error. A count of 1 is left
    alone: set after a fork, it restarted OpenBLAS's threads and halved the
    speed of one-thread products on a 2-core x86 host.
    """
    get_threads, set_threads = _openblas_threads() or (lambda: 1, None)
    threads = get_threads()
    try:
        if threads != 1:
            set_threads(1)
        yield
    finally:
        if threads != 1:
            set_threads(threads)


def _window_kernel(
    series: MappedSeries, k: int, mode: str, first: int, last: int, signed: bool = False, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """Indicator rows of periods first..last, or their signed R stack.

    Each chunk of windows is z-scored in standardized mode, turned into a
    stack of Gram matrices by one matmul, checked once, and reduced to
    absolute row sums in place. Chunk boundaries depend only on n and k,
    and no period's arithmetic depends on another period, so each row is
    the same bits whatever the series length, and BLAS runs one thread.
    Returns the (periods, n) indicator rows, written to ``out`` when
    given, or the (periods, n, n) R stack when ``signed``, and the number
    of periods in which each channel's window is degenerate.
    """
    n, count = series.n, last - first + 1
    rows = series.values[first - k - 1 : last - 1]
    step = _chunk_periods(n, k)
    if out is None:
        out = np.empty((count, n, n) if signed else (count, n))
    degenerate = np.zeros(n, dtype=np.int64)
    with _one_blas_thread():
        for start in range(0, count, step):
            stop = min(start + step, count)
            out[start:stop], flags = _chunk_kernel(
                rows[start : stop + k - 1], k, mode, signed, first + start, series.channel_labels
            )
            degenerate += flags.sum(axis=0)
    return out, degenerate


def _chunk_kernel(rows, k: int, mode: str, signed: bool, first: int, labels):
    """Indicator rows, or the signed R stack, and degenerate flags of each window of ``rows``.

    A function of its own, so that a chunk's temporaries are freed before
    the next chunk allocates its own.
    """
    if mode == STANDARDIZED:
        block, degenerate = _standardize(rows, k)
    else:
        # Window w is the chronological (k, n) slice of rows w .. w + k - 1.
        block = sliding_window_view(rows, k, axis=0).transpose(0, 2, 1)
        degenerate = np.zeros((len(block), rows.shape[1]), dtype=bool)
    # Raw overflow is not a warning: _check_chunk raises naming the period.
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.matmul(block.transpose(0, 2, 1), block)
        r /= k - 1
        magnitude = np.abs(r, out=None if signed else r)
        sums = magnitude.sum(axis=2)
    _check_chunk(magnitude, sums, degenerate, mode, first, labels)
    return (r if signed else sums), degenerate


@dataclass(frozen=True)
class CorrelationMatrix:
    """Scaled Gram matrix of one window; symmetric by construction."""

    t: int
    k: int
    r: np.ndarray
    mode: str = RAW
    degenerate: np.ndarray = None

    def __post_init__(self):
        validate_mode(self.mode)
        r = _frozen_array(self.r, ndim=2, name="r")
        n = r.shape[0]
        if r.shape != (n, n):
            raise ValidationError(f"r must be square, got shape {r.shape}")
        if not np.all(np.isfinite(r)):
            raise ValidationError("r must contain only finite values")
        if n and np.abs(r - r.T).max() > SYMMETRY_TOL:
            raise ValidationError(f"r is not symmetric within {SYMMETRY_TOL}")
        degenerate = self.degenerate
        if degenerate is None:
            degenerate = np.zeros(n, dtype=bool)
        degenerate = _frozen_array(degenerate, dtype=bool, ndim=1, name="degenerate")
        if degenerate.shape[0] != n:
            raise ValidationError("degenerate flags must match the channel count")
        if n:
            magnitude = np.abs(r)[None]
            labels = [str(j) for j in range(n)]
            _check_chunk(
                magnitude, magnitude.sum(axis=2), degenerate[None], self.mode, self.t, labels
            )
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "degenerate", degenerate)

    @property
    def n(self) -> int:
        return self.r.shape[0]


def window_correlation(
    series: MappedSeries, t: int, k: int, mode: str = RAW
) -> CorrelationMatrix:
    """R(t) of one period, from the kernel that indicator_series runs.

    The upper triangle is mirrored onto the lower, so R is exactly
    symmetric.
    """
    validate_mode(mode)
    _check_window_bounds(series.t_max, t, k)
    stack, degenerate = _window_kernel(series, k, mode, t, t, signed=True)
    r = np.triu(stack[0]) + np.triu(stack[0], 1).T
    return CorrelationMatrix(t=t, k=k, r=r, mode=mode, degenerate=degenerate > 0)


def integral_indicator(corr: CorrelationMatrix) -> np.ndarray:
    """Per-channel indicator: absolute row sums of the correlation matrix.

    The diagonal is included in the sum.
    """
    return np.abs(corr.r).sum(axis=1)


@dataclass(frozen=True)
class IndicatorSeries:
    """Per-period indicator vectors over the evaluable range.

    Periods 1..k have no full window and are excluded; the evaluable
    range starts at k + 1.
    """

    periods: np.ndarray
    values: np.ndarray
    k: int
    mode: str
    channel_labels: tuple[str, ...]

    def __post_init__(self):
        validate_mode(self.mode)
        periods = _frozen_array(self.periods, dtype=int, ndim=1, name="periods")
        values = _frozen_array(self.values, ndim=2, name="values")
        if values.shape[0] != periods.shape[0]:
            raise ValidationError("one value row per period required")
        # Neither check holds a (periods, n) or int64 (periods,) temporary: after the kernel,
        # those would outweigh its chunk. fmin skips nan, as values < 0 does.
        if np.any(periods[1:] <= periods[:-1]):
            raise ValidationError("periods must be strictly increasing")
        if np.fmin.reduce(values, axis=None, initial=0.0) < 0:
            raise ValidationError("indicator components must be non-negative")
        labels = tuple(str(label) for label in self.channel_labels)
        if len(labels) != values.shape[1]:
            raise ValidationError("one channel label per column required")
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "channel_labels", labels)

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def total(self) -> float:
        """Sum of every indicator component over every evaluable period."""
        return float(self.values.sum())

    def per_period_totals(self) -> np.ndarray:
        """Sum of indicator components per period, in fixed channel order."""
        return self.values.sum(axis=1)


def indicator_series(
    series: MappedSeries, k: int = DEFAULT_WINDOW, mode: str = RAW
) -> IndicatorSeries:
    """Indicator vectors for every evaluable period t in k+1 .. t_max.

    All periods run through one chunked kernel whose chunks depend only
    on n and k, so results are reproducible bit-for-bit and the rows of
    a prefix of the series are the leading rows of the full run.

    Where the kernel can pin OpenBLAS to one thread, a run of at least
    ``_SPLIT_MACS`` multiply-adds computes its second half in a forked
    child, with the serial bits and errors; elsewhere it stays in one process.
    """
    validate_mode(mode)
    _check_window_bounds(series.t_max, series.t_max, k)  # t_max, the last period, has a window
    first, last = k + 1, series.t_max
    step = _chunk_periods(series.n, k)
    half = (last - first + 1) // (2 * step) * step  # whole chunks, so each row keeps its bits
    macs = (last - first + 1) * series.n**2 * k
    if macs < _SPLIT_MACS or not half or _openblas_threads() is None:
        values, _ = _window_kernel(series, k, mode, first, last)
    else:
        values = _two_process_kernel(series, k, mode, first, first + half, last)
    periods = np.arange(first, last + 1)
    for owned in (periods, values):
        owned.setflags(write=False)  # so IndicatorSeries shares them (model._frozen_array)
    return IndicatorSeries(
        periods=periods,
        values=values,
        k=k,
        mode=mode,
        channel_labels=series.channel_labels,
    )


def _two_process_kernel(series: MappedSeries, k: int, mode: str, first: int, mid: int, last: int):
    """Indicator rows of periods first..last; a forked child computes those from mid on.

    Both halves fill one array: this process's rows are written in place,
    and the child's are read into theirs. Where no child starts, or it
    fails (a check of its rows, say) or hands back fewer rows, this
    process computes those rows itself after its own, as the serial run
    does, so the first error is the serial one. BLAS stays at one thread
    until ``collect``: a restored count starts a spinning OpenBLAS thread.
    """
    values = np.empty((last - first + 1, series.n))
    tail = values[mid - first :]

    def second_half(out):
        out.write(_window_kernel(series, k, mode, mid, last, out=tail)[0])

    with _one_blas_thread(), forked(second_half) as collect:
        _window_kernel(series, k, mode, first, mid - 1, out=values[: mid - first])
        out = collect()
        if out is None or out.readinto(tail) != tail.nbytes:
            _window_kernel(series, k, mode, mid, last, out=tail)
    return values


@dataclass(frozen=True)
class RegimeComparison:
    """Two aligned per-period indicator columns and their differences."""

    periods: np.ndarray
    basic: np.ndarray
    treated: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        periods = _frozen_array(self.periods, dtype=int, ndim=1, name="periods")
        basic = _frozen_array(self.basic, ndim=1, name="basic")
        treated = _frozen_array(self.treated, ndim=1, name="treated")
        delta = _frozen_array(self.delta, ndim=1, name="delta")
        count = periods.shape[0]
        if not (basic.shape[0] == treated.shape[0] == delta.shape[0] == count):
            raise ValidationError("all comparison columns must have the same length")
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "basic", basic)
        object.__setattr__(self, "treated", treated)
        object.__setattr__(self, "delta", delta)

    @property
    def basic_total(self) -> float:
        return float(self.basic.sum())

    @property
    def treated_total(self) -> float:
        return float(self.treated.sum())

    @property
    def delta_total(self) -> float:
        """Treated total minus basic total."""
        return self.treated_total - self.basic_total


def _as_column(regime) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(regime, IndicatorSeries):
        return regime.periods, regime.per_period_totals()
    periods, values = regime
    periods = np.asarray(periods, dtype=int)
    values = np.asarray(values, dtype=float)
    if periods.ndim != 1 or values.shape != periods.shape:
        raise ValidationError("a regime column is (periods, values) of equal length")
    return periods, values


def _span(periods: np.ndarray) -> str:
    return f"{periods[0]}..{periods[-1]}" if periods.size else "no periods"


def compare_regimes(basic, treated) -> RegimeComparison:
    """Per-period and total indicator difference, treated minus basic.

    Each argument is an IndicatorSeries (aggregated per period over
    channels) or a (periods, values) column. Both must cover exactly the
    same evaluable periods, and two IndicatorSeries must share a mode.
    """
    modes = [getattr(regime, "mode", None) for regime in (basic, treated)]
    if None not in modes and modes[0] != modes[1]:
        raise ValidationError(f"regimes differ in mode: basic {modes[0]!r}, treated {modes[1]!r}")
    basic_periods, basic_values = _as_column(basic)
    treated_periods, treated_values = _as_column(treated)
    if not np.array_equal(basic_periods, treated_periods):
        raise ValidationError(
            "regimes cover different period ranges: "
            f"basic {_span(basic_periods)}, treated {_span(treated_periods)}"
        )
    return RegimeComparison(
        periods=basic_periods,
        basic=basic_values,
        treated=treated_values,
        delta=treated_values - basic_values,
    )


def naive_oracle(
    series: MappedSeries, t: int, k: int, mode: str = RAW
) -> tuple[CorrelationMatrix, np.ndarray]:
    """Reference recomputation with explicit loops, for equivalence tests.

    Extracts the window, z-scores it when standardized, and accumulates
    every coefficient and indicator component with plain Python floats;
    no matrix product, no shared code with the engine pipeline beyond
    the precondition checks.
    """
    validate_mode(mode)
    _check_window_bounds(series.t_max, t, k)
    n = series.n
    data = series.values
    rows = [[float(data[t - l - 1, j]) for j in range(n)] for l in range(1, k + 1)]
    degenerate = [False] * n
    if mode == STANDARDIZED:
        for j in range(n):
            column = [rows[l][j] for l in range(k)]
            if max(column) == min(column):
                degenerate[j] = True
                for l in range(k):
                    rows[l][j] = 0.0
            else:
                mean = sum(column) / k
                sum_sq = sum((value - mean) ** 2 for value in column)
                std = math.sqrt(sum_sq / (k - 1))
                for l in range(k):
                    rows[l][j] = (rows[l][j] - mean) / std
    r = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += rows[l][i] * rows[l][j]
            r[i][j] = acc / (k - 1)
    indicators = [sum(abs(value) for value in row) for row in r]
    corr = CorrelationMatrix(
        t=t, k=k, r=np.array(r), mode=mode, degenerate=np.array(degenerate, dtype=bool)
    )
    return corr, np.array(indicators)
