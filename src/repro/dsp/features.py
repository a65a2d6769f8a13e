"""The eight hardware-friendly statistical features of XPro.

Section 2.1 of the paper fixes the generic feature set to: maximal value
(Max), minimal value (Min), mean value (Mean), variance (Var), standard
deviation (Std), zero-crossing count (Czero), skewness (Skew) and kurtosis
(Kurt), extracted on the time-domain segment and on every DWT sub-band.

Each feature has:

- a batch reference implementation operating on a whole segment (used by the
  classifier training pipeline and the aggregator-side software cells), and
- an operation-count model (:func:`operation_counts`) describing what the
  in-sensor S-ALU executes, which drives the energy/delay characterisation
  of the corresponding functional cell (Figure 4).

The statistical definitions follow the population (biased) moment
conventions, which is what a single-pass hardware datapath computes:
``var = E[x^2] - E[x]^2``, ``skew = m3 / m2^{3/2}``, ``kurt = m4 / m2^2``.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Canonical feature ordering used across the whole library (feature-vector
#: layout, functional-cell naming, random-subspace indexing).
FEATURE_NAMES: Tuple[str, ...] = (
    "max",
    "min",
    "mean",
    "var",
    "std",
    "czero",
    "skew",
    "kurt",
)


def _as_segment(segment: Sequence[float]) -> np.ndarray:
    arr = np.asarray(segment, dtype=np.float64)
    if arr.ndim != 1:
        raise ConfigurationError("feature input must be one-dimensional")
    if arr.size == 0:
        raise ConfigurationError("feature input must be non-empty")
    return arr


def _mean(arr: np.ndarray) -> np.float64:
    """``np.mean`` of a 1-D float64 array, bit for bit, without its
    per-call dispatch: the same ``add.reduce`` divided by the count."""
    return np.add.reduce(arr) / arr.size


def maximum(segment: Sequence[float]) -> float:
    """Maximal sample value of the segment."""
    return float(np.max(_as_segment(segment)))


def minimum(segment: Sequence[float]) -> float:
    """Minimal sample value of the segment."""
    return float(np.min(_as_segment(segment)))


def mean(segment: Sequence[float]) -> float:
    """Arithmetic mean of the segment."""
    return float(_mean(_as_segment(segment)))


def variance(segment: Sequence[float]) -> float:
    """Population variance ``E[x^2] - E[x]^2`` (single-pass hardware form)."""
    arr = _as_segment(segment)
    mu = _mean(arr)
    return float(_mean(arr * arr) - mu * mu)


def standard_deviation(segment: Sequence[float]) -> float:
    """Population standard deviation (square root of :func:`variance`).

    In hardware the Std cell *reuses* the Var cell and adds only a square
    root (Figure 5) — the software definition mirrors that composition.
    """
    return float(np.sqrt(max(variance(segment), 0.0)))


def _propagate_signs(signs: np.ndarray) -> np.ndarray:
    """Carry the last non-zero sign through exact zeros, row-wise.

    Equivalent to the sequential rule "an equal-to-level sample keeps the
    previous sign; a leading flat run counts as positive", but computed with
    a single ``maximum.accumulate`` pass instead of a per-element loop:
    every position looks up the index of the most recent non-zero sign and
    gathers it, and positions before the first non-zero (which gather a
    zero) default to +1.

    Accepts a 1-D ``(n,)`` or 2-D ``(rows, n)`` sign array.
    """
    arr = np.atleast_2d(signs)
    positions = np.arange(arr.shape[1])[None, :]
    last_nonzero = np.where(arr != 0, positions, 0)
    np.maximum.accumulate(last_nonzero, axis=1, out=last_nonzero)
    filled = arr[np.arange(arr.shape[0])[:, None], last_nonzero]
    filled[filled == 0] = 1.0
    return filled if signs.ndim == 2 else filled[0]


def crossing_count(segment: Sequence[float], level: float = 0.0) -> float:
    """Number of crossings of ``level`` (Czero uses the mean as level).

    The hardware Czero cell counts sign changes of ``x[i] - level`` between
    consecutive samples; equal-to-level samples carry the previous sign so a
    flat run is not counted repeatedly.
    """
    arr = _as_segment(segment)
    signs = _propagate_signs(np.sign(arr - level))
    return float(np.count_nonzero(signs[1:] != signs[:-1]))


def zero_crossings(segment: Sequence[float]) -> float:
    """Czero as the paper uses it: crossings of the segment mean."""
    arr = _as_segment(segment)
    return crossing_count(arr, level=float(_mean(arr)))


def skewness(segment: Sequence[float]) -> float:
    """Population skewness ``m3 / m2^{3/2}`` (0 for constant segments)."""
    arr = _as_segment(segment)
    centered = arr - _mean(arr)
    m2 = float(_mean(centered**2))
    if m2 <= 1e-12:
        return 0.0
    m3 = float(_mean(centered**3))
    return m3 / (m2**1.5)


def kurtosis(segment: Sequence[float]) -> float:
    """Population kurtosis ``m4 / m2^2`` (non-excess; 0 for constants)."""
    arr = _as_segment(segment)
    centered = arr - _mean(arr)
    m2 = float(_mean(centered**2))
    if m2 <= 1e-12:
        return 0.0
    m4 = float(_mean(centered**4))
    return m4 / (m2**2)


@functools.lru_cache(maxsize=256)
def band_kernel(names: Tuple[str, ...]) -> Callable[[np.ndarray], List[float]]:
    """One pass computing the named features of one band, in ``names`` order.

    The one-band case of :func:`multiband_kernel`, for a band of any
    length: ``_mean``, the centred band and ``m2`` are computed once and
    shared, and ``std`` is the square root of the ``var`` computed here
    (the Fig. 5 reuse).  Every value is bitwise the one the matching
    function above returns, which the test suite checks; those functions
    stay the reference.

    A kernel is a pure function of ``names``, so one kernel per tuple is
    kept and shared by every cell that asks for it.

    Args:
        names: Features to compute (each of :data:`FEATURE_NAMES`).

    Returns:
        A function from a non-empty 1-D band to its feature values.
    """
    _check_names(names)

    def run(band: np.ndarray) -> List[float]:
        arr = _as_segment(band)
        return multiband_kernel((arr.size,), (names,))(arr)

    return run


def _check_names(names: Sequence[str]) -> None:
    unknown = [n for n in names if n not in _FEATURE_FUNCS]
    if unknown:
        raise ConfigurationError(f"unknown features: {unknown}")


@functools.lru_cache(maxsize=256)
def multiband_kernel(
    lengths: Tuple[int, ...], names: Tuple[Tuple[str, ...], ...]
) -> Callable[[np.ndarray], List[float]]:
    """One pass computing named features of several bands of one segment.

    The bands lie side by side in one 1-D array (band ``k`` holds
    ``lengths[k]`` samples), and band ``k`` asks for the features
    ``names[k]``.  Every step runs once over all bands: max and min are
    one ``reduceat`` each; the squares, the centring by each band's mean,
    the signs and the libm powers ``c**3``/``c**4`` (only where a band
    asks for skew or kurt) are one elementwise pass each; Czero takes the
    sign carry only when some sample sits exactly on its band mean,
    restarting it at every band start, and counts the sign changes in one
    integer ``add.reduceat`` with the pairs that straddle two bands
    masked.  Every sum is one pairwise ``add.reduce`` per band slice
    divided by the band length, and the per-band arithmetic after it is
    the scalar arithmetic of the functions above (skew and kurt take
    ``m2**1.5`` and ``m2**2``), so every value is bitwise the one the
    matching function gives on that band alone; the test suite pins that.

    A kernel is a pure function of its arguments, so one is kept per
    ``(lengths, names)`` and shared by every step that asks for it.

    Args:
        lengths: Samples per band, each at least one.
        names: Per band, the features to compute (each of
            :data:`FEATURE_NAMES`, repeats allowed).

    Returns:
        A function from the ``sum(lengths)`` concatenated samples to the
        values of every band in order, each band's in its ``names``
        order.
    """
    if not lengths or len(names) != len(lengths) or min(lengths) < 1:
        raise ConfigurationError("need one names tuple per non-empty band")
    for band_names in names:
        _check_names(band_names)
    n, starts, slices, band_start, positions, straddle = _band_plan(lengths)
    bands = len(lengths)
    width = sum(lengths)
    band_of = np.repeat(np.arange(bands), n)
    need = [frozenset(band_names) for band_names in names]
    union = frozenset().union(*need)
    row = {name: i * bands for i, name in enumerate(FEATURE_NAMES)}
    gather = [row[name] + k for k, band_names in enumerate(names) for name in band_names]
    second = bool(union & {"var", "std"})
    centred = bool(union & {"czero", "skew", "kurt"})
    moment_bands = [(k, slices[k], lengths[k]) for k, f in enumerate(need) if f - {"max", "min"}]
    shape_bands = [
        (k, slices[k], lengths[k], "skew" in f, "kurt" in f)
        for k, f in enumerate(need)
        if f & {"skew", "kurt"}
    ]

    def where(features) -> np.ndarray | bool:
        """The samples of the bands asking for any of ``features``."""
        mask = np.repeat([bool(f & features) for f in need], n)
        return True if mask.all() else mask

    # Rows of the centred-moment stack: c**2, then c**3 and c**4 as asked.
    squared = where({"skew", "kurt"})
    powers = [(p, where({name})) for p, name in ((3, "skew"), (4, "kurt")) if name in union]
    # Rows left out by a mask are summed too, so they must hold zeros.
    masked = any(mask is not True for mask in [squared] + [m for _, m in powers])
    blank = np.zeros if masked else np.empty

    def run(x: np.ndarray) -> List[float]:
        table = [0.0] * (len(FEATURE_NAMES) * bands)
        if "max" in union:
            table[row["max"] : row["max"] + bands] = np.maximum.reduceat(x, starts).tolist()
        if "min" in union:
            table[row["min"] : row["min"] + bands] = np.minimum.reduceat(x, starts).tolist()
        if not moment_bands:
            return [table[i] for i in gather]
        if second:
            stack = np.empty((2, width))
            stack[0] = x
            np.multiply(x, x, out=stack[1])
        mu = [0.0] * bands
        for k, sl, size in moment_bands:
            if second:
                total, squares = np.add.reduce(stack[:, sl], axis=1).tolist()
            else:
                total = float(np.add.reduce(x[sl]))
            mu[k] = m = total / size
            table[row["mean"] + k] = m
            if second:
                var = squares / size - m * m
                table[row["var"] + k] = var
                table[row["std"] + k] = math.sqrt(max(var, 0.0))
        if not centred:
            return [table[i] for i in gather]
        centered = x - (mu[0] if bands == 1 else np.array(mu)[band_of])
        if "czero" in union:
            signs = np.sign(centered)
            if np.count_nonzero(signs) < width:
                # Carry the last non-zero sign through the samples on their
                # mean, from the band start at the earliest (+1 before a
                # band's first non-zero sign).
                last = np.where(signs != 0, positions, band_start)
                np.maximum.accumulate(last, out=last)
                signs = signs[last]
                signs[signs == 0] = 1.0
            change = np.empty(width, dtype=bool)
            change[-1] = False
            np.not_equal(signs[1:], signs[:-1], out=change[:-1])
            change[straddle] = False
            counts = np.add.reduceat(change, starts, dtype=np.int64)
            table[row["czero"] : row["czero"] + bands] = counts.astype(np.float64).tolist()
        if shape_bands:
            moments = blank((1 + len(powers), width))
            np.square(centered, out=moments[0], where=squared)
            for i, (p, mask) in enumerate(powers, 1):
                # libm pow, as ``centered**p`` on one band: products such
                # as c*c*c round differently.
                np.power(centered, p, out=moments[i], where=mask)
            for k, sl, size, skew, kurt in shape_bands:
                sums = np.add.reduce(moments[:, sl], axis=1).tolist()
                m2 = sums[0] / size
                if m2 <= 1e-12:
                    table[row["skew"] + k] = table[row["kurt"] + k] = 0.0
                    continue
                if skew:
                    table[row["skew"] + k] = (sums[1] / size) / (m2**1.5)
                if kurt:
                    table[row["kurt"] + k] = (sums[-1] / size) / (m2**2)
        return [table[i] for i in gather]

    return run


#: name -> batch implementation
_FEATURE_FUNCS: Dict[str, Callable[[Sequence[float]], float]] = {
    "max": maximum,
    "min": minimum,
    "mean": mean,
    "var": variance,
    "std": standard_deviation,
    "czero": zero_crossings,
    "skew": skewness,
    "kurt": kurtosis,
}


def compute_feature(name: str, segment: Sequence[float]) -> float:
    """Compute one named feature on a segment."""
    try:
        func = _FEATURE_FUNCS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown feature {name!r}; available: {list(FEATURE_NAMES)}"
        ) from None
    return func(segment)


def feature_vector(
    segment: Sequence[float], names: Sequence[str] = FEATURE_NAMES
) -> np.ndarray:
    """Compute a vector of features in the given order."""
    return np.asarray([compute_feature(n, segment) for n in names])


#: Rows per block of :func:`multiband_feature_matrix`.  Its stacked
#: temporaries are a few times ``rows x sum(band lengths)`` floats, so
#: blocking keeps them small for any batch (training passes hundreds of
#: segments at once) while a serving batch of a few windows is one block.
ROW_BLOCK = 32


@functools.lru_cache(maxsize=64)
def _band_plan(lengths: Tuple[int, ...]):
    """Index tables of bands laid side by side: starts, slices, the band
    start of every position, and the pairs that straddle two bands."""
    n = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(n) - n
    slices = tuple(slice(int(a), int(a + b)) for a, b in zip(starts, n))
    band_start = np.repeat(starts, n)
    positions = np.arange(int(n.sum()), dtype=np.int64)
    straddle = starts[1:] - 1
    for arr in (n, starts, band_start, positions, straddle):
        arr.setflags(write=False)
    return n, starts, slices, band_start, positions, straddle


def _band_sums(stack: np.ndarray, slices) -> np.ndarray:
    """``(k, rows, n_bands)`` per-band sums of a ``(k, rows, width)`` stack.

    One ``add.reduce`` per band slice: each row of each band is summed on
    its own, with the pairwise summation of a per-band ``sum(axis=1)``,
    so every sum is bitwise the per-band one.  (``add.reduceat`` sums
    sequentially and would not be.)
    """
    return np.stack([np.add.reduce(stack[..., sl], axis=-1) for sl in slices], -1)


def _multiband_block(block, plan, need, names) -> np.ndarray:
    """Features of one row block of side-by-side bands, band-major."""
    n, starts, slices, band_start, positions, straddle = plan
    rows = block.shape[1]
    columns: Dict[str, np.ndarray] = {}
    X = block[0]  # block[1], when present, receives X * X
    if "max" in need:
        columns["max"] = np.maximum.reduceat(X, starts, axis=1)
    if "min" in need:
        columns["min"] = np.minimum.reduceat(X, starts, axis=1)
    if need - {"max", "min"}:
        if len(block) == 2:
            np.multiply(X, X, out=block[1])
        sums = _band_sums(block, slices)
        mu = sums[0] / n
        columns["mean"] = mu
        if need & {"var", "std"}:
            var = sums[1] / n - mu * mu
            columns["var"] = var
            columns["std"] = np.sqrt(np.maximum(var, 0.0))
        if need & {"czero", "skew", "kurt"}:
            centered = X - np.repeat(mu, n, axis=1)
            if "czero" in need:
                # The carried sign restarts at every band start: a position
                # before its band's first non-zero sign points at the band
                # start itself, and reads +1 there when that is zero too.
                signs = np.sign(centered)
                last = np.where(signs != 0, positions, band_start)
                np.maximum.accumulate(last, axis=1, out=last)
                filled = np.take_along_axis(signs, last, axis=1)
                filled[filled == 0] = 1.0
                change = np.zeros(filled.shape, dtype=bool)
                np.not_equal(filled[:, 1:], filled[:, :-1], out=change[:, :-1])
                change[:, straddle] = False
                columns["czero"] = np.add.reduceat(
                    change, starts, axis=1, dtype=np.int64
                ).astype(np.float64)
            powers = [p for p, f in ((3, "skew"), (4, "kurt")) if f in need]
            if powers:
                moments = np.empty((1 + len(powers),) + centered.shape)
                np.square(centered, out=moments[0])
                for row, p in enumerate(powers, 1):
                    # libm pow, as ``centered**p`` on one band: products
                    # such as c*c*c round differently.
                    np.power(centered, p, out=moments[row])
                m = _band_sums(moments, slices) / n
                degenerate = m[0] <= 1e-12
                safe_m2 = np.where(degenerate, 1.0, m[0])
                if "skew" in need:
                    columns["skew"] = np.where(degenerate, 0.0, m[1] / safe_m2**1.5)
                if "kurt" in need:
                    columns["kurt"] = np.where(
                        degenerate, 0.0, m[-1] / safe_m2**2
                    )
    return np.stack([columns[name] for name in names], axis=2).reshape(rows, -1)


def multiband_feature_matrix(
    bands: Sequence[np.ndarray], names: Sequence[str] = FEATURE_NAMES
) -> np.ndarray:
    """The named features of every band of one batch, in one pass.

    ``bands`` are ``(rows, n_k)`` arrays with one row per segment (the
    time-domain segment and its DWT sub-bands, say).  They are laid side
    by side in one ``(rows, sum(n_k))`` matrix, and every step runs once
    over all of them: max and min are one exact ``reduceat`` each, the
    squares, centring, signs and powers are one elementwise pass, the
    Czero sign carry restarts at every band start, and every moment is
    one pairwise ``add.reduce`` per band over a stacked array.  Rows go
    through in blocks of :data:`ROW_BLOCK`.

    Every value is bitwise the one a separate per-band computation
    (``X.mean(axis=1)``, ``(centered**3).mean(axis=1)``, ...) gives; the
    test suite pins that against the per-band oracle.

    Args:
        bands: Band batches, all with the same number of rows; every band
            must hold at least one sample.
        names: Features to compute, in per-band column order.

    Returns:
        ``(rows, len(bands) * len(names))`` matrix, band-major: columns
        ``k * len(names) ...`` are band ``k``'s features in ``names``
        order.  Zero rows give a ``(0, ...)`` matrix.
    """
    _check_names(names)
    arrays = [np.asarray(b, dtype=np.float64) for b in bands]
    if not arrays or any(a.ndim != 2 for a in arrays):
        raise ConfigurationError("bands must be a non-empty list of 2-D batches")
    rows = arrays[0].shape[0]
    if any(a.shape[0] != rows for a in arrays):
        raise ConfigurationError("every band must have the same number of rows")
    if any(a.shape[1] == 0 for a in arrays):
        raise ConfigurationError("every band must hold at least one sample")
    need = frozenset(names)
    plan = _band_plan(tuple(a.shape[1] for a in arrays))
    width = int(plan[0].sum())
    depth = 2 if need & {"var", "std"} else 1
    out = np.empty((rows, len(arrays) * len(names)))
    for lo in range(0, rows, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, rows)
        block = np.empty((depth, hi - lo, width))
        np.concatenate([a[lo:hi] for a in arrays], axis=1, out=block[0])
        out[lo:hi] = _multiband_block(block, plan, need, names)
    return out


def operation_counts(name: str, segment_length: int) -> Mapping[str, int]:
    """S-ALU operation counts for one feature cell over an N-sample segment.

    These counts are the bridge between the algorithmic definition of a
    feature and its hardware cost: the energy library multiplies them by
    per-operation energies, and the delay model by per-operation cycle
    counts.  ``cmp`` is a comparator operation, ``super`` is one use of the
    S-ALU super-computation unit (sqrt/exp/reciprocal, Section 3.1.1).

    The Std entry deliberately counts only the *additional* square root on
    top of Var, reflecting the cell-level reuse rule (Figure 5); topology
    construction adds the Var cell explicitly as its predecessor.
    """
    n = int(segment_length)
    if n <= 0:
        raise ConfigurationError("segment_length must be positive")
    counts: Dict[str, Mapping[str, int]] = {
        "max": {"cmp": n - 1},
        "min": {"cmp": n - 1},
        "mean": {"add": n - 1, "div": 1},
        # sum, sum of squares, one division each, one multiply + subtract.
        "var": {"add": 2 * (n - 1), "mul": n + 1, "div": 2, "sub": 1},
        "std": {"super": 1},
        "czero": {"add": n - 1, "div": 1, "sub": n, "cmp": 2 * n},
        # centered third moment: subtract mean (n), cube (2n mul), sum, then
        # normalisation m2^{3/2} = m2 * sqrt(m2) -> 1 super + 1 mul + 1 div.
        "skew": {
            "add": 2 * (n - 1),
            "sub": n + 1,
            "mul": 3 * n + 2,
            "div": 3,
            "super": 1,
        },
        # centered fourth moment: subtract mean (n), 4th power (3n mul or 2n
        # with squaring reuse), sum, normalisation m2^2 -> 1 mul + 1 div.
        "kurt": {"add": 2 * (n - 1), "sub": n + 1, "mul": 3 * n + 2, "div": 3},
    }
    if name not in counts:
        raise ConfigurationError(
            f"unknown feature {name!r}; available: {list(FEATURE_NAMES)}"
        )
    return dict(counts[name])

