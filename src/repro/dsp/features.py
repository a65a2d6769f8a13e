"""The eight hardware-friendly statistical features of XPro.

Section 2.1 of the paper fixes the generic feature set to: maximal value
(Max), minimal value (Min), mean value (Mean), variance (Var), standard
deviation (Std), zero-crossing count (Czero), skewness (Skew) and kurtosis
(Kurt), extracted on the time-domain segment and on every DWT sub-band.

Each feature has:

- a reference function over one segment (:func:`skewness`, ...), which
  :meth:`repro.core.layout.FeatureLayout.extract` calls per band, and
- an operation-count model (:func:`operation_counts`) describing what the
  in-sensor S-ALU executes, which drives the energy/delay characterisation
  of the corresponding functional cell (Figure 4).

:func:`multiband_kernel` is the one fast form of all eight: the engine's
feature cells, training and the gateway (through
:func:`multiband_feature_matrix`) all run it, and it is bitwise the
reference functions.

The statistical definitions follow the population (biased) moment
conventions, which is what a single-pass hardware datapath computes:
``var = E[x^2] - E[x]^2``, ``skew = m3 / np.power(m2, 1.5)``,
``kurt = m4 / (m2 * m2)``.  Those exact expressions, the array ``pow``
and an exact square, are what every path computes, so they agree to the
bit.
"""

from __future__ import annotations

import functools
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
    """Population skewness ``m3 / m2^{3/2}`` (0 for constant segments).

    ``m2^{3/2}`` is ``np.power(m2, 1.5)``, NumPy's array ``pow``, as in
    :func:`multiband_kernel`; Python's ``m2**1.5`` rounds differently on
    some values.
    """
    arr = _as_segment(segment)
    centered = arr - _mean(arr)
    m2 = float(_mean(centered**2))
    if m2 <= 1e-12:
        return 0.0
    m3 = float(_mean(centered**3))
    return float(m3 / np.power(m2, 1.5))


def kurtosis(segment: Sequence[float]) -> float:
    """Population kurtosis ``m4 / m2^2`` (non-excess; 0 for constants).

    ``m2^2`` is the exact square ``m2 * m2`` (what an array ``**2`` gives;
    Python's ``m2**2`` goes through ``pow``).
    """
    arr = _as_segment(segment)
    centered = arr - _mean(arr)
    m2 = float(_mean(centered**2))
    if m2 <= 1e-12:
        return 0.0
    m4 = float(_mean(centered**4))
    return m4 / (m2 * m2)


@functools.lru_cache(maxsize=256)
def band_kernel(names: Tuple[str, ...]) -> Callable[[np.ndarray], List[float]]:
    """One pass computing the named features of one band, in ``names`` order.

    The one-band case of :func:`multiband_kernel`, for a band of any
    length: ``_mean``, the centred band and ``m2`` are computed once and
    shared, and ``std`` is the square root of the ``var`` computed here
    (the Fig. 5 reuse).  Every value is bitwise the one the matching
    function above returns, which the test suite checks.

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
        return multiband_kernel((arr.size,), (names,))(arr).tolist()

    return run


def _check_names(names: Sequence[str]) -> None:
    unknown = [n for n in names if n not in _FEATURE_FUNCS]
    if unknown:
        raise ConfigurationError(f"unknown features: {unknown}")


@functools.lru_cache(maxsize=256)
def multiband_kernel(
    lengths: Tuple[int, ...], names: Tuple[Tuple[str, ...], ...]
) -> Callable[[np.ndarray], np.ndarray]:
    """One pass computing named features of several bands, row by row.

    This is the one feature front end: the engine's feature step runs it
    on one segment, :func:`multiband_feature_matrix` on row blocks of a
    batch and :func:`band_kernel` on one band.  The bands lie side by
    side on the last axis (band ``k`` holds ``lengths[k]`` samples) of a
    ``(..., sum(lengths))`` array, one row per segment, and band ``k``
    asks for the features ``names[k]``.  Every step runs once over all
    bands and rows: max and min are one ``reduceat`` each; the squares,
    the centring by each band's mean, the signs and the libm powers
    ``c**3``/``c**4`` (only where a band asks for skew or kurt) are one
    elementwise pass each; Czero takes the sign carry only when some
    sample sits exactly on its band mean, restarting it at every band
    start, and counts the sign changes in one ``add.reduceat`` with the
    pairs that straddle two bands masked.  Every sum is one pairwise
    ``add.reduce`` per band slice (bands that ask for no moment are
    skipped) divided by the band length, so it is bitwise the per-band
    ``X.mean(axis=-1)``; then ``var = E[x^2] - mean^2``,
    ``skew = m3 / np.power(m2, 1.5)`` and ``kurt = m4 / (m2 * m2)``, with
    skew and kurt 0 where ``m2 <= 1e-12``: the expressions of the
    functions above.  There is no per-row or per-band Python arithmetic,
    so one segment and a block of rows take the same path.  The test
    suite pins every value against the functions above and against a
    per-band batch oracle.

    A kernel is a pure function of its arguments, so one is kept per
    ``(lengths, names)`` and shared by every step that asks for it.

    Args:
        lengths: Samples per band, each at least one.
        names: Per band, the features to compute (each of
            :data:`FEATURE_NAMES`, repeats allowed).

    Returns:
        A function from a ``(..., sum(lengths))`` float64 array to the
        ``(..., n_values)`` values of every band in order, each band's in
        its ``names`` order.
    """
    if not lengths or len(names) != len(lengths) or min(lengths) < 1:
        raise ConfigurationError("need one names tuple per non-empty band")
    for band_names in names:
        _check_names(band_names)
    n = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(n) - n
    slices = [slice(int(a), int(a + b)) for a, b in zip(starts, n)]
    bands = len(lengths)
    band_of = np.repeat(np.arange(bands), n)
    band_start = starts[band_of]
    positions = np.arange(int(n.sum()))
    inside = positions != band_start  # not the first sample of its band
    need = [frozenset(band_names) for band_names in names]
    union = frozenset().union(*need)
    # The table holds every feature of every band, feature by feature;
    # the kernel returns the asked ones, band by band.
    row = {name: i for i, name in enumerate(FEATURE_NAMES)}
    gather = np.array(
        [row[name] * bands + k for k, band_names in enumerate(names) for name in band_names],
        dtype=np.intp,
    )
    second = bool(union & {"var", "std"})
    moment_slices = [(k, slices[k]) for k, f in enumerate(need) if f - {"max", "min"}]
    shape_slices = [(k, slices[k]) for k, f in enumerate(need) if f & {"skew", "kurt"}]

    def where(features) -> dict:
        """``where=`` of the samples of the bands asking for any of
        ``features``, as keywords (none when every band asks)."""
        mask = np.repeat([bool(f & features) for f in need], n)
        return {} if mask.all() else {"where": mask}

    # Rows of the centred-moment stack: the exact square, then libm pow
    # for c**3 and c**4 as asked, as ``centered**p`` (products such as
    # c*c*c round differently).
    powers = [(np.square, (), where({"skew", "kurt"}))] + [
        (np.power, (p,), where({name}))
        for p, name in ((3, "skew"), (4, "kurt"))
        if name in union
    ]
    # Samples a mask leaves out are summed too, so they must hold zeros.
    blank = np.zeros if any(kw for _, _, kw in powers) else np.empty
    # A flat band's moments become (1, 0, 0): skew and kurt come out 0.
    flat_fill = np.array([1.0] + [0.0] * (len(powers) - 1))[:, None]

    def band_means(stack: np.ndarray, asking, out: np.ndarray) -> np.ndarray:
        """Band means of a ``(..., k, width)`` stack into ``(..., k,
        bands)``: one pairwise ``add.reduce`` per asking band."""
        for k, sl in asking:
            np.add.reduce(stack[..., sl], axis=-1, out=out[..., k])
        return np.divide(out, n, out=out)

    def run(X: np.ndarray) -> np.ndarray:
        lead = X.shape[:-1]
        # Zeros, so a band that asks for no moment reads as flat.
        table = np.zeros(lead + (len(FEATURE_NAMES), bands))
        if "max" in union:
            np.maximum.reduceat(X, starts, axis=-1, out=table[..., row["max"], :])
        if "min" in union:
            np.minimum.reduceat(X, starts, axis=-1, out=table[..., row["min"], :])
        if moment_slices:
            # sum(x) and sum(x*x) land in the mean and var rows.
            stack = np.empty(lead + (1 + second, X.shape[-1]))
            stack[..., 0, :] = X
            if second:
                np.multiply(X, X, out=stack[..., 1, :])
            mean = row["mean"]
            band_means(stack, moment_slices, table[..., mean : mean + 1 + second, :])
            mu = table[..., mean, :]
            if second:
                var = table[..., row["var"], :]
                np.subtract(var, mu * mu, out=var)
                np.sqrt(np.maximum(var, 0.0), out=table[..., row["std"], :])
            if union & {"czero", "skew", "kurt"}:
                centered = X - mu.take(band_of, axis=-1)
        if "czero" in union:
            signs = np.sign(centered)
            if np.count_nonzero(signs) < signs.size:
                # Carry the last non-zero sign through the samples on their
                # mean, from the band start at the earliest (+1 before a
                # band's first non-zero sign).
                last = np.where(signs != 0, positions, band_start)
                np.maximum.accumulate(last, axis=-1, out=last)
                signs = np.take_along_axis(signs, last, axis=-1)
                signs[signs == 0] = 1.0
            # A change at a band start straddles two bands: it is masked.
            change = np.empty(signs.shape, dtype=bool)
            np.not_equal(signs[..., 1:], signs[..., :-1], out=change[..., 1:])
            np.logical_and(change, inside, out=change)
            np.add.reduceat(
                change, starts, axis=-1, dtype=np.float64, out=table[..., row["czero"], :]
            )
        if shape_slices:
            moments = blank(lead + (len(powers), X.shape[-1]))
            for i, (ufunc, args, kw) in enumerate(powers):
                ufunc(centered, *args, out=moments[..., i, :], **kw)
            m = band_means(moments, shape_slices, np.zeros(lead + (len(powers), bands)))
            np.copyto(m, flat_fill, where=m[..., :1, :] <= 1e-12)
            m2 = m[..., 0, :]
            if "skew" in union:
                np.divide(m[..., 1, :], np.power(m2, 1.5), out=table[..., row["skew"], :])
            if "kurt" in union:
                np.divide(m[..., -1, :], m2 * m2, out=table[..., row["kurt"], :])
        return table.reshape(lead + (-1,)).take(gather, axis=-1)

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


def multiband_feature_matrix(
    bands: Sequence[np.ndarray], names: Sequence[str] = FEATURE_NAMES
) -> np.ndarray:
    """The named features of every band of one batch, in one pass.

    ``bands`` are ``(rows, n_k)`` arrays with one row per segment (the
    time-domain segment and its DWT sub-bands, say).  Each block of
    :data:`ROW_BLOCK` rows is laid side by side in one
    ``(rows, sum(n_k))`` matrix and goes through one
    :func:`multiband_kernel` pass that asks every band for ``names``.

    Every value is bitwise the one a separate per-band computation
    (``X.mean(axis=1)``, ``(centered**3).mean(axis=1)``, ...) gives, and
    the one the functions above give on each row's band; the test suite
    pins both.

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
    kernel = multiband_kernel(
        tuple(a.shape[1] for a in arrays), (tuple(names),) * len(arrays)
    )
    out = np.empty((rows, len(arrays) * len(names)))
    for lo in range(0, rows, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, rows)
        out[lo:hi] = kernel(np.concatenate([a[lo:hi] for a in arrays], axis=1))
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

