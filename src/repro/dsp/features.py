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

    The fused counterpart of the per-feature functions above, for sibling
    feature cells that read the same band: ``_mean``, the centred band and
    ``m2`` are computed once and shared, and ``std`` is the square root of
    the ``var`` computed here (the Fig. 5 reuse).  Every value is bitwise
    the one the matching function above returns, which the test suite
    checks; those functions stay the reference.

    A kernel is a pure function of ``names``, so one kernel per tuple is
    kept and shared by every cell and fused step that asks for it.

    Args:
        names: Features to compute (each of :data:`FEATURE_NAMES`).

    Returns:
        A function from a non-empty 1-D band to its feature values.
    """
    unknown = [n for n in names if n not in _FEATURE_FUNCS]
    if unknown:
        raise ConfigurationError(f"unknown features: {unknown}")
    need = frozenset(names)
    moments = bool(need - {"max", "min"})
    second = bool(need & {"var", "std"})
    centred = bool(need & {"czero", "skew", "kurt"})
    shape = bool(need & {"skew", "kurt"})

    def run(band: np.ndarray) -> List[float]:
        arr = _as_segment(band)
        v: Dict[str, float] = {}
        if "max" in need:
            v["max"] = float(arr.max())
        if "min" in need:
            v["min"] = float(arr.min())
        if moments:
            mu = _mean(arr)
            v["mean"] = float(mu)
            if second:
                var = float(_mean(arr * arr) - mu * mu)
                v["var"] = var
                v["std"] = math.sqrt(max(var, 0.0))
            if centred:
                centered = arr - mu
                if "czero" in need:
                    signs = _propagate_signs(np.sign(centered))
                    v["czero"] = float(np.count_nonzero(signs[1:] != signs[:-1]))
                if shape:
                    m2 = float(_mean(centered**2))
                    if m2 <= 1e-12:
                        v["skew"] = v["kurt"] = 0.0
                    else:
                        if "skew" in need:
                            v["skew"] = float(_mean(centered**3)) / (m2**1.5)
                        if "kurt" in need:
                            v["kurt"] = float(_mean(centered**4)) / (m2**2)
        return [v[n] for n in names]

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


def batch_feature_matrix(
    segments: Sequence[Sequence[float]], names: Sequence[str] = FEATURE_NAMES
) -> np.ndarray:
    """All requested features of a ``(n_segments, n_samples)`` batch at once.

    The batched analogue of :func:`feature_vector`: row ``i`` of the result
    is ``feature_vector(segments[i], names)``, but every feature is computed
    for the whole batch in single NumPy passes (one reduction per moment,
    one accumulate pass for the Czero sign propagation) instead of a Python
    loop over segments.  Values match the scalar reference to float
    precision (within 1 ulp; the reductions are the same up to summation
    blocking), which the equivalence tests pin down to ``atol=1e-9``.

    Args:
        segments: Two-dimensional batch; every row is one segment.
        names: Features to compute, in output-column order.

    Returns:
        ``(n_segments, len(names))`` feature matrix.
    """
    X = np.asarray(segments, dtype=np.float64)
    if X.ndim != 2:
        raise ConfigurationError("segments must be a 2-D batch")
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise ConfigurationError("segments batch must be non-empty")
    unknown = [n for n in names if n not in _FEATURE_FUNCS]
    if unknown:
        raise ConfigurationError(f"unknown features: {unknown}")

    need = set(names)
    columns: Dict[str, np.ndarray] = {}
    if "max" in need:
        columns["max"] = X.max(axis=1)
    if "min" in need:
        columns["min"] = X.min(axis=1)
    if need - {"max", "min"}:
        mu = X.mean(axis=1)
        columns["mean"] = mu
        if need & {"var", "std"}:
            var = (X * X).mean(axis=1) - mu * mu
            columns["var"] = var
            columns["std"] = np.sqrt(np.maximum(var, 0.0))
        if need & {"czero", "skew", "kurt"}:
            centered = X - mu[:, None]
            if "czero" in need:
                signs = _propagate_signs(np.sign(centered))
                columns["czero"] = (signs[:, 1:] != signs[:, :-1]).sum(
                    axis=1
                ).astype(np.float64)
            if need & {"skew", "kurt"}:
                m2 = (centered**2).mean(axis=1)
                degenerate = m2 <= 1e-12
                safe_m2 = np.where(degenerate, 1.0, m2)
                if "skew" in need:
                    m3 = (centered**3).mean(axis=1)
                    columns["skew"] = np.where(degenerate, 0.0, m3 / safe_m2**1.5)
                if "kurt" in need:
                    m4 = (centered**4).mean(axis=1)
                    columns["kurt"] = np.where(degenerate, 0.0, m4 / safe_m2**2)
    return np.column_stack([columns[n] for n in names])


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

