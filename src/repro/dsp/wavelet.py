"""Multi-level discrete wavelet transform (DWT) for biosignal analysis.

The XPro generic classification extracts statistical features not only on the
time-domain segment but also on the approximation sub-bands of a multi-level
DWT decomposition (Section 2.1).  For the paper's 128-sample segments a
5-level transform is used, whose per-level lengths are 64/32/16/8/4 with the
5th level contributing *two* 4-sample segments (approximation + detail,
Section 4.4).

This module implements the DWT from scratch (no pywt available offline):

- :class:`WaveletFilter` -- quadrature mirror filter pairs; Haar and the
  Daubechies-4 ("db2") family are provided, Haar being the hardware-friendly
  default (the in-sensor DWT cell is a shift-add datapath).
- :func:`dwt_single_level` -- one analysis step (low-pass/high-pass filter +
  downsample by 2) with periodic boundary extension.
- :func:`dwt_multilevel` -- the full pyramid, returning the sub-band segments
  in the order the functional-cell topology consumes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

_SQRT2 = math.sqrt(2.0)

#: Analysis filters of the supported wavelet families, keyed by name.
_FILTER_BANK = {
    "haar": (
        np.array([1.0 / _SQRT2, 1.0 / _SQRT2]),
        np.array([1.0 / _SQRT2, -1.0 / _SQRT2]),
    ),
    # Daubechies-4 (two vanishing moments); coefficients from the closed form
    # ((1 ± sqrt(3)) / (4 sqrt(2)), (3 ± sqrt(3)) / (4 sqrt(2))).
    "db2": (
        np.array(
            [
                (1 + math.sqrt(3)) / (4 * _SQRT2),
                (3 + math.sqrt(3)) / (4 * _SQRT2),
                (3 - math.sqrt(3)) / (4 * _SQRT2),
                (1 - math.sqrt(3)) / (4 * _SQRT2),
            ]
        ),
        np.array(
            [
                (1 - math.sqrt(3)) / (4 * _SQRT2),
                -(3 - math.sqrt(3)) / (4 * _SQRT2),
                (3 + math.sqrt(3)) / (4 * _SQRT2),
                -(1 + math.sqrt(3)) / (4 * _SQRT2),
            ]
        ),
    ),
}


def daubechies_lowpass(order: int) -> np.ndarray:
    """Construct the Daubechies-``order`` scaling filter (2*order taps).

    Classic spectral factorisation: the Daubechies polynomial
    ``P(y) = sum_k C(order-1+k, k) y^k`` is evaluated on the substitution
    ``y = (2 - z - 1/z) / 4``; its roots come in ``(z, 1/z)`` pairs and the
    minimum-phase half (|z| < 1) is kept, multiplied by the required
    ``(1 + z)^order`` factor, then normalised to ``sum h = sqrt(2)``.

    Verified properties (see the wavelet tests): orthonormality of the
    polyphase shifts, ``order`` vanishing moments of the matching wavelet,
    and agreement with the closed-form db2 coefficients.

    Args:
        order: Number of vanishing moments (db1 = Haar ... db8 supported;
            higher orders suffer root-finding conditioning).
    """
    if not 1 <= order <= 8:
        raise ConfigurationError("Daubechies order must be in [1, 8]")
    if order == 1:
        return np.array([1.0, 1.0]) / _SQRT2

    p = order
    # Daubechies polynomial coefficients in y, ascending order.
    poly_y = [math.comb(p - 1 + k, k) for k in range(p)]
    # Roots of P(y).
    y_roots = np.roots(list(reversed(poly_y)))
    z_roots = []
    for y in y_roots:
        # y = (2 - z - 1/z)/4  =>  z^2 - (2 - 4y) z + 1 = 0.
        b = 2.0 - 4.0 * y
        disc = np.sqrt(b * b - 4.0 + 0j)
        for z in ((b + disc) / 2.0, (b - disc) / 2.0):
            if abs(z) < 1.0 - 1e-12:
                z_roots.append(z)
                break
    # h(z) = (1 + z)^p * prod (z - z_k), then normalise.
    coeffs = np.array([1.0 + 0j])
    for _ in range(p):
        coeffs = np.convolve(coeffs, np.array([1.0, 1.0]))
    for z in z_roots:
        coeffs = np.convolve(coeffs, np.array([1.0, -z]))
    taps = np.real(coeffs)
    taps = taps / taps.sum() * _SQRT2
    return taps


def quadrature_mirror(lowpass: np.ndarray) -> np.ndarray:
    """High-pass taps from low-pass taps: ``g[k] = (-1)^k h[N-1-k]``."""
    n = len(lowpass)
    return np.array([(-1) ** k * lowpass[n - 1 - k] for k in range(n)])


@dataclass(frozen=True)
class WaveletFilter:
    """An analysis filter pair for one DWT step.

    Attributes:
        name: Family name (``"haar"``, ``"db2"`` ... ``"db8"``).
        lowpass: Scaling (approximation) filter taps.
        highpass: Wavelet (detail) filter taps.
    """

    name: str
    lowpass: np.ndarray
    highpass: np.ndarray

    @classmethod
    def by_name(cls, name: str) -> "WaveletFilter":
        """Look up a built-in family, or construct ``db<N>`` on demand."""
        key = name.lower()
        if key in _FILTER_BANK:
            low, high = _FILTER_BANK[key]
            return cls(name=key, lowpass=low.copy(), highpass=high.copy())
        if key.startswith("db") and key[2:].isdigit():
            low = daubechies_lowpass(int(key[2:]))
            return cls(name=key, lowpass=low, highpass=quadrature_mirror(low))
        raise ConfigurationError(
            f"unknown wavelet {name!r}; available: "
            f"{sorted(_FILTER_BANK)} and db1..db8"
        )

    @property
    def length(self) -> int:
        """Number of taps in each filter."""
        return len(self.lowpass)


def _analysis_step(
    segment: np.ndarray, taps: np.ndarray
) -> np.ndarray:
    """Filter with periodic extension, then downsample by two."""
    n = len(segment)
    extended = np.concatenate([segment, segment[: len(taps) - 1]])
    filtered = np.convolve(extended, taps[::-1], mode="valid")
    return filtered[:n][::2]


def dwt_single_level(
    segment: Sequence[float], wavelet: WaveletFilter
) -> Tuple[np.ndarray, np.ndarray]:
    """One DWT analysis level.

    Args:
        segment: Input samples; the length must be even (the hardware DWT
            cell processes power-of-two segments).
        wavelet: Filter pair to use.

    Returns:
        ``(approximation, detail)`` arrays, each of half the input length.
    """
    arr = np.asarray(segment, dtype=np.float64)
    if arr.ndim != 1:
        raise ConfigurationError("DWT input must be one-dimensional")
    if len(arr) < 2 or len(arr) % 2 != 0:
        raise ConfigurationError(
            f"DWT input length must be even and >= 2, got {len(arr)}"
        )
    approx = _analysis_step(arr, wavelet.lowpass)
    detail = _analysis_step(arr, wavelet.highpass)
    return approx, detail


def dwt_multilevel(
    segment: Sequence[float],
    levels: int,
    wavelet: WaveletFilter | str = "haar",
) -> List[np.ndarray]:
    """Full multi-level DWT pyramid in functional-cell consumption order.

    The returned list contains, for a 5-level transform of a 128-sample
    segment, sub-bands of lengths ``[64, 32, 16, 8, 4, 4]``: the detail
    band of each level 1..L-1 is replaced by the next level's decomposition
    of the approximation band, and the deepest level contributes both its
    approximation and detail bands (the paper's "the 5-th level has two
    4-sample segments").

    Concretely the output is ``[D1, D2, ..., D(L-1), A(L), D(L)]`` where
    ``A``/``D`` are approximation/detail bands — each entry is one "DWT
    domain segment" on which the statistical feature cells operate.

    Args:
        segment: Input samples; length must be divisible by ``2**levels``.
        levels: Number of decomposition levels (>= 1).
        wavelet: Filter family name or a :class:`WaveletFilter`.

    Returns:
        List of sub-band arrays ordered shallow-to-deep.
    """
    if isinstance(wavelet, str):
        wavelet = WaveletFilter.by_name(wavelet)
    if levels < 1:
        raise ConfigurationError("levels must be >= 1")
    arr = np.asarray(segment, dtype=np.float64)
    if len(arr) % (1 << levels) != 0:
        raise ConfigurationError(
            f"segment length {len(arr)} not divisible by 2**{levels}"
        )

    bands: List[np.ndarray] = []
    approx = arr
    for level in range(1, levels + 1):
        approx, detail = dwt_single_level(approx, wavelet)
        if level < levels:
            bands.append(detail)
        else:
            bands.append(approx)
            bands.append(detail)
    return bands


def _analysis_step_batch(batch: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Row-wise filter with periodic extension, then downsample by two.

    Matches :func:`_analysis_step` output for every row: the valid part of
    ``convolve(extended, taps[::-1])`` equals the correlation
    ``sum_j taps[j] * extended[:, j:j+n]``, computed here as one
    vectorised accumulation over the (few) filter taps instead of a
    per-row convolution call.
    """
    n = batch.shape[1]
    extended = np.concatenate([batch, batch[:, : len(taps) - 1]], axis=1)
    filtered = np.zeros((batch.shape[0], n))
    for j, tap in enumerate(taps):
        filtered += tap * extended[:, j : j + n]
    return filtered[:, ::2]


def dwt_single_level_batch(
    batch: Sequence[Sequence[float]], wavelet: WaveletFilter | str = "haar"
) -> Tuple[np.ndarray, np.ndarray]:
    """One DWT analysis level over a whole ``(rows, n)`` batch.

    The batched counterpart of :func:`dwt_single_level` for any supported
    wavelet family: row ``i`` of each output equals
    ``dwt_single_level(batch[i], wavelet)``.

    Returns:
        ``(approximation, detail)`` arrays of shape ``(rows, n // 2)``.
    """
    if isinstance(wavelet, str):
        wavelet = WaveletFilter.by_name(wavelet)
    arr = np.asarray(batch, dtype=np.float64)
    if arr.ndim != 2:
        raise ConfigurationError("batched DWT input must be two-dimensional")
    if arr.shape[1] < 2 or arr.shape[1] % 2 != 0:
        raise ConfigurationError(
            f"DWT input length must be even and >= 2, got {arr.shape[1]}"
        )
    approx = _analysis_step_batch(arr, wavelet.lowpass)
    detail = _analysis_step_batch(arr, wavelet.highpass)
    return approx, detail


def dwt_multilevel_batch(
    batch: Sequence[Sequence[float]],
    levels: int,
    wavelet: WaveletFilter | str = "haar",
) -> List[np.ndarray]:
    """Batched :func:`dwt_multilevel`: the full pyramid for every row at once.

    Returns the sub-band batches in the same consumption order
    ``[D1, ..., D(L-1), A(L), D(L)]``; entry ``k`` has shape
    ``(rows, band_length_k)`` and its row ``i`` equals band ``k`` of
    ``dwt_multilevel(batch[i], levels, wavelet)``.
    """
    if isinstance(wavelet, str):
        wavelet = WaveletFilter.by_name(wavelet)
    if levels < 1:
        raise ConfigurationError("levels must be >= 1")
    arr = np.asarray(batch, dtype=np.float64)
    if arr.ndim != 2:
        raise ConfigurationError("batched DWT input must be two-dimensional")
    if arr.shape[1] % (1 << levels) != 0:
        raise ConfigurationError(
            f"row length {arr.shape[1]} not divisible by 2**{levels}"
        )
    bands: List[np.ndarray] = []
    approx = arr
    for level in range(1, levels + 1):
        approx, detail = dwt_single_level_batch(approx, wavelet)
        if level < levels:
            bands.append(detail)
        else:
            bands.append(approx)
            bands.append(detail)
    return bands


def dwt_band_lengths(segment_length: int, levels: int) -> List[int]:
    """Sub-band lengths produced by :func:`dwt_multilevel`, without computing.

    >>> dwt_band_lengths(128, 5)
    [64, 32, 16, 8, 4, 4]
    """
    if levels < 1:
        raise ConfigurationError("levels must be >= 1")
    if segment_length % (1 << levels) != 0:
        raise ConfigurationError(
            f"segment length {segment_length} not divisible by 2**{levels}"
        )
    lengths = [segment_length >> level for level in range(1, levels)]
    lengths.extend([segment_length >> levels] * 2)
    return lengths
