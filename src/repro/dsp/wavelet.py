"""Multi-level discrete wavelet transform (DWT) for biosignal analysis.

The XPro generic classification extracts statistical features not only on the
time-domain segment but also on the approximation sub-bands of a multi-level
DWT decomposition (Section 2.1).  For the paper's 128-sample segments a
5-level transform is used, whose per-level lengths are 64/32/16/8/4 with the
5th level contributing *two* 4-sample segments (approximation + detail,
Section 4.4).

This module implements the Haar DWT from scratch (no pywt available
offline); Haar is the only wavelet, because the in-sensor DWT cell is a
shift-add datapath.  Both functions run on the last axis, so one segment
and a ``(rows, n)`` batch go through the same arithmetic: the engine's DWT
cells, training and the gateway all compute the same bits.

- :func:`dwt_single_level` -- one analysis step: the pair sums and
  differences ``(x[2k] +- x[2k+1]) / sqrt(2)``, i.e. the Haar low-pass and
  high-pass filters with periodic extension, downsampled by two.
- :func:`dwt_multilevel` -- the full pyramid, returning the sub-band segments
  in the order the functional-cell topology consumes them.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

_SQRT2 = math.sqrt(2.0)


def dwt_single_level(segment: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """One Haar DWT analysis level over the last axis.

    Args:
        segment: Input samples, one segment or a batch of rows; the last
            axis must have even length (the hardware DWT cell processes
            power-of-two segments).

    Returns:
        ``(approximation, detail)`` arrays, each of half the input length
        on the last axis: ``(x[2k] + x[2k+1]) / sqrt(2)`` and
        ``(x[2k] - x[2k+1]) / sqrt(2)``.
    """
    arr = np.asarray(segment, dtype=np.float64)
    if arr.ndim == 0:
        raise ConfigurationError("DWT input must have at least one dimension")
    n = arr.shape[-1]
    if n < 2 or n % 2 != 0:
        raise ConfigurationError(f"DWT input length must be even and >= 2, got {n}")
    even, odd = arr[..., 0::2], arr[..., 1::2]
    return (even + odd) / _SQRT2, (even - odd) / _SQRT2


def dwt_multilevel(segment: Sequence[float], levels: int) -> List[np.ndarray]:
    """Full multi-level Haar DWT pyramid in functional-cell consumption order.

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
        segment: Input samples, one segment or a batch of rows; the last
            axis must be divisible by ``2**levels``.
        levels: Number of decomposition levels (>= 1).

    Returns:
        List of sub-band arrays ordered shallow-to-deep, each with the
        input's leading axes.
    """
    if levels < 1:
        raise ConfigurationError("levels must be >= 1")
    approx = np.atleast_1d(np.asarray(segment, dtype=np.float64))
    if approx.shape[-1] % (1 << levels) != 0:
        raise ConfigurationError(
            f"segment length {approx.shape[-1]} not divisible by 2**{levels}"
        )

    bands: List[np.ndarray] = []
    for level in range(1, levels + 1):
        approx, detail = dwt_single_level(approx)
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
