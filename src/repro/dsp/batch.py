"""Whole-batch feature extraction: the front end of training and the gateway.

Training extracts the 56-dimensional feature vector for every segment,
and the gateway does it for every window it scores.  This module runs a
whole ``(n_segments, segment_length)`` batch through the same two steps
the engine's cells run on one segment -- the Haar pyramid of
:func:`repro.dsp.wavelet.dwt_multilevel` on the last axis, then one
:func:`repro.dsp.features.multiband_kernel` pass per row block -- so its
values are bitwise those of the per-row reference
:meth:`repro.core.layout.FeatureLayout.extract` and of the engine, at
about an order of magnitude less time than the per-row loop.
"""

from __future__ import annotations

import numpy as np

from repro.core.layout import FeatureLayout
from repro.dsp.features import multiband_feature_matrix
from repro.dsp.wavelet import dwt_multilevel
from repro.errors import ConfigurationError

#: The Haar pyramid of a ``(rows, n)`` batch: :func:`dwt_multilevel` itself,
#: which runs on the last axis.
batch_haar_multilevel = dwt_multilevel


def batch_extract_matrix(
    segments: np.ndarray, layout: FeatureLayout
) -> np.ndarray:
    """Vectorised drop-in for :meth:`FeatureLayout.extract_matrix`."""
    X = np.asarray(segments, dtype=np.float64)
    if X.ndim != 2:
        raise ConfigurationError("segments must be a 2-D batch")
    if X.shape[1] != layout.segment_length:
        raise ConfigurationError(
            f"rows must have length {layout.segment_length}, got {X.shape[1]}"
        )

    # Align for the DWT path (truncate/zero-pad every row).
    target = layout.dwt_aligned_length
    if X.shape[1] >= target:
        aligned = X[:, :target]
    else:
        aligned = np.zeros((X.shape[0], target))
        aligned[:, : X.shape[1]] = X

    bands = dwt_multilevel(aligned, layout.dwt_levels)
    return multiband_feature_matrix([X, *bands], layout.feature_names)
