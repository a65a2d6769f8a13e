"""Feature layout of the generic classification framework.

The complete statistical feature set spans several *domains*: the raw
time-domain segment plus the sub-bands of a multi-level DWT (Section 2.1).
With the paper's 5-level transform on 128-sample-aligned segments the
domains are::

    seg0: time         (raw segment, native length)
    seg1: DWT D1       (64 samples)     seg4: DWT D4 (8 samples)
    seg2: DWT D2       (32 samples)     seg5: DWT A5 (4 samples)
    seg3: DWT D3       (16 samples)     seg6: DWT D5 (4 samples)

Within each domain the eight statistical features are laid out in the
canonical :data:`~repro.dsp.features.FEATURE_NAMES` order, so feature index
``f`` maps to domain ``f // 8`` and feature ``FEATURE_NAMES[f % 8]``.

Segments whose native length is not 128 are aligned for the DWT path
(truncated or zero-padded; Section 4.4 fixes the per-level lengths to
64/32/16/8/4 for *all* six cases, implying exactly this alignment), while
time-domain features always see the native segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.dsp.features import FEATURE_NAMES, compute_feature
from repro.dsp.wavelet import dwt_band_lengths, dwt_multilevel
from repro.errors import ConfigurationError


def align_segment(segment: Sequence[float], target_length: int) -> np.ndarray:
    """Align a segment to ``target_length``: truncate or zero-pad at the end."""
    arr = np.asarray(segment, dtype=np.float64)
    if arr.ndim != 1:
        raise ConfigurationError("segment must be one-dimensional")
    if target_length <= 0:
        raise ConfigurationError("target_length must be positive")
    if len(arr) >= target_length:
        return arr[:target_length].copy()
    out = np.zeros(target_length)
    out[: len(arr)] = arr
    return out


@dataclass(frozen=True)
class FeatureLayout:
    """Static description of the full feature vector for one segment shape.

    Attributes:
        segment_length: Native segment length (Table 1 value).
        dwt_aligned_length: Length the segment is aligned to before the DWT.
        dwt_levels: Number of DWT decomposition levels.
        feature_names: Per-domain statistical feature order.
    """

    segment_length: int
    dwt_aligned_length: int = 128
    dwt_levels: int = 5
    feature_names: Tuple[str, ...] = FEATURE_NAMES

    def __post_init__(self) -> None:
        if self.segment_length <= 0:
            raise ConfigurationError("segment_length must be positive")
        # Raises if the alignment/levels combination is invalid:
        dwt_band_lengths(self.dwt_aligned_length, self.dwt_levels)
        unknown = [n for n in self.feature_names if n not in FEATURE_NAMES]
        if unknown:
            raise ConfigurationError(f"unknown features: {unknown}")

    # -- structure ------------------------------------------------------------

    def domain_labels(self) -> List[str]:
        """Human-readable labels of the domains, in index order."""
        labels = ["time"]
        labels.extend(f"D{k}" for k in range(1, self.dwt_levels))
        labels.extend([f"A{self.dwt_levels}", f"D{self.dwt_levels}"])
        return labels

    def domain_lengths(self) -> List[int]:
        """Sample counts of every domain, in index order."""
        return [self.segment_length] + dwt_band_lengths(
            self.dwt_aligned_length, self.dwt_levels
        )

    @property
    def n_domains(self) -> int:
        """Number of domains (time + DWT sub-bands)."""
        return self.dwt_levels + 2

    @property
    def n_features(self) -> int:
        """Total feature-vector length."""
        return self.n_domains * len(self.feature_names)

    def feature_of(self, index: int) -> Tuple[int, str]:
        """Map a flat feature index to ``(domain_index, feature_name)``."""
        if not 0 <= index < self.n_features:
            raise ConfigurationError(
                f"feature index {index} out of range [0, {self.n_features})"
            )
        per_domain = len(self.feature_names)
        return index // per_domain, self.feature_names[index % per_domain]

    def feature_label(self, index: int) -> str:
        """Readable label of one flat feature index, e.g. ``"skew@D2"``."""
        domain, name = self.feature_of(index)
        return f"{name}@{self.domain_labels()[domain]}"

    def dwt_level_of_domain(self, domain: int) -> int:
        """Deepest DWT level required to produce a given domain (0 = none)."""
        if not 0 <= domain < self.n_domains:
            raise ConfigurationError(f"domain {domain} out of range")
        if domain == 0:
            return 0
        if domain < self.dwt_levels:
            return domain  # detail band of level `domain`
        return self.dwt_levels  # A_L or D_L

    # -- reference extraction ---------------------------------------------------

    def domain_segments(self, segment: Sequence[float]) -> List[np.ndarray]:
        """The actual per-domain sample arrays for one input segment."""
        arr = np.asarray(segment, dtype=np.float64)
        if len(arr) != self.segment_length:
            raise ConfigurationError(
                f"expected segment of length {self.segment_length}, got {len(arr)}"
            )
        aligned = align_segment(arr, self.dwt_aligned_length)
        bands = dwt_multilevel(aligned, self.dwt_levels)
        return [arr] + bands

    def extract(self, segment: Sequence[float]) -> np.ndarray:
        """Raw (unnormalised) full feature vector of one segment.

        This is the software reference the functional-cell topology must
        reproduce value-for-value.
        """
        parts = []
        for domain_arr in self.domain_segments(segment):
            parts.extend(compute_feature(n, domain_arr) for n in self.feature_names)
        return np.asarray(parts)

    def extract_matrix(self, segments: np.ndarray) -> np.ndarray:
        """Feature matrix for a (n_segments, segment_length) batch."""
        mat = np.asarray(segments, dtype=np.float64)
        if mat.ndim != 2:
            raise ConfigurationError("segments must be a 2-D batch")
        return np.stack([self.extract(row) for row in mat])
