"""Digital signal processing substrate for the XPro generic classification.

This package provides everything the generic classification framework
computes on a signal segment before it reaches the classifier:

- :mod:`repro.dsp.fixedpoint` -- the Q16.16 32-bit fixed-point number system
  used by the in-sensor functional cells (Section 4.4 of the paper).
- :mod:`repro.dsp.wavelet` -- multi-level Haar discrete wavelet transform.
- :mod:`repro.dsp.features` -- the eight hardware-friendly statistical
  features (Max, Min, Mean, Var, Std, Czero, Skew, Kurt).
- :mod:`repro.dsp.normalize` -- the [0, 1] feature normalisation applied
  before classification.
"""

from repro.dsp.features import (
    FEATURE_NAMES,
    crossing_count,
    feature_vector,
    kurtosis,
    maximum,
    mean,
    minimum,
    multiband_feature_matrix,
    skewness,
    standard_deviation,
    variance,
)
from repro.dsp.fixedpoint import FixedPoint, FixedPointFormat, Q16_16
from repro.dsp.normalize import MinMaxNormalizer
from repro.dsp.streaming import CrossingCounter, StreamingMoments
from repro.dsp.wavelet import dwt_multilevel, dwt_single_level

__all__ = [
    "CrossingCounter",
    "FEATURE_NAMES",
    "StreamingMoments",
    "FixedPoint",
    "FixedPointFormat",
    "MinMaxNormalizer",
    "Q16_16",
    "crossing_count",
    "dwt_multilevel",
    "dwt_single_level",
    "feature_vector",
    "kurtosis",
    "maximum",
    "mean",
    "minimum",
    "multiband_feature_matrix",
    "skewness",
    "standard_deviation",
    "variance",
]
