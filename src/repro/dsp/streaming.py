"""Single-pass (streaming) statistical feature extraction.

The in-sensor feature cells are single-pass datapaths: they consume the
segment sample by sample, maintaining power sums
``S1 = sum d, S2 = sum d^2, S3 = sum d^3, S4 = sum d^4`` of the offsets
``d = x - x0`` from the segment's first sample ``x0`` (one latched register
and one subtractor) plus running max/min, and produce the statistical
features at segment end — the hardware structure behind the op counts in
:func:`repro.dsp.features.operation_counts`.  Summing offsets rather than
raw samples keeps the central moments from cancelling catastrophically when
the signal sits on a large baseline: raw sums lose ``m4`` to rounding on the
order of ``eps * mean^4``, which swamps the kurtosis of a near-flat segment.  This module provides that
accumulator as a software object, so streaming deployments (see
``examples/ecg_monitor.py``) can compute features without buffering a
whole segment, and so the tests can verify the single-pass formulation is
algebraically identical to the batch reference.

The zero-crossing feature (Czero) is deliberately absent: it counts
crossings of the *segment mean*, which requires a second pass over a
buffered segment — which is precisely why the hardware Czero cell carries
a buffer (Fig. 3) and the highest comparator count of the feature set.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable

import numpy as np

from repro.errors import ConfigurationError


def _vectorizable(samples: Iterable[float]) -> bool:
    """Whether ``samples`` qualifies for the ndarray extend fast paths."""
    return (
        isinstance(samples, np.ndarray)
        and samples.ndim == 1
        and samples.dtype.kind in "fiu"
    )

#: Features the single-pass accumulator produces, in canonical order.
STREAMING_FEATURES = ("max", "min", "mean", "var", "std", "skew", "kurt")


class StreamingMoments:
    """Single-pass accumulator of first-sample-offset power sums and extrema.

    >>> acc = StreamingMoments()
    >>> acc.extend([1.0, 2.0, 3.0])
    >>> acc.finalize()["mean"]
    2.0
    """

    def __init__(self) -> None:
        self._n = 0
        self._ref = 0.0  # first sample, latched by the first update
        self._s1 = 0.0
        self._s2 = 0.0
        self._s3 = 0.0
        self._s4 = 0.0
        self._max = -math.inf
        self._min = math.inf

    @property
    def count(self) -> int:
        """Samples consumed so far."""
        return self._n

    def update(self, sample: float) -> None:
        """Consume one sample (one clock of the hardware datapath).

        Rejects *any* non-finite sample: a NaN poisons every power sum, and
        a single ``inf`` saturates max/min and the power sums just as
        irrecoverably — a real ADC cannot produce either.
        """
        x = float(sample)
        if not math.isfinite(x):
            raise ConfigurationError(
                f"cannot accumulate non-finite sample {x!r}"
            )
        if self._n == 0:
            self._ref = x
        d = x - self._ref
        self._n += 1
        self._s1 += d
        d2 = d * d
        self._s2 += d2
        self._s3 += d2 * d
        self._s4 += d2 * d2
        if x > self._max:
            self._max = x
        if x < self._min:
            self._min = x

    def extend(self, samples: Iterable[float]) -> None:
        """Consume a burst of samples.

        A one-dimensional numeric ndarray takes a vectorized merge path
        whose result matches the per-sample loop bit-for-bit: ``cumsum``
        reproduces the loop's sequential accumulation order exactly, and
        the elementwise powers are the same products the loop forms.  Any
        other input — and any burst containing a non-finite sample, which
        must leave the partial state and raise exactly where the loop
        would — falls back to per-sample updates.
        """
        if _vectorizable(samples):
            x = samples.astype(np.float64, copy=False)
            if x.size == 0:
                return
            if np.isfinite(x).all():
                if self._n == 0:
                    self._ref = float(x[0])
                d = x - self._ref
                d2 = d * d
                self._s1 = float(np.cumsum(np.concatenate(([self._s1], d)))[-1])
                self._s2 = float(np.cumsum(np.concatenate(([self._s2], d2)))[-1])
                self._s3 = float(
                    np.cumsum(np.concatenate(([self._s3], d2 * d)))[-1]
                )
                self._s4 = float(
                    np.cumsum(np.concatenate(([self._s4], d2 * d2)))[-1]
                )
                self._n += x.size
                top = float(x.max())
                bot = float(x.min())
                if top > self._max:
                    self._max = top
                if bot < self._min:
                    self._min = bot
                return
        for sample in samples:
            self.update(sample)

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Combine two accumulators (parallel sub-segment datapaths).

        An empty side contributes nothing: its ``±inf`` extrema sentinels
        are never allowed to leak into the merged max/min.  Otherwise
        ``other``'s sums are re-centred onto this side's reference sample
        by binomial expansion of ``(d + delta)^p``.
        """
        out = StreamingMoments()
        if self._n == 0 or other._n == 0:
            src = other if self._n == 0 else self
            out._n = src._n
            out._ref = src._ref
            out._s1, out._s2, out._s3, out._s4 = (
                src._s1, src._s2, src._s3, src._s4,
            )
            out._max, out._min = src._max, src._min
            return out
        n = other._n
        delta = other._ref - self._ref
        b1, b2, b3, b4 = other._s1, other._s2, other._s3, other._s4
        out._n = self._n + n
        out._ref = self._ref
        out._s1 = self._s1 + (b1 + n * delta)
        out._s2 = self._s2 + (b2 + 2 * delta * b1 + n * delta**2)
        out._s3 = self._s3 + (
            b3 + 3 * delta * b2 + 3 * delta**2 * b1 + n * delta**3
        )
        out._s4 = self._s4 + (
            b4
            + 4 * delta * b3
            + 6 * delta**2 * b2
            + 4 * delta**3 * b1
            + n * delta**4
        )
        out._max = max(self._max, other._max)
        out._min = min(self._min, other._min)
        return out

    def finalize(self) -> Dict[str, float]:
        """Compute the features from the accumulated sums.

        Uses the population-moment conventions of
        :mod:`repro.dsp.features`: ``var = E[x^2] - E[x]^2``,
        ``skew = m3 / m2^1.5``, ``kurt = m4 / m2^2``.
        """
        if self._n == 0:
            # Refuse rather than leak the ±inf extrema sentinels (and a
            # division by zero) into downstream features.
            raise ConfigurationError("finalize() before any samples")
        n = self._n
        # Moments of the offsets d = x - x0; central moments are shift
        # invariant, so only the mean needs the reference added back.
        dm = self._s1 / n
        e2 = self._s2 / n
        e3 = self._s3 / n
        e4 = self._s4 / n
        mean = self._ref + dm
        var = e2 - dm * dm
        # Central moments from raw moments (binomial expansion).
        m3 = e3 - 3 * dm * e2 + 2 * dm**3
        m4 = e4 - 4 * dm * e3 + 6 * dm**2 * e2 - 3 * dm**4
        # Degeneracy guards: the power-sum formulation (what the hardware
        # datapath computes) cancels on (near-)constant inputs, leaving
        # O(n * eps * E[d^2]) garbage in `var`, so a variance below that
        # scale-aware noise floor is zero.  Skew and kurt divide by `var`;
        # like the batch reference they are 0 once var <= 1e-12.
        if var <= 1e-12 * n * e2:
            var = 0.0
        if var <= 1e-12:
            skew = 0.0
            kurt = 0.0
        else:
            skew = m3 / var**1.5
            kurt = m4 / var**2
        return {
            "max": self._max,
            "min": self._min,
            "mean": mean,
            "var": var,
            "std": math.sqrt(max(var, 0.0)),
            "skew": skew,
            "kurt": kurt,
        }


class CrossingCounter:
    """Streaming crossing counter about a *fixed* level.

    Matches :func:`repro.dsp.features.crossing_count` for a known level
    (e.g. a calibrated baseline); the mean-referenced Czero of the generic
    feature set needs the buffered two-pass cell instead.
    """

    def __init__(self, level: float = 0.0) -> None:
        self.level = float(level)
        self._last_sign = 0
        self._crossings = 0
        self._n = 0

    @property
    def crossings(self) -> int:
        """Crossings counted so far."""
        return self._crossings

    def update(self, sample: float) -> None:
        """Consume one sample."""
        x = float(sample) - self.level
        sign = 1 if x > 0 else (-1 if x < 0 else self._last_sign or 1)
        if self._n > 0 and sign != self._last_sign:
            self._crossings += 1
        self._last_sign = sign
        self._n += 1

    def extend(self, samples: Iterable[float]) -> None:
        """Consume a burst of samples.

        A one-dimensional numeric ndarray takes a vectorized path that
        matches the per-sample loop exactly: on-level (and NaN) samples
        inherit the preceding sign via an index forward-fill, leading
        ties inherit the pre-burst sign (or +1 at stream start), and
        sign changes are counted against the shifted sign sequence.
        """
        if _vectorizable(samples):
            x = samples.astype(np.float64, copy=False) - self.level
            n = x.size
            if n == 0:
                return
            # NaN compares False on both sides, so it lands in the
            # "inherit previous sign" bucket — same as the scalar update.
            raw = np.where(x > 0, 1, np.where(x < 0, -1, 0))
            nonzero_at = np.where(raw != 0, np.arange(n), -1)
            last_nonzero = np.maximum.accumulate(nonzero_at)
            seed = self._last_sign or 1
            signs = np.where(
                last_nonzero >= 0, raw[np.clip(last_nonzero, 0, None)], seed
            )
            changed = signs != np.concatenate(([self._last_sign], signs[:-1]))
            if self._n == 0:
                changed[0] = False
            self._crossings += int(np.count_nonzero(changed))
            self._last_sign = int(signs[-1])
            self._n += n
            return
        for sample in samples:
            self.update(sample)
