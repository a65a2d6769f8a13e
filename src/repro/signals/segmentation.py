"""Windowing utilities for streaming biosignal analysis.

A deployed wearable does not receive pre-cut segments: the ADC produces a
continuous sample stream and the analytic engine processes it in fixed-size
windows (one "event" per window in the paper's energy accounting).  This
helper cuts streams into the segment shapes the classification pipeline
expects.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

import numpy as np

from repro.errors import ConfigurationError


def segment_stream(
    chunks: Iterable[Sequence[float]], window: int
) -> Iterator[np.ndarray]:
    """Re-segment an iterable of arbitrary-size chunks into fixed windows.

    This is the software model of the sensor's acquisition buffer: samples
    arrive in whatever burst sizes the ADC DMA produces, and complete
    windows are emitted as soon as they fill.

    Args:
        chunks: Iterable of 1-D sample chunks (any lengths, in order).
        window: Window length in samples.

    Yields:
        1-D arrays of exactly ``window`` samples.
    """
    if window <= 0:
        raise ConfigurationError("window must be positive")
    buffer: List[float] = []
    for chunk in chunks:
        arr = np.asarray(chunk, dtype=np.float64)
        if arr.ndim != 1:
            raise ConfigurationError("chunks must be one-dimensional")
        buffer.extend(arr.tolist())
        while len(buffer) >= window:
            yield np.asarray(buffer[:window])
            del buffer[:window]
