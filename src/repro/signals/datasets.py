"""The six biosignal test cases of Table 1, as synthetic datasets.

The paper evaluates six binary-classification cases (Section 4.1, Table 1):

======  ==================  ==============  ==============
Symbol  Source dataset      Segment length  Segment number
======  ==================  ==============  ==============
C1      ECGTwoLead (UCR)    82              1162
C2      ECGFivedays (UCR)   136             884
E1      EEGDifficult01      128             1000
E2      EEGDifficult02      128             1000
M1      EMGHandLat (UCI)    132             1200
M2      EMGHandTip (UCI)    132             1200
======  ==================  ==============  ==============

:func:`load_case` reproduces each case with the synthetic generators of
:mod:`repro.signals.waveforms` at exactly these dimensions, deterministically
from a per-case seed.  Segment counts can be scaled down uniformly (for fast
unit tests) without changing segment lengths — lengths are what the
energy/partitioning results depend on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.signals.waveforms import (
    ECGGenerator,
    EEGGenerator,
    EMGGenerator,
    SignalGenerator,
)


@dataclass(frozen=True)
class DatasetSpec:
    """Static attributes of one Table 1 test case.

    Attributes:
        symbol: Paper symbol (C1, C2, E1, E2, M1, M2).
        source_name: Name of the archive dataset the paper used.
        modality: ``"ecg" | "eeg" | "emg"``.
        segment_length: Samples per segment (Table 1).
        segment_number: Number of labelled segments (Table 1).
        seed: Deterministic per-case seed for the synthetic generator.
    """

    symbol: str
    source_name: str
    modality: str
    segment_length: int
    segment_number: int
    seed: int

    def make_generator(self) -> SignalGenerator:
        """Instantiate the synthetic generator matching this case.

        Per-case morphology parameters are tuned so classification accuracy
        lands in a realistic band (~0.75-0.95) rather than saturating:
        saturated cases train SVMs with almost no support vectors, which
        would make the in-sensor classifier unrealistically cheap (the paper
        notes SV counts track dataset separability, Section 5.5).
        """
        if self.modality == "ecg":
            st_shift, noise = (0.22, 0.08) if self.symbol == "C1" else (0.25, 0.07)
            return ECGGenerator(
                self.segment_length, st_shift=st_shift, noise_level=noise
            )
        if self.modality == "eeg":
            difficulty = 0.45 if self.symbol == "E1" else 0.55
            return EEGGenerator(self.segment_length, difficulty=difficulty)
        if self.modality == "emg":
            contrast = 0.5 if self.symbol == "M1" else 0.45
            return EMGGenerator(self.segment_length, burst_contrast=contrast)
        if self.modality == "acc":
            from repro.signals.waveforms import AccelerometerGenerator

            return AccelerometerGenerator(self.segment_length)
        raise ConfigurationError(f"unknown modality {self.modality!r}")


#: The six evaluation cases, keyed by paper symbol, matching Table 1 exactly.
TABLE1_CASES: Dict[str, DatasetSpec] = {
    "C1": DatasetSpec("C1", "ECGTwoLead", "ecg", 82, 1162, seed=0xC1),
    "C2": DatasetSpec("C2", "ECGFivedays", "ecg", 136, 884, seed=0xC2),
    "E1": DatasetSpec("E1", "EEGDifficult01", "eeg", 128, 1000, seed=0xE1),
    "E2": DatasetSpec("E2", "EEGDifficult02", "eeg", 128, 1000, seed=0xE2),
    "M1": DatasetSpec("M1", "EMGHandLat", "emg", 132, 1200, seed=0x31),
    "M2": DatasetSpec("M2", "EMGHandTip", "emg", 132, 1200, seed=0x32),
}

#: Case symbols in the paper's presentation order.
CASE_ORDER: Tuple[str, ...] = ("C1", "C2", "E1", "E2", "M1", "M2")


@dataclass
class BiosignalDataset:
    """A realised labelled dataset for one test case.

    Attributes:
        spec: The static Table 1 attributes.
        segments: Array of shape ``(segment_number, segment_length)``.
        labels: Binary label vector of length ``segment_number``.
    """

    spec: DatasetSpec
    segments: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.segments.ndim != 2:
            raise ConfigurationError("segments must be a 2-D array")
        if len(self.segments) != len(self.labels):
            raise ConfigurationError("segments/labels length mismatch")

    @property
    def n_segments(self) -> int:
        """Number of labelled segments."""
        return len(self.segments)

    @property
    def segment_length(self) -> int:
        """Samples per segment."""
        return self.segments.shape[1]

    def class_counts(self) -> Tuple[int, int]:
        """``(n_class0, n_class1)``."""
        n_pos = int(self.labels.sum())
        return len(self.labels) - n_pos, n_pos


def load_case(symbol: str, n_segments: int | None = None) -> BiosignalDataset:
    """Generate one of the six test cases deterministically.

    Args:
        symbol: Paper symbol, e.g. ``"C1"`` (case-insensitive).
        n_segments: Optionally override the segment count (for fast tests);
            the segment *length* always matches Table 1.

    Returns:
        A :class:`BiosignalDataset` with balanced binary labels.
    """
    key = symbol.upper()
    if key not in TABLE1_CASES:
        raise ConfigurationError(
            f"unknown case {symbol!r}; available: {sorted(TABLE1_CASES)}"
        )
    spec = TABLE1_CASES[key]
    count = spec.segment_number if n_segments is None else int(n_segments)
    if count <= 0:
        raise ConfigurationError("n_segments must be positive")
    rng = np.random.default_rng(spec.seed)
    generator = spec.make_generator()
    segments, labels = generator.generate_batch(rng, count)
    return BiosignalDataset(spec=spec, segments=segments, labels=labels)


def load_fall_detection(
    n_segments: int = 400,
    segment_length: int = 128,
    seed: int = 0xFA11,
) -> BiosignalDataset:
    """Wrist-accelerometer fall-detection dataset (walking vs fall).

    The paper's architecture generalises beyond biopotentials ("other
    wearable computing systems alike", §1); this case exercises the same
    pipeline on an IMU workload at a 50 Hz event rate.
    """
    from repro.signals.waveforms import AccelerometerGenerator

    if n_segments <= 0:
        raise ConfigurationError("n_segments must be positive")
    spec = DatasetSpec(
        symbol="A1",
        source_name="WristFallDetect",
        modality="acc",
        segment_length=segment_length,
        segment_number=n_segments,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    generator = AccelerometerGenerator(segment_length)
    segments, labels = generator.generate_batch(rng, n_segments)
    return BiosignalDataset(spec=spec, segments=segments, labels=labels)


def load_multiclass_emg(
    n_classes: int = 4,
    n_segments: int = 400,
    segment_length: int = 132,
    seed: int = 0x3C,
) -> BiosignalDataset:
    """Multi-class EMG hand-movement dataset (for the §5.7 extension).

    Six movement archetypes stand in for the full UCI hand-movement
    dataset; labels run 0..n_classes-1 and are balanced.

    Args:
        n_classes: Movement classes (2-6).
        n_segments: Total labelled segments.
        segment_length: Samples per segment (Table 1 EMG default: 132).
        seed: Deterministic generator seed.
    """
    from repro.signals.waveforms import MultiClassEMGGenerator

    if n_segments <= 0:
        raise ConfigurationError("n_segments must be positive")
    spec = DatasetSpec(
        symbol=f"M{n_classes}c",
        source_name="EMGHandMulti",
        modality="emg",
        segment_length=segment_length,
        segment_number=n_segments,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    generator = MultiClassEMGGenerator(segment_length, n_classes=n_classes)
    segments, labels = generator.generate_batch(rng, n_segments)
    return BiosignalDataset(spec=spec, segments=segments, labels=labels)


def table1() -> List[Dict[str, object]]:
    """Table 1 of the paper as a list of row dictionaries.

    Each row has keys ``symbol``, ``dataset``, ``segment_length`` and
    ``segment_number`` — the exact attribute table the paper prints.
    """
    return [
        {
            "symbol": spec.symbol,
            "dataset": spec.source_name,
            "segment_length": spec.segment_length,
            "segment_number": spec.segment_number,
        }
        for spec in (TABLE1_CASES[sym] for sym in CASE_ORDER)
    ]
