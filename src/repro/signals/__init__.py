"""Biosignal substrate: synthetic ECG / EEG / EMG workload generation.

The paper evaluates on six test cases drawn from the UCR time-series
archive, a neural-spike dataset and the UCI repository (Table 1).  Those
archives are not redistributable here, so this package synthesises
morphology-faithful replacements with the exact segment lengths and counts
of Table 1 (see DESIGN.md, substitution #1):

- :mod:`repro.signals.waveforms` -- parametric ECG (PQRST sum-of-Gaussians),
  EEG (coloured background + rhythms + epileptiform spikes) and EMG
  (amplitude-modulated burst) generators.
- :mod:`repro.signals.noise` -- reproducible noise sources (white, pink,
  baseline wander, powerline hum).
- :mod:`repro.signals.datasets` -- the six labelled test cases C1, C2, E1,
  E2, M1, M2 and the Table 1 attribute table.
- :mod:`repro.signals.segmentation` -- stream re-segmentation into
  fixed windows.
"""

from repro.signals.datasets import (
    TABLE1_CASES,
    load_fall_detection,
    load_multiclass_emg,
    BiosignalDataset,
    DatasetSpec,
    load_case,
    table1,
)
from repro.signals.io import load_npz, load_ucr_file, save_npz
from repro.signals.quality import QualityGate, QualityReport, SignalQualityIndex
from repro.signals.segmentation import segment_stream
from repro.signals.waveforms import (
    AccelerometerGenerator,
    ECGGenerator,
    MultiClassEMGGenerator,
    EEGGenerator,
    EMGGenerator,
    SignalGenerator,
)

__all__ = [
    "QualityGate",
    "QualityReport",
    "SignalQualityIndex",
    "TABLE1_CASES",
    "BiosignalDataset",
    "DatasetSpec",
    "AccelerometerGenerator",
    "ECGGenerator",
    "EEGGenerator",
    "EMGGenerator",
    "MultiClassEMGGenerator",
    "SignalGenerator",
    "load_case",
    "load_fall_detection",
    "load_multiclass_emg",
    "load_npz",
    "load_ucr_file",
    "save_npz",
    "segment_stream",
    "table1",
]
