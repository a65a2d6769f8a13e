"""Classification quality metrics."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import ConfigurationError


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of matching labels."""
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    if t.shape != p.shape:
        raise ConfigurationError("y_true/y_pred shape mismatch")
    if t.size == 0:
        raise ConfigurationError("cannot compute accuracy of empty arrays")
    return float(np.mean(t == p))


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray) -> Dict[str, int]:
    """Binary confusion counts with keys tp/tn/fp/fn (positive class = 1)."""
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    if t.shape != p.shape:
        raise ConfigurationError("y_true/y_pred shape mismatch")
    return {
        "tp": int(np.sum((t == 1) & (p == 1))),
        "tn": int(np.sum((t == 0) & (p == 0))),
        "fp": int(np.sum((t == 0) & (p == 1))),
        "fn": int(np.sum((t == 1) & (p == 0))),
    }


def sensitivity(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """True-positive rate (recall); 0.0 when there are no positives."""
    cm = confusion_matrix(y_true, y_pred)
    denom = cm["tp"] + cm["fn"]
    return cm["tp"] / denom if denom else 0.0

