"""Training/validation protocol helpers.

Section 4.4 fixes the protocol: 75% / 25% random train/test split, 10-fold
cross-validation on the training set, the split repeated 50 times with the
best classifier kept.  These helpers implement the index bookkeeping from
scratch (no scikit-learn offline), deterministically from explicit rngs;
the repeated-selection loop itself is
:func:`repro.core.pipeline.train_analytic_engine`.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import ConfigurationError


def stratified_train_test_split(
    labels: np.ndarray,
    rng: np.random.Generator,
    test_fraction: float = 0.25,
) -> Tuple[np.ndarray, np.ndarray]:
    """Class-stratified split so both partitions keep both classes.

    The paper's random split occasionally produces one-class folds on small
    subsamples; stratification removes that failure mode without changing
    expected proportions, which matters when tests run on reduced datasets.

    Args:
        labels: Class label per sample.
        rng: Random generator (owns the shuffles).
        test_fraction: Fraction of each class reserved for testing, in
            ``(0, 1)`` (paper: 0.25).

    Returns:
        ``(train_idx, test_idx)`` integer index arrays.
    """
    y = np.asarray(labels)
    if len(y) < 2:
        raise ConfigurationError("need at least 2 samples to split")
    if not 0.0 < test_fraction < 1.0:
        raise ConfigurationError("test_fraction must be in (0, 1)")
    train_parts: List[np.ndarray] = []
    test_parts: List[np.ndarray] = []
    for value in np.unique(y):
        idx = np.flatnonzero(y == value)
        rng.shuffle(idx)
        n_test = max(1, int(round(len(idx) * test_fraction)))
        if n_test >= len(idx):
            n_test = len(idx) - 1
        test_parts.append(idx[:n_test])
        train_parts.append(idx[n_test:])
    train = np.concatenate(train_parts)
    test = np.concatenate(test_parts)
    rng.shuffle(train)
    rng.shuffle(test)
    return train, test


def kfold_indices(
    n_samples: int, n_folds: int, rng: np.random.Generator
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield (train_idx, val_idx) pairs for k-fold cross-validation.

    Folds are as equal as possible; every sample appears in exactly one
    validation fold.

    Args:
        n_samples: Total sample count.
        n_folds: Number of folds (paper: 10).
        rng: Random generator for the initial shuffle.
    """
    if n_folds < 2:
        raise ConfigurationError("n_folds must be >= 2")
    if n_samples < n_folds:
        raise ConfigurationError(
            f"cannot make {n_folds} folds from {n_samples} samples"
        )
    order = rng.permutation(n_samples)
    fold_sizes = np.full(n_folds, n_samples // n_folds)
    fold_sizes[: n_samples % n_folds] += 1
    start = 0
    for size in fold_sizes:
        val = order[start : start + size]
        train = np.concatenate([order[:start], order[start + size :]])
        yield train, val
        start += size
