"""Baseline ensemble methods: bagging and AdaBoost over SVM bases.

Section 2.1 argues the random-subspace method suits the *generic*
classification better than *"other popular ensemble methods, such as
bagging and Adaboost"*: because each subspace member reads only a few
features, the union of features that must exist as functional cells stays
small, whereas bagging/boosting members each consume the **entire**
feature set — every feature cell must be instantiated, and an in-sensor
classifier placement must receive every feature.

These from-scratch implementations exist to make that comparison
measurable (see ``benchmarks/test_bench_ensemble_ablation.py``): both
expose the same ``fit`` / ``predict`` / ``used_feature_indices`` interface
as :class:`~repro.ml.subspace.RandomSubspaceClassifier`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, TrainingError
from repro.ml.kernels import RBFKernel
from repro.ml.svm import SVMClassifier


@dataclass
class _Member:
    classifier: SVMClassifier
    weight: float


class _SVMEnsembleBase:
    """Shared machinery of the full-feature ensemble baselines."""

    def __init__(
        self,
        n_features: int,
        n_members: int,
        kernel_factory: Optional[Callable] = None,
        C: float = 1.0,
        seed: int = 42,
    ) -> None:
        if n_features <= 0:
            raise ConfigurationError("n_features must be positive")
        if n_members < 1:
            raise ConfigurationError("n_members must be >= 1")
        self.n_features = int(n_features)
        self.n_members = int(n_members)
        self.kernel_factory = kernel_factory or (lambda: RBFKernel(gamma=0.5))
        self.C = float(C)
        self.seed = int(seed)
        self.members: List[_Member] = []

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return bool(self.members)

    def _check_training_input(self, X: np.ndarray, y: np.ndarray) -> None:
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ConfigurationError(
                f"features must be (n, {self.n_features}), got {X.shape}"
            )
        if len(X) != len(y):
            raise ConfigurationError("features/labels length mismatch")
        if len(np.unique(y)) < 2:
            raise TrainingError("training data contains a single class")

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Weight-averaged member scores."""
        self._require_fitted()
        X = np.atleast_2d(np.asarray(features, dtype=np.float64))
        total_weight = sum(m.weight for m in self.members)
        combined = np.zeros(len(X))
        for member in self.members:
            scores = np.sign(
                np.atleast_1d(member.classifier.decision_function(X))
            )
            combined += member.weight * scores
        out = combined / total_weight
        return out if np.asarray(features).ndim == 2 else out[0]

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Binary {0,1} predictions from the combined vote."""
        scores = np.atleast_1d(self.decision_function(features))
        out = (scores > 0).astype(int)
        return out if np.asarray(features).ndim == 2 else int(out[0])

    def used_feature_indices(self) -> Tuple[int, ...]:
        """Every member reads the full feature vector — all indices."""
        self._require_fitted()
        return tuple(range(self.n_features))

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise ConfigurationError("ensemble used before fit()")


class BaggingSVMClassifier(_SVMEnsembleBase):
    """Bootstrap-aggregated SVMs over the full feature set.

    Each member trains on a bootstrap resample of the training rows; votes
    are uniform (classic bagging).
    """

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "BaggingSVMClassifier":
        """Train ``n_members`` SVMs on bootstrap resamples of the rows."""
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels)
        self._check_training_input(X, y)
        rng = np.random.default_rng(self.seed)
        self.members = []
        attempts = 0
        while len(self.members) < self.n_members:
            attempts += 1
            if attempts > 10 * self.n_members:
                raise TrainingError("could not draw two-class bootstrap samples")
            idx = rng.integers(0, len(X), size=len(X))
            if len(np.unique(y[idx])) < 2:
                continue
            svm = SVMClassifier(
                kernel=self.kernel_factory(), C=self.C, seed=self.seed + attempts
            )
            svm.fit(X[idx], y[idx])
            self.members.append(_Member(svm, weight=1.0))
        return self


class AdaBoostSVMClassifier(_SVMEnsembleBase):
    """AdaBoost (weight-resampling variant) over SVM bases.

    Sample weights are realised by weighted bootstrap resampling (the
    standard approach for base learners without native sample weights).
    Member votes carry the usual ``log((1 - err) / err)`` confidence.
    Boosting stops early if a member is perfect or no better than chance.
    """

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "AdaBoostSVMClassifier":
        """Boost up to ``n_members`` rounds with weighted-bootstrap SVMs."""
        X = np.asarray(features, dtype=np.float64)
        y01 = np.asarray(labels)
        self._check_training_input(X, y01)
        y = np.where(y01 == 1, 1.0, -1.0)
        rng = np.random.default_rng(self.seed)
        weights = np.full(len(X), 1.0 / len(X))
        self.members = []
        for round_index in range(self.n_members):
            idx = rng.choice(len(X), size=len(X), replace=True, p=weights)
            if len(np.unique(y01[idx])) < 2:
                continue
            svm = SVMClassifier(
                kernel=self.kernel_factory(), C=self.C, seed=self.seed + round_index
            )
            svm.fit(X[idx], y01[idx])
            pred = np.sign(svm.training_scores(X))
            pred[pred == 0] = 1.0
            err = float(weights[pred != y].sum())
            if err <= 1e-12:
                # Perfect member dominates; keep it and stop boosting.
                self.members.append(_Member(svm, weight=10.0))
                break
            if err >= 0.5:
                if not self.members:
                    # Keep a chance-level member rather than fail outright.
                    self.members.append(_Member(svm, weight=1e-3))
                break
            alpha = 0.5 * np.log((1.0 - err) / err)
            self.members.append(_Member(svm, weight=float(alpha)))
            weights = weights * np.exp(-alpha * y * pred)
            weights = np.clip(weights, 1e-12, None)
            weights /= weights.sum()
        if not self.members:
            raise TrainingError("boosting produced no usable member")
        return self
