"""Tests for the ML substrate: kernels, SVM, fusion, validation, metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import TrainingConfig
from repro.errors import ConfigurationError, TrainingError
from repro.ml.fusion import WeightedVotingFusion
from repro.ml.kernels import LinearKernel, RBFKernel
from repro.ml.metrics import accuracy, confusion_matrix, sensitivity
from repro.ml.svm import SVMClassifier
from repro.ml.validation import kfold_indices, stratified_train_test_split


def _blobs(rng, n=60, gap=3.0, dim=2):
    """Two well-separated Gaussian blobs with labels {0, 1}."""
    X0 = rng.normal(0.0, 0.6, size=(n // 2, dim))
    X1 = rng.normal(gap, 0.6, size=(n - n // 2, dim))
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n - n // 2))
    order = rng.permutation(n)
    return X[order], y[order]


class TestKernels:
    def test_linear_matches_dot(self, rng):
        X = rng.normal(size=(5, 3))
        Z = rng.normal(size=(4, 3))
        assert np.allclose(LinearKernel()(X, Z), X @ Z.T)

    def test_linear_scalar_form(self):
        assert LinearKernel()(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_rbf_diagonal_is_one(self, rng):
        X = rng.normal(size=(6, 4))
        gram = RBFKernel(gamma=0.7)(X, X)
        assert np.allclose(np.diag(gram), 1.0)

    def test_rbf_range_and_symmetry(self, rng):
        X = rng.normal(size=(6, 4))
        gram = RBFKernel()(X, X)
        assert (gram > 0).all() and (gram <= 1 + 1e-12).all()
        assert np.allclose(gram, gram.T)

    def test_rbf_decreases_with_distance(self):
        k = RBFKernel(gamma=1.0)
        near = k(np.array([0.0]), np.array([0.1]))
        far = k(np.array([0.0]), np.array([2.0]))
        assert near > far

    def test_rbf_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            RBFKernel()(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_invalid_gamma(self):
        with pytest.raises(ConfigurationError):
            RBFKernel(gamma=0.0)

    def test_operation_counts(self):
        lin = LinearKernel().operation_counts(12)
        assert lin == {"mul": 12, "add": 11}
        rbf = RBFKernel().operation_counts(12)
        assert rbf["super"] == 1 and rbf["sub"] == 12
        with pytest.raises(ConfigurationError):
            LinearKernel().operation_counts(0)


class TestSVM:
    def test_separable_blobs_learned(self, rng):
        X, y = _blobs(rng)
        svm = SVMClassifier(kernel=RBFKernel(gamma=0.5), C=1.0).fit(X, y)
        assert accuracy(y, svm.predict(X)) >= 0.95

    def test_linear_kernel_works(self, rng):
        X, y = _blobs(rng)
        svm = SVMClassifier(kernel=LinearKernel(), C=1.0).fit(X, y)
        assert accuracy(y, svm.predict(X)) >= 0.9

    def test_decision_function_sign_matches_predict(self, rng):
        X, y = _blobs(rng)
        svm = SVMClassifier().fit(X, y)
        scores = svm.decision_function(X)
        assert np.array_equal((scores > 0).astype(int), svm.predict(X))

    def test_decision_function_shapes(self, rng):
        """1-D query -> scalar score / int prediction; 2-D -> 1-D arrays."""
        X, y = _blobs(rng)
        svm = SVMClassifier().fit(X, y)
        single = svm.decision_function(X[0])
        batch = svm.decision_function(X[:3])
        assert np.ndim(single) == 0
        assert batch.shape == (3,)
        assert float(single) == pytest.approx(float(batch[0]), rel=1e-12)
        assert isinstance(svm.predict(X[0]), int)
        assert svm.predict(X[:3]).shape == (3,)

    def test_single_class_rejected(self, rng):
        X = rng.normal(size=(10, 2))
        with pytest.raises(TrainingError):
            SVMClassifier().fit(X, np.zeros(10, dtype=int))

    def test_nonbinary_labels_rejected(self, rng):
        X = rng.normal(size=(4, 2))
        with pytest.raises(ConfigurationError):
            SVMClassifier().fit(X, np.array([0, 1, 2, 1]))

    def test_use_before_fit(self):
        with pytest.raises(ConfigurationError):
            SVMClassifier().predict(np.zeros((1, 2)))

    def test_dimension_checked_at_inference(self, rng):
        X, y = _blobs(rng)
        svm = SVMClassifier().fit(X, y)
        with pytest.raises(ConfigurationError):
            svm.decision_function(np.zeros((1, 5)))

    def test_support_vectors_subset_of_training(self, rng):
        X, y = _blobs(rng)
        svm = SVMClassifier().fit(X, y)
        assert 1 <= svm.n_support_vectors <= len(X)

    def test_operation_counts_scale_with_svs(self, rng):
        X, y = _blobs(rng, gap=0.8)  # overlapping -> many SVs
        svm = SVMClassifier().fit(X, y)
        counts = svm.operation_counts()
        assert counts["super"] == svm.n_support_vectors
        assert counts["mul"] > svm.n_support_vectors

    def test_invalid_hyperparameters(self):
        with pytest.raises(ConfigurationError):
            SVMClassifier(C=0.0)
        with pytest.raises(ConfigurationError):
            SVMClassifier(tol=0.0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_training_robust_to_seed(self, seed):
        rng = np.random.default_rng(seed)
        X, y = _blobs(rng, n=24)
        svm = SVMClassifier(seed=seed).fit(X, y)
        assert accuracy(y, svm.predict(X)) >= 0.75


class TestFusion:
    def test_recovers_linear_combination(self, rng):
        S = rng.normal(size=(200, 3))
        w = np.array([0.5, -1.0, 2.0])
        y = ((S @ w + 0.3) > 0).astype(int)
        fusion = WeightedVotingFusion().fit(S, y)
        assert accuracy(y, fusion.predict(S)) >= 0.97

    def test_weights_shape(self, rng):
        S = rng.normal(size=(50, 4))
        y = (S[:, 0] > 0).astype(int)
        fusion = WeightedVotingFusion().fit(S, y)
        assert fusion.weights.shape == (4,)
        assert isinstance(fusion.intercept, float)

    def test_collinear_scores_handled(self, rng):
        col = rng.normal(size=(40, 1))
        S = np.hstack([col, col])  # perfectly collinear
        y = (col[:, 0] > 0).astype(int)
        fusion = WeightedVotingFusion().fit(S, y)
        assert np.isfinite(fusion.weights).all()

    def test_dimension_checked(self, rng):
        S = rng.normal(size=(20, 2))
        y = (S[:, 0] > 0).astype(int)
        fusion = WeightedVotingFusion().fit(S, y)
        with pytest.raises(ConfigurationError):
            fusion.fuse(np.zeros((2, 5)))

    def test_use_before_fit(self):
        with pytest.raises(ConfigurationError):
            WeightedVotingFusion().fuse(np.zeros((1, 2)))

    def test_operation_counts(self, rng):
        S = rng.normal(size=(20, 3))
        y = (S[:, 0] > 0).astype(int)
        fusion = WeightedVotingFusion().fit(S, y)
        assert fusion.operation_counts() == {"mul": 3, "add": 3, "cmp": 1}

    def test_negative_ridge_rejected(self):
        with pytest.raises(ConfigurationError):
            WeightedVotingFusion(ridge=-1.0)


class TestValidation:
    def test_split_proportions(self, rng):
        y = np.array([0] * 60 + [1] * 40)
        train, test = stratified_train_test_split(y, rng, test_fraction=0.25)
        assert len(train) == 75 and len(test) == 25
        assert set(train) | set(test) == set(range(100))
        assert not set(train) & set(test)

    def test_stratified_split_keeps_both_classes(self, rng):
        y = np.array([0] * 45 + [1] * 5)
        train, test = stratified_train_test_split(y, rng, test_fraction=0.25)
        assert set(y[train]) == {0, 1}
        assert set(y[test]) == {0, 1}

    def test_kfold_covers_everything_once(self, rng):
        seen = []
        for train, val in kfold_indices(23, 5, rng):
            assert not set(train) & set(val)
            assert len(train) + len(val) == 23
            seen.extend(val.tolist())
        assert sorted(seen) == list(range(23))

    def test_invalid_arguments(self, rng):
        y = np.array([0] * 10 + [1] * 10)
        with pytest.raises(ConfigurationError):
            stratified_train_test_split(y[:1], rng)
        for fraction in (1.5, 1.0, 0.0, -0.3):
            with pytest.raises(ConfigurationError):
                stratified_train_test_split(y, rng, test_fraction=fraction)
            with pytest.raises(ConfigurationError):
                TrainingConfig(test_fraction=fraction)
        with pytest.raises(ConfigurationError):
            list(kfold_indices(3, 5, rng))
        with pytest.raises(ConfigurationError):
            list(kfold_indices(10, 1, rng))

    @given(st.integers(5, 200), st.integers(2, 10))
    @settings(max_examples=50)
    def test_kfold_partition_property(self, n, k):
        if n < k:
            return
        rng = np.random.default_rng(0)
        folds = list(kfold_indices(n, k, rng))
        assert len(folds) == k
        all_val = np.concatenate([v for _, v in folds])
        assert sorted(all_val.tolist()) == list(range(n))


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([0, 1, 1]), np.array([0, 1, 0])) == pytest.approx(2 / 3)

    def test_confusion_matrix(self):
        cm = confusion_matrix(np.array([1, 1, 0, 0]), np.array([1, 0, 0, 1]))
        assert cm == {"tp": 1, "tn": 1, "fp": 1, "fn": 1}

    def test_sensitivity(self):
        y = np.array([1, 1, 0, 0])
        p = np.array([1, 0, 0, 0])
        assert sensitivity(y, p) == 0.5

    def test_degenerate_classes(self):
        assert sensitivity(np.array([0, 0]), np.array([0, 0])) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            accuracy(np.zeros(3), np.zeros(4))
