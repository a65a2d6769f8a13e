"""Property and identity tests for the training fast path.

The fast training engine (fold-sliced shared Grams + the cached-error
screened SMO) promises *bitwise* identity to the pinned reference
protocol.  These tests pin that contract at every layer: single-SVM
fast-vs-reference identity, Gram slice stability, fast-vs-reference
ensemble identity on all six Table-1 cases, per-draw seed derivation, the
repeat-and-keep-best loop and the degenerate edges of the fast path.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import TrainingConfig, train_analytic_engine
from repro.errors import ConfigurationError, TrainingError
from repro.ml.kernels import LinearKernel, RBFKernel
from repro.ml.subspace import RandomSubspaceClassifier
from repro.ml.svm import SVMClassifier
from repro.signals.datasets import CASE_ORDER, load_case


def _fitted_state(svm: SVMClassifier):
    return (
        svm._support_vectors,
        svm._dual_coef,
        svm._bias,
        svm._support_index,
    )


def _svms_identical(a: SVMClassifier, b: SVMClassifier) -> bool:
    sa, sb = _fitted_state(a), _fitted_state(b)
    return (
        np.array_equal(sa[0], sb[0])
        and np.array_equal(sa[1], sb[1])
        and sa[2] == sb[2]
        and np.array_equal(sa[3], sb[3])
    )


def _ensembles_identical(a, b) -> bool:
    if [m.feature_indices for m in a.members] != [
        m.feature_indices for m in b.members
    ]:
        return False
    return all(
        _svms_identical(ma.classifier, mb.classifier)
        and ma.validation_accuracy == mb.validation_accuracy
        for ma, mb in zip(a.members, b.members)
    ) and a.used_feature_indices() == b.used_feature_indices()


def _separable_data(rng: np.random.Generator, n: int, d: int):
    y = rng.integers(0, 2, size=n)
    if len(np.unique(y)) < 2:
        y[0] = 1 - y[0]
    X = rng.normal(size=(n, d))
    X[:, : max(1, d // 3)] += 1.5 * y[:, None]
    return X, y


class TestFastSMOIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        data_seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 80),
        d=st.integers(2, 12),
        c_val=st.floats(0.1, 5.0),
        rbf=st.booleans(),
    )
    def test_fast_matches_reference(self, data_seed, n, d, c_val, rbf):
        """fit() is bitwise identical to fit_reference() on random data."""
        rng = np.random.default_rng(data_seed)
        X, y = _separable_data(rng, n, d)
        kernel = RBFKernel(gamma=0.7) if rbf else LinearKernel()
        seed = int(rng.integers(0, 10_000))
        ref = SVMClassifier(kernel=kernel, C=c_val, seed=seed).fit_reference(X, y)
        fast = SVMClassifier(kernel=kernel, C=c_val, seed=seed).fit(X, y)
        assert _svms_identical(ref, fast)

    @settings(max_examples=15, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1))
    def test_injected_gram_matches_internal(self, data_seed):
        """fit(gram=...) with the kernel's own Gram changes nothing."""
        rng = np.random.default_rng(data_seed)
        X, y = _separable_data(rng, 40, 6)
        kernel = RBFKernel(gamma=0.5)
        plain = SVMClassifier(kernel=kernel, C=1.0, seed=3).fit(X, y)
        injected = SVMClassifier(kernel=kernel, C=1.0, seed=3).fit(
            X, y, gram=kernel(X, X)
        )
        assert _svms_identical(plain, injected)

    def test_injected_gram_shape_validated(self):
        rng = np.random.default_rng(0)
        X, y = _separable_data(rng, 20, 4)
        with pytest.raises(ConfigurationError):
            SVMClassifier().fit(X, y, gram=np.eye(19))

    def test_single_class_raises_on_fast_path(self):
        X = np.random.default_rng(1).normal(size=(10, 3))
        with pytest.raises(TrainingError):
            SVMClassifier().fit(X, np.zeros(10, dtype=int))

    def test_no_support_vector_degenerate_edge(self):
        """Identical rows with mixed labels: no usable update exists, so
        both paths fall back to the bias-only constant classifier."""
        X = np.zeros((6, 3))
        y = np.array([0, 1, 0, 1, 0, 1])
        ref = SVMClassifier(seed=9).fit_reference(X, y)
        fast = SVMClassifier(seed=9).fit(X, y)
        assert _svms_identical(ref, fast)
        assert fast.n_support_vectors == 1
        assert fast.predict(np.zeros((2, 3))) is not None

    def test_decision_function_shapes(self):
        """Scalar for a 1-D query, 1-D array for a 2-D query batch."""
        rng = np.random.default_rng(4)
        X, y = _separable_data(rng, 30, 5)
        svm = SVMClassifier().fit(X, y)
        single = svm.decision_function(X[0])
        batch = svm.decision_function(X[:7])
        assert np.ndim(single) == 0
        assert batch.shape == (7,)
        assert float(single) == float(batch[0])
        assert isinstance(svm.predict(X[0]), int)
        assert svm.predict(X[:7]).shape == (7,)


class TestGramSliceStability:
    @settings(max_examples=20, deadline=None)
    @given(
        data_seed=st.integers(0, 2**32 - 1),
        rbf=st.booleans(),
    )
    def test_slice_of_full_equals_fresh(self, data_seed, rbf):
        """kernel(X, X)[ix_(f, f)] == kernel(X[f], X[f]) bitwise."""
        rng = np.random.default_rng(data_seed)
        X = rng.normal(size=(24, 10))
        kernel = RBFKernel(gamma=1.1) if rbf else LinearKernel()
        full = kernel(X, X)
        rows = rng.permutation(24)[:13]
        assert np.array_equal(
            full[np.ix_(rows, rows)], kernel(X[rows], X[rows])
        )

    @settings(max_examples=20, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1))
    def test_subspace_gram_matches_direct(self, data_seed):
        """subspace_gram (with and without precompute) == kernel on the
        column slice, despite the F-order layout of ``X[:, subset]``."""
        rng = np.random.default_rng(data_seed)
        X = rng.normal(size=(20, 14))
        sub = np.sort(rng.permutation(14)[:5])
        kernel = RBFKernel(gamma=0.5)
        direct = kernel(X[:, sub], X[:, sub])
        assert np.array_equal(kernel.subspace_gram(X, sub), direct)
        pre = kernel.gram_precompute(X)
        assert np.array_equal(kernel.subspace_gram(X, sub, pre), direct)

    def test_layout_independence(self):
        """F-ordered and C-ordered copies of the same rows give the same bits."""
        rng = np.random.default_rng(7)
        X = rng.normal(size=(16, 9))
        kernel = RBFKernel(gamma=0.9)
        c_order = np.ascontiguousarray(X)
        f_order = np.asfortranarray(X)
        assert np.array_equal(kernel(c_order, c_order), kernel(f_order, f_order))


@pytest.fixture(scope="module")
def case_features():
    """Small normalised feature matrices for all six Table-1 cases."""
    from repro.core.layout import FeatureLayout
    from repro.dsp.batch import batch_extract_matrix
    from repro.dsp.normalize import MinMaxNormalizer

    out = {}
    for symbol in CASE_ORDER:
        ds = load_case(symbol, n_segments=64)
        layout = FeatureLayout(segment_length=ds.segment_length)
        F = batch_extract_matrix(ds.segments, layout)
        out[symbol] = (
            MinMaxNormalizer().fit(F).transform(F),
            np.asarray(ds.labels),
        )
    return out


class TestEnsembleIdentity:
    @pytest.mark.parametrize("symbol", CASE_ORDER)
    def test_fast_matches_reference_all_cases(self, case_features, symbol):
        """Fast fold-sliced protocol == pinned reference on every case."""
        X, y = case_features[symbol]

        def make():
            return RandomSubspaceClassifier(
                n_features=X.shape[1],
                subspace_dim=8,
                n_draws=3,
                keep_fraction=0.5,
                seed=11,
                cv_folds=3,
            )

        ref = make().fit(X, y, fast=False)
        fast = make().fit(X, y)
        assert _ensembles_identical(ref, fast)
        assert np.array_equal(ref.predict(X), fast.predict(X))

    def test_holdout_protocol_identity(self, case_features):
        """The non-CV (single holdout split) protocol is twinned too."""
        X, y = case_features["C1"]

        def make():
            return RandomSubspaceClassifier(
                n_features=X.shape[1],
                subspace_dim=8,
                n_draws=4,
                keep_fraction=0.5,
                seed=31,
            )

        assert _ensembles_identical(make().fit(X, y, fast=False), make().fit(X, y))


class TestSeedModes:
    def test_legacy_streams_collide(self):
        """The documented legacy collision: draw 31's member seed equals
        draw 1's fold seed (kept, by default, for stream compatibility)."""
        clf = RandomSubspaceClassifier(n_features=20, n_draws=32, seed=42)
        seeds = clf._draw_seeds()
        assert seeds[31][0] == seeds[1][1]


class TestRepeatedProtocol:
    """The §4.4 repeat-and-keep-best loop of ``train_analytic_engine``."""

    CONFIG = TrainingConfig(
        subspace_dim=6, n_draws=3, keep_fraction=0.5, split_repeats=3, seed=2
    )

    def test_selects_best_repeat(self):
        ds = load_case("C1", n_segments=64)
        best = train_analytic_engine(ds, self.CONFIG)
        # Repeat r trains alone as a one-split run at seed + 1000 * r.
        repeats = [
            train_analytic_engine(
                ds, replace(self.CONFIG, split_repeats=1, seed=self.CONFIG.seed + 1000 * r)
            )
            for r in range(self.CONFIG.split_repeats)
        ]
        accuracies = [e.test_accuracy for e in repeats]
        assert best.test_accuracy == max(accuracies)
        # The earliest repeat wins ties.
        winner = repeats[accuracies.index(max(accuracies))]
        assert _ensembles_identical(best.ensemble, winner.ensemble)

    def test_reproducible(self):
        ds = load_case("C1", n_segments=64)
        a = train_analytic_engine(ds, self.CONFIG)
        b = train_analytic_engine(ds, self.CONFIG)
        assert a.test_accuracy == b.test_accuracy
        assert _ensembles_identical(a.ensemble, b.ensemble)
