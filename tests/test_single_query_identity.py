"""Bit identity of the single-query kernel, SVM and feature paths.

The cross-end engine scores one segment at a time.  Its SVM cells take the
one-row kernel path (one product over the transposed support vectors and
one axis-0 reduction), and its feature cells reduce with ``np.add.reduce``
instead of going through ``np.mean``.  Both promise the exact bits of the
general paths, which these properties pin down.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.dsp import features as feat
from repro.ml.kernels import LinearKernel, RBFKernel, SupportRows
from repro.ml.svm import SVMClassifier

KERNELS = (LinearKernel(), RBFKernel(gamma=0.5), RBFKernel(gamma=0.03))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@st.composite
def _gram_case(draw, n_rows=st.integers(1, 24), dims=st.integers(1, 20)):
    """``(lhs, rhs)`` with mixed magnitudes and, sometimes, signed zeros."""
    n, d = draw(n_rows), draw(dims)
    m = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-3, 3, size=d)
    lhs = rng.normal(size=(n, d)) * scale
    rhs = rng.normal(size=(m, d)) * scale
    if draw(st.booleans()):
        lhs[rng.random(lhs.shape) < 0.4] = -0.0
        rhs[rng.random(rhs.shape) < 0.4] = 0.0
    return lhs, rhs


def _assert_one_row_matches_column(kernel, lhs, rhs):
    full = kernel(lhs, rhs)
    support = SupportRows.of(lhs)
    for j in range(len(rhs)):
        column = _bits(full[:, j : j + 1])
        assert _bits(kernel(lhs, rhs[j])) == column
        assert _bits(kernel(lhs, rhs[j : j + 1])) == column
        assert _bits(kernel.gram_rows(support, rhs[j])) == column


class TestOneRowKernel:
    @given(_gram_case(), st.sampled_from(KERNELS))
    @settings(max_examples=150, deadline=None)
    def test_matches_multi_row_gram_column(self, case, kernel):
        _assert_one_row_matches_column(kernel, *case)

    @given(_gram_case(dims=st.just(1)), st.sampled_from(KERNELS))
    @settings(max_examples=40, deadline=None)
    def test_single_feature(self, case, kernel):
        _assert_one_row_matches_column(kernel, *case)

    @given(_gram_case(n_rows=st.just(1)), st.sampled_from(KERNELS))
    @settings(max_examples=40, deadline=None)
    def test_single_support_vector(self, case, kernel):
        _assert_one_row_matches_column(kernel, *case)

    def test_negative_zero_sum_is_positive_zero(self):
        """The rank-1 loop starts from +0.0, so an all-(-0.0) product sums
        to +0.0; the one-row path must not leave it negative."""
        lhs = np.array([[-0.0, 0.0], [1.0, 2.0]])
        x = np.array([1.0, -0.0])
        assert _bits(LinearKernel()(lhs, x)) == _bits([[0.0], [1.0]])


def _trained_svm(seed: int, kernel, n: int, d: int) -> SVMClassifier:
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    y[:2] = (0, 1)
    X = rng.normal(size=(n, d)) + 0.8 * y[:, None]
    return SVMClassifier(kernel=kernel, C=1.0).fit(X, y)


class TestSVMSingleQuery:
    @given(
        seed=st.integers(0, 2**32 - 1),
        kernel=st.sampled_from(KERNELS),
        n=st.integers(6, 40),
        d=st.integers(1, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_dim_query_matches_batch_row(self, seed, kernel, n, d):
        svm = _trained_svm(seed, kernel, n, d)
        queries = np.random.default_rng(seed + 1).normal(size=(4, d))
        batch = svm.decision_function(queries)
        gram = svm.kernel(svm._support_vectors, queries)
        coef = svm.dual_coef
        for j, x in enumerate(queries):
            single = svm.decision_function(x)
            assert np.ndim(single) == 0
            # Bitwise: the one-row batch, and the kernel column of the
            # multi-row batch.
            assert _bits(single) == _bits(svm.decision_function(x[None, :])[0])
            assert _bits(svm.kernel.gram_rows(svm._support, x)) == _bits(
                gram[:, j : j + 1]
            )
            # The dual-coefficient contraction of a multi-row batch is one
            # BLAS matrix-vector product, whose blocking depends on the
            # batch width; the row agrees to that rounding.
            bound = 4 * len(coef) * np.finfo(float).eps * (
                np.abs(coef) @ np.abs(gram[:, j]) + abs(svm.bias)
            )
            assert abs(single - batch[j]) <= bound

    def test_bias_only_svm(self):
        """The degenerate no-support-vector fit scores every query as its
        bias, on both paths."""
        X = np.zeros((6, 3))
        y = np.array([0, 1, 0, 1, 0, 1])
        svm = SVMClassifier(seed=9).fit(X, y)
        assert svm.n_support_vectors == 1
        queries = np.random.default_rng(3).normal(size=(5, 3))
        batch = svm.decision_function(queries)
        for j, x in enumerate(queries):
            assert _bits(svm.decision_function(x)) == _bits(batch[j])
            assert _bits(svm.decision_function(x)) == _bits(svm.bias)

    def test_derived_support_rows(self):
        """Transpose and norms are derived once; the support vectors are
        held once, as a view of the transpose."""
        svm = _trained_svm(5, RBFKernel(), 30, 7)
        support = svm._support
        assert support.rows_t.flags.c_contiguous
        assert svm._support_vectors.base is support.rows_t
        sv = np.ascontiguousarray(svm._support_vectors)
        assert _bits(support.sq_norms) == _bits((sv**2).sum(axis=1))

    def test_pickle_drops_and_rederives_support_rows(self):
        svm = _trained_svm(6, RBFKernel(), 30, 7)
        state = svm.__getstate__()
        assert "_support" not in state
        assert state["_support_vectors"].flags.c_contiguous
        clone = pickle.loads(pickle.dumps(svm))
        queries = np.random.default_rng(7).normal(size=(3, 7))
        for x in queries:
            assert _bits(clone.decision_function(x)) == _bits(svm.decision_function(x))
        assert _bits(clone.decision_function(queries)) == _bits(
            svm.decision_function(queries)
        )


# -- feature kernels: the np.mean formulas they replace, written out ----------


def _ref_mean(a):
    return float(np.mean(a))


def _ref_variance(a):
    mu = a.mean()
    return float(np.mean(a * a) - mu * mu)


def _ref_skewness(a):
    centered = a - a.mean()
    m2 = float(np.mean(centered**2))
    if m2 <= 1e-12:
        return 0.0
    return float(float(np.mean(centered**3)) / np.power(m2, 1.5))


def _ref_kurtosis(a):
    centered = a - a.mean()
    m2 = float(np.mean(centered**2))
    if m2 <= 1e-12:
        return 0.0
    return float(np.mean(centered**4)) / (m2 * m2)


def _ref_zero_crossings(a):
    """Sign changes about the mean; a sample equal to the mean keeps the
    previous sign and a leading flat run counts as positive."""
    level = float(a.mean())
    crossings, previous = 0, 1.0
    for k, value in enumerate(a):
        sign = np.sign(value - level)
        sign = previous if sign == 0 else sign
        if k and sign != previous:
            crossings += 1
        previous = sign
    return float(crossings)


_segments = st.one_of(
    arrays(
        np.float64,
        st.integers(1, 300),
        elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    ),
    # Quantised values: repeated samples, flat runs and exact-mean hits.
    arrays(np.float64, st.integers(1, 40), elements=st.integers(-3, 3).map(float)),
)


@given(_segments)
@settings(max_examples=200, deadline=None)
def test_moment_features_match_np_mean_formulas(segment):
    for fast, ref in (
        (feat.mean, _ref_mean),
        (feat.variance, _ref_variance),
        (feat.skewness, _ref_skewness),
        (feat.kurtosis, _ref_kurtosis),
        (feat.zero_crossings, _ref_zero_crossings),
    ):
        assert _bits(fast(segment)) == _bits(ref(segment)), fast.__name__
