"""Decision identity of multi-row scoring, shown by margin on all six cases.

Multi-row ``decision_function`` (and so ``predict_batch``) takes each
Gram's cross term as one BLAS product, whose last bits depend on the batch
shape; one-row scoring and training keep the slice-stable arithmetic.  The
two can only decide differently where a fused score lies within their
difference of zero.  These tests measure both on every Table-1 case, at
reduced training scale, and require the smallest |score| to clear the
largest difference by six orders of magnitude.

The gateway's own check, ``predict_batch`` against ``predict_segment``,
also crosses two feature front ends (batch extraction against
``FeatureLayout.extract``), so its margin is measured on that full
difference too.  With ``TRAINING`` below the largest difference was
3.6e-15 and the smallest |score| 1.5e-4 (M2): a ratio above 6e10.
"""

import numpy as np
import pytest

from repro.core.pipeline import TrainingConfig, train_analytic_engine
from repro.dsp.batch import batch_extract_matrix
from repro.signals.datasets import CASE_ORDER, load_case

TRAINING = TrainingConfig(subspace_dim=6, n_draws=12, keep_fraction=0.25, seed=7)
N_SEGMENTS = 120


@pytest.fixture(scope="module", params=CASE_ORDER)
def case(request):
    dataset = load_case(request.param, n_segments=N_SEGMENTS)
    trained = train_analytic_engine(dataset, TRAINING)
    X = trained.normalizer.transform(
        batch_extract_matrix(dataset.segments, trained.layout)
    )
    return trained, dataset.segments, X


def _slice_stable_scores(ensemble, X):
    return ensemble.fusion.fuse(
        np.column_stack(
            [m.classifier.training_scores(X[:, m.feature_indices])
             for m in ensemble.members]
        )
    )


def test_multi_row_decisions_match_one_row_path(case):
    trained, segments, X = case
    batch = trained.ensemble.decision_function(X)
    single = np.array([trained.ensemble.decision_function(x[None, :])[0] for x in X])
    assert np.array_equal(batch > 0, single > 0)
    assert np.array_equal(
        trained.predict_batch(segments),
        [trained.predict_segment(seg) for seg in segments],
    )


def test_margin_dwarfs_blas_rounding(case):
    trained, _, X = case
    batch = trained.ensemble.decision_function(X)
    stable = _slice_stable_scores(trained.ensemble, X)
    largest_difference = float(np.abs(batch - stable).max())
    assert largest_difference < 1e-12  # rounding, not a different formula
    assert float(np.abs(batch).min()) >= 1e6 * largest_difference
    assert np.array_equal(batch > 0, stable > 0)


def test_margin_dwarfs_gateway_path_difference(case):
    """Whole-matrix scores on batch features against the one-row scores
    ``predict_segment`` takes on reference features."""
    trained, segments, X = case
    batch = trained.ensemble.decision_function(X)
    reference = np.array([
        trained.ensemble.decision_function(
            trained.normalizer.transform(trained.layout.extract(seg))[None, :]
        )[0]
        for seg in segments
    ])
    largest_difference = float(np.abs(batch - reference).max())
    assert largest_difference < 1e-12  # rounding, not a different formula
    assert float(np.abs(batch).min()) >= 1e6 * largest_difference
    assert np.array_equal(batch > 0, reference > 0)


def test_one_row_scores_are_slice_stable(case):
    """A one-row batch is the slice-stable path, not BLAS: each member's
    score is bitwise its training score."""
    trained, _, X = case
    for member in trained.ensemble.members:
        svm = member.classifier
        for row in X[:8, member.feature_indices]:
            assert svm.decision_function(row) == svm.training_scores(row[None, :])[0]
