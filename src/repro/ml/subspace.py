"""Random-subspace SVM ensemble — the paper's generic classifier.

Protocol (Sections 2.1 and 4.4):

1. Draw ``subspace_dim`` (=12) feature indices uniformly at random from the
   complete statistical feature set (time domain + all DWT sub-bands).
2. Train a binary RBF-SVM on that subspace.  Repeat for ``n_draws`` (=100)
   independent draws.
3. Keep the top ``keep_fraction`` (=10%) of draws by validation accuracy.
4. Fit a weighted-voting score fusion over the survivors by least squares.

The trained ensemble exposes :meth:`used_feature_indices` — the union of
features any surviving member consumes.  This is what shapes the functional
cell topology: *"the number of functional cells is decided by the feature set
and random subspace training"* (Section 2.2), i.e. features nobody uses
never become cells.

Training fast path
------------------

:meth:`RandomSubspaceClassifier.fit` defaults to the fold-sliced protocol:
one full-row Gram per draw (:meth:`~repro.ml.kernels.Kernel.subspace_gram`,
with the RBF squared-column precompute shared across draws), sliced with
``np.ix_`` across all CV folds, the final refit and the validation scoring
— 11 Gram builds collapse to 1, and every fold SVM runs the fast SMO on
its injected slice.  ``fit(fast=False)`` is the pinned reference twin
(per-fold Gram rebuilds, :meth:`~repro.ml.svm.SVMClassifier.fit_reference`);
both produce bitwise-identical ensembles.  ``fit(parallel=...)`` fans the
draws across worker processes (:func:`repro.sim.parallel.subspace_draws`)
with serial == parallel bit-identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, TrainingError
from repro.ml.fusion import WeightedVotingFusion
from repro.ml.kernels import Kernel, LinearKernel, RBFKernel
from repro.ml.metrics import accuracy
from repro.ml.svm import SVMClassifier
from repro.ml.validation import kfold_indices, stratified_train_test_split

#: Supported seed-derivation modes (see :class:`RandomSubspaceClassifier`).
SEED_MODES = ("legacy", "spawn")


def _sliced_scores(
    svm: SVMClassifier,
    full_gram: np.ndarray,
    train_rows: np.ndarray,
    val_rows: np.ndarray,
) -> np.ndarray:
    """Validation decision scores from a shared full-row Gram.

    Bitwise equal to ``svm.decision_function(X[np.ix_(val_rows, subset)])``
    for an SVM trained on ``X[np.ix_(train_rows, subset)]``: the kernel's
    slice stability makes the cross-Gram block between the support rows and
    the validation rows identical to a fresh kernel evaluation, so only the
    same ``dual_coef @ cross + bias`` contraction remains.
    """
    rows = np.asarray(train_rows, dtype=np.intp)[svm.support_indices]
    cross = full_gram[np.ix_(rows, np.asarray(val_rows, dtype=np.intp))]
    return svm.dual_coef @ cross + svm.bias


def fit_subspace_draw(
    X: np.ndarray,
    y: np.ndarray,
    subset: Tuple[int, ...],
    kernel: Kernel,
    C: float,
    member_seed: int,
    fold_seed: int,
    cv_folds: Optional[int],
    fit_idx: np.ndarray,
    val_idx: np.ndarray,
    pre: Optional[np.ndarray] = None,
) -> Optional["SubspaceMember"]:
    """Train and score one subspace draw on a shared full-row Gram.

    The fast-path worker (module-level so process pools can pickle it by
    name): builds **one** Gram over all rows of the subspace and slices it
    across every CV fold, the final refit and the validation scoring.

    Args:
        X: Full ``(n, d)`` normalised feature matrix.
        y: Binary {0, 1} labels.
        subset: Sorted feature indices of this draw.
        kernel: Kernel instance for every SVM of this draw.
        C: Soft-margin penalty.
        member_seed: Seed of every SVM trained for this draw.
        fold_seed: Seed of the fold-shuffling rng (CV protocol only).
        cv_folds: ``None`` for the single holdout split, else the fold
            count of the §4.4 CV protocol.
        fit_idx: Holdout training rows (ignored under CV).
        val_idx: Holdout validation rows (ignored under CV).
        pre: Optional :meth:`~repro.ml.kernels.Kernel.gram_precompute`
            output shared across draws.

    Returns:
        The scored member, or ``None`` when no fold was trainable.
    """
    sub = np.asarray(subset, dtype=np.intp)
    full_gram = kernel.subspace_gram(X, sub, pre)
    if cv_folds is not None:
        fold_accuracies = []
        fold_rng = np.random.default_rng(fold_seed)
        for train_f, val_f in kfold_indices(len(X), cv_folds, fold_rng):
            if len(np.unique(y[train_f])) < 2:
                continue
            svm = SVMClassifier(kernel=kernel, C=C, seed=member_seed)
            try:
                svm.fit(
                    X[np.ix_(train_f, sub)],
                    y[train_f],
                    gram=full_gram[np.ix_(train_f, train_f)],
                )
            except TrainingError:
                continue
            preds = (_sliced_scores(svm, full_gram, train_f, val_f) > 0).astype(int)
            fold_accuracies.append(accuracy(y[val_f], preds))
        if not fold_accuracies:
            return None
        final = SVMClassifier(kernel=kernel, C=C, seed=member_seed)
        try:
            final.fit(X[:, sub], y, gram=full_gram)
        except TrainingError:
            return None
        return SubspaceMember(tuple(subset), final, float(np.mean(fold_accuracies)))
    svm = SVMClassifier(kernel=kernel, C=C, seed=member_seed)
    try:
        svm.fit(
            X[np.ix_(fit_idx, sub)],
            y[fit_idx],
            gram=full_gram[np.ix_(fit_idx, fit_idx)],
        )
    except TrainingError:
        return None
    preds = (_sliced_scores(svm, full_gram, fit_idx, val_idx) > 0).astype(int)
    return SubspaceMember(tuple(subset), svm, accuracy(y[val_idx], preds))


@dataclass
class SubspaceMember:
    """One retained base classifier and the features it reads.

    Attributes:
        feature_indices: Sorted indices into the full feature vector.
        classifier: The trained base SVM.
        validation_accuracy: Accuracy on the member-selection validation
            split (used for the top-10% filter).
    """

    feature_indices: Tuple[int, ...]
    classifier: SVMClassifier
    validation_accuracy: float

    def scores(self, features: np.ndarray) -> np.ndarray:
        """Decision scores on full feature rows (subspace projection inside)."""
        X = np.atleast_2d(np.asarray(features, dtype=np.float64))
        return np.atleast_1d(self.classifier.decision_function(X[:, self.feature_indices]))


class RandomSubspaceClassifier:
    """The random-subspace ensemble with least-squares weighted voting.

    Args:
        n_features: Dimensionality of the full feature vector.
        subspace_dim: Features per draw (paper: 12).
        n_draws: Number of random draws (paper: 100).
        keep_fraction: Fraction of draws retained (paper: 0.10).
        kernel_factory: Zero-argument callable building a fresh kernel per
            member; defaults to RBF with gamma 0.5.
        C: SVM soft-margin penalty.
        seed: Master seed; all subspace draws and member training derive
            from it deterministically.
        cv_folds: When set (the paper uses 10), each draw is scored by
            k-fold cross-validation over the training rows instead of a
            single held-out split — the exact §4.4 protocol, at k times
            the training cost.  The retained member is then refit on all
            training rows.
        seed_mode: How per-draw SVM and fold-rng seeds derive from the
            master seed.  ``"legacy"`` (default) keeps the historical
            streams — member seed ``seed + draw``, fold seed ``seed +
            31 * draw`` — which can collide across draws (draw 31's
            member seed equals draw 1's fold seed).  ``"spawn"`` derives
            both from independent ``np.random.SeedSequence(seed)``
            children, making collisions statistically impossible at the
            cost of changing every pinned stream.
    """

    def __init__(
        self,
        n_features: int,
        subspace_dim: int = 12,
        n_draws: int = 100,
        keep_fraction: float = 0.10,
        kernel_factory=None,
        C: float = 1.0,
        seed: int = 42,
        cv_folds: Optional[int] = None,
        seed_mode: str = "legacy",
    ) -> None:
        if n_features <= 0:
            raise ConfigurationError("n_features must be positive")
        if not 1 <= subspace_dim <= n_features:
            raise ConfigurationError(
                f"subspace_dim must be in [1, {n_features}], got {subspace_dim}"
            )
        if n_draws < 1:
            raise ConfigurationError("n_draws must be >= 1")
        if not 0.0 < keep_fraction <= 1.0:
            raise ConfigurationError("keep_fraction must be in (0, 1]")
        self.n_features = int(n_features)
        self.subspace_dim = int(subspace_dim)
        self.n_draws = int(n_draws)
        self.keep_fraction = float(keep_fraction)
        if cv_folds is not None and cv_folds < 2:
            raise ConfigurationError("cv_folds must be >= 2 when given")
        if seed_mode not in SEED_MODES:
            raise ConfigurationError(
                f"unknown seed_mode {seed_mode!r}; available: {SEED_MODES}"
            )
        self.kernel_factory = kernel_factory or (lambda: RBFKernel(gamma=0.5))
        self.C = float(C)
        self.seed = int(seed)
        self.cv_folds = cv_folds
        self.seed_mode = seed_mode
        self.members: List[SubspaceMember] = []
        self.fusion: Optional[WeightedVotingFusion] = None

    # -- training -----------------------------------------------------------

    def _draw_seeds(self) -> List[Tuple[int, int]]:
        """Per-draw ``(member_seed, fold_seed)`` pairs (see ``seed_mode``)."""
        if self.seed_mode == "legacy":
            return [
                (self.seed + draw, self.seed + 31 * draw)
                for draw in range(self.n_draws)
            ]
        children = np.random.SeedSequence(self.seed).spawn(self.n_draws)
        return [
            tuple(int(w) for w in child.generate_state(2, np.uint64))
            for child in children
        ]

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        *,
        parallel=None,
        fast: bool = True,
    ) -> "RandomSubspaceClassifier":
        """Run the full subspace protocol on normalised feature rows.

        Args:
            features: ``(n, n_features)`` normalised feature matrix.
            labels: Binary {0, 1} labels.
            parallel: Optional :class:`~repro.sim.parallel.ParallelConfig`;
                fans the draws across worker processes with bit-identical
                results (requires the fast path).
            fast: ``True`` (default) trains every draw on one shared
                full-row Gram sliced across folds; ``False`` runs the
                pinned reference protocol (per-fold Gram rebuilds through
                :meth:`~repro.ml.svm.SVMClassifier.fit_reference`).  Both
                produce bitwise-identical ensembles.
        """
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ConfigurationError(
                f"features must be (n, {self.n_features}), got {X.shape}"
            )
        if len(X) != len(y):
            raise ConfigurationError("features/labels length mismatch")
        if len(np.unique(y)) < 2:
            raise TrainingError("training data contains a single class")
        if parallel is not None and not fast:
            raise ConfigurationError("parallel draws require the fast path")

        rng = np.random.default_rng(self.seed)
        fit_idx, val_idx = stratified_train_test_split(y, rng, test_fraction=0.25)
        # Pre-draw every subset up front: the per-member training below
        # never consumes the master rng, so the draw stream is identical
        # to drawing inside the training loop.
        subsets = [
            tuple(
                sorted(
                    rng.choice(self.n_features, size=self.subspace_dim, replace=False)
                )
            )
            for _ in range(self.n_draws)
        ]
        seeds = self._draw_seeds()

        if not fast:
            results = [
                self._fit_member_reference(
                    X, y, subsets[d], seeds[d], fit_idx, val_idx
                )
                for d in range(self.n_draws)
            ]
        else:
            from repro.sim.parallel import SERIAL, subspace_draws

            results = subspace_draws(
                X,
                y,
                subsets,
                seeds,
                kernel=self.kernel_factory(),
                C=self.C,
                cv_folds=self.cv_folds,
                fit_idx=fit_idx,
                val_idx=val_idx,
                config=parallel or SERIAL,
            )

        candidates = [member for member in results if member is not None]
        if not candidates:
            raise TrainingError("no subspace draw produced a trainable SVM")
        candidates.sort(key=lambda m: m.validation_accuracy, reverse=True)
        n_keep = max(1, int(round(len(candidates) * self.keep_fraction)))
        self.members = candidates[:n_keep]

        base_scores = np.column_stack([m.scores(X) for m in self.members])
        self.fusion = WeightedVotingFusion().fit(base_scores, y)
        return self

    def _fit_member_reference(
        self, X, y, subset, seeds, fit_idx, val_idx
    ) -> Optional[SubspaceMember]:
        """Reference twin of :func:`fit_subspace_draw`: fresh Gram per
        fold, pinned SMO loop — bitwise the same member."""
        member_seed, fold_seed = seeds
        if self.cv_folds is None:
            svm = SVMClassifier(
                kernel=self.kernel_factory(), C=self.C, seed=member_seed
            )
            try:
                svm.fit_reference(X[np.ix_(fit_idx, subset)], y[fit_idx])
            except TrainingError:
                return None  # a degenerate fold; skip this draw
            preds = (
                np.atleast_1d(svm.decision_function(X[np.ix_(val_idx, subset)])) > 0
            ).astype(int)
            return SubspaceMember(subset, svm, accuracy(y[val_idx], preds))
        fold_accuracies = []
        fold_rng = np.random.default_rng(fold_seed)
        for train_f, val_f in kfold_indices(len(X), self.cv_folds, fold_rng):
            if len(np.unique(y[train_f])) < 2:
                continue
            svm = SVMClassifier(
                kernel=self.kernel_factory(), C=self.C, seed=member_seed
            )
            try:
                svm.fit_reference(X[np.ix_(train_f, subset)], y[train_f])
            except TrainingError:
                continue
            preds = (
                np.atleast_1d(svm.decision_function(X[np.ix_(val_f, subset)])) > 0
            ).astype(int)
            fold_accuracies.append(accuracy(y[val_f], preds))
        if not fold_accuracies:
            return None
        final = SVMClassifier(
            kernel=self.kernel_factory(), C=self.C, seed=member_seed
        )
        try:
            final.fit_reference(X[:, subset], y)
        except TrainingError:
            return None
        return SubspaceMember(subset, final, float(np.mean(fold_accuracies)))

    # -- inference ----------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self.fusion is not None

    def base_scores(self, features: np.ndarray) -> np.ndarray:
        """Per-member decision scores, shape ``(n_samples, n_members)``."""
        self._require_fitted()
        return np.column_stack([m.scores(features) for m in self.members])

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Fused real-valued ensemble scores."""
        self._require_fitted()
        fused = self.fusion.fuse(self.base_scores(features))
        return fused if np.asarray(features).ndim == 2 else np.atleast_1d(fused)[0]

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Binary {0,1} predictions."""
        scores = np.atleast_1d(self.decision_function(features))
        out = (scores > 0).astype(int)
        return out if np.asarray(features).ndim == 2 else int(out[0])

    # -- topology interface ---------------------------------------------------

    def used_feature_indices(self) -> Tuple[int, ...]:
        """Union of feature indices consumed by any surviving member."""
        self._require_fitted()
        used = sorted({i for m in self.members for i in m.feature_indices})
        return tuple(used)

    def member_summary(self) -> List[Dict[str, object]]:
        """Per-member report rows: feature indices, n_sv, accuracy, weight."""
        self._require_fitted()
        weights = self.fusion.weights
        return [
            {
                "features": list(m.feature_indices),
                "n_support_vectors": m.classifier.n_support_vectors,
                "validation_accuracy": m.validation_accuracy,
                "fusion_weight": float(weights[k]),
            }
            for k, m in enumerate(self.members)
        ]

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise ConfigurationError("ensemble used before fit()")


def build_subspace_classifier(
    n_features: int,
    params: Optional[Dict[str, object]] = None,
    seed: int = 0,
    seed_mode: str = "legacy",
) -> RandomSubspaceClassifier:
    """Construct an ensemble from a plain parameter dictionary.

    The shared constructor behind :func:`repro.ml.tuning.grid_search` and
    :func:`repro.ml.validation.repeated_protocol`.  Recognised keys:
    ``subspace_dim`` (12), ``n_draws`` (20), ``keep_fraction`` (0.2),
    ``C`` (1.0), ``kernel`` ("rbf"/"linear"), ``gamma`` (0.5) and
    ``cv_folds`` (None); defaults in parentheses.

    Args:
        n_features: Dimensionality of the full feature vector.
        params: Parameter overrides (plain values, e.g. one grid point).
        seed: Master ensemble seed.
        seed_mode: Seed-derivation mode (see
            :class:`RandomSubspaceClassifier`).
    """
    params = dict(params or {})
    unknown = set(params) - {
        "subspace_dim", "n_draws", "keep_fraction", "C", "kernel", "gamma",
        "cv_folds",
    }
    if unknown:
        raise ConfigurationError(f"unknown classifier parameters: {sorted(unknown)}")
    kernel = params.get("kernel", "rbf")
    gamma = float(params.get("gamma", 0.5))
    if kernel == "rbf":
        factory = lambda: RBFKernel(gamma=gamma)  # noqa: E731
    elif kernel == "linear":
        factory = lambda: LinearKernel()  # noqa: E731
    else:
        raise ConfigurationError(f"unknown kernel {kernel!r}")
    cv_folds = params.get("cv_folds")
    return RandomSubspaceClassifier(
        n_features=n_features,
        subspace_dim=int(params.get("subspace_dim", 12)),
        n_draws=int(params.get("n_draws", 20)),
        keep_fraction=float(params.get("keep_fraction", 0.2)),
        kernel_factory=factory,
        C=float(params.get("C", 1.0)),
        seed=seed,
        cv_folds=None if cv_folds is None else int(cv_folds),
        seed_mode=seed_mode,
    )
