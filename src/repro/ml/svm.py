"""Binary soft-margin SVM trained by Sequential Minimal Optimization (SMO).

This is the base classifier of the random-subspace ensemble (Section 4.4:
*"We choose a binary SVM classifier with radial basis function (RBF) as its
kernel"*).  Implemented from scratch:

- dual soft-margin formulation, simplified-SMO working-set selection with
  KKT-violation scanning and epoch limits;
- decision function ``f(x) = sum_i alpha_i y_i k(sv_i, x) + b``;
- a support-vector-count-driven hardware cost model, because the in-sensor
  SVM functional cell's energy is dominated by ``n_sv`` kernel evaluations
  (the paper: *"some basic SVM classifiers have fewer supporting vectors due
  to the good data separability of the dataset"*, Section 5.5).

Two training entry points exist, bitwise-identical in outcome:

- :meth:`SVMClassifier.fit_reference` — the pinned per-index loop that
  recomputes an O(n) decision dot product at every KKT check;
- :meth:`SVMClassifier.fit` — the fast path: accepts an injected
  precomputed Gram (``fit(gram=...)``), keeps a rank-2 incrementally
  updated error cache, and replaces the per-index scan with a vectorized
  KKT-violation screen.  The cache is used only to *screen* (with a slack
  wider than its worst-case drift); every surviving candidate re-derives
  its error through the reference expression before branching, so the
  branch sequence — and the RNG stream — match the reference exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, TrainingError
from repro.ml.kernels import Kernel, RBFKernel, SupportRows, _column_dot

#: Half-width of the ambiguity band around ``+-tol`` inside which the fast
#: SMO falls back to the exact per-index dot product to settle a KKT
#: decision.  The incrementally-updated error cache drifts from the exact
#: value by at most ~n * C * eps_machine per sweep (it is refreshed every
#: sweep, ~1e-13 at benchmark scale), four orders of magnitude below this
#: band — so outside the band the cached comparison provably matches the
#: exact one, and inside it the exact recompute decides.
_CACHE_DRIFT_BAND = 1e-9


class SVMClassifier:
    """Soft-margin binary SVM with pluggable kernel.

    Labels are accepted as ``{0, 1}`` (the library convention) and mapped
    internally to ``{-1, +1}``.

    Args:
        kernel: Kernel instance; defaults to :class:`RBFKernel`.
        C: Soft-margin penalty; must be positive.
        tol: KKT violation tolerance.
        max_passes: Consecutive full passes without any alpha update before
            declaring convergence.
        max_iter: Hard cap on optimisation sweeps (guards degenerate data).
        seed: Seed for SMO's random second-index choice.
    """

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        C: float = 1.0,
        tol: float = 1e-3,
        max_passes: int = 3,
        max_iter: int = 200,
        seed: int = 7,
    ) -> None:
        if C <= 0:
            raise ConfigurationError("C must be positive")
        if tol <= 0:
            raise ConfigurationError("tol must be positive")
        self.kernel = kernel if kernel is not None else RBFKernel()
        self.C = float(C)
        self.tol = float(tol)
        self.max_passes = int(max_passes)
        self.max_iter = int(max_iter)
        self.seed = int(seed)
        # Fitted state
        self._support_vectors: Optional[np.ndarray] = None
        self._dual_coef: Optional[np.ndarray] = None  # alpha_i * y_i
        self._bias: float = 0.0
        self._dimension: int = 0
        self._support_index: Optional[np.ndarray] = None  # rows of X retained
        # Derived from the support vectors after fit or load; never pickled.
        self._support: Optional[SupportRows] = None

    # -- training -----------------------------------------------------------

    def _prepare_training(self, features, labels):
        """Shared input validation; returns ``(X, y)`` with y in {-1,+1}."""
        X = np.asarray(features, dtype=np.float64)
        y01 = np.asarray(labels)
        if X.ndim != 2:
            raise ConfigurationError("features must be 2-D")
        if len(X) != len(y01):
            raise ConfigurationError("features/labels length mismatch")
        classes = set(np.unique(y01).tolist())
        if not classes <= {0, 1}:
            raise ConfigurationError(f"labels must be binary 0/1, got {classes}")
        if len(classes) < 2:
            raise TrainingError("training data contains a single class")
        return X, np.where(y01 == 1, 1.0, -1.0)

    def _store_solution(self, X, y, alphas, bias) -> None:
        """Retain support vectors (or the degenerate bias-only fallback)."""
        mask = alphas > 1e-8
        if not mask.any():
            # Degenerate but legal outcome: fall back to the majority-margin
            # constant classifier (bias only).
            self._support_vectors = X[:1]
            self._dual_coef = np.zeros(1)
            self._bias = float(y.mean())
            self._support_index = np.zeros(1, dtype=np.intp)
        else:
            self._support_vectors = X[mask]
            self._dual_coef = (alphas * y)[mask]
            self._bias = bias
            self._support_index = np.flatnonzero(mask)
        self._dimension = X.shape[1]
        self._derive_support()

    def _derive_support(self) -> None:
        """Build the single-query operands; the support vectors are then
        held once, as a view of their transpose."""
        self._support = SupportRows.of(self._support_vectors)
        self._support_vectors = self._support.rows

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_support"]
        if self._support_vectors is not None:
            state["_support_vectors"] = np.ascontiguousarray(self._support_vectors)
        return state

    def __setstate__(self, state: dict) -> None:
        self._support = None
        self.__dict__.update(state)
        if self._support_vectors is not None:
            self._derive_support()

    def fit_reference(
        self, features: np.ndarray, labels: np.ndarray
    ) -> "SVMClassifier":
        """Train on a (rows, dims) matrix with binary {0,1} labels.

        The pinned reference SMO loop: one O(n) decision dot product per
        KKT check.  :meth:`fit` is the drop-in fast path; both produce
        bitwise-identical models.
        """
        X, y = self._prepare_training(features, labels)
        n = len(X)
        gram = self.kernel(X, X)
        alphas = np.zeros(n)
        bias = 0.0
        rng = np.random.default_rng(self.seed)

        def decision(i: int) -> float:
            return float((alphas * y) @ gram[:, i] + bias)

        passes = 0
        iters = 0
        while passes < self.max_passes and iters < self.max_iter:
            changed = 0
            for i in range(n):
                err_i = decision(i) - y[i]
                if (y[i] * err_i < -self.tol and alphas[i] < self.C) or (
                    y[i] * err_i > self.tol and alphas[i] > 0
                ):
                    j = int(rng.integers(0, n - 1))
                    if j >= i:
                        j += 1
                    err_j = decision(j) - y[j]
                    ai_old, aj_old = alphas[i], alphas[j]
                    if y[i] != y[j]:
                        low = max(0.0, aj_old - ai_old)
                        high = min(self.C, self.C + aj_old - ai_old)
                    else:
                        low = max(0.0, ai_old + aj_old - self.C)
                        high = min(self.C, ai_old + aj_old)
                    if high - low < 1e-12:
                        continue
                    eta = 2.0 * gram[i, j] - gram[i, i] - gram[j, j]
                    if eta >= 0:
                        continue
                    aj_new = np.clip(aj_old - y[j] * (err_i - err_j) / eta, low, high)
                    if abs(aj_new - aj_old) < 1e-6:
                        continue
                    ai_new = ai_old + y[i] * y[j] * (aj_old - aj_new)
                    alphas[i], alphas[j] = ai_new, aj_new
                    b1 = (
                        bias
                        - err_i
                        - y[i] * (ai_new - ai_old) * gram[i, i]
                        - y[j] * (aj_new - aj_old) * gram[i, j]
                    )
                    b2 = (
                        bias
                        - err_j
                        - y[i] * (ai_new - ai_old) * gram[i, j]
                        - y[j] * (aj_new - aj_old) * gram[j, j]
                    )
                    if 0 < ai_new < self.C:
                        bias = b1
                    elif 0 < aj_new < self.C:
                        bias = b2
                    else:
                        bias = (b1 + b2) / 2.0
                    changed += 1
            passes = passes + 1 if changed == 0 else 0
            iters += 1

        self._store_solution(X, y, alphas, bias)
        return self

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        gram: Optional[np.ndarray] = None,
    ) -> "SVMClassifier":
        """Train on a (rows, dims) matrix with binary {0,1} labels.

        Bitwise-identical to :meth:`fit_reference` — same support vectors,
        dual coefficients, bias and RNG stream — but sweeps are driven by
        a vectorized KKT-violation screen over a rank-2 incrementally
        updated error cache instead of n exact dot products per sweep.
        KKT decisions are made on the cached errors whenever the cached
        value sits clearly outside the ambiguity band around ``+-tol``
        (where cache drift provably cannot flip the comparison); inside
        the band the exact reference dot product decides.  Every *update*
        re-derives both working errors through the exact reference
        expression before touching the alphas, so the update arithmetic —
        and the RNG stream, consumed once per violating index — matches
        the reference exactly.

        Args:
            features: ``(n, d)`` training rows.
            labels: Binary {0, 1} labels.
            gram: Optional precomputed ``kernel(features, features)``
                matrix — e.g. an ``np.ix_`` fold slice of a shared
                full-row Gram (see :meth:`Kernel.subspace_gram`).
        """
        X, y = self._prepare_training(features, labels)
        n = len(X)
        if gram is None:
            gram = self.kernel(X, X)
        else:
            gram = np.asarray(gram, dtype=np.float64)
            if gram.shape != (n, n):
                raise ConfigurationError(
                    f"gram must have shape ({n}, {n}), got {gram.shape}"
                )
        alphas = np.zeros(n)
        coef = alphas * y  # alpha_i * y_i, maintained exactly per update
        bias = 0.0
        rng = np.random.default_rng(self.seed)
        tol, C = self.tol, self.C
        delta = _CACHE_DRIFT_BAND
        band = tol - delta  # admit anything that might violate exactly
        # Scalar working copies: the candidate loop runs in plain-float
        # arithmetic (IEEE-754 double, bitwise equal to the reference's
        # NumPy-scalar arithmetic) to shed per-operation dispatch cost.
        yl = y.tolist()
        al = [0.0] * n  # mirrors `alphas`
        gl = gram.tolist()  # row lists for O(1) scalar Gram reads
        gd = [gl[i][i] for i in range(n)]
        # Per-index screen thresholds folding in the box constraints:
        # index k can violate downward only while alpha_k < C and upward
        # only while alpha_k > 0, so the threshold pair collapses the
        # four-way KKT test to two comparisons.  Only the two alphas an
        # update touches ever move, so the arrays are patched in place.
        neg_thr = np.full(n, -band)  # alpha starts at 0 < C everywhere
        pos_thr = np.full(n, np.inf)  # ... and nowhere > 0
        err_tmp = np.empty(n)  # rank-2 update scratch
        # The reference draws one second index per violating candidate.
        # Batched `Generator.integers` draws are stream-identical to
        # sequential ones, so a refillable buffer delivers the exact same
        # j sequence at a fraction of the per-call cost.
        jbuf: list = []
        jpos = 0
        jlen = 0

        def screen(lo: int):
            """Indices >= lo whose *cached* error is within drift of a KKT
            violation (a superset of the true violators at this state),
            plus their cached ``y_k * err_k`` values.  The cache only moves
            on an alpha update, which discards the candidate list — so the
            returned values stay exact for the list's whole lifetime."""
            ye = y[lo:] * errors[lo:]
            hit = ((ye < neg_thr[lo:]) | (ye > pos_thr[lo:])).nonzero()[0]
            return (hit + lo).tolist(), ye[hit].tolist()

        passes = 0
        iters = 0
        while passes < self.max_passes and iters < self.max_iter:
            changed = 0
            # Sweep-start refresh bounds cache drift to one sweep's updates.
            errors = coef @ gram + bias - y
            cand, cye = screen(0)
            ncand = len(cand)
            ci = 0
            while ci < ncand:
                i = cand[ci]
                ye = cye[ci]
                ci += 1
                yi = yl[i]
                ai_old = al[i]
                c_ei = ye * yi  # y_i in {-1,+1}: exact inverse of ye = y_i*e_i
                err_i = None  # exact error, derived lazily
                # KKT decision on the cached error: screen membership
                # already certifies |ye| > tol - delta with the matching
                # box constraint, so the decision is certain outside the
                # drift band around +-tol and settled exactly inside it.
                if ye < -tol - delta or ye > tol + delta:
                    violates = True
                else:
                    err_i = float(coef @ gram[:, i] + bias) - yi
                    yx = yi * err_i
                    violates = (yx < -tol and ai_old < C) or (
                        yx > tol and ai_old > 0
                    )
                if violates:
                    if jpos >= jlen:
                        jbuf = rng.integers(0, n - 1, size=256).tolist()
                        jlen = len(jbuf)
                        jpos = 0
                    j = jbuf[jpos]
                    jpos += 1
                    if j >= i:
                        j += 1
                    yj = yl[j]
                    aj_old = al[j]
                    if yi != yj:
                        low = max(0.0, aj_old - ai_old)
                        high = min(C, C + aj_old - ai_old)
                    else:
                        low = max(0.0, ai_old + aj_old - C)
                        high = min(C, ai_old + aj_old)
                    if high - low < 1e-12:
                        continue
                    gli = gl[i]
                    eta = 2.0 * gli[j] - gd[i] - gd[j]
                    if eta >= 0:
                        continue
                    # Cheap rejection: project the step from the cached
                    # errors.  Cache drift is amplified by 1/|eta|, so the
                    # step-too-small test is only *certain* outside that
                    # widened band; inside it the exact errors decide.
                    if err_i is None:
                        step_c = aj_old - yj * (c_ei - errors.item(j)) / eta
                        if step_c < low:
                            step_c = low
                        elif step_c > high:
                            step_c = high
                        if abs(step_c - aj_old) < 1e-6 + 2.0 * delta / eta:
                            # certainly below the reference's 1e-6 cutoff
                            continue
                        err_i = float(coef @ gram[:, i] + bias) - yi
                    err_j = float(coef @ gram[:, j] + bias) - yj
                    aj_new = aj_old - yj * (err_i - err_j) / eta
                    if aj_new < low:
                        aj_new = low
                    elif aj_new > high:
                        aj_new = high
                    if abs(aj_new - aj_old) < 1e-6:
                        continue
                    ai_new = ai_old + yi * yj * (aj_old - aj_new)
                    b1 = (
                        bias
                        - err_i
                        - yi * (ai_new - ai_old) * gd[i]
                        - yj * (aj_new - aj_old) * gli[j]
                    )
                    b2 = (
                        bias
                        - err_j
                        - yi * (ai_new - ai_old) * gli[j]
                        - yj * (aj_new - aj_old) * gd[j]
                    )
                    if 0 < ai_new < C:
                        new_bias = b1
                    elif 0 < aj_new < C:
                        new_bias = b2
                    else:
                        new_bias = (b1 + b2) / 2.0
                    al[i] = ai_new
                    al[j] = aj_new
                    alphas[i] = ai_new
                    alphas[j] = aj_new
                    neg_thr[i] = -band if ai_new < C else -np.inf
                    pos_thr[i] = band if ai_new > 0 else np.inf
                    neg_thr[j] = -band if aj_new < C else -np.inf
                    pos_thr[j] = band if aj_new > 0 else np.inf
                    # Rank-2 error-cache update: the two changed dual
                    # coefficients touch every cached error linearly.
                    np.multiply(gram[i], (ai_new - ai_old) * yi, out=err_tmp)
                    errors += err_tmp
                    np.multiply(gram[j], (aj_new - aj_old) * yj, out=err_tmp)
                    errors += err_tmp
                    errors += new_bias - bias
                    bias = new_bias
                    coef[i] = ai_new * yi
                    coef[j] = aj_new * yj
                    changed += 1
                    # The update moved every error, so the remaining
                    # candidate list is stale: re-screen the tail of the
                    # sweep (positions after i, as the reference scans).
                    cand, cye = screen(i + 1)
                    ncand = len(cand)
                    ci = 0
            passes = passes + 1 if changed == 0 else 0
            iters += 1

        self._store_solution(X, y, alphas, bias)
        return self

    # -- inference ----------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self._support_vectors is not None

    @property
    def n_support_vectors(self) -> int:
        """Number of retained support vectors (drives hardware cost)."""
        self._require_fitted()
        return len(self._support_vectors)

    @property
    def dimension(self) -> int:
        """Input feature dimensionality the model was trained on."""
        self._require_fitted()
        return self._dimension

    @property
    def support_indices(self) -> np.ndarray:
        """Training-row indices of the retained support vectors.

        The fold-sliced subspace protocol uses these to score validation
        rows from a shared full-row Gram (``dual_coef @ gram[np.ix_(rows,
        val)]``) without re-evaluating the kernel.  For the degenerate
        bias-only fallback this is ``[0]`` (matching the stored row).
        """
        self._require_fitted()
        return self._support_index

    @property
    def dual_coef(self) -> np.ndarray:
        """``alpha_i * y_i`` of each retained support vector."""
        self._require_fitted()
        return self._dual_coef

    @property
    def bias(self) -> float:
        """The decision function's intercept."""
        self._require_fitted()
        return self._bias

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Signed margin scores; positive means class 1.

        One sample is scored through the slice-stable single-query path;
        two or more rows take one BLAS cross product
        (:meth:`~repro.ml.kernels.Kernel.gram_rows`), whose last bits
        depend on the batch shape.  Training reads
        :meth:`training_scores` instead.
        """
        X = self._check_rows(features)
        gram = self.kernel.gram_rows(self._support, X)
        scores = self._dual_coef @ gram + self._bias
        return scores if np.asarray(features).ndim == 2 else scores[0]

    def training_scores(self, features: np.ndarray) -> np.ndarray:
        """Decision scores of ``(n, d)`` rows through the slice-stable
        :meth:`Kernel.__call__ <repro.ml.kernels.Kernel.__call__>`.

        Every Gram entry is a fixed-order sum over its two rows, so the
        scores a trained model is fitted or selected on never depend on
        how BLAS blocks a product of that batch's shape.  Bitwise
        ``dual_coef @ gram[np.ix_(support, rows)] + bias`` of a
        fold-sliced training Gram over the same rows.
        """
        X = self._check_rows(features)
        return self._dual_coef @ self.kernel(self._support.rows, X) + self._bias

    def _check_rows(self, features: np.ndarray) -> np.ndarray:
        self._require_fitted()
        X = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if X.shape[1] != self._dimension:
            raise ConfigurationError(
                f"feature dimension {X.shape[1]} != trained {self._dimension}"
            )
        return X

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Binary {0,1} predictions."""
        scores = np.atleast_1d(self.decision_function(features))
        out = (scores > 0).astype(int)
        return out if np.asarray(features).ndim == 2 else int(out[0])

    # -- hardware cost model --------------------------------------------------

    def operation_counts(self) -> Dict[str, int]:
        """S-ALU operations for one in-sensor inference of this SVM.

        ``n_sv`` kernel evaluations, each followed by a multiply-accumulate,
        plus the bias add and the sign comparison.
        """
        self._require_fitted()
        per_kernel = self.kernel.operation_counts(self._dimension)
        n_sv = self.n_support_vectors
        totals: Dict[str, int] = {}
        for op, count in per_kernel.items():
            totals[op] = totals.get(op, 0) + count * n_sv
        totals["mul"] = totals.get("mul", 0) + n_sv  # coef * k
        totals["add"] = totals.get("add", 0) + n_sv  # accumulate + bias
        totals["cmp"] = totals.get("cmp", 0) + 1
        return totals

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise ConfigurationError("SVM used before fit()")


def share_support(classifiers: Sequence[SVMClassifier]) -> SupportRows:
    """Hold the classifiers' support rows side by side in one block.

    Each classifier's operands become a column view of the block, which is
    then their only storage.  Idempotent: classifiers that already are
    consecutive runs of one block keep it, so the block is built once.

    Returns:
        The classifiers' rows as one operand (see :meth:`SupportRows.stack`).
    """
    for svm in classifiers:
        svm._require_fitted()
    supports = [svm._support for svm in classifiers]
    stacked = SupportRows.stack(supports)
    if stacked.block is None:
        lo = 0
        for svm, support in zip(classifiers, supports):
            svm._support = stacked.columns(lo, lo + support.n)
            svm._support_vectors = svm._support.rows
            lo += support.n
    return stacked


class StackedScorer:
    """Decision scores of several SVMs, one query each, in one pass.

    Every column of the stacked support rows is paired with its own
    classifier's query, so one product, one axis-0 reduction and one
    kernel evaluation serve all classifiers while each column's arithmetic
    stays that of the one-row path; each score is then the classifier's
    own ``dual_coef @ column + bias``.  Scores are therefore bitwise each
    classifier's :meth:`SVMClassifier.decision_function` of its query.

    The classifiers are stacked in block order, so members that share a
    block (:func:`share_support`) read it in place whatever order they are
    given in; only a set that is not one consecutive run is copied.

    Args:
        classifiers: Fitted SVMs sharing one kernel signature and input
            dimension.
    """

    def __init__(self, classifiers: Sequence[SVMClassifier]) -> None:
        if not classifiers:
            raise ConfigurationError("need at least one classifier to stack")
        for svm in classifiers:
            svm._require_fitted()
        first = classifiers[0]
        if any(
            svm.kernel.signature != first.kernel.signature
            or svm.dimension != first.dimension
            for svm in classifiers
        ):
            raise ConfigurationError(
                "stacked classifiers must share one kernel and dimension"
            )
        self.kernel = first.kernel
        self.dimension = first.dimension
        # Order the runs of each block by their start, blocks by first use.
        blocks: Dict[int, int] = {}

        def position(i: int):
            support = classifiers[i]._support
            block = support if support.block is None else support.block
            return blocks.setdefault(id(block), i), support.start

        order = sorted(range(len(classifiers)), key=position)
        stacked = [classifiers[i] for i in order]
        self._order = None if order == sorted(order) else np.array(order)
        self._slot = np.argsort(order).tolist()
        self.support = SupportRows.stack([svm._support for svm in stacked])
        self._counts = np.array([svm.n_support_vectors for svm in stacked])
        bounds = np.concatenate([[0], np.cumsum(self._counts)]).tolist()
        self._terms = [
            (svm.dual_coef, svm.bias, bounds[j], bounds[j + 1])
            for j, svm in enumerate(stacked)
        ]

    def scores(self, queries: np.ndarray) -> List[float]:
        """One score per classifier; row ``i`` of the C-ordered ``(k, d)``
        float64 ``queries`` is classifier ``i``'s query."""
        if queries.shape != (len(self._terms), self.dimension):
            raise ConfigurationError(
                f"queries must be ({len(self._terms)}, {self.dimension}), "
                f"got {queries.shape}"
            )
        if self._order is not None:
            queries = queries[self._order]
        counts = self._counts
        cross = _column_dot(self.support.rows_t, np.repeat(queries.T, counts, axis=1))
        gram = self.kernel.from_cross(
            self.support.sq_norms, np.repeat((queries**2).sum(axis=1), counts), cross
        )
        scores = [
            float((coef @ gram[lo:hi, None] + bias)[0])
            for coef, bias, lo, hi in self._terms
        ]
        return scores if self._order is None else [scores[j] for j in self._slot]
