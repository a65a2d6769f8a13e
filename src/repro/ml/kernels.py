"""Kernel functions for the SVM base classifiers.

The paper uses an RBF-kernel binary SVM as the random-subspace base
classifier (Section 4.4) and cites linear-kernel SVM as the limit of what a
pure in-sensor design affords (Section 1).  Both kernels are provided, with
an operation-count model so the SVM functional cell's energy cost can be
derived from its support-vector count and input dimensionality.

Slice stability
---------------

Gram matrices are *slice-stable*: every entry is a fixed-order reduction
over the two input rows alone, never a function of which other rows share
the call.  Concretely, for any row subset ``f``::

    kernel(X, X)[np.ix_(f, f)]  ==  kernel(X[f], X[f])     # bitwise

This is what lets the training fast path build **one** full-row Gram per
subspace draw and slice it across all CV folds and the final refit with
bit-identical entries (see :meth:`Kernel.subspace_gram`).  A plain BLAS
``lhs @ rhs.T`` does *not* guarantee this — its blocking (and therefore
its summation order) varies with the matrix shape — so the cross-product
term is accumulated one rank-1 feature column at a time instead.

Which entry points are slice-stable:

- :meth:`Kernel.__call__` and :meth:`Kernel.subspace_gram` — everything
  training reads, including the multi-row scores it fits the fusion on
  and selects members by
  (:meth:`repro.ml.svm.SVMClassifier.training_scores`);
- :meth:`Kernel.gram_rows` with one query row and the stacked scorer,
  both built on :func:`_column_dot` (below): every single-query path,
  ``predict_segment`` and the cross-end engine.

:meth:`Kernel.gram_rows` with two or more query rows — multi-row
``decision_function`` and ``predict_batch`` — takes one BLAS product
instead, so its last bits depend on the batch shape.  Its contract is
decision identity, not bit identity.

Memory layout matters too: NumPy's axis reductions pick their summation
order from the operand's strides (pairwise for a contiguous inner axis,
sequential otherwise), and mixed basic/advanced indexing like
``X[:, subset]`` yields an F-ordered array while ``X[np.ix_(rows,
subset)]`` yields a C-ordered one.  Every kernel entry point therefore
normalises its operands to C order before reducing, so the same row
contents always produce the same bits regardless of how the caller
sliced them out.

Single queries
--------------

Scoring one sample against a fixed set of rows (an SVM's support vectors)
is a one-row ``rhs``.  :func:`_column_dot` then takes one broadcast product
over the transposed rows and one axis-0 ``add.reduce``, which NumPy
accumulates row by row — the same fixed feature order as the rank-1 loop,
so the column is bitwise equal to the matching column of a slice-stable
multi-row Gram (:meth:`Kernel.__call__`).  :class:`SupportRows` holds the
transposed rows and their squared norms so a classifier derives them
once, not per query.

The order is per column, so it survives stacking: with several
classifiers' rows side by side in one block (:meth:`SupportRows.stack`)
and every column paired with its own classifier's query, one product and
one reduction give each classifier's column bit for bit
(:class:`repro.ml.svm.StackedScorer`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Hashable, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError


def _column_dot(lhs_t: np.ndarray, rhs_t: np.ndarray) -> np.ndarray:
    """Per-column ``sum_f lhs_t[f, j] * rhs_t[f, j]`` of ``(d, n)`` operands
    (``rhs_t`` may broadcast), summed over ``f`` in order from ``+0.0``.

    With two or more columns this is one product and one axis-0 reduction:
    reducing a non-inner axis adds the feature rows in order.  The final
    ``+ 0.0`` pins the ``+0.0`` start on NumPy versions whose reduction
    starts from the first row instead (an all ``-0.0`` sum then reads
    ``+0.0``).  A single column keeps a loop, because NumPy sums a
    contiguous 1-D reduction pairwise.  Either way column ``j`` is bitwise
    the rank-1 loop of :func:`_cross_dot` for that pair of rows.
    """
    if lhs_t.shape[1] > 1:
        return np.add.reduce(lhs_t * rhs_t, axis=0) + 0.0
    out = np.zeros(lhs_t.shape[1])
    for f in range(lhs_t.shape[0]):
        out += lhs_t[f] * rhs_t[f]
    return out


def _cross_dot(lhs_m: np.ndarray, rhs_m: np.ndarray) -> np.ndarray:
    """Slice-stable ``lhs_m @ rhs_m.T`` over 2-D float64 inputs.

    Accumulates one rank-1 term per feature column, so entry ``(i, j)`` is
    the fixed-order sum ``sum_f lhs_m[i, f] * rhs_m[j, f]`` — a function of
    the two rows only, independent of the matrix shapes.

    A one-row ``rhs_m`` goes through :func:`_column_dot`, which keeps the
    same per-entry order.
    """
    if rhs_m.shape[0] == 1:
        return _column_dot(np.ascontiguousarray(lhs_m.T), rhs_m.T)[:, None]
    out = np.zeros((lhs_m.shape[0], rhs_m.shape[0]))
    for f in range(lhs_m.shape[1]):
        out += lhs_m[:, f, None] * rhs_m[None, :, f]
    return out


def _support_cross(support: "SupportRows", rhs_m: np.ndarray) -> np.ndarray:
    """``(n, m)`` cross products of prepared rows against query rows.

    One query keeps the slice-stable :func:`_column_dot` order; two or
    more take one BLAS product, whose summation order depends on the
    shapes (see "Slice stability" in the module docstring).
    """
    if rhs_m.shape[0] == 1:
        return _column_dot(support.rows_t, rhs_m.T)[:, None]
    return support.rows @ rhs_m.T


def _as_rows(x: np.ndarray) -> np.ndarray:
    """A float64 sample or row matrix as a C-ordered 2-D array."""
    return np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))


def _check_dims(lhs_m: np.ndarray, rhs_m: np.ndarray) -> None:
    if lhs_m.shape[1] != rhs_m.shape[1]:
        raise ConfigurationError(
            f"dimension mismatch: {lhs_m.shape[1]} vs {rhs_m.shape[1]}"
        )


class SupportRows(NamedTuple):
    """A fixed left-hand row matrix with its per-query operands derived.

    Built once per trained classifier by :meth:`of`;
    :meth:`Kernel.gram_rows` then scores queries against it without
    re-deriving anything from the rows.  The rows are kept once, as their
    transpose: :attr:`rows` is a view of :attr:`rows_t`.

    Several classifiers can hold their rows side by side in one block
    (:meth:`stack`); each then holds a :meth:`columns` view of it, which
    records the block and where its run starts.

    Attributes:
        rows_t: ``(d, n)`` transpose of the rows, C-contiguous or a column
            run of a C-contiguous block.
        sq_norms: ``(n,)`` squared row norms, bitwise as
            :class:`RBFKernel` computes them.
        block: The block these columns are a view of, if any.
        start: First column of this run within :attr:`block`.
    """

    rows_t: np.ndarray
    sq_norms: np.ndarray
    block: Optional["SupportRows"] = None
    start: int = 0

    @classmethod
    def of(cls, rows: np.ndarray) -> "SupportRows":
        """Derive the operands of a ``(n, d)`` row matrix (or one row)."""
        m = _as_rows(rows)
        return cls(np.ascontiguousarray(m.T), (m**2).sum(axis=1))

    @classmethod
    def stack(cls, parts: Sequence["SupportRows"]) -> "SupportRows":
        """The parts side by side, as one ``(d, sum n)`` operand.

        Parts that are consecutive runs of one block give a view of that
        block; otherwise the parts are copied into a new C-contiguous
        block.  Squared norms are concatenated, never recomputed, so they
        keep their bits.
        """
        if len(parts) == 1:
            return parts[0]
        block, end = parts[0].block, parts[0].start
        for part in parts:
            if block is None or part.block is not block or part.start != end:
                break
            end += part.n
        else:
            return block.columns(parts[0].start, end)
        return cls(
            np.concatenate([p.rows_t for p in parts], axis=1),
            np.concatenate([p.sq_norms for p in parts]),
        )

    def columns(self, lo: int, hi: int) -> "SupportRows":
        """Rows ``lo:hi`` of this block, as views that remember the block."""
        return SupportRows(self.rows_t[:, lo:hi], self.sq_norms[lo:hi], self, lo)

    @property
    def n(self) -> int:
        """Number of rows."""
        return self.rows_t.shape[1]

    @property
    def rows(self) -> np.ndarray:
        """The ``(n, d)`` rows (an F-ordered view; the Gram paths that
        read them are elementwise, so layout does not change their bits)."""
        return self.rows_t.T


class Kernel(ABC):
    """A positive-definite kernel ``k(x, z)`` with a hardware cost model."""

    @abstractmethod
    def __call__(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Gram matrix between row-sample matrices ``lhs`` and ``rhs``.

        Both arguments may also be single vectors; the result broadcasts to
        ``(len(lhs), len(rhs))`` for matrices and a scalar for two vectors.
        """

    @abstractmethod
    def operation_counts(self, dimension: int) -> Dict[str, int]:
        """S-ALU operations for one kernel evaluation on d-dim inputs."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Short kernel name for reports ("linear", "rbf")."""

    @property
    def signature(self) -> Hashable:
        """Kernels with equal signatures compute the same function."""
        return (self.name,)

    @abstractmethod
    def from_cross(
        self, lhs_sq: np.ndarray, rhs_sq: np.ndarray, cross: np.ndarray
    ) -> np.ndarray:
        """Kernel values from squared row norms and cross products,
        elementwise (the operands broadcast)."""

    def gram_rows(self, support: SupportRows, rhs: np.ndarray) -> np.ndarray:
        """``(n, m)`` Gram of prepared rows against ``rhs`` (one sample or
        rows), the scoring path of :meth:`SVMClassifier.decision_function
        <repro.ml.svm.SVMClassifier.decision_function>`.

        One query row is bitwise ``self(support.rows, rhs)`` made 2-D.
        Two or more take the cross term as one BLAS ``support.rows @
        rhs.T``: it agrees with :meth:`__call__` to rounding (about 1e-14
        on the Table-1 models), not bit for bit, and serves multi-row
        scoring only — training reads :meth:`__call__`.

        Kernels that use the prepared operands override this; the default
        falls back to :meth:`__call__`.
        """
        return np.atleast_2d(self(support.rows, rhs))

    # -- shared-precompute Gram protocol (training fast path) ---------------

    def gram_precompute(self, features: np.ndarray) -> Optional[np.ndarray]:
        """Per-column precomputation reusable across subspace draws.

        Returns ``None`` when the kernel has nothing to share; the RBF
        kernel returns the squared feature columns so per-draw row norms
        reduce to a column-slice sum.
        """
        return None

    def subspace_gram(
        self,
        features: np.ndarray,
        subset,
        pre: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Full-row Gram over a feature subset, bitwise equal to
        ``self(features[:, subset], features[:, subset])``.

        Args:
            features: Full ``(n, d)`` feature matrix.
            subset: Feature indices of the subspace draw.
            pre: Optional result of :meth:`gram_precompute` on the same
                matrix, shared across draws.
        """
        X = np.asarray(features, dtype=np.float64)
        sub = np.asarray(subset, dtype=np.intp)
        return self(X[:, sub], X[:, sub])


class LinearKernel(Kernel):
    """The inner-product kernel ``k(x, z) = x . z``."""

    @property
    def name(self) -> str:
        return "linear"

    def __call__(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        lhs_m, rhs_m = _as_rows(lhs), _as_rows(rhs)
        _check_dims(lhs_m, rhs_m)
        gram = _cross_dot(lhs_m, rhs_m)
        if np.asarray(lhs).ndim == 1 and np.asarray(rhs).ndim == 1:
            return gram[0, 0]
        return gram

    def gram_rows(self, support: SupportRows, rhs: np.ndarray) -> np.ndarray:
        rhs_m = _as_rows(rhs)
        _check_dims(support.rows, rhs_m)
        return _support_cross(support, rhs_m)

    def from_cross(
        self, lhs_sq: np.ndarray, rhs_sq: np.ndarray, cross: np.ndarray
    ) -> np.ndarray:
        return cross

    def operation_counts(self, dimension: int) -> Dict[str, int]:
        if dimension <= 0:
            raise ConfigurationError("dimension must be positive")
        return {"mul": dimension, "add": dimension - 1}


class RBFKernel(Kernel):
    """Gaussian kernel ``k(x, z) = exp(-gamma * ||x - z||^2)``.

    Args:
        gamma: Width parameter; must be positive.
    """

    def __init__(self, gamma: float = 0.5) -> None:
        if gamma <= 0:
            raise ConfigurationError("gamma must be positive")
        self.gamma = float(gamma)

    @property
    def name(self) -> str:
        return "rbf"

    @property
    def signature(self) -> Hashable:
        return ("rbf", self.gamma)

    def __call__(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        lhs_m, rhs_m = _as_rows(lhs), _as_rows(rhs)
        _check_dims(lhs_m, rhs_m)
        gram = self._assemble(
            (lhs_m**2).sum(axis=1),
            (rhs_m**2).sum(axis=1),
            _cross_dot(lhs_m, rhs_m),
        )
        if np.asarray(lhs).ndim == 1 and np.asarray(rhs).ndim == 1:
            return gram[0, 0]
        return gram

    def gram_rows(self, support: SupportRows, rhs: np.ndarray) -> np.ndarray:
        rhs_m = _as_rows(rhs)
        _check_dims(support.rows, rhs_m)
        return self._assemble(
            support.sq_norms,
            (rhs_m**2).sum(axis=1),
            _support_cross(support, rhs_m),
        )

    def _assemble(
        self, lhs_sq: np.ndarray, rhs_sq: np.ndarray, cross: np.ndarray
    ) -> np.ndarray:
        return self.from_cross(lhs_sq[:, None], rhs_sq[None, :], cross)

    def from_cross(
        self, lhs_sq: np.ndarray, rhs_sq: np.ndarray, cross: np.ndarray
    ) -> np.ndarray:
        sq = lhs_sq + rhs_sq - 2.0 * cross
        return np.exp(-self.gamma * np.maximum(sq, 0.0))

    def gram_precompute(self, features: np.ndarray) -> np.ndarray:
        """Squared feature columns; ``pre[:, subset].sum(axis=1)`` is
        bitwise equal to ``(features[:, subset]**2).sum(axis=1)``."""
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2:
            raise ConfigurationError("features must be 2-D")
        return X**2

    def subspace_gram(
        self,
        features: np.ndarray,
        subset,
        pre: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2:
            raise ConfigurationError("features must be 2-D")
        sub = np.asarray(subset, dtype=np.intp)
        col_sq = self.gram_precompute(X) if pre is None else np.asarray(pre)
        if col_sq.shape != X.shape:
            raise ConfigurationError(
                f"precompute shape {col_sq.shape} != features {X.shape}"
            )
        # C-order before reducing/accumulating: column-subset indexing
        # yields F-ordered arrays, whose axis reductions sum in a
        # different order (see the module docstring).
        Xs = np.ascontiguousarray(X[:, sub])
        norms = np.ascontiguousarray(col_sq[:, sub]).sum(axis=1)
        return self._assemble(norms, norms, _cross_dot(Xs, Xs))

    def operation_counts(self, dimension: int) -> Dict[str, int]:
        if dimension <= 0:
            raise ConfigurationError("dimension must be positive")
        # d subtractions, d squarings, d-1 adds, one gamma multiply, one exp.
        return {"sub": dimension, "mul": dimension + 1, "add": dimension - 1, "super": 1}
