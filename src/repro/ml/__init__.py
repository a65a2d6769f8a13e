"""Machine-learning substrate: the generic classification back half.

The paper's classifier (Sections 2.1, 4.4) is a **random subspace ensemble
of binary SVMs**: each base SVM is trained on 12 features drawn at random
from the complete statistical feature set, 100 draws are made, the top 10%
by accuracy are kept, and their decisions are combined by a weighted-voting
score fusion whose weights are fit by least squares.

Everything is implemented from scratch on numpy:

- :mod:`repro.ml.kernels` -- linear and RBF kernel functions.
- :mod:`repro.ml.svm` -- an SMO-trained binary SVM.
- :mod:`repro.ml.subspace` -- the random-subspace ensemble protocol.
- :mod:`repro.ml.fusion` -- least-squares weighted-voting score fusion.
- :mod:`repro.ml.validation` -- stratified 75/25 splits and k-fold CV.
- :mod:`repro.ml.metrics` -- accuracy and confusion statistics.
"""

from repro.ml.baselines import AdaBoostSVMClassifier, BaggingSVMClassifier
from repro.ml.calibration import PlattScaler, brier_score
from repro.ml.fusion import WeightedVotingFusion
from repro.ml.kernels import Kernel, LinearKernel, RBFKernel, SupportRows
from repro.ml.metrics import accuracy, confusion_matrix
from repro.ml.multiclass import OneVsRestSubspaceClassifier
from repro.ml.subspace import RandomSubspaceClassifier, SubspaceMember
from repro.ml.svm import StackedScorer, SVMClassifier, share_support
from repro.ml.validation import kfold_indices

__all__ = [
    "AdaBoostSVMClassifier",
    "BaggingSVMClassifier",
    "Kernel",
    "OneVsRestSubspaceClassifier",
    "LinearKernel",
    "RBFKernel",
    "RandomSubspaceClassifier",
    "SVMClassifier",
    "StackedScorer",
    "SubspaceMember",
    "SupportRows",
    "WeightedVotingFusion",
    "PlattScaler",
    "brier_score",
    "accuracy",
    "confusion_matrix",
    "kfold_indices",
    "share_support",
]
