"""Feature-usage analysis of trained generic classifiers.

The paper's motivation for the generic feature set (Section 2.1): *"ECG has
salient features in the time-domain, EEG is with a good data representation
under DWT, and EMG is more sensitive to the classifier"* — and the random
subspace training *"can automatically find the favorable features for
specific biosignal type"*.  These helpers expose what a trained ensemble
actually selected, per domain, so that claim can be inspected on any
dataset.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.layout import FeatureLayout
from repro.errors import ConfigurationError
from repro.ml.subspace import RandomSubspaceClassifier


def domain_usage(
    ensemble: RandomSubspaceClassifier, layout: FeatureLayout
) -> Dict[str, int]:
    """How many member-feature selections land in each domain.

    Counts *selections* (a feature picked by two members counts twice),
    because that reflects how much the classifier leans on the domain.
    """
    if not ensemble.is_fitted:
        raise ConfigurationError("ensemble must be fitted")
    labels = layout.domain_labels()
    counts = {label: 0 for label in labels}
    for member in ensemble.members:
        for index in member.feature_indices:
            domain, _ = layout.feature_of(index)
            counts[labels[domain]] += 1
    return counts


def usage_rows(
    ensemble: RandomSubspaceClassifier,
    layout: FeatureLayout,
    case_symbol: str,
) -> List[Dict[str, object]]:
    """One table row per domain: selections and share, for reports."""
    counts = domain_usage(ensemble, layout)
    total = sum(counts.values()) or 1
    time_share = counts["time"] / total
    dwt_share = 1.0 - time_share
    rows: List[Dict[str, object]] = []
    for label, count in counts.items():
        rows.append(
            {
                "case": case_symbol,
                "domain": label,
                "selections": count,
                "share_pct": 100.0 * count / total,
            }
        )
    rows.append(
        {
            "case": case_symbol,
            "domain": "(all DWT)",
            "selections": total - counts["time"],
            "share_pct": 100.0 * dwt_share,
        }
    )
    return rows
