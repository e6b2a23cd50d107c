"""Cross-context trust prediction: known rate times context similarity."""

from __future__ import annotations

from .dataset import RATE_MAX, RATE_MIN, TrustProfile
from .errors import DomainError
from .ontology import OntologyTree
from .similarity import PathMode, tree_measure


def predict_trust(known_rate: float, similarity: float) -> float:
    """Known rate scaled by similarity, capped at the top of the rating scale.

    Similarities above 1 (reciprocal path mode) can push the raw product
    past the ceiling.  Near-floor similarities can push it below the scale's
    minimum; such a value is returned as is, so the result lies in (0, RATE_MAX].
    """
    if similarity <= 0:
        raise DomainError(f"similarity must be positive, got {similarity}")
    if not RATE_MIN <= known_rate <= RATE_MAX:
        raise DomainError(f"known rate {known_rate} outside [{RATE_MIN}, {RATE_MAX}]")
    return min(float(RATE_MAX), known_rate * similarity)


def predict_for_pair(
    profile: TrustProfile,
    tree: OntologyTree,
    measure: str,
    known: str,
    unknown: str,
    mode: PathMode = PathMode.PRODUCT,
) -> float:
    """The predicted rate in unknown: known's rate times the tree measure of the pair."""
    known_rate = profile.aggregate(known)
    return predict_trust(known_rate, tree_measure(measure, mode)(tree, known, unknown))
