"""Weighted ontology trees, co-occurrence similarity, and cross-context trust prediction.

The names below are the ones the README's library example uses; everything
else is imported from its submodule.
"""

from .dataset import build_profiles, load_reviews
from .errors import ContextTrustError
from .evaluation import predict_for_pair
from .ontology import load_tree, weigh_tree
from .semantic import StaticTableProvider
from .similarity import PathMode

__version__ = "0.1.0"

__all__ = [
    "ContextTrustError",
    "PathMode",
    "StaticTableProvider",
    "build_profiles",
    "load_reviews",
    "load_tree",
    "predict_for_pair",
    "weigh_tree",
]
