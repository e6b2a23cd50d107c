"""Shared fixtures; plain helpers live in helpers.py."""

from __future__ import annotations

from pathlib import Path

import pytest

from helpers import DATA_DIR
from contexttrust.ontology import OntologyTree, load_tree


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def cs_tree() -> OntologyTree:
    return load_tree(DATA_DIR / "cs_tree.tsv")
