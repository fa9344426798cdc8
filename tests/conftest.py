from __future__ import annotations

import pytest
from hypothesis import Phase, settings

from fado import instancegen
from fado.model import design_from_dict, device_from_dict, qor_from_dict

# ``tests/mutants.py`` runs its tests under this profile: a failing example
# is not shrunk, since a mutant's verdict needs only that some test fails.
# Tier 1 keeps the default profile.
settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink])


@pytest.fixture
def toy_docs():
    return instancegen.toy_instance()


@pytest.fixture
def toy(toy_docs):
    device_doc, design_doc, qor_doc = toy_docs
    graph = design_from_dict(design_doc)
    return device_from_dict(device_doc), graph, qor_from_dict(qor_doc, graph)
