"""Shared fixtures of the flow-plane tests."""

import pytest

from repro.flow import FlowEngine
from tests.flow.reference import ReferenceEngine


@pytest.fixture(params=[FlowEngine, ReferenceEngine], ids=["numpy", "python"])
def engine_class(request):
    """Both ticks: the engine's demand-class tick and the per-pool scalar
    loop it replaced. The ids are the names these legs have always run
    under: ``numpy`` was the vectorised fast tick, ``python`` the loop."""
    return request.param
