"""Shared fixtures of the flow-plane tests."""

import pytest

from repro.flow import FlowEngine
from tests.flow.reference import ReferenceEngine


@pytest.fixture(params=[FlowEngine, ReferenceEngine], ids=["class", "python"])
def engine_class(request):
    """Both ticks: ``class``, the engine's demand-class tick, and
    ``python``, the per-pool scalar loop it replaced."""
    return request.param
