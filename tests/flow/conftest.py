"""Shared fixtures of the flow-plane tests."""

import pytest


@pytest.fixture(params=[True, False], ids=["numpy", "python"])
def use_numpy(request):
    """Both engine backends; the numpy leg skips where numpy is missing."""
    if request.param:
        pytest.importorskip("numpy")
    return request.param
