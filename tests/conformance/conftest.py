"""Fixtures for the cross-backend conformance suite."""

import pytest

from tests.conformance import harness


@pytest.fixture(params=harness.BACKENDS)
def backend(request):
    """Each execution backend in turn (reference, codegen)."""
    return request.param


@pytest.fixture(scope="session")
def backends():
    """All backends, reference first, for whole-set comparisons."""
    return harness.BACKENDS
