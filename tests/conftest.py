"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture
def traced_peak():
    """A function that calls fn(*args, **kwargs) and returns its result
    and the peak bytes it allocated, by tracemalloc."""
    return _traced_peak
