"""Shared fixtures for the test suite.

Heavy artefacts (the tiny workload and its indexes) are session-scoped;
tests must not mutate them.  Tests that insert use the
``fresh_*`` factory fixtures instead.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.workload.config import QueryWorkload, WorkloadConfig
from repro.workload.objects import generate_motion_segments

from _helpers import make_segment, window

# Tier-1 runs hypothesis's own ``default`` profile (100 examples for a
# property test that pins no ``max_examples``); the nightly job runs the
# page-kernel differentials under ``--hypothesis-profile deep`` — they
# need the deep count to reach their rare page shapes, and are too slow
# for it on every push.
settings.register_profile("deep", max_examples=300)


@pytest.fixture(scope="session")
def tiny_config() -> WorkloadConfig:
    """The unit-test data scale (~2000 segments)."""
    return WorkloadConfig.tiny(seed=11)


@pytest.fixture(scope="session")
def tiny_queries() -> QueryWorkload:
    """The unit-test query grid."""
    return QueryWorkload.tiny(seed=7)


@pytest.fixture(scope="session")
def tiny_segments(tiny_config):
    """The tiny workload's motion segments (read-only)."""
    return list(generate_motion_segments(tiny_config))


@pytest.fixture(scope="session")
def tiny_native(tiny_segments) -> NativeSpaceIndex:
    """Bulk-loaded native-space index over the tiny workload (read-only)."""
    index = NativeSpaceIndex(dims=2)
    index.bulk_load(tiny_segments)
    return index


@pytest.fixture(scope="session")
def tiny_dual(tiny_segments) -> DualTimeIndex:
    """Bulk-loaded dual-time index over the tiny workload (read-only)."""
    index = DualTimeIndex(dims=2)
    index.bulk_load(tiny_segments)
    return index


@pytest.fixture()
def rng() -> random.Random:
    """A per-test seeded RNG."""
    return random.Random(0xC0FFEE)


@pytest.fixture()
def segment_factory():
    """Expose :func:`make_segment` as a fixture."""
    return make_segment


@pytest.fixture()
def window_factory():
    """Expose :func:`window` as a fixture."""
    return window
