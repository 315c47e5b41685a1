"""Cross-structure property tests (hypothesis).

Each property pins an invariant the corresponding paper's correctness
argument rests on, over adversarial random inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexing import HybridCrackSortIndex, PartitionedAdaptiveIndex
from repro.prefetch import SemanticRangeCache
from repro.synopses import EquiDepthHistogram, HaarWaveletSynopsis
from repro.viz import m4_reduce, reduction_error


def brute_range(values: np.ndarray, low, high) -> set[int]:
    return set(np.flatnonzero((values >= low) & (values < high)).tolist())


class TestHybridProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.lists(st.integers(0, 200), min_size=4, max_size=150),
        queries=st.lists(
            st.tuples(st.integers(0, 200), st.integers(1, 60)),
            min_size=1,
            max_size=10,
        ),
        flavour=st.sampled_from(["crack", "sort"]),
        partitions=st.integers(1, 6),
    )
    def test_matches_brute_force(self, data, queries, flavour, partitions):
        values = np.asarray(data, dtype=np.int64)
        index = HybridCrackSortIndex(values, num_partitions=partitions, flavour=flavour)
        for low, width in queries:
            got = set(index.lookup_range(low, low + width, True, False).tolist())
            assert got == brute_range(values, low, low + width)


class TestPartitionedProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.lists(st.integers(-100, 100), min_size=1, max_size=200),
        queries=st.lists(
            st.tuples(st.integers(-120, 120), st.integers(0, 80)),
            min_size=1,
            max_size=8,
        ),
        partition_size=st.integers(1, 64),
    )
    def test_matches_brute_force(self, data, queries, partition_size):
        values = np.asarray(data, dtype=np.int64)
        index = PartitionedAdaptiveIndex(values, partition_size=partition_size)
        for low, width in queries:
            got = set(index.lookup_range(low, low + width, True, False).tolist())
            assert got == brute_range(values, low, low + width)


class TestSemanticCacheProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(
            st.floats(0, 100, allow_nan=False), min_size=1, max_size=150
        ),
        queries=st.lists(
            st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0, 50, allow_nan=False)),
            min_size=1,
            max_size=12,
        ),
    )
    def test_always_matches_direct_scan(self, data, queries):
        values = np.asarray(data, dtype=np.float64)

        def fetch(low, high):
            return np.flatnonzero((values >= low) & (values < high))

        cache = SemanticRangeCache(fetch)
        for low, width in queries:
            high = low + width
            got = set(cache.query_filtered(low, high, values).tolist())
            assert got == brute_range(values, low, high)

    @settings(max_examples=30, deadline=None)
    @given(
        queries=st.lists(
            st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0.1, 50, allow_nan=False)),
            min_size=2,
            max_size=15,
        )
    )
    def test_coverage_intervals_stay_disjoint_and_sorted(self, queries):
        values = np.linspace(0, 100, 50)

        def fetch(low, high):
            return np.flatnonzero((values >= low) & (values < high))

        cache = SemanticRangeCache(fetch)
        for low, width in queries:
            cache.query(low, low + width)
            coverage = cache.coverage()
            for (a_lo, a_hi), (b_lo, b_hi) in zip(coverage[:-1], coverage[1:]):
                assert a_hi <= b_lo, "intervals must stay disjoint and sorted"


class TestM4Properties:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(10, 2_000),
        width=st.integers(1, 50),
        seed=st.integers(0, 100),
    )
    def test_output_subset_and_extremes_kept(self, n, width, seed):
        rng = np.random.default_rng(seed)
        x = np.arange(n, dtype=float)
        y = rng.normal(size=n)
        rx, ry = m4_reduce(x, y, width)
        assert len(rx) <= max(4 * width, n)
        pairs = set(zip(x.tolist(), y.tolist()))
        assert all((a, b) in pairs for a, b in zip(rx.tolist(), ry.tolist()))
        assert float(y.max()) in ry
        assert float(y.min()) in ry
        assert y[0] in ry and y[-1] in ry
        assert np.all(np.diff(rx) >= 0), "output stays in x order"

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(10, 2_000),
        width=st.integers(1, 50),
        seed=st.integers(0, 100),
    )
    def test_keeps_the_rows_a_per_bucket_loop_keeps(self, n, width, seed):
        """Duplicate ``x`` and ties in ``y``: per pixel column the first,
        the last, and the first minimum and first maximum in (x, row) order."""
        rng = np.random.default_rng(seed)
        x = rng.integers(0, n // 2 + 1, size=n).astype(float)
        y = rng.integers(0, 6, size=n).astype(float)
        by_x = sorted(range(n), key=lambda i: (x[i], i))
        kept = by_x
        if n > 4 * width:
            low = x.min()
            span = (x.max() - low) or 1.0
            buckets: dict[int, list[int]] = {}
            for i in by_x:
                pixel = min(max(int((x[i] - low) / span * width), 0), width - 1)
                buckets.setdefault(pixel, []).append(i)
            keep = set()
            for rows in buckets.values():
                keep |= {rows[0], rows[-1]}
                keep |= {min(rows, key=lambda i: y[i]), max(rows, key=lambda i: y[i])}
            kept = sorted(keep, key=lambda i: (x[i], i))
        rx, ry = m4_reduce(x, y, width)
        assert rx.tolist() == x[kept].tolist() and ry.tolist() == y[kept].tolist()
        assert reduction_error(x, y, rx, ry, width=width) == 0.0


class TestSynopsisProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=300),
        buckets=st.integers(2, 64),
    )
    def test_histogram_total_mass_conserved(self, data, buckets):
        values = np.asarray(data, dtype=np.float64)
        histogram = EquiDepthHistogram(values, num_buckets=buckets)
        full = histogram.estimate_range_count(values.min() - 1, values.max() + 1)
        assert full == pytest.approx(len(values), rel=0.02)

    @settings(max_examples=20, deadline=None)
    @given(
        data=st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=200),
    )
    def test_wavelet_full_coefficients_conserve_mass(self, data):
        values = np.asarray(data, dtype=np.float64)
        synopsis = HaarWaveletSynopsis(values, num_coefficients=128, grid_size=128)
        total = synopsis.estimate_range_count(values.min() - 1, values.max() + 1)
        assert total == pytest.approx(len(values), rel=0.05, abs=0.5)
