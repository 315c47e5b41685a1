"""Unit and property tests for database cracking and its variants."""

import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import settings as engine_settings
from repro.engine import Database, Table
from repro.engine.column import Column
from repro.indexing import (
    CrackerIndex,
    CrackingVariant,
    HybridCrackSortIndex,
    PartitionedAdaptiveIndex,
    ScanIndex,
    SortedIndex,
    UpdatableCrackerIndex,
)


def brute_force(values: np.ndarray, low, high, low_inc=True, high_inc=True) -> set[int]:
    mask = np.ones(len(values), dtype=bool)
    if low is not None:
        mask &= values >= low if low_inc else values > low
    if high is not None:
        mask &= values <= high if high_inc else values < high
    return set(np.flatnonzero(mask).tolist())


@pytest.fixture()
def values() -> np.ndarray:
    return np.random.default_rng(7).integers(0, 1000, size=500)


class TestCrackerIndex:
    def test_single_range(self, values):
        index = CrackerIndex(values)
        got = set(index.lookup_range(100, 200).tolist())
        assert got == brute_force(values, 100, 200)

    def test_exclusive_bounds(self, values):
        index = CrackerIndex(values)
        got = set(index.lookup_range(100, 200, False, False).tolist())
        assert got == brute_force(values, 100, 200, False, False)

    def test_open_ranges(self, values):
        index = CrackerIndex(values)
        assert set(index.lookup_range(None, 50).tolist()) == brute_force(values, None, 50)
        assert set(index.lookup_range(950, None).tolist()) == brute_force(values, 950, None)
        assert set(index.lookup_range(None, None).tolist()) == set(range(len(values)))

    def test_repeated_queries_stay_correct(self, values):
        index = CrackerIndex(values)
        rng = np.random.default_rng(1)
        for _ in range(50):
            low = int(rng.integers(0, 900))
            high = low + int(rng.integers(1, 100))
            got = set(index.lookup_range(low, high).tolist())
            assert got == brute_force(values, low, high)
            assert index.is_consistent()

    def test_work_decreases_over_time(self):
        data = np.random.default_rng(3).integers(0, 1_000_000, size=50_000)
        index = CrackerIndex(data)
        costs = []
        rng = np.random.default_rng(4)
        for _ in range(60):
            low = int(rng.integers(0, 990_000))
            before = index.work_touched
            index.lookup_range(low, low + 10_000)
            costs.append(index.work_touched - before)
        early = float(np.mean(costs[:5]))
        late = float(np.mean(costs[-10:]))
        assert late < early / 3

    def test_num_pieces_grows(self, values):
        index = CrackerIndex(values)
        assert index.num_pieces == 1
        index.lookup_range(100, 200)
        assert index.num_pieces >= 2

    def test_empty_range(self, values):
        index = CrackerIndex(values)
        assert len(index.lookup_range(500, 500, False, False)) == 0

    def test_range_outside_domain(self, values):
        index = CrackerIndex(values)
        assert len(index.lookup_range(2000, 3000)) == 0
        assert len(index.lookup_range(-10, -1)) == 0

    @pytest.mark.parametrize("variant", list(CrackingVariant))
    def test_variants_all_correct(self, values, variant):
        index = CrackerIndex(values, variant=variant, random_crack_threshold=64)
        rng = np.random.default_rng(9)
        for _ in range(30):
            low = int(rng.integers(0, 900))
            high = low + int(rng.integers(1, 150))
            got = set(index.lookup_range(low, high).tolist())
            assert got == brute_force(values, low, high)
        assert index.is_consistent()

    def test_stochastic_beats_standard_on_sequential(self):
        data = np.random.default_rng(5).integers(0, 1_000_000, size=40_000)
        standard = CrackerIndex(data.copy(), variant="standard")
        stochastic = CrackerIndex(
            data.copy(), variant="stochastic", random_crack_threshold=1024
        )
        width = 5_000
        for start in range(0, 800_000, width):
            standard.lookup_range(start, start + width)
            stochastic.lookup_range(start, start + width)
        assert stochastic.work_touched < standard.work_touched

    def test_duplicate_heavy_data(self):
        data = np.random.default_rng(2).integers(0, 5, size=1000)
        index = CrackerIndex(data)
        for low in range(5):
            got = set(index.lookup_range(low, low).tolist())
            assert got == brute_force(data, low, low)
        assert index.is_consistent()

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(st.integers(-100, 100), min_size=1, max_size=120),
        queries=st.lists(
            st.tuples(st.integers(-120, 120), st.integers(0, 60)),
            min_size=1,
            max_size=12,
        ),
    )
    def test_property_matches_brute_force(self, data, queries):
        arr = np.asarray(data, dtype=np.int64)
        index = CrackerIndex(arr, variant="stochastic", random_crack_threshold=8)
        for low, width in queries:
            got = set(index.lookup_range(low, low + width).tolist())
            assert got == brute_force(arr, low, low + width)
            assert index.is_consistent()


class TestBaselines:
    def test_sorted_index_correct(self, values):
        index = SortedIndex(values)
        assert set(index.lookup_range(250, 400).tolist()) == brute_force(values, 250, 400)

    def test_sorted_index_lazy_build(self, values):
        index = SortedIndex(values, lazy=True)
        assert not index.is_built
        index.lookup_range(0, 10)
        assert index.is_built

    def test_scan_index_correct(self, values):
        index = ScanIndex(values)
        assert set(index.lookup_range(250, 400, False, True).tolist()) == brute_force(
            values, 250, 400, False, True
        )

    def test_scan_cost_is_flat(self, values):
        index = ScanIndex(values)
        index.lookup_range(0, 10)
        first = index.work_touched
        index.lookup_range(500, 510)
        assert index.work_touched == 2 * first


class TestHybrid:
    @pytest.mark.parametrize("flavour", ["crack", "sort"])
    def test_correct(self, values, flavour):
        index = HybridCrackSortIndex(values, num_partitions=8, flavour=flavour)
        rng = np.random.default_rng(11)
        for _ in range(25):
            low = int(rng.integers(0, 900))
            high = low + int(rng.integers(1, 120))
            got = set(index.lookup_range(low, high).tolist())
            assert got == brute_force(values, low, high)

    def test_repeated_range_gets_cheap(self, values):
        index = HybridCrackSortIndex(values, num_partitions=8)
        index.lookup_range(100, 300)
        mid = index.work_touched
        index.lookup_range(150, 250)  # fully covered by the merged range
        second = index.work_touched - mid
        assert second < mid / 2


class TestUpdatableCracker:
    def test_insert_visible_after_merge(self, values):
        index = UpdatableCrackerIndex(values)
        index.lookup_range(0, 1000)  # crack a bit first
        new_id = index.insert(123)
        got = set(index.lookup_range(120, 130).tolist())
        expected = brute_force(values, 120, 130) | {new_id}
        assert got == expected

    def test_delete_hides_rows(self, values):
        index = UpdatableCrackerIndex(values)
        target = int(np.flatnonzero(values == values[0])[0])
        index.delete(target)
        got = set(index.lookup_range(None, None).tolist())
        assert target not in got
        assert len(got) == len(values) - 1

    def test_out_of_range_updates_cost_nothing_extra(self, values):
        index = UpdatableCrackerIndex(values)
        index.lookup_range(100, 200)
        for value in range(900, 950):
            index.insert(value)
        merges_before = index.merges_performed
        index.lookup_range(100, 200)
        assert index.merges_performed == merges_before  # nothing merged
        assert index.pending_count == 50

    def test_interleaved_workload_correct(self):
        rng = np.random.default_rng(21)
        data = rng.integers(0, 1000, size=300)
        index = UpdatableCrackerIndex(data)
        shadow = {i: int(v) for i, v in enumerate(data)}
        for step in range(80):
            action = rng.random()
            if action < 0.3:
                value = int(rng.integers(0, 1000))
                new_id = index.insert(value)
                shadow[new_id] = value
            elif action < 0.4 and shadow:
                victim = int(rng.choice(list(shadow)))
                index.delete(victim)
                del shadow[victim]
            else:
                low = int(rng.integers(0, 900))
                high = low + int(rng.integers(1, 120))
                got = set(index.lookup_range(low, high).tolist())
                expected = {i for i, v in shadow.items() if low <= v <= high}
                assert got == expected
                assert index.is_consistent()

    @settings(max_examples=25, deadline=None)
    @given(
        initial=st.lists(st.integers(0, 50), min_size=1, max_size=40),
        operations=st.lists(
            st.one_of(
                st.tuples(st.just("insert"), st.integers(0, 50)),
                st.tuples(st.just("delete"), st.integers(0, 60)),
                st.tuples(st.just("query"), st.integers(0, 50)),
            ),
            max_size=25,
        ),
    )
    def test_property_insert_delete_query(self, initial, operations):
        arr = np.asarray(initial, dtype=np.int64)
        index = UpdatableCrackerIndex(arr)
        shadow = {i: int(v) for i, v in enumerate(arr)}
        for kind, value in operations:
            if kind == "insert":
                shadow[index.insert(value)] = value
            elif kind == "delete":
                # delete by ordinal position into the live shadow, so the
                # generator needs no knowledge of assigned row ids
                if shadow:
                    victim = sorted(shadow)[value % len(shadow)]
                    index.delete(victim)
                    del shadow[victim]
            else:
                got = set(index.lookup_range(value, value + 10).tolist())
                expected = {i for i, v in shadow.items() if value <= v <= value + 10}
                assert got == expected
                assert index.is_consistent()


# -- registered range indexes keep INT64 keys exact -----------------------------------

BIG = 2**53  # beyond it float64 folds neighbouring INT64 keys together

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_KEYS = st.integers(-(2**62), 2**62) | st.sampled_from([BIG - 1, BIG, BIG + 1, 1, 2, 3])


def _indexed_scan(make_index, initial, inserted, op, probe) -> None:
    """``SELECT x FROM t WHERE x <op> probe`` through a registered index
    answers what Python's exact comparison of the keys does.  ``inserted``
    rows are fed to the index by INSERT and merged as a pure append, which
    keeps it registered."""
    engine_settings.configure(shards=0)
    db = Database()
    db.create_table("t", Table([("x", Column(np.asarray(initial, dtype=np.int64)))]))
    index = make_index(db.main_table("t").column("x").data)
    db.register_index("t", "x", index)
    if inserted:
        db.execute("INSERT INTO t VALUES " + ", ".join(f"({v})" for v in inserted))
        db.flush_deltas("t")
    assert db.index_for("t", "x") is index
    got = db.sql(f"SELECT x FROM t WHERE x {op} {probe}").column("x").to_list()
    assert sorted(got) == sorted(v for v in initial + inserted if _OPS[op](v, probe))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_KEYS, min_size=1, max_size=12), st.lists(_KEYS, min_size=1, max_size=4),
    st.sampled_from(sorted(_OPS)), _KEYS,
)
@example([1, 2, 3], [BIG + 1], ">=", BIG + 1)
@example([1, 2, 3], [BIG - 1, BIG], ">", BIG - 1)
@example([BIG + 1, 2], [BIG, BIG - 1], "<", BIG)
def test_updatable_cracker_keeps_inserted_int64_keys(initial, inserted, op, probe):
    """Fails at the parent: inserts were queued as floats, so ``2**53 + 1``
    read as ``2**53`` and a query from ``2**53 + 1`` never merged it."""
    _indexed_scan(UpdatableCrackerIndex, initial, inserted, op, probe)


@settings(max_examples=40, deadline=None)
@given(st.lists(_KEYS, min_size=1, max_size=16), st.sampled_from(sorted(_OPS)), _KEYS)
@example([1, 2, BIG + 1, 3], ">", BIG)
@example([BIG - 1, 5, BIG, 7], ">=", BIG + 1)
@example([BIG + 1, 9, 1, 4], "<", BIG + 1)
def test_partitioned_index_keeps_int64_partition_bounds(values, op, probe):
    """Fails at the parent: partition bounds were floats, so the partition
    holding ``2**53 + 1`` looked as if its maximum were ``2**53``."""
    _indexed_scan(
        lambda keys: PartitionedAdaptiveIndex(keys, partition_size=2), values, [], op, probe
    )


@pytest.mark.parametrize("flavour", ["crack", "sort"])
@settings(max_examples=40, deadline=None)
@given(st.lists(_KEYS, min_size=1, max_size=16), st.sampled_from(sorted(_OPS)), _KEYS)
@example([1, 2, BIG + 1, 3], ">", BIG)
@example([BIG - 1, 5, BIG, 7], ">=", BIG + 1)
@example([BIG + 1, 9, 1, 4], "<", BIG + 1)
def test_hybrid_index_keeps_int64_keys(flavour, values, op, probe):
    """Fails at the parent: the final sorted run was float64."""
    _indexed_scan(
        lambda keys: HybridCrackSortIndex(keys, num_partitions=2, flavour=flavour),
        values, [], op, probe,
    )


@pytest.mark.parametrize("flavour", ["crack", "sort"])
def test_hybrid_index_remembers_which_bounds_it_merged(flavour):
    """Fails at the parent, which remembered every merged range as closed:
    after ``x > 5``, ``x >= 5`` lost the fives; after ``[10, 20)`` and
    ``[20, 30)``, ``(25, 30]`` lost the thirties."""
    db = Database()
    db.create_table("t", {"x": [5, 7, 3, 5, 9, 1]})
    db.register_index("t", "x", HybridCrackSortIndex(
        db.main_table("t").column("x").data, num_partitions=2, flavour=flavour
    ))
    assert sorted(db.sql("SELECT x FROM t WHERE x > 5").column("x").to_list()) == [7, 9]
    assert sorted(db.sql("SELECT x FROM t WHERE x >= 5").column("x").to_list()) == [5, 5, 7, 9]

    values = np.array([10, 30, 15, 25, 30, 20, 5, 29])
    index = HybridCrackSortIndex(values, num_partitions=2, flavour=flavour)
    for low, high in ((10, 20), (20, 30)):
        assert set(index.lookup_range(low, high, True, False).tolist()) == brute_force(
            values, low, high, True, False
        )
    assert set(index.lookup_range(25, 30, False, True).tolist()) == {1, 4, 7}


@pytest.mark.parametrize("flavour", ["crack", "sort"])
@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=30),
    st.lists(
        st.tuples(
            st.none() | st.integers(0, 12), st.none() | st.integers(0, 12),
            st.booleans(), st.booleans(),
        ),
        min_size=1, max_size=8,
    ),
)
def test_hybrid_query_sequences_match_brute_force(flavour, values, queries):
    """Any sequence of ranges, each bound open or closed, on a domain
    small enough that bounds collide with merged ones."""
    arr = np.asarray(values, dtype=np.int64)
    index = HybridCrackSortIndex(arr, num_partitions=3, flavour=flavour)
    for low, high, low_inc, high_inc in queries:
        got = index.lookup_range(low, high, low_inc, high_inc).tolist()
        assert len(got) == len(set(got))
        assert set(got) == brute_force(arr, low, high, low_inc, high_inc)
