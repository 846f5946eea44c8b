"""Tests for Idx-Filter / Pending-PR-Table semantics (filter + coalesce)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filtering import (
    anchored_drops,
    filter_and_coalesce,
    first_occurrence_positions,
)


def test_no_duplicates_nothing_dropped():
    idxs = np.arange(100)
    res = filter_and_coalesce(idxs, n_units=4, batch_size=8, inflight_window=16)
    assert res.n_issued == 100
    assert res.n_dropped == 0
    assert res.fc_rate == 0.0


def test_empty_stream():
    res = filter_and_coalesce(np.array([], dtype=np.int64))
    assert res.n_total == 0
    assert res.fc_rate == 0.0


def test_same_unit_duplicate_coalesced():
    # Two occurrences within the window, same unit (single unit).
    idxs = np.array([5, 5])
    res = filter_and_coalesce(idxs, n_units=1, batch_size=10, inflight_window=100)
    assert res.n_issued == 1
    assert res.n_coalesced == 1
    assert res.n_filtered == 0


def test_completed_duplicate_filtered_any_unit():
    # Second occurrence far beyond the window, on a different unit.
    idxs = np.array([7] + [100 + i for i in range(50)] + [7])
    res = filter_and_coalesce(idxs, n_units=2, batch_size=4, inflight_window=10)
    assert res.n_filtered == 1
    assert res.n_coalesced == 0
    assert res.n_issued == 51


def test_cross_unit_inflight_duplicate_escapes():
    """Duplicates in flight from different units are NOT eliminated
    (the paper's no-cross-unit-synchronization design decision)."""
    # batch_size=1 -> positions 0 and 1 are units 0 and 1.
    idxs = np.array([9, 9])
    res = filter_and_coalesce(idxs, n_units=2, batch_size=1, inflight_window=100)
    assert res.n_issued == 2
    assert res.n_dropped == 0


def test_filtering_disabled():
    idxs = np.array([7] + list(range(100, 150)) + [7])
    res = filter_and_coalesce(
        idxs, n_units=2, batch_size=4, inflight_window=10,
        enable_filtering=False,
    )
    assert res.n_filtered == 0
    # Different batch -> possibly different unit; the late duplicate is
    # "completed" so coalescing doesn't catch it either.
    assert res.n_coalesced == 0


def test_coalescing_disabled():
    idxs = np.array([5, 5])
    res = filter_and_coalesce(
        idxs, n_units=1, batch_size=10, inflight_window=100,
        enable_coalescing=False,
    )
    assert res.n_issued == 2


def test_unit_assignment_round_robin():
    idxs = np.arange(12)
    res = filter_and_coalesce(idxs, n_units=3, batch_size=2, inflight_window=1)
    np.testing.assert_array_equal(
        res.unit_of, [0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2]
    )


def test_parameter_validation():
    with pytest.raises(ValueError):
        filter_and_coalesce(np.array([1]), n_units=0)
    with pytest.raises(ValueError):
        filter_and_coalesce(np.array([1]), batch_size=0)
    with pytest.raises(ValueError):
        filter_and_coalesce(np.array([1]), inflight_window=-1)


def test_fc_rate_definition():
    idxs = np.array([1, 1, 1, 1])
    res = filter_and_coalesce(idxs, n_units=1, batch_size=8, inflight_window=100)
    assert res.n_issued == 1
    assert res.fc_rate == pytest.approx(0.75)


@settings(max_examples=200, deadline=None)
@given(
    idxs=st.lists(st.integers(0, 30), max_size=300),
    n_units=st.integers(1, 8),
    batch=st.integers(1, 64),
    window=st.integers(0, 200),
    filt=st.booleans(),
    coal=st.booleans(),
)
def test_property_first_occurrence_always_issued(idxs, n_units, batch, window,
                                                 filt, coal):
    """INVARIANT: the set of issued idxs equals the set of needed idxs —
    elimination never loses a property."""
    arr = np.array(idxs, dtype=np.int64)
    res = filter_and_coalesce(
        arr, n_units=n_units, batch_size=batch, inflight_window=window,
        enable_filtering=filt, enable_coalescing=coal,
    )
    issued = set(arr[res.issued_mask].tolist())
    assert issued == set(idxs)
    # Bookkeeping adds up.
    assert res.n_issued + res.n_filtered + res.n_coalesced == len(idxs)


@settings(max_examples=100, deadline=None)
@given(
    idxs=st.lists(st.integers(0, 10), min_size=1, max_size=200),
    window=st.integers(0, 50),
)
def test_property_single_unit_full_dedup_within_window_or_filter(idxs, window):
    """With one unit and both mechanisms on, every duplicate is dropped:
    coalescing catches in-flight ones, filtering the completed ones."""
    arr = np.array(idxs, dtype=np.int64)
    res = filter_and_coalesce(arr, n_units=1, batch_size=32,
                              inflight_window=window)
    assert res.n_issued == len(set(idxs))


@settings(max_examples=100, deadline=None)
@given(idxs=st.lists(st.integers(0, 20), max_size=200))
def test_property_disabling_both_issues_everything(idxs):
    arr = np.array(idxs, dtype=np.int64)
    res = filter_and_coalesce(arr, enable_filtering=False,
                              enable_coalescing=False)
    assert res.n_issued == len(idxs)


@settings(max_examples=300, deadline=None)
@given(
    idxs=st.lists(st.integers(0, 40), max_size=300),
    n_units=st.integers(1, 8),
    batch=st.integers(1, 64),
    window=st.integers(0, 200),
    filt=st.booleans(),
    coal=st.booleans(),
    batch2=st.integers(1, 64),
)
def test_property_anchored_drops_match_filter_and_coalesce(
        idxs, n_units, batch, window, filt, coal, batch2):
    """The cluster model's anchor-reusing filter issues exactly the PRs
    :func:`filter_and_coalesce` issues — also when the batch-invariant
    ``base`` of one batch size is reused for another."""
    arr = np.array(idxs, dtype=np.int64)
    fp = first_occurrence_positions(arr)
    base = None
    for b in (batch, batch2):
        drop_filter, drop_coalesce, base = anchored_drops(
            fp, n_units, b, window, filt, coal, base=base,
        )
        ref = filter_and_coalesce(
            arr, n_units=n_units, batch_size=b, inflight_window=window,
            enable_filtering=filt, enable_coalescing=coal,
        )
        np.testing.assert_array_equal(~(drop_filter | drop_coalesce),
                                      ref.issued_mask)
        assert int(drop_filter.sum()) == ref.n_filtered
        assert int(drop_coalesce.sum()) == ref.n_coalesced
