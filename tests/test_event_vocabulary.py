"""One event order for stores and blends: the canonical events, then every other name, sorted."""

from __future__ import annotations

from benchlens.dataset import Store, merge_into, read_store, save_canonical
from benchlens.events import CANONICAL_EVENTS, event_vocabulary
from benchlens.proxy import WorkloadProfile, _rate_array

UNMAPPED = ("zz_raw", "aa_raw", "Mm_raw", "cycles")  # not in name order, one canonical name among them


def test_canonical_events_come_first_and_the_rest_sorted_once():
    assert event_vocabulary(UNMAPPED + UNMAPPED) == CANONICAL_EVENTS + ("Mm_raw", "aa_raw", "zz_raw")
    assert event_vocabulary([]) == CANONICAL_EVENTS


def test_store_merge_and_blend_rates_share_the_order(tmp_path):
    def store(workload, events):
        return Store.from_cells([("s", workload, "m", event, 1.0, True) for event in events])

    expected = event_vocabulary(UNMAPPED)
    assert store("w1", UNMAPPED).events == expected
    save_canonical(store("w1", UNMAPPED[:2]), tmp_path / "store.csv")
    merge_into(tmp_path / "store.csv", store("w2", UNMAPPED[2:]))
    assert read_store(tmp_path / "store.csv").events == expected
    profiles = [WorkloadProfile(workload=f"w{i}", rates={event: 1.0}, duration=1.0) for i, event in enumerate(UNMAPPED)]
    assert _rate_array(profiles)[1] == expected
