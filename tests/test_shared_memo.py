"""Tests of the zero-copy shared cache tier.

Three layers are pinned here:

1. The block format round-trips: publishing entries and re-attaching in
   a simulated cold process yields the same values, with numpy payloads
   mapped as read-only zero-copy views and object payloads unpickling
   lazily on first lookup.
2. The memo layer consults the overlay on a local miss and accounts the
   resolution as a ``shared_hit`` (not a miss), so exactly-once-compute
   assertions elsewhere keep their meaning.
3. The engine contract: ``run_sweep(shared_cache=True)`` is bit-identical
   to the plain run, serial and pooled — the overlay stores exactly the
   values the caches would have computed.
"""

import pickle

import numpy as np
import pytest

from repro.analysis import shared_memo
from repro.analysis.memo import Memo, clear_analysis_caches
from repro.experiments.config import SweepConfig
from repro.experiments.runner import clear_engine_caches, run_sweep


@pytest.fixture(autouse=True)
def _clean_overlay():
    shared_memo.clear_shared_overlay()
    clear_analysis_caches()
    yield
    shared_memo.clear_shared_overlay()
    clear_analysis_caches()


def _publish_sample(install=True):
    arr = np.arange(24, dtype=np.uint64).reshape(4, 6)
    bits = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    obj = {"nested": [1, 2, (3, 4)], "label": "ground-truth-ish"}
    entries = {
        ("arr", 1): ("array", arr),
        ("bits", "x"): ("array", bits),
        ("obj", 7): ("pickle", obj),
    }
    return shared_memo.publish_entries(entries, install=install), arr, bits, obj


class TestPublishAttachRoundTrip:
    def test_publisher_overlay_holds_originals(self):
        block, arr, bits, obj = _publish_sample()
        try:
            assert shared_memo.overlay_lookup(("arr", 1)) is arr
            assert shared_memo.overlay_lookup(("obj", 7)) is obj
            assert shared_memo.overlay_size() == 3
        finally:
            block.destroy()

    def test_cold_attach_round_trips_every_entry(self):
        block, arr, bits, obj = _publish_sample()
        try:
            # Simulate a spawn-started worker: no inherited overlay.
            shared_memo.clear_shared_overlay()
            assert shared_memo.overlay_lookup(("arr", 1)) is shared_memo.MISS
            shared_memo.attach_worker(block.name)
            assert np.array_equal(shared_memo.overlay_lookup(("arr", 1)), arr)
            assert np.array_equal(shared_memo.overlay_lookup(("bits", "x")), bits)
            assert shared_memo.overlay_lookup(("obj", 7)) == obj
        finally:
            shared_memo.clear_shared_overlay()
            block.destroy()

    def test_attached_arrays_are_readonly_zero_copy_views(self):
        block, arr, _, _ = _publish_sample()
        try:
            shared_memo.clear_shared_overlay()
            shared_memo.attach_worker(block.name)
            view = shared_memo.overlay_lookup(("arr", 1))
            assert view.dtype == arr.dtype and view.shape == arr.shape
            assert not view.flags.owndata  # view over the shared buffer
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0, 0] = 99
            del view  # views pin the mapping; release before closing it
        finally:
            shared_memo.clear_shared_overlay()
            block.destroy()

    def test_pickle_entries_materialize_lazily_once(self):
        block, _, _, obj = _publish_sample()
        try:
            shared_memo.clear_shared_overlay()
            shared_memo.attach_worker(block.name)
            first = shared_memo.overlay_lookup(("obj", 7))
            assert first == obj and first is not obj
            # Second lookup returns the cached materialization.
            assert shared_memo.overlay_lookup(("obj", 7)) is first
        finally:
            shared_memo.clear_shared_overlay()
            block.destroy()

    def test_fork_inherited_attach_is_a_noop(self):
        block, arr, _, _ = _publish_sample()
        try:
            # The publisher installed the originals and recorded the block
            # name; attaching to the same name must keep the originals.
            shared_memo.attach_worker(block.name)
            assert shared_memo.overlay_lookup(("arr", 1)) is arr
        finally:
            block.destroy()

    def test_destroy_is_idempotent_and_blocks_new_attaches(self):
        block, _, _, _ = _publish_sample()
        shared_memo.clear_shared_overlay()
        block.destroy()
        block.destroy()
        with pytest.raises(FileNotFoundError):
            shared_memo.attach_worker(block.name)

    def test_alignment_of_array_payloads(self):
        # A leading odd-length pickle must not misalign the uint64 view.
        entries = {
            "odd": ("pickle", b"x" * 13),
            "words": ("array", np.arange(8, dtype=np.uint64)),
        }
        block = shared_memo.publish_entries(entries, install=False)
        try:
            shared_memo.attach_worker(block.name)
            view = shared_memo.overlay_lookup("words")
            assert np.array_equal(view, np.arange(8, dtype=np.uint64))
            assert pickle.loads(pickle.dumps(shared_memo.overlay_lookup("odd")))
            del view  # views pin the mapping; release before closing it
        finally:
            shared_memo.clear_shared_overlay()
            block.destroy()


class TestMemoOverlayIntegration:
    def test_local_miss_resolves_from_overlay_as_shared_hit(self):
        shared_memo.overlay_install({("k", 1): "shared-value"})
        memo = Memo(max_entries=4)
        calls = []
        value = memo.get(("k", 1), lambda: calls.append(1) or "computed")
        assert value == "shared-value"
        assert calls == []
        assert memo.stats.shared_hits == 1
        assert memo.stats.misses == 0
        # Now resident locally: the next get is an ordinary hit.
        assert memo.get(("k", 1), lambda: "computed") == "shared-value"
        assert memo.stats.hits == 1

    def test_absent_key_still_computes_exactly_once(self):
        memo = Memo(max_entries=4)
        calls = []
        memo.get("absent", lambda: calls.append(1) or 42)
        memo.get("absent", lambda: calls.append(1) or 42)
        assert calls == [1]
        assert memo.stats.misses == 1 and memo.stats.hits == 1


class TestSweepBitIdentity:
    CONFIG = SweepConfig(
        num_codes=2,
        words_per_code=3,
        num_rounds=48,
        error_counts=(2,),
        probabilities=(0.5, 1.0),
    )

    def test_shared_cache_is_bit_identical_serial_and_pooled(self):
        plain = run_sweep(self.CONFIG)
        serial = run_sweep(self.CONFIG, shared_cache=True)
        pooled = run_sweep(self.CONFIG, jobs=2, shared_cache=True)
        assert serial.cells == plain.cells
        assert pooled.cells == plain.cells
        assert serial.quarantined == plain.quarantined == pooled.quarantined

    def test_block_is_destroyed_after_the_sweep(self):
        run_sweep(self.CONFIG, shared_cache=True)
        # The overlay may stay warm in-process, but the block itself is
        # unlinked: publishing again must mint a fresh block.
        block = shared_memo.publish_entries(shared_memo.sweep_entries(self.CONFIG))
        assert block.entries > 0
        block.destroy()

    def test_sweep_entries_match_engine_computations(self):
        entries = shared_memo.sweep_entries(self.CONFIG)
        kinds = {key[0] for key in entries}
        assert kinds == {"swords", "pairs"}
        # The published word contexts are exactly what the engine samples
        # cold; workers build each block's simulation arrays themselves.
        from repro.experiments.runner import _words_for

        clear_engine_caches()
        clear_analysis_caches()
        shared_memo.clear_shared_overlay()
        for error_count in self.CONFIG.error_counts:
            published = entries[("swords", self.CONFIG, error_count)]
            assert published == ("pickle", _words_for(self.CONFIG, error_count))
