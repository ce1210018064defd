"""Zero-copy shared tier for the analysis and engine caches.

The memo layer (:mod:`repro.analysis.memo`) and the engine caches
(:mod:`repro.experiments.runner`) are process-local: every pool worker
re-derives the sweep's codes, sampled words, ground truths and aliasing
tables for itself.  Under a ``fork`` start method the workers inherit
the parent's warm caches copy-on-write, but a ``spawn`` worker starts
cold and a pool whose workers outlive many chunks still pays one
warm-up per worker.

This module promotes those caches to a **shared tier**:

1. :func:`sweep_entries` precomputes the costly per-code artifacts of a
   sweep once in the parent — word contexts (with their exponential
   ground-truth enumerations) and the full aliasing-pair tables of every
   code — and :func:`publish_entries` serializes them into one
   :class:`multiprocessing.shared_memory.SharedMemory` block (the fleet
   publishes :func:`repro.experiments.fleet.fleet_entries` the same way).
2. Pool workers attach with :func:`attach_worker` (wired up as the
   :class:`~repro.experiments.backends.ProcessPoolBackend` initializer by
   the campaign loop under ``shared_cache=True``).  Numpy payloads are
   mapped as **read-only zero-copy views** over the shared block; object
   payloads (word contexts, pair tables) unpickle lazily on first use,
   at most once per worker.
3. Cache lookups consult the overlay on a local miss:
   :meth:`repro.analysis.memo.Memo.get` checks :func:`overlay_lookup`
   before computing, and the runner's ``_words_for`` does the same, so
   a worker's first touch of any precomputed key costs a dict hit
   instead of a re-derivation.  Workers build their blocks' pattern
   schedules, encodings and failure draws themselves, in one vectorized
   pass per block.

On Linux the default ``fork`` start makes step 2 a no-op: the parent
installs the *original* objects in its own overlay before the pool is
created, so children inherit the warm overlay (and the warm caches
themselves) copy-on-write, and :func:`attach_worker` detects the
inherited block by name and skips re-attaching.  The shared block earns
its keep under ``spawn`` (cold workers) and as an explicit lifetime: the
parent unlinks it after the map, bounding the sweep's residency.

Lifecycle contract: the block lives strictly within one
``run_sweep(shared_cache=True)`` (or ``fleet.run``) call — publish
before the pool exists, attach at worker start, destroy (close +
unlink) in the parent after the map drains.  Attached workers keep their mapping alive until process
exit; POSIX keeps the segment valid for them after the unlink.

Results are bit-identical with the shared tier on or off — the overlay
stores exactly the values the caches would have computed (the tests pin
this) — so like every cache layer in this repo it is purely a
performance feature.  The socket backend is out of scope: its workers
may live on other machines, where shared memory cannot reach; they rely
on their own process-local warm-up exactly as before.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Hashable

import numpy as np

__all__ = [
    "MISS",
    "SharedCacheBlock",
    "overlay_lookup",
    "overlay_install",
    "overlay_size",
    "clear_shared_overlay",
    "publish_entries",
    "attach_worker",
]

#: Sentinel returned by :func:`overlay_lookup` when a key has no shared value.
MISS = object()

#: Payload offsets are aligned so zero-copy views keep natural alignment.
_ALIGN = 16

#: key -> materialized shared value (original objects in the publishing
#: parent; zero-copy views / lazily-unpickled objects in attached workers).
_overlay: dict[Hashable, Any] = {}

#: key -> (offset, length) of a pickle payload not yet materialized.
_lazy_pickles: dict[Hashable, tuple[int, int]] = {}

#: The attached block's buffer (kept referenced so views stay valid).
_attached: shared_memory.SharedMemory | None = None

#: Name of the block this process's overlay came from (publish or attach).
_block_name: str | None = None


def overlay_lookup(key: Hashable, default: Any = MISS) -> Any:
    """The shared value for ``key``, or ``default`` when absent.

    Zero-copy array entries are resolved eagerly at attach time; pickled
    object entries materialize here on first lookup and are then cached
    in the overlay, so repeated lookups are single dict hits.
    """
    value = _overlay.get(key, MISS)
    if value is not MISS:
        return value
    location = _lazy_pickles.pop(key, None)
    if location is None or _attached is None:
        return default
    offset, length = location
    value = pickle.loads(bytes(_attached.buf[offset : offset + length]))
    _overlay[key] = value
    return value


def overlay_install(entries: dict[Hashable, Any]) -> None:
    """Install already-materialized values into this process's overlay."""
    _overlay.update(entries)


def overlay_size() -> int:
    """Number of resolvable shared keys (materialized + lazy)."""
    return len(_overlay) + len(_lazy_pickles)


def clear_shared_overlay() -> None:
    """Drop every shared entry (tests; also run on block destruction)."""
    global _attached, _block_name
    _overlay.clear()
    _lazy_pickles.clear()
    if _attached is not None:
        try:
            _attached.close()
        except BufferError:  # pragma: no cover - views still exported
            pass
        _attached = None
    _block_name = None


@dataclass
class SharedCacheBlock:
    """Handle on a published block, owned by the publishing parent."""

    name: str
    size: int
    entries: int
    _shm: shared_memory.SharedMemory

    def destroy(self) -> None:
        """Close and unlink the block (idempotent).

        Attached workers that already mapped the segment keep it alive
        until they exit; new attaches fail, which is the point — the
        block's lifetime is the map it was published for.
        """
        global _block_name
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - parent holds no views
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double destroy
            pass
        if _block_name == self.name:
            _block_name = None


def _serialize(entries: dict[Hashable, tuple[str, Any]]) -> tuple[bytes, list, int]:
    """Lay out payloads: returns (payload bytes, index, payload size).

    ``entries`` maps key -> ("array", ndarray) | ("pickle", object).
    Index rows are ``(key, kind, offset, length, dtype_str, shape)`` with
    offsets relative to the payload base.
    """
    index: list[tuple] = []
    parts: list[bytes] = []
    offset = 0
    for key, (kind, value) in entries.items():
        if kind == "array":
            data = np.ascontiguousarray(value)
            blob = data.tobytes()
            index.append((key, "array", offset, data.nbytes, data.dtype.str, data.shape))
        else:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            index.append((key, "pickle", offset, len(blob), None, None))
        parts.append(blob)
        offset += len(blob)
        padding = (-offset) % _ALIGN
        if padding:
            parts.append(b"\0" * padding)
            offset += padding
    return b"".join(parts), index, offset


def publish_entries(
    entries: dict[Hashable, tuple[str, Any]], install: bool = True
) -> SharedCacheBlock:
    """Serialize ``entries`` into a fresh shared-memory block.

    ``entries`` maps cache key -> ``("array", ndarray)`` or
    ``("pickle", object)``.  With ``install`` (the default) the original
    objects also go straight into this process's overlay, so children
    forked afterwards inherit warm values without touching the block.
    """
    global _block_name
    payload, index, _ = _serialize(entries)
    index_blob = pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL)
    header = len(index_blob).to_bytes(8, "little")
    total = len(header) + len(index_blob) + len(payload)
    shm = shared_memory.SharedMemory(create=True, size=max(1, total))
    cursor = 0
    for blob in (header, index_blob, payload):
        shm.buf[cursor : cursor + len(blob)] = blob
        cursor += len(blob)
    if install:
        overlay_install({key: value for key, (_, value) in entries.items()})
        _block_name = shm.name
    return SharedCacheBlock(name=shm.name, size=total, entries=len(index), _shm=shm)


def attach_worker(name: str) -> None:
    """Pool-worker initializer: map the published block into this process.

    A ``fork`` child that already inherited the publisher's overlay (the
    block name matches) returns immediately — its values are the
    parent's own objects, shared copy-on-write.  Otherwise the block is
    attached, array entries become read-only zero-copy views over the
    shared buffer, and pickle entries are recorded for lazy
    materialization.
    """
    global _attached, _block_name
    if _block_name == name:
        return
    clear_shared_overlay()
    shm = shared_memory.SharedMemory(name=name)
    # The resource tracker would otherwise unlink the segment again when
    # this worker exits (and warn about a leak it did not cause): the
    # publishing parent owns the lifetime, attachers only borrow it.
    try:  # pragma: no cover - tracker registration varies by platform
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass
    header = bytes(shm.buf[:8])
    index_length = int.from_bytes(header, "little")
    index = pickle.loads(bytes(shm.buf[8 : 8 + index_length]))
    base = 8 + index_length
    for key, kind, offset, length, dtype, shape in index:
        if kind == "array":
            view = np.frombuffer(
                shm.buf, dtype=np.dtype(dtype), count=int(np.prod(shape, dtype=np.int64)),
                offset=base + offset,
            ).reshape(shape)
            view.setflags(write=False)
            _overlay[key] = view
        else:
            _lazy_pickles[key] = (base + offset, length)
    _attached = shm
    _block_name = name


def sweep_entries(config) -> dict[Hashable, tuple[str, Any]]:
    """Precompute every shareable artifact of one sweep config.

    Walks the same builders the engine uses (warming the parent's own
    caches as a side effect, which the fork path inherits directly) and
    returns the overlay entries keyed exactly as the caches look them
    up:

    * ``("swords", config, error_count)`` — the word contexts, including
      each word's enumerated :class:`~repro.analysis.atrisk.GroundTruth`
      (consumed by ``runner._words_for``);
    * ``("pairs", code_key, target)`` for every codeword position of
      every sweep code — the BEEP aliasing tables, keyed as
      :mod:`repro.analysis.memo` keys them.
    """
    # Function-local imports: this module sits below memo/runner in the
    # import graph (memo consults the overlay on every miss).
    from repro.analysis.memo import _code_key, cached_aliasing_pairs
    from repro.experiments import runner

    entries: dict[Hashable, tuple[str, Any]] = {}
    codes = {}
    for error_count in config.error_counts:
        words = runner._words_for(config, error_count)
        entries[("swords", config, error_count)] = ("pickle", words)
        for ctx in words:
            codes[_code_key(ctx.code)] = ctx.code
    for code_key, code in codes.items():
        for target in range(code.n):
            entries[("pairs", code_key, target)] = (
                "pickle",
                cached_aliasing_pairs(code, target),
            )
    return entries
