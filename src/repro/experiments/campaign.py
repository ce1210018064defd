"""The one campaign loop behind every driver: shards -> backend -> store.

The paper's evaluation is a set of Monte-Carlo campaigns, run as
parallel jobs and aggregated afterwards (§A.7).  Each driver —
:func:`~repro.experiments.runner.run_sweep`,
:func:`repro.experiments.fig10.run` and :func:`repro.experiments.fleet.run`
— decomposes its grid into picklable shards and aggregates their
results; :func:`run_campaign` is everything in between: the ``--resume``
refusals (all before the store is opened for append), backend
resolution, the workload fields of status snapshots, the pending
filter, ``--progress`` lines, the completion-order append loop, the
quarantine markers, and the ``--shared-cache`` block's lifetime.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from repro.analysis import shared_memo
from repro.experiments.backends import ProcessPoolBackend, resolve_backend
from repro.experiments.monitor import ProgressReporter
from repro.experiments.store import ShardStore, StoreContents, StoreFormat, config_to_dict

__all__ = ["Campaign", "run_campaign"]


class Campaign(NamedTuple):
    """Every shard result of a campaign, persisted ones included."""

    #: The campaign's shards, in grid order.
    shards: list
    #: Shard key -> result: resumed shards first, then completion order.
    results: dict
    #: Shard key -> compute seconds, for the results that recorded them.
    seconds: dict
    #: Keys of the shards a continue-past-quarantine backend set aside.
    quarantined: tuple


def run_campaign(
    store_format: StoreFormat,
    config,
    grid: Callable[[Any], list],
    worker: Callable,
    chunksize: int | Callable[[int], int] = 1,
    jobs: int | None = None,
    backend=None,
    resume: str | None = None,
    progress: bool | float = False,
    shared_entries: Callable | None = None,
    describe: Callable[[list], dict] | None = None,
) -> Campaign:
    """Map ``worker`` over ``grid(config)``, resumable, observable and quarantine-aware.

    ``store_format`` is the driver's :data:`~repro.experiments.store.STORE_FORMATS`
    entry, and ``resume`` needs ``config`` to be its config class.
    ``grid(config)`` gives the picklable shards in grid order, each with
    a ``key``; ``worker`` is a module-level ``shard -> (result,
    seconds)`` (the socket backend ships it by name); ``chunksize`` may
    be a function of the backend's worker count.  ``shared_entries``
    maps the config to the overlay entries ``--shared-cache`` publishes,
    and ``describe`` maps the shards to extra status-snapshot fields.
    ``jobs``, ``backend``, ``resume`` and ``progress`` are the drivers'
    own arguments.
    """
    if resume is not None and config_to_dict(config, store_format.config) is None:
        raise ValueError(
            f"resume requires the library {store_format.config.__name__}: an "
            "opaque config cannot be verified against the store, so stale "
            f"{store_format.unit} from a different experiment could silently "
            "leak into the result"
        )
    shards = grid(config)
    # Resolve (and validate) the backend before any store side effects:
    # a bad spec must not leave a header-only store file behind.  A
    # backend resolved here from a spec is closed here (a socket spec's
    # server and workers end with the campaign); an instance stays its
    # caller's.
    executor = resolve_backend(backend, jobs)
    owned = None if executor is backend else executor
    store: ShardStore | None = None
    shared_block = None
    try:
        if hasattr(executor, "campaign_info"):
            executor.campaign_info = {
                "workload": store_format.name,
                "shards": len(shards),
                **(describe(shards) if describe is not None else {}),
            }
        persisted = StoreContents(None, {}, {})
        if resume is not None:
            store = ShardStore(resume, store_format)
            persisted = store.load()
            if persisted.results and persisted.config is None:
                raise ValueError(
                    f"{resume} holds {store_format.unit} but does not record the "
                    f"{store_format.label} config that produced them; refusing to "
                    f"reuse {store_format.unit} that cannot be verified (use a "
                    "fresh --resume path)"
                )
            if persisted.config is not None and persisted.config != config:
                raise ValueError(
                    f"{resume} was written by a different {store_format.label} "
                    "config; refusing to mix results (use a fresh --resume path)"
                )
        results, seconds = persisted.results, persisted.seconds
        pending = [shard for shard in shards if shard.key not in results]
        reporter = None
        if progress is not False and progress is not None:
            # A number is the cadence in seconds: 0.0 reports every shard.
            interval = 10.0 if progress is True else float(progress)
            reporter = ProgressReporter(len(shards), unit=store_format.unit, interval=interval)
        if shared_entries is not None:
            # Publish BEFORE the pool exists: ProcessPoolBackend creates its
            # executor inside the map call, so fork children inherit the
            # warm overlay and spawn children attach via the initializer.
            shared_block = shared_memo.publish_entries(shared_entries(config))
            if isinstance(executor, ProcessPoolBackend) and executor.jobs > 1:
                executor = ProcessPoolBackend(
                    executor.jobs,
                    initializer=shared_memo.attach_worker,
                    initargs=(shared_block.name,),
                )
        if store is not None:
            store.open(config)
        if reporter is not None:
            reporter.start(done=len(results), cell_seconds=sum(seconds.values()))
        if callable(chunksize):
            chunksize = chunksize(executor.worker_hint())
        # Completion order, not shard order: every finished shard becomes
        # durable the moment any worker delivers it, so a crash loses at
        # most the chunks still in flight — never completed stragglers
        # held back behind a slow ordered prefix.
        for index, (result, elapsed) in executor.imap_unordered(
            worker, pending, chunksize=chunksize
        ):
            key = pending[index].key
            results[key] = result
            seconds[key] = elapsed
            if store is not None:
                store.append(key, result, elapsed)
            if reporter is not None:
                reporter.completed(elapsed)
        quarantined = tuple(pending[index].key for index in executor.quarantined_shards)
        if store is not None:
            for key in quarantined:
                store.append_quarantine(key)
        if reporter is not None:
            reporter.finish(quarantined=len(quarantined))
    finally:
        if store is not None:
            store.close()
        if shared_block is not None:
            # The pool has drained (or died) by the time the map loop
            # exits; attached workers keep their mapping, new attaches
            # must fail — the block's lifetime is exactly this map.
            shared_block.destroy()
        if owned is not None:
            owned.close()
    return Campaign(shards, results, seconds, quarantined)
