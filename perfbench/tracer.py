"""Per-layer spans recorded from outside the package.

The tracer wraps the public functions and methods of each layer after
:mod:`repro` is imported; nothing inside ``src/`` knows it exists.  A
wrapper records one span per outermost call of its group: the call count,
the inclusive duration and the self time (the span minus the time its
child spans cover).  Re-entrant calls within the same group (a method
that calls its sibling, a recursion) fold into the outer span, so a
group's ``calls`` counts entries into the layer, not internal hops.

Spans are kept per thread, because the socket backend serves each worker
connection on its own thread.  Wire spans use the thread's CPU clock
instead of the wall clock: ``read_frame`` blocks on the socket while the
worker computes, and that wait is not codec work.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """Counters and self times per named layer group."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Work counters measured at a boundary (rows encoded, bytes written).
        self.counts: dict[str, float] = defaultdict(float)
        #: Inclusive duration of every span of groups that keep them.
        self.durations: dict[str, list[float]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, group, fn, *, clock=time.perf_counter, keep_durations=False, measure=None):
        """``fn`` wrapped to record spans under ``group``.

        ``measure(args, result)`` returns ``{counter: amount}`` to add to
        :attr:`counts` after each outermost call.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][0] == group:
                return fn(*args, **kwargs)
            frame = [group, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with self._lock:
                    self.calls[group] += 1
                    self.self_s[group] += elapsed - frame[1]
                    if keep_durations:
                        self.durations[group].append(elapsed)
            if measure is not None:
                extra = measure(args, result)
                with self._lock:
                    for name, amount in extra.items():
                        self.counts[name] += amount
            return result

        return wrapper

    def count_only(self, name, fn, amount):
        """``fn`` wrapped to add ``amount(result)`` to ``counts[name]``, no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            value = amount(result)
            if value:
                with self._lock:
                    self.counts[name] += value
            return result

        return wrapper


def rebind_function(original, wrapper) -> int:
    """Point every ``repro`` module global bound to ``original`` at ``wrapper``.

    Modules import functions by name (``from repro.utils.rng import
    derive_rng``), so patching the defining module alone would miss
    every caller.  Returns the number of bindings replaced.
    """
    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                replaced += 1
    if not replaced:
        raise RuntimeError(f"no module binds {original.__qualname__}; the layer moved")
    return replaced


def wrap_method(tracer, cls, method, group, **options) -> None:
    """Wrap ``method`` on ``cls`` and on every subclass that overrides it."""
    seen = set()
    pending = [cls]
    while pending:
        klass = pending.pop()
        if klass in seen:
            continue
        seen.add(klass)
        pending.extend(klass.__subclasses__())
        original = klass.__dict__.get(method)
        if original is not None:
            setattr(klass, method, tracer.wrap(group, original, **options))


def _rows(args, result):
    data = args[1]
    return {"ecc.encode.rows": data.shape[0] if getattr(data, "ndim", 1) == 2 else 1}


def _sent_frame(args, result):
    counts = {"wire.frames": 1, "wire.bytes": len(result)}
    # pack_frame(kind, body, ...): a task frame's body starts with its
    # chunk index, so a chunk sent twice was requeued (or resent).
    if args[0] == "task":
        counts[f"task:{args[1][0]}"] = 1
    return counts


def _read_frame(args, result):
    return {"wire.frames": 1} if result is not None else {}


def install() -> Tracer:
    """Wrap every layer boundary the benchmark reports on; return the tracer."""
    from repro.analysis import atrisk, probabilities
    from repro.ecc import linear_code
    from repro.experiments import fig10, fleet, runner, store, wire
    from repro.memory import error_model, faults, patterns
    from repro.profiling import runner as profiling_runner
    from repro.repair import policy
    from repro.utils import rng

    tracer = Tracer()

    def function(group, original, **options):
        rebind_function(original, tracer.wrap(group, original, **options))

    function("utils.derive_rng", rng.derive_rng)
    wrap_method(tracer, patterns.DataPattern, "rounds", "memory.pattern_rounds")
    function("memory.sample_chip_faults", faults.sample_chip_faults)
    function("memory.sample_word_profile", error_model.sample_word_profile)
    wrap_method(tracer, linear_code.SystematicCode, "encode", "ecc.encode", measure=_rows)
    wrap_method(
        tracer, linear_code.SystematicCode, "syndrome_ints_batch", "ecc.syndrome_ints_batch"
    )
    function("analysis.compute_ground_truth", atrisk.compute_ground_truth)
    wrap_method(tracer, atrisk.ChargeSystem, "constrain", "analysis.charge_system")
    wrap_method(tracer, atrisk.ChargeSystem, "with_charged", "analysis.charge_system")
    wrap_method(tracer, probabilities.WordBerAnalyzer, "unrepaired_ber", "analysis.ber")
    wrap_method(
        tracer, probabilities.WordBerAnalyzer, "residual_ber_after_secondary", "analysis.ber"
    )
    function("profiling.simulate_word", profiling_runner.simulate_word)
    function(
        "profiling.simulate_words_batched",
        profiling_runner.simulate_words_batched,
        measure=lambda args, result: {"profiling.simulate_words_batched.words": len(args[0])},
    )
    for shard_function in (runner.run_shard, fig10.run_case_shard, fleet.run_fleet_shard):
        function("experiments.shard", shard_function, keep_durations=True)
    function("experiments.metrics_for_words", runner.metrics_for_words)
    function("repair.plan_row_sparing", policy.plan_row_sparing)
    function("experiments.finalize_chip", fleet.finalize_chip)
    wrap_method(tracer, store.ShardStore, "append", "store.append")
    function("wire", wire.pack_frame, clock=time.thread_time, measure=_sent_frame)
    function("wire", wire.read_frame, clock=time.thread_time, measure=_read_frame)
    rebind_function(
        wire.recv_exact,
        tracer.count_only("wire.bytes", wire.recv_exact, lambda data: len(data or b"")),
    )
    return tracer
