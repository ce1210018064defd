"""Per-word profiling simulation (the paper's Monte-Carlo inner loop).

For one ECC word — a code, an at-risk profile, and an error seed — this
module simulates ``R`` rounds of a profiler and records the cumulative
identified set after every round.

Fairness (paper §7.1.2: "each profiler is evaluated with the exact same set
of ECC words, pre-correction error patterns, and data patterns"): the
Bernoulli randomness is a pre-drawn uniform matrix ``U[round, at_risk_bit]``
derived from the word seed alone, so two profilers testing the same word
see identical draws; an at-risk bit fails in a round iff it is charged by
that profiler's pattern *and* its draw clears the per-bit probability.
Pattern-independent draws make the comparison deterministic and unbiased.

Decode semantics use the integer-syndrome shortcut: a round with failed
positions ``T`` has syndrome ``xor of H-columns over T``; the correction
lookup then yields the post-correction error set in O(|T|) — no dense
matrix decode in the hot loop.

Every driver enters through :func:`simulate_cell`, which builds a
cell's profilers, picks each one's kernel from the profiler class alone
(``batched`` and not ``adaptive``: :func:`simulate_words_batched`;
otherwise :func:`simulate_word`) and hands all profilers of a word one
complete :class:`WordArtifacts` (standard schedule, its encoding,
failure draws) — the only way inputs reach either kernel.  One
function builds them, :func:`cell_artifacts`: every random-pattern
schedule in one vectorized :func:`~repro.memory.patterns.random_rounds`
pass, and one encode per code.  ``simulate_cell`` calls it for the
words it is given, unless the caller (the sweep, which reuses each word
across cells) passes the artifacts it built the same way.  Adaptive
profilers serve bootstrap/fallback rounds from them via
``Profiler.attach_standard_schedule``.  Within a run,
repeated failure patterns memoize their decode consequences; crafted
patterns memoize their charge masks as integer bitmasks in a
process-wide per-word scope, so the adaptive per-round failure check is
a single int AND; and the cumulative trace sets are rebuilt only on
rounds where the profiler's state actually moved (tracked through
``Profiler.observation_count``).  All of it is
bit-identical to the straight-line loop — ``tests/test_sweep_engine.py``
and ``tests/test_adaptive_caches.py`` pin that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.memo import code_caches
from repro.ecc.linear_code import SystematicCode
from repro.memory.cells import CellOrientation
from repro.memory.error_model import WordErrorProfile, check_profile_positions
from repro.memory.patterns import DataPattern, RandomPattern, make_pattern, random_rounds
from repro.profiling.base import Profiler, ReadMode
from repro.utils.rng import derive_rng

__all__ = [
    "WordArtifacts",
    "WordRunResult",
    "cell_artifacts",
    "simulate_cell",
    "simulate_word",
    "simulate_words_batched",
    "post_correction_data_errors",
    "post_correction_data_errors_batch",
    "clear_charge_mask_cache",
]


#: Interned (word positions, failure bitmask) -> failed-positions tuple.
#: Value-only cache (no invalidation hazard); the cap bounds pathological
#: sweeps, normal grids hold a few thousand entries.
_PATTERN_TUPLES: dict[tuple, tuple[int, ...]] = {}
_PATTERN_TUPLES_MAX = 1 << 20

#: Cross-run charge-mask cache for adaptive (crafted) patterns: the mask
#: is pure in (code, at-risk positions, orientation, written dataword),
#: and the sweep engine re-simulates each word once per (probability,
#: profiler) cell with largely overlapping crafted patterns.  Two-level:
#: scope (code, positions, orientation) -> {pattern bytes -> int mask},
#: so the per-(word, run) inner dict is fetched once per simulation and
#: the hot path never re-hashes the code.  Masks are integer bitmasks
#: (bit i = at-risk position i), making the per-round failure check a
#: single int AND; process-local like every other engine cache.
_charge_mask_cache: dict = {}
_CHARGE_MASK_MAX_SCOPES = 8192


def _pack_bits(mask: np.ndarray) -> int:
    """Pack a boolean vector into an integer bitmask (bit i = element i)."""
    return int.from_bytes(
        np.packbits(mask, bitorder="little").tobytes(), "little"
    )


def clear_charge_mask_cache() -> None:
    """Empty the cross-run charge-mask cache (tests and benchmarks)."""
    _charge_mask_cache.clear()


def post_correction_data_errors(code: SystematicCode, failed: tuple[int, ...]) -> frozenset[int]:
    """Exact post-correction data-error positions for a failure pattern."""
    if not failed:
        return frozenset()
    syndrome = 0
    for position in failed:
        syndrome ^= code.column_int(position)
    correction = code.correction_for_syndrome(syndrome)
    post = set(failed)
    if correction:
        post ^= set(correction)
    return frozenset(p for p in post if p < code.k)


def post_correction_data_errors_batch(
    code: SystematicCode, patterns: Sequence[tuple[int, ...]]
) -> list[frozenset[int]]:
    """Batched :func:`post_correction_data_errors` over failure patterns.

    Builds one indicator matrix over all patterns and resolves every
    syndrome through a single multi-RHS GF(2) product
    (:meth:`~repro.ecc.linear_code.SystematicCode.syndrome_ints_batch`,
    which takes the popcount product at scale) instead of per-pattern
    column XORs.  Bit-identical to mapping the scalar helper.
    """
    if not patterns:
        return []
    indicators = np.zeros((len(patterns), code.n), dtype=np.uint8)
    for row, failed in enumerate(patterns):
        indicators[row, list(failed)] = 1
    syndrome_ints = code.syndrome_ints_batch(indicators)
    k = code.k
    results: list[frozenset[int]] = []
    for failed, syndrome in zip(patterns, syndrome_ints.tolist()):
        if not failed:
            results.append(frozenset())
            continue
        correction = code.correction_for_syndrome(syndrome)
        post = set(failed)
        if correction:
            post ^= set(correction)
        results.append(frozenset(p for p in post if p < k))
    return results


@dataclass
class WordRunResult:
    """Per-round identification trace of one (profiler, word) simulation.

    Attributes:
        identified_per_round: cumulative identified set (observation and
            prediction channels merged) after each round — what the repair
            mechanism would know.
        observed_per_round: cumulative observation-channel set after each
            round (used for the paper's direct-coverage metric, which
            footnote 5 defines identically for HARP-U and HARP-A).
        failures_per_round: the pre-correction failure pattern of each
            round (simulation ground truth, for analysis).
    """

    identified_per_round: list[frozenset[int]]
    observed_per_round: list[frozenset[int]]
    failures_per_round: list[tuple[int, ...]]

    @property
    def num_rounds(self) -> int:
        return len(self.identified_per_round)

    def final_identified(self) -> frozenset[int]:
        return self.identified_per_round[-1] if self.identified_per_round else frozenset()


def _failure_draws(word_seed: int, num_rounds: int, count: int) -> np.ndarray:
    """Pre-drawn uniform variates, shape (num_rounds, at-risk count)."""
    return derive_rng(word_seed, "failure-draws").random((num_rounds, count))


def _failure_tuples(
    failed_matrix: np.ndarray, positions: np.ndarray, num_rounds: int
) -> list[tuple[int, ...]]:
    """Per-round failed-position tuples from a boolean (rounds, at-risk) mask.

    One ``nonzero`` pass plus splitting on the cumulative row counts
    replaces the per-element dict loop: ``nonzero`` is row-major, so each
    row's columns come out ascending (matching the sorted profile
    positions) and the running counts are exactly the row boundaries.
    The split slices a single ``tolist`` materialization — cheaper than
    ``np.split``'s per-piece view construction on dense masks.
    """
    failed_by_round: list[tuple[int, ...]] = [()] * num_rounds
    counts = np.count_nonzero(failed_matrix, axis=1)
    rows = np.flatnonzero(counts)
    if rows.size:
        mapped = positions[np.nonzero(failed_matrix)[1]].tolist()
        bounds = np.cumsum(counts[rows]).tolist()
        start = 0
        for row, stop in zip(rows.tolist(), bounds):
            failed_by_round[row] = tuple(mapped[start:stop])
            start = stop
    return failed_by_round


def _follows_standard_schedule(profiler: Profiler) -> bool:
    """Whether ``profiler`` writes its standard pattern schedule verbatim."""
    return type(profiler).pattern_for_round is Profiler.pattern_for_round


@dataclass(frozen=True)
class WordArtifacts:
    """The simulation inputs every run of one word shares.

    All profilers of a word — within a :func:`simulate_cell` call, and
    across the sweep's (probability, profiler) cells — see the same
    standard pattern schedule and encoding (pure in pattern, word seed and
    code) and failure draws (pure in the word seed).  One complete
    instance per word is the only way inputs reach the kernels; the
    contents must match the run's (pattern, code, profile, ``num_rounds``,
    ``word_seed``) exactly and are trusted.

    Attributes:
        schedule: ``(num_rounds, k)`` datawords of the *standard* pattern
            schedule.  Adaptive profilers serve their bootstrap/fallback
            rounds from it; a non-adaptive profiler that overrides
            ``pattern_for_round`` ignores it on the scalar path, and the
            batched kernel refuses one.
        codewords: ``(num_rounds, n)`` encoding of ``schedule``.
        draws: ``(num_rounds, profile.count)`` uniform failure variates,
            as produced by the ``word_seed``-derived stream.
    """

    schedule: np.ndarray
    codewords: np.ndarray
    draws: np.ndarray


def simulate_word(
    profiler: Profiler,
    profile: WordErrorProfile,
    num_rounds: int,
    word_seed: int,
    orientation: CellOrientation | None = None,
    artifacts: WordArtifacts | None = None,
) -> WordRunResult:
    """Run a profiler against one ECC word for ``num_rounds`` rounds.

    Non-adaptive profilers (pattern schedule independent of observations)
    take a vectorized fast path: all patterns are encoded in one batch and
    all failure draws resolved in one array operation.  Adaptive profilers
    (BEEP and hybrids) interleave pattern crafting with observations and
    run sequentially.  Both paths produce bit-identical traces for
    non-adaptive profilers because the draws are pattern-independent.

    Args:
        orientation: cell orientation; ``None`` (the paper's model) means
            all true cells, where a stored 1 is the charged/vulnerable
            state.  With anti cells a stored 0 is vulnerable instead.
        artifacts: the word's precomputed inputs (see
            :class:`WordArtifacts`); ``None`` derives everything from the
            profiler and ``word_seed`` — the reference the tests compare
            against.  The result is bit-identical either way.
    """
    code = profiler.code
    check_profile_positions(profile, code.n)
    if artifacts is None:
        draws = _failure_draws(word_seed, num_rounds, profile.count)
    elif artifacts.draws.shape != (num_rounds, profile.count):
        raise ValueError(
            f"precomputed draws shape {artifacts.draws.shape} != "
            f"({num_rounds}, {profile.count})"
        )
    else:
        draws = artifacts.draws
    probabilities = np.asarray(profile.probabilities, dtype=float)
    positions = np.asarray(profile.positions, dtype=np.intp)

    def charge_of(codeword_bits: np.ndarray) -> np.ndarray:
        """Charged mask restricted to the at-risk positions."""
        if orientation is None:
            return codeword_bits[..., positions].astype(bool)
        return orientation.charged_mask(codeword_bits)[..., positions].astype(bool)

    identified_trace: list[frozenset[int]] = []
    observed_trace: list[frozenset[int]] = []
    failure_trace: list[tuple[int, ...]] = []

    if profiler.adaptive:
        written_rounds = None
        if artifacts is not None:
            # Adaptive profilers fall back to the base schedule on
            # bootstrap rounds; serving those rows from the precomputed
            # artifact skips the per-round RNG re-derivation.
            profiler.attach_standard_schedule(artifacts.schedule)
    else:
        # The precomputed schedule is only valid for profilers that follow
        # the base schedule verbatim; a subclass overriding
        # pattern_for_round falls back to materializing its own rounds.
        if artifacts is not None and _follows_standard_schedule(profiler):
            written_rounds = artifacts.schedule
            codewords = artifacts.codewords
        else:
            written_rounds = np.stack(
                [profiler.pattern_for_round(r) for r in range(num_rounds)]
            )
            codewords = code.encode(written_rounds) if profile.count else None
        if profile.count:
            failed_matrix = charge_of(codewords) & (draws < probabilities)
            failed_by_round = _failure_tuples(failed_matrix, positions, num_rounds)
        else:
            failed_by_round = [()] * num_rounds

    # Failure patterns repeat across rounds (always at p=1.0, often below),
    # and decode consequences are pure in (code, mode, pattern).  A
    # per-run dict fronts the shared analysis-layer memo
    # (CodeAnalysisCaches.decode_consequences), so repeated cells on the
    # same code — and shared-memory workers — reuse each other's decodes
    # while the per-round hot path stays a plain dict hit.
    analysis_caches = code_caches(code)
    mismatch_cache: dict[tuple[str, tuple[int, ...]], frozenset[int]] = {}
    previous_observed_count = -1
    previous_predicted: frozenset[int] | None = None
    current_identified: frozenset[int] = frozenset()
    current_observed: frozenset[int] = frozenset()

    if written_rounds is None and profile.count:
        # The adaptive loop runs round by round; packing the Bernoulli
        # draws and charge masks into per-round integer bitmasks turns
        # the failure check into one int AND instead of numpy ops.
        below_rows = np.packbits(draws < probabilities, axis=1, bitorder="little")
        below_ints = [int.from_bytes(row.tobytes(), "little") for row in below_rows]
        position_values = profile.positions
        # Adaptive profilers revisit the same crafted pattern many times;
        # the encode + charge-mask pipeline is pure in the written
        # dataword, and the process-wide scope dict also collapses
        # repeats across the cells that re-simulate this word.
        charge_mask_scope = (
            code,
            profile.positions,
            None if orientation is None else orientation.true_cell_mask.tobytes(),
        )
        charged_cache = _charge_mask_cache.get(charge_mask_scope)
        if charged_cache is None:
            if len(_charge_mask_cache) >= _CHARGE_MASK_MAX_SCOPES:
                _charge_mask_cache.clear()
            charged_cache = _charge_mask_cache[charge_mask_scope] = {}

    for round_index in range(num_rounds):
        if written_rounds is None:
            written = profiler.pattern_for_round(round_index)
            if profile.count:
                pattern_key = written.tobytes()
                charged = charged_cache.get(pattern_key)
                if charged is None:
                    charged = _pack_bits(charge_of(code.encode(written)))
                    charged_cache[pattern_key] = charged
                failed_bits = charged & below_ints[round_index]
                if failed_bits:
                    failed_list = []
                    while failed_bits:
                        low_bit = failed_bits & -failed_bits
                        failed_list.append(position_values[low_bit.bit_length() - 1])
                        failed_bits ^= low_bit
                    failed = tuple(failed_list)
                else:
                    failed = ()
            else:
                failed = ()
        else:
            written = written_rounds[round_index]
            failed = failed_by_round[round_index]
        failure_trace.append(failed)

        mode = profiler.read_mode_for(round_index)
        key = (mode, failed)
        mismatches = mismatch_cache.get(key)
        if mismatches is None:
            if mode == ReadMode.BYPASS:
                # Raw data bits: mismatches are exactly the failed data
                # positions.
                mismatches = analysis_caches.decode_consequences(
                    mode, failed, lambda: frozenset(p for p in failed if p < code.k)
                )
            else:
                mismatches = analysis_caches.decode_consequences(
                    mode, failed, lambda: post_correction_data_errors(code, failed)
                )
            mismatch_cache[key] = mismatches
        profiler.observe(round_index, written, mismatches)
        # Rebuild the cumulative frozensets only when the profiler's state
        # moved: the observation channel is add-only (``observation_count``
        # is its change fingerprint) and the prediction channel is compared
        # by value.
        observed_count = profiler.observation_count
        predicted = profiler.identified_predicted
        if observed_count != previous_observed_count or predicted != previous_predicted:
            current_identified = profiler.identified
            current_observed = profiler.identified_observed
            previous_observed_count = observed_count
            previous_predicted = predicted
        identified_trace.append(current_identified)
        observed_trace.append(current_observed)

    return WordRunResult(
        identified_per_round=identified_trace,
        observed_per_round=observed_trace,
        failures_per_round=failure_trace,
    )


def simulate_words_batched(
    profilers: Sequence[Profiler],
    profiles: Sequence[WordErrorProfile],
    num_rounds: int,
    word_seeds: Sequence[int],
    orientation: CellOrientation | None = None,
    artifacts: Sequence[WordArtifacts] | None = None,
) -> list[WordRunResult]:
    """Simulate a whole cell of words through one vectorized pass.

    The cell-batched twin of :func:`simulate_word` for non-adaptive
    profilers that declare :attr:`~repro.profiling.base.Profiler.batched`:
    each word's encoded schedule and draws come from its
    :class:`WordArtifacts`, failure draws resolve through a single 3-D
    charged-mask comparison over the words' at-risk columns, the distinct
    failure patterns of the whole batch decode through one multi-RHS syndrome
    product per (code, read mode) — shared with every other run through
    the promoted decode-consequence memo — and each profiler consumes its
    run as compressed mismatch events
    (:meth:`~repro.profiling.base.Profiler.observe_many`), so cumulative
    sets materialize only at trace change points.  Bit-identical to
    calling :func:`simulate_word` per word, under both GF(2) products —
    property-tested in ``tests/test_batched_kernel.py`` and pinned at
    >=3x in ``benchmarks/bench_batched_words.py``.

    Args:
        profilers: one fresh profiler instance per word (same contract as
            the scalar path: a profiler is consumed by its run).
        profiles: per-word at-risk profiles.
        num_rounds: rounds to simulate (same for every word of a cell).
        word_seeds: per-word failure-draw seeds.
        orientation: cell orientation shared by the batch (``None`` =
            all true cells).
        artifacts: one complete :class:`WordArtifacts` per word; ``None``
            builds them for this call from each profiler's own pattern.

    Raises:
        ValueError: for an adaptive or non-``batched`` profiler, one that
            overrides ``pattern_for_round`` (the kernel only writes the
            standard schedule), or length mismatches.
    """
    count = len(profilers)
    if len(profiles) != count or len(word_seeds) != count:
        raise ValueError(
            f"batch length mismatch: {count} profilers, {len(profiles)} "
            f"profiles, {len(word_seeds)} word seeds"
        )
    if artifacts is not None and len(artifacts) != count:
        raise ValueError(f"batch length mismatch: {len(artifacts)} artifacts for {count} words")
    for profiler in profilers:
        if profiler.adaptive or not profiler.batched:
            raise ValueError(
                f"profiler {profiler.name!r} does not support the batched "
                "kernel (adaptive or batched=False); use simulate_word"
            )
        if not _follows_standard_schedule(profiler):
            raise ValueError(
                f"batched profiler {profiler.name!r} overrides pattern_for_round; "
                "the batched kernel only writes the standard schedule"
            )
    if not count:
        return []
    for profiler, profile in zip(profilers, profiles):
        check_profile_positions(profile, profiler.code.n)
    if not num_rounds:
        return [WordRunResult([], [], []) for _ in range(count)]

    if artifacts is None:
        artifacts = cell_artifacts(
            [profiler.code for profiler in profilers],
            [profiler._pattern for profiler in profilers],
            [profile.count for profile in profiles],
            word_seeds,
            num_rounds,
        )

    # ------------------------------------------------------------------
    # Batched failure resolution: one 3-D mask comparison per uniform
    # at-risk-count group, then one nonzero/split pass turning the whole
    # group's failures into per-round tuples.
    # ------------------------------------------------------------------
    failed_by_word: list[list[tuple[int, ...]]] = [[()] * num_rounds for _ in range(count)]
    first_rounds_per_word: list[dict[tuple[int, ...], int]] = [{} for _ in range(count)]
    groups: dict[int, list[int]] = {}
    for index, profile in enumerate(profiles):
        if profile.count:
            groups.setdefault(profile.count, []).append(index)

    def charged_bits(codewords: np.ndarray) -> np.ndarray:
        return codewords if orientation is None else orientation.charged_mask(codewords)

    for at_risk, indices in groups.items():
        positions2 = np.array([profiles[i].positions for i in indices], dtype=np.intp)
        # Gather each word's at-risk columns before stacking: the
        # (words, rounds, at-risk) block is a fraction of the codewords.
        charged = np.stack(
            [
                charged_bits(artifacts[i].codewords)[:, positions]
                for i, positions in zip(indices, positions2)
            ]
        ).astype(bool)
        draws3 = np.stack([artifacts[i].draws for i in indices])
        probabilities2 = np.array([profiles[i].probabilities for i in indices], dtype=float)
        failed = charged & (draws3 < probabilities2[:, None, :])
        group_size = len(indices)
        if at_risk + max(group_size - 1, 1).bit_length() <= 62:
            # Pack each round's failure pattern into an int64 bitmask and
            # the word's group-local index into the bits above it: one
            # ``np.unique`` over the whole group finds every distinct
            # (word, pattern) pair and its first flat index — which is
            # word-major and round-ascending, exactly the event order the
            # ``observe_many`` contract needs.  Tuples are then built per
            # *distinct* pattern, not per nonzero round.
            weights = np.int64(1) << np.arange(at_risk, dtype=np.int64)
            masks2 = failed.astype(np.int64) @ weights
            keys = masks2.ravel() | (
                np.arange(group_size, dtype=np.int64).repeat(num_rounds) << at_risk
            )
            uniq_keys, first_idx = np.unique(keys, return_index=True)
            order = np.argsort(first_idx)
            low_bits = (np.int64(1) << at_risk) - 1
            masks_sorted = (uniq_keys[order] & low_bits).tolist()
            positions_lists = positions2.tolist()
            mask_maps: list[dict[int, tuple[int, ...]] | None] = [None] * group_size
            # The distinct pairs arrive word-major: hoist the per-word
            # lookups out of the (much longer) per-pattern stream.
            prev_local = -1
            positions_key: tuple[int, ...] = ()
            positions_row: list[int] = []
            first_rounds: dict = {}
            mapping = {}
            intern_get = _PATTERN_TUPLES.get
            for idx, mask in zip(first_idx[order].tolist(), masks_sorted):
                if not mask:
                    continue
                local = idx // num_rounds
                if local != prev_local:
                    prev_local = local
                    word_index = indices[local]
                    positions_key = profiles[word_index].positions
                    positions_row = positions_lists[local]
                    first_rounds = first_rounds_per_word[word_index]
                    mapping = mask_maps[local] = {0: ()}
                # Patterns recur heavily across sweep cells (every
                # probability level and profiler revisits the same word):
                # intern (positions, mask) -> tuple so repeats share one
                # object and skip the rebuild.
                intern_key = (positions_key, mask)
                failed_tuple = intern_get(intern_key)
                if failed_tuple is None:
                    failed_tuple = tuple(
                        [pos for bit, pos in enumerate(positions_row) if (mask >> bit) & 1]
                    )
                    if len(_PATTERN_TUPLES) >= _PATTERN_TUPLES_MAX:
                        _PATTERN_TUPLES.clear()
                    _PATTERN_TUPLES[intern_key] = failed_tuple
                mapping[mask] = failed_tuple
                first_rounds[failed_tuple] = (idx % num_rounds, failed_tuple)
            all_masks = masks2.tolist()
            for local, word_index in enumerate(indices):
                mapping = mask_maps[local]
                if mapping is None:
                    continue  # no failures: the all-empty default stands
                failed_by_word[word_index] = [mapping[v] for v in all_masks[local]]
            continue
        flat = failed.reshape(len(indices) * num_rounds, at_risk)
        counts = np.count_nonzero(flat, axis=1)
        rows = np.flatnonzero(counts)
        if not rows.size:
            continue
        row_counts = counts[rows]
        words_of_rows = rows // num_rounds
        mapped = positions2[
            np.repeat(words_of_rows, row_counts), np.nonzero(flat)[1]
        ].tolist()
        bounds = np.cumsum(row_counts).tolist()
        # nonzero is row-major: rows ascend word-major then round-major,
        # so each word's first occurrence of a pattern is recorded at its
        # earliest round and event insertion order is ascending by round.
        # Slicing one tolist materialization beats np.split's per-piece
        # view construction; interning repeated tuples through the
        # first-rounds dict keeps dense (p=1.0) traces to one object.
        start = 0
        for row, word, stop in zip(rows.tolist(), words_of_rows.tolist(), bounds):
            failed_tuple = tuple(mapped[start:stop])
            start = stop
            word_index = indices[word]
            first_rounds = first_rounds_per_word[word_index]
            interned = first_rounds.get(failed_tuple)
            if interned is None:
                first_rounds[failed_tuple] = (row % num_rounds, failed_tuple)
            else:
                failed_tuple = interned[1]
            failed_by_word[word_index][row % num_rounds] = failed_tuple

    # ------------------------------------------------------------------
    # Batched decode consequences: the distinct (code, mode, pattern)
    # triples of the whole batch resolve through the shared memo; misses
    # group per (code, mode) into one multi-RHS syndrome product.
    # ------------------------------------------------------------------
    resolved: dict[tuple[int, str, tuple[int, ...]], frozenset[int]] = {}
    probe_groups: dict[tuple[int, str], tuple] = {}
    handles: list = [None] * count
    modes: list[str] = [""] * count
    for index, profiler in enumerate(profilers):
        first_rounds = first_rounds_per_word[index]
        handle = handles[index] = code_caches(profiler.code)
        # ``batched`` profilers declare a round-independent read mode.
        mode = modes[index] = profiler.read_mode_for(0)
        if not first_rounds:
            continue
        cache_key = (id(handle), mode)
        group = probe_groups.get(cache_key)
        if group is None:
            group = probe_groups[cache_key] = (handle, profiler.code, {})
        patterns = group[2]
        for failed_tuple in first_rounds:
            patterns[failed_tuple] = None
    for (handle_id, mode), (handle, code, pattern_set) in probe_groups.items():
        patterns = list(pattern_set)
        cached = handle.peek_decode_consequences_many(mode, patterns)
        misses: list[tuple[int, ...]] = []
        for failed_tuple, mismatches in zip(patterns, cached):
            if mismatches is None:
                misses.append(failed_tuple)
            else:
                resolved[(handle_id, mode, failed_tuple)] = mismatches
        if not misses:
            continue
        if mode == ReadMode.BYPASS:
            k = code.k
            consequences = [frozenset(p for p in f if p < k) for f in misses]
        else:
            consequences = post_correction_data_errors_batch(code, misses)
        for failed_tuple, mismatches in zip(misses, consequences):
            handle.insert_decode_consequences(mode, failed_tuple, mismatches)
            resolved[(handle_id, mode, failed_tuple)] = mismatches

    # ------------------------------------------------------------------
    # Compressed observation replay + segment-filled trace assembly.
    # ------------------------------------------------------------------
    results: list[WordRunResult] = []
    for index, profiler in enumerate(profilers):
        handle_id = id(handles[index])
        mode = modes[index]
        events = [
            (round_index, resolved[(handle_id, mode, failed_tuple)])
            for failed_tuple, (round_index, _) in first_rounds_per_word[index].items()
        ]
        changes = profiler.observe_many(events)
        identified_trace: list[frozenset[int]] = []
        observed_trace: list[frozenset[int]] = []
        current_identified: frozenset[int] = frozenset()
        current_observed: frozenset[int] = frozenset()
        for round_index, identified, observed in changes:
            gap = round_index - len(identified_trace)
            if gap:
                identified_trace.extend([current_identified] * gap)
                observed_trace.extend([current_observed] * gap)
            current_identified = identified
            current_observed = observed
            identified_trace.append(identified)
            observed_trace.append(observed)
        gap = num_rounds - len(identified_trace)
        if gap:
            identified_trace.extend([current_identified] * gap)
            observed_trace.extend([current_observed] * gap)
        results.append(
            WordRunResult(
                identified_per_round=identified_trace,
                observed_per_round=observed_trace,
                failures_per_round=failed_by_word[index],
            )
        )
    return results


def cell_artifacts(
    codes: Sequence[SystematicCode],
    patterns: Sequence[DataPattern],
    counts: Sequence[int],
    word_seeds: Sequence[int],
    num_rounds: int,
) -> list[WordArtifacts]:
    """Build every word's :class:`WordArtifacts`, the only way kernel inputs are made.

    Word ``i``'s schedule is ``patterns[i]`` materialized over
    ``num_rounds`` rounds, and its failure draws are ``(num_rounds,
    counts[i])`` variates from ``word_seeds[i]``.  The random-pattern
    words of each ``k`` draw in one
    :func:`~repro.memory.patterns.random_rounds` call, which only pays
    off over many words at once; each code then encodes all its words'
    schedules in one product.  Every array is read-only, because every
    profiler of a word — and every sweep cell that reuses it — reads the
    same ones.
    """
    schedules: list[np.ndarray] = [None] * len(codes)  # type: ignore[list-item]
    random_words: dict[int, list[int]] = {}
    for index, (code, pattern) in enumerate(zip(codes, patterns)):
        if type(pattern) is RandomPattern:
            random_words.setdefault(code.k, []).append(index)
        else:
            schedules[index] = pattern.rounds(num_rounds, code.k)
    for k, indices in random_words.items():
        drawn = random_rounds([patterns[i].seed for i in indices], num_rounds, k)
        for index, schedule in zip(indices, drawn):
            schedules[index] = schedule
    artifacts: list[WordArtifacts] = [None] * len(codes)  # type: ignore[list-item]
    for code in {id(code): code for code in codes}.values():
        indices = [index for index, other in enumerate(codes) if other is code]
        stacked = np.concatenate([schedules[i] for i in indices])
        encoded = code.encode(stacked)
        stacked.setflags(write=False)
        encoded.setflags(write=False)
        for offset, index in enumerate(indices):
            rows = slice(offset * num_rounds, (offset + 1) * num_rounds)
            draws = _failure_draws(word_seeds[index], num_rounds, counts[index])
            draws.setflags(write=False)
            artifacts[index] = WordArtifacts(stacked[rows], encoded[rows], draws)
    return artifacts


def simulate_cell(
    profiler_names: Sequence[str],
    codes: Sequence[SystematicCode],
    profiles: Sequence[WordErrorProfile],
    word_seeds: Sequence[int],
    num_rounds: int,
    pattern: str = "random",
    artifacts: Sequence[WordArtifacts] | None = None,
) -> dict[str, list[WordRunResult]]:
    """Run every named profiler over the same words: the one entry point.

    The only code that builds profilers and picks a kernel.  Word ``i``
    is ``(codes[i], profiles[i], word_seeds[i])``; its seed drives the
    failure draws and every profiler's ``pattern``, so all profilers of
    a word share one schedule, encoding and draw matrix (paper §7.1.2).
    The profiler class alone picks the kernel: non-adaptive ``batched``
    classes take :func:`simulate_words_batched`, the rest
    :func:`simulate_word`; both are bit-identical.  A caller reusing
    words across calls (the sweep) passes their ``artifacts``, one per
    word, built by :func:`cell_artifacts`; otherwise they are built for
    this call alone, so a caller gains most by passing all its words in
    one call.  Returns ``{name: [run of each word]}``.
    """
    from repro.profiling import PROFILER_REGISTRY  # the package imports this module

    count = len(codes)
    if not len(profiles) == len(word_seeds) == count:
        raise ValueError(
            f"cell length mismatch: {count} codes, {len(profiles)} profiles, {len(word_seeds)} seeds"
        )
    classes = {name: PROFILER_REGISTRY[name] for name in profiler_names}
    if not count or not classes:
        return {name: [] for name in classes}
    if artifacts is None:
        artifacts = cell_artifacts(
            codes,
            [make_pattern(pattern, seed) for seed in word_seeds],
            [profile.count for profile in profiles],
            word_seeds,
            num_rounds,
        )
    elif len(artifacts) != count:
        raise ValueError(f"cell length mismatch: {len(artifacts)} artifacts for {count} words")

    results: dict[str, list[WordRunResult]] = {}
    for name, cls in classes.items():
        if cls.batched and not cls.adaptive:
            results[name] = simulate_words_batched(
                [cls(code, seed=seed, pattern=pattern) for code, seed in zip(codes, word_seeds)],
                profiles,
                num_rounds,
                word_seeds,
                artifacts=artifacts,
            )
        else:
            # Built one at a time: a finished run keeps only its trace.
            results[name] = [
                simulate_word(
                    cls(code, seed=seed, pattern=pattern), profile, num_rounds, seed, artifacts=art
                )
                for code, profile, seed, art in zip(codes, profiles, word_seeds, artifacts)
            ]
    return results
