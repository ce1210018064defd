"""Per-word profiling simulation (the paper's Monte-Carlo inner loop).

For one ECC word — a code, an at-risk profile, and an error seed — this
module simulates ``R`` rounds of a profiler and records the change points
of its cumulative identified set and the round count
(:class:`WordRunResult`): a round yields one exactly when the profiler's
:meth:`~repro.profiling.base.Profiler.observe` says its state may have
moved.  No per-round failure log is kept: a round's failure pattern is a
pure function of the word's artifacts and the dataword written, so a test
recomputes it from those.

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
(``batched`` and writing its standard schedule:
:func:`simulate_words_batched`; otherwise :func:`simulate_word`) and
hands all profilers of a word one
complete :class:`WordArtifacts` (the encoded standard schedule and the
failure draws) — the only way inputs reach either kernel.  One function
builds them, :func:`cell_artifacts`: every random-pattern schedule in
one vectorized :func:`~repro.memory.patterns.random_rounds` pass, and
one encode per code.  ``simulate_cell`` calls it for the words it is
given, unless the caller (the sweep, which reuses each word across
cells) passes the artifacts it built the same way.

:func:`simulate_word` runs one loop for every profiler.  Standard rounds
take their failure bitmasks from the artifacts' codewords in one
vectorized pass.  A crafted round
(:meth:`~repro.profiling.base.Profiler.crafted_for_round`) stays a
Python int from the charge solver to the failure check: an at-risk
position's charge is the parity of its selector (the data bit, or its
row of ``P``) ANDed with the dataword, so no crafted round is encoded or
unpacked.  Within a run, charge masks and mismatch sets are memoized by
bitmask, and the cumulative sets are read only on rounds whose
``observe`` reports a change.  The batched kernel finds each word's
distinct failure patterns and their first rounds in one pass and takes
the run's change points straight from
:meth:`~repro.profiling.base.Profiler.observe_many`.  All of it is
bit-identical to the straight-line array loop —
``tests/test_sweep_engine.py`` and ``tests/test_adaptive_caches.py`` pin
that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.memo import code_caches
from repro.ecc import gf2
from repro.ecc.linear_code import SystematicCode
from repro.memory.cells import CellOrientation
from repro.memory.error_model import WordErrorProfile, check_profile_positions
from repro.memory.patterns import DataPattern, RandomPattern, make_pattern, random_rounds
from repro.profiling.base import Profiler, ReadMode
from repro.utils.rng import derive_seeds, seeded_generators

__all__ = [
    "WordArtifacts",
    "WordRunResult",
    "cell_artifacts",
    "simulate_cell",
    "simulate_word",
    "simulate_words_batched",
    "post_correction_data_errors",
    "post_correction_data_errors_batch",
]


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
    """Identification trace of one (profiler, word) simulation, as change points.

    Attributes:
        changes: ``(round, identified, observed)`` triples in ascending
            round order.  From round ``round`` on, the cumulative
            identified set (observation and prediction channels merged —
            what the repair mechanism would know) is ``identified`` and
            the observation channel alone is ``observed``, until the next
            triple; both are empty before the first.  A triple may repeat
            its predecessor's sets, so readers compare by value.
        num_rounds: how many rounds the run simulated.
    """

    changes: list[tuple[int, frozenset[int], frozenset[int]]]
    num_rounds: int

    def final_identified(self) -> frozenset[int]:
        return self.changes[-1][1] if self.changes else frozenset()

    @property
    def identified_per_round(self) -> list[frozenset[int]]:
        """The identified set after each round, expanded from :attr:`changes`."""
        return self._per_round(1)

    @property
    def observed_per_round(self) -> list[frozenset[int]]:
        """The observation channel after each round, expanded from :attr:`changes`.

        No exhibit reads it; tests compare it across kernels.
        """
        return self._per_round(2)

    def _per_round(self, channel: int) -> list[frozenset[int]]:
        trace: list[frozenset[int]] = []
        current: frozenset[int] = frozenset()
        for change in self.changes:
            trace.extend([current] * (change[0] - len(trace)))
            current = change[channel]
        trace.extend([current] * (self.num_rounds - len(trace)))
        return trace


def _charge_selectors(code: SystematicCode, positions: Sequence[int]) -> list[int]:
    """Each codeword position's selector over the data bits.

    A position's charge under a dataword is the parity of its selector
    ANDed with it: the data bit itself, or the position's row of ``P``.
    """
    k = code.k
    parity_rows = code.parity_row_ints
    return [1 << p if p < k else parity_rows[p - k] for p in positions]


def _charge_mask(selectors: Sequence[int], anti_mask: int, dataword: int) -> int:
    """Which positions a dataword charges, as a bitmask (bit ``j`` = ``selectors[j]``).

    ``anti_mask`` flags the anti cells, which hold charge when storing 0.
    """
    mask = anti_mask
    for bit, selector in enumerate(selectors):
        mask ^= ((selector & dataword).bit_count() & 1) << bit
    return mask


def _follows_standard_schedule(cls: type[Profiler]) -> bool:
    """Whether profilers of ``cls`` write their standard pattern schedule verbatim.

    A class that overrides ``crafted_for_round`` is adaptive: its
    patterns depend on what it observed.
    """
    return (
        cls.crafted_for_round is Profiler.crafted_for_round
        and cls.pattern_for_round is Profiler.pattern_for_round
    )


@dataclass(frozen=True)
class WordArtifacts:
    """The simulation inputs every run of one word shares.

    All profilers of a word — within a :func:`simulate_cell` call, and
    across the sweep's (probability, profiler) cells — see the same
    encoded standard pattern schedule (pure in pattern, word seed and
    code) and failure draws (pure in the word seed).  One complete
    instance per word is the only way inputs reach the kernels; the
    contents must match the run's (pattern, code, profile, ``num_rounds``,
    ``word_seed``) exactly and are trusted.

    Attributes:
        codewords: ``(num_rounds, n)`` encoding of the *standard* pattern
            schedule (a systematic codeword's first ``k`` bits are the
            dataword itself).  Standard rounds read their charges from
            it; crafted rounds never do.
        draws: ``(num_rounds, profile.count)`` uniform failure variates,
            as produced by the ``word_seed``-derived stream.
    """

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

    One loop serves every profiler.  A failure pattern is a bitmask over
    the at-risk positions (bit ``j`` = ``profile.positions[j]``): a
    standard round's comes from the encoded schedule, resolved for all
    rounds in one vectorized pass; a crafted round's charge mask is
    computed from the dataword bitmask in Python ints (see the module
    docstring) and ANDed with the round's packed draws.  The draws are
    pattern-independent, so every profiler of a word sees the same ones.

    Args:
        orientation: cell orientation; ``None`` (the paper's model) means
            all true cells, where a stored 1 is the charged/vulnerable
            state.  With anti cells a stored 0 is vulnerable instead.
        artifacts: the word's precomputed inputs (see
            :class:`WordArtifacts`); ``None`` builds them through
            :func:`cell_artifacts` from the profiler's pattern and
            ``word_seed``.  The result is bit-identical either way.

    Raises:
        ValueError: for a profiler that overrides ``pattern_for_round``
            (this loop writes ``crafted_for_round``'s datawords, so it
            would ignore that profiler's patterns), or for artifacts
            whose draws do not match the profile.
    """
    code = profiler.code
    check_profile_positions(profile, code.n)
    if type(profiler).pattern_for_round is not Profiler.pattern_for_round:
        raise ValueError(
            f"profiler {profiler.name!r} overrides pattern_for_round; simulate_word "
            "writes crafted_for_round's datawords, so craft them there"
        )
    if artifacts is None:
        artifacts = cell_artifacts(
            [code], [profiler._pattern], [profile.count], [word_seed], num_rounds
        )[0]
    elif artifacts.draws.shape != (num_rounds, profile.count):
        raise ValueError(
            f"precomputed draws shape {artifacts.draws.shape} != "
            f"({num_rounds}, {profile.count})"
        )
    positions = profile.positions
    columns = np.asarray(positions, dtype=np.intp)
    below = artifacts.draws < np.asarray(profile.probabilities, dtype=float)
    if orientation is None:
        charged = artifacts.codewords[:, columns]
        anti_mask = 0
    else:
        charged = orientation.charged_mask(artifacts.codewords)[:, columns]
        anti_mask = gf2._pack_rows(orientation.true_cell_mask[None, columns] == 0)[0]
    standard_failures = gf2._pack_rows(charged.astype(bool) & below)
    below_masks = gf2._pack_rows(below)
    selectors = _charge_selectors(code, positions)

    # Crafted datawords and failure patterns repeat across rounds (always
    # at p=1.0, often below); their charge masks and mismatch sets are
    # pure in them, so per-run dicts keyed by bitmask serve the repeats.
    # The mismatch dict fronts the shared analysis-layer memo
    # (CodeAnalysisCaches.decode_consequences), so repeated cells on the
    # same code reuse each other's decodes.
    analysis_caches = code_caches(code)
    charge_masks: dict[int, int] = {}
    consequences: dict[tuple[str, int], frozenset[int]] = {}
    changes: list[tuple[int, frozenset[int], frozenset[int]]] = []

    crafted_for_round = profiler.crafted_for_round
    read_mode_for = profiler.read_mode_for
    observe = profiler.observe
    for round_index in range(num_rounds):
        crafted = crafted_for_round(round_index)
        if crafted is None:
            failed_bits = standard_failures[round_index]
        else:
            charged_bits = charge_masks.get(crafted)
            if charged_bits is None:
                charged_bits = charge_masks[crafted] = _charge_mask(selectors, anti_mask, crafted)
            failed_bits = charged_bits & below_masks[round_index]
        mode = read_mode_for(round_index)
        key = (mode, failed_bits)
        mismatches = consequences.get(key)
        if mismatches is None:
            failed = tuple(p for bit, p in enumerate(positions) if failed_bits >> bit & 1)
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
            consequences[key] = mismatches
        if observe(round_index, mismatches):
            changes.append((round_index, profiler.identified, profiler.identified_observed))
    return WordRunResult(changes, num_rounds)


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
    (:meth:`~repro.profiling.base.Profiler.observe_many`), whose change
    points become the run's :attr:`WordRunResult.changes`.  Bit-identical to
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
        ValueError: for a non-``batched`` profiler, one that crafts its
            own datawords (the kernel only writes the standard schedule),
            or length mismatches.
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
        if not profiler.batched:
            raise ValueError(
                f"profiler {profiler.name!r} does not support the batched "
                "kernel (batched=False, as for every adaptive profiler); use simulate_word"
            )
        if not _follows_standard_schedule(type(profiler)):
            raise ValueError(
                f"batched profiler {profiler.name!r} overrides pattern_for_round or "
                "crafted_for_round; the batched kernel only writes the standard schedule"
            )
    if not count:
        return []
    for profiler, profile in zip(profilers, profiles):
        check_profile_positions(profile, profiler.code.n)
    if not num_rounds:
        return [WordRunResult([], 0) for _ in range(count)]

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
    # at-risk-count group, then each word's distinct non-empty patterns
    # with their first rounds.
    # ------------------------------------------------------------------
    # Each word's distinct non-empty patterns and their first rounds,
    # ascending by round: the event order ``observe_many`` needs.  A word
    # left empty never fails.
    first_events: list[tuple[Sequence[tuple[int, ...]], Sequence[int]]] = [((), ())] * count
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
                charged_bits(artifacts[i].codewords).take(positions, axis=1)
                for i, positions in zip(indices, positions2)
            ]
        ).astype(bool)
        draws3 = np.stack([artifacts[i].draws for i in indices])
        probabilities2 = np.array([profiles[i].probabilities for i in indices], dtype=float)
        failed = charged & (draws3 < probabilities2[:, None, :])
        group_size = len(indices)
        if at_risk + max(group_size - 1, 1).bit_length() <= 62:
            # Pack each failing round's pattern into an int64 bitmask and
            # the word's group-local index into the bits above it: one
            # ``np.unique`` over the group finds every distinct non-empty
            # (word, pattern) pair and its first flat index (word-major,
            # round-ascending), which names the pair's word and round.
            weights = np.int64(1) << np.arange(at_risk, dtype=np.int64)
            masks = (failed.astype(np.int64) @ weights).ravel()
            failing = np.flatnonzero(masks)
            keys = masks[failing] | ((failing // num_rounds) << at_risk)
            uniq_keys, inverse = np.unique(keys, return_inverse=True)
            # ``return_index`` would take a stable sort; this is cheaper.
            first_idx = np.full(len(uniq_keys), masks.size)
            np.minimum.at(first_idx, inverse, failing)
            first_idx.sort()
            word_locals = first_idx // num_rounds
            # Each pair's failed positions in one gather, then one slice
            # of the flat list per pattern.
            pattern_bits = failed.reshape(-1, at_risk)[first_idx]
            mapped = positions2[word_locals][pattern_bits].tolist()
            bounds = np.cumsum(np.count_nonzero(pattern_bits, axis=1)).tolist()
            tuples = [tuple(mapped[start:stop]) for start, stop in zip([0, *bounds], bounds)]
            rounds = (first_idx % num_rounds).tolist()
            stops = np.cumsum(np.bincount(word_locals, minlength=group_size)).tolist()
            start = 0
            for index, stop in zip(indices, stops):
                if stop != start:
                    first_events[index] = (tuples[start:stop], rounds[start:stop])
                    start = stop
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
        # earliest round and insertion order is ascending by round.
        first_rounds: dict[int, dict[tuple[int, ...], int]] = {}
        start = 0
        for row, word, stop in zip(rows.tolist(), words_of_rows.tolist(), bounds):
            firsts = first_rounds.setdefault(indices[word], {})
            firsts.setdefault(tuple(mapped[start:stop]), row % num_rounds)
            start = stop
        for word_index, firsts in first_rounds.items():
            first_events[word_index] = (list(firsts), list(firsts.values()))

    # ------------------------------------------------------------------
    # Batched decode consequences: each (code, mode) group's patterns
    # resolve through the shared memo in one probe; its distinct misses
    # decode in one multi-RHS syndrome product.
    # ------------------------------------------------------------------
    probe_groups: dict[tuple[int, str], tuple] = {}
    for index, profiler in enumerate(profilers):
        tuples = first_events[index][0]
        if not tuples:
            continue
        handle = code_caches(profiler.code)
        # ``batched`` profilers declare a round-independent read mode.
        cache_key = (id(handle), profiler.read_mode_for(0))
        group = probe_groups.get(cache_key)
        if group is None:
            group = probe_groups[cache_key] = (handle, profiler.code, [], [])
        group[2].extend(tuples)
        group[3].append(index)
    # Each word's mismatch sets, aligned with its first events.
    consequences_of: list[Sequence[frozenset[int]]] = [()] * count
    for (_, mode), (handle, code, group_tuples, members) in probe_groups.items():
        found = handle.peek_decode_consequences_many(mode, group_tuples)
        misses = list(dict.fromkeys(f for f, hit in zip(group_tuples, found) if hit is None))
        if misses:
            if mode == ReadMode.BYPASS:
                k = code.k
                consequences = [frozenset(p for p in f if p < k) for f in misses]
            else:
                consequences = post_correction_data_errors_batch(code, misses)
            resolved = dict(zip(misses, consequences))
            for failed_tuple, mismatches in resolved.items():
                handle.insert_decode_consequences(mode, failed_tuple, mismatches)
            found = [resolved[f] if hit is None else hit for f, hit in zip(group_tuples, found)]
        start = 0
        for index in members:
            stop = start + len(first_events[index][0])
            consequences_of[index] = found[start:stop]
            start = stop

    # ------------------------------------------------------------------
    # Compressed observation replay: its change points are the run.
    # ------------------------------------------------------------------
    results: list[WordRunResult] = []
    for index, profiler in enumerate(profilers):
        events = zip(first_events[index][1], consequences_of[index])
        results.append(WordRunResult(profiler.observe_many(events), num_rounds))
    return results


def cell_artifacts(
    codes: Sequence[SystematicCode],
    patterns: Sequence[DataPattern],
    counts: Sequence[int],
    word_seeds: Sequence[int],
    num_rounds: int,
) -> list[WordArtifacts]:
    """Build every word's :class:`WordArtifacts`, the only way kernel inputs are made.

    Word ``i``'s codewords encode ``patterns[i]`` materialized over
    ``num_rounds`` rounds, and its failure draws are ``(num_rounds,
    counts[i])`` uniform variates from ``derive_rng(word_seeds[i],
    "failure-draws")``.  The random-pattern words of each ``k`` draw in
    one :func:`~repro.memory.patterns.random_rounds` call, which only
    pays off over many words at once; every word's failure-draw stream
    is seeded in one batch (:func:`~repro.utils.rng.seeded_generators`);
    each code then encodes all its words' schedules in one product.
    Every array is read-only, because every profiler of a word — and
    every sweep cell that reuses it — reads the same ones.
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
    draws = [
        rng.random((num_rounds, count))
        for rng, count in zip(
            seeded_generators(derive_seeds([(seed, "failure-draws") for seed in word_seeds])),
            counts,
        )
    ]
    artifacts: list[WordArtifacts] = [None] * len(codes)  # type: ignore[list-item]
    for code in {id(code): code for code in codes}.values():
        indices = [index for index, other in enumerate(codes) if other is code]
        encoded = code.encode(np.concatenate([schedules[i] for i in indices]))
        encoded.setflags(write=False)
        for offset, index in enumerate(indices):
            rows = slice(offset * num_rounds, (offset + 1) * num_rounds)
            draws[index].setflags(write=False)
            artifacts[index] = WordArtifacts(encoded[rows], draws[index])
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
    The profiler class alone picks the kernel: ``batched`` classes that
    write their standard schedule take :func:`simulate_words_batched`,
    the rest :func:`simulate_word`; both are bit-identical.  A caller reusing
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
        if cls.batched and _follows_standard_schedule(cls):
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
