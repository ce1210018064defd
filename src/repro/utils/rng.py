"""Deterministic RNG derivation.

All randomness in the library flows through ``numpy.random.Generator``
instances derived from a single experiment seed plus a sequence of string,
integer, or float keys.  Derivation is stable across processes and Python
versions (it uses SHA-256, not ``hash()``), so every experiment is exactly
reproducible from its seed — including work farmed out to parallel worker
processes, which re-derive identical streams from the same key paths.

Keys are hashed with a type tag (``i:``/``f:``/``s:``) so that, e.g.,
``derive_seed(1, 3)`` and ``derive_seed(1, "3")`` are distinct streams.

Callers that need many streams take the batched path, which gives the
same seeds and draws as :func:`derive_seed` and :func:`derive_rng`:

* :func:`derive_seeds` hashes each key-path prefix once and copies the
  SHA-256 state for every suffix (one key encoder serves both paths);
* :func:`seeded_generators` computes the PCG64 state of many seeds in one
  pass and sets each in turn into one reused Generator.  A caller must
  drain each stream before it advances to the next one.
  ``tests/test_utils_rng.py`` property-tests it against
  ``np.random.default_rng``.

One stream is also reproduced without building a Generator:
:func:`random_bits` computes ``default_rng(seed).integers(0, 2, k,
uint8)`` for many seeds in one pass of array arithmetic (numpy's
``SeedSequence`` mixing, PCG64's 128-bit LCG and XSL-RR output, and the
buffered uint8 draw), bit for bit.  The random data pattern draws its
bases through it; ``tests/test_patterns.py`` property-tests it against
the installed numpy.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["derive_seed", "derive_seeds", "derive_rng", "seeded_generators", "random_bits"]

_MASK_32 = 0xFFFFFFFF

# numpy.random.SeedSequence's hash constants (pool size 4).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_POOL = 4

#: PCG64's default 128-bit LCG multiplier.
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
_MASK_128 = (1 << 128) - 1


def _encode_keys(keys: Sequence[int | float | str]) -> bytes:
    """The hashed spelling of a key path: each key behind its type tag."""
    parts = []
    for key in keys:
        if isinstance(key, str):
            parts.append(b"/s:" + key.encode())
        elif isinstance(key, (bool, np.bool_)):
            raise TypeError("seed keys must be int, float, or str, got bool")
        elif isinstance(key, (int, np.integer)):
            parts.append(b"/i:%d" % int(key))
        elif isinstance(key, (float, np.floating)):
            parts.append(b"/f:" + repr(float(key)).encode())
        else:
            raise TypeError(
                f"seed keys must be int, float, or str, got {type(key).__name__}"
            )
    return b"".join(parts)


def _path_hasher(seed: int, keys: Sequence[int | float | str]):
    """SHA-256 over a parent seed and its key path, not yet finalized."""
    return hashlib.sha256(b"%d" % int(seed) + _encode_keys(keys))


def derive_seed(seed: int, *keys: int | float | str) -> int:
    """Derive a 64-bit child seed from a parent seed and a key path.

    Each key is hashed together with a type tag, so an integer key and the
    string spelling the same digits derive *different* seeds — key paths
    mixing counters and labels cannot collide across types.

    >>> derive_seed(1, "fig6", 3) == derive_seed(1, "fig6", 3)
    True
    >>> derive_seed(1, "fig6", 3) != derive_seed(1, "fig6", 4)
    True
    >>> derive_seed(1, 3) != derive_seed(1, "3")
    True
    """
    return int.from_bytes(_path_hasher(seed, keys).digest()[:8], "little")


def derive_seeds(
    paths: Iterable[Sequence[int | float | str]],
    suffixes: Sequence[Sequence[int | float | str]] = ((),),
) -> list[int]:
    """``derive_seed(*path, *suffix)`` for every path and suffix, path-major.

    Each path is a parent seed and its leading keys, ``(seed, *keys)``.
    Its SHA-256 state is computed once and copied for each suffix, and
    each suffix is encoded once for all paths.  A key path hashes as the
    concatenation of its keys' spellings, so where it is split does not
    matter:

    >>> derive_seeds([(1, "fig6")], [(3,), (4,)]) == [
    ...     derive_seed(1, "fig6", 3), derive_seed(1, "fig6", 4)
    ... ]
    True
    """
    tails = [_encode_keys(suffix) for suffix in suffixes]
    seeds: list[int] = []
    append = seeds.append
    for seed, *keys in paths:
        prefix = _path_hasher(seed, keys)
        for tail in tails:
            hasher = prefix
            if tail:  # digest() leaves a hasher open, so an empty tail needs no copy
                hasher = prefix.copy()
                hasher.update(tail)
            append(int.from_bytes(hasher.digest()[:8], "little"))
    return seeds


def derive_rng(seed: int, *keys: int | float | str) -> np.random.Generator:
    """Build a ``numpy.random.Generator`` for the given seed and key path."""
    return np.random.default_rng(derive_seed(seed, *keys))


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constant of each of ``count`` successive hashmix calls.

    ``SeedSequence`` threads one running constant through its hashmix
    calls; the constant never depends on the data, so every call's pair
    is known up front and one array op serves all seeds.
    """
    xors, mults = [], []
    for _ in range(count):
        xors.append(init)
        init = (init * mult) & _MASK_32
        mults.append(init)
    return np.array(xors, np.uint32)[:, None], np.array(mults, np.uint32)[:, None]


def _hashmix(values: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    values = (values ^ xors) * mults
    return values ^ (values >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> np.uint32(16))


@lru_cache(maxsize=1)
def _seed_constants() -> tuple:
    """Hashmix constants of the pool fill, the 12 cross-lane mixes and the state."""
    fill_x, fill_m = _hash_constants(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
    state = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    return (fill_x[:_POOL], fill_m[:_POOL]), (fill_x[_POOL:], fill_m[_POOL:]), state


def _generate_state(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(8, uint32)`` of every seed, shape (8, S).

    A seed below 2**32 has one entropy word; the pool hashes its absent
    second word as 0, exactly as it hashes a zero high word.
    """
    (fill_x, fill_m), (cross_x, cross_m), (state_x, state_m) = _seed_constants()
    pool = np.zeros((_POOL, seeds.size), np.uint32)
    pool[0] = seeds & np.uint64(_MASK_32)
    pool[1] = seeds >> np.uint64(32)
    pool = _hashmix(pool, fill_x, fill_m)
    for source in range(_POOL):
        # The source lane is hashed once per other lane, each with the
        # next constant in the chain, and mixed into that lane.
        targets = [lane for lane in range(_POOL) if lane != source]
        calls = slice(source * (_POOL - 1), (source + 1) * (_POOL - 1))
        hashed = _hashmix(pool[source][None, :], cross_x[calls], cross_m[calls])
        pool[targets] = _mix(pool[targets], hashed)
    return _hashmix(np.concatenate([pool, pool]), state_x, state_m)


def _limbs(value: int) -> list[int]:
    return [(value >> (32 * limb)) & _MASK_32 for limb in range(4)]


@lru_cache(maxsize=64)
def _lcg_jumps(outputs: int) -> tuple[np.ndarray, np.ndarray]:
    """32-bit limbs of the affine maps from a freshly seeded PCG64 to each output.

    Seeding runs ``state = (inc + initstate)·M + inc`` and output ``j``
    steps ``j + 1`` more times first, so its state is
    ``M^(j+2)·initstate + (M^0 + … + M^(j+2))·inc  (mod 2**128)``.
    Returns ``(scale, offset)`` limb arrays of shape (4, outputs).
    """
    scales, offsets = [], []
    power, total = _PCG_MULT, 1 + _PCG_MULT
    for _ in range(outputs):
        power = (power * _PCG_MULT) & _MASK_128
        total = (total + power) & _MASK_128
        scales.append(_limbs(power))
        offsets.append(_limbs(total))
    scale, offset = np.array(scales, np.uint64).T, np.array(offsets, np.uint64).T
    scale.setflags(write=False)
    offset.setflags(write=False)
    return scale, offset


def _affine_128(
    x: list[np.ndarray], a: np.ndarray, y: list[np.ndarray], c: np.ndarray
) -> list[np.ndarray]:
    """Limbs of ``a·x + c·y mod 2**128``: per-seed ``x``, ``y`` times per-output ``a``, ``c``.

    ``x``/``y`` hold four (S, 1) limb arrays and ``a``/``c`` are (4, m).
    Every 32x32-bit partial product fits a uint64; columns 0-2 sum at
    most ten 32-bit halves, and column 3 keeps only its low 32 bits, so
    no overflow reaches a result limb.
    """
    low = np.uint64(_MASK_32)
    shift = np.uint64(32)
    columns = [np.zeros((x[0].shape[0], a.shape[1]), np.uint64) for _ in range(4)]
    for left, right in ((x, a), (y, c)):
        for i in range(4):
            for j in range(4 - i):
                product = left[i] * right[j]
                if i + j == 3:
                    columns[3] += product  # only its low half survives mod 2**128
                    continue
                columns[i + j] += product & low
                columns[i + j + 1] += product >> shift
    limbs = []
    carry = np.uint64(0)
    for column in columns:
        column = column + carry
        limbs.append(column & low)
        carry = column >> shift
    return limbs


def _pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """PCG64's ``(state, inc)`` right after ``PCG64(seed)`` seeds it, per seed.

    PCG64 takes ``generate_state(4, uint64)`` words ``w0..w3`` of the
    seed's ``SeedSequence`` as ``initstate = w0 << 64 | w1`` and
    ``initseq = w2 << 64 | w3``, sets ``inc = initseq << 1 | 1`` and
    steps its LCG twice around adding ``initstate``:
    ``state = (initstate + inc)·M + inc  (mod 2**128)``.
    """
    halves = _generate_state(seeds).astype(np.uint64)
    words = (halves[0::2] | (halves[1::2] << np.uint64(32))).tolist()
    states = []
    for w0, w1, w2, w3 in zip(*words):
        inc = ((w2 << 65) | (w3 << 1) | 1) & _MASK_128
        initstate = (w0 << 64) | w1
        states.append((((initstate + inc) * _PCG_MULT + inc) & _MASK_128, inc))
    return states


def seeded_generators(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """``np.random.default_rng(seed)`` for each seed in turn, from one Generator.

    Every seed's PCG64 state is computed in one pass
    (:func:`_pcg64_states`), and each is set in turn into one reused
    Generator, which is yielded once per seed.  Setting a state costs a
    small fraction of building a Generator.  Each stream draws exactly
    what a fresh ``default_rng(seed)`` draws: the reset clears PCG64's
    buffered 32-bit half-word, and a ``Generator`` keeps no other state.

    The contract: the caller drains one stream before it asks for the
    next, and keeps no reference to it, because advancing the iterator
    reseeds the same object.  Seeds are non-negative ints below 2**64.
    """
    seeds = np.fromiter((int(seed) for seed in seeds), dtype=np.uint64)
    if not seeds.size:
        return
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    stream = {"state": 0, "inc": 0}
    snapshot = {"bit_generator": "PCG64", "state": stream, "has_uint32": 0, "uinteger": 0}
    # Each (state, inc) unpacks into the snapshot the setter reads.
    for stream["state"], stream["inc"] in _pcg64_states(seeds):
        bit_generator.state = snapshot
        yield generator


def random_bits(seeds: Sequence[int], k: int) -> np.ndarray:
    """``default_rng(seed).integers(0, 2, size=k, dtype=uint8)`` per seed, stacked.

    Row ``i`` equals the Generator's draw for ``seeds[i]`` (each a
    non-negative int below 2**64), computed for all seeds at once:

    * the ``SeedSequence`` pool and ``generate_state(4, uint64)`` in
      uint32 array ops (the hash constants do not depend on the data);
    * PCG64's state before each 64-bit output as one 128-bit
      multiply-add per output over 32-bit limbs (:func:`_lcg_jumps`),
      then the XSL-RR output ``rotr64(hi ^ lo, state >> 122)``;
    * the bounded draw: for range 2 Lemire's method never rejects, so
      bit ``r`` is bit 7 of byte ``r`` of the buffered 32-bit outputs —
      each 64-bit output's bytes in little-endian order.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    seeds = np.fromiter((int(seed) for seed in seeds), dtype=np.uint64)
    outputs = -(-k // 8)
    if not seeds.size or not outputs:
        return np.zeros((seeds.size, k), np.uint8)
    state = _generate_state(seeds).astype(np.uint64)[:, :, None]
    low = np.uint64(_MASK_32)
    # PCG64 seeds from generate_state(4, uint64) words w0..w3, each the
    # uint32 pair (2i, 2i + 1), low first: initstate = w0 << 64 | w1 and
    # initseq = w2 << 64 | w3.  As 32-bit limbs, low first:
    initstate = [state[2], state[3], state[0], state[1]]
    initseq = [state[6], state[7], state[4], state[5]]
    inc = [((initseq[0] << np.uint64(1)) | np.uint64(1)) & low]
    for limb in range(1, 4):
        inc.append(((initseq[limb] << np.uint64(1)) | (initseq[limb - 1] >> np.uint64(31))) & low)
    scale, offset = _lcg_jumps(outputs)
    r0, r1, r2, r3 = _affine_128(initstate, scale, inc, offset)
    shift = np.uint64(32)
    folded = ((r3 << shift) | r2) ^ ((r1 << shift) | r0)
    rotate = r3 >> np.uint64(26)
    words = (folded >> rotate) | (folded << ((np.uint64(64) - rotate) & np.uint64(63)))
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return octets[:, :k] >> np.uint8(7)
