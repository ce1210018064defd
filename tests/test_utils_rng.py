"""Unit tests for repro.utils.rng."""

import random

import numpy as np
import pytest

from repro.utils.rng import derive_rng, derive_seed, derive_seeds, seeded_generators


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_distinct_keys_distinct_seeds(self):
        assert derive_seed(7, "a", 1) != derive_seed(7, "a", 2)
        assert derive_seed(7, "a") != derive_seed(7, "b")
        assert derive_seed(7) != derive_seed(8)

    def test_key_path_is_not_flattened(self):
        # ("ab",) and ("a", "b") must not collide.
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(123456789, "x") < 2**64

    def test_key_types_are_tagged(self):
        # An int key and its string spelling must not collide.
        assert derive_seed(1, 3) != derive_seed(1, "3")
        assert derive_seed(1, "a", 7) != derive_seed(1, "a", "7")

    def test_numpy_integers_hash_like_ints(self):
        import numpy as np

        assert derive_seed(1, np.int64(3)) == derive_seed(1, 3)

    def test_float_keys_are_tagged(self):
        assert derive_seed(1, 0.5) == derive_seed(1, 0.5)
        assert derive_seed(1, 0.5) != derive_seed(1, "0.5")
        assert derive_seed(1, 0.25) != derive_seed(1, 0.75)

    def test_unsupported_key_type_rejected(self):
        import pytest

        with pytest.raises(TypeError):
            derive_seed(1, (1, 2))
        with pytest.raises(TypeError):
            derive_seed(1, True)


class TestDeriveRng:
    def test_streams_are_reproducible(self):
        a = derive_rng(3, "stream").random(5)
        b = derive_rng(3, "stream").random(5)
        assert (a == b).all()

    def test_streams_differ_across_keys(self):
        a = derive_rng(3, "s1").random(5)
        b = derive_rng(3, "s2").random(5)
        assert not (a == b).all()


def _random_key(rng: random.Random):
    """One key of a random type: int, numpy integer, float or str."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randrange(-(2**70), 2**70)
    if kind == 1:
        return np.int64(rng.randrange(-(2**63), 2**63))
    if kind == 2:
        return np.uint32(rng.getrandbits(32))
    if kind == 3:
        return rng.choice([rng.uniform(-1e9, 1e9), rng.random(), 0.0, -0.0, float("inf")])
    return "".join(rng.choice("ab/:3é-_ ") for _ in range(rng.randrange(6)))


class TestDeriveSeeds:
    def test_prefix_path_equals_derive_seed(self):
        rng = random.Random(2021)
        for _ in range(300):
            seed = rng.choice([rng.getrandbits(64), rng.randrange(-(2**40), 0), 0])
            prefix = [_random_key(rng) for _ in range(rng.randrange(4))]
            suffixes = [
                tuple(_random_key(rng) for _ in range(rng.randrange(3)))
                for _ in range(rng.randrange(1, 5))
            ]
            expected = [derive_seed(seed, *prefix, *suffix) for suffix in suffixes]
            assert derive_seeds([(seed, *prefix)], suffixes) == expected

    def test_many_paths_are_path_major(self):
        paths = [(7, "a", 1), (8, "a"), (7, "b", 2.5)]
        suffixes = [(), (3,), ("x", 4)]
        expected = [derive_seed(*path, *suffix) for path in paths for suffix in suffixes]
        assert derive_seeds(paths, suffixes) == expected
        assert derive_seeds(paths) == [derive_seed(*path) for path in paths]
        assert derive_seeds([]) == []

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True)])
    def test_refuses_bool_keys_like_derive_seed(self, bad):
        with pytest.raises(TypeError) as single:
            derive_seed(1, "a", bad)
        with pytest.raises(TypeError) as prefixed:
            derive_seeds([(1, "a", bad)])
        with pytest.raises(TypeError) as suffixed:
            derive_seeds([(1, "a")], [(bad,)])
        assert str(prefixed.value) == str(suffixed.value) == str(single.value)


#: Seeds at the edges of ``SeedSequence``'s one- and two-word entropy.
EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)

#: One draw of each kind the library takes from a stream.  Poisson below
#: lambda 10 multiplies uniforms; from 10 up it takes the PTRS path.
DRAWS = {
    "standard_normal": lambda rng: rng.standard_normal(3),
    "random": lambda rng: rng.random((2, 3)),
    "integers": lambda rng: rng.integers(0, 1000, 4),
    "integers_scalar": lambda rng: rng.integers(39),
    "lognormal": lambda rng: rng.lognormal(0.0, 1.2, 3),
    "poisson_small": lambda rng: rng.poisson(3.5, 4),
    "poisson_ptrs": lambda rng: rng.poisson(42.0, 4),
}


def _stream_seeds(count: int = 200) -> list[int]:
    rng = random.Random(11)
    return [rng.getrandbits(64) for _ in range(count)] + list(EDGE_SEEDS)


class TestSeededGenerators:
    @pytest.mark.parametrize("draw", sorted(DRAWS))
    def test_streams_match_default_rng(self, draw):
        seeds = _stream_seeds()
        got = [DRAWS[draw](rng) for rng in seeded_generators(seeds)]
        assert len(got) == len(seeds)
        for seed, values in zip(seeds, got):
            assert np.array_equal(values, DRAWS[draw](np.random.default_rng(seed))), seed

    def test_no_buffered_half_word_carries_over(self):
        """A stream that ends on an odd count of 32-bit draws buffers the
        unused half of PCG64's last output; the next stream must not
        start from it."""
        seeds = _stream_seeds(50)
        for seed, rng in zip(seeds, seeded_generators(seeds)):
            state = rng.bit_generator.state
            assert (state["has_uint32"], state["uinteger"]) == (0, 0)
            fresh = np.random.default_rng(seed).integers(0, 2**32, 3, dtype=np.uint32)
            assert np.array_equal(rng.integers(0, 2**32, 3, dtype=np.uint32), fresh)
            assert rng.bit_generator.state["has_uint32"] == 1

    def test_one_generator_reseeded_per_stream(self):
        streams = seeded_generators([1, 2, 3])
        first = next(streams)
        assert next(streams) is first
        assert list(seeded_generators([])) == []
