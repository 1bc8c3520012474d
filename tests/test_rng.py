"""SplitMix64 stream: reference vectors, determinism, helper behavior."""

import warnings

import numpy as np
import pytest

from graphclean.rng import SplitMix64, derive_seed


class TestStream:
    def test_reference_vectors_seed_zero(self):
        # published splitmix64 outputs for seed 0
        rng = SplitMix64(0)
        assert rng.next_uint64() == 0xE220A8397B1DCDAF
        assert rng.next_uint64() == 0x6E789E6AA1B965F4
        assert rng.next_uint64() == 0x06C45D188009454F

    def test_same_seed_same_stream(self):
        a = SplitMix64(123456789)
        b = SplitMix64(123456789)
        assert [a.next_uint64() for _ in range(50)] == [b.next_uint64() for _ in range(50)]

    def test_uniform_range(self):
        rng = SplitMix64(42)
        draws = rng.uniforms(2000)
        assert np.all(draws >= 0.0) and np.all(draws < 1.0)
        assert 0.4 < draws.mean() < 0.6

    # the last seed's state wraps through 0 at the third draw
    @pytest.mark.parametrize("seed", [0, 99, 2**64 - 1, (-3 * 0x9E3779B97F4A7C15) % 2**64])
    def test_uniforms_equal_scalar_draws(self, seed):
        for count in (0, 1, 7, 1000):
            block, scalar = SplitMix64(seed), SplitMix64(seed)
            # wrapping uint64 arithmetic must not warn
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                draws = block.uniforms(count)
            np.testing.assert_array_equal(
                draws, np.array([scalar.uniform() for _ in range(count)]))
            assert draws.dtype == np.float64 and draws.shape == (count,)
            # both streams continue from the same state
            assert block.next_uint64() == scalar.next_uint64()

    def test_bounded_range_and_coverage(self):
        rng = SplitMix64(7)
        draws = [rng.bounded(5) for _ in range(500)]
        assert set(draws) == {0, 1, 2, 3, 4}

    def test_bounded_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(0).bounded(0)

    def test_shuffle_is_permutation(self):
        arr = np.arange(40)
        SplitMix64(99).shuffle(arr)
        assert sorted(arr.tolist()) == list(range(40))
        assert arr.tolist() != list(range(40))

    def test_choose_without_replacement(self):
        rng = SplitMix64(5)
        picks = rng.choose(np.arange(30), 10)
        assert len(set(picks.tolist())) == 10
        with pytest.raises(ValueError, match="cannot choose 4 items out of 3"):
            rng.choose(np.arange(3), 4)
        with pytest.raises(ValueError):
            rng.choose(np.arange(3), -1)


class CountingSplitMix64(SplitMix64):
    def __init__(self, seed):
        super().__init__(seed)
        self.bounded_calls = 0

    def bounded(self, n):
        self.bounded_calls += 1
        return super().bounded(n)


class TestChoose:
    def test_uniform_over_two_subsets(self):
        rng = SplitMix64(2024)
        draws = 20_000
        counts = {}
        for _ in range(draws):
            pick = tuple(rng.choose(np.arange(5), 2).tolist())
            counts[pick] = counts.get(pick, 0) + 1
        assert len(counts) == 10
        expected = draws / 10
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # chi-square with 9 degrees of freedom: P(chi2 > 27.88) = 0.001
        assert chi2 < 27.88

    @pytest.mark.parametrize("k", [0, 1, 20, 40])
    def test_one_bounded_draw_per_item(self, k):
        rng = CountingSplitMix64(11)
        rng.choose(np.arange(40), k)
        assert rng.bounded_calls == k

    @pytest.mark.parametrize("k", [0, 1, 7, 16, 17])
    def test_distinct_items_in_the_order_of_items(self, k):
        items = np.array([5, 90, 12, 3, 77, 41, 8, 66, 23, 50, 1, 34, 99, 60, 18, 2, 71])
        picks = SplitMix64(k).choose(items, k)
        assert picks.shape == (k,) and picks.dtype == items.dtype
        assert len(set(picks.tolist())) == k
        # every pick is an item, and picks are sorted by their position in items
        positions = [items.tolist().index(p) for p in picks.tolist()]
        assert positions == sorted(positions)
        if k == items.size:
            np.testing.assert_array_equal(picks, items)


class TestDeriveSeed:
    def test_deterministic_and_order_sensitive(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(1, 2) != derive_seed(2, 2)

    def test_spreads_consecutive_reps(self):
        seeds = {derive_seed(0, r) for r in range(100)}
        assert len(seeds) == 100
