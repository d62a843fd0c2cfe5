"""Catalog unit tests.

Reference values are computed with an independent math.fsum oracle
(``zipf_mass``) rather than through the library's own normalisation.
"""
from __future__ import annotations

import itertools
from math import fsum

import numpy as np
import pytest
from scipy import stats

from scsim.catalog import Catalog, build_catalog, hit_rate, sample_requests, top_k


def zipf_mass(ids, n_files, gamma):
    """Brute-force popularity mass of ``ids``: sum i^-g / sum over 1..N."""
    z = fsum(i ** -gamma for i in range(1, n_files + 1))
    return fsum(i ** -gamma for i in ids) / z


class TestBuildCatalog:
    def test_popularity_normalised(self):
        cat = build_catalog(1000, 1.0)
        assert abs(cat.popularity.sum() - 1.0) < 1e-9

    def test_popularity_normalised_large_skew(self):
        """Extreme size and skew still normalise cleanly."""
        cat = build_catalog(10**6, 4.0)
        assert abs(cat.popularity.sum() - 1.0) < 1e-9

    def test_popularity_nonincreasing(self):
        for gamma in (0.0, 0.56, 1.0, 2.5):
            cat = build_catalog(500, gamma)
            assert np.all(np.diff(cat.popularity) <= 0.0)

    def test_zipf_ratio_pairs(self):
        """popularity(i)/popularity(j) must equal (j/i)^gamma exactly-ish."""
        cat = build_catalog(1000, 0.56)
        rng = np.random.default_rng(1)
        for _ in range(200):
            i, j = rng.integers(1, 1001, size=2)
            got = cat.popularity[i - 1] / cat.popularity[j - 1]
            want = (j / i) ** 0.56
            assert got == pytest.approx(want, rel=1e-12)

    def test_head_probability_reference(self):
        cat = build_catalog(1000, 1.0)
        assert cat.popularity[0] == pytest.approx(0.13359213049244015, abs=1e-12)
        assert cat.popularity[0] == pytest.approx(0.1336, abs=5e-5)

    def test_uniform_when_gamma_zero(self):
        cat = build_catalog(250, 0.0)
        np.testing.assert_allclose(cat.popularity, 1.0 / 250, rtol=1e-12)

    @pytest.mark.parametrize("n_files", [0, -3])
    def test_rejects_empty_catalog(self, n_files):
        for make in (build_catalog, Catalog):
            with pytest.raises(ValueError, match="n_files"):
                make(n_files, 1.0)

    @pytest.mark.parametrize("gamma", [-0.1, float("nan"), float("inf")])
    def test_rejects_bad_gamma(self, gamma):
        for make in (build_catalog, Catalog):
            with pytest.raises(ValueError, match="gamma"):
                make(10, gamma)


class TestCatalogRecord:
    """``Catalog(n_files, gamma)`` is the whole input; the popularity is derived."""

    @staticmethod
    def reference_popularity(n_files, gamma):
        """The Zipf popularity as ``build_catalog`` computed it before ``Catalog`` derived it."""
        ids = np.arange(1, n_files + 1, dtype=np.float64)
        weights = ids ** -float(gamma)
        return weights / weights.sum()

    def test_popularity_matches_the_reference_formula_bit_for_bit(self):
        rng = np.random.default_rng(28)
        pairs = [(int(n), float(g)) for n, g in zip(rng.integers(1, 3000, 2000), rng.uniform(0.0, 4.0, 2000))]
        pairs += [(1, 1.0), (1, 0.0), (1, 3.5), (250, 0.0), (1000, 0.0)]
        for n_files, gamma in pairs:
            want = self.reference_popularity(n_files, gamma)
            for cat in (Catalog(n_files, gamma), build_catalog(n_files, gamma)):
                assert cat.popularity.dtype == np.float64
                assert cat.popularity.tobytes() == want.tobytes(), (n_files, gamma)

    def test_build_catalog_sizes_popularity_by_the_cast_n_files(self):
        cat = build_catalog(2.7, 1.0)
        assert cat.n_files == 2
        assert cat.popularity.size == cat.n_files
        for n_files in (2.7, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="n_files"):
                Catalog(n_files, 1.0)

    def test_popularity_is_not_an_input(self):
        with pytest.raises(TypeError):
            Catalog(3, 1.0, [0.1, 0.5, 0.9])
        with pytest.raises(TypeError):
            Catalog(n_files=3, gamma=1.0, popularity=[0.1, 0.5, 0.9])

    def test_compares_and_hashes_by_its_inputs(self):
        a, b = build_catalog(5, 1.0), build_catalog(5, 1.0)
        assert a == b and a == Catalog(5, 1.0)
        assert hash(a) == hash(b)
        assert a != build_catalog(5, 0.5)
        assert a != build_catalog(6, 1.0)
        assert len({a, b, Catalog(5, 1.0), build_catalog(5, 0.5)}) == 2


class TestHitRate:
    def test_top31_reference(self):
        cat = build_catalog(1000, 1.0)
        got = hit_rate(cat, set(top_k(cat, 31)))
        assert got == pytest.approx(0.5380082656738082, abs=1e-12)
        assert got == pytest.approx(0.5380, abs=5e-5)

    @pytest.mark.parametrize("gamma,k", [(1.0, 10), (1.0, 100), (0.56, 31), (0.56, 100)])
    def test_matches_brute_force(self, gamma, k):
        cat = build_catalog(1000, gamma)
        got = hit_rate(cat, set(range(1, k + 1)))
        assert got == pytest.approx(zipf_mass(range(1, k + 1), 1000, gamma), abs=1e-12)

    def test_arbitrary_subset_matches_brute_force(self):
        cat = build_catalog(200, 0.8)
        rng = np.random.default_rng(5)
        for _ in range(50):
            ids = set(rng.choice(np.arange(1, 201), size=17, replace=False).tolist())
            assert hit_rate(cat, ids) == pytest.approx(zipf_mass(ids, 200, 0.8), abs=1e-12)

    def test_empty_and_full_cache(self):
        cat = build_catalog(50, 1.3)
        assert hit_rate(cat, set()) == 0.0
        assert hit_rate(cat, set(range(1, 51))) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_catalog_is_k_over_n(self):
        cat = build_catalog(100, 0.0)
        assert hit_rate(cat, set(range(1, 11))) == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("bad", [{0}, {1001}, {1, 2000}])
    def test_rejects_out_of_range_ids(self, bad):
        cat = build_catalog(1000, 1.0)
        with pytest.raises(ValueError):
            hit_rate(cat, bad)

    def test_top_k_is_optimal_exhaustive(self):
        """No k-subset beats the k most popular ids (small-N exhaustive check)."""
        cat = build_catalog(9, 0.9)
        for k in range(10):
            best = hit_rate(cat, set(top_k(cat, k)))
            for combo in itertools.combinations(range(1, 10), k):
                assert hit_rate(cat, set(combo)) <= best + 1e-12


class TestTopK:
    def test_prefix_of_ids(self):
        cat = build_catalog(40, 1.0)
        assert top_k(cat, 5) == [1, 2, 3, 4, 5]
        assert top_k(cat, 0) == []
        assert top_k(cat, 40) == list(range(1, 41))

    def test_rejects_k_beyond_catalog(self):
        cat = build_catalog(40, 1.0)
        with pytest.raises(ValueError):
            top_k(cat, 41)
        with pytest.raises(ValueError):
            top_k(cat, -1)


class TestSampleRequest:
    def test_ids_in_range(self):
        cat = build_catalog(37, 1.1)
        rng = np.random.default_rng(0)
        draws = sample_requests(cat, 2000, rng)
        assert draws.min() >= 1 and draws.max() <= 37

    def test_deterministic_given_seed(self):
        cat = build_catalog(100, 1.0)
        a = sample_requests(cat, 500, np.random.default_rng(42))
        b = sample_requests(cat, 500, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_consumes_one_uniform_per_draw(self):
        """rng state advances by exactly one variate per sampled id."""
        cat = build_catalog(100, 1.0)
        g1 = np.random.default_rng(7)
        g2 = np.random.default_rng(7)
        sample_requests(cat, 1, g1)
        g2.random(1)
        assert g1.random() == g2.random()

    def test_extreme_skew_concentrates_on_head(self):
        cat = build_catalog(1000, 100.0)
        rng = np.random.default_rng(3)
        draws = sample_requests(cat, 10**6, rng)
        assert int((draws == 1).sum()) >= 999_999

    @pytest.mark.parametrize("gamma", [0.56, 1.0])
    def test_chi_square_goodness_of_fit(self, gamma):
        """1e5 draws against the exact pmf, alpha = 0.001."""
        cat = build_catalog(100, gamma)
        rng = np.random.default_rng(11)
        draws = sample_requests(cat, 100_000, rng)
        observed = np.bincount(draws, minlength=101)[1:]
        expected = cat.popularity * 100_000
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 0.001

    def test_singleton_catalog(self):
        cat = build_catalog(1, 2.0)
        rng = np.random.default_rng(9)
        np.testing.assert_array_equal(sample_requests(cat, 1, rng), [1])
