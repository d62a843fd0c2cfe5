"""Zipf content catalog and hit-rate arithmetic.

Content ids run from 1 to ``n_files`` and are sorted by popularity, so
id 1 is always the most requested file and ``top_k`` is simply a prefix
of the id range.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Catalog", "build_catalog", "hit_rate", "sample_requests", "top_k"]


@dataclass(frozen=True)
class Catalog:
    """Immutable content catalog with a Zipf popularity law.

    Attributes
    ----------
    n_files : int
        Number of distinct files, ids ``1..n_files``.
    gamma : float
        Zipf skew exponent; 0 gives a uniform catalog.
    popularity : numpy.ndarray
        ``popularity[i - 1]`` is the request probability of id ``i``.
        Non-increasing and normalised to sum to 1.
    """

    n_files: int
    gamma: float
    popularity: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "popularity", np.asarray(self.popularity, dtype=np.float64))
        # Cumulative distribution, used by sample_requests for an
        # inverse-CDF lookup.
        object.__setattr__(self, "_cdf", np.cumsum(self.popularity))


def build_catalog(n_files: int, gamma: float) -> Catalog:
    """Build a catalog whose popularity follows a Zipf law.

    The popularity of id ``i`` is ``i**-gamma / sum(j**-gamma for j in 1..n)``.

    Parameters
    ----------
    n_files : int
        Catalog size, at least 1.
    gamma : float
        Skew exponent, finite and non-negative.

    Returns
    -------
    Catalog

    Raises
    ------
    ValueError
        If ``n_files < 1`` or ``gamma`` is negative or not finite.
    """
    if n_files < 1:
        raise ValueError(f"n_files must be >= 1, got {n_files}")
    if not np.isfinite(gamma) or gamma < 0:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    ids = np.arange(1, n_files + 1, dtype=np.float64)
    weights = ids ** -float(gamma)
    popularity = weights / weights.sum()
    return Catalog(n_files=int(n_files), gamma=float(gamma), popularity=popularity)


def hit_rate(catalog: Catalog, cache: set[int]) -> float:
    """Probability that a random request is found in ``cache``.

    Parameters
    ----------
    catalog : Catalog
    cache : set of int
        Cached content ids, each in ``1..n_files``.

    Returns
    -------
    float
        Sum of the popularities of the cached ids, in [0, 1].
    """
    if not cache:
        return 0.0
    ids = np.fromiter(cache, dtype=np.int64, count=len(cache))
    if ids.min() < 1 or ids.max() > catalog.n_files:
        raise ValueError("cache contains ids outside 1..n_files")
    return float(catalog.popularity[ids - 1].sum())


def top_k(catalog: Catalog, k: int) -> list[int]:
    """The ``k`` most popular content ids, i.e. ids ``1..k``."""
    if k < 0 or k > catalog.n_files:
        raise ValueError(f"k must be in 0..{catalog.n_files}, got {k}")
    return list(range(1, k + 1))


def sample_requests(catalog: Catalog, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` iid content ids; consumes exactly ``n`` uniform variates."""
    idx = np.searchsorted(catalog._cdf, rng.random(n), side="right")
    # Guard the u ~ 1.0 edge where float rounding of the CDF could land
    # one past the last id.
    return np.minimum(idx, catalog.n_files - 1).astype(np.int64) + 1
