"""Counter-based pseudo-random primitives shared by every sampler in the package.

Each draw is a pure function of (seed, counter): there is no generator state
to advance, so draws can be produced in any order, split across workers, and
still reproduce bit for bit.  The mixing function is the SplitMix64 finalizer
applied to ``seed + (counter + 1) * GOLDEN`` modulo 2**64.

This module is the only place the SplitMix64 constants and mixing live.  The
plain Python integer versions (``mix64``, ``derive_seed``) are the reference;
the numpy uint64 versions vectorize the same arithmetic and agree bit for bit.

It also holds the one inverse cdf.  A word ``z`` stands for the uniform
``(z >> 11) * 2**-53`` in [0, 1), but no float is formed: ``cdf_thresholds``
turns a cdf into uint64 thresholds once, and ``inverse_cdf`` binary-searches
each word among them, counting the thresholds at or below it, which is exactly
the atom the cdf search on that uniform finds.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

GOLDEN = 0x9E3779B97F4A7C15
MIX_A = 0xBF58476D1CE4E5B9
MIX_B = 0x94D049BB133111EB

# Domain separation between scenario streams and per-sample seed derivation.
SAMPLE_SALT = 0x5851F42D4C957F2D

_TWO_53 = 9007199254740992.0  # 2**53


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * MIX_B) & MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, index: int) -> int:
    """Independent child seed for sample ``index`` of a run keyed by ``base_seed``.

    Mixing goes through a salted stream so that child seeds never collide with
    the scenario stream of ``base_seed`` itself.
    """
    return mix64(((base_seed ^ SAMPLE_SALT) + (index + 1) * GOLDEN) & MASK64)


# --- numpy uint64 versions (silent wraparound; the products and sums go
# through explicit ufuncs, which wrap without a warning even on scalars) ---

_U1 = np.uint64(1)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
_UGOLDEN = np.uint64(GOLDEN)
_UMIX_A = np.uint64(MIX_A)
_UMIX_B = np.uint64(MIX_B)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = np.multiply(z ^ (z >> _U30), _UMIX_A)
    z = np.multiply(z ^ (z >> _U27), _UMIX_B)
    return z ^ (z >> _U31)


def stream_array(seed, counter) -> np.ndarray:
    """Word ``counter`` of the stream ``seed`` as uint64, vectorized.

    ``seed`` (in 0..2**64-1) and ``counter`` broadcast against each other:
    one seed over many counters is a scenario, many seeds at one counter is a
    stage of a batch walk.
    """
    seed = np.asarray(seed, dtype=np.uint64)
    counter = np.asarray(counter, dtype=np.uint64)
    return _mix64_array(np.add(seed, np.multiply(counter + _U1, _UGOLDEN)))


def derive_seed_array(base_seed: int, start: int, stop: int) -> np.ndarray:
    """Vectorized ``derive_seed`` for indices start..stop-1 (uint64 output):
    the salted stream of ``base_seed`` over those counters."""
    return stream_array((base_seed ^ SAMPLE_SALT) & MASK64, np.arange(start, stop))


# --- inverse cdf on raw stream words ---


def cdf_thresholds(cdf: np.ndarray) -> np.ndarray:
    """Sorted uint64 thresholds of a non-decreasing ``cdf`` over W atoms: the
    atom of a stream word ``z`` is the number of thresholds ``t <= z``.

    This is the inverse cdf of the uniform ``u = (z >> 11) * 2**-53`` in
    [0, 1): the number of entries ``c <= u``, clipped to ``W - 1``.  ``u`` is
    an exact multiple of 2**-53 and ``c * 2**53`` is exact, so ``c <= u``
    holds exactly when ``ceil(c * 2**53) <= z >> 11``, that is when
    ``z >= ceil(c * 2**53) << 11``.  The last entry only matters through the
    clip, so it is left out, and so are entries with ``ceil(c * 2**53) >=
    2**53``, which no ``u`` reaches.
    """
    scaled = np.ceil(np.asarray(cdf, dtype=np.float64)[:-1] * _TWO_53)
    scaled = np.maximum(scaled[scaled < _TWO_53], 0.0)  # entries below 0 pass every word
    return scaled.astype(np.uint64) << _U11


def inverse_cdf(thresholds: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Atom indices of the stream ``words`` under ``cdf_thresholds``: a
    binary search of each word among the thresholds, counting the ones at or
    below it."""
    return np.searchsorted(thresholds, words, side="right")
