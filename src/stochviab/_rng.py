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
turns a cdf into uint64 thresholds once, and the atom of a word is the number
of thresholds at or below it, which is exactly the atom the cdf search on that
uniform finds.  ``inverse_cdf`` counts them through a guide table (Chen and
Asau, 1974): the top 12 bits of a word pick one of 4096 buckets, and a bucket
that no threshold splits holds its atom, so one gather answers almost every
word.  Only words in a bucket that a threshold splits fall back to a binary
search.  At most one bucket per threshold is split, so with few thresholds
next to 4096 buckets a draw costs about the same for any number of atoms.

The finalizer's last step, ``z ^ (z >> 31)``, leaves a word's top 31 bits as
they are, so a word's guide bucket is already known before that step.
``draw`` mixes a stage of words in place in buffers that the caller keeps,
reads the buckets, and finishes only the few words of split buckets for
their search; ``sample_scenario`` and the closed-loop walk both draw
through it.
"""

from __future__ import annotations

from typing import NamedTuple

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
_U52 = np.uint64(52)
_UGOLDEN = np.uint64(GOLDEN)
_UMIX_A = np.uint64(MIX_A)
_UMIX_B = np.uint64(MIX_B)


def _mix_head(seed, counter, z=None, t=None) -> tuple[np.ndarray, np.ndarray]:
    """Word ``counter`` of the stream ``seed`` short of the finalizer's last
    xorshift ``z ^ (z >> 31)``, as ``(z, t)``.

    The word is mixed in place in ``z``, with ``t`` as scratch: uint64
    arrays of the broadcast shape, allocated when not given.  An array of
    counters has its offsets ``(counter + 1) * GOLDEN`` built in ``t``, so
    uint64 counters are mixed with no array beside ``z`` and ``t``.
    """
    seed = np.asarray(seed, dtype=np.uint64)
    counter = np.asarray(counter, dtype=np.uint64)
    if z is None:
        z = np.empty(np.broadcast_shapes(seed.shape, counter.shape), dtype=np.uint64)
    if t is None:
        t = np.empty_like(z)
    offset = (np.multiply(np.add(counter, _U1, out=t), _UGOLDEN, out=t) if counter.ndim
              else np.multiply(counter + _U1, _UGOLDEN))
    np.add(seed, offset, out=z)
    for shift, mult in ((_U30, _UMIX_A), (_U27, _UMIX_B)):
        np.bitwise_xor(z, np.right_shift(z, shift, out=t), out=z)
        np.multiply(z, mult, out=z)
    return z, t


def stream_array(seed, counter) -> np.ndarray:
    """Word ``counter`` of the stream ``seed`` as uint64, vectorized.

    ``seed`` (in 0..2**64-1) and ``counter`` broadcast against each other:
    one seed over many counters is a scenario, many seeds at one counter is a
    stage of a batch walk.
    """
    z, t = _mix_head(seed, counter)
    return np.bitwise_xor(z, np.right_shift(z, _U31, out=t), out=z)


def derive_seed_array(base_seed: int, start: int, stop: int) -> np.ndarray:
    """Vectorized ``derive_seed`` for indices start..stop-1 (uint64 output):
    the salted stream of ``base_seed`` over those counters."""
    return stream_array((base_seed ^ SAMPLE_SALT) & MASK64, np.arange(start, stop))


# --- inverse cdf on raw stream words ---

# A word's guide bucket is its top 12 bits, ``z >> 52``; the finalizer's last
# xorshift ``z ^ (z >> 31)`` does not change them, so ``inverse_cdf`` reads
# them from the word before that xorshift.
_BUCKET_LOW = np.uint64((1 << 52) - 1)


class CdfThresholds(NamedTuple):
    """Integer form of a cdf for ``inverse_cdf``: the sorted uint64
    ``thresholds``, and the int64 ``guide`` over the 4096 buckets of a
    word's top 12 bits, holding the atom of every word in a bucket
    that no threshold splits and -1 in the others."""

    thresholds: np.ndarray
    guide: np.ndarray


def cdf_thresholds(cdf: np.ndarray) -> CdfThresholds:
    """Thresholds and guide of a non-decreasing ``cdf`` over W atoms: the
    atom of a stream word ``z`` is the number of thresholds ``t <= z``.

    This is the inverse cdf of the uniform ``u = (z >> 11) * 2**-53`` in
    [0, 1): the number of entries ``c <= u``, clipped to ``W - 1``.  ``u`` is
    an exact multiple of 2**-53 and ``c * 2**53`` is exact, so ``c <= u``
    holds exactly when ``ceil(c * 2**53) <= z >> 11``, that is when
    ``z >= ceil(c * 2**53) << 11``.  The last entry only matters through the
    clip, so it is left out, and so are entries with ``ceil(c * 2**53) >=
    2**53``, which no ``u`` reaches.

    Bucket ``b`` of the guide holds the words ``b << 52`` through
    ``(b << 52) + 2**52 - 1``.  When as many thresholds lie at or below its
    first word as at or below its last, every word in it has that atom, and
    the guide holds it; otherwise the guide holds -1.
    """
    scaled = np.ceil(np.asarray(cdf, dtype=np.float64)[:-1] * _TWO_53)
    scaled = np.maximum(scaled[scaled < _TWO_53], 0.0)  # entries below 0 pass every word
    thresholds = scaled.astype(np.uint64) << _U11
    first = np.arange(4096, dtype=np.uint64) << _U52
    lo = np.searchsorted(thresholds, first, side="right")
    hi = np.searchsorted(thresholds, first | _BUCKET_LOW, side="right")
    return CdfThresholds(thresholds, np.where(lo == hi, lo, -1).astype(np.int64))


def inverse_cdf(table: CdfThresholds, z: np.ndarray, t: np.ndarray | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Atom indices (int64) under ``cdf_thresholds`` of the stream words
    ``z ^ (z >> 31)``, given the uint64 words ``z`` short of that last
    xorshift (see ``_mix_head``): the guide entry of each word's bucket,
    read from ``z`` itself, and for the words in split buckets, finished
    first, a binary search among the thresholds, counting the ones at or
    below the word.  ``t`` (uint64) and ``out`` (int64) are optional
    buffers of ``z``'s shape; ``z`` is only read.
    """
    t = np.right_shift(z, _U52, out=t)
    d = np.take(table.guide, t.view(np.int64), out=out, mode="clip")  # every bucket is < 4096
    miss = np.flatnonzero(d < 0)
    if miss.size:
        w = z.take(miss)
        d.put(miss, np.searchsorted(table.thresholds, w ^ (w >> _U31), side="right"))
    return d


def draw(table: CdfThresholds, seed, counter, out=None) -> np.ndarray:
    """Atoms (int64) of word ``counter`` of the streams ``seed`` under
    ``table``, the two broadcast against each other as in ``stream_array``.

    ``out`` is an optional triple of buffers of the broadcast shape, two
    uint64 and one int64, that the draw is mixed in and returned in.
    """
    z, t, d = (None, None, None) if out is None else out
    z, t = _mix_head(seed, counter, z, t)
    return inverse_cdf(table, z, t, d)
