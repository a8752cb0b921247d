"""Arithmetic tilings of the integers and the counting bounds they drive.

A stride-k tiling places the tile [0, k) at every multiple of k: translates
are disjoint, and dilating the tile to [-k+1, k-1] covers every integer.
Restricted to a finite window, at least a 1/(2k) proportion of positions
carries a complete tile, which is what turns one excluded pattern per tile
into an exponential counting gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .base import Word
from .entropy import block_counts
from .errors import (CertificateMissing, EmptyShift, NotMixing,
                     WindowTooSmall, WordNotInLanguage)
from .props import si_certificate
from .shift import Shift


@dataclass(frozen=True)
class TilingSpec:
    """Stride-k tiling data: tile E = [0, k), dilated tile E' = [-k+1, k-1],
    translate set T = k*Z represented by the stride."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("stride must be >= 1")

    @property
    def tile(self) -> range:
        return range(0, self.k)

    @property
    def dilated(self) -> range:
        return range(-self.k + 1, self.k)

    def translates_in(self, n: int) -> list[int]:
        """Tile origins g (multiples of k) with g + [0,k) inside [0, n)."""
        if n < self.k:
            return []
        return list(range(0, n - self.k + 1, self.k))


class TilingDensity(NamedTuple):
    count: int
    ratio: Fraction
    alpha_ok: bool


def tiling_Z(k: int) -> TilingSpec:
    """Construct the stride-k tiling and verify it exactly on [-10k, 10k):
    translate tiles are pairwise disjoint and dilated tiles cover.

    Both are checked by interval arithmetic, one step per translate, in
    order: the translates of the tile, clipped to the window, must each
    start where the last one stopped and end at the window's end, and each
    dilated translate must start inside the cover built so far."""
    spec = TilingSpec(k)
    tile, dilated = spec.tile, spec.dilated
    lo, hi = -10 * k, 10 * k
    tiled = covered = lo  # the window is tiled, and covered, up to here
    for g in range(lo - k, hi + k, k):
        start, stop = max(g + tile.start, lo), min(g + tile.stop, hi)
        if start < stop:
            if start < tiled:
                raise AssertionError("tiling translates overlap")
            if start > tiled:
                raise AssertionError("tiling translates miss the window")
            tiled = stop
        if covered < hi and g + dilated.start > covered:
            raise AssertionError("dilated tiles fail to cover")
        covered = max(covered, g + dilated.stop)
    if tiled < hi:
        raise AssertionError("tiling translates miss the window")
    if covered < hi:
        raise AssertionError("dilated tiles fail to cover")
    return spec


def tiling_density(t: TilingSpec, n: int) -> TilingDensity:
    """Exact count of complete tiles inside [0, n) and its proportion.

    The proportion is at least 1/(2k) once n >= k (the declared threshold
    is n >= 2k; below it the single complete tile already clears the bar).
    """
    if n < t.k:
        raise WindowTooSmall(f"window {n} is shorter than one tile {t.k}")
    count = (n - t.k) // t.k + 1
    ratio = Fraction(count, n)
    return TilingDensity(count, ratio, ratio >= Fraction(1, 2 * t.k))


class PatternExclusionReport(NamedTuple):
    d: int
    stride: int
    margin: int
    pattern: Word
    tiles: tuple[int, ...]
    rho: int
    q_count: int
    total_count: int
    holds: bool
    per_window_gap: float


def _certificate_margin(x: Shift) -> int:
    try:
        return si_certificate(x).N0_bound
    except NotMixing as e:
        raise CertificateMissing(f"no uniform-gap certificate: {e}") from e


def _tile_starts(n: int, d: int, margin: int,
                 stride: int) -> tuple[int, ...]:
    """Starts g, at multiples of ``stride``, of the tiles [g, g+d) whose
    dilation by ``margin`` on both sides lies inside [0, n)."""
    return tuple(g for g in range(0, max(n, 1), stride)
                 if g >= margin and g + d - 1 + margin <= n - 1)


def pattern_exclusion_bound(x: Shift, d: int, n: int,
                            pattern=None) -> PatternExclusionReport:
    """Exclude one pattern on every complete tile and compare counts.

    The tile [0, d) is dilated by the certificate margin N0 on both sides
    to E of size d + 2*N0; tiles are placed at stride |E| so the dilated
    copies stay disjoint and inside [0, n).  With rho = |L_{|E|}|, the
    words avoiding ``pattern`` on every tile number at most
    (1 - 1/rho)^{#tiles} of all length-n words; the check is exact:
    q * rho^t <= (rho-1)^t * c_n over the integers.  The pattern defaults
    to the lexicographically greatest word of length d.  Raises EmptyShift
    on the empty shift, WordNotInLanguage for a pattern outside L_d(x).
    """
    if d < 1:
        raise ValueError("pattern length d must be >= 1")
    if x.is_empty:
        raise EmptyShift("no pattern to exclude: the shift is empty")
    margin = _certificate_margin(x)
    stride = d + 2 * margin
    if n < 0:
        raise ValueError("n must be >= 0")
    if pattern is None:
        # from state 0, the greatest symbol with a defined move, d times:
        # every acceptor state of an extendable language reads on
        cols, q, ranks = x.preimage_cols, 0, []
        for _ in range(d):
            ranks.append(np.flatnonzero(cols[:, q] < cols.shape[1] - 1)[-1])
            q = cols[ranks[-1], q]
        pattern = x.alphabet.word_from_ranks(ranks)
    else:
        pattern = x.alphabet.word(pattern)
        if len(pattern) != d or not x.contains_word(pattern):
            raise WordNotInLanguage(
                f"pattern {pattern.text!r} is not an allowed word of "
                f"length {d}")
    tiles = _tile_starts(n, d, margin, stride)
    counts = block_counts(x, max(stride, n))
    rho, c_n = counts[stride], counts[n]
    q = _count_avoiding(x, n, tiles, pattern)
    t = len(tiles)
    holds = q * rho ** t <= (rho - 1) ** t * c_n
    gap = 0.0
    if q > 0 and c_n > 0 and n > 0:
        gap = (math.log(c_n) - math.log(q)) / n
    return PatternExclusionReport(d, stride, margin, pattern, tiles, rho,
                                  q, c_n, holds, gap)


def _count_avoiding(x: Shift, n: int, tiles: tuple[int, ...],
                    pattern: Word) -> int:
    """Exact count of length-n words whose restriction to each tile window
    [g, g+d) differs from the pattern.

    Right to left over [0, n), ``w[q]`` counts the words on [i, n) that
    state q reads and that avoid the pattern on the tiles there, one
    gather a position as in :func:`dfa.word_counts`.  At a tile start g
    the words reading the pattern go: q reads it to ``read[q]``, and the
    words going on from there were counted at the tile's end, g + d.
    """
    d, cols = len(pattern), x.preimage_cols
    read = np.arange(cols.shape[1])
    for a in pattern.ranks():
        read = cols[a][read]
    starts, ends = set(tiles), {g + d for g in tiles}
    w = np.ones(cols.shape[1], dtype=object)
    w[-1] = 0
    for i in reversed(range(n)):
        if i + 1 in ends:
            at_end = w
        w = w[cols].sum(axis=0)
        if i in starts:
            w = w - at_end[read]
    return w[0]


class PositivityReport(NamedTuple):
    d: int
    stride: int
    margin: int
    rows: tuple[tuple[int, int, int], ...]  # (n, c_n, tile count)
    holds: bool


def positivity_lower_bound(x: Shift, n_max: int = 24) -> PositivityReport:
    """Constructive positive-entropy bound: with tiles of the certificate
    stride, each complete tile carries at least two exchangeable words, so
    c_n >= 2^{#tiles}; checked exactly for all n <= n_max."""
    counts = block_counts(x, n_max)
    d = next((m for m, c in enumerate(counts) if c >= 2), None)
    if d is None:
        raise CertificateMissing(
            f"fewer than two words at every length <= {n_max}")
    margin = _certificate_margin(x)
    stride = d + 2 * margin
    rows = []
    ok = True
    for n in range(n_max + 1):
        tiles = _tile_starts(n, d, margin, stride)
        rows.append((n, counts[n], len(tiles)))
        ok = ok and counts[n] >= 2 ** len(tiles)
    return PositivityReport(d, stride, margin, tuple(rows), ok)
