"""Topological entropy two independent ways, with two-sided error bounds.

Block-count route: exact big-integer word counts over growing windows; the
per-length ratios log c_n / n decrease subadditively to the entropy, giving
a rigorous upper bound, and gap certificates turn concatenation-with-fill
into a supermultiplicative lower bound.  Spectral route: the language grows
like the Perron root of the minimal automaton's transition count matrix;
power iteration yields Collatz-Wielandt bounds on that root, an interval
of the requested log-width.  Its ends are binary64 quotients of rounded
sums, not yet checked exactly, so that interval holds the root up to
their rounding, not with outward-rounded certainty.

The power iteration never forms a matrix.  Each strongly connected
component is read from ``acceptor.trans`` as one target array per symbol,
with a pad slot holding 0.0 for moves that are undefined or leave the
component, so a sweep is ``Mv = v[t_0] + v[t_1] + ...`` and one add,
``v = Mv + v``: O(n |A|) time and memory where a dense block costs O(n^2).
The vector is rescaled only once per batch of sweeps, and by a power of
two, which rounds nothing; the bracket is tested once per batch.  Over two
letters a row of the product has at most two nonzero terms, each an exact
product (a count of 1 or 2 times an entry), and a sum of two floats rounds
the same in either order, so every summation order, a dense BLAS matvec's
included, gives the same bits.  Over three letters a row can have three
terms, summed here in symbol order; that order is fixed, whereas a dense
matvec's depends on the kernel the BLAS library picks, so a bracket end
may differ from a dense run's by an ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dfa import word_counts
from .errors import CapExceeded, NotMixing, NotSubshift
from .props import _condensation, si_certificate
from .shift import Shift, language_included
from .base import Decision

_ITER_CAP = 200_000
_BATCH = 16  # power sweeps per Collatz-Wielandt test
# the least tolerance: below it, binary64 ratios of an exact iterate can
# coincide and give a zero-width bracket around an irrational root
TOL_MIN = 1e-12


@dataclass(frozen=True)
class FolnerWindow:
    """The averaging interval [0, n).

    Dilating by [-e, e] adds exactly e cells on each side, so the boundary
    proportion is exactly 2e/n, which vanishes as the window grows; that
    exact ratio is what the entropy averages quotient out.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("window length must be positive")

    @property
    def interval(self) -> range:
        return range(0, self.n)

    def boundary_ratio(self, e: int) -> Fraction:
        if e < 0:
            raise ValueError("dilation radius must be >= 0")
        return Fraction(2 * e, self.n)


@dataclass(frozen=True)
class EntropyEstimate:
    """An entropy value in nats with a two-sided error bound.

    ``method`` is "block-count" or "spectral"; ``params`` carries the raw
    data behind the estimate (ratio sequence, bracket, iteration counts).
    The true entropy lies within ``error_bound`` of ``value``, for the
    spectral route up to the rounding of its binary64 bracket ends.
    """

    value: float
    method: str
    params: dict = field(compare=False)
    error_bound: float = 0.0


def block_count(x: Shift, n: int) -> int:
    """Exact number of length-n language words, by integer vector-matrix
    powering over the minimal automaton."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return word_counts(x.acceptor, n)[n]


def block_counts(x: Shift, n_max: int) -> list[int]:
    """Exact counts c_0..c_{n_max} in one pass."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return word_counts(x.acceptor, n_max)


def entropy_blocks(x: Shift, n_max: int) -> EntropyEstimate:
    """Entropy from exact block counts up to length n_max.

    The subadditive ratios give the upper bound min_m log c_m / m.  When a
    uniform-gap certificate exists, any two words concatenate across a gap
    of the certified length, so c_{a+N0+b} >= c_a * c_b and every
    log c_k / (k + N0) is a lower bound; without a certificate the lower
    bound falls back to 0.  The reported value is the difference quotient
    across the last doubling clamped into that bracket, and error_bound is
    the distance to the farther bracket end.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    counts = block_counts(x, n_max)
    if counts[n_max] == 0:
        return EntropyEstimate(0.0, "block-count",
                               {"n_max": n_max, "degenerate": "empty"}, 0.0)
    logs = [math.log(c) for c in counts]
    ratios = [logs[n] / n for n in range(1, n_max + 1)]
    upper = min(ratios)
    lower = 0.0
    gap_used = None
    try:
        cert = si_certificate(x)
        gap_used = cert.N0_bound
        lower = max(logs[k] / (k + cert.N0_bound)
                    for k in range(1, n_max + 1))
    except NotMixing:
        pass
    half = (n_max + 1) // 2
    quotient = (logs[n_max] - logs[half]) / (n_max - half)
    value = min(upper, max(lower, quotient))
    err = max(upper - value, value - lower)
    params = {"n_max": n_max, "sequence": tuple(ratios),
              "upper": upper, "lower": lower, "quotient": quotient,
              "gap_bound": gap_used}
    return EntropyEstimate(value, "block-count", params, err)


def _symbol_targets(trans, comp: list[int]) -> list[np.ndarray]:
    """One local target array per symbol for the component ``comp``.

    Entry i of the array for symbol a is the index in ``comp`` of the
    a-successor of the i-th state, or ``len(comp)``, the pad slot, when
    that move is undefined or leaves the component.  The pad slot is entry
    ``len(comp)`` of every array and moves to itself.
    """
    pos = {q: i for i, q in enumerate(comp)}
    pad = len(comp)
    return [np.array([pos.get(t, pad) for t in col] + [pad], dtype=np.intp)
            for col in zip(*(trans[q] for q in comp))]


def _component_bracket(targets: list[np.ndarray],
                       tol: float) -> tuple[float, float, int]:
    """Two-sided Perron-root bracket for an irreducible count block with
    at least two states.

    ``targets`` holds one local target array per symbol (see
    :func:`_symbol_targets`); the block's matrix M has M[i][j] = the number
    of symbols taking state i to state j.  Power iteration runs on M+I
    (primitive, so the ratios converge).  A sweep is
    ``Mv = v[t_0] + v[t_1] + ...``, summed in symbol order with the pad
    slot held at 0.0, then ``v = Mv + v``: no maximum and no division.
    After each batch of ``_BATCH`` sweeps v is scaled by a power of two,
    which rounds nothing, so the iterates are exactly those of power
    iteration rescaled by a power of two every sweep.  For every positive
    v, min_i (Mv)_i/v_i <= root <= max_i (Mv)_i/v_i (Seneta, *Non-negative
    Matrices and Markov Chains*, Thm 1.6), and in exact arithmetic these
    brackets nest along the (M+I)-iterates.  So only a batch's last sweep
    is tested; when its bracket has log(hi) - log(lo) <= tol the batch is
    rescanned in order and its first such sweep is returned, as
    (lo, hi, iterations).  The ends are binary64 quotients, not yet
    checked exactly.
    """
    first, rest = targets[0], targets[1:]
    v = np.append(np.ones(len(first) - 1), 0.0)  # the pad slot is last
    done, width = 0, math.inf
    while done < _ITER_CAP:
        batch = []
        for _ in range(min(_BATCH, _ITER_CAP - done)):
            mv = v[first]
            for t in rest:
                mv += v[t]
            batch.append((v, mv))
            v = mv + v
        # from a maximum of at most 1, entries grow at most (|A|+1)-fold a
        # sweep, far below 2**1023 within one batch
        v *= 2.0 ** -math.frexp(v.max())[1]
        # the batch's last sweep, then, if it passes, the batch in order
        for k, (u, mu) in enumerate([batch[-1], *batch]):
            quot = mu[:-1] / u[:-1]
            lo, hi = float(quot.min()), float(quot.max())
            width = math.log(hi) - math.log(lo) if lo > 0 else math.inf
            if k and width <= tol:
                return lo, hi, done + k
            if not k and width > tol:
                break
        done += len(batch)
    raise CapExceeded(
        f"power iteration failed to certify within {_ITER_CAP} sweeps: "
        f"{len(v) - 1} states, bracket width {width:.3g} > tol {tol:g}")


def entropy_spectral(x: Shift, tol: float = 1e-9) -> EntropyEstimate:
    """Entropy as the log of the largest Perron root over the strongly
    connected components of the minimal automaton, bracketed to log-width
    tol.  Memoised on ``x`` per ``tol``, which must be at least ``TOL_MIN``."""
    if not tol >= TOL_MIN:
        raise ValueError(f"tol must be >= {TOL_MIN:g}, got {tol!r}")
    return x.derived(("entropy_spectral", tol),
                     lambda y: _entropy_spectral(y, tol))


def _entropy_spectral(x: Shift, tol: float) -> EntropyEstimate:
    """The count matrix of the acceptor is block triangular over its
    condensation, so its Perron root is the largest over the diagonal
    blocks (Lind & Marcus, *Symbolic Dynamics and Coding*, 4.4).  A
    one-state component's root is its number of self-loops; a larger one
    is bracketed by :func:`_component_bracket` on its per-symbol target
    arrays, read from ``acceptor.trans``.  ``iterations`` sums the sweeps
    over all components."""
    if x.is_empty:
        return EntropyEstimate(0.0, "spectral", {"degenerate": "empty"}, 0.0)
    trans = x.acceptor.trans
    best_lo, best_hi, total_it, best_size = 0.0, 0.0, 0, 0
    for comp in _condensation(x):
        if len(comp) == 1:
            loops = trans[comp[0]].count(comp[0])
            if not loops:
                continue
            lo = hi = float(loops)
            it = 0
        else:
            lo, hi, it = _component_bracket(_symbol_targets(trans, comp), tol)
        total_it += it
        if hi > best_hi:
            best_size = len(comp)
        best_lo = max(best_lo, lo)
        best_hi = max(best_hi, hi)
    if best_hi < 1.0:
        # no cycle carries any word; only finitely many words exist
        return EntropyEstimate(0.0, "spectral",
                               {"degenerate": "finite language"}, 0.0)
    log_lo, log_hi = math.log(best_lo), math.log(best_hi)
    value = (log_lo + log_hi) / 2
    err = (log_hi - log_lo) / 2
    params = {"tol": tol, "iterations": total_it, "bracket": (best_lo, best_hi),
              "component_size": best_size}
    return EntropyEstimate(value, "spectral", params, err)


def entropy_compare(x: Shift, y: Shift, tol: float = 1e-9) -> Decision:
    """Certify h(y) < h(x) for an included pair of shifts.

    Requires L(y) contained in L(x).  The verdict is True only when the
    spectral brackets are disjoint by more than their certified errors;
    otherwise None (inconclusive): floating brackets cannot certify
    equality of distinct roots, only separation.
    """
    inc = language_included(y, x)
    if not inc.verdict:
        raise NotSubshift(
            f"L(y) is not contained in L(x): witness {inc.witness.text!r}")
    ex = entropy_spectral(x, tol)
    ey = entropy_spectral(y, tol)
    gap = ex.value - ey.value
    certified = gap - ex.error_bound - ey.error_bound
    verdict = True if certified > 0 else None
    return Decision(verdict, (ex, ey), "language",
                    note=f"gap {gap:.12g}, certified margin {certified:.3g}")
