"""Irreducibility, mixing, strong irreducibility, gap certificates, gluing.

Irreducibility and mixing are first read off the presentation a shift was
built from.  A shift presented by a strongly connected graph is
irreducible, and one presented by a strongly connected aperiodic graph is
mixing: its edge shift is mixing, and a factor of a mixing shift is mixing
(Lind & Marcus, *Symbolic Dynamics and Coding*, 4.5).  So when
``x.essential`` is one strongly connected component, one pass over it (a
component search, then one breadth-first search for its period) settles
irreducibility, and mixing too when the period is 1.  The image of a full
shift is presented by its recoding, a primitive de Bruijn graph.  The pass
is tried only when the essential graph has at most as many vertices as the
acceptor has states, so that it never costs much more than the acceptor's
own pass; a presentation given as a graph can be far larger.

Every other case, and every False verdict with its witness, reads the
minimal acceptor.  No move leaves the acceptor's sink component (the first
component of its condensation), so the sink presents an irreducible shift
inside x.  A nonempty shift is irreducible iff the sink meets every
backward reading set, that is iff it presents every word, as a sink of
every state does; there is no closure over the other states.  When it
misses the states reading v, no word joins a word u leading into the sink
to v.  For an irreducible shift the follower sets of its synchronizing
words are that sink, which every state reaches (Lind & Marcus, 3.3), so
the sink is the synchronized cover; its period and period classes come
from one breadth-first search inside it.

Uniform-gap questions quantify over infinitely many word pairs and gap
lengths; both quantifiers are made finite here.  Word pairs matter only
through (state after u, set of states reading v), and every such set holds
an inclusion-minimal one, so gap k fails iff some state reaches some
minimal backward set by no word of length k.  The minimal gap evolves one
row per minimal set, the states from which a word of the current length
leads into it, by per-symbol preimage; the rows live in a finite space,
so they are eventually periodic, and detecting the cycle turns "for all
N >= N0" into an exact check.

Each invariant is computed once per Shift and memoised on it (see
:meth:`Memo.derived`): the period of the essential graph when it is
strongly connected, the acceptor's successor table, which every pass over
its moves reads, its condensation (strongly connected components, whose
sink irreducibility, mixing, the synchronized cover and spectral entropy
read), the joinability data (backward family and its minimal sets), the
irreducibility verdict, the synchronized cover, the mixing report and the
gap certificate.  State sets are bitmasks, but the backward family and
the gap evolution step bool arrays by vectorised preimages
(:func:`preimage_cols`).  The cover diameter ORs successor rows
(:func:`directed_diameter`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import ConfigurationWindow, Decision, Word
from .dfa import (FactorialDfa, _subset_step, backward_subsets, preimage_cols,
                  shortest_sync, shortest_words)
from .errors import (CapExceeded, EmptyShift, NoSyncWord, NotMixing,
                     SeparationTooSmall, WordNotInLanguage)
from .graph import (LabeledGraph, directed_diameter,
                    strongly_connected_components)
from .shift import Shift

_GAP_CAP = 256


@dataclass(frozen=True)
class SyncWitness:
    """A word all of whose runs in the minimal follower automaton end at
    one state.

    ``vertex`` is that state (None only in the empty-shift degenerate
    case); ``length`` equals ``len(word)``.  The empty word is a valid
    witness when the automaton has a single state.  The same focusing
    property then holds in the synchronized cover, the canonical
    deterministic presentation cut out by the witness.
    """

    word: Word
    vertex: int | None
    length: int


@dataclass(frozen=True)
class SiCertificate:
    """Constructive uniform-gap certificate.

    ``n0`` is the least gap length from which the sync word can always be
    bridged to itself; ``L0 = n0 + len(sync word)``; ``D`` is the directed
    diameter of the synchronized strongly connected component; any gap of
    length at least ``N0_bound = L0 + 2*D`` can be filled between arbitrary
    language words.
    """

    sync: SyncWitness
    n0: int
    L0: int
    D: int
    N0_bound: int
    note: str = ""

    def to_kv(self) -> list[tuple[str, str]]:
        return [("sync_word", self.sync.word.text),
                ("l0", str(self.sync.length)),
                ("n0", str(self.n0)),
                ("L0", str(self.L0)),
                ("D", str(self.D)),
                ("N0_bound", str(self.N0_bound))]


@dataclass(frozen=True)
class MixingReport:
    irreducible: bool
    cycle_gcd: int
    mixing: bool
    witness: object = None
    note: str = ""


@dataclass(frozen=True)
class GlueRequest:
    """Finitely many pinned windows to be realized in one language word.

    ``parts`` are disjoint windows, sorted by position after construction;
    ``separation`` records the gap bound the caller is relying on (gluing
    is guaranteed to succeed when all gaps are at least a valid certificate
    bound, and is attempted regardless).
    """

    parts: tuple[ConfigurationWindow, ...]
    separation: int

    def __post_init__(self):
        parts = tuple(sorted(self.parts, key=lambda p: p.start))
        if not parts:
            raise ValueError("need at least one part")
        for a, b in zip(parts, parts[1:]):
            if b.start < a.stop:
                raise ValueError(
                    f"parts overlap: [{a.start},{a.stop}) and [{b.start},{b.stop})")
        object.__setattr__(self, "parts", parts)


# ---------------------------------------------------------------- helpers

def _successors(x: Shift) -> list[list[int]]:
    """``succ[q]``: the sorted distinct successors of acceptor state q (any
    symbol); memoised on ``x``."""
    return x.derived("successors", lambda y: [
        sorted({t for t in row if t != -1}) for row in y.acceptor.trans])


def _condensation(x: Shift) -> list[list[int]]:
    """Strongly connected components of the acceptor, sinks first (see
    :func:`strongly_connected_components`); memoised on ``x``."""
    return x.derived("condensation", lambda y: strongly_connected_components(
        _successors(y)))


def _period_levels(succ, root: int) -> tuple[dict[int, int], int]:
    """Breadth-first levels from ``root`` over the successor lists
    ``succ``, and the gcd of lvl[q] + 1 - lvl[t] over the moves q -> t
    read: the period of the strongly connected component of ``root`` when
    no move leaves it."""
    lvl, order, g = {root: 0}, [root], 0
    for q in order:
        for t in succ[q]:
            if t not in lvl:
                lvl[t] = lvl[q] + 1
                order.append(t)
            g = math.gcd(g, lvl[q] + 1 - lvl[t])
    return lvl, g


def _essential_period(x: Shift) -> int:
    """The period of ``x.essential`` when it is one strongly connected
    component, else 0; memoised on ``x``.  Also 0, with no pass over the
    graph, when it has more vertices than the acceptor has states."""
    def period(y: Shift) -> int:
        g = y.essential
        if g.n_vertices > y.acceptor.n_states:
            return 0
        succ = [sorted({d for d, _ in row}) for row in g.out_map()]
        if len(strongly_connected_components(succ)) != 1:
            return 0
        return _period_levels(succ, 0)[1]
    return x.derived("essential_period", period)


def _reading_states_mask(d: FactorialDfa, ranks) -> int:
    """Bitmask of states from which the whole word is readable."""
    mask = 0
    for q in range(d.n_states):
        if d.defined(ranks, start=q):
            mask |= 1 << q
    return mask


def _eventual_tail(state, step, failure, cap: int, what: str):
    """Least n0 such that ``failure`` is falsy at every step n >= n0 of the
    orbit state, step(state), ...

    The orbit lives in a finite space, so it is evolved until a value
    repeats (CapExceeded, naming ``what``, when that takes over ``cap``
    steps); from then on it cycles.  A failure inside the cycle recurs
    forever: the result is then (None, (n, failure, period)) for the first
    failing step n of the cycle.  Otherwise it is (n0, None), walking back
    from the start of the cycle over the passing steps.
    """
    seen: dict = {}
    history: list = []
    while state not in seen:
        if len(history) > cap:
            raise CapExceeded(f"{what} did not close within {cap} steps")
        seen[state] = len(history)
        history.append(state)
        state = step(state)
    pre = seen[state]
    fails = list(map(failure, history))
    for n in range(pre, len(history)):
        if fails[n]:
            return None, (n, fails[n], len(history) - pre)
    n0 = pre
    while n0 > 0 and not fails[n0 - 1]:
        n0 -= 1
    return n0, None


class _Joinability:
    """Per-shift data behind every "does some word join u to v" question.

    ``family`` pairs each backward reading set (as a bitmask) with its
    shortest representative word; ``minimal`` keeps the pairs whose sets
    are inclusion-minimal in the family, in family order.  Every set
    contains a minimal one, so a mask that meets them all meets every set.
    """

    __slots__ = ("family", "minimal")

    def __init__(self, x: Shift):
        self.family = backward_subsets(x.acceptor)
        # by size, so a set is kept unless a smaller kept set lies inside it
        kept: set[int] = set()
        for r in sorted((r for r, _ in self.family), key=int.bit_count):
            if all(k & ~r for k in kept):
                kept.add(r)
        self.minimal = [(r, v) for r, v in self.family if r in kept]

    def miss(self, mask: int) -> tuple[int, ...] | None:
        """Representative word of the first backward set (family order)
        disjoint from ``mask``, or None when ``mask`` meets every one.
        Only a mask that misses a minimal set scans the family."""
        if all(mask & r for r, _ in self.minimal):
            return None
        return next(v for r, v in self.family if not mask & r)


def _joinability(x: Shift) -> _Joinability:
    return x.derived("joinability", _Joinability)


# ------------------------------------------------------------ decisions

def is_irreducible(x: Shift) -> Decision:
    """Can every ordered pair of language words be joined: for all u, v is
    there some w with uwv in the language?

    Yes when ``x.essential`` is strongly connected
    (:func:`_essential_period`).  Otherwise the acceptor decides: its sink
    component presents an irreducible shift inside x, so x is irreducible
    iff the sink meets every backward reading set, as it does when it is
    the whole acceptor.  Otherwise the witness is a concrete unjoinable
    pair: u is the (length, lex)-least word leading into the sink, and v
    the word of the first backward set (family order) that misses the
    sink; every run after u stays in the sink, where no state reads v.
    Memoised on ``x``.
    """
    return x.derived("irreducible", _irreducible)


def _irreducible(x: Shift) -> Decision:
    if x.is_empty:
        return Decision(True, None, "language",
                        note="empty shift: holds vacuously")
    if _essential_period(x):
        return Decision(True, None, "language")
    comps = _condensation(x)
    # a sink of every state meets every (nonempty) backward set
    if len(comps) == 1:
        return Decision(True, None, "language")
    sink = sum(1 << q for q in comps[0])
    v = _joinability(x).miss(sink)
    if v is None:
        return Decision(True, None, "language")
    # shortest_words keys the states in the (length, lex) order of words
    u = next(w for q, w in shortest_words(x.acceptor.trans).items()
             if sink >> q & 1)
    return Decision(False, (x.alphabet.word_from_ranks(u),
                            x.alphabet.word_from_ranks(v)),
                    "language", note="no word joins u to v")


def synchronizing_word(x: Shift) -> SyncWitness:
    """Shortest word focusing the whole minimal follower automaton to one
    state, for any shift.

    Runs that die along the way drop out; the witness requires only that
    all surviving runs end together.  Ties break toward the
    lexicographically greatest word.  Every irreducible sofic shift admits
    one; NoSyncWord reports exhaustion otherwise."""
    if x.is_empty:
        raise NoSyncWord("the empty shift has no automaton to synchronize")
    d = x.acceptor
    res = shortest_sync(d.trans, range(d.n_states))
    if res is None:
        return _sync_fail(x)
    ranks, q = res
    return SyncWitness(x.alphabet.word_from_ranks(ranks), q, len(ranks))


def _sync_fail(x: Shift):
    raise NoSyncWord(
        "no focusing word exists; the shift is not irreducible "
        f"(irreducible: {is_irreducible(x).verdict})")


def synchronized_cover(x: Shift) -> tuple[LabeledGraph, tuple[int, ...],
                                          SyncWitness]:
    """The synchronized cover of an irreducible shift: the sink component
    of its acceptor, as a graph.

    Returns (cover, original automaton state ids as a tuple, shortest
    synchronizing word of the cover).  The cover presents the same
    language, strongly connected and right-resolving; the certificate's
    diameter is measured on it.  Raises NoSyncWord unless the shift is
    nonempty and irreducible.  Memoised on ``x``, so the results are shared
    and immutable.
    """
    return x.derived("cover", _synchronized_cover)


def _synchronized_cover(x: Shift):
    if x.is_empty or not is_irreducible(x).verdict:
        raise NoSyncWord("the synchronized cover needs a nonempty "
                         "irreducible shift")
    comp, trans = _condensation(x)[0], x.acceptor.trans
    # no move leaves the sink, so its rows, renumbered, are a table
    pos = {v: i for i, v in enumerate(comp)}
    rows = [[pos[t] if t != -1 else -1 for t in trans[v]] for v in comp]
    res = shortest_sync(rows, range(len(comp)))
    if res is None:
        return _sync_fail(x)
    ranks, q = res
    cover = LabeledGraph(x.alphabet, len(comp), tuple(
        (i, t, a) for i, row in enumerate(rows)
        for a, t in enumerate(row) if t != -1))
    return cover, tuple(comp), SyncWitness(
        x.alphabet.word_from_ranks(ranks), comp[q], len(ranks))


def is_mixing(x: Shift) -> MixingReport:
    """Irreducible with aperiodic synchronized cover.

    Mixing when ``x.essential`` is strongly connected and aperiodic
    (:func:`_essential_period`); the report is then (True, 1, True).
    Otherwise ``cycle_gcd`` is the gcd of the cycle lengths of the
    synchronized cover, the acceptor's sink component, and 0 when the
    shift is not irreducible (it then has no cover); mixing holds iff the
    shift is irreducible and that gcd is 1.  Otherwise the witness splits
    the sink's states into period classes by path-length residue.  Both
    come from one breadth-first search in the sink, with no sync search
    and no cover graph.  Memoised on ``x``.
    """
    return x.derived("mixing", _mixing)


def _mixing(x: Shift) -> MixingReport:
    if x.is_empty:
        return MixingReport(True, 0, True,
                            note="empty shift: holds vacuously")
    if _essential_period(x) == 1:
        return MixingReport(True, 1, True)
    irr = is_irreducible(x)
    if not irr.verdict:
        return MixingReport(False, 0, False, witness=irr.witness,
                            note="not irreducible")
    sink = _condensation(x)[0]
    # levels from the sink's least state; no move leaves the sink
    lvl, g = _period_levels(_successors(x), sink[0])
    if g == 1:
        return MixingReport(True, 1, True)
    classes: list[list[int]] = [[] for _ in range(g)]
    for q in sink:
        classes[lvl[q] % g].append(q)
    return MixingReport(True, g, False, witness=tuple(map(tuple, classes)),
                        note=f"period {g}")


def si_certificate(x: Shift) -> SiCertificate:
    """Uniform-gap certificate from the sync word, its self-gap floor, and
    the cover diameter.  Requires a mixing shift.  Memoised on ``x``."""
    return x.derived("certificate", _certificate)


def _certificate(x: Shift) -> SiCertificate:
    if x.is_empty:
        return SiCertificate(SyncWitness(x.alphabet.word(""), None, 0),
                             0, 0, 0, 0, note="empty shift: degenerate")
    rep = is_mixing(x)
    if not rep.mixing:
        raise NotMixing(f"not strongly irreducible: {rep.note}")
    cover, old, sync = synchronized_cover(x)
    d = x.acceptor
    ranks = sync.word.ranks()
    s = d.state_after(ranks)
    if s == -1:
        raise NoSyncWord("sync word left the language; presentation bug")
    r_mask = _reading_states_mask(d, ranks)
    rows = [sum(1 << t for t in ts) for ts in _successors(x)]
    n0, bad = _eventual_tail(1 << s, lambda m: _subset_step([rows], m)[0],
                             lambda m: not m & r_mask, _GAP_CAP,
                             "gap evolution")
    # the orbit closed within _GAP_CAP steps, so n0 <= _GAP_CAP
    if bad is not None:
        raise NotMixing(f"sync word cannot be self-bridged at gap {bad[0]}")
    l0 = sync.length
    diam = directed_diameter(cover)
    note = ""
    if l0 == 0:
        note = "single-vertex cover: empty sync word convention"
    return SiCertificate(sync, n0, n0 + l0, diam, n0 + l0 + 2 * diam,
                         note=note)


def is_strongly_irreducible(x: Shift) -> Decision:
    """Uniform-gap irreducibility; equivalent to mixing for these shifts,
    and reported with the constructive certificate when true."""
    if x.is_empty:
        return Decision(True, si_certificate(x), "language",
                        note="empty shift: holds vacuously")
    rep = is_mixing(x)
    if rep.mixing:
        return Decision(True, si_certificate(x), "language")
    return Decision(False, rep, "language", note=rep.note or "not mixing")


def minimal_gap(x: Shift, search_cap: int = _GAP_CAP) -> int:
    """Exact least N0 such that every pair of language words can be bridged
    by a word of every length >= N0.

    A pair (u, v) matters only through the state s after u and the set of
    states reading v, which holds a minimal backward set B_i; so gap k
    fails iff s lies outside some row P_k[i], the states from which a word
    of length k leads into B_i.  The m rows, one per minimal set, start at
    the sets and step by per-symbol preimage; the stack is keyed by its
    packed rows, m bytes per 8 states, and evolved until it repeats, which
    decides the tail quantifier exactly.  It is a function of the per-state
    forward rows ("states reached from s") and fails at the same gap
    lengths, so n0 is theirs and its orbit closes no later than theirs.

    Raises NotMixing when a gap t of the cycle fails: s is the least state
    missing from a row at t, u its (length, lex)-least word, and v the word
    of the first minimal set, in family order, that s misses.  The stack
    repeats with the cycle's period, so u w v is outside the language for
    every |w| = t + k*period.  CapExceeded when the orbit takes more than
    4*search_cap + 64 steps, or when n0 exceeds ``search_cap``.
    """
    if x.is_empty:
        raise EmptyShift("no uniform gap: the empty shift admits no fills")
    d, minimal = x.acceptor, _joinability(x).minimal
    n, m = d.n_states, len(minimal)
    width = n // 8 + 1  # bytes a row of n states and the sentinel takes
    cols = preimage_cols(d)

    # one more letter: each row becomes the union of its preimages
    def step(key: bytes) -> bytes:
        rows = np.unpackbits(np.frombuffer(key, np.uint8).reshape(m, width),
                             axis=1, count=n + 1, bitorder="little")
        return np.packbits(rows.view(bool)[:, cols].any(axis=1), axis=1,
                           bitorder="little").tobytes()

    # every row full: each state reaches each minimal set at this length
    full = ((1 << n) - 1).to_bytes(width, "little") * m
    start = b"".join(r.to_bytes(width, "little") for r, _ in minimal)
    hard_cap = 4 * search_cap + 64
    n0, bad = _eventual_tail(start, step,
                             lambda key: key if key != full else None,
                             hard_cap, "joint gap evolution")
    if bad is not None:
        t, key, period = bad
        # per row, the states missing from it
        missing = [(1 << n) - 1 & ~int.from_bytes(
            key[i * width:(i + 1) * width], "little") for i in range(m)]
        s = min((h & -h).bit_length() - 1 for h in missing if h)
        v = next(w for h, (_, w) in zip(missing, minimal) if h >> s & 1)
        u = x.alphabet.word_from_ranks(shortest_words(d.trans)[s])
        raise NotMixing(
            f"no uniform gap: u={u.text!r} cannot reach "
            f"v={x.alphabet.word_from_ranks(v).text!r} at gap {t} "
            f"(recurs with period {period})")
    if n0 > search_cap:
        raise CapExceeded(f"least uniform gap {n0} exceeds cap {search_cap}")
    return n0


def gap_witness(x: Shift, u, v, gap: int) -> Word | None:
    """A word w of length ``gap`` with uwv in the language, or None.

    Found by layered reachability between the state after u and the states
    reading v; among witnesses the lexicographically least is returned.
    """
    if gap < 0:
        raise ValueError("gap must be >= 0")
    u = x.alphabet.word(u)
    v = x.alphabet.word(v)
    d = x.acceptor
    s = d.state_after(u.ranks())
    if s == -1:
        raise WordNotInLanguage(f"{u.text!r} is not in the language")
    v_ranks = v.ranks()
    if not d.defined(v_ranks):
        raise WordNotInLanguage(f"{v.text!r} is not in the language")
    succ = _successors(x)
    # backward feasibility layers: states that can still reach the states
    # reading v; a state is feasible when one of its successors is
    feasible = [0] * (gap + 1)
    feasible[gap] = _reading_states_mask(d, v_ranks)
    for i in range(gap - 1, -1, -1):
        nxt = feasible[i + 1]
        feasible[i] = sum(1 << q for q, ts in enumerate(succ)
                          if any(nxt >> t & 1 for t in ts))
    if not feasible[0] & (1 << s):
        return None
    out = []
    q = s
    for i in range(gap):
        for a in range(len(x.alphabet)):
            t = d.trans[q][a]
            if t != -1 and feasible[i + 1] & (1 << t):
                out.append(a)
                q = t
                break
    return x.alphabet.word_from_ranks(out)


def glue(x: Shift, req: GlueRequest) -> ConfigurationWindow:
    """Realize all pinned windows inside a single language word.

    Fills the gaps left to right, each time bridging the whole accumulated
    prefix to the next part, so the invariant "accumulated word is in the
    language" holds throughout.  With gaps at least a valid certificate
    bound the fills always exist; otherwise SeparationTooSmall reports the
    first gap that cannot be realized.
    """
    parts = req.parts
    acc = x.alphabet.word(parts[0].word)
    if not x.contains_word(acc):
        raise WordNotInLanguage(f"part at {parts[0].start}: {acc.text!r}")
    end = parts[0].stop
    for part in parts[1:]:
        w = x.alphabet.word(part.word)
        if not x.contains_word(w):
            raise WordNotInLanguage(f"part at {part.start}: {w.text!r}")
        gap = part.start - end
        fill = gap_witness(x, acc, w, gap)
        if fill is None:
            raise SeparationTooSmall(
                f"no fill of length {gap} between position {end} and "
                f"{part.start} (certificate-sized gaps always fill)")
        acc = acc + fill + w
        end = part.stop
    return ConfigurationWindow(parts[0].start, acc)
