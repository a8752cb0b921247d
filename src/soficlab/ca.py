"""Sliding-block maps on subshifts: images, injectivity, pre-injectivity,
surjectivity, and the theorem harnesses built on those decisions.

Everything runs through one reduction: recode the domain so the map reads a
single edge label.  The states of the recoding are window states (v, w)
of a presentation, a vertex v and the rank w of the last k-1 labels read
into it, k the rule width (:func:`window_states`); an edge reads one more
label, so it carries the rank b of a k-block, mapped to entry b of the
rule's table.  Questions about pairs of points become reachability
questions in the product of that graph with itself, restricted to edge
pairs producing the same output.  The image and the filter recode the
essential presentation; the pair graph recodes the past-determined one,
:attr:`Shift.deterministic`, on every domain, which makes pre-injectivity
exact.  Whether the image lies in a target is decided by walking the
essential recoding against the target's acceptor (:func:`maps_into`):
the verdict builds no image shift.  The image is built only for a
question that needs it: surjectivity, entropy, image invariants; its
graph also for the witness of a failed inclusion.

Each (rule, domain) pair is analysed once (:func:`base.memoised`): the
pair graph, the diamond search with the witnesses built from it, the
image graph, image and injectivity verdicts, and the image's inclusion in
a target are memoised on the rule, so they are freed with it; recodings,
which depend on the width alone, on the domain, so every rule, rejected
or kept, reads one.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .base import (Alphabet, CellularAutomaton, ConfigurationWindow, Decision,
                   Word, block_digits, memoised, table_size)
from .dfa import graph_missing
from .entropy import EntropyEstimate, entropy_spectral
from .errors import AlphabetMismatch, NotEndomorphism, NotIntoTarget
from .graph import (LabeledGraph, core_vertices, infinite_path_starts,
                    window_graph, window_states)
from .props import is_strongly_irreducible
from .shift import Shift, equal_shifts


@memoised
def _output_ranks(t: CellularAutomaton) -> tuple[int, ...]:
    """Target rank of the rule's output per window rank."""
    return tuple(map(t.target.index, t.table))


@dataclass(frozen=True)
class PairGraph:
    """Product of the recoded past-determined presentation with itself,
    filtered to edge pairs with equal output symbols.

    The recoding has ``n_base`` window states (:func:`window_states` of
    :attr:`Shift.deterministic` at the rule's ``width``); pair vertex p*n+q
    stands for the ordered pair (p, q).  Each edge records the ranks of
    both k-blocks read and a flag marking the pairs where they differ.
    """

    n_base: int
    width: int
    edges: tuple[tuple[int, int, int, int, bool], ...]  # (src,dst,la,lb,flag)

    @property
    def n_pairs(self) -> int:
        return self.n_base ** 2


def _check_source(t: CellularAutomaton, x: Shift) -> None:
    if t.source != x.alphabet:
        raise AlphabetMismatch("the rule reads a different alphabet")


@memoised
def _recode(x: Shift, g: LabeledGraph, k: int) -> list[list[tuple[int, int]]]:
    """The :func:`window_graph` of the presentation ``g`` of ``x``,
    memoised on the domain by the value of ``g``, so a domain whose
    essential graph and :attr:`Shift.deterministic` are equal is recoded
    once.  A rule maps the edge label b to ``_output_ranks(t)[b]``."""
    return window_graph(g, k, window_states(g, k))


@memoised
def pair_graph(t: CellularAutomaton, x: Shift) -> PairGraph:
    """The pair graph over :attr:`Shift.deterministic`, the past-determined
    presentation of ``x``, on every domain."""
    _check_source(t, x)
    by_src = _recode(x, x.deterministic, t.width)
    n, out = len(by_src), _output_ranks(t)
    # by source, then both labels, as the recoding lists its edges
    return PairGraph(n, t.width, tuple(
        (p * n + q, d1 * n + d2, a, b, a != b) for p in range(n)
        for q in range(n) for d1, a in by_src[p] for d2, b in by_src[q]
        if out[a] == out[b]))


def _path_words(t: CellularAutomaton, la, lb) -> tuple[Word, Word, Word]:
    """The domain words spelled by two recoded paths of equal outputs, each
    the first k-block plus the last symbol of each further block, and
    their image."""
    na = len(t.source)
    wa, wb = (t.source.word_from_ranks(block_digits(labels[0], na, t.width)
                                       + tuple(b % na for b in labels[1:]))
              for labels in (la, lb))
    return wa, wb, t.target.word_from_ranks(map(_output_ranks(t).__getitem__, la))


@dataclass(frozen=True)
class DiamondWitness:
    """Two windows with equal outputs that agree at both ends.

    The words share their first and last k-1 symbols, and some common
    bi-infinite extension turns them into two points of the domain that
    differ only inside the window yet map to the same point.  Not every
    common extension need do so on a sofic domain: on the even shift,
    ``111011011`` and ``111100011`` extend by 1^inf on the left and 0^inf on
    the right, while a left context ``0`` admits only one of them.
    """

    first: ConfigurationWindow
    second: ConfigurationWindow
    image: Word


@dataclass(frozen=True)
class PointPairWitness:
    """Two distinct eventually-periodic points with equal images.

    Repeat the first ``left_period`` symbols leftward and the last
    ``right_period`` symbols rightward to realize them as points.
    """

    first: Word
    second: Word
    left_period: int
    right_period: int
    image: Word


@memoised
def is_pre_injective(t: CellularAutomaton, x: Shift) -> Decision:
    """Can two points agreeing outside a finite set share their image?

    Decided exactly on every domain by :func:`_diamond_search` over the pair
    graph of :attr:`Shift.deterministic`, a presentation in which the vertex
    at j of a point's presenting path depends on x(-inf, j) alone.
    Two asymptotic points then start on the diagonal, take a flagged edge
    where they differ and, after their last difference, read identical
    blocks forever, possibly in different states.  Conversely such a pair
    path, extended by one left-infinite path and the identical-block tail,
    is two distinct asymptotic points with equal images.
    """
    _check_source(t, x)
    if x.is_empty:
        return Decision(True, None, "point", note="empty domain")
    hit = _asymptotic_pair(t, x)
    if hit is None:
        return Decision(True, None, "point")
    return Decision(False, hit[0], "point",
                    note="distinct windows, equal images, common ends")


@memoised
def _asymptotic_pair(t: CellularAutomaton, x: Shift
                     ) -> tuple[DiamondWitness, PointPairWitness] | None:
    """The shortest diamond of :func:`_diamond_search`, as a window pair and
    as two points, or None when there is none; memoised, so both
    injectivity verdicts read one search.

    The points extend the diamond on both sides.  On the left, both walk
    one cycle of the recoding backwards along the diagonal: every window
    state has an in-edge, as the recoding of an essential presentation is
    essential.  On the right, the pair walks unflagged edges inside the
    tail set, where every pair has one, until it closes a cycle.
    """
    pgr = pair_graph(t, x)
    tail = _tail_pairs(pgr)
    hit = _diamond_search(pgr, tail)
    if hit is None:
        return None
    start, la, lb, end = hit
    wa, wb, img = _path_words(t, la, lb)
    diamond = DiamondWitness(ConfigurationWindow(0, wa),
                             ConfigurationWindow(0, wb), img)
    by_src, n = _recode(x, x.deterministic, t.width), pgr.n_base
    into: list[list[tuple[tuple[int, int], int]]] = [[] for _ in range(n)]
    for u, row in enumerate(by_src):
        for v, b in row:
            into[v].append(((b, b), u))

    def right(pair: int) -> list[tuple[tuple[int, int], int]]:
        p, q = divmod(pair, n)
        return [((a, a), d1 * n + d2) for d1, a in by_src[p]
                for d2, b in by_src[q] if a == b and tail[d1 * n + d2]]

    return diamond, _point_pair(t, into.__getitem__, start // n,
                                zip(la, lb), right, end)


def _tail_pairs(pgr: PairGraph) -> list[bool]:
    """Flags of the pairs from which an infinite path of unflagged
    (identical-block) edges starts."""
    return infinite_path_starts(pgr.n_pairs,
                                [e for e in pgr.edges if not e[4]], 0, 1)


def _diamond_search(pgr: PairGraph, tail: list[bool]):
    """Shortest pair path from the diagonal through a flagged edge to the
    tail set (:func:`_tail_pairs`), which holds the diagonal.

    Returns (first pair, the two label sequences, last pair), or None.
    BFS over (pair, flag) states; adjacency is pre-sorted by block labels,
    so among shortest diamonds the label-lexicographically least is found.
    """
    n = pgr.n_base
    adj: list[list[tuple[int, int, int, bool]]] = [[] for _ in range(n * n)]
    for s, d, a, b, f in pgr.edges:
        adj[s].append((d, a, b, f))
    start = [(v * n + v) * 2 for v in range(n)]
    parent: dict[int, tuple[int, int, int]] = {s: None for s in start}
    frontier = list(parent)
    while frontier:
        nxt = []
        for state in frontier:
            pair, flag = state // 2, state % 2
            for d, a, b, f in adj[pair]:
                ns = d * 2 + (flag | f)
                if ns in parent:
                    continue
                parent[ns] = (state, a, b)
                if ns % 2 == 1 and tail[d]:
                    la, lb = [], []
                    cur = ns
                    while parent[cur] is not None:
                        cur, ea, eb = parent[cur]
                        la.append(ea)
                        lb.append(eb)
                    la.reverse()
                    lb.reverse()
                    return cur // 2, la, lb, d
                nxt.append(ns)
        frontier = nxt
    return None


def _point_pair(t: CellularAutomaton, into, start: int, middle, outof,
                end: int) -> PointPairWitness:
    """The points of the pair path ``middle``, label pairs from ``start``
    to ``end``, extended by :func:`_walk` over ``into`` from ``start``
    and over ``outof`` from ``end``: walked backwards, the left cycle
    opens the reversed path."""
    back, left_period = _walk(start, into)
    fwd, right_period = _walk(end, outof)
    labels = back[::-1] + list(middle) + fwd
    wa, wb, img = _path_words(t, *zip(*labels))
    return PointPairWitness(wa, wb, left_period, right_period, img)


def _walk(v: int, steps) -> tuple[list[tuple[int, int]], int]:
    """From ``v``, take the least of ``steps(v)``, pairs (labels, next
    vertex), until a vertex repeats.  Returns the labels taken and the
    length of the cycle the repeat closes: the period at that end."""
    path, seen = [], {v: 0}
    while True:
        labels, v = min(steps(v))
        path.append(labels)
        if v in seen:
            return path, len(path) - seen[v]
        seen[v] = len(path)


@memoised
def is_injective(t: CellularAutomaton, x: Shift) -> Decision:
    """Do any two distinct points share an image?

    Exact at point level for every domain: any two presentations of an
    equal-image pair trace a bi-infinite pair path, and distinctness forces
    a flagged edge on it; conversely a flagged edge on a bi-infinite pair
    path projects to two distinct points with equal images.  A rule that is
    not pre-injective is not injective, and its witness is the diamond's
    two points (:func:`_asymptotic_pair`).  Only for a pre-injective rule
    is the pair graph peeled to its bi-infinite core, where the test is
    whether a flagged edge survives; the witness is the two points of a
    bi-infinite core path through the first such edge.
    """
    _check_source(t, x)
    if x.is_empty:
        return Decision(True, None, "point", note="empty domain")
    hit = _asymptotic_pair(t, x)
    if hit is not None:
        wit = hit[1]
    else:
        pgr = pair_graph(t, x)
        alive = core_vertices(pgr.n_pairs, pgr.edges)
        alive_edges = [e for e in pgr.edges if alive[e[0]] and alive[e[1]]]
        flagged = [e for e in alive_edges if e[4]]
        if not flagged:
            return Decision(True, None, "point")
        into: dict[int, list] = {}
        outof: dict[int, list] = {}
        for s, d, a, b, _ in alive_edges:
            outof.setdefault(s, []).append(((a, b), d))
            into.setdefault(d, []).append(((a, b), s))
        s, d, a, b, _ = flagged[0]
        wit = _point_pair(t, into.__getitem__, s, [(a, b)],
                          outof.__getitem__, d)
    return Decision(False, wit, "point",
                    note="two distinct points with equal images")


@memoised
def _image_graph(t: CellularAutomaton, x: Shift) -> LabeledGraph:
    """The recoded essential presentation of ``x`` with each k-block edge
    relabelled by its output symbol: an essential graph of the image."""
    _check_source(t, x)
    adj, out = _recode(x, x.essential, t.width), _output_ranks(t)
    return LabeledGraph(t.target, len(adj), tuple(
        (s, d, out[b]) for s, row in enumerate(adj) for d, b in row))


@memoised
def image_presentation(t: CellularAutomaton, x: Shift) -> Shift:
    """The image shift, presented by :func:`_image_graph`."""
    return Shift.from_graph(_image_graph(t, x))


@memoised
def maps_into(t: CellularAutomaton, x: Shift, y: Shift) -> bool:
    """Does ``t`` map every point of ``x`` into ``y``?  Memoised on the
    rule, so each (rule, domain, target) is searched once.

    Depth first over pairs (s, q): a state s of the recoding of
    ``x.essential`` (:func:`_recode`, the graph :func:`_image_graph`
    relabels, built once per domain and width) and a state q of
    ``y.acceptor``, from every (s, 0).  An edge of the recoding reading
    the k-block b moves q by the rule's output on b; the first move ``y``
    cannot make answers no."""
    _check_source(t, x)
    if t.target != y.alphabet:
        raise AlphabetMismatch(
            f"cannot compare shifts over {t.target.compact} "
            f"and {y.alphabet.compact}")
    adj, out = _recode(x, x.essential, t.width), _output_ranks(t)
    trans = y.acceptor.trans
    stack = [(s, 0) for s in range(len(adj))]
    seen = set(stack)
    while stack:
        s, q = stack.pop()
        row = trans[q]
        for d, b in adj[s]:
            r = row[out[b]]
            if r == -1:
                return False
            if (d, r) not in seen:
                seen.add((d, r))
                stack.append((d, r))
    return True


@memoised
def image_included(t: CellularAutomaton, x: Shift, y: Shift) -> Decision:
    """Is every block of the image of ``x`` a block of ``y``?  On failure
    the witness is the shortest, then lexicographically least, image word
    missing from ``y``: the word :func:`language_included` would report
    for :func:`image_presentation`.

    The verdict is :func:`maps_into`'s, so no image shift is built: a rule
    that leaves its domain never needs one, and a kept rule builds it once,
    for the question that reads it.  Only a failure relabels the domain's
    recoding, for the witness (:func:`graph_missing` on
    :func:`_image_graph`).  Memoised on the rule, so each (rule, domain,
    target) is decided once."""
    if maps_into(t, x, y):
        return Decision(True, None, "language")
    missing = graph_missing(_image_graph(t, x), y.acceptor)
    return Decision(False, t.target.word_from_ranks(missing), "language",
                    note="an image word the target lacks")


def is_surjective(t: CellularAutomaton, x: Shift, y: Shift) -> Decision:
    """Does the image fill the target?  Image and target are both sofic, so
    equality of their languages decides equality of the point sets.  A
    false verdict carries the shortest (then lexicographically least)
    target word no point of the image contains: with the image inside the
    target, that is the word the language comparison reports.  The image
    shift is built only once the image is known to lie in the target."""
    _check_source(t, x)
    if x.is_empty or y.is_empty:
        # the image is empty exactly when the domain is
        if x.is_empty and y.is_empty:
            return Decision(True, None, "point", note="both empty")
        if x.is_empty:
            return Decision(False, None, "point", note="empty image")
        raise NotIntoTarget("nonempty image into the empty shift")
    inc = image_included(t, x, y)
    if not inc.verdict:
        raise NotIntoTarget(
            f"the image is not inside the target: witness {inc.witness.text!r}")
    eq = equal_shifts(image_presentation(t, x), y)
    if eq.verdict:
        return Decision(True, None, "point")
    return Decision(False, eq.witness, "point", note="Garden of Eden word")


@dataclass(frozen=True)
class MyhillReport:
    si: Decision
    pre_injective: Decision
    surjective: Decision

    @property
    def contradiction(self) -> bool:
        """True only when the certified implication fails: strongly
        irreducible domain, pre-injective map, yet not surjective."""
        return (self.si.verdict is True and self.pre_injective.verdict is True
                and self.surjective.verdict is False)


def check_myhill(t: CellularAutomaton, x: Shift) -> MyhillReport:
    """Check the surjectivity-from-pre-injectivity implication on one
    endomorphism.  Raises NotEndomorphism when the rule leaves x."""
    inc = image_included(t, x, x)
    if not inc.verdict:
        raise NotEndomorphism(
            f"image leaves the shift: witness {inc.witness.text!r}")
    si = is_strongly_irreducible(x)
    pre = is_pre_injective(t, x)
    sur = is_surjective(t, x, x)
    return MyhillReport(si, pre, sur)


@dataclass(frozen=True)
class EntropyPreservationReport:
    h_domain: EntropyEstimate
    h_image: EntropyEstimate
    leq_holds: bool
    equality_asserted: bool
    equality_holds: bool | None
    tol: float


def check_entropy_preservation(t: CellularAutomaton, x: Shift,
                               tol: float = 1e-9) -> EntropyPreservationReport:
    """Image entropy never exceeds domain entropy; with a strongly
    irreducible domain and a pre-injective rule the two agree within
    2*tol."""
    img = image_presentation(t, x)
    hx = entropy_spectral(x, tol)
    hy = entropy_spectral(img, tol)
    leq = hy.value - hx.value <= hx.error_bound + hy.error_bound
    asserted = (is_strongly_irreducible(x).verdict is True
                and is_pre_injective(t, x).verdict is True)
    equal = abs(hx.value - hy.value) <= 2 * tol if asserted else None
    return EntropyPreservationReport(hx, hy, leq, asserted, equal, tol)


def random_ca(a: Alphabet, b: Alphabet, memory: tuple[int, int],
              seed: int) -> CellularAutomaton:
    """Uniformly random rule table, reproducible from the seed.  A table
    over ``_TABLE_CAP`` entries raises TableTooLarge before any is drawn."""
    l, r = memory
    width = r - l + 1
    if width < 1:
        raise ValueError("memory interval is empty")
    n = table_size(len(a), width)
    rng = random.Random(seed)
    table = tuple(b.symbols[rng.randrange(len(b))] for _ in range(n))
    return CellularAutomaton(a, b, l, r, table)


def identity_ca(a: Alphabet) -> CellularAutomaton:
    return CellularAutomaton(a, a, 0, 0, a.symbols)


def constant_ca(a: Alphabet, symbol: str) -> CellularAutomaton:
    a.index(symbol)
    return CellularAutomaton(a, a, 0, 0, (symbol,) * len(a))


def xor_ca() -> CellularAutomaton:
    bits = Alphabet(("0", "1"))
    return CellularAutomaton.from_rule(
        bits, bits, 0, 1, lambda w: "1" if w[0] != w[1] else "0")


def search_moore_counterexample(x: Shift, memory_bound: int = 3,
                                budget: int = 2000,
                                seed: int = 0) -> CellularAutomaton | None:
    """Bounded search for an endomorphism that is surjective but not
    pre-injective.  Absence proves nothing; any hit is re-verified by the
    decision procedures before being returned.
    """
    a = x.alphabet
    rng = random.Random(seed)
    spent = 0
    for width in range(1, memory_bound + 1):
        n_tables = len(a) ** (len(a) ** width)
        exhaustive = n_tables <= budget - spent
        if exhaustive:
            tables = itertools.product(a.symbols, repeat=len(a) ** width)
        else:
            remaining = max(0, budget - spent)
            tables = (tuple(a.symbols[rng.randrange(len(a))]
                            for _ in range(len(a) ** width))
                      for _ in range(remaining))
        for table in tables:
            spent += 1
            t = CellularAutomaton(a, a, 0, width - 1, tuple(table))
            if not maps_into(t, x, x):
                continue
            if not is_surjective(t, x, x).verdict:
                continue
            if is_pre_injective(t, x).verdict is False:
                return t
        if spent >= budget:
            break
    return None
