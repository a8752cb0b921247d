"""Sliding-block maps on subshifts: images, injectivity, pre-injectivity,
surjectivity, and the theorem harnesses built on those decisions.

Everything runs through one reduction: recode the domain so the map reads a
single edge label.  Vertices of the recoded graph are (k-1)-blocks and
edges are k-blocks with k at least the rule width, so each edge determines
one output symbol.  Questions about pairs of points become reachability
questions in the product of that graph with itself, restricted to edge
pairs producing the same output.  The image recodes the essential
presentation; the pair graph recodes the past-determined one,
:attr:`Shift.deterministic`, on every domain, which makes pre-injectivity
exact.  Whether the image lies in a target is read off the relabelled
recoding itself, against the target's acceptor (:func:`image_included`),
so the image shift, with its subset construction and minimization, is
built only for a question that needs it: surjectivity, entropy, image
invariants.  A rule that leaves its domain never builds one.

Each (rule, domain) pair is analysed once: the pair graph, image graph,
image and injectivity verdicts are cached on the rule under (name,
domain), the image's inclusion in a target under (name, domain, target),
shifts hashing by identity, and each recoding under the presentation it
reads, graphs hashing by value (:meth:`Memo.derived`).  They are shared
by every later call, must not be mutated, and are freed with the rule.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .base import (_TABLE_CAP, Alphabet, CellularAutomaton, ConfigurationWindow,
                   Decision, Word)
from .dfa import graph_missing
from .entropy import EntropyEstimate, entropy_spectral
from .errors import (AlphabetMismatch, NotEndomorphism, NotIntoTarget,
                     TableTooLarge)
from .graph import (LabeledGraph, core_vertices, infinite_path_starts,
                    path_graph)
from .props import is_strongly_irreducible
from .shift import Shift, equal_shifts


def _per_domain(fn):
    """Memoise ``fn(t, x)`` on the rule ``t``, keyed by the domain ``x``
    (by identity; :func:`_recode` keys by the presentation's value)."""
    @functools.wraps(fn)
    def memoised(t: CellularAutomaton, x: Shift):
        return t.derived((fn.__name__, x), lambda t: fn(t, x))
    return memoised


def _output_ranks(t: CellularAutomaton) -> tuple[int, ...]:
    """Target rank of the rule's output per window rank, memoised."""
    return t.derived("outputs", lambda t: tuple(map(t.target.index, t.table)))


@dataclass(frozen=True)
class PairGraph:
    """Product of the recoded presentation with itself, filtered to edge
    pairs with equal output symbols.

    ``base`` is the recoded past-determined presentation (edges are
    k-blocks, mapped to the target ranks ``outputs``); pair vertex p*n+q
    stands for the ordered vertex pair (p, q).  Each edge records both
    k-block labels and a flag marking the pairs where the blocks differ.
    """

    base: LabeledGraph
    blocks: tuple[tuple[int, ...], ...]
    outputs: tuple[int, ...]
    width: int
    edges: tuple[tuple[int, int, int, int, bool], ...]  # (src,dst,la,lb,flag)

    @property
    def n_base(self) -> int:
        return self.base.n_vertices

    @property
    def n_pairs(self) -> int:
        return self.base.n_vertices ** 2


def _check_source(t: CellularAutomaton, x: Shift) -> None:
    if t.source != x.alphabet:
        raise AlphabetMismatch("the rule reads a different alphabet")


def _recode(t: CellularAutomaton, g: LabeledGraph):
    """One-block form of the presentation ``g``: the path graph whose edges
    are the width-blocks of ``g``, the blocks, and the output rank of each.
    Memoised on the rule by the value of ``g``, so a domain whose essential
    graph and :attr:`Shift.deterministic` are equal is recoded once."""
    def build(t: CellularAutomaton):
        if g.n_vertices == 0:
            # no blocks, so no block alphabet: the image is the empty shift
            return LabeledGraph(g.alphabet, 0, ()), (), ()
        pg, blocks = path_graph(g, t.width)
        out = _output_ranks(t)
        return pg, blocks, tuple(out[t.block_rank(b)] for b in blocks)
    return t.derived(("recode", g), build)


@_per_domain
def pair_graph(t: CellularAutomaton, x: Shift) -> PairGraph:
    """The pair graph over :attr:`Shift.deterministic`, the past-determined
    presentation of ``x``, on every domain."""
    _check_source(t, x)
    pg, blocks, img = _recode(t, x.deterministic)
    n = pg.n_vertices
    by_src = pg.out_map()
    pedges = []
    for p in range(n):
        for q in range(n):
            for d1, a in by_src[p]:
                for d2, b in by_src[q]:
                    if img[a] == img[b]:
                        pedges.append((p * n + q, d1 * n + d2, a, b, a != b))
    pedges.sort(key=lambda e: (e[0], blocks[e[2]], blocks[e[3]]))
    return PairGraph(pg, blocks, img, t.width, tuple(pedges))


def _path_word(alphabet: Alphabet, blocks, labels: list[int]) -> Word:
    """The domain word spelled by a recoded path: the first k-block plus
    one fresh symbol per further edge."""
    ranks = list(blocks[labels[0]])
    for lab in labels[1:]:
        ranks.append(blocks[lab][-1])
    return alphabet.word_from_ranks(ranks)


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


@_per_domain
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
    pgr = pair_graph(t, x)
    hit = _diamond_search(pgr)
    if hit is None:
        return Decision(True, None, "point")
    la, lb = hit
    alphabet = x.alphabet
    wa = _path_word(alphabet, pgr.blocks, la)
    wb = _path_word(alphabet, pgr.blocks, lb)
    img = t.target.word_from_ranks(pgr.outputs[e] for e in la)
    wit = DiamondWitness(ConfigurationWindow(0, wa),
                         ConfigurationWindow(0, wb), img)
    return Decision(False, wit, "point",
                    note="distinct windows, equal images, common ends")


def _tail_pairs(pgr: PairGraph) -> list[bool]:
    """Flags of the pairs from which an infinite path of unflagged
    (identical-block) edges starts."""
    return infinite_path_starts(pgr.n_pairs,
                                [e for e in pgr.edges if not e[4]], 0, 1)


def _diamond_search(pgr: PairGraph):
    """Shortest pair path from the diagonal through a flagged edge to the
    tail set (:func:`_tail_pairs`), which holds the diagonal.

    Returns the two label sequences, or None.  BFS over (pair, flag)
    states; adjacency is pre-sorted by block labels, so among shortest
    diamonds the label-lexicographically least is found.
    """
    n = pgr.n_base
    tail = _tail_pairs(pgr)
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
                    return la, lb
                nxt.append(ns)
        frontier = nxt
    return None


@_per_domain
def is_injective(t: CellularAutomaton, x: Shift) -> Decision:
    """Do any two distinct points share an image?

    Exact at point level for every domain: any two presentations of an
    equal-image pair trace a bi-infinite pair path, and distinctness forces
    a flagged edge on it; conversely a flagged edge on a bi-infinite pair
    path projects to two distinct points with equal images.  So the test is
    whether a flagged edge survives peeling the pair graph to its
    bi-infinite core.
    """
    _check_source(t, x)
    if x.is_empty:
        return Decision(True, None, "point", note="empty domain")
    pgr = pair_graph(t, x)
    alive = core_vertices(pgr.n_pairs, pgr.edges)
    alive_edges = [e for e in pgr.edges if alive[e[0]] and alive[e[1]]]
    flagged = [e for e in alive_edges if e[4]]
    if not flagged:
        return Decision(True, None, "point")
    e = flagged[0]
    wit = _periodic_pair(pgr, alive_edges, e, t)
    return Decision(False, wit, "point",
                    note="two distinct points with equal images")


def _periodic_pair(pgr: PairGraph, alive_edges, e,
                   t: CellularAutomaton) -> PointPairWitness:
    """Assemble an eventually-periodic equal-image point pair through a
    flagged edge of the bi-infinite pair core."""
    into: dict[int, list] = {}
    outof: dict[int, list] = {}
    for ed in alive_edges:
        outof.setdefault(ed[0], []).append(ed)
        into.setdefault(ed[1], []).append(ed)

    def walk(v: int, edges_at: dict, end: int):
        """Follow least-labelled edges until a vertex repeats; the repeat
        closes a cycle, whose length is the period at that end."""
        path, order = [], [v]
        while True:
            ed = min(edges_at[v],
                     key=lambda x_: (pgr.blocks[x_[2]], pgr.blocks[x_[3]]))
            path.append(ed)
            v = ed[end]
            if v in order:
                return path, len(order) - order.index(v)
            order.append(v)

    # walking backward, the cycle sits at the START of the reversed path,
    # so the word can be extended leftward with that period
    back, left_period = walk(e[0], into, 0)
    back.reverse()
    fwd, right_period = walk(e[1], outof, 1)
    labels = back + [e] + fwd
    la = [ed[2] for ed in labels]
    lb = [ed[3] for ed in labels]
    wa = _path_word(t.source, pgr.blocks, la)
    wb = _path_word(t.source, pgr.blocks, lb)
    img = t.target.word_from_ranks(pgr.outputs[l] for l in la)
    return PointPairWitness(wa, wb, left_period, right_period, img)


@_per_domain
def _image_graph(t: CellularAutomaton, x: Shift) -> LabeledGraph:
    """The recoded essential presentation of ``x`` with each k-block edge
    relabelled by its output symbol: an essential graph of the image."""
    _check_source(t, x)
    pg, _, img = _recode(t, x.essential)
    return LabeledGraph(t.target, pg.n_vertices, tuple(
        (s, d, img[a]) for s, d, a in pg.edges))


@_per_domain
def image_presentation(t: CellularAutomaton, x: Shift) -> Shift:
    """The image shift, presented by :func:`_image_graph`."""
    return Shift.from_graph(_image_graph(t, x))


def image_included(t: CellularAutomaton, x: Shift, y: Shift) -> Decision:
    """Is every block of the image of ``x`` a block of ``y``?  On failure
    the witness is the shortest, then lexicographically least, image word
    missing from ``y``: the word :func:`language_included` would report
    for :func:`image_presentation`.

    Decided on :func:`_image_graph` read from every vertex against
    ``y.acceptor`` (:func:`graph_missing`), so no image shift is built:
    a rule that leaves its domain never needs one, and a kept rule builds
    it once, for the question that reads it.  Memoised on the rule, so
    each (rule, domain, target) is searched once."""
    def decide(t: CellularAutomaton) -> Decision:
        g = _image_graph(t, x)  # refuses a rule over another alphabet
        if t.target != y.alphabet:
            raise AlphabetMismatch(
                f"cannot compare shifts over {t.target.compact} "
                f"and {y.alphabet.compact}")
        missing = graph_missing(g, y.acceptor)
        if missing is None:
            return Decision(True, None, "language")
        return Decision(False, t.target.word_from_ranks(missing), "language",
                        note="an image word the target lacks")
    return t.derived(("included", x, y), decide)


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
    if len(a) ** width > _TABLE_CAP:
        raise TableTooLarge(f"table needs {len(a) ** width} entries, "
                            f"cap is {_TABLE_CAP}")
    rng = random.Random(seed)
    table = tuple(b.symbols[rng.randrange(len(b))]
                  for _ in range(len(a) ** width))
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
            if not image_included(t, x, x).verdict:
                continue
            if not is_surjective(t, x, x).verdict:
                continue
            if is_pre_injective(t, x).verdict is False:
                return t
        if spent >= budget:
            break
    return None
