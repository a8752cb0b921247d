"""Sliding-block maps on subshifts: images, injectivity, pre-injectivity,
surjectivity, and the theorem harnesses built on those decisions.

Everything runs through one reduction: recode the domain so the map reads a
single edge label.  Vertices of the recoded graph are (k-1)-blocks and
edges are k-blocks with k at least the rule width, so each edge determines
one output symbol.  Questions about pairs of points become reachability
questions in the product of that graph with itself, restricted to edge
pairs producing the same output.

Each (rule, domain) pair is analysed once: the recoding, pair graph, image
and injectivity verdicts are cached on the rule under (name, domain), and
the image's inclusion in a target under (name, domain, target), shifts
hashing by identity (:meth:`Memo.derived`).  They are shared by every later
call, must not be mutated, and are freed with the rule.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .base import (_TABLE_CAP, Alphabet, CellularAutomaton, ConfigurationWindow,
                   Decision, Word)
from .dfa import shortest_words, state_after
from .entropy import EntropyEstimate, entropy_spectral
from .errors import (AlphabetMismatch, NoSyncWord, NotEndomorphism,
                     NotIntoTarget, TableTooLarge, WordTooShort)
from .graph import LabeledGraph, core_vertices, path_graph, transition_rows
from .props import is_strongly_irreducible, synchronized_cover
from .shift import Shift, equal_shifts, language_included


def apply_to_word(t: CellularAutomaton, w) -> Word:
    """Slide the rule across a finite word; output length is
    len(w) - width + 1.  Raises WordTooShort when no full window fits."""
    w = t.source.word(w)
    if len(w) < t.width:
        raise WordTooShort(
            f"word of length {len(w)} is shorter than the rule width {t.width}")
    return t.apply(w)


def _per_domain(fn):
    """Memoise ``fn(t, x)`` on the rule ``t``, keyed by the domain ``x``."""
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

    ``base`` is the recoded graph (edges are k-blocks, mapped to the target
    ranks ``outputs``); pair vertex p*n+q stands for the ordered vertex pair
    (p, q).  Each edge records both k-block labels and a flag marking the
    pairs where the blocks differ.
    ``exact`` notes whether points of the domain have unique presenting
    paths in ``base`` (true for window-defined domains), which is what
    upgrades pair reachability facts to statements about points.
    """

    base: LabeledGraph
    blocks: tuple[tuple[int, ...], ...]
    outputs: tuple[int, ...]
    width: int
    exact: bool
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


@_per_domain
def _recode(t: CellularAutomaton, x: Shift):
    """One-block form: the path graph whose edges are the width-blocks of
    a presentation of ``x``, the blocks, and the output rank of each."""
    _check_source(t, x)
    if x.is_empty:
        # no blocks, so no block alphabet: the image is the empty shift
        return LabeledGraph(x.alphabet, 0, ()), (), ()
    base = x.essential if x.window is not None else x.deterministic
    pg, blocks = path_graph(base, t.width)
    out = _output_ranks(t)
    return pg, blocks, tuple(out[t.block_rank(b)] for b in blocks)


@_per_domain
def pair_graph(t: CellularAutomaton, x: Shift) -> PairGraph:
    pg, blocks, img = _recode(t, x)
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
    return PairGraph(pg, blocks, img, t.width, x.window is not None,
                     tuple(pedges))


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

    The words share their first and last k-1 symbols, so any common
    bi-infinite extension turns them into two points of the domain that
    differ only inside the window yet map to the same point.
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

    Equivalent to the recoded presentation containing a diamond: two
    distinct equal-length paths between the same endpoints carrying the
    same output labels.  Found by reachability from the diagonal of the
    pair graph back to the diagonal through a flagged edge.  Complete for
    window-defined domains (unique presenting paths); for other domains a
    diamond is still a genuine refutation, and a clean pair graph is
    followed by a bounded point-level search around synchronized contexts.
    """
    _check_source(t, x)
    if x.is_empty:
        return Decision(True, None, "point", note="empty domain")
    pgr = pair_graph(t, x)
    hit = _diamond_search(pgr)
    if hit is not None:
        la, lb = hit
        alphabet = x.alphabet
        wa = _path_word(alphabet, pgr.blocks, la)
        wb = _path_word(alphabet, pgr.blocks, lb)
        img = t.target.word_from_ranks(pgr.outputs[e] for e in la)
        wit = DiamondWitness(ConfigurationWindow(0, wa),
                             ConfigurationWindow(0, wb), img)
        return Decision(False, wit, "point",
                        note="distinct windows, equal images, common ends")
    if pgr.exact:
        return Decision(True, None, "point")
    refuted = _sofic_refutation(t, x, pgr)
    if refuted is not None:
        return Decision(False, refuted, "point",
                        note="found by synchronized-context search")
    return Decision(True, None, "presentation",
                    note="pair-graph criterion passed; bounded point-level "
                         "search found no counterexample")


def _diamond_search(pgr: PairGraph):
    """Shortest diagonal-to-diagonal pair path through a flagged edge.

    Returns the two label sequences, or None.  BFS over (pair, flag)
    states; adjacency is pre-sorted by block labels, so among shortest
    diamonds the label-lexicographically least is found.
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
                if ns % 2 == 1 and (d // n) == (d % n):
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


def _sofic_refutation(t: CellularAutomaton, x: Shift, pgr: PairGraph):
    """Bounded point-level search for equal-image point pairs on domains
    without unique presenting paths.

    Builds a loop lam at the synchronized state q0 and compares the images
    of lam^inf u tail lam^inf over all middles u the cover can read between
    q0 and the tail.  Equal-length middles with equal finite images give
    two genuine points agreeing outside the middle, a refutation.
    """
    try:
        cover, old, inner = synchronized_cover(x)
    except NoSyncWord:
        return None
    rows = transition_rows(cover)
    q0 = old.index(inner.vertex)
    u0 = inner.word.ranks()
    # the (length, lex)-least s with q0 --s--> p where p reads u0
    tail = next((s + u0 for p, s in shortest_words(rows, q0).items()
                 if state_after(rows, u0, p) != -1), None)
    if tail is None:
        return None
    lam = tail or next(((a,) for a, d in enumerate(rows[q0]) if d == q0),
                       None)
    if lam is None:
        return None
    k = t.width
    pad = tuple(lam) * -(-k // len(lam))
    bound = 2 * pgr.n_base + k
    alphabet = x.alphabet
    out = _output_ranks(t)

    level = [((), q0)]
    for _ in range(bound + 1):
        if len(level) > 200_000:
            return None  # search stays bounded; verdict stays hedged
        groups: dict[tuple, tuple] = {}
        for u, p in level:
            if state_after(rows, tail, p) == -1:
                continue
            w = pad + u + tail + pad
            img = tuple(out[t.block_rank(w[i:i + k])]
                        for i in range(len(w) - k + 1))
            if img in groups and groups[img] != u:
                v = groups[img]
                wa = alphabet.word_from_ranks(pad + u + tail + pad)
                wb = alphabet.word_from_ranks(pad + v + tail + pad)
                return DiamondWitness(ConfigurationWindow(0, wa),
                                      ConfigurationWindow(0, wb),
                                      t.target.word_from_ranks(img))
            groups.setdefault(img, u)
        level = [(u + (a,), rows[p][a]) for u, p in level
                 for a in range(len(alphabet)) if rows[p][a] != -1]
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


def image_presentation(t: CellularAutomaton, x: Shift,
                       self_check_n: int = 0) -> Shift:
    """The image shift: relabel each k-block edge of the recoded domain by
    its output symbol; memoised.  ``self_check_n`` > 0 additionally verifies
    the image language against brute-force block images up to that length."""
    pg, _, img = _recode(t, x)
    y = t.derived(("image", x), lambda t: Shift.from_graph(LabeledGraph(
        t.target, pg.n_vertices, tuple((s, d, img[a]) for s, d, a in pg.edges))))
    if self_check_n > 0:
        for n in range(self_check_n + 1):
            direct = {t.apply(w).text for w in x.blocks(n + t.width - 1)}
            if direct != {w.text for w in y.blocks(n)}:
                raise RuntimeError(
                    f"image presentation disagrees with direct images at {n}")
    return y


def image_included(t: CellularAutomaton, x: Shift, y: Shift) -> Decision:
    """:func:`language_included` of the image of ``x`` in ``y``; memoised
    on the rule, so each (rule, domain, target) runs one product search."""
    return t.derived(("included", x, y), lambda t: language_included(
        image_presentation(t, x), y))


def is_surjective(t: CellularAutomaton, x: Shift, y: Shift) -> Decision:
    """Does the image fill the target?  Image and target are both sofic, so
    equality of their languages decides equality of the point sets.  A
    false verdict carries the shortest (then lexicographically least)
    target word no point of the image contains: with the image inside the
    target, that is the word the language comparison reports."""
    img = image_presentation(t, x)
    if img.is_empty or y.is_empty:
        if img.is_empty and y.is_empty:
            return Decision(True, None, "point", note="both empty")
        if img.is_empty:
            return Decision(False, None, "point", note="empty image")
        raise NotIntoTarget("nonempty image into the empty shift")
    inc = image_included(t, x, y)
    if not inc.verdict:
        raise NotIntoTarget(
            f"the image is not inside the target: witness {inc.witness.text!r}")
    eq = equal_shifts(img, y)
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
