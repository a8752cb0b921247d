"""Reference implementations used to check the package's answers.

Everything here favors transparency over speed: explicit word enumeration,
per-pair and per-state set reachability, closed walks counted length by
length, direct preimage search, frozenset closures and one breadth-first
search per source, a suffix scan over the forbidden words, Myhill-Nerode
table filling, a two-sided degree peel closed backwards, and dense power
iteration.  None of it shares algorithmic machinery with the code under
test (which uses joint bitmask evolution, vectorised preimages, product
automata, matrix counting, an Aho-Corasick matcher, Moore refinement,
one-sided peels and per-symbol gathers), with one exception: the equal-label vertex pairs of :func:`common_extension`
are found by a count-down peel, the idea of the one-sided peels, run on
pairs of the origin graph, which the package never builds.  The gap
oracles :func:`minimal_gap_bruteforce`, :func:`gap_failure_pair` and the
layers under them, :func:`gap_by_row_orbit` (one forward row per state,
where the package evolves one preimage row per minimal backward set), and
the reach oracles :func:`irreducible_by_reach`, :func:`unjoinable` and
:func:`sink_period`, read the minimal acceptor;
:func:`origin_contains`, and the word lists, block counts and
:func:`fill_exists` built on it, read only the description the shift was
built from, so they also check canonicalization itself.  :func:`linear_ca`
tabulates a linear rule from its coefficients, whose verdicts have a
closed form.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque

import numpy as np

from soficlab.base import Alphabet, CellularAutomaton
from soficlab.errors import StateBlowup
from soficlab.graph import LabeledGraph
from soficlab.shift import SftSpec


def origin_contains(x, ranks) -> bool:
    """Is the nonempty rank word ``ranks`` a block of ``x``?  Decided from
    ``x.origin`` alone: forbidden words for an SFT, edges for a graph."""
    if isinstance(x.origin, SftSpec):
        return _sft_contains(x.origin, tuple(ranks))
    return _graph_contains(x.origin, tuple(ranks))


def sft_window(spec) -> int:
    """The length of the longest forbidden word of ``spec``, at least 1
    even when nothing is forbidden: blocks of that length determine
    membership."""
    return max((len(w) for w in spec.forbidden), default=1)


def periodic_point_allowed(spec, w, left_period, right_period):
    """Is the point that repeats the first ``left_period`` symbols of the
    rank word ``w`` leftward and its last ``right_period`` rightward free of
    the forbidden words of ``spec``?  With each period repeated ``window``
    times, every factor of the point no longer than a forbidden word is a
    factor of the finite word checked."""
    m = sft_window(spec)
    ext = w[:left_period] * m + tuple(w) + w[len(w) - right_period:] * m
    bad = {f.ranks() for f in spec.forbidden}
    return not any(ext[i:i + j] in bad for i in range(len(ext))
                   for j in range(1, m + 1))


@functools.lru_cache(maxsize=None)
def _sft_contains(spec, w):
    """No forbidden factor, and a forbidden-free infinite extension on each
    side.  Once ``w`` holds m - 1 symbols (m = window), the two sides
    extend independently: a factor that reaches from one extension across
    ``w`` into the other has more than m symbols, so it is longer than
    every forbidden word.  Each side then depends only on the m - 1 end
    symbols of ``w`` (:func:`_sft_steps`).  A shorter word is a block iff
    one of its forbidden-free right extensions to m - 1 symbols is."""
    bad, keep, ahead, behind = _sft_steps(spec)
    if any(w[i:j] in bad for j in range(len(w) + 1) for i in range(j)):
        return False
    if len(w) < keep:
        return any(_sft_contains(spec, w + (a,))
                   for a in range(len(spec.alphabet)))
    return w[:keep] in behind and w[len(w) - keep:] in ahead


@functools.lru_cache(maxsize=None)
def _sft_steps(spec):
    """The forbidden rank words of ``spec``, the length m - 1 of the blocks
    an extension depends on, and the sets of forbidden-free (m - 1)-blocks
    that extend forever to the right and to the left.

    A block b steps right to b[1:] + a for each symbol a that puts no
    forbidden word at the end of b + a, and left to a + b[:-1] likewise.
    Each side's set is what survives peeling the blocks from which every
    step leads to a peeled block (:func:`_unpeeled`)."""
    bad = frozenset(f.ranks() for f in spec.forbidden)
    keep = sft_window(spec) - 1
    syms = range(len(spec.alphabet))

    def clean_end(u):
        return not any(u[len(u) - j:] in bad for j in range(1, len(u) + 1))

    def clean_start(u):
        return not any(u[:j] in bad for j in range(1, len(u) + 1))

    blocks = [()]
    for _ in range(keep):  # forbidden-free words, grown at the right end
        blocks = [u for b in blocks for u in (b + (a,) for a in syms)
                  if clean_end(u)]
    right = {b: [u[1:] for u in (b + (a,) for a in syms) if clean_end(u)]
             for b in blocks}
    left = {b: [u[:keep] for u in ((a,) + b for a in syms) if clean_start(u)]
            for b in blocks}
    return bad, keep, _unpeeled(right), _unpeeled(left)


def _unpeeled(step):
    """The blocks that start an infinite walk under ``step`` (block -> list
    of next blocks): drop each block whose steps all lead to dropped
    blocks, counting down its live steps, until no block is left to
    drop."""
    live = {b: len(nxt) for b, nxt in step.items()}
    back = {b: [] for b in step}
    for b, nxt in step.items():
        for c in nxt:
            back[c].append(b)
    dropped = [b for b, n in live.items() if n == 0]
    for c in dropped:
        for b in back[c]:
            live[b] -= 1
            if live[b] == 0:
                dropped.append(b)
    return frozenset(b for b, n in live.items() if n > 0)


@functools.lru_cache(maxsize=None)
def origin_blocks(x, n):
    """Rank words of length ``n`` of ``x``, lexicographic, decided from
    ``x.origin`` alone (never the acceptor)."""
    return [w for w in itertools.product(range(len(x.alphabet)), repeat=n)
            if origin_contains(x, w)]


def table_image(t, ranks):
    """Slide the rule table across a rank word, by hand."""
    k, na = t.width, len(t.source)
    out = []
    for i in range(len(ranks) - k + 1):
        r = 0
        for a in ranks[i:i + k]:
            r = r * na + a
        out.append(t.target.index(t.table[r]))
    return tuple(out)


def image_mismatch(t, x, img, n_max):
    """First length n in 1..n_max at which the n-blocks of the shift
    ``img`` differ from the table images of the (n + width - 1)-blocks of
    ``x`` read from its origin; None when they agree throughout.  Length 0
    is left out: an empty domain has no (width - 1)-block, yet its image
    has the empty word."""
    for n in range(1, n_max + 1):
        images = {table_image(t, u) for u in origin_blocks(x, n + t.width - 1)}
        if images != {w.ranks() for w in img.blocks(n)}:
            return n
    return None


def _graph_contains(g, w):
    """Drop vertices without an in- or out-edge until none is left to drop,
    then follow the word from every remaining vertex at once."""
    alive = set(range(g.n_vertices))
    while True:
        inner = [(s, d) for s, d, _ in g.edges if s in alive and d in alive]
        live = {s for s, _ in inner} & {d for _, d in inner}
        if live == alive:
            break
        alive = live
    cur = alive
    for a in w:
        cur = {d for s, d, b in g.edges if b == a and s in cur and d in alive}
    return bool(cur)


def common_extension(x, wa, wb) -> bool:
    """Do some left-infinite u and right-infinite v make both u.wa.v and
    u.wb.v points of ``x``?  Read from ``x.origin`` alone
    (:func:`_equal_label_pairs`); the words are read from each pair with
    an infinite equal-label path into it."""
    out, ahead, behind = _equal_label_pairs(x)

    def read(states, w):
        for a in w:
            states = {d for s in states for d, b in out[s] if b == a}
        return states

    return any((p, q) in ahead
               for u, v in behind
               for p in read({u}, wa) for q in read({v}, wb))


@functools.lru_cache(maxsize=None)
def _equal_label_pairs(x):
    """The out-edges ``(dst, label)`` of each vertex of ``x.origin`` (an
    SFT through :func:`sft_graph_by_suffix_scan`), and its vertex pairs
    with an infinite equal-label path out of them, and into them: what
    survives dropping pairs with no such step until none is left.
    Memoised per shift: it does not depend on the words."""
    g = x.origin
    if isinstance(g, SftSpec):
        g = sft_graph_by_suffix_scan(g, 10 ** 6)
    out = [[] for _ in range(g.n_vertices)]
    into = [[] for _ in range(g.n_vertices)]
    for s, d, a in g.edges:
        out[s].append((d, a))
        into[d].append((s, a))

    def endless(adj, rev):
        """Pairs with an infinite equal-label path along ``adj``.  The
        equal-label steps out of (p, q) number (C C^T)[p, q], C[v, a] the
        count of a-labelled steps out of v; a pair whose count is 0 is
        dropped and takes one step from each pair of its in-list, the
        equal-label steps into it along ``rev``, until none is left."""
        n, k = g.n_vertices, len(g.alphabet)
        c = np.zeros((n, k), dtype=np.int64)
        into = [[[] for _ in range(k)] for _ in range(n)]
        for v in range(n):
            for _, a in adj[v]:
                c[v, a] += 1
            for u, a in rev[v]:
                into[v][a].append(u)
        steps = (c @ c.T).tolist()
        dropped = deque((p, q) for p in range(n) for q in range(n)
                        if steps[p][q] == 0)
        while dropped:
            p2, q2 = dropped.popleft()
            for ps, qs in zip(into[p2], into[q2]):
                for p in ps:
                    row = steps[p]
                    for q in qs:
                        row[q] -= 1
                        if row[q] == 0:
                            dropped.append((p, q))
        return {(p, q) for p in range(n) for q in range(n) if steps[p][q]}

    return out, endless(out, into), endless(into, out)


def _tiers(x, max_len):
    """Rank words of ``x`` of each length 0..max_len, lexicographic, by
    prefix extension read from ``x.origin`` alone."""
    tiers = [[()]]
    for _ in range(max_len):
        tiers.append([w + (a,) for w in tiers[-1]
                      for a in range(len(x.alphabet))
                      if origin_contains(x, w + (a,))])
    return tiers


def words_up_to(x, max_len):
    """All language words of length 0..max_len, by prefix extension, read
    from ``x.origin`` (never the acceptor)."""
    syms = x.alphabet.symbols
    return ["".join(syms[a] for a in w)
            for tier in _tiers(x, max_len) for w in tier]


def block_counts_by_extension(x, n_max):
    """Block counts of lengths 0..n_max, read from ``x.origin``: a check
    on ``block_counts``, which counts over the acceptor."""
    return [len(tier) for tier in _tiers(x, n_max)]


def fill_exists(x, u, v, n):
    """Direct enumeration: some w of length n with u+w+v in the language,
    read from ``x.origin`` (never the acceptor)."""
    u, v = x.word(u).ranks(), x.word(v).ranks()
    return any(origin_contains(x, u + w + v) for w in
               itertools.product(range(len(x.alphabet)), repeat=n))


def _layer_feasible(x, u, v, probe):
    """feasible[n] for n = 0..probe via explicit state-set layers.

    Independent of the package's gap machinery: per-pair, forward sets
    only, no cycle detection.
    """
    d = x.acceptor
    nsym = len(x.alphabet)
    q = 0
    for a in x.word(u).ranks():
        q = d.trans[q][a]
        if q == -1:
            raise ValueError(f"{u!r} not in the language")
    readers = set()
    vranks = x.word(v).ranks()
    for s in range(d.n_states):
        cur = s
        for a in vranks:
            cur = d.trans[cur][a]
            if cur == -1:
                break
        else:
            readers.add(s)
    layer = {q}
    feasible = []
    for _ in range(probe + 1):
        feasible.append(bool(layer & readers))
        layer = {d.trans[s][a] for s in layer for a in range(nsym)} - {-1}
    return feasible


def _end_state(x, u):
    q = 0
    for a in x.word(u).ranks():
        q = x.acceptor.trans[q][a]
        if q == -1:
            raise ValueError(f"{u!r} not in the language")
    return q


def _reader_states(x, v):
    d = x.acceptor
    out = set()
    vranks = x.word(v).ranks()
    for s in range(d.n_states):
        cur = s
        for a in vranks:
            cur = d.trans[cur][a]
            if cur == -1:
                break
        else:
            out.add(s)
    return frozenset(out)


def minimal_gap_bruteforce(x, max_word_len, probe=None):
    """Largest per-pair least gap over language words of bounded length.

    Per pair the fill lengths are scanned forward with plain state sets, no
    cycle detection.  The scan depends on u only through its end state and
    on v only through the set of states that can read it, so those are
    memoized; the quantification is still over every word pair.  Returns
    (gap, (u, v)); raises AssertionError when some pair has no stable gap
    within the probe horizon (not mixing, or the probe is too short).
    """
    d = x.acceptor
    nsym = len(x.alphabet)
    if probe is None:
        probe = 2 * d.n_states + 8
    pool = words_up_to(x, max_word_len)
    readers_of = {v: _reader_states(x, v) for v in pool}
    memo: dict[tuple, int] = {}
    best, best_pair = 0, ("", "")
    for u in pool:
        qu = _end_state(x, u)
        for v in pool:
            readers = readers_of[v]
            key = (qu, readers)
            n = memo.get(key)
            if n is None:
                layer = {qu}
                feas = []
                for _ in range(probe + 1):
                    feas.append(bool(layer & readers))
                    layer = {d.trans[s][a] for s in layer
                             for a in range(nsym)} - {-1}
                assert feas[-1] and feas[-2], \
                    f"pair ({u!r}, {v!r}) still failing at the probe horizon"
                n = probe
                while n > 0 and feas[n - 1]:
                    n -= 1
                assert all(feas[n:])
                memo[key] = n
            if n > best:
                best, best_pair = n, (u, v)
    return best, best_pair


def gap_failure_pair(x, max_word_len, probe=None):
    """Some pair of language words with no stable gap, if one exists."""
    if probe is None:
        probe = 2 * x.acceptor.n_states + 8
    pool = words_up_to(x, max_word_len)
    for u in pool:
        for v in pool:
            feas = _layer_feasible(x, u, v, probe)
            if not (feas[-1] and feas[-2]):
                return u, v
    return None


NOT_MIXING = "not mixing"


def gap_by_row_orbit(x, cap):
    """The least uniform gap N0 by forward rows on frozensets: row s at
    step k holds the states reached from acceptor state s by words of
    length k, and gap k fails when some row misses some set of
    :func:`backward_family`.  The row tuple lives in a finite space, so it
    is evolved until a tuple repeats; from there it cycles.  Returns N0,
    NOT_MIXING when a gap of the cycle fails, or None when no tuple
    repeats within ``cap`` steps."""
    trans = x.acceptor.trans
    family = [fs for fs, _ in backward_family(x.acceptor)]
    rows = tuple(frozenset([s]) for s in range(len(trans)))
    index: dict[tuple, int] = {}
    fails: list[bool] = []
    while rows not in index:
        if len(fails) > cap:
            return None
        index[rows] = len(fails)
        fails.append(any(not row & fs for row in rows for fs in family))
        rows = tuple(frozenset(t for q in row for t in trans[q] if t != -1)
                     for row in rows)
    if any(fails[index[rows]:]):
        return NOT_MIXING
    n0 = index[rows]
    while n0 and not fails[n0 - 1]:
        n0 -= 1
    return n0


def missing_preimage(t, x, y, max_len):
    """First target word, in (length, lex) order over lengths
    1..max_len, that is not the table image of any block of ``x``; None
    when there is none.  Both shifts are read from their origins."""
    for n in range(1, max_len + 1):
        images = {table_image(t, u)
                  for u in origin_blocks(x, n + t.width - 1)}
        for w in origin_blocks(y, n):
            if w not in images:
                return y.alphabet.word_from_ranks(w)
    return None


def image_word_outside(t, x, y, max_len):
    """First table image of a block of ``x``, in (length, lex) order over
    lengths 1..max_len, that is not a block of ``y``; None when there is
    none.  Both shifts are read from their origins."""
    for n in range(1, max_len + 1):
        images = sorted({table_image(t, u)
                         for u in origin_blocks(x, n + t.width - 1)})
        missing = [v for v in images if not origin_contains(y, v)]
        if missing:
            return missing[0]
    return None


def backward_family(d):
    """Backward reading sets ``{q : v readable from q}`` of an acceptor as
    frozensets, each with its shortest representative word ``v``: closed
    breadth first from the full set under per-symbol preimage, read
    straight off the transition table."""
    family = [(frozenset(range(d.n_states)), ())]
    seen = {family[0][0]}
    for cur, v in family:
        for a in range(len(d.alphabet)):
            prev = frozenset(q for q in range(d.n_states)
                             if d.trans[q][a] in cur)
            if prev and prev not in seen:
                seen.add(prev)
                family.append((prev, (a,) + v))
    return family


def word_image(trans, states, w):
    """The set of end states of the runs of the rank word ``w`` from
    ``states`` in a partial table; runs that fall off drop out."""
    image = set()
    for q in states:
        for a in w:
            q = trans[q][a]
            if q == -1:
                break
        else:
            image.add(q)
    return image


def sync_word_by_levels(trans, states, max_len):
    """The first word of length at most ``max_len`` that takes ``states``
    to exactly one state, as (word, state), or None.  Words are tried by
    length and, within a length, in descending lexicographic order; each
    is simulated on a plain set, and an empty image does not count (such a
    word and its extensions are dropped)."""
    symbols = range(len(trans[0]) - 1, -1, -1)
    level = [((), set(states))]
    for length in range(max_len + 1):
        if length:
            level = [(w + (a,), nxt) for w, image in level for a in symbols
                     if (nxt := word_image(trans, image, (a,)))]
        for w, image in level:
            if len(image) == 1:
                return w, next(iter(image))
    return None


def reachable_states(x, s):
    """States of ``x.acceptor`` reachable from state ``s``, ``s`` included,
    by a plain depth-first search."""
    trans = x.acceptor.trans
    seen, todo = {s}, [s]
    while todo:
        for t in trans[todo.pop()]:
            if t != -1 and t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def irreducible_by_reach(x):
    """Irreducibility read from per-state reach: the states reachable from
    every state meet every set of :func:`backward_family`.  A word u ends
    at some state, and some fill joins it to v exactly when that state
    reaches a state reading v."""
    family = backward_family(x.acceptor)
    return all(not fs.isdisjoint(reachable_states(x, s))
               for s in range(x.acceptor.n_states) for fs, _ in family)


def unjoinable(x, u, v):
    """No state reachable after the word ``u`` reads the word ``v``."""
    return reachable_states(x, _end_state(x, u)).isdisjoint(
        _reader_states(x, v))


def sink_period(x):
    """(sink, period) of an irreducible shift's acceptor: the states that
    every state reaches, and the gcd of the lengths of the closed walks
    inside them.  Every simple cycle of the sink is at most as long as the
    sink is large, so lengths up to that size decide the gcd."""
    trans = x.acceptor.trans
    sink = set.intersection(*(reachable_states(x, s)
                              for s in range(x.acceptor.n_states)))
    ends = {q: {q} for q in sink}  # ends of the walks of length n from q
    g = 0
    for n in range(1, len(sink) + 1):
        ends = {q: {t for p in ps for t in trans[p] if t != -1}
                for q, ps in ends.items()}
        if any(q in ps for q, ps in ends.items()):
            g = math.gcd(g, n)
    return frozenset(sink), g


def first_missed(family, mask):
    """Word of the first set of ``family`` (frozenset, word pairs) holding
    no state of the bitmask ``mask``; None when ``mask`` meets them all."""
    return next((v for fs, v in family
                 if not any(mask >> q & 1 for q in fs)), None)


def diameter_by_bfs(g):
    """Largest shortest-path length over ordered vertex pairs, from one
    breadth-first search per source; None when some vertex cannot reach
    another."""
    succ = [set() for _ in range(g.n_vertices)]
    for s, d, _ in g.edges:
        succ[s].add(d)
    best = 0
    for src in range(g.n_vertices):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for w in succ[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        if len(dist) < g.n_vertices:
            return None
        best = max(best, max(dist.values()))
    return best


def sft_graph_by_suffix_scan(spec, cap):
    """Vertex-per-block presentation of an SFT, built level by level: a
    block is extended by a symbol unless some forbidden word is a suffix of
    the extension, each forbidden word tested in turn.  Vertices are the
    clean blocks of length ``window - 1`` in lexicographic order; raises
    StateBlowup when a level exceeds ``cap`` blocks."""
    m = sft_window(spec)
    na = len(spec.alphabet)
    bad = [w.ranks() for w in spec.forbidden]

    def blocked(word):
        return any(len(f) <= len(word) and word[len(word) - len(f):] == f
                   for f in bad)

    verts = [()]
    for _ in range(m - 1):
        verts = [w + (a,) for w in verts for a in range(na)
                 if not blocked(w + (a,))]
        if len(verts) > cap:
            raise StateBlowup(f"SFT presentation exceeds {cap} vertices")
    vid = {w: i for i, w in enumerate(verts)}
    edges = []
    for w in verts:
        for a in range(na):
            ext = w + (a,)
            if not blocked(ext):
                edges.append((vid[w], vid[ext[1:] if m > 1 else ()], a))
    return LabeledGraph(spec.alphabet, len(verts), tuple(edges))


def linear_ca(m, coeffs):
    """The linear rule ``x -> sum_j coeffs[j] x(i+j) mod m`` on the full
    m-shift over ``0..m-1``, memory ``[0, len(coeffs) - 1]``, tabulated
    window by window."""
    alpha = Alphabet(tuple(str(a) for a in range(m)))
    width = len(coeffs)
    table = tuple(str(sum(c * a for c, a in zip(coeffs, w)) % m)
                  for w in itertools.product(range(m), repeat=width))
    return CellularAutomaton(alpha, alpha, 0, width - 1, table)


def core_by_two_sided_peel(n, edges):
    """Vertices with an in- and an out-edge once every vertex lacking one
    is dropped, as flags: one queue that removes such vertices and lowers
    the in- and out-degrees of their neighbours.  ``edges`` are tuples
    whose first two fields are source and target."""
    outdeg = [0] * n
    indeg = [0] * n
    out_adj = [[] for _ in range(n)]
    in_adj = [[] for _ in range(n)]
    for e in edges:
        s, d = e[0], e[1]
        outdeg[s] += 1
        indeg[d] += 1
        out_adj[s].append(d)
        in_adj[d].append(s)
    dead = deque(v for v in range(n) if outdeg[v] == 0 or indeg[v] == 0)
    alive = [True] * n
    while dead:
        v = dead.popleft()
        if not alive[v]:
            continue
        alive[v] = False
        for w in out_adj[v]:
            if alive[w]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    dead.append(w)
        for w in in_adj[v]:
            if alive[w]:
                outdeg[w] -= 1
                if outdeg[w] == 0:
                    dead.append(w)
    return alive


def reach_core_by_closure(n, edges):
    """Vertices from which some path reaches the two-sided core of
    ``edges`` (:func:`core_by_two_sided_peel`), as flags: the core closed
    backwards along the edges."""
    tail = core_by_two_sided_peel(n, edges)
    into = [[] for _ in range(n)]
    for e in edges:
        into[e[1]].append(e[0])
    stack = [v for v, alive in enumerate(tail) if alive]
    while stack:
        for u in into[stack.pop()]:
            if not tail[u]:
                tail[u] = True
                stack.append(u)
    return tail


def nerode_classes(trans):
    """Classes of states of a partial transition table with equal sets of
    readable words, by table filling: a pair is distinguished when one
    state reads a symbol the other does not, or when a common symbol leads
    to a distinguished pair; repeat until no pair is added.  Classes are
    numbered by least member.  Returns (class_of_state, class_count)."""
    n = len(trans)
    dist = [[False] * n for _ in range(n)]
    changed = True
    while changed:
        changed = False
        for p in range(n):
            for q in range(n):
                if dist[p][q]:
                    continue
                for tp, tq in zip(trans[p], trans[q]):
                    if (tp == -1) != (tq == -1) or (
                            tp != -1 and dist[tp][tq]):
                        dist[p][q] = True
                        changed = True
                        break
    cls = []
    count = 0
    for q in range(n):
        p = next(p for p in range(q + 1) if not dist[p][q])
        if p == q:
            cls.append(count)
            count += 1
        else:
            cls.append(cls[p])
    return cls, count


def count_block(trans, comp):
    """Dense count matrix of the states ``comp`` of a transition table:
    entry (i, j) counts the symbols taking comp[i] to comp[j]."""
    pos = {q: i for i, q in enumerate(comp)}
    rows = [[0] * len(comp) for _ in comp]
    for row, q in zip(rows, comp):
        for t in trans[q]:
            if t in pos:
                row[pos[t]] += 1
    return rows


def dense_bracket(rows, tol, cap):
    """Collatz-Wielandt bracket of the Perron root of an irreducible count
    matrix by dense power iteration on M+I, testing every sweep and
    rescaling by a power of two, which rounds nothing: (lo, hi,
    iterations), or None when ``cap`` sweeps do not certify."""
    m = np.array(rows, dtype=float)
    v = np.ones(len(rows))
    for it in range(1, cap + 1):
        mv = m @ v
        quot = mv / v
        lo, hi = float(quot.min()), float(quot.max())
        if lo > 0 and math.log(hi) - math.log(lo) <= tol:
            return lo, hi, it
        v = mv + v
        v = np.ldexp(v, -np.frexp(v.max())[1])
    return None
