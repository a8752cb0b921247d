"""Reference implementations used to check the package's answers.

Everything here favors transparency over speed: explicit word enumeration,
per-pair set reachability, direct preimage search, frozenset closures and
one breadth-first search per source, a suffix scan over the forbidden
words, Myhill-Nerode table filling, a two-sided degree peel closed
backwards, and dense power iteration.  None of it shares algorithmic
machinery with the code under test (which uses joint bitmask evolution,
vectorised preimages, product automata, matrix counting, an Aho-Corasick
matcher, Moore refinement, one-sided peels and per-symbol gathers).  Most
oracles still read membership through ``x.contains_word``, that is through
the minimal acceptor; :func:`origin_contains` reads only the description
the shift was built from, so it also checks canonicalization itself.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque

import numpy as np

from soficlab.errors import StateBlowup
from soficlab.graph import LabeledGraph
from soficlab.shift import SftSpec


def origin_contains(x, ranks) -> bool:
    """Is the nonempty rank word ``ranks`` a block of ``x``?  Decided from
    ``x.origin`` alone: forbidden words for an SFT, edges for a graph."""
    if isinstance(x.origin, SftSpec):
        return _sft_contains(x.origin, tuple(ranks))
    return _graph_contains(x.origin, tuple(ranks))


def periodic_point_allowed(spec, w, left_period, right_period):
    """Is the point that repeats the first ``left_period`` symbols of the
    rank word ``w`` leftward and its last ``right_period`` rightward free of
    the forbidden words of ``spec``?  With each period repeated ``window``
    times, every factor of the point no longer than a forbidden word is a
    factor of the finite word checked."""
    m = spec.window
    ext = w[:left_period] * m + tuple(w) + w[len(w) - right_period:] * m
    bad = {f.ranks() for f in spec.forbidden}
    return not any(ext[i:i + j] in bad for i in range(len(ext))
                   for j in range(1, m + 1))


def _sft_contains(spec, w):
    """No forbidden factor, and a forbidden-free infinite extension on each
    side.  Once ``w`` holds m - 1 symbols (m = window), the two sides
    extend independently: a factor that reaches from one extension across
    ``w`` into the other has more than m symbols, so it is longer than
    every forbidden word.  Each side then depends only on the m - 1 end
    symbols of ``w`` (:func:`_endless`).  A shorter word is a block iff
    one of its forbidden-free right extensions to m - 1 symbols is."""
    bad, keep, right, left = _sft_steps(spec)
    if any(w[i:j] in bad for j in range(len(w) + 1) for i in range(j)):
        return False
    if len(w) < keep:
        return any(_sft_contains(spec, w + (a,))
                   for a in range(len(spec.alphabet)))
    return (_endless(left, w[:keep])
            and _endless(right, w[len(w) - keep:]))


@functools.lru_cache(maxsize=None)
def _sft_steps(spec):
    """The forbidden rank words of ``spec``, the length m - 1 of the blocks
    an extension depends on, and the one-symbol steps of such a block to
    the right and to the left: the blocks b[1:] + a (a + b[:-1]) for the
    symbols a that put no forbidden word at the end (start) of b + a
    (a + b).  Steps are memoised per block."""
    bad = frozenset(f.ranks() for f in spec.forbidden)
    keep = spec.window - 1
    syms = range(len(spec.alphabet))

    @functools.lru_cache(maxsize=None)
    def right(b):
        return tuple(u[1:] for u in (b + (a,) for a in syms)
                     if not any(u[len(u) - j:] in bad
                                for j in range(1, len(u) + 1)))

    @functools.lru_cache(maxsize=None)
    def left(b):
        return tuple(u[:keep] for u in ((a,) + b for a in syms)
                     if not any(u[:j] in bad for j in range(1, len(u) + 1)))

    return bad, keep, right, left


@functools.lru_cache(maxsize=None)
def _endless(step, block):
    """Does ``block`` start an infinite walk under ``step``?  Follows the
    set of blocks reached in exactly i steps.  It answers no when the set
    empties, and yes when the set repeats an earlier one (it then cycles
    forever) or when i reaches the number of distinct blocks seen so far:
    a walk of i steps visits i + 1 blocks, so one of them repeats and
    closes a cycle.  That count is at most the number of forbidden-free
    (m - 1)-blocks, which bounds the search."""
    frontier = frozenset((block,))
    frontiers, blocks = {frontier}, set(frontier)
    i = 0
    while frontier:
        frontier = frozenset(c for b in frontier for c in step(b))
        i += 1
        blocks |= frontier
        if frontier in frontiers or i >= len(blocks):
            return bool(frontier)
        frontiers.add(frontier)
    return False


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
    u.wb.v points of ``x``?  Read from ``x.origin`` alone (an SFT through
    :func:`sft_graph_by_suffix_scan`): vertex pairs with an infinite
    equal-label path into them, and out of them, are what survives
    dropping pairs with no such step until none is left; the words are
    then read from each pair of the first kind."""
    g = x.origin
    if isinstance(g, SftSpec):
        g = sft_graph_by_suffix_scan(g, 10 ** 6)
    out = [[] for _ in range(g.n_vertices)]
    into = [[] for _ in range(g.n_vertices)]
    for s, d, a in g.edges:
        out[s].append((d, a))
        into[d].append((s, a))

    def endless(adj):
        live = set(itertools.product(range(g.n_vertices), repeat=2))
        while True:
            keep = {(p, q) for p, q in live
                    if any((p2, q2) in live for p2, a in adj[p]
                           for q2, b in adj[q] if a == b)}
            if keep == live:
                return live
            live = keep

    def read(states, w):
        for a in w:
            states = {d for s in states for d, b in out[s] if b == a}
        return states

    ahead = endless(out)
    return any((p, q) in ahead
               for u, v in endless(into)
               for p in read({u}, wa) for q in read({v}, wb))


def words_up_to(x, max_len):
    """All language words of length 0..max_len, by prefix extension."""
    syms = x.alphabet.symbols
    out = [[""]]
    for _ in range(max_len):
        out.append([w + s for w in out[-1] for s in syms
                    if x.contains_word(w + s)])
    return [w for tier in out for w in tier]


def block_counts_by_extension(x, n_max):
    syms = x.alphabet.symbols
    words = [""]
    counts = [1]
    for _ in range(n_max):
        words = [w + s for w in words for s in syms
                 if x.contains_word(w + s)]
        counts.append(len(words))
    return counts


def fill_exists(x, u, v, n):
    """Direct enumeration: some w of length n with u+w+v in the language."""
    syms = x.alphabet.symbols
    return any(x.contains_word(u + "".join(w) + v)
               for w in itertools.product(syms, repeat=n))


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
    m = spec.window
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
    matrix by dense power iteration on M+I, testing every sweep:
    (lo, hi, iterations), or None when ``cap`` sweeps do not certify."""
    m = np.array(rows, dtype=float)
    v = np.ones(len(rows))
    for it in range(1, cap + 1):
        mv = m @ v
        quot = mv / v
        lo, hi = float(quot.min()), float(quot.max())
        if lo > 0 and math.log(hi) - math.log(lo) <= tol:
            return lo, hi, it
        v = mv + v
        v /= v.max()
    return None
