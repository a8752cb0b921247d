"""Reference implementations used to check the package's answers.

Everything here favors transparency over speed: explicit word enumeration,
per-pair set reachability, direct preimage search, frozenset closures and
one breadth-first search per source, a suffix scan over the forbidden
words, Myhill-Nerode table filling, and dense power iteration.  None of
it shares algorithmic machinery with the code under test (which uses
joint bitmask evolution, vectorised preimages, product automata, matrix
counting, an Aho-Corasick matcher, Moore refinement and per-symbol
gathers).  Most
oracles still read membership through ``x.contains_word``, that is through
the minimal acceptor; :func:`origin_contains` reads only the description
the shift was built from, so it also checks canonicalization itself.
"""

from __future__ import annotations

import itertools
import math

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


def _sft_contains(spec, w):
    """No forbidden factor, and a forbidden-free extension by ``n`` symbols
    on both sides.  ``n`` exceeds the number of (m-1)-blocks by m, so each
    side of such an extension repeats an (m-1)-block away from ``w``, and
    repeating the stretch between the two copies extends it forever."""
    bad = {f.ranks() for f in spec.forbidden}
    m = spec.window
    keep = m - 1
    syms = range(len(spec.alphabet))
    if any(w[i:j] in bad for j in range(len(w) + 1) for i in range(j)):
        return False
    n = len(syms) ** keep + m
    # what a further extension may read: the first and last keep symbols
    ends = {(w[:keep], w[max(len(w) - keep, 0):])}
    for _ in range(n):
        nxt = set()
        for pre, suf in ends:
            for a in syms:
                head, tail = (a,) + pre, (a,) + suf
                if not any(head[:j] in bad for j in range(1, len(head) + 1)):
                    nxt.add((head[:keep], tail[max(len(tail) - keep, 0):]))
        ends = nxt
    tails = {suf for _, suf in ends}
    for _ in range(n):
        nxt = set()
        for suf in tails:
            for a in syms:
                t = suf + (a,)
                if not any(t[len(t) - j:] in bad for j in range(1, len(t) + 1)):
                    nxt.add(t[max(len(t) - keep, 0):])
        tails = nxt
    return bool(tails)


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
    """First target word (BFS order) with no domain preimage, else None.

    Checks every word of y's language up to max_len against all candidate
    domain words of the stretched length.
    """
    width = t.width
    for n in range(max_len + 1):
        for w in sorted(y.blocks(n), key=lambda b: b.ranks()):
            found = False
            for u in x.blocks(n + width - 1):
                if t.apply(u).ranks() == w.ranks():
                    found = True
                    break
            if not found:
                return w
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
    clean blocks of length ``window - 1`` in lexicographic order, named by
    their symbols (concatenated when every symbol is one character,
    comma-joined otherwise; ``^`` for the empty block); raises StateBlowup
    when a level exceeds ``cap`` blocks."""
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
    syms = spec.alphabet.symbols
    sep = "" if all(len(x) == 1 for x in syms) else ","
    names = tuple(sep.join(syms[r] for r in w) if w else "^" for w in verts)
    return LabeledGraph(spec.alphabet, len(verts), tuple(edges), names)


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
