"""Partial deterministic acceptors for factorial languages.

A :class:`FactorialDfa` is a deterministic automaton in which every state
accepts and transitions may be undefined: the language is the set of words
whose run from state 0 is fully defined.  Languages of interest here are
factorial (factor-closed) and extendable, which the constructors guarantee;
the class itself only enforces shape and reachability.

All words at this layer are tuples of symbol ranks.  The typed Word wrappers
live one level up.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .base import Alphabet
from .errors import CapExceeded, StateBlowup
from .graph import LabeledGraph, refine_classes

_STATE_CAP = 10 ** 6


@dataclass(frozen=True)
class FactorialDfa:
    """Partial DFA, start state 0, every state accepting.

    ``trans[q][a]`` is the successor state or -1 when undefined.  Every
    state must be reachable from 0; constructors uphold this.
    """

    alphabet: Alphabet
    trans: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.trans)
        object.__setattr__(self, "trans", rows)
        n = len(rows)
        if n == 0:
            raise ValueError("need at least the start state")
        na = len(self.alphabet)
        for row in rows:
            if len(row) != na:
                raise ValueError("transition row width mismatch")
            for t in row:
                if not (-1 <= t < n):
                    raise ValueError(f"transition target {t} out of range")
        seen = [False] * n
        seen[0] = True
        q = deque([0])
        while q:
            v = q.popleft()
            for t in rows[v]:
                if t != -1 and not seen[t]:
                    seen[t] = True
                    q.append(t)
        if not all(seen):
            raise ValueError("unreachable states in acceptor")

    @property
    def n_states(self) -> int:
        return len(self.trans)

    def state_after(self, ranks, start: int = 0) -> int:
        """End state of the run, or -1 if it falls off."""
        return state_after(self.trans, ranks, start)

    def defined(self, ranks, start: int = 0) -> bool:
        return self.state_after(ranks, start) != -1

    def __repr__(self) -> str:
        return f"FactorialDfa({self.n_states} states over {self.alphabet.compact})"


def _successors(g: LabeledGraph) -> list[list[list[int]]]:
    """``post[v][a]``: the targets of the edges out of v labelled a."""
    post: list[list[list[int]]] = [[[] for _ in g.alphabet.symbols]
                                   for _ in range(g.n_vertices)]
    for s, d, a in g.edges:
        post[s][a].append(d)
    return post


def determinize(g: LabeledGraph, cap: int = _STATE_CAP) -> FactorialDfa:
    """Subset construction from the set of all vertices of ``g``.

    For an essential graph this accepts exactly the finite label words of
    paths, i.e. the language of the presented subshift.  An empty graph
    yields the one-state acceptor of the empty-word-only language.
    """
    na = len(g.alphabet)
    if g.n_vertices == 0:
        return FactorialDfa(g.alphabet, ((-1,) * na,))
    post = _successors(g)
    start = frozenset(range(g.n_vertices))
    ids: dict[frozenset, int] = {start: 0}
    order = [start]
    rows: list[list[int]] = []
    i = 0
    while i < len(order):
        cur = order[i]
        row = [-1] * na
        for a in range(na):
            nxt = frozenset(t for v in cur for t in post[v][a])
            if nxt:
                if nxt not in ids:
                    if len(ids) >= cap:
                        raise StateBlowup(f"subset construction passed {cap} states")
                    ids[nxt] = len(order)
                    order.append(nxt)
                row[a] = ids[nxt]
        rows.append(row)
        i += 1
    return FactorialDfa(g.alphabet, tuple(map(tuple, rows)))


def minimize(d: FactorialDfa) -> FactorialDfa:
    """Language-preserving minimization with a canonical state order.

    Moore refinement from the single all-accepting class, then breadth-first
    renumbering from the start state in symbol-rank order.  Two acceptors
    have equal languages iff their minimized forms are identical.
    """
    n = d.n_states
    na = len(d.alphabet)
    cls, nc = refine_classes(d.trans)
    # quotient transitions (well defined at the fixpoint)
    qtrans = [[-1] * na for _ in range(nc)]
    for q in range(n):
        for a in range(na):
            t = d.trans[q][a]
            if t != -1:
                qtrans[cls[q]][a] = cls[t]
    # canonical numbering: BFS from the start class
    old_of_new: list[int] = [cls[0]]
    new_of_old = {cls[0]: 0}
    i = 0
    while i < len(old_of_new):
        c = old_of_new[i]
        for a in range(na):
            t = qtrans[c][a]
            if t != -1 and t not in new_of_old:
                new_of_old[t] = len(old_of_new)
                old_of_new.append(t)
        i += 1
    rows = tuple(
        tuple(new_of_old[qtrans[c][a]] if qtrans[c][a] != -1 else -1
              for a in range(na))
        for c in old_of_new)
    return FactorialDfa(d.alphabet, rows)


def to_graph(d: FactorialDfa) -> LabeledGraph:
    """The transition structure as a labeled graph (one edge per defined
    transition)."""
    edges = []
    for q, row in enumerate(d.trans):
        for a, t in enumerate(row):
            if t != -1:
                edges.append((q, t, a))
    return LabeledGraph(d.alphabet, d.n_states, tuple(edges))


def word_counts(d: FactorialDfa, n_max: int) -> list[int]:
    """Exact counts of words of each length 0..n_max, as Python ints."""
    vec = [0] * d.n_states
    vec[0] = 1
    counts = [1]
    for _ in range(n_max):
        nxt = [0] * d.n_states
        for q, c in enumerate(vec):
            if c:
                for t in d.trans[q]:
                    if t != -1:
                        nxt[t] += c
        vec = nxt
        counts.append(sum(vec))
    return counts


def state_after(trans, ranks, start: int = 0) -> int:
    """End state of the run of ``ranks`` from ``start`` in a partial table
    (``trans[q][a]`` a state or -1), or -1 if it falls off."""
    q = start
    for a in ranks:
        q = trans[q][a]
        if q == -1:
            return -1
    return q


def shortest_words(trans, start: int = 0) -> dict[int, tuple[int, ...]]:
    """The (length, lex)-least word leading from ``start`` to each state it
    reaches in a partial table.  Breadth-first in symbol-rank order, so the
    states are keyed in the (length, lex) order of their words."""
    words = {start: ()}
    order = [start]
    for q in order:
        w = words[q]
        for a, t in enumerate(trans[q]):
            if t != -1 and t not in words:
                words[t] = w + (a,)
                order.append(t)
    return words


def enumerate_ranks(d: FactorialDfa, length: int,
                    start: int = 0) -> Iterator[tuple[int, ...]]:
    """All length-``length`` words readable from ``start``, lexicographic."""
    na = len(d.alphabet)
    word: list[int] = []
    state = [start]

    def rec() -> Iterator[tuple[int, ...]]:
        if len(word) == length:
            yield tuple(word)
            return
        q = state[-1]
        for a in range(na):
            t = d.trans[q][a]
            if t != -1:
                word.append(a)
                state.append(t)
                yield from rec()
                word.pop()
                state.pop()

    yield from rec()


def shortest_difference(d1: FactorialDfa,
                        d2: FactorialDfa) -> tuple[tuple[int, ...], int] | None:
    """Shortest word in exactly one language, with the side (1 or 2) it
    belongs to; None when the languages are equal.  Ties break toward the
    lexicographically least word: the least of the two one-sided
    :func:`shortest_missing` words (the sides are disjoint, so the order
    never ties)."""
    found = [(w, side) for side, w in ((1, shortest_missing(d1, d2)),
                                       (2, shortest_missing(d2, d1)))
             if w is not None]
    return min(found, key=lambda f: (len(f[0]), f[0]), default=None)


def shortest_missing(d1: FactorialDfa,
                     d2: FactorialDfa) -> tuple[int, ...] | None:
    """Shortest word in L(d1) but not in L(d2), or None if L(d1) ⊆ L(d2);
    ties break toward the lexicographically least word."""
    return _least_missing(0, d1.trans.__getitem__, d2)


def graph_missing(g: LabeledGraph,
                  d: FactorialDfa) -> tuple[int, ...] | None:
    """The (length, lex)-least label word of a path of ``g`` that ``d``
    does not read, or None when ``d`` reads them all.

    Paths start at any vertex, so for an essential ``g`` these words are
    the language of the shift ``g`` presents, and the answer is the word
    :func:`shortest_missing` gives for that shift's acceptor, with no
    acceptor built.  The verdict comes first (:func:`_graph_read`).  Only
    a failure pays for the witness, a breadth-first search over (vertex
    set, state) pairs from (all vertices, 0): the subset construction of
    ``g``, run only as far as that word."""
    if _graph_read(g, d):
        return None
    post = _successors(g)
    symbols = range(len(g.alphabet))

    def moves(vs: frozenset) -> list:
        # an empty set of successors is a move g cannot make
        return [frozenset(u for v in vs for u in post[v][a]) or -1
                for a in symbols]
    return _least_missing(frozenset(range(g.n_vertices)), moves, d)


def _graph_read(g: LabeledGraph, d: FactorialDfa) -> bool:
    """Does ``d`` read the label of every path of ``g``?  A search over
    (vertex, state) pairs from every (v, 0), O(V·Q·|A|), that stops at
    the first move ``d`` cannot make."""
    trans, nq = d.trans, d.n_states
    out = g.out_map()
    seen = bytearray(g.n_vertices * nq)
    stack = list(range(0, g.n_vertices * nq, nq))
    for p in stack:
        seen[p] = 1
    while stack:
        v, q = divmod(stack.pop(), nq)
        row = trans[q]
        for u, a in out[v]:
            r = row[a]
            if r == -1:
                return False
            p = u * nq + r
            if not seen[p]:
                seen[p] = 1
                stack.append(p)
    return True


def _least_missing(start, moves, d: FactorialDfa) -> tuple[int, ...] | None:
    """The (length, lex)-least word read from ``start`` and not by ``d``,
    or None.  ``moves(s)`` is the row of the state s: per symbol rank the
    successor state, or -1 when s cannot read the symbol.

    Breadth first over (state, ``d``-state) pairs in symbol-rank order,
    from (start, 0): each pair is first reached by its least word, so the
    first move ``d`` cannot make ends the least missing word."""
    trans = d.trans
    seen = {(start, 0)}
    queue: deque[tuple[object, int, tuple[int, ...]]] = deque([(start, 0, ())])
    while queue:
        s, q, w = queue.popleft()
        row = trans[q]
        for a, t in enumerate(moves(s)):
            if t == -1:
                continue
            r = row[a]
            if r == -1:
                return w + (a,)
            if (t, r) not in seen:
                seen.add((t, r))
                queue.append((t, r, w + (a,)))
    return None


def post_set(trans, states: frozenset, a: int) -> frozenset:
    """Image of a state set under one symbol of a partial transition table."""
    return frozenset(t for q in states if (t := trans[q][a]) != -1)


def shortest_sync(trans, states, n_symbols: int) -> tuple[tuple[int, ...], int] | None:
    """Shortest word collapsing ``states`` to a single state under the
    (possibly restricted) partial table ``trans``.

    Among equally short collapsing words the lexicographically greatest is
    returned, so the choice is deterministic.  Words whose image is empty
    are not collapsing (they are unreadable from every state).  Returns
    (word_ranks, final_state) or None when no collapsing word exists.
    """
    start = frozenset(states)
    if not start:
        return None
    if len(start) == 1:
        return (), next(iter(start))
    seen = {start}
    queue: deque[tuple[frozenset, tuple[int, ...]]] = deque([(start, ())])
    while queue:
        cur, w = queue.popleft()
        for a in range(n_symbols - 1, -1, -1):
            nxt = post_set(trans, cur, a)
            if not nxt or nxt in seen:
                continue
            nw = w + (a,)
            if len(nxt) == 1:
                return nw, next(iter(nxt))
            seen.add(nxt)
            queue.append((nxt, nw))
    return None


def backward_subsets(d: FactorialDfa,
                     cap: int = _STATE_CAP) -> list[tuple[int, tuple[int, ...]]]:
    """All sets of the form {q : word readable from q}, as bitmasks over
    the states, with a shortest representative word for each.

    Starts from the full state set (the empty word) and closes under
    per-symbol preimage, breadth first: the set for a word a·v is the
    a-preimage of the set for v.  A set is a bool array with one trailing
    sentinel slot (always False), and the a-preimage of ``cur`` is
    ``cur[col_a]``, where ``col_a[q]`` is the a-successor of q, or the
    sentinel when undefined.  Every set in the family is nonempty and its
    representative word is in the language (the family's sets are exactly
    the readable words' state sets, and readable-from-somewhere means in
    the language for a factor-closed acceptor).
    """
    n = d.n_states
    # cols[a][q] is the a-successor of q; undefined moves and the sentinel
    # state n itself go to n
    cols = np.array(d.trans + ((n,) * len(d.alphabet),), dtype=np.intp).T
    cols[cols == -1] = n
    full = np.ones(n + 1, dtype=bool)
    full[n] = False
    sets, words = [full], [()]
    # the empty set is marked seen so that it is never added
    seen = {full.tobytes(), bytes(n + 1)}
    i = 0
    while i < len(sets):
        v = words[i]
        for a, prev in enumerate(sets[i][cols]):
            key = prev.tobytes()
            if key not in seen:
                if len(sets) >= cap:
                    raise CapExceeded(f"backward subset family passed {cap} sets")
                seen.add(key)
                sets.append(prev)
                words.append((a,) + v)
        i += 1
    masks = np.packbits(sets, axis=1, bitorder="little")
    return [(int.from_bytes(m.tobytes(), "little"), w)
            for m, w in zip(masks, words)]
