"""Partial deterministic acceptors for factorial languages.

A :class:`FactorialDfa` is a deterministic automaton in which every state
accepts and transitions may be undefined: the language is the set of words
whose run from state 0 is fully defined.  Languages of interest here are
factorial (factor-closed) and extendable, which the constructors guarantee;
the class itself only enforces shape and reachability.

All words at this layer are tuples of symbol ranks.  The typed Word wrappers
live one level up.

A set of states (or of graph vertices) is an int bitmask, and every subset
search here (the subset construction, the least word a graph reads and an
acceptor does not, the shortest synchronizing word) moves such a mask by
one symbol with the one step :func:`_subset_step`.  The caps on the
searches that can blow up are module constants, read at call time.
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
        q = start
        for a in ranks:
            q = self.trans[q][a]
            if q == -1:
                return -1
        return q

    def defined(self, ranks, start: int = 0) -> bool:
        return self.state_after(ranks, start) != -1

    def __repr__(self) -> str:
        return f"FactorialDfa({self.n_states} states over {self.alphabet.compact})"


def _graph_cols(g: LabeledGraph) -> list[list[int]]:
    """``cols[a][v]``: the mask of the a-successors of v in ``g``."""
    cols = [[0] * g.n_vertices for _ in g.alphabet.symbols]
    for s, d, a in g.edges:
        cols[a][s] |= 1 << d
    return cols


def _subset_step(cols: list[list[int]], s: int) -> list[int]:
    """The step of every subset search: per symbol rank a, the mask of the
    a-successors of the states in the mask s, 0 when none has one.
    ``cols[a][v]`` is the mask of v's a-successors."""
    members = []
    while s:
        lsb = s & -s
        members.append(lsb.bit_length() - 1)
        s ^= lsb
    out = []
    for col in cols:
        nxt = 0
        for v in members:
            nxt |= col[v]
        out.append(nxt)
    return out


def determinize(g: LabeledGraph) -> FactorialDfa:
    """Subset construction from the set of all vertices of ``g``.

    For an essential graph this accepts exactly the finite label words of
    paths, i.e. the language of the presented subshift.  An empty graph
    yields the one-state acceptor of the empty-word-only language.  Vertex
    sets are bitmasks moved by :func:`_subset_step`; StateBlowup when the
    sets pass ``_STATE_CAP``.
    """
    na = len(g.alphabet)
    if g.n_vertices == 0:
        return FactorialDfa(g.alphabet, ((-1,) * na,))
    cols = _graph_cols(g)
    start = (1 << g.n_vertices) - 1
    ids: dict[int, int] = {start: 0}
    order = [start]
    rows: list[list[int]] = []
    for cur in order:
        row = [-1] * na
        for a, nxt in enumerate(_subset_step(cols, cur)):
            if nxt:
                if nxt not in ids:
                    if len(ids) >= _STATE_CAP:
                        raise StateBlowup(
                            f"subset construction passed {_STATE_CAP} states")
                    ids[nxt] = len(order)
                    order.append(nxt)
                row[a] = ids[nxt]
        rows.append(row)
    return FactorialDfa(g.alphabet, tuple(map(tuple, rows)))


def minimize(d: FactorialDfa) -> FactorialDfa:
    """Language-preserving minimization with a canonical state order.

    Moore refinement from the single all-accepting class, then breadth-first
    renumbering from the start state in symbol-rank order.  Two acceptors
    have equal languages iff their minimized forms are identical.
    """
    cls, nc = refine_classes(d.trans)
    # quotient transitions (well defined at the fixpoint)
    qtrans: list = [None] * nc
    for q, row in enumerate(d.trans):
        qtrans[cls[q]] = [cls[t] if t != -1 else -1 for t in row]
    # canonical numbering: BFS from the start class
    new_of_old = {c: i for i, c in enumerate(shortest_words(qtrans, cls[0]))}
    rows = tuple(tuple(new_of_old[t] if t != -1 else -1 for t in qtrans[c])
                 for c in new_of_old)
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


def enumerate_ranks(d: FactorialDfa, length: int) -> Iterator[tuple[int, ...]]:
    """All length-``length`` words of the language, lexicographic."""
    level = [((), 0)]
    for _ in range(length):
        level = [(w + (a,), t) for w, q in level
                 for a, t in enumerate(d.trans[q]) if t != -1]
    return (w for w, _ in level)


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
    acceptor built: a breadth-first search over (vertex set, state) pairs
    from (all vertices, 0), the subset construction of ``g`` run only as
    far as that word, with vertex sets as bitmasks moved by
    :func:`_subset_step`.  It runs only for a witness: a verdict alone
    needs no subsets (``ca.maps_into``)."""
    cols = _graph_cols(g)
    # an empty set of successors is a move g cannot make
    return _least_missing((1 << g.n_vertices) - 1,
                          lambda vs: [m or -1 for m in _subset_step(cols, vs)],
                          d)


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


def shortest_sync(trans, states) -> tuple[tuple[int, ...], int] | None:
    """Shortest word collapsing ``states`` to a single state under the
    partial table ``trans``, whose rows give the symbol count.

    Among equally short collapsing words the lexicographically greatest is
    returned, so the choice is deterministic.  Words whose image is empty
    are not collapsing (they are unreadable from every state).  Returns
    (word_ranks, final_state) or None when no collapsing word exists.
    The search is breadth first over state masks, each moved by
    :func:`_subset_step` and its symbols tried from the greatest down.
    """
    start = sum(1 << q for q in set(states))
    if not start:
        return None
    if not start & (start - 1):
        return (), start.bit_length() - 1
    cols = [[1 << t if t != -1 else 0 for t in col] for col in zip(*trans)]
    seen = {start}
    queue: deque[tuple[int, tuple[int, ...]]] = deque([(start, ())])
    while queue:
        cur, w = queue.popleft()
        succ = _subset_step(cols, cur)
        for a in range(len(succ) - 1, -1, -1):
            nxt = succ[a]
            if not nxt or nxt in seen:
                continue
            nw = w + (a,)
            if not nxt & (nxt - 1):
                return nw, nxt.bit_length() - 1
            seen.add(nxt)
            queue.append((nxt, nw))
    return None


def preimage_cols(d: FactorialDfa) -> np.ndarray:
    """``cols[a][q]``: the a-successor of state q, where undefined moves
    and the sentinel state n itself go to n.  For a set of states held as
    a bool array with a trailing sentinel slot (always False), ``cur[col_a]``
    is the a-preimage of ``cur``."""
    n = d.n_states
    cols = np.array(d.trans + ((n,) * len(d.alphabet),), dtype=np.intp).T
    cols[cols == -1] = n
    return cols


def backward_subsets(d: FactorialDfa) -> list[tuple[int, tuple[int, ...]]]:
    """All sets of the form {q : word readable from q}, as bitmasks over
    the states, with a shortest representative word for each.

    Starts from the full state set (the empty word) and closes under
    per-symbol preimage, breadth first: the set for a word a·v is the
    a-preimage of the set for v, read through :func:`preimage_cols`.  Every
    set in the family is nonempty and its representative word is in the
    language (the family's sets are exactly the readable words' state
    sets, and readable-from-somewhere means in the language for a
    factor-closed acceptor).  CapExceeded when the family passes
    ``_STATE_CAP`` sets.
    """
    n = d.n_states
    cols = preimage_cols(d)
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
                if len(sets) >= _STATE_CAP:
                    raise CapExceeded(
                        f"backward subset family passed {_STATE_CAP} sets")
                seen.add(key)
                sets.append(prev)
                words.append((a,) + v)
        i += 1
    masks = np.packbits(sets, axis=1, bitorder="little")
    return [(int.from_bytes(m.tobytes(), "little"), w)
            for m, w in zip(masks, words)]
