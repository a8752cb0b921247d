"""Subshifts of the integer line presented by labeled graphs.

A :class:`Shift` is built either from a finite set of forbidden words (a
subshift of finite type) or from an arbitrary labeled graph (a sofic
subshift).  A forbidden-word spec is presented by the non-terminal states
of the Aho-Corasick matcher of its forbidden words (Aho & Corasick,
"Efficient string matching", CACM 18(6), 1975), so a forbidden word of
length L costs at most L vertices, not a vertex per block of the window.
Construction eagerly builds two canonical objects: an essential
presentation, and the minimal acceptor of the block language from one
subset construction (Lind & Marcus, *Symbolic Dynamics and Coding*,
3.3-3.4); every query runs against these.  Everything else is derived and memoised on the instance on first use, see
:meth:`Memo.derived`: the essential part of the acceptor (the
past-determined presentation the map layer reads on every domain), the
period of the essential presentation when it is strongly connected, which
decides irreducibility and mixing without the acceptor, the acceptor's
successor table and condensation, whose sink component decides them
otherwise, the backward family, the irreducibility verdict, synchronized
cover, mixing report, gap certificate and spectral entropy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import dfa as _dfa
from .base import Alphabet, CellularAutomaton, Decision, Memo, Word
from .errors import AlphabetMismatch, EmptyShift
from .graph import LabeledGraph, essentialize, follower_reduce, path_graph


@dataclass(frozen=True)
class SftSpec:
    """Forbidden-word description of a subshift of finite type."""

    alphabet: Alphabet
    forbidden: tuple[Word, ...]

    def __post_init__(self):
        seen = set()
        canon = []
        for w in self.forbidden:
            w = self.alphabet.word(w)
            if len(w) == 0:
                raise ValueError("forbidden words must be nonempty")
            if w.letters not in seen:
                seen.add(w.letters)
                canon.append(w)
        canon.sort(key=lambda w: (len(w), w.ranks()))
        object.__setattr__(self, "forbidden", tuple(canon))


def _forbidden_matcher(bad: list[tuple[int, ...]], na: int
                       ) -> tuple[list[list[int]], list[bool]]:
    """Aho-Corasick automaton of the forbidden words: a total move table
    over the trie of their prefixes, and the terminal flags.  Its
    non-terminal part is the SFT's presentation (:meth:`Shift.from_forbidden`):
    at most one vertex per nonempty prefix of a forbidden word, plus the
    root.

    State s after reading a word stands for the longest suffix of that word
    which is a prefix of some forbidden word; s is terminal exactly when
    some forbidden word is a suffix of the word read.  The failure link of
    a trie node is the state of its longest proper suffix, and filling the
    missing moves through it, in breadth-first order, makes the table total
    (Aho & Corasick, CACM 18(6), 1975).
    """
    move = [[-1] * na]
    term = [False]
    for f in bad:
        s = 0
        for a in f:
            if move[s][a] == -1:
                move[s][a] = len(move)
                move.append([-1] * na)
                term.append(False)
            s = move[s][a]
        term[s] = True
    fail = [0] * len(move)
    queue: deque[int] = deque()
    for a, t in enumerate(move[0]):
        if t == -1:
            move[0][a] = 0
        else:
            queue.append(t)
    while queue:
        s = queue.popleft()
        f = move[fail[s]]
        term[s] = term[s] or term[fail[s]]
        row = move[s]
        for a, t in enumerate(row):
            if t == -1:
                row[a] = f[a]
            else:
                fail[t] = f[a]
                queue.append(t)
    return move, term


class Shift(Memo):
    """A subshift over the integers, canonicalized at construction.

    Attributes
    ----------
    alphabet : Alphabet
    kind : str
        ``"sft"`` when built from forbidden words (or a recoding of such),
        ``"sofic"`` when built from an arbitrary labeled graph.
    origin : SftSpec or LabeledGraph
        The description the shift was built from.
    essential : LabeledGraph
        Essential presentation, which the image of a map recodes.  Empty
        exactly when the shift is empty.
    acceptor : FactorialDfa
        Minimal acceptor of the block language, canonical form: minimized
        from the subset automaton of ``essential``, or, when ``essential``
        is right-resolving, of its follower reduction, so a reduced
        presentation maps to itself.  Both routes read the same language
        and minimization is canonical, so the acceptor does not depend on
        the route.  The empty shift's is the one-state acceptor of the
        empty word.

    ``essential`` and ``acceptor`` are built at construction; everything
    else, :attr:`deterministic` included, is derived and memoised on first
    use (:meth:`derived`).  Irreducibility and mixing read ``essential``
    first, when it is strongly connected and no larger than the acceptor;
    the other invariants read the acceptor's table directly, and only
    :attr:`deterministic` makes a graph of it.
    """

    __slots__ = ("alphabet", "kind", "origin", "essential", "acceptor",
                 "_derived")

    def __init__(self, origin, kind: str, essential: LabeledGraph):
        if kind not in ("sft", "sofic"):
            raise ValueError(f"bad kind {kind!r}")
        self.alphabet = essential.alphabet
        self.kind = kind
        self.origin = origin
        self.essential = g = essentialize(essential)[0]
        self._derived: dict = {}
        if g.is_right_resolving():
            # reduced first, so a reduced presentation maps to itself
            g = follower_reduce(g)[0]
        self.acceptor = _dfa.minimize(_dfa.determinize(g))

    @classmethod
    def from_forbidden(cls, alphabet: Alphabet, forbidden=()) -> "Shift":
        """SFT over ``alphabet`` avoiding every word in ``forbidden``.

        Presented by the non-terminal states of the forbidden words'
        matcher (:func:`_forbidden_matcher`), in its order, with an edge
        ``s -> move[s][a]`` labeled ``a`` whenever the target is not
        terminal: at most ``1 + sum(len(w))`` vertices, where the blocks of
        length ``window - 1`` number up to ``|A|^(window-1)``.  After
        ``window`` symbols the state depends only on the last ``window``,
        and is terminal exactly when a forbidden word ends there, so the
        bi-infinite paths read exactly the points with no forbidden factor
        (Lind & Marcus, 3.3-3.4).  The graph is right-resolving.
        """
        spec = SftSpec(alphabet, tuple(alphabet.word(w) for w in forbidden))
        move, term = _forbidden_matcher([w.ranks() for w in spec.forbidden],
                                        len(alphabet))
        keep = [s for s, t in enumerate(term) if not t]
        vid = {s: i for i, s in enumerate(keep)}
        edges = tuple((vid[s], vid[t], a) for s in keep
                      for a, t in enumerate(move[s]) if not term[t])
        return cls(spec, "sft", LabeledGraph(alphabet, len(keep), edges))

    @classmethod
    def from_graph(cls, g: LabeledGraph) -> "Shift":
        """Sofic shift presented by the labeled graph ``g``."""
        return cls(g, "sofic", g)

    @property
    def deterministic(self) -> LabeledGraph:
        """Essential part of the acceptor as a graph, memoised (empty for the
        empty shift): the presentation the pair graph reads on every
        domain.

        A right-resolving, follower-separated presentation whose paths are
        determined by the past: the acceptor reads the whole language from
        state 0, and the state reached by ever longer suffixes of a
        left-infinite past stabilises (follower sets only shrink), so each
        point is presented by a path whose vertex at j depends on
        x(-inf, j) alone.  Such paths are bi-infinite, so they stay in the
        essential part, which is closed under successors.  It can be larger
        than the follower reduction of an essential graph: the even shift's
        has a third state, reached by the past 1^inf, whose parity is open.
        """
        return self.derived("deterministic", lambda x: essentialize(
            _dfa.to_graph(x.acceptor))[0])

    @property
    def is_empty(self) -> bool:
        return self.essential.n_vertices == 0

    def word(self, letters) -> Word:
        return self.alphabet.word(letters)

    def contains_word(self, w) -> bool:
        """True iff ``w`` occurs in some point of the shift."""
        return self.acceptor.defined(self.alphabet.word(w).ranks())

    def blocks(self, n: int) -> set[Word]:
        """The set of length-``n`` words of the language (n = 0 gives the
        empty word alone, even for the empty shift)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return {self.alphabet.word_from_ranks(r)
                for r in _dfa.enumerate_ranks(self.acceptor, n)}

    def __repr__(self) -> str:
        return (f"Shift({self.kind} over {self.alphabet.compact}, "
                f"{self.essential.n_vertices} essential vertices)")


def equal_shifts(x: Shift, y: Shift) -> Decision:
    """Language equality, with a shortest distinguishing word on failure.

    Two routes are run and must agree: canonical minimal acceptors compared
    for identity, and a product-automaton search for a shortest word in the
    symmetric difference.  The witness carries a note naming the side that
    contains it.
    """
    if x.alphabet != y.alphabet:
        raise AlphabetMismatch(
            f"cannot compare shifts over {x.alphabet.compact} and {y.alphabet.compact}")
    diff = _dfa.shortest_difference(x.acceptor, y.acceptor)
    canon_equal = x.acceptor.trans == y.acceptor.trans
    if canon_equal != (diff is None):
        raise RuntimeError("canonical acceptor comparison and product search disagree")
    if diff is None:
        return Decision(True, None, "language")
    ranks, side = diff
    w = x.alphabet.word_from_ranks(ranks)
    return Decision(False, w, "language",
                    note=f"word occurs only in the {'first' if side == 1 else 'second'} shift")


def language_included(x: Shift, y: Shift) -> Decision:
    """Is every block of ``x`` a block of ``y``?  On failure the witness is
    a shortest word of ``x`` missing from ``y``."""
    if x.alphabet != y.alphabet:
        raise AlphabetMismatch(
            f"cannot compare shifts over {x.alphabet.compact} and {y.alphabet.compact}")
    missing = _dfa.shortest_missing(x.acceptor, y.acceptor)
    if missing is None:
        return Decision(True, None, "language")
    return Decision(False, x.alphabet.word_from_ranks(missing), "language",
                    note="occurs in the first shift only")


def higher_block(x: Shift, k: int) -> tuple[Shift, CellularAutomaton, CellularAutomaton]:
    """Recode by overlapping k-blocks.

    Returns ``(y, code, decode)`` where ``y`` is the shift over the alphabet
    of allowed k-blocks, ``code`` reads x-windows of length k (memory
    ``[0, k-1]``) onto block symbols, and ``decode`` is the one-symbol map
    back onto first letters.  On the recoded shift the two maps invert each
    other, so the recoding is a conjugacy.

    The code's rule table is total: windows that are not allowed blocks of
    ``x`` (which never occur in points of ``x``) map to block symbol 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if x.is_empty:
        raise EmptyShift("cannot recode the empty shift")
    pg, blocks = path_graph(x.essential, k)
    y = Shift(pg, x.kind, pg)
    brank = {b: i for i, b in enumerate(blocks)}

    def encode(win: tuple[str, ...]) -> str:
        r = tuple(x.alphabet.index(s) for s in win)
        return y.alphabet.symbols[brank.get(r, 0)]

    code = CellularAutomaton.from_rule(x.alphabet, y.alphabet, 0, k - 1, encode)
    decode = CellularAutomaton.from_rule(
        y.alphabet, x.alphabet, 0, 0,
        lambda t: x.alphabet.symbols[blocks[y.alphabet.index(t[0])][0]])
    return y, code, decode
