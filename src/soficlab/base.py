"""Core value types: alphabets, words, windows, decisions, cellular automata.

Everything here is immutable.  Words carry their alphabet so that mixing
objects from different alphabets fails loudly instead of silently reindexing.
Internally most algorithms work on integer symbol ranks; these classes are
the typed boundary around that; :func:`block_rank` fixes the rank order of
blocks that rule tables and recodings index by.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .errors import AlphabetMismatch, TableTooLarge, WordTooShort

_TABLE_CAP = 1 << 22  # max local-rule table entries


def table_size(n_symbols: int, width: int) -> int:
    """Entries of a local-rule table of ``width`` over ``n_symbols``
    symbols, ``n_symbols ** width``; TableTooLarge when they pass
    ``_TABLE_CAP``, found without computing a power larger than the cap."""
    n = n_symbols ** min(width, _TABLE_CAP.bit_length())
    if n > _TABLE_CAP:
        raise TableTooLarge(f"table needs {n_symbols}^{width} entries, "
                            f"cap is {_TABLE_CAP}")
    return n


def block_rank(ranks, base: int) -> int:
    """The base-``base`` rank of a block of symbol ranks, leftmost symbol
    most significant: the index of the block in a rule table."""
    r = 0
    for x in ranks:
        r = r * base + x
    return r


def block_digits(b: int, base: int, k: int) -> tuple[int, ...]:
    """The k symbol ranks of the block of base-``base`` rank ``b``: the
    inverse of :func:`block_rank`."""
    return tuple(b // base ** i % base for i in reversed(range(k)))


@dataclass(frozen=True)
class Alphabet:
    """A finite ordered alphabet of symbol names.

    Parameters
    ----------
    symbols : tuple of str
        Distinct nonempty names without whitespace.  Order fixes the
        integer rank of each symbol, which file formats and rule tables
        rely on.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.symbols, tuple):
            object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(self.symbols) == 0:
            raise ValueError("alphabet must be nonempty")
        pos: dict[str, int] = {}
        for i, s in enumerate(self.symbols):
            if not isinstance(s, str) or not s or any(c.isspace() for c in s):
                raise ValueError(f"bad symbol {s!r}")
            if s in pos:
                raise ValueError(f"duplicate symbol {s!r}")
            pos[s] = i
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_single", all(len(s) == 1 for s in self.symbols))

    @classmethod
    def parse(cls, text: str) -> "Alphabet":
        """Build from a whitespace-separated list, e.g. ``"0 1"``."""
        return cls(tuple(text.split()))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __contains__(self, sym: object) -> bool:
        return sym in self._pos  # type: ignore[attr-defined]

    def index(self, sym: str) -> int:
        try:
            return self._pos[sym]  # type: ignore[attr-defined]
        except KeyError:
            raise AlphabetMismatch(f"symbol {sym!r} not in alphabet {self.compact}") from None

    @property
    def compact(self) -> str:
        """Short display form, e.g. ``{0,1}``."""
        return "{" + ",".join(self.symbols) + "}"

    def word(self, letters) -> "Word":
        """Coerce ``letters`` to a :class:`Word` over this alphabet.

        Accepts a Word (checked), an iterable of symbol names, or a string.
        A string with whitespace is split into tokens; otherwise, when all
        symbols are single characters, it is read character by character.
        """
        if isinstance(letters, Word):
            if letters.alphabet != self:
                raise AlphabetMismatch(
                    f"word over {letters.alphabet.compact} used with {self.compact}")
            return letters
        if isinstance(letters, str):
            if letters == "":
                parts: tuple[str, ...] = ()
            elif any(c.isspace() for c in letters):
                parts = tuple(letters.split())
            elif self._single:  # type: ignore[attr-defined]
                parts = tuple(letters)
            else:
                parts = (letters,)
        else:
            parts = tuple(letters)
        for s in parts:
            self.index(s)
        return Word(self, parts)

    def word_from_ranks(self, ranks) -> "Word":
        return Word(self, tuple(self.symbols[r] for r in ranks))

    def __repr__(self) -> str:
        return f"Alphabet({self.compact})"


@dataclass(frozen=True)
class Word:
    """A finite word over a fixed alphabet.

    Supports ``len``, indexing (an int gives the symbol name, a slice gives
    a sub-Word), iteration over symbol names, and ``+`` for concatenation.
    """

    alphabet: Alphabet
    letters: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.letters, tuple):
            object.__setattr__(self, "letters", tuple(self.letters))

    @property
    def text(self) -> str:
        """Render without separators when symbols are single characters."""
        if self.alphabet._single:  # type: ignore[attr-defined]
            return "".join(self.letters)
        return " ".join(self.letters)

    def ranks(self) -> tuple[int, ...]:
        return tuple(self.alphabet.index(s) for s in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.alphabet, self.letters[i])
        return self.letters[i]

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if other.alphabet != self.alphabet:
            raise AlphabetMismatch(
                f"cannot concatenate over {self.alphabet.compact} and {other.alphabet.compact}")
        return Word(self.alphabet, self.letters + other.letters)

    def __mul__(self, n: int) -> "Word":
        return Word(self.alphabet, self.letters * n)

    def __repr__(self) -> str:
        return f"Word({self.text!r})"


@dataclass(frozen=True)
class ConfigurationWindow:
    """A word pinned to absolute coordinates: the restriction of a
    configuration to the interval ``[start, start + len(word))``."""

    start: int
    word: Word

    @property
    def stop(self) -> int:
        return self.start + len(self.word)

    def __len__(self) -> int:
        return len(self.word)

    def __repr__(self) -> str:
        return f"ConfigurationWindow([{self.start},{self.stop}), {self.word.text!r})"


class Memo:
    """Mixin memoising derived results on an immutable object, in the
    ``_derived`` dict the subclass provides.  ``derived(key, compute)``
    computes ``compute(self)`` on the first call under ``key`` and shares it
    with every later call (callers must not mutate it); an exception caches
    nothing.  A shift keys its invariants by name; a rule keys what it
    derives on a domain by ``(name, domain)``, so it is freed with the rule."""

    __slots__ = ()

    def derived(self, key, compute):
        memo = self._derived
        if key not in memo:
            memo[key] = compute(self)
        return memo[key]


@dataclass(frozen=True)
class Decision:
    """Outcome of a decision procedure, with evidence.

    Attributes
    ----------
    verdict : bool or None
        None means the procedure could not decide within its caps.
    witness : object
        Structure backing the verdict (word, window pair, certificate, ...);
        None when the verdict needs no witness.
    scope : str
        What the witness certifies: ``"point"`` (about actual
        configurations) or ``"language"`` (about the block language).
    note : str
        Free-text qualifier, empty when unremarkable.
    """

    verdict: bool | None
    witness: Any = None
    scope: str = "point"
    note: str = ""

    def __post_init__(self):
        if self.scope not in ("point", "language"):
            raise ValueError(f"bad scope {self.scope!r}")


@dataclass(frozen=True)
class CellularAutomaton(Memo):
    """A sliding-window map given by an explicit local-rule table.

    The output at position ``i`` is ``rule(x[i+mem_left], ..., x[i+mem_right])``.
    The table lists the output symbol for every window over the source
    alphabet, indexed by the mixed-radix rank of the window (leftmost symbol
    most significant).

    Parameters
    ----------
    source, target : Alphabet
        Input and output alphabets; equal for endomorphism questions.
    mem_left, mem_right : int
        Inclusive memory offsets, ``mem_left <= mem_right``.
    table : tuple of str
        ``len(source) ** width`` output symbols, ``width = mem_right - mem_left + 1``.

    Analyses on a domain are memoised on the rule (see ``soficlab.ca``).
    """

    source: Alphabet
    target: Alphabet
    mem_left: int
    mem_right: int
    table: tuple[str, ...]
    _derived: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)

    def __post_init__(self):
        if self.mem_left > self.mem_right:
            raise ValueError("mem_left must be <= mem_right")
        if not isinstance(self.table, tuple):
            object.__setattr__(self, "table", tuple(self.table))
        n = table_size(len(self.source), self.width)
        if len(self.table) != n:
            raise ValueError(f"table has {len(self.table)} entries, expected {n}")
        for s in self.table:
            self.target.index(s)

    @property
    def width(self) -> int:
        return self.mem_right - self.mem_left + 1

    @classmethod
    def from_rule(cls, source: Alphabet, target: Alphabet, mem_left: int,
                  mem_right: int, fn: Callable[[tuple[str, ...]], str]) -> "CellularAutomaton":
        """Tabulate a callable ``fn(window_symbols) -> output_symbol``."""
        width = mem_right - mem_left + 1
        if width < 1:
            raise ValueError("mem_left must be <= mem_right")
        table_size(len(source), width)
        table = tuple(fn(w) for w in itertools.product(source.symbols, repeat=width))
        return cls(source, target, mem_left, mem_right, table)

    def apply(self, word) -> Word:
        """Slide the rule across a word; output has length ``len - width + 1``.

        The result is the sequence of rule outputs on consecutive windows,
        with no coordinate shift applied.  Raises WordTooShort when no full
        window fits.
        """
        ranks = self.source.word(word).ranks()
        k = self.width
        if len(ranks) < k:
            raise WordTooShort(
                f"word of length {len(ranks)} is shorter than the rule width {k}")
        na = len(self.source)
        out = tuple(self.table[block_rank(ranks[i:i + k], na)]
                    for i in range(len(ranks) - k + 1))
        return Word(self.target, out)

    def __repr__(self) -> str:
        return (f"CellularAutomaton({self.source.compact}->{self.target.compact}, "
                f"memory [{self.mem_left},{self.mem_right}])")
