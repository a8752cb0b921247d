"""Line-oriented text formats for shifts and block maps.

Shift files::

    alphabet: 0 1
    forbidden:
    11

or, for a labeled-graph presentation::

    alphabet: 0 1
    graph:
    edge 0 0 0
    edge 0 1 1
    edge 1 0 1

Block-map files::

    memory: 0 1
    rule 00 0
    rule 01 1
    rule 10 1
    rule 11 0

Comments run from ``#`` to end of line.  Unknown directives, missing
headers, and partial rule tables are rejected with the line number.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import (Alphabet, CellularAutomaton, block_digits, block_rank,
                   table_size)
from .errors import AlphabetMismatch, ParseError
from .graph import LabeledGraph
from .shift import Shift


def _lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def parse_shift_text(text: str, name: str = "<text>") -> Shift:
    alphabet: Alphabet | None = None
    mode: str | None = None
    forbidden: list = []
    edges: list[tuple[int, int, int]] = []
    for lineno, line in _lines(text):
        if line.startswith("alphabet:"):
            if alphabet is not None:
                raise ParseError(f"{name}: duplicate alphabet line", lineno)
            syms = line[len("alphabet:"):].split()
            if not syms:
                raise ParseError(f"{name}: empty alphabet", lineno)
            try:
                alphabet = Alphabet(tuple(syms))
            except ValueError as exc:  # a repeated symbol
                raise ParseError(f"{name}: {exc}", lineno) from None
            continue
        if alphabet is None:
            raise ParseError(f"{name}: expected an alphabet line first", lineno)
        if line == "forbidden:" or line == "graph:":
            if mode is not None:
                raise ParseError(f"{name}: duplicate section directive", lineno)
            mode = line[:-1]
            continue
        if mode is None:
            raise ParseError(
                f"{name}: expected 'forbidden:' or 'graph:', got {line!r}",
                lineno)
        if mode == "forbidden":
            try:
                w = alphabet.word(line)
            except AlphabetMismatch as exc:
                raise ParseError(f"{name}: {exc}", lineno) from None
            if len(w) == 0:
                raise ParseError(f"{name}: empty forbidden word", lineno)
            forbidden.append(w)
        else:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "edge":
                raise ParseError(
                    f"{name}: expected 'edge <src> <dst> <label>'", lineno)
            try:
                s, d = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"{name}: bad vertex id", lineno) from None
            if s < 0 or d < 0:
                raise ParseError(f"{name}: negative vertex id", lineno)
            try:
                a = alphabet.index(parts[3])
            except AlphabetMismatch as exc:
                raise ParseError(f"{name}: {exc}", lineno) from None
            edges.append((s, d, a))
    if alphabet is None:
        raise ParseError(f"{name}: missing alphabet line")
    if mode is None:
        raise ParseError(f"{name}: missing 'forbidden:' or 'graph:' section")
    if mode == "forbidden":
        return Shift.from_forbidden(alphabet, tuple(forbidden))
    # the ids that occur, numbered densely in sorted order (the identity
    # when they are 0..n-1), so one large id costs no more than a small one
    ids = {v: i for i, v in enumerate(sorted(
        {v for s, d, _ in edges for v in (s, d)}))}
    return Shift.from_graph(LabeledGraph(alphabet, len(ids), tuple(
        (ids[s], ids[d], a) for s, d, a in edges)))


def _read(path) -> str:
    """The UTF-8 text of the file at ``path``; ParseError, naming it, when
    it cannot be read (a directory, say, or bytes that are not UTF-8)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(
            f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from None


def parse_shift_file(path) -> Shift:
    return parse_shift_text(_read(path), name=str(path))


@dataclass(frozen=True)
class RawCa:
    """A block-map file before alphabets are known: the memory interval and
    the rule lines as written.  Bind against a concrete alphabet with
    :func:`bind_ca`."""

    mem_left: int
    mem_right: int
    rules: tuple[tuple[int, str, str], ...]  # (lineno, input text, output)
    name: str = "<text>"


def parse_ca_text(text: str, name: str = "<text>") -> RawCa:
    memory: tuple[int, int] | None = None
    rules: list[tuple[int, str, str]] = []
    for lineno, line in _lines(text):
        if line.startswith("memory:"):
            if memory is not None:
                raise ParseError(f"{name}: duplicate memory line", lineno)
            parts = line[len("memory:"):].split()
            if len(parts) != 2:
                raise ParseError(f"{name}: expected 'memory: <l> <r>'", lineno)
            try:
                l, r = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"{name}: bad memory bound", lineno) from None
            if r < l:
                raise ParseError(f"{name}: empty memory interval", lineno)
            memory = (l, r)
            continue
        parts = line.split()
        if parts[0] != "rule":
            raise ParseError(f"{name}: unknown directive {parts[0]!r}", lineno)
        if memory is None:
            raise ParseError(f"{name}: rule before memory line", lineno)
        if len(parts) != 3:
            raise ParseError(
                f"{name}: expected 'rule <input> <output>'", lineno)
        rules.append((lineno, parts[1], parts[2]))
    if memory is None:
        raise ParseError(f"{name}: missing memory line")
    return RawCa(memory[0], memory[1], tuple(rules), name)


def parse_ca_file(path) -> RawCa:
    return parse_ca_text(_read(path), name=str(path))


def bind_ca(raw: RawCa, source: Alphabet,
            target: Alphabet | None = None) -> CellularAutomaton:
    """Resolve a parsed block map over concrete alphabets.

    The table must cover every source word of the rule width exactly once;
    duplicates and gaps are reported with the offending line.  A width
    whose table passes the cap raises TableTooLarge before any line is
    read.
    """
    if target is None:
        target = source
    width = raw.mem_right - raw.mem_left + 1
    table: list[str | None] = [None] * table_size(len(source), width)
    for lineno, intext, outtext in raw.rules:
        try:
            w = source.word(intext)
            target.index(outtext)
        except AlphabetMismatch as exc:
            raise ParseError(f"{raw.name}: {exc}", lineno) from None
        if len(w) != width:
            raise ParseError(
                f"{raw.name}: rule input {intext!r} is not of length {width}",
                lineno)
        idx = block_rank(w.ranks(), len(source))
        if table[idx] is not None:
            raise ParseError(
                f"{raw.name}: duplicate rule for {intext!r}", lineno)
        table[idx] = outtext
    if None in table:
        word = "".join(source.symbols[r] for r in
                       block_digits(table.index(None), len(source), width))
        raise ParseError(f"{raw.name}: rule table is partial, first missing "
                         f"input {word!r}")
    return CellularAutomaton(source, target, raw.mem_left, raw.mem_right,
                             tuple(table))
