"""Command-line front end.

Human-readable lines and stable machine-readable lines (prefixed ``#:``)
are interleaved in one stream.  Exit codes: 0 = analysis ran, 1 = input or
configuration error, 2 = a verified contradiction of a certified
implication (which indicates an implementation bug).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .base import CellularAutomaton
from .bundled import bundled_raw_ca, bundled_shift
from .corpus import (classify, flag, instance_lines, run_bundled_examples,
                     run_corpus)
from .entropy import TOL_MIN, block_counts, entropy_blocks, entropy_spectral
from .errors import (CapExceeded, EmptyShift, NotEndomorphism, NotMixing,
                     ParseError, SoficlabError)
from .props import (is_irreducible, is_mixing, is_strongly_irreducible,
                    minimal_gap)
from .shift import Shift
from .shiftio import bind_ca, parse_ca_file, parse_shift_file
from .tiling import pattern_exclusion_bound, tiling_Z, tiling_density


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for contradictions
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _bounded(kind, low, strict: bool = False):
    """argparse type: a ``kind`` number at least ``low`` (above it when
    ``strict``), so a bad value is a usage error, not a traceback."""
    def parse(text: str):
        v = kind(text)
        if not (v > low if strict else v >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}")
        return v
    parse.__name__ = kind.__name__  # argparse: "invalid int value: 'x'"
    return parse


_TOL = _bounded(float, TOL_MIN)


def _interval(text: str) -> tuple[int, int]:
    """argparse type: a nonempty memory interval ``L..R`` (L <= R)."""
    try:
        l, r = map(int, text.split(".."))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad memory interval {text!r}, expected like 0..2") from None
    if l > r:
        raise argparse.ArgumentTypeError(
            f"bad memory interval {text!r}, {l} > {r}")
    return l, r


def _load_shift(token: str) -> Shift:
    if os.path.exists(token):
        return parse_shift_file(token)
    name = token[:-len(".shift")] if token.endswith(".shift") else token
    try:
        return bundled_shift(name)
    except FileNotFoundError:
        raise ParseError(f"no such file or bundled shift: {token}") from None


def _load_ca(token: str, x: Shift) -> CellularAutomaton:
    if os.path.exists(token):
        return bind_ca(parse_ca_file(token), x.alphabet)
    name = token[:-len(".ca")] if token.endswith(".ca") else token
    try:
        raw = bundled_raw_ca(name)
    except FileNotFoundError:
        raise ParseError(f"no such file or bundled rule: {token}") from None
    return bind_ca(raw, x.alphabet)


def _yn(v: bool | None) -> str:
    return "undecided" if v is None else ("yes" if v else "no")


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _count_table(x: Shift, n_max: int, header: str) -> None:
    """Exact block counts of lengths 1..n_max with log(count)/n."""
    counts = block_counts(x, n_max)
    print(header)
    for n in range(1, n_max + 1):
        print(f"{n}\t{counts[n]}\t{_fmt(math.log(counts[n]) / n)}")


def _contradiction_lines(contradictions) -> int:
    """Print each contradiction as a prose line and a ``#:`` line; return
    exit code 2 if there is any, else 0."""
    for c in contradictions:
        print(f"CONTRADICTION: {c}")
        print(f"#: contradiction {c}")
    return 2 if contradictions else 0


def _entropy_lines(x: Shift, tol: float, n_max: int) -> int:
    sp = entropy_spectral(x, tol)
    bl = entropy_blocks(x, n_max)
    bits = sp.value / math.log(2)
    print(f"entropy (spectral): {_fmt(sp.value)} nats ({_fmt(bits)} bits), "
          f"error bound {sp.error_bound:.3g}")
    print(f"entropy (block counts to n={n_max}): {_fmt(bl.value)} nats, "
          f"error bound {bl.error_bound:.3g}")
    print(f"#: entropy_spectral {_fmt(sp.value)} {sp.error_bound:.6g}")
    print(f"#: entropy_blocks {_fmt(bl.value)} {bl.error_bound:.6g}")
    return 0


def cmd_shift_analyze(args) -> int:
    x = _load_shift(args.shift)
    print(f"shift: {args.shift} over {x.alphabet.compact}, kind {x.kind}")
    if x.is_empty:
        print("the shift is empty")
        print("#: empty 1")
        return 0
    irr = is_irreducible(x)
    print(f"irreducible: {_yn(irr.verdict)}"
          + ("" if irr.verdict else
             f"  (no connecting word for u={irr.witness[0].text!r},"
             f" v={irr.witness[1].text!r})"))
    print(f"#: irreducible {flag(irr.verdict)}")
    mix = is_mixing(x)
    print(f"mixing: {_yn(mix.mixing)} (cycle gcd {mix.cycle_gcd})"
          + (f"  [{mix.note}]" if mix.note else ""))
    print(f"#: mixing {flag(mix.mixing)}")
    si = is_strongly_irreducible(x)
    print(f"strongly irreducible: {_yn(si.verdict)}")
    print(f"#: si {flag(si.verdict)}")
    if si.verdict:
        cert = si.witness
        human = ", ".join(f"{k}={v}" for k, v in cert.to_kv())
        print(f"gap certificate: {human}")
        for k, v in cert.to_kv():
            print(f"#: cert_{k} {v}")
    if args.minimal_gap is not None:
        try:
            g = minimal_gap(x, search_cap=args.minimal_gap)
            print(f"minimal gap: {g}")
            print(f"#: minimal_gap {g}")
        except NotMixing as exc:
            print(f"minimal gap: none (not mixing: {exc})")
        except CapExceeded as exc:
            print(f"minimal gap: undecided within cap ({exc})")
    _entropy_lines(x, args.tol, args.n_max)
    if args.table:
        _count_table(x, args.table, "n\tcount\tlog_count_over_n")
    return 0


def cmd_shift_entropy(args) -> int:
    x = _load_shift(args.shift)
    if x.is_empty:
        print("the shift is empty")
        print("#: empty 1")
        return 0
    _count_table(x, args.n_max, "n\t|X_n|\tlog|X_n|/n")
    return _entropy_lines(x, args.tol, args.n_max)


def cmd_ca_analyze(args) -> int:
    x = _load_shift(args.shift)
    t = _load_ca(args.ca, x)
    print(f"rule: {args.ca} with memory [{t.mem_left}, {t.mem_right}] "
          f"on {args.shift}")
    c = classify(t, x, f"{args.ca} on {args.shift}", args.tol)
    my, inj, ent = c.myhill, c.injective, c.entropy
    pre, sur = my.pre_injective, my.surjective
    print(f"pre-injective: {_yn(pre.verdict)} (scope {pre.scope})"
          + (f"  [{pre.note}]" if pre.note else ""))
    if pre.verdict is False:
        w = pre.witness
        print(f"  diamond: {w.first.word.text!r} vs {w.second.word.text!r} "
              f"-> image {w.image.text!r}")
    print(f"#: pre_injective {flag(pre.verdict)} {pre.scope}")
    print(f"injective: {_yn(inj.verdict)}")
    if inj.verdict is False:
        w = inj.witness
        print(f"  point pair: {w.first.text!r} vs {w.second.text!r} "
              f"(left period {w.left_period}, right period {w.right_period})"
              f" -> image {w.image.text!r}")
    print(f"#: injective {flag(inj.verdict)}")
    print(f"surjective: {_yn(sur.verdict)}")
    if sur.verdict is False:
        print(f"  Garden of Eden word: {sur.witness.text!r}")
        print(f"#: garden_of_eden {sur.witness.text}")
    print(f"#: surjective {flag(sur.verdict)}")
    print(f"strongly irreducible domain: {_yn(my.si.verdict)}")
    print(f"#: si {flag(my.si.verdict)}")
    print(f"entropy: domain {_fmt(ent.h_domain.value)}, "
          f"image {_fmt(ent.h_image.value)} nats; "
          f"image <= domain: {_yn(ent.leq_holds)}")
    if ent.equality_asserted:
        print(f"entropy preserved (asserted): {_yn(ent.equality_holds)}")
    print(f"#: h_domain {_fmt(ent.h_domain.value)}")
    print(f"#: h_image {_fmt(ent.h_image.value)}")
    code = _contradiction_lines(c.contradictions)
    print(f"consistent with the certified implications: {_yn(not code)}")
    print(f"#: consistent {flag(not code)}")
    return code


def cmd_corpus(args) -> int:
    code = 0
    if args.paper_examples:
        for o in run_bundled_examples():
            my, ent = o.myhill, o.entropy
            print(f"{o.label}: si {_yn(my.si.verdict)}, "
                  f"pre-injective {_yn(my.pre_injective.verdict)}, "
                  f"surjective {_yn(my.surjective.verdict)}, "
                  f"h {_fmt(ent.h_domain.value)} -> {_fmt(ent.h_image.value)}"
                  + (f", image SI {_yn(o.image_si)}"
                     if o.image_si is not None else ""))
            print(f"#: example {o.label.replace(' ', '_')} "
                  f"{flag(my.si.verdict)} {flag(my.pre_injective.verdict)} "
                  f"{flag(my.surjective.verdict)}")
            code = max(code, _contradiction_lines(o.contradictions))
        if not args.shift:
            return code
    shifts = args.shift or []
    if not shifts and not args.paper_examples:
        print("error: give --shift at least once or --paper-examples",
              file=sys.stderr)
        return 1
    for token in shifts:
        x = _load_shift(token)
        rep = run_corpus(x, args.count, args.seed, args.memory,
                         shift_name=token)
        print(f"shift {token}: {len(rep.instances)} endomorphisms out of "
              f"{rep.requested} seeds (skipped {rep.skipped}), "
              f"si {_yn(rep.si)}, h {_fmt(rep.h_domain)}")
        print("#: columns seed, preinj, inj, surj, si, entropy_x, "
              "entropy_image")
        for line in instance_lines(rep):
            print(f"#: {line}")
        code = max(code, _contradiction_lines(rep.contradictions))
        print(f"#: summary shift={token} kept={len(rep.instances)} "
              f"skipped={rep.skipped} contradictions="
              f"{len(rep.contradictions)}")
    return code


def cmd_tiling_check(args) -> int:
    d = tiling_density(tiling_Z(args.k), args.n)
    print(f"stride-{args.k} tiling of the integers: tile [0,{args.k}), "
          f"checked exactly on a window of {20 * args.k} cells")
    print(f"window [0,{args.n}): {d.count} full tiles, density {d.ratio} "
          f"(>= 1/(2k): {_yn(d.alpha_ok)})")
    print(f"#: tiling k {args.k} n {args.n} count {d.count} "
          f"ratio {d.ratio} alpha_ok {flag(d.alpha_ok)}")
    return 0


def cmd_lemma41_check(args) -> int:
    x = _load_shift(args.shift)
    pattern = x.word(args.pattern) if args.pattern else None
    rep = pattern_exclusion_bound(x, args.d, args.n, pattern)
    print(f"pattern exclusion on {args.shift}: forbid {rep.pattern.text!r} "
          f"on each of {len(rep.tiles)} tiles of stride {rep.stride} "
          f"in [0,{args.n})")
    print(f"avoiding words: {rep.q_count} of {rep.total_count}; "
          f"bound factor (1 - 1/{rep.rho})^{len(rep.tiles)}")
    print(f"inequality holds: {_yn(rep.holds)}; per-window entropy gap "
          f"{_fmt(rep.per_window_gap)}")
    print(f"#: lemma41 d {rep.d} stride {rep.stride} tiles {len(rep.tiles)} "
          f"q {rep.q_count} total {rep.total_count} holds {flag(rep.holds)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="soficlab",
                description="decision procedures for shifts on the integer "
                            "line and their block maps")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ps = sub.add_parser("shift", help="analyze a shift file")
    subs = ps.add_subparsers(dest="subcommand", required=True,
                             parser_class=_Parser)
    pa = subs.add_parser("analyze", help="verdicts, certificate, entropy")
    pa.add_argument("shift", help="path to a .shift file, or a bundled name")
    pa.add_argument("--minimal-gap", type=_bounded(int, 0), default=None,
                    metavar="CAP",
                    help="also compute the exact least uniform gap, "
                         "searching up to CAP")
    pa.add_argument("--table", type=_bounded(int, 0), default=0, metavar="N",
                    help="print block counts up to length N")
    pa.add_argument("--n-max", type=_bounded(int, 2), default=30)
    pa.add_argument("--tol", type=_TOL, default=1e-9)
    pa.set_defaults(func=cmd_shift_analyze)
    pe = subs.add_parser("entropy", help="block-count table and both "
                                         "entropy estimates")
    pe.add_argument("shift")
    pe.add_argument("--n-max", type=_bounded(int, 2), default=20)
    pe.add_argument("--tol", type=_TOL, default=1e-9)
    pe.set_defaults(func=cmd_shift_entropy)

    pc = sub.add_parser("ca", help="analyze a block map on a shift")
    subc = pc.add_subparsers(dest="subcommand", required=True,
                             parser_class=_Parser)
    pca = subc.add_parser("analyze")
    pca.add_argument("shift")
    pca.add_argument("ca")
    pca.add_argument("--tol", type=_TOL, default=1e-9)
    pca.set_defaults(func=cmd_ca_analyze)

    pk = sub.add_parser("corpus", help="seeded random endomorphism suites")
    pk.add_argument("--shift", action="append", default=None,
                    help="shift file or bundled name; repeatable")
    pk.add_argument("--count", type=_bounded(int, 0), default=50)
    pk.add_argument("--seed", type=int, default=0)
    pk.add_argument("--memory", type=_interval, default="0..1",
                    metavar="L..R")
    pk.add_argument("--paper-examples", action="store_true",
                    help="run the bundled example shifts and rules "
                         "end to end")
    pk.set_defaults(func=cmd_corpus)

    pt = sub.add_parser("tiling", help="interval tilings of the integers")
    subt = pt.add_subparsers(dest="subcommand", required=True,
                             parser_class=_Parser)
    ptc = subt.add_parser("check")
    ptc.add_argument("--k", type=_bounded(int, 1), default=3)
    ptc.add_argument("--n", type=_bounded(int, 0), default=30)
    ptc.set_defaults(func=cmd_tiling_check)

    pl = sub.add_parser("lemma41", help="pattern-exclusion counting bound")
    subl = pl.add_subparsers(dest="subcommand", required=True,
                             parser_class=_Parser)
    plc = subl.add_parser("check")
    plc.add_argument("shift")
    plc.add_argument("--d", type=_bounded(int, 1), default=1)
    plc.add_argument("--n", type=_bounded(int, 0), default=18)
    plc.add_argument("--pattern", default=None)
    plc.set_defaults(func=cmd_lemma41_check)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared by every later
    one (parsing does not change it)."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (ParseError, EmptyShift, NotEndomorphism) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SoficlabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
