"""Seeded random property suites over endomorphism decision procedures.

Each instance draws a random rule table, keeps it only when it maps the
shift into itself, then records every decision the theory constrains:
injective implies pre-injective, pre-injective plus a strongly irreducible
domain implies surjective and entropy-preserving, images of full shifts are
strongly irreducible, and block counts of the image never beat those of the
domain.  Any violation is a contradiction: it indicates a bug, never news.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ca import (image_presentation, is_injective, is_pre_injective,
                 is_surjective, maps_into, random_ca)
from .dfa import word_counts
from .entropy import entropy_spectral
from .props import is_strongly_irreducible
from .shift import Shift

_COUNT_N = 12
_ENTROPY_TOL = 1e-9


@dataclass(frozen=True)
class CorpusInstance:
    """One random endomorphism, fully classified."""

    seed: int
    memory: tuple[int, int]
    pre_injective: bool | None
    injective: bool | None
    surjective: bool | None
    h_image: float
    h_image_err: float
    counting_ok: bool
    image_si: bool | None  # checked only on full-shift domains


@dataclass(frozen=True)
class CorpusReport:
    shift_name: str
    si: bool | None
    h_domain: float
    memory: tuple[int, int]
    requested: int
    instances: tuple[CorpusInstance, ...]
    skipped: int  # seeds whose table does not map the shift into itself
    contradictions: tuple[str, ...]

    @property
    def worst_exit(self) -> int:
        return 2 if self.contradictions else 0


def _is_full(x: Shift) -> bool:
    d = x.acceptor
    return d.n_states == 1 and all(t == 0 for t in d.trans[0])


def _run_instance(x: Shift, seed: int, memory: tuple[int, int],
                  check_image_si: bool) -> CorpusInstance | None:
    """Classify one seed; None when the table is not an endomorphism."""
    t = random_ca(x.alphabet, x.alphabet, memory, seed)
    if not maps_into(t, x, x):
        return None
    img = image_presentation(t, x)
    pre = is_pre_injective(t, x)
    inj = is_injective(t, x)
    sur = is_surjective(t, x, x)
    h_img = entropy_spectral(img, _ENTROPY_TOL)
    stretch = t.width - 1
    cx = word_counts(x.acceptor, _COUNT_N + stretch)
    ci = word_counts(img.acceptor, _COUNT_N)
    # from n = 1: the image always has the empty word, while an empty
    # domain has no word of length ``stretch``
    counting_ok = all(ci[n] <= cx[n + stretch]
                      for n in range(1, _COUNT_N + 1))
    image_si = None
    if check_image_si and not img.is_empty:
        image_si = is_strongly_irreducible(img).verdict
    return CorpusInstance(seed, memory, pre.verdict, inj.verdict,
                          sur.verdict, h_img.value, h_img.error_bound,
                          counting_ok, image_si)


def _contradictions(si: bool | None, h_dom: float, h_dom_err: float,
                    inst: CorpusInstance) -> list[str]:
    out = []
    if inst.injective is True and inst.pre_injective is False:
        out.append(f"seed {inst.seed}: injective but not pre-injective")
    if si is True and inst.pre_injective is True:
        if inst.surjective is False:
            out.append(f"seed {inst.seed}: pre-injective endomorphism of a "
                       f"strongly irreducible shift is not surjective")
        slack = 2 * _ENTROPY_TOL + h_dom_err + inst.h_image_err
        if abs(h_dom - inst.h_image) > slack:
            out.append(f"seed {inst.seed}: entropy not preserved "
                       f"({h_dom!r} vs {inst.h_image!r})")
    if si is True and inst.injective is True and inst.surjective is False:
        out.append(f"seed {inst.seed}: injective endomorphism of a strongly "
                   f"irreducible shift is not surjective")
    if not inst.counting_ok:
        out.append(f"seed {inst.seed}: image block counts exceed domain "
                   f"block counts")
    if inst.image_si is False:
        out.append(f"seed {inst.seed}: image of the full shift is not "
                   f"strongly irreducible")
    return out


def run_corpus(x: Shift, count: int, seed: int,
               memory: tuple[int, int] = (0, 1),
               shift_name: str = "<shift>") -> CorpusReport:
    """Classify ``count`` seeded random tables drawn from ``seed`` upward,
    in seed order."""
    si = is_strongly_irreducible(x).verdict
    h_dom = entropy_spectral(x, _ENTROPY_TOL)
    check_image_si = _is_full(x)
    seeds = range(seed, seed + count)
    results = (_run_instance(x, s, memory, check_image_si) for s in seeds)
    kept = [r for r in results if r is not None]
    contras: list[str] = []
    for inst in kept:
        contras.extend(
            _contradictions(si, h_dom.value, h_dom.error_bound, inst))
    return CorpusReport(shift_name, si, h_dom.value, memory, count,
                        tuple(kept), len(seeds) - len(kept), tuple(contras))


@dataclass(frozen=True)
class ExampleOutcome:
    label: str
    myhill: object
    entropy: object
    image_si: bool | None
    contradictions: tuple[str, ...]


def run_bundled_examples() -> tuple[ExampleOutcome, ...]:
    """The four bundled shift/rule pairs, run end to end: the Garden of
    Eden implication, entropy preservation, and strong irreducibility of
    full-shift images."""
    from .bundled import bundled_ca, bundled_shift
    from .ca import check_entropy_preservation, check_myhill

    pairs = (("full2", "xor"), ("twopoint", "collapse"),
             ("golden", "identity"), ("full2", "const0"))
    out = []
    for shift_name, ca_name in pairs:
        x = bundled_shift(shift_name)
        t = bundled_ca(ca_name, x)
        my = check_myhill(t, x)
        ent = check_entropy_preservation(t, x)
        image_si = None
        if _is_full(x):
            img = image_presentation(t, x)
            if not img.is_empty:
                image_si = is_strongly_irreducible(img).verdict
        contras = []
        label = f"{ca_name} on {shift_name}"
        if my.contradiction:
            contras.append(f"{label}: pre-injective on a strongly "
                           f"irreducible shift but not surjective")
        if not ent.leq_holds:
            contras.append(f"{label}: image entropy exceeds domain entropy")
        if ent.equality_asserted and ent.equality_holds is False:
            contras.append(f"{label}: entropy not preserved")
        if image_si is False:
            contras.append(f"{label}: full-shift image not strongly "
                           f"irreducible")
        out.append(ExampleOutcome(label, my, ent, image_si, tuple(contras)))
    return tuple(out)


def flag(v: bool | None) -> str:
    return "?" if v is None else ("1" if v else "0")


def instance_lines(rep: CorpusReport) -> list[str]:
    """Stable machine lines, one per instance:
    ``seed, preinj, inj, surj, si, entropy_x, entropy_image``."""
    return [f"{r.seed}, {flag(r.pre_injective)}, {flag(r.injective)}, "
            f"{flag(r.surjective)}, {flag(rep.si)}, {rep.h_domain:.12g}, "
            f"{r.h_image:.12g}"
            for r in rep.instances]
