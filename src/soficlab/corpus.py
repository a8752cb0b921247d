"""Seeded random property suites over endomorphism decision procedures,
and the one check of the certified implications they rest on.

:func:`classify` decides one endomorphism ``t`` of a shift ``x`` and
checks the seven implications the theory certifies:

1. injective implies pre-injective;
2. pre-injective on a strongly irreducible ``x`` implies surjective (the
   Myhill property, :attr:`MyhillReport.contradiction`);
3. injective on a strongly irreducible ``x`` implies surjective;
4. the image's entropy is at most the domain's
   (:attr:`EntropyPreservationReport.leq_holds`);
5. pre-injective on a strongly irreducible ``x`` preserves entropy
   (:attr:`EntropyPreservationReport.equality_holds`, within 2*tol);
6. the image has at most as many n-blocks as ``x`` has (n+k-1)-blocks,
   k the rule width;
7. the image of a full shift is strongly irreducible.

Any violation is a contradiction: it indicates a bug, never news.
:func:`run_corpus` classifies seeded random tables that map the shift
into itself, :func:`run_bundled_examples` the bundled example pairs, and
``soficlab ca analyze`` one rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import CellularAutomaton, Decision
from .bundled import bundled_ca, bundled_shift
from .ca import (EntropyPreservationReport, MyhillReport,
                 check_entropy_preservation, check_myhill,
                 image_presentation, is_injective, maps_into, random_ca)
from .entropy import block_counts, entropy_spectral
from .props import is_mixing, is_strongly_irreducible
from .shift import Shift

_COUNT_N = 12
_ENTROPY_TOL = 1e-9


@dataclass(frozen=True)
class Classification:
    """One endomorphism, decided and checked against every certified
    implication; each contradiction starts with ``label``."""

    label: str
    myhill: MyhillReport
    injective: Decision
    entropy: EntropyPreservationReport
    counting_ok: bool
    image_si: bool | None  # checked only on full-shift domains
    contradictions: tuple[str, ...]


def _is_full(x: Shift) -> bool:
    d = x.acceptor
    return d.n_states == 1 and all(t == 0 for t in d.trans[0])


def classify(t: CellularAutomaton, x: Shift, label: str,
             tol: float = _ENTROPY_TOL) -> Classification:
    """Decide ``t`` on ``x`` and check the seven certified implications
    of the module docstring.  Raises NotEndomorphism when ``t`` leaves
    ``x``."""
    my = check_myhill(t, x)
    inj = is_injective(t, x)
    ent = check_entropy_preservation(t, x, tol)
    img = image_presentation(t, x)
    stretch = t.width - 1
    cx = block_counts(x, _COUNT_N + stretch)
    ci = block_counts(img, _COUNT_N)
    # from n = 1: the image always has the empty word, while an empty
    # domain has no word of length ``stretch``
    counting_ok = all(ci[n] <= cx[n + stretch]
                      for n in range(1, _COUNT_N + 1))
    image_si = None
    if _is_full(x) and not img.is_empty:
        # mixing is strong irreducibility here, with no gap certificate
        image_si = is_mixing(img).mixing
    hs = f"({ent.h_domain.value!r} vs {ent.h_image.value!r})"
    broken = (
        (inj.verdict is True and my.pre_injective.verdict is False,
         "injective but not pre-injective"),
        (my.contradiction, "pre-injective endomorphism of a strongly "
                           "irreducible shift is not surjective"),
        (my.si.verdict is True and inj.verdict is True
         and my.surjective.verdict is False,
         "injective endomorphism of a strongly irreducible shift is not "
         "surjective"),
        (not ent.leq_holds, f"image entropy exceeds domain entropy {hs}"),
        (ent.equality_holds is False, f"entropy not preserved {hs}"),
        (not counting_ok, "image block counts exceed domain block counts"),
        (image_si is False,
         "image of the full shift is not strongly irreducible"),
    )
    return Classification(label, my, inj, ent, counting_ok, image_si,
                          tuple(f"{label}: {m}" for bad, m in broken if bad))


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


def run_corpus(x: Shift, count: int, seed: int,
               memory: tuple[int, int] = (0, 1),
               shift_name: str = "<shift>") -> CorpusReport:
    """Classify ``count`` seeded random tables drawn from ``seed`` upward,
    in seed order; a table that does not map ``x`` into itself is
    skipped."""
    si = is_strongly_irreducible(x).verdict
    h_dom = entropy_spectral(x, _ENTROPY_TOL)
    seeds = range(seed, seed + count)
    kept: list[CorpusInstance] = []
    contras: list[str] = []
    for s in seeds:
        t = random_ca(x.alphabet, x.alphabet, memory, s)
        if not maps_into(t, x, x):
            continue
        c = classify(t, x, f"seed {s}")
        ent = c.entropy.h_image
        kept.append(CorpusInstance(
            s, memory, c.myhill.pre_injective.verdict, c.injective.verdict,
            c.myhill.surjective.verdict, ent.value, ent.error_bound,
            c.counting_ok, c.image_si))
        contras.extend(c.contradictions)
    return CorpusReport(shift_name, si, h_dom.value, memory, count,
                        tuple(kept), len(seeds) - len(kept), tuple(contras))


def run_bundled_examples() -> tuple[Classification, ...]:
    """The four bundled shift/rule pairs, each classified end to end."""
    pairs = (("full2", "xor"), ("twopoint", "collapse"),
             ("golden", "identity"), ("full2", "const0"))
    out = []
    for shift_name, ca_name in pairs:
        x = bundled_shift(shift_name)
        out.append(classify(bundled_ca(ca_name, x), x,
                            f"{ca_name} on {shift_name}"))
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
