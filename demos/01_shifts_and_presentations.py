"""
Building subshifts three ways
=============================

A shift space can arrive as a list of forbidden words, as a labeled
graph, or as somebody else's graph that happens to describe the same
language.  This walk-through builds the golden-mean shift twice and the
even shift once, and lets the library decide which presentations agree.
"""

from soficlab import Shift, Alphabet, equal_shifts, block_counts
from soficlab.graph import LabeledGraph

bits = Alphabet(("0", "1"))

# golden-mean shift: no two adjacent ones
golden = Shift.from_forbidden(bits, ["11"])
print("golden from forbidden list:", golden.alphabet.symbols,
      "forbidding", [w.text for w in golden.origin.forbidden])

# the same language as a two-vertex graph: vertex 0 may emit 0 or 1,
# vertex 1 only 0
g = LabeledGraph(bits, 2, ((0, 0, 0), (0, 1, 1), (1, 0, 0)))
golden2 = Shift.from_graph(g)
d = equal_shifts(golden, golden2)
print("graph presentation equal to forbidden-word presentation:",
      d.verdict)

# even shift: ones come in blocks of even length; this one is sofic but
# not of finite type, so no list of forbidden words describes it
even = Shift.from_graph(LabeledGraph(bits, 2,
                                     ((0, 0, 0), (0, 1, 1), (1, 0, 1))))
print("even shift kind:", even.kind)

d = equal_shifts(golden, even)
print("golden equal to even:", d.verdict,
      "separating word:", d.witness.text)

# the word counts tell the two languages apart from length 2 on
print("\n n  golden  even")
cg, ce = block_counts(golden, 10), block_counts(even, 10)
for n in range(1, 11):
    print(f"{n:2d}  {cg[n]:6d}  {ce[n]:5d}")

# containment queries run on the minimal acceptor
for text in ("0110", "0010", "101"):
    w = even.word(text)
    print(f"even contains {text!r}:", even.contains_word(w))
