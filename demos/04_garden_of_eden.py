"""
Garden-of-Eden analysis of three small automata
===============================================

A sliding-block map on a strongly irreducible shift is surjective exactly
when it is pre-injective (no two configurations agreeing outside a finite
window share an image).  The three rules below hit three corners of that
equivalence, and every verdict comes with a finite witness that can be
checked by hand.
"""

from soficlab import (CellularAutomaton, bundled_shift, bundled_ca,
                      is_injective, is_pre_injective, is_surjective,
                      check_myhill, constant_ca, xor_ca)

full2 = bundled_shift("full2")
twopoint = bundled_shift("twopoint")

# rule 1: xor of the two cells in the window. Pre-injective and onto,
# but gluing the constant-0 and constant-1 points shows it is 2-to-1.
xor = xor_ca()
print("xor('0110') =", xor.apply(full2.word("0110")).text)
inj = is_injective(xor, full2)
print("xor injective:", inj.verdict)
w = inj.witness
print(f"  merging pair: {w.first.text} and {w.second.text} "
      f"-> {w.image.text} (periodic continuations)")
print("xor pre-injective:", is_pre_injective(xor, full2).verdict)
print("xor surjective:", is_surjective(xor, full2, full2).verdict)

# rule 2: local or. Not pre-injective: 101 and 111 agree at both ends
# and produce the same image, a classic diamond.
orr = CellularAutomaton.from_rule(full2.alphabet, full2.alphabet, 0, 1,
                                  lambda c: "1" if "1" in c else "0")
pre = is_pre_injective(orr, full2)
d = pre.witness
print("\nor pre-injective:", pre.verdict)
print(f"  diamond: {d.first.word.text} vs {d.second.word.text} "
      f"-> {d.image.text}")
sur = is_surjective(orr, full2, full2)
print("or surjective:", sur.verdict,
      f"(no preimage for {sur.witness.text!r})")

# rule 3: collapse everything to 0 on the two-point shift. The domain is
# not strongly irreducible, so pre-injectivity no longer buys
# surjectivity: the word '1' has no preimage.
collapse = bundled_ca("collapse", twopoint)
rep = check_myhill(collapse, twopoint)
print("\ncollapse on {0^Z, 1^Z}:")
print("  strongly irreducible domain:", rep.si.verdict)
print("  pre-injective:", rep.pre_injective.verdict)
print("  surjective:", rep.surjective.verdict,
      f"(garden-of-eden word {rep.surjective.witness.text!r})")
print("  contradicts the certified implications:", rep.contradiction)
