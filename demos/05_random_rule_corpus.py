"""
A seeded corpus of random rules
===============================

Fixed seed, fixed shift, fixed memory interval: the corpus is the same
on every machine and any worker count.  Each random table that maps the
shift into itself is classified (pre-injective / injective / surjective,
image entropy, image strong irreducibility), and the certified
implications are asserted on every instance; a violation would mean an
implementation bug and flips the exit code to 2.
"""

from soficlab import run_corpus, instance_lines, search_moore_counterexample
from soficlab import bundled_shift

for name in ("full2", "golden"):
    x = bundled_shift(name)
    rep = run_corpus(x, count=25, seed=42, memory=(0, 1), shift_name=name)
    kept = len(rep.instances)
    print(f"{name}: {kept} endomorphisms out of {rep.requested} seeds "
          f"(skipped {rep.skipped}), contradictions: {len(rep.contradictions)}")
    for line in instance_lines(rep)[:6]:
        print("  " + line)
    if kept > 6:
        print(f"  ... {kept - 6} more")
    print()

# a direct hunt for a surjective-but-not-pre-injective rule on the full
# shift must come up empty: width 1 and 2 tables are searched exhaustively
hit = search_moore_counterexample(bundled_shift("full2"), memory_bound=1,
                                  budget=100)
print("surjective non-pre-injective rule on the full shift:", hit)
