"""Acceptance gate: fourteen end-to-end criteria, one per test, each
emitting a single PASS/FAIL line (visible with -s; the -v test status
carries the same bit)."""

import functools
import math
import time

import pytest

from soficlab import (CellularAutomaton, Shift,
                      is_pre_injective, is_injective,
                      is_surjective, image_presentation, check_myhill,
                      constant_ca, identity_ca, random_ca, xor_ca,
                      run_corpus,
                      entropy_blocks, entropy_spectral, entropy_compare,
                      block_count, higher_block,
                      si_certificate, is_mixing, is_irreducible,
                      minimal_gap, gap_witness,
                      tiling_Z, tiling_density, pattern_exclusion_bound,
                      positivity_lower_bound,
                      NotMixing)
import soficlab.bundled as bundled

from oracles import (image_mismatch, minimal_gap_bruteforce,
                     missing_preimage, origin_blocks, table_image,
                     words_up_to)

LN2 = math.log(2.0)
LN_PHI = math.log((1.0 + math.sqrt(5.0)) / 2.0)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def run(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} [{label}]: FAIL")
                raise
            print(f"ACCEPTANCE {num:02d} [{label}]: PASS")
        return run
    return deco


@pytest.fixture(scope="module")
def corpus_reports(shifts):
    t0 = time.monotonic()
    reps = {name: run_corpus(shifts[name], count=200, seed=42,
                             memory=(0, 2), shift_name=name)
            for name in ("full2", "golden", "even")}
    return reps, time.monotonic() - t0


class TestAcceptance:

    @criterion(1, "xor on the full shift")
    def test_01_xor_example(self, full2):
        t0 = time.monotonic()
        t = xor_ca()
        pre = is_pre_injective(t, full2)
        inj = is_injective(t, full2)
        sur = is_surjective(t, full2, full2)
        img = image_presentation(t, full2)
        img_equal = is_surjective(t, full2, img)
        elapsed = time.monotonic() - t0
        assert image_mismatch(t, full2, img, 6) is None
        assert pre.verdict is True
        assert inj.verdict is False
        assert sur.verdict is True
        assert img_equal.verdict is True  # image equality route agrees
        assert elapsed < 1.0

    @criterion(2, "collapse on the two-point shift")
    def test_02_collapse_example(self, twopoint):
        t0 = time.monotonic()
        t = constant_ca(twopoint.alphabet, "0")
        pre = is_pre_injective(t, twopoint)
        sur = is_surjective(t, twopoint, twopoint)
        si = si_certificate_verdict(twopoint)
        elapsed = time.monotonic() - t0
        assert pre.verdict is True
        assert sur.verdict is False
        assert sur.witness.text == "1"
        assert si is False
        assert elapsed < 1.0

    @criterion(3, "mixing and gap certificates")
    def test_03_certificates(self, shifts):
        golden, even, period2 = (shifts[n] for n in
                                 ("golden", "even", "period2"))
        assert is_mixing(golden).mixing and is_mixing(even).mixing
        cg = si_certificate(golden)
        ce = si_certificate(even)
        assert (ce.sync.length, ce.n0, ce.L0, ce.D, ce.N0_bound) == \
            (1, 0, 1, 1, 3)
        rep2 = is_mixing(period2)
        assert not rep2.mixing
        with pytest.raises(NotMixing):
            si_certificate(period2)
        gaps = {"golden": minimal_gap(golden), "even": minimal_gap(even),
                "full2": minimal_gap(shifts["full2"])}
        assert gaps == {"golden": 1, "even": 2, "full2": 0}
        assert gaps["golden"] <= cg.N0_bound
        assert gaps["even"] <= ce.N0_bound

    @criterion(4, "entropy method agreement")
    def test_04_entropy_agreement(self, shifts):
        t0 = time.monotonic()
        truth = {"full2": LN2, "golden": LN_PHI, "even": LN_PHI}
        for name, h in truth.items():
            eb = entropy_blocks(shifts[name], 40)
            es = entropy_spectral(shifts[name])
            assert abs(es.value - eb.value) <= 5e-3
            assert abs(es.value - h) <= 1e-9
        assert time.monotonic() - t0 < 5.0

    @criterion(5, "strict entropy gaps")
    def test_05_entropy_gaps(self, shifts):
        d1 = entropy_compare(shifts["golden"], shifts["zeros"], tol=1e-9)
        assert d1.verdict is True
        ex, ey = d1.witness
        assert abs((ex.value - ey.value) - LN_PHI) <= 1e-8
        d2 = entropy_compare(shifts["full2"], shifts["golden"], tol=1e-9)
        assert d2.verdict is True
        ex, ey = d2.witness
        assert abs((ex.value - ey.value) - (LN2 - LN_PHI)) <= 1e-8

    @criterion(6, "constructive positivity bound")
    def test_06_positivity(self, golden, even):
        for x in (golden, even):
            rep = positivity_lower_bound(x, 24)
            assert rep.holds
            for n, c_n, tiles in rep.rows:
                assert c_n >= 2 ** tiles

    @criterion(7, "tiling exactness and density")
    def test_07_tiling(self):
        for k in (1, 2, 3, 5):
            spec = tiling_Z(k)  # raises if disjointness/covering fail
            for n in range(2 * k, 6 * k + 1):
                d = tiling_density(spec, n)
                assert d.alpha_ok and d.ratio >= 1 / (2 * k)

    @criterion(8, "pattern exclusion inequality")
    def test_08_pattern_exclusion(self, golden):
        for n in range(0, 19):
            rep = pattern_exclusion_bound(golden, 1, n)
            assert rep.holds
            t = len(rep.tiles)
            assert rep.q_count * rep.rho ** t <= \
                (rep.rho - 1) ** t * rep.total_count

    @criterion(9, "no pre-injective non-surjective instance")
    def test_09_corpus_suite(self, corpus_reports):
        reps, elapsed = corpus_reports
        assert elapsed < 300.0
        for name, rep in reps.items():
            assert rep.requested == 200
            assert rep.contradictions == ()
            assert rep.worst_exit == 0
            for inst in rep.instances:
                assert not (inst.pre_injective is True
                            and inst.surjective is False), (name, inst.seed)

    @criterion(10, "images of the full shift are SI")
    def test_10_image_si(self, full2):
        rep = run_corpus(full2, count=50, seed=0, memory=(0, 1))
        assert len(rep.instances) == 50
        assert all(inst.image_si is True for inst in rep.instances)

    @criterion(11, "pre-injective implies entropy preserved")
    def test_11_entropy_preservation(self, corpus_reports):
        reps, _ = corpus_reports
        flagged = 0
        for rep in reps.values():
            assert rep.si is True
            for inst in rep.instances:
                if inst.pre_injective is True:
                    flagged += 1
                    assert abs(inst.h_image - rep.h_domain) <= 2e-9
        assert flagged >= 10  # the check must not be vacuous

    @criterion(12, "SI stable under block recoding")
    def test_12_recoding_invariance(self, shifts):
        for name, x in shifts.items():
            base = si_certificate_verdict(x)
            for k in (2, 3):
                xk, _, _ = higher_block(x, k)
                assert si_certificate_verdict(xk) == base, (name, k)

    @criterion(13, "decisions agree with brute-force oracles")
    def test_13_oracle_equivalence(self, shifts, full2, twopoint):
        # surjectivity vs exhaustive preimage search, words up to length 8
        or_rule = CellularAutomaton.from_rule(
            full2.alphabet, full2.alphabet, 0, 1,
            lambda c: "1" if "1" in c else "0")
        pairs = [(xor_ca(), full2, full2),
                 (or_rule, full2, full2),
                 (constant_ca(full2.alphabet, "0"), full2, full2),
                 (constant_ca(twopoint.alphabet, "0"), twopoint, twopoint),
                 (identity_ca(full2.alphabet), full2, full2)]
        for seed in range(10):
            pairs.append((random_ca(full2.alphabet, full2.alphabet, (0, 1),
                                    seed=seed), full2, full2))
        for t, x, y in pairs:
            d = is_surjective(t, x, y)
            oracle = missing_preimage(t, x, y, 8)
            assert (d.verdict is True) == (oracle is None)
            if d.verdict is False:
                goe = d.witness.ranks()
                assert all(table_image(t, u) != goe
                           for u in origin_blocks(x, len(goe) + t.width - 1))
        # pre-injectivity witnesses re-verify under local application
        diamonds = 0
        for t, x, _ in pairs:
            d = is_pre_injective(t, x)
            if d.verdict is False:
                diamonds += 1
                wa, wb = d.witness.first.word, d.witness.second.word
                assert wa.text != wb.text
                assert x.contains_word(wa) and x.contains_word(wb)
                assert t.apply(wa).text == t.apply(wb).text \
                    == d.witness.image.text
        assert diamonds >= 2
        # least uniform gap vs the all-pairs scan, word lengths <= 5
        exact_by_5 = {"full2": 0, "golden": 1, "even": 2, "zeros": 0,
                      "mixnot_2": 4, "mixnot_3": 6}
        for name, expect in exact_by_5.items():
            got, pair = minimal_gap_bruteforce(shifts[name], 5)
            assert got == expect == minimal_gap(shifts[name]), (name, pair)
            # the attaining pair really fails one below and fills at the gap
            if got > 0:
                u, v = (shifts[name].word(w) for w in pair)
                assert gap_witness(shifts[name], u, v, got - 1) is None
                assert gap_witness(shifts[name], u, v, got) is not None

    @criterion(14, "mixnot family least gaps")
    def test_14_mixnot_gaps(self, shifts):
        pools = {2: 7, 3: 9, 4: 9, 5: 10}
        for k, pool in pools.items():
            x = shifts[f"mixnot_{k}"]
            got = minimal_gap(x)
            oracle, pair = minimal_gap_bruteforce(x, pool)
            assert got == oracle == 2 * k, (k, pair)


def si_certificate_verdict(x):
    try:
        si_certificate(x)
        return True
    except NotMixing:
        return False
