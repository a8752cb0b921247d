"""Sliding-block maps: local application, the pair-graph decisions for
injectivity and pre-injectivity, image presentations, surjectivity with
garden-of-eden witnesses, and the bundled example pairs end to end."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab import (Alphabet, CellularAutomaton, Word,
                      pair_graph, is_pre_injective,
                      is_injective, is_surjective, image_presentation,
                      check_myhill, check_entropy_preservation,
                      random_ca, identity_ca, constant_ca, xor_ca,
                      search_moore_counterexample,
                      run_corpus, run_bundled_examples,
                      bundled_ca, bundled_names,
                      equal_shifts, language_included, block_counts,
                      AlphabetMismatch, NotEndomorphism, NotIntoTarget,
                      Shift, TableTooLarge, WordTooShort)
from soficlab.ca import image_included

from oracles import (image_mismatch, image_word_outside, missing_preimage,
                     origin_blocks, origin_contains, periodic_point_allowed,
                     table_image)


def or_rule(a):
    return CellularAutomaton.from_rule(a, a, 0, 1,
                                       lambda c: "1" if "1" in c else "0")


class TestApply:

    def test_xor_word(self, full2):
        assert xor_ca().apply(full2.word("0110")).text == "101"
        assert xor_ca().apply(full2.word("00")).text == "0"

    def test_width_one_keeps_length(self, full2):
        c0 = constant_ca(full2.alphabet, "0")
        assert c0.apply(full2.word("1011")).text == "0000"

    def test_identity(self, golden):
        i = identity_ca(golden.alphabet)
        assert i.apply(golden.word("10010")).text == "10010"

    def test_short_word_rejected(self, full2):
        with pytest.raises(WordTooShort):
            xor_ca().apply(full2.word("0"))

    def test_from_rule_table(self, full2):
        t = or_rule(full2.alphabet)
        assert t.table == ("0", "1", "1", "1")
        assert t.apply(full2.word("0100")).text == "110"


class TestPairGraph:

    def test_diagonal_pairs_present(self, full2):
        pg = pair_graph(xor_ca(), full2)
        assert pg.width == 2
        diag = [e for e in pg.edges if not e[4]]
        assert diag  # equal-block pairs always map to equal symbols

    def test_sofic_domain_reads_the_acceptor_part(self, even):
        # the pair graph of a sofic domain recodes the essential part of its
        # acceptor (three states for the even shift), not the two-vertex
        # essential graph the image recodes
        det = even.deterministic
        assert det.n_vertices == 3 and det.is_right_resolving()
        pg = pair_graph(xor_ca(), even)
        assert pg.n_base == len(det.edges)  # width 2: one vertex per edge

    def test_sft_domain_reads_the_acceptor_part(self, shifts):
        # mixnot_5's block presentation has 618 vertices, its acceptor part
        # 12: a one-cell rule pairs 12 * 12 vertices, not 618 * 618
        x = shifts["mixnot_5"]
        pg = pair_graph(bundled_ca("collapse", x), x)
        assert pg.n_base == x.deterministic.n_vertices == 12
        assert (pg.n_pairs, len(pg.edges)) == (144, 361)

    def test_deterministic_edge_order(self, golden):
        a = pair_graph(identity_ca(golden.alphabet), golden)
        b = pair_graph(identity_ca(golden.alphabet), golden)
        assert a.edges == b.edges


class TestPreInjectivity:

    def test_xor_on_full(self, full2):
        d = is_pre_injective(xor_ca(), full2)
        assert d.verdict is True and d.scope == "point"

    def test_or_rule_diamond(self, full2):
        d = is_pre_injective(or_rule(full2.alphabet), full2)
        assert d.verdict is False and d.scope == "point"
        w = d.witness
        assert w.first.word.text == "101" and w.second.word.text == "111"
        assert w.image.text == "11"

    def test_diamond_reverifies_under_apply(self, full2, golden):
        # any reported diamond must be two allowed words with common
        # first and last width-1 letters and the same image word
        cases = [(or_rule(full2.alphabet), full2),
                 (constant_ca(full2.alphabet, "0"), full2)]
        for t, x in cases:
            d = is_pre_injective(t, x)
            assert d.verdict is False
            wa, wb = d.witness.first.word, d.witness.second.word
            k = max(t.mem_right - t.mem_left + 1, 1)
            assert wa.text != wb.text and len(wa) == len(wb)
            assert wa.text[:k - 1] == wb.text[:k - 1]
            assert wa.text[len(wa) - (k - 1):] == wb.text[len(wb) - (k - 1):]
            assert x.contains_word(wa) and x.contains_word(wb)
            assert t.apply(wa).text == t.apply(wb).text == d.witness.image.text

    def test_sofic_domain_scope(self, even):
        # exact on every domain: a clean verdict is about points too
        d = is_pre_injective(xor_ca(), even)
        assert d.verdict is True and d.scope == "point" and d.note == ""

    def test_collapse_on_two_points_is_pre_injective(self, twopoint):
        # the two fixed points differ everywhere, so they are not an
        # asymptotic pair; no diamond exists
        d = is_pre_injective(constant_ca(twopoint.alphabet, "0"), twopoint)
        assert d.verdict is True and d.scope == "point"


class TestInjectivity:

    def test_xor_not_injective(self, full2):
        d = is_injective(xor_ca(), full2)
        assert d.verdict is False
        w = d.witness
        assert {w.first.text, w.second.text} == {"0000", "1111"}
        assert w.left_period == 1 and w.right_period == 1
        assert w.image.text == "000"

    def test_witness_words_verify(self, full2, even):
        for x in (full2, even):
            d = is_injective(xor_ca(), x)
            assert d.verdict is False
            w = d.witness
            assert x.contains_word(w.first) and x.contains_word(w.second)
            assert w.first.text != w.second.text
            ia = xor_ca().apply(w.first)
            ib = xor_ca().apply(w.second)
            assert ia.text == ib.text == w.image.text

    def test_xor_on_even_periodic_pair(self, even):
        # 1^inf 0^inf and 0^inf 1^inf, read in the acceptor part
        d = is_injective(xor_ca(), even)
        assert d.verdict is False
        w = d.witness
        assert (w.first.text, w.second.text) == ("110000", "001111")
        assert w.left_period == 1 and w.right_period == 2

    @pytest.mark.parametrize("k", (2, 3, 4, 5))
    @pytest.mark.parametrize("rule", ("collapse", "const0"))
    def test_mixnot_point_pairs_verify(self, shifts, k, rule):
        # 1^inf 0^inf and its shift by one, read from the acceptor part:
        # both points avoid every forbidden word of the spec
        x = shifts[f"mixnot_{k}"]
        t = bundled_ca(rule, x)
        d = is_injective(t, x)
        assert d.verdict is False
        w = d.witness
        assert (w.first.text, w.second.text, w.image.text) \
            == ("1000", "1100", "0000")
        assert w.left_period == w.right_period == 1
        a, b = w.first.ranks(), w.second.ranks()
        assert table_image(t, a) == table_image(t, b) == w.image.ranks()
        assert periodic_point_allowed(x.origin, a, 1, 1)
        assert periodic_point_allowed(x.origin, b, 1, 1)

    def test_identity_injective(self, shifts):
        for name in ("full2", "golden", "even"):
            d = is_injective(identity_ca(shifts[name].alphabet), shifts[name])
            assert d.verdict is True

    def test_injective_implies_pre_injective_random(self, full2, golden):
        hits = 0
        for x in (full2, golden):
            for seed in range(60):
                t = random_ca(x.alphabet, x.alphabet, (0, 1), seed=seed)
                if is_injective(t, x).verdict:
                    hits += 1
                    assert is_pre_injective(t, x).verdict is True
        assert hits > 0


class TestAlphabetChecked:
    """A rule over another alphabet is refused, also on an empty domain."""

    @pytest.mark.parametrize("decide", [is_pre_injective, is_injective,
                                        image_presentation])
    def test_empty_domain_over_other_alphabet(self, decide):
        empty = Shift.from_forbidden(Alphabet(("0", "1")), ("0", "1"))
        assert empty.is_empty
        rule = identity_ca(Alphabet(("a", "b", "c")))
        with pytest.raises(AlphabetMismatch,
                           match="the rule reads a different alphabet"):
            decide(rule, empty)

    @pytest.mark.parametrize("empty_domain", [True, False])
    def test_image_included_refuses_other_source(self, full2, empty_domain):
        x = (Shift.from_forbidden(full2.alphabet, ("0", "1"))
             if empty_domain else full2)
        rule = identity_ca(Alphabet(("a", "b", "c")))
        with pytest.raises(AlphabetMismatch,
                           match="the rule reads a different alphabet"):
            image_included(rule, x, x)

    @pytest.mark.parametrize("empty_domain", [True, False])
    def test_image_included_refuses_other_target(self, full2, empty_domain):
        # the rule writes a b c, the target reads 0 1
        x = (Shift.from_forbidden(full2.alphabet, ("0", "1"))
             if empty_domain else full2)
        rule = random_ca(full2.alphabet, Alphabet(("a", "b", "c")), (0, 1), 3)
        with pytest.raises(AlphabetMismatch,
                           match=r"cannot compare shifts over \{a,b,c\}"):
            image_included(rule, x, full2)


class TestImagePresentation:

    def test_const_image_is_single_point(self, full2, zeros):
        t = constant_ca(full2.alphabet, "0")
        img = image_presentation(t, full2)
        assert image_mismatch(t, full2, img, 6) is None
        assert equal_shifts(img, zeros).verdict is True

    def test_identity_image_is_domain(self, golden):
        t = identity_ca(golden.alphabet)
        img = image_presentation(t, golden)
        assert image_mismatch(t, golden, img, 7) is None
        assert equal_shifts(img, golden).verdict is True

    def test_xor_full_image_is_full(self, full2):
        img = image_presentation(xor_ca(), full2)
        assert image_mismatch(xor_ca(), full2, img, 7) is None
        assert equal_shifts(img, full2).verdict is True

    def test_image_counts_bounded_by_domain(self, shifts):
        # an n-word of the image is the image of an (n + width - 1)-word
        for name in ("full2", "golden", "even"):
            x = shifts[name]
            for seed in (3, 11):
                t = random_ca(x.alphabet, x.alphabet, (0, 1), seed=seed)
                img = image_presentation(t, x)
                ci = block_counts(img, 10)
                cx = block_counts(x, 11)
                assert all(ci[n] <= cx[n + 1] for n in range(1, 11))

    def test_xor_even_image(self, even, full2):
        img = image_presentation(xor_ca(), even)
        assert image_mismatch(xor_ca(), even, img, 8) is None
        assert img.contains_word(img.word("010"))
        assert equal_shifts(img, full2).verdict is False

    def test_self_check_on_empty_domain(self):
        # the empty domain has no 1-block; the empty image still has the
        # empty word, so the check starts at length 1
        empty = Shift.from_forbidden(Alphabet(("0", "1")), ("0", "1"))
        img = image_presentation(xor_ca(), empty)
        assert img.is_empty
        assert image_mismatch(xor_ca(), empty, img, 4) is None


class TestSurjectivity:

    def test_xor_onto_full(self, full2):
        d = is_surjective(xor_ca(), full2, full2)
        assert d.verdict is True
        assert missing_preimage(xor_ca(), full2, full2, 8) is None

    def test_or_rule_garden_of_eden(self, full2):
        d = is_surjective(or_rule(full2.alphabet), full2, full2)
        assert d.verdict is False
        assert d.witness.text == "010"
        oracle = missing_preimage(or_rule(full2.alphabet), full2, full2, 8)
        assert oracle.text == d.witness.text

    def test_collapse_garden_of_eden(self, twopoint):
        c0 = constant_ca(twopoint.alphabet, "0")
        d = is_surjective(c0, twopoint, twopoint)
        assert d.verdict is False and d.witness.text == "1"
        oracle = missing_preimage(c0, twopoint, twopoint, 8)
        assert oracle.text == "1"

    def test_goe_witness_has_no_preimage(self, full2):
        # re-verify the witness independently: slide the table over every
        # domain word of the matching length, read from the origin
        t = or_rule(full2.alphabet)
        d = is_surjective(t, full2, full2)
        goe = d.witness.ranks()
        domain_words = origin_blocks(full2, len(goe) + 1)
        assert len(domain_words) == 2 ** (len(goe) + 1)
        for u in domain_words:
            assert table_image(t, u) != goe

    def test_not_into_target_raises(self, full2, even, golden):
        with pytest.raises(NotIntoTarget):
            is_surjective(xor_ca(), even, even)
        with pytest.raises(NotIntoTarget):
            is_surjective(xor_ca(), full2, golden)


class TestMyhillReports:

    def test_identity_clean(self, golden):
        rep = check_myhill(identity_ca(golden.alphabet), golden)
        assert rep.si.verdict and rep.pre_injective.verdict
        assert rep.surjective.verdict and not rep.contradiction

    def test_non_endomorphism_rejected(self, golden):
        with pytest.raises(NotEndomorphism) as ei:
            check_myhill(xor_ca(), golden)
        assert "11" in str(ei.value)

    def test_no_contradiction_across_pairs(self, full2, twopoint):
        pairs = [(xor_ca(), full2),
                 (constant_ca(full2.alphabet, "0"), full2),
                 (or_rule(full2.alphabet), full2),
                 (constant_ca(twopoint.alphabet, "0"), twopoint)]
        for t, x in pairs:
            rep = check_myhill(t, x)
            assert not rep.contradiction
            if rep.si.verdict and rep.pre_injective.verdict:
                assert rep.surjective.verdict is True

    def test_entropy_preserved_when_asserted(self, golden, full2):
        for t, x in [(identity_ca(golden.alphabet), golden),
                     (xor_ca(), full2)]:
            rep = check_entropy_preservation(t, x)
            assert rep.leq_holds
            assert rep.equality_asserted and rep.equality_holds

    def test_entropy_drop_without_pre_injectivity(self, full2):
        rep = check_entropy_preservation(constant_ca(full2.alphabet, "0"),
                                         full2)
        assert rep.leq_holds and not rep.equality_asserted
        assert rep.h_image.value == 0.0


class TestGenerators:

    def test_random_is_deterministic(self, full2):
        a = random_ca(full2.alphabet, full2.alphabet, (0, 1), seed=7)
        b = random_ca(full2.alphabet, full2.alphabet, (0, 1), seed=7)
        assert a.table == b.table == ("1", "0", "1", "0")
        c = random_ca(full2.alphabet, full2.alphabet, (0, 1), seed=8)
        assert c.table != a.table

    def test_random_respects_alphabets(self, full2):
        b3 = Alphabet(("a", "b", "c"))
        t = random_ca(full2.alphabet, b3, (-1, 1), seed=5)
        assert t.source == full2.alphabet and t.target == b3
        assert len(t.table) == 8 and set(t.table) <= {"a", "b", "c"}

    def test_width_cap(self, full2):
        # 2**23 entries exceed the 2**22 table cap
        with pytest.raises(TableTooLarge):
            random_ca(full2.alphabet, full2.alphabet, (0, 22), seed=1)

    def test_bundled_rule_binding(self, full2):
        t = bundled_ca("xor", full2)
        assert t.table == xor_ca().table
        assert (t.mem_left, t.mem_right) == (0, 1)


class TestMooreSearch:

    def test_full_shift_has_no_counterexample(self, full2):
        # surjective endomorphisms of a strongly irreducible shift are
        # pre-injective, so the exhaustive width-1/2 search comes up empty
        assert search_moore_counterexample(full2, memory_bound=1,
                                           budget=100) is None

    def test_two_point_search_empty(self, twopoint):
        assert search_moore_counterexample(twopoint, memory_bound=1,
                                           budget=100) is None


class TestCorpus:

    def test_small_run_no_contradictions(self, full2):
        rep = run_corpus(full2, count=10, seed=0, memory=(0, 1))
        assert rep.contradictions == ()
        assert rep.worst_exit == 0
        assert len(rep.instances) + rep.skipped == 10
        for inst in rep.instances:
            assert not (inst.pre_injective is True
                        and inst.surjective is False)

    def test_bundled_examples_clean(self):
        outs = run_bundled_examples()
        assert [o.label for o in outs] == ["xor on full2",
                                           "collapse on twopoint",
                                           "identity on golden",
                                           "const0 on full2"]
        for o in outs:
            assert o.contradictions == ()
        xor_o, col_o, id_o, c0_o = outs
        assert xor_o.myhill.surjective.verdict is True
        assert col_o.myhill.surjective.verdict is False
        assert col_o.myhill.surjective.witness.text == "1"
        assert id_o.entropy.equality_holds
        assert c0_o.myhill.pre_injective.verdict is False
        assert c0_o.image_si is True


class TestGardenOfEdenWord:
    """A non-surjective endomorphism reports the shortest, then
    lexicographically least, target word without a preimage."""

    @pytest.mark.parametrize("name, seeds", [("full2", range(30)),
                                             ("golden", range(120))])
    def test_least_word_without_preimage(self, shifts, name, seeds):
        x = shifts[name]
        checked = 0
        for memory in ((0, 0), (0, 1), (0, 2)):
            for seed in seeds:
                t = random_ca(x.alphabet, x.alphabet, memory, seed)
                if not language_included(image_presentation(t, x), x).verdict:
                    continue
                d = is_surjective(t, x, x)
                if d.verdict:
                    continue
                checked += 1
                goe = d.witness.ranks()
                for n in range(1, len(goe) + 1):
                    images = {table_image(t, u)
                              for u in origin_blocks(x, n + t.width - 1)}
                    orphans = [w for w in origin_blocks(x, n)
                               if w not in images]
                    if n < len(goe):
                        assert orphans == [], (memory, seed)
                    else:
                        assert orphans[0] == goe, (memory, seed)
        assert checked >= 50


_FULL3 = Shift.from_forbidden(Alphabet(("0", "1", "2")), ())
# every bundled shift and the full shift on three letters into itself, and
# the full 2-shift into four of its subshifts
_INCLUSIONS = ([(name, name) for name in bundled_names()[0] + ("full3",)]
               + [("full2", y) for y in ("even", "golden", "twopoint", "zeros")])


class TestImageIncluded:
    """The endomorphism filter reads the recoded presentation, never an
    image shift, and must answer as the image's acceptor does."""

    @given(st.sampled_from(_INCLUSIONS), st.integers(1, 4),
           st.integers(0, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_acceptor_route(self, shifts, names, width,
                                            seed):
        x, y = (_FULL3 if name == "full3" else shifts[name] for name in names)
        t = random_ca(x.alphabet, y.alphabet, (0, width - 1), seed)
        d = image_included(t, x, y)
        ref = language_included(image_presentation(t, x), y)
        assert (d.verdict, d.witness) == (ref.verdict, ref.witness)
        if not d.verdict:
            # a word of the image, missing from y, and the least such
            w = d.witness.ranks()
            assert image_word_outside(t, x, y, len(w)) == w

    def test_empty_domain_is_included(self, zeros):
        empty = Shift.from_forbidden(zeros.alphabet, ("0", "1"))
        d = image_included(xor_ca(), empty, zeros)
        assert d.verdict is True and d.witness is None


def _common_context(x, t, wit, m_max=10):
    """A pair (left, right) of constant contexts such that, for every
    m <= m_max, left^m w right^m is a block of ``x.origin`` for both words
    w of the diamond and the two extended words have equal table images;
    None when no such pair exists.  Never reads the acceptor."""
    wa, wb = wit.first.word.ranks(), wit.second.word.ranks()
    for left, right in itertools.product(range(len(x.alphabet)), repeat=2):
        if all(origin_contains(x, (left,) * m + w + (right,) * m)
               for m in range(m_max + 1) for w in (wa, wb)) and all(
                table_image(t, (left,) * m + wa + (right,) * m)
                == table_image(t, (left,) * m + wb + (right,) * m)
                for m in range(m_max + 1)):
            return x.alphabet.symbols[left], x.alphabet.symbols[right]
    return None


class TestExactPreInjectivity:
    """Pre-injectivity on domains without unique presenting paths: the
    pair graph of the acceptor part searched for a flagged pair in the tail
    set, each refutation checked against ``x.origin`` alone."""

    def test_seed_993_on_even(self, even):
        # a surjective endomorphism of the even shift that is not
        # pre-injective: the Moore property fails on this strongly
        # irreducible sofic shift
        t = random_ca(even.alphabet, even.alphabet, (0, 3), 993)
        d = is_pre_injective(t, even)
        assert d.verdict is False and d.scope == "point"
        assert is_surjective(t, even, even).verdict is True
        a, b = d.witness.first.word, d.witness.second.word
        assert (a.text, b.text) == ("111011011", "111100011")
        for m in range(11):
            ea = (1,) * m + a.ranks() + (0,) * m
            eb = (1,) * m + b.ranks() + (0,) * m
            assert origin_contains(even, ea) and origin_contains(even, eb)
            assert table_image(t, ea) == table_image(t, eb)
        assert table_image(t, a.ranks()) == table_image(t, b.ranks()) \
            == d.witness.image.ranks()

    def test_width3_refutations_on_even(self, even):
        a = even.alphabet
        refuted = 0
        for table in itertools.product(a.symbols, repeat=8):
            t = CellularAutomaton(a, a, 0, 2, table)
            d = is_pre_injective(t, even)
            assert d.scope == "point"
            if d.verdict:
                continue
            refuted += 1
            wa, wb = d.witness.first.word, d.witness.second.word
            assert wa != wb and len(wa) == len(wb)
            assert wa.text[:2] == wb.text[:2] and wa.text[-2:] == wb.text[-2:]
            assert table_image(t, wa.ranks()) == d.witness.image.ranks()
            assert _common_context(even, t, d.witness) is not None, table
        assert refuted == 140

    def test_constant_rule_on_even(self, even):
        d = is_pre_injective(constant_ca(even.alphabet, "0"), even)
        assert d.verdict is False and d.scope == "point"
        w = d.witness
        assert (w.first.word.text, w.second.word.text, w.image.text) \
            == ("0", "1", "0")

    def test_golden_diamond_ends_before_the_diagonal(self, golden):
        # the diamond stops at the tail pair (00, 10) of the recoded
        # graph; one identical step more, on "0", reaches the diagonal,
        # where a diagonal-to-diagonal search would stop: 0000 vs 0100
        a = golden.alphabet
        t = CellularAutomaton(a, a, 0, 1, ("0",) * 4)
        d = is_pre_injective(t, golden)
        assert d.verdict is False
        wa, wb = d.witness.first.word.text, d.witness.second.word.text
        assert (wa, wb, d.witness.image.text) == ("000", "010", "00")
        assert wa[-2:] != wb[-2:] and wa[-1] == wb[-1]
        assert _common_context(golden, t, d.witness) == ("0", "0")


class TestComputedOncePerRule:
    """One (rule, domain) pair is recoded, searched and imaged once, however
    many verdicts read the results."""

    @staticmethod
    def _count(monkeypatch, module, names, calls=None):
        calls = {} if calls is None else calls
        calls.update(dict.fromkeys(names, 0))

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(module, name,
                                counted(name, getattr(module, name)))
        return calls

    def test_ca_analyze_recodes_and_searches_once(self, monkeypatch, capsys):
        import soficlab.ca as ca
        from soficlab.cli import main

        calls = self._count(monkeypatch, ca, ("path_graph", "_diamond_search"))
        assert main(["ca", "analyze", "full2", "xor"]) == 0
        assert "#: surjective 1" in capsys.readouterr().out
        assert calls == {"path_graph": 1, "_diamond_search": 1}

    def test_sofic_search_runs_once(self, monkeypatch, capsys):
        # identity on the even shift: one pair-graph search decides, at
        # point scope, and one pass finds its tail set
        import soficlab.ca as ca
        from soficlab.cli import main

        calls = self._count(monkeypatch, ca,
                            ("_diamond_search", "_tail_pairs"))
        assert main(["ca", "analyze", "even", "identity"]) == 0
        assert "#: pre_injective 1 point" in capsys.readouterr().out
        assert calls == {"_diamond_search": 1, "_tail_pairs": 1}

    def _count_canonical(self, monkeypatch):
        """Subset constructions and follower reductions run by shifts."""
        import soficlab.dfa as dfa
        import soficlab.shift as shift_mod

        calls = self._count(monkeypatch, dfa, ("determinize",))
        return self._count(monkeypatch, shift_mod, ("follower_reduce",), calls)

    def test_corpus_instance_builds_one_image(self, monkeypatch):
        # the image is not right-resolving: one subset construction for its
        # acceptor, and no reduced presentation, which nothing reads
        x = Shift.from_forbidden(Alphabet(("0", "1")), ())
        calls = self._count_canonical(monkeypatch)
        rep = run_corpus(x, 1, 42, (0, 2))
        assert len(rep.instances) == 1
        assert calls == {"determinize": 1, "follower_reduce": 0}

    def test_shift_analyze_derives_no_reduced_presentation(
            self, monkeypatch, capsys, tmp_path):
        from soficlab.cli import main

        path = tmp_path / "split.shift"
        path.write_text("alphabet: 0 1\ngraph:\n"
                        "edge 0 0 0\nedge 0 1 0\nedge 1 0 1\n")
        calls = self._count_canonical(monkeypatch)
        assert main(["shift", "analyze", str(path)]) == 0
        assert "#: irreducible 1" in capsys.readouterr().out
        assert calls == {"determinize": 1, "follower_reduce": 0}

    def test_sofic_domain_reduces_once(self, monkeypatch, capsys):
        # even's graph is right-resolving: its reduction feeds the acceptor;
        # the image likewise.  The pair graph reads the acceptor part, which
        # needs neither
        from soficlab.cli import main

        calls = self._count_canonical(monkeypatch)
        assert main(["ca", "analyze", "even", "identity"]) == 0
        assert "#: consistent 1" in capsys.readouterr().out
        assert calls == {"determinize": 2, "follower_reduce": 2}

    def test_image_inclusion_searched_once(self, monkeypatch, full2):
        # check_myhill and is_surjective both need the image inside the
        # domain; the rule answers the second from the first
        import soficlab.ca as ca

        calls = self._count(monkeypatch, ca, ("graph_missing",))
        rep = check_myhill(xor_ca(), full2)
        assert rep.surjective.verdict is True
        assert calls == {"graph_missing": 1}

    def test_not_into_target_builds_no_image(self, monkeypatch, even):
        import soficlab.ca as ca

        calls = self._count(monkeypatch, ca, ("image_presentation",))
        with pytest.raises(NotIntoTarget, match="witness '010'"):
            is_surjective(xor_ca(), even, even)
        assert calls == {"image_presentation": 0}

    def test_corpus_instance_product_searches(self, monkeypatch, full2):
        # the image inside the domain is decided on the recoding; only the
        # two sides of the equality check in is_surjective compare
        # acceptors
        import soficlab.dfa as dfa

        calls = self._count(monkeypatch, dfa, ("shortest_missing",))
        rep = run_corpus(full2, 1, 42, (0, 2))
        assert len(rep.instances) == 1
        assert calls == {"shortest_missing": 2}

    def test_rejected_rule_builds_no_image(self, monkeypatch, even):
        # seed 2 at memory 0..2 leaves the even shift (it writes 010): no
        # subset construction, no image shift, no acceptor comparison
        import soficlab.ca as ca
        import soficlab.corpus as corpus
        import soficlab.dfa as dfa

        calls = self._count(monkeypatch, dfa,
                            ("determinize", "shortest_missing"))
        calls = self._count(monkeypatch, ca, ("image_presentation",), calls)
        monkeypatch.setattr(corpus, "image_presentation",
                            ca.image_presentation)
        rep = run_corpus(even, 1, 2, (0, 2))
        assert rep.skipped == 1 and rep.instances == ()
        assert calls == {"determinize": 0, "shortest_missing": 0,
                         "image_presentation": 0}
