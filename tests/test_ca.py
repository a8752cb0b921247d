"""Sliding-block maps: local application, the pair-graph decisions for
injectivity and pre-injectivity, image presentations, surjectivity with
garden-of-eden witnesses, and the bundled example pairs end to end."""

import functools
import itertools

import pytest

from soficlab import (Alphabet, CellularAutomaton, Word,
                      apply_to_word, pair_graph, is_pre_injective,
                      is_injective, is_surjective, image_presentation,
                      check_myhill, check_entropy_preservation,
                      random_ca, identity_ca, constant_ca, xor_ca,
                      search_moore_counterexample,
                      run_corpus, run_bundled_examples, instance_lines,
                      bundled_ca,
                      equal_shifts, language_included, block_counts,
                      AlphabetMismatch, NotEndomorphism, NotIntoTarget,
                      Shift, TableTooLarge, WordTooShort)

from oracles import missing_preimage, origin_contains


def or_rule(a):
    return CellularAutomaton.from_rule(a, a, 0, 1,
                                       lambda c: "1" if "1" in c else "0")


class TestApply:

    def test_xor_word(self, full2):
        assert apply_to_word(xor_ca(), full2.word("0110")).text == "101"
        assert apply_to_word(xor_ca(), full2.word("00")).text == "0"

    def test_width_one_keeps_length(self, full2):
        c0 = constant_ca(full2.alphabet, "0")
        assert apply_to_word(c0, full2.word("1011")).text == "0000"

    def test_identity(self, golden):
        i = identity_ca(golden.alphabet)
        assert apply_to_word(i, golden.word("10010")).text == "10010"

    def test_short_word_rejected(self, full2):
        with pytest.raises(WordTooShort):
            apply_to_word(xor_ca(), full2.word("0"))

    def test_from_rule_table(self, full2):
        t = or_rule(full2.alphabet)
        assert t.table == ("0", "1", "1", "1")
        assert apply_to_word(t, full2.word("0100")).text == "110"


class TestPairGraph:

    def test_diagonal_pairs_present(self, full2):
        pg = pair_graph(xor_ca(), full2)
        assert pg.width == 2 and pg.exact
        diag = [e for e in pg.edges if not e[4]]
        assert diag  # equal-block pairs always map to equal symbols

    def test_sofic_domain_not_exact(self, even):
        pg = pair_graph(xor_ca(), even)
        assert not pg.exact

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
            ia = apply_to_word(t, wa) if len(wa) >= k else None
            if ia is not None:
                assert ia.text == apply_to_word(t, wb).text == d.witness.image.text

    def test_sofic_domain_scope(self, even):
        d = is_pre_injective(xor_ca(), even)
        assert d.verdict is True and d.scope == "presentation"
        assert "pair-graph criterion" in d.note

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
            ia = apply_to_word(xor_ca(), w.first)
            ib = apply_to_word(xor_ca(), w.second)
            assert ia.text == ib.text == w.image.text

    def test_xor_on_even_periodic_pair(self, even):
        d = is_injective(xor_ca(), even)
        assert d.verdict is False
        assert d.witness.left_period == 2 and d.witness.right_period == 2

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


class TestImagePresentation:

    def test_const_image_is_single_point(self, full2, zeros):
        img = image_presentation(constant_ca(full2.alphabet, "0"), full2,
                                 self_check_n=6)
        assert equal_shifts(img, zeros).verdict is True

    def test_identity_image_is_domain(self, golden):
        img = image_presentation(identity_ca(golden.alphabet), golden,
                                 self_check_n=7)
        assert equal_shifts(img, golden).verdict is True

    def test_xor_full_image_is_full(self, full2):
        img = image_presentation(xor_ca(), full2, self_check_n=7)
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
        img = image_presentation(xor_ca(), even, self_check_n=8)
        assert img.contains_word(img.word("010"))
        assert equal_shifts(img, full2).verdict is False


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
        # re-verify the witness independently: scan all candidate domain
        # words of the matching length
        t = or_rule(full2.alphabet)
        d = is_surjective(t, full2, full2)
        goe = d.witness
        n = len(goe)
        for w in full2.blocks(n + 1):
            assert apply_to_word(t, w).text != goe.text

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

    def test_workers_agree(self, golden):
        seq = run_corpus(golden, count=8, seed=3, memory=(0, 1), workers=1)
        par = run_corpus(golden, count=8, seed=3, memory=(0, 1), workers=2)
        assert instance_lines(seq) == instance_lines(par)

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


@functools.lru_cache(maxsize=None)
def _origin_blocks(x, n):
    """Rank words of length ``n`` of ``x``, lexicographic, decided from
    ``x.origin`` alone (never the acceptor)."""
    return [w for w in itertools.product(range(len(x.alphabet)), repeat=n)
            if origin_contains(x, w)]


def _table_image(t, ranks):
    """Slide the rule table across a rank word, by hand."""
    k, na = t.width, len(t.source)
    out = []
    for i in range(len(ranks) - k + 1):
        r = 0
        for a in ranks[i:i + k]:
            r = r * na + a
        out.append(t.target.index(t.table[r]))
    return tuple(out)


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
                    images = {_table_image(t, u)
                              for u in _origin_blocks(x, n + t.width - 1)}
                    orphans = [w for w in _origin_blocks(x, n)
                               if w not in images]
                    if n < len(goe):
                        assert orphans == [], (memory, seed)
                    else:
                        assert orphans[0] == goe, (memory, seed)
        assert checked >= 50


class TestSoficRefutation:
    """The point-level search on a domain without unique presenting paths
    (here the even shift) returns a genuine equal-image pair."""

    def test_constant_rule_on_even(self, even):
        from soficlab.ca import _sofic_refutation

        t = constant_ca(even.alphabet, "0")
        wit = _sofic_refutation(t, even, pair_graph(t, even))
        a, b = wit.first.word, wit.second.word
        assert (a.text, b.text, wit.image.text) == ("01100", "00000", "00000")
        assert a != b and len(a) == len(b)
        assert origin_contains(even, a.ranks())
        assert origin_contains(even, b.ranks())
        # the sync word "0" is the loop at the synchronized state and the
        # tail, so both words are pad + middle + tail + pad with pad = "0"
        assert a.text[:1] == b.text[:1] == "0"
        assert a.text[-2:] == b.text[-2:] == "00"
        assert _table_image(t, a.ranks()) == _table_image(t, b.ranks()) \
            == wit.image.ranks()


class TestComputedOncePerRule:
    """One (rule, domain) pair is recoded, searched and imaged once, however
    many verdicts read the results."""

    @staticmethod
    def _count(monkeypatch, module, names):
        calls = dict.fromkeys(names, 0)

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
        # identity on the even shift: no diamond, a domain without unique
        # presenting paths, so the point-level search decides
        import soficlab.ca as ca
        from soficlab.cli import main

        calls = self._count(monkeypatch, ca, ("_sofic_refutation",))
        assert main(["ca", "analyze", "even", "identity"]) == 0
        assert "#: pre_injective 1 presentation" in capsys.readouterr().out
        assert calls == {"_sofic_refutation": 1}

    def test_corpus_instance_builds_one_image(self, monkeypatch):
        import soficlab.shift as shift_mod

        x = shift_mod.Shift.from_forbidden(Alphabet(("0", "1")), ())
        calls = self._count(monkeypatch, shift_mod, ("determinize_minimize",))
        rep = run_corpus(x, 1, 42, (0, 2))
        assert len(rep.instances) == 1
        assert calls == {"determinize_minimize": 1}

    def test_image_inclusion_searched_once(self, monkeypatch, full2):
        # check_myhill and is_surjective both need the image inside the
        # domain; the rule answers the second from the first
        import soficlab.ca as ca

        calls = self._count(monkeypatch, ca, ("language_included",))
        rep = check_myhill(xor_ca(), full2)
        assert rep.surjective.verdict is True
        assert calls == {"language_included": 1}

    def test_corpus_instance_product_searches(self, monkeypatch, full2):
        # one search for the image inside the domain, then the two sides
        # of the equality check in is_surjective
        import soficlab.dfa as dfa

        calls = self._count(monkeypatch, dfa, ("shortest_missing",))
        rep = run_corpus(full2, 1, 42, (0, 2))
        assert len(rep.instances) == 1
        assert calls == {"shortest_missing": 3}
