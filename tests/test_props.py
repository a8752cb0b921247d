"""Irreducibility, mixing, uniform-gap certificates, and gluing."""

import random

import pytest

from oracles import (fill_exists, gap_failure_pair, minimal_gap_bruteforce,
                     words_up_to)
from soficlab import (CapExceeded, ConfigurationWindow, EmptyShift,
                      GlueRequest, MixingReport, NotMixing,
                      SeparationTooSmall, Shift, SiCertificate, Alphabet,
                      gap_witness, glue, higher_block, is_irreducible,
                      is_mixing, is_strongly_irreducible, minimal_gap,
                      si_certificate, synchronized_cover, synchronizing_word)

BITS = Alphabet(("0", "1"))


class TestIrreducible:
    @pytest.mark.parametrize("name", ("full2", "golden", "even",
                                      "mixnot_2", "zeros", "period2"))
    def test_true_cases(self, shifts, name):
        assert is_irreducible(shifts[name]).verdict is True

    def test_two_point_counterexample(self, twopoint):
        d = is_irreducible(twopoint)
        assert d.verdict is False
        u, v = d.witness
        # no word of the language contains both symbols
        assert {u.text, v.text} == {"0", "1"}

    def test_witness_is_honest(self, twopoint):
        u, v = is_irreducible(twopoint).witness
        for n in range(5):
            assert not fill_exists(twopoint, u.text, v.text, n)

    def test_empty_shift_is_vacuously_irreducible(self):
        x = Shift.from_forbidden(BITS, ("0", "1"))
        assert is_irreducible(x).verdict is True


class TestMixing:
    def test_period_two_alternation_is_not_mixing(self, period2):
        rep = is_mixing(period2)
        assert rep.irreducible and not rep.mixing
        assert rep.cycle_gcd == 2
        # witness: two language words that can only meet at one parity
        assert rep.witness is not None

    @pytest.mark.parametrize("name,gcd", (("full2", 1), ("golden", 1),
                                          ("even", 1), ("zeros", 1)))
    def test_mixing_cases(self, shifts, name, gcd):
        rep = is_mixing(shifts[name])
        assert rep.mixing and rep.cycle_gcd == gcd

    def test_not_irreducible_implies_not_mixing(self, twopoint):
        rep = is_mixing(twopoint)
        assert not rep.irreducible and not rep.mixing


class TestSynchronizingWord:
    @pytest.mark.parametrize("name", ("full2", "golden", "even", "zeros"))
    def test_sync_word_collapses_acceptor(self, shifts, name):
        x = shifts[name]
        wit = synchronizing_word(x)
        d = x.acceptor
        targets = set()
        for q in range(d.n_states):
            cur = q
            for a in wit.word.ranks():
                cur = d.trans[cur][a]
                if cur == -1:
                    break
            else:
                targets.add(cur)
        assert len(targets) == 1

    def test_adversarial_presentation_still_syncs(self, golden):
        # disjoint union of a golden presentation and a period-2 cycle
        # presenting a sublanguage; no word synchronizes this graph itself,
        # but the language equals golden and its acceptor synchronizes
        from soficlab import LabeledGraph, equal_shifts
        g = LabeledGraph(BITS, 4, ((0, 0, 0), (0, 1, 1), (1, 0, 0),
                                   (2, 3, 0), (3, 2, 1)))
        x = Shift.from_graph(g)
        assert equal_shifts(x, golden).verdict
        assert synchronizing_word(x).word.text == synchronizing_word(golden).word.text


class TestCertificates:
    # frozen: (l0, n0, L0, D, N0_bound)
    PINNED = {
        "full2": (0, 0, 0, 0, 0),
        "zeros": (0, 0, 0, 0, 0),
        "golden": (1, 1, 2, 1, 4),
        "even": (1, 0, 1, 1, 3),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_certificates(self, shifts, name):
        cert = si_certificate(shifts[name])
        got = (cert.sync.length, cert.n0, cert.L0, cert.D, cert.N0_bound)
        assert got == self.PINNED[name]

    @pytest.mark.parametrize("name", ("full2", "golden", "even", "zeros",
                                      "mixnot_2", "mixnot_3"))
    def test_certificate_gap_really_works(self, shifts, name):
        # the contract: any two language words can be glued at every
        # separation >= N0_bound; exhaustive for short words, direct fills
        x = shifts[name]
        cert = si_certificate(x)
        probe_words = words_up_to(x, 4)
        lo = cert.N0_bound
        for u in probe_words:
            for v in probe_words:
                for n in range(lo, min(lo + 3, 2 * max(lo, 1)) + 1):
                    assert gap_witness(x, x.word(u), x.word(v), n) is not None

    @pytest.mark.parametrize("name", ("twopoint", "period2"))
    def test_refused_without_mixing(self, shifts, name):
        with pytest.raises(NotMixing):
            si_certificate(shifts[name])

    def test_bound_dominates_exact_gap(self, shifts):
        for name in ("full2", "golden", "even", "mixnot_2", "mixnot_3"):
            x = shifts[name]
            assert si_certificate(x).N0_bound >= minimal_gap(x)


class TestStrongIrreducibility:
    def test_verdicts(self, shifts):
        expected = {"full2": True, "golden": True, "even": True,
                    "zeros": True, "twopoint": False, "period2": False,
                    "mixnot_2": True, "mixnot_5": True}
        for name, want in expected.items():
            d = is_strongly_irreducible(shifts[name])
            assert d.verdict is want, name
            if want:
                assert isinstance(d.witness, SiCertificate)
            else:
                assert isinstance(d.witness, MixingReport)

    @pytest.mark.parametrize("k", (1, 2, 3))
    @pytest.mark.parametrize("name", ("full2", "golden", "even", "twopoint",
                                      "period2", "mixnot_2"))
    def test_invariant_under_block_recoding(self, shifts, name, k):
        x = shifts[name]
        y, _, _ = higher_block(x, k)
        assert (is_strongly_irreducible(y).verdict
                == is_strongly_irreducible(x).verdict)


class TestMinimalGap:
    # frozen against the per-pair layered oracle
    PINNED = {"full2": 0, "golden": 1, "even": 2, "zeros": 0,
              "mixnot_2": 4, "mixnot_3": 6, "mixnot_4": 8, "mixnot_5": 10}

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_values(self, shifts, name):
        assert minimal_gap(shifts[name]) == self.PINNED[name]

    @pytest.mark.parametrize("name", ("full2", "golden", "even", "zeros"))
    def test_agrees_with_bruteforce_short_words(self, shifts, name):
        got, pair = minimal_gap_bruteforce(shifts[name], max_word_len=5)
        assert got == self.PINNED[name], pair

    @pytest.mark.parametrize("name,wl", (("mixnot_2", 7), ("mixnot_3", 9),
                                         ("mixnot_4", 9), ("mixnot_5", 10)))
    def test_mixnot_agrees_with_bruteforce(self, shifts, name, wl):
        # word pool covers the attaining pairs (u = 0 1^K 0, v = 101)
        x = shifts[name]
        got, pair = minimal_gap_bruteforce(x, max_word_len=wl,
                                           probe=4 * x.acceptor.n_states)
        assert got == self.PINNED[name], pair

    def test_golden_layer_oracle_matches_word_enumeration(self, golden):
        # ties the set-based oracle itself to literal word enumeration
        for u in words_up_to(golden, 3):
            for v in words_up_to(golden, 3):
                for n in range(6):
                    direct = fill_exists(golden, u, v, n)
                    via_witness = gap_witness(
                        golden, golden.word(u), golden.word(v), n) is not None
                    assert direct == via_witness

    def test_not_mixing_raises_with_pair(self, period2):
        with pytest.raises(NotMixing) as exc:
            minimal_gap(period2)
        assert "period" in str(exc.value)
        # the oracle finds a genuinely failing pair too
        assert gap_failure_pair(period2, 2) is not None

    def test_empty_raises(self):
        with pytest.raises(EmptyShift):
            minimal_gap(Shift.from_forbidden(BITS, ("0", "1")))


class TestGapWitness:
    def test_pinned_fills(self, golden, even):
        w = gap_witness(golden, golden.word("1"), golden.word("1"), 1)
        assert w.text == "0"
        w = gap_witness(even, even.word("10"), even.word("01"), 2)
        assert w.text == "00"

    def test_infeasible_returns_none(self, golden):
        assert gap_witness(golden, golden.word("1"), golden.word("1"), 0) is None

    def test_rejects_foreign_words(self, golden):
        from soficlab import WordNotInLanguage
        with pytest.raises(WordNotInLanguage):
            gap_witness(golden, golden.word("11"), golden.word("0"), 3)

    @pytest.mark.parametrize("name", ("golden", "even", "mixnot_2"))
    def test_every_fill_verifies(self, shifts, name):
        x = shifts[name]
        pool = words_up_to(x, 4)
        for u in pool[:20]:
            for v in pool[:20]:
                for n in range(0, 7):
                    w = gap_witness(x, x.word(u), x.word(v), n)
                    if w is not None:
                        assert len(w) == n
                        assert x.contains_word(u + w.text + v)


class TestGlue:
    def test_pinned_example(self, golden):
        req = GlueRequest((ConfigurationWindow(0, golden.word("1")),
                           ConfigurationWindow(5, golden.word("1"))), 1)
        out = glue(golden, req)
        assert out.start == 0 and out.word.text == "100001"

    def test_even_pinned(self, even):
        req = GlueRequest((ConfigurationWindow(0, even.word("1")),
                           ConfigurationWindow(5, even.word("1"))), 2)
        assert glue(even, req).word.text == "100001"

    def test_overlapping_parts_rejected(self, golden):
        with pytest.raises(ValueError):
            GlueRequest((ConfigurationWindow(0, golden.word("10")),
                         ConfigurationWindow(1, golden.word("01"))), 1)

    def test_too_small_separation(self, golden):
        req = GlueRequest((ConfigurationWindow(0, golden.word("1")),
                           ConfigurationWindow(1, golden.word("1"))), 1)
        with pytest.raises(SeparationTooSmall):
            glue(golden, req)

    @pytest.mark.parametrize("name", ("golden", "even"))
    def test_randomized_requests(self, shifts, name):
        # 1000 random multi-part requests at the certified separation;
        # every glue must succeed and land in the language
        x = shifts[name]
        sep = si_certificate(x).N0_bound
        rng = random.Random(20260816)
        pool = [w for w in words_up_to(x, 4) if w]
        for _ in range(500):
            parts = []
            pos = 0
            for _ in range(rng.randrange(2, 5)):
                w = pool[rng.randrange(len(pool))]
                pos += rng.randrange(sep, sep + 4)
                parts.append(ConfigurationWindow(pos, x.word(w)))
                pos += len(w)
            req = GlueRequest(tuple(parts), sep)
            out = glue(x, req)
            assert x.contains_word(out.word)
            # the glued word restricted to each part equals that part
            for p in parts:
                off = p.start - out.start
                assert out.word.text[off:off + len(p)] == p.word.text


class TestSynchronizedCover:
    @pytest.mark.parametrize("name", ("golden", "even", "full2", "mixnot_2"))
    def test_cover_presents_the_same_language(self, shifts, name):
        from soficlab import equal_shifts
        x = shifts[name]
        cover, _, _ = synchronized_cover(x)
        assert equal_shifts(x, Shift.from_graph(cover)).verdict

    def test_periodic_language_still_syncs(self, period2):
        # a single symbol pins the phase of the alternation, so the follower
        # automaton synchronizes even though the shift is not mixing
        wit = synchronizing_word(period2)
        assert len(wit.word) == 1
        d = period2.acceptor
        ends = set()
        for q in range(d.n_states):
            cur = q
            for a in wit.word.ranks():
                cur = d.trans[q][a]
            if cur != -1:
                ends.add(cur)
        assert len(ends) == 1


class TestComputedOncePerShift:
    """One ``shift analyze`` builds each derived invariant once, however many
    verdicts read it."""

    def test_shift_analyze_runs_each_invariant_once(self, tmp_path,
                                                    monkeypatch, capsys):
        import sys

        import soficlab.props as props
        from soficlab.cli import main
        from soficlab.graph import strongly_connected_components as scc

        calls = {"backward_subsets": 0, "subgraph": 0, "to_graph": 0,
                 "scc": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # in props, subgraph only cuts the synchronized cover out of the
        # acceptor graph, and to_graph only graphs the acceptor
        for name in ("backward_subsets", "subgraph", "to_graph"):
            monkeypatch.setattr(props, name, counted(name, getattr(props, name)))
        # every package module that imported the condensation pass
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("soficlab") and \
                    vars(mod).get("strongly_connected_components") is scc:
                monkeypatch.setattr(mod, "strongly_connected_components",
                                    counted("scc", scc))
        path = tmp_path / "even.shift"
        path.write_text("alphabet: 0 1\ngraph:\nedge 0 0 0\nedge 0 1 1\n"
                        "edge 1 0 1\n")
        assert main(["shift", "analyze", str(path),
                     "--minimal-gap", "64"]) == 0
        assert "#: minimal_gap" in capsys.readouterr().out
        assert calls == {"backward_subsets": 1, "subgraph": 1, "to_graph": 1,
                         "scc": 1}
