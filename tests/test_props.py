"""Irreducibility, mixing, uniform-gap certificates, and gluing."""

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (fill_exists, gap_failure_pair, irreducible_by_reach,
                     minimal_gap_bruteforce, sink_period, unjoinable,
                     words_up_to)
from soficlab import (CapExceeded, ConfigurationWindow, EmptyShift,
                      GlueRequest, LabeledGraph, MixingReport, NoSyncWord,
                      NotMixing, SeparationTooSmall, Shift, SiCertificate,
                      Alphabet, gap_witness, glue, higher_block,
                      is_irreducible, is_mixing, is_strongly_irreducible,
                      minimal_gap, si_certificate, synchronized_cover,
                      synchronizing_word)

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
        # a reducible shift has no synchronized cover, so no cycle gcd
        assert rep.cycle_gcd == 0 and rep.note == "not irreducible"
        with pytest.raises(NoSyncWord):
            synchronized_cover(twopoint)


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


@st.composite
def graph_shift_unions(draw):
    """The disjoint union of one or two graphs drawn like the benchmark's
    graph files, smaller: 2-3 letters, 3-8 vertices each, a spanning cycle
    plus up to two further out-edges per vertex.  A bare cycle is
    periodic, and a union of two is often reducible."""
    k = draw(st.integers(2, 3))
    label = st.integers(0, k - 1)
    edges, n_total = [], 0
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(3, 8))
        edges += [(n_total + v, n_total + (v + 1) % n, draw(label))
                  for v in range(n)]
        for v in range(n):
            edges += [(n_total + v, n_total + draw(st.integers(0, n - 1)),
                       draw(label)) for _ in range(draw(st.integers(0, 2)))]
        n_total += n
    alphabet = Alphabet(tuple(str(a) for a in range(k)))
    return Shift.from_graph(LabeledGraph(alphabet, n_total, tuple(edges)))


@st.composite
def small_sfts(draw):
    """Up to five forbidden words of length 1-4 over 2-3 letters; forbidding
    one switch between two letters leaves a reducible shift."""
    k = draw(st.integers(2, 3))
    letters = "012"[:k]
    words = draw(st.lists(st.text(letters, min_size=1, max_size=4),
                          max_size=5))
    return Shift.from_forbidden(Alphabet(tuple(letters)), words)


def _component_of(trans, v):
    """The states of a partial table that reach ``v`` and that ``v``
    reaches: one forward search from ``v`` and one from each state it
    reaches."""
    def reach(s):
        seen, todo = {s}, [s]
        while todo:
            for t in trans[todo.pop()]:
                if t != -1 and t not in seen:
                    seen.add(t)
                    todo.append(t)
        return seen
    ahead = reach(v)
    return sorted(q for q in ahead if v in reach(q))


class TestCoverIsTheSinkComponent:
    """The cover is the acceptor's sink component, found without the
    whole-acceptor sync search; it agrees with that search on every
    irreducible shift, and a shift that is not irreducible has no cover."""

    @given(graph_shift_unions())
    @settings(max_examples=300, deadline=None)
    def test_cover_agrees_with_whole_acceptor_search(self, x):
        if is_irreducible(x).verdict:
            cover, old, sync = synchronized_cover(x)
            whole = synchronizing_word(x)
            assert list(old) == _component_of(x.acceptor.trans, whole.vertex)
            assert cover.n_vertices == len(old)
            assert sync == whole
        else:
            rep = is_mixing(x)
            assert (rep.irreducible, rep.cycle_gcd, rep.mixing) == (
                False, 0, False)
            assert rep.note == "not irreducible"
            with pytest.raises(NoSyncWord):
                synchronized_cover(x)


class TestSinkAgreesWithReachOracle:
    """Irreducibility and the period read the acceptor's sink component;
    the oracle closes the reach of every state and counts closed walks."""

    @given(st.one_of(graph_shift_unions(), small_sfts()))
    @settings(max_examples=300, deadline=None)
    def test_verdicts_witnesses_and_period(self, x):
        dec, rep = is_irreducible(x), is_mixing(x)
        assert dec.verdict == rep.irreducible == irreducible_by_reach(x)
        if not dec.verdict:
            u, v = dec.witness
            assert x.contains_word(u) and x.contains_word(v)
            assert unjoinable(x, u, v)
            return
        if x.is_empty:
            return
        sink, g = sink_period(x)
        assert (rep.cycle_gcd, rep.mixing) == (g, g == 1)
        if g == 1:
            return
        # each move in the sink advances its period class by one
        phase = {q: i for i, c in enumerate(rep.witness) for q in c}
        assert len(rep.witness) == g and phase.keys() == sink
        assert phase[min(sink)] == 0
        for q in sink:
            for t in x.acceptor.trans[q]:
                if t != -1:
                    assert phase[t] == (phase[q] + 1) % g


def _counting(calls, name, fn):
    """``fn``, adding one to ``calls[name]`` on each call."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class TestComputedOncePerShift:
    """One ``shift analyze`` builds each derived invariant once, however many
    verdicts read it."""

    def test_shift_analyze_runs_each_invariant_once(self, tmp_path,
                                                    monkeypatch, capsys):
        import sys

        import soficlab.dfa as dfa
        import soficlab.props as props
        from soficlab.cli import main
        from soficlab.graph import strongly_connected_components as scc
        from soficlab.shiftio import parse_shift_file

        calls = {"backward_subsets": 0, "shortest_sync": 0, "to_graph": 0,
                 "scc": 0}

        # the invariants read the acceptor's table, so no graph of the
        # acceptor is built (the shift makes one only through dfa.to_graph),
        # and the cover's sync search is the only one
        for name in ("backward_subsets", "shortest_sync"):
            monkeypatch.setattr(props, name,
                                _counting(calls, name, getattr(props, name)))
        monkeypatch.setattr(dfa, "to_graph",
                            _counting(calls, "to_graph", dfa.to_graph))
        path = tmp_path / "even.shift"
        path.write_text("alphabet: 0 1\ngraph:\nedge 0 0 0\nedge 0 1 1\n"
                        "edge 1 0 1\n")
        # the condensation pass runs on the acceptor (3 states) and, for
        # irreducibility and mixing, on the essential graph (2 vertices);
        # each counts under its own name
        x = parse_shift_file(str(path))
        which = {x.acceptor.n_states: "scc",
                 x.essential.n_vertices: "essential_scc"}
        assert len(which) == 2
        calls["essential_scc"] = 0

        def counted_scc(adj):
            calls[which[len(adj)]] += 1
            return scc(adj)

        # every package module that imported the condensation pass
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("soficlab") and \
                    vars(mod).get("strongly_connected_components") is scc:
                monkeypatch.setattr(mod, "strongly_connected_components",
                                    counted_scc)
        assert main(["shift", "analyze", str(path),
                     "--minimal-gap", "64"]) == 0
        assert "#: minimal_gap" in capsys.readouterr().out
        assert calls == {"backward_subsets": 1, "shortest_sync": 1,
                         "to_graph": 0, "scc": 1, "essential_scc": 1}

    def test_corpus_instance_runs_one_sync_search(self, monkeypatch):
        # the domain's certificate is the only reader of the cover; the
        # image's mixing verdict reads its acceptor's sink directly
        import soficlab.props as props
        from soficlab import run_corpus

        calls = {"shortest_sync": 0, "LabeledGraph": 0}
        for name in calls:
            monkeypatch.setattr(props, name,
                                _counting(calls, name, getattr(props, name)))
        full2 = Shift.from_forbidden(BITS, ())
        rep = run_corpus(full2, 1, 42, (0, 2))
        assert rep.skipped == 0 and not rep.contradictions
        assert calls == {"shortest_sync": 1, "LabeledGraph": 1}

    def test_full_shift_corpus_runs_no_backward_family(self, monkeypatch):
        # the domain and the image are both presented by primitive graphs,
        # so neither irreducibility verdict reads the acceptor
        import soficlab.props as props
        from soficlab import run_corpus

        calls = {"backward_subsets": 0}
        monkeypatch.setattr(props, "backward_subsets", _counting(
            calls, "backward_subsets", props.backward_subsets))
        full2 = Shift.from_forbidden(BITS, ())
        rep = run_corpus(full2, 1, 42, (0, 2))
        assert len(rep.instances) == 1 and rep.instances[0].image_si
        assert calls == {"backward_subsets": 0}


class TestPresentationAgreesWithSink:
    """Irreducibility and mixing read off a strongly connected essential
    graph agree with the verdicts read off the acceptor's sink alone."""

    @given(st.one_of(graph_shift_unions(), small_sfts()))
    @example(Shift.from_graph(LabeledGraph(BITS, 2, ((0, 0, 0), (1, 1, 1)))))
    @example(Shift.from_graph(LabeledGraph(BITS, 2, ((0, 1, 0), (1, 0, 1)))))
    @example(Shift.from_forbidden(BITS, ("111",)))
    @settings(max_examples=300, deadline=None)
    def test_routes_agree(self, x):
        import soficlab.props as props

        fast = (is_irreducible(x), is_mixing(x))
        again = Shift(x.origin, x.kind, x.essential)
        with mock.patch.object(props, "_essential_period", lambda y: 0):
            assert (is_irreducible(again), is_mixing(again)) == fast

    @pytest.mark.parametrize("shift,period", (
        # two loops: reducible, with the presentation no larger than the
        # acceptor, so the component count decides
        (Shift.from_graph(LabeledGraph(BITS, 2, ((0, 0, 0), (1, 1, 1)))), 0),
        # one 2-cycle: strongly connected, period 2
        (Shift.from_graph(LabeledGraph(BITS, 2, ((0, 1, 0), (1, 0, 1)))), 2),
        (Shift.from_forbidden(BITS, ()), 1),
        # no 111 on its 4 blocks of length 2, against an acceptor of 3
        # states: not tried
        (Shift.from_graph(LabeledGraph(BITS, 4, (
            (0, 0, 0), (0, 1, 1), (1, 2, 0), (1, 3, 1),
            (2, 0, 0), (2, 1, 1), (3, 2, 0)))), 0),
    ))
    def test_both_branches_run(self, shift, period):
        from soficlab.props import _essential_period

        assert _essential_period(shift) == period
