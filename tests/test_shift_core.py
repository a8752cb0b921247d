"""Shift construction, language queries, recodings, and their invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import block_counts_by_extension
from soficlab import (Alphabet, AlphabetMismatch, LabeledGraph, Shift,
                      block_counts, entropy_spectral, equal_shifts,
                      higher_block, language_included)

BITS = Alphabet(("0", "1"))


class TestAlphabetAndWords:
    def test_rejects_duplicate_symbols(self):
        with pytest.raises(ValueError):
            Alphabet(("0", "0"))

    def test_word_from_string_round_trip(self):
        w = BITS.word("0110")
        assert w.text == "0110"
        assert w.ranks() == (0, 1, 1, 0)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(AlphabetMismatch):
            BITS.word("012")

    def test_multichar_symbols_use_separators(self):
        a = Alphabet(("aa", "bb"))
        w = a.word("aa bb aa")
        assert w.ranks() == (0, 1, 0)
        assert len(a.word("aa")) == 1

    @given(st.lists(st.integers(0, 1), max_size=12))
    def test_rank_round_trip(self, ranks):
        w = BITS.word_from_ranks(ranks)
        assert list(w.ranks()) == ranks


class TestConstruction:
    def test_golden_window_and_presentation(self, golden):
        # vertices of the canonical presentation are the allowed 1-blocks
        assert golden.essential.n_vertices == 2
        assert len(golden.essential.edges) == 3

    def test_full_shift_acceptor_is_one_state(self, full2):
        assert full2.acceptor.n_states == 1
        assert all(t == 0 for t in full2.acceptor.trans[0])

    def test_forbidding_everything_gives_empty(self):
        x = Shift.from_forbidden(BITS, ("0", "1"))
        assert x.is_empty
        assert x.blocks(1) == set()

    def test_graph_kind_has_no_window(self, even):
        # no shift has a window: the map layer reads every domain's
        # acceptor part
        assert not hasattr(even, "window")
        assert even.kind == "sofic"

    def test_run_of_24_forbidden(self):
        # 2^23 blocks of length 23, but 24 states of the matcher: one per
        # count of trailing 1s
        x = Shift.from_forbidden(BITS, ("1" * 24,))
        assert x.essential.n_vertices == 24
        c = block_counts(x, 60)
        for n in range(61):
            assert c[n] == (2 ** n if n < 24 else sum(c[n - 24:n])), n
        # the Perron root is the largest root of x^24 - x^23 - ... - 1
        companion = np.zeros((24, 24))
        companion[0, :] = 1
        companion[1:, :-1] = np.eye(23)
        root = max(np.linalg.eigvals(companion).real)
        lo, hi = entropy_spectral(x).params["bracket"]
        assert lo * (1 - 1e-12) <= root <= hi * (1 + 1e-12)

    def test_graph_with_dead_vertices_is_pruned(self):
        # vertex 2 has no return path; the essential part drops it
        g = LabeledGraph(BITS, 3, ((0, 0, 0), (0, 1, 1), (1, 0, 1),
                                   (0, 2, 1)))
        x = Shift.from_graph(g)
        assert x.essential.n_vertices == 2


class TestLanguage:
    # frozen by the prefix-extension oracle
    PINNED = {
        "full2": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
        "golden": [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144],
        "even": [1, 2, 4, 7, 12, 20, 33, 54, 88, 143, 232],
        "twopoint": [1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
        "period2": [1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
        "zeros": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
        "mixnot_2": [1, 2, 4, 8, 15, 27, 48, 86, 155, 279, 501],
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_block_counts_match_oracle(self, shifts, name):
        x = shifts[name]
        assert [len(x.blocks(n)) for n in range(11)] == self.PINNED[name]
        assert block_counts_by_extension(x, 10) == self.PINNED[name]

    def test_contains_word(self, golden):
        assert golden.contains_word("0101")
        assert not golden.contains_word("0110")

    @pytest.mark.parametrize(
        "name", ("full2", "golden", "even", "twopoint", "period2", "zeros"))
    def test_factorial_and_extendable(self, shifts, name):
        # every subword of an allowed word is allowed, and every allowed
        # word extends on both sides; exhaustive to length 8
        x = shifts[name]
        if x.is_empty:
            return
        syms = x.alphabet.symbols
        for n in range(1, 9):
            for w in x.blocks(n):
                t = w.text
                assert x.contains_word(t[1:]) and x.contains_word(t[:-1])
                assert any(x.contains_word(a + t + b)
                           for a in syms for b in syms)

    @given(st.integers(0, 3), st.integers(0, 500))
    def test_golden_blocks_avoid_adjacent_ones(self, n_extra, pick):
        golden = Shift.from_forbidden(BITS, ("11",))
        blocks = sorted(golden.blocks(4 + n_extra), key=lambda w: w.ranks())
        w = blocks[pick % len(blocks)]
        assert "11" not in w.text


class TestComparison:
    def test_equal_across_presentations(self, golden):
        g = LabeledGraph(BITS, 2, ((0, 0, 0), (0, 1, 1), (1, 0, 0)))
        assert equal_shifts(golden, Shift.from_graph(g)).verdict

    def test_unequal_with_shortest_witness(self, golden, full2):
        d = equal_shifts(golden, full2)
        assert d.verdict is False
        assert d.witness.text == "11"

    def test_inclusion_directions(self, golden, full2):
        assert language_included(golden, full2).verdict is True
        d = language_included(full2, golden)
        assert d.verdict is False and d.witness.text == "11"

    def test_alphabet_mismatch_rejected(self, golden):
        y = Shift.from_forbidden(Alphabet(("a", "b")), ())
        with pytest.raises(AlphabetMismatch):
            equal_shifts(golden, y)


class TestHigherBlock:
    @pytest.mark.parametrize("k", (1, 2, 3))
    @pytest.mark.parametrize("name", ("golden", "even", "full2"))
    def test_block_counts_shift_by_k_minus_one(self, shifts, name, k):
        x = shifts[name]
        y, _, _ = higher_block(x, k)
        for n in range(1, 9):
            assert len(y.blocks(n)) == len(x.blocks(n + k - 1))

    def test_golden_2_block_alphabet(self, golden):
        y, _, _ = higher_block(golden, 2)
        assert len(y.alphabet) == 3  # the allowed 2-blocks 00, 01, 10

    @pytest.mark.parametrize("k", (2, 3))
    def test_encode_decode_round_trip(self, golden, k):
        y, enc, dec = higher_block(golden, k)
        for w in golden.blocks(6):
            coded = enc.apply(w)
            assert y.contains_word(coded)
            # decode picks the first letter of each block
            assert dec.apply(coded).text == w.text[:len(w) - (k - 1)]


class TestAcceptorCanonicity:
    @pytest.mark.parametrize(
        "name", ("full2", "golden", "even", "twopoint", "zeros"))
    def test_acceptor_is_a_fixed_point(self, shifts, name):
        # re-running subset construction + minimization on the acceptor
        # must not change it
        from soficlab.dfa import determinize, minimize, to_graph
        x = shifts[name]
        d = x.acceptor
        again = minimize(determinize(to_graph(d)))
        assert again.trans == d.trans

    def test_even_acceptor_size(self, even):
        # follower automaton: fresh/complete-run state, left-open 1-run,
        # closed odd 1-run
        assert even.acceptor.n_states == 3
        # all three are essential: the fresh state loops on 1
        assert even.deterministic.n_vertices == 3
