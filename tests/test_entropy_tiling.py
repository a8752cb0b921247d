"""Entropy via block counts and via the Perron root, plus the stride-k
tiling arithmetic and the counting bounds built on it."""

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soficlab.entropy as entropy
from soficlab import (Alphabet, Shift, block_count, block_counts,
                      entropy_blocks, entropy_spectral, entropy_compare,
                      FolnerWindow, TilingSpec, tiling_Z,
                      tiling_density,
                      pattern_exclusion_bound, positivity_lower_bound,
                      si_certificate, CapExceeded, CertificateMissing,
                      NotSubshift, WindowTooSmall, WordNotInLanguage,
                      bundled_shift,
                      image_presentation, random_ca)

from oracles import block_counts_by_extension, count_block, dense_bracket

LN2 = math.log(2.0)
LN_PHI = math.log((1.0 + math.sqrt(5.0)) / 2.0)


class TestBlockCounts:

    def test_pinned_counts(self, shifts):
        assert block_count(shifts["full2"], 10) == 1024
        assert block_count(shifts["golden"], 5) == 13
        assert block_count(shifts["twopoint"], 100) == 2
        assert block_count(shifts["zeros"], 50) == 1

    def test_counts_match_oracle(self, shifts):
        for name in ("full2", "golden", "even", "mixnot_2"):
            x = shifts[name]
            assert block_counts(x, 9) == block_counts_by_extension(x, 9)

    def test_negative_length_rejected(self, golden):
        with pytest.raises(ValueError):
            block_count(golden, -1)

    def test_memoised_counts_are_a_fresh_list(self, golden):
        block_counts(golden, 5)[5] = 0
        assert block_counts(golden, 5)[5] == 13

    @given(a=st.integers(1, 10), b=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_submultiplicative(self, shifts, a, b):
        # factorial language: every (a+b)-word splits into an a-word
        # followed by a b-word
        for name in ("golden", "even"):
            c = block_counts(shifts[name], a + b)
            assert c[a + b] <= c[a] * c[b]

    @given(a=st.integers(1, 8), b=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_supermultiplicative_across_gap(self, shifts, a, b):
        # the uniform gap certificate glues any two words, injectively
        # in the pair, so counts multiply across the certified gap
        for name in ("golden", "even"):
            x = shifts[name]
            n0 = si_certificate(x).N0_bound
            c = block_counts(x, a + b + n0)
            assert c[a] * c[b] <= c[a + b + n0]


class TestEntropyBlocks:

    def test_full_shift_exact(self, full2):
        est = entropy_blocks(full2, 10)
        assert est.method == "block-count"
        assert est.value == pytest.approx(LN2, abs=1e-12)
        assert est.error_bound <= 1e-12

    def test_golden_brackets_truth(self, golden):
        est = entropy_blocks(golden, 40)
        assert est.params["lower"] <= LN_PHI <= est.params["upper"]
        assert abs(est.value - LN_PHI) <= est.error_bound

    def test_bracket_ordering(self, shifts):
        for name in ("full2", "golden", "even", "mixnot_2"):
            est = entropy_blocks(shifts[name], 24)
            assert est.params["lower"] <= est.value <= est.params["upper"]
            assert est.error_bound >= 0.0

    def test_two_point_shift_is_zero(self, twopoint):
        est = entropy_blocks(twopoint, 40)
        assert est.value == 0.0
        assert est.error_bound <= math.log(2.0) / 40 + 1e-15

    def test_no_certificate_means_zero_lower(self, period2):
        est = entropy_blocks(period2, 20)
        assert est.params["gap_bound"] is None
        assert est.params["lower"] == 0.0

    def test_empty_shift(self):
        a = Alphabet(("0", "1"))
        e = Shift.from_forbidden(a, ["0", "1"])
        est = entropy_blocks(e, 5)
        assert est.value == 0.0 and est.error_bound == 0.0

    def test_short_window_rejected(self, golden):
        with pytest.raises(ValueError):
            entropy_blocks(golden, 1)


class TestEntropySpectral:

    def test_full_shift(self, full2):
        est = entropy_spectral(full2)
        assert est.method == "spectral"
        assert est.value == pytest.approx(LN2, abs=1e-12)

    def test_golden_certified_interval(self, golden):
        est = entropy_spectral(golden, tol=1e-9)
        assert abs(est.value - LN_PHI) <= est.error_bound
        assert est.error_bound <= 1e-9
        lo, hi = est.params["bracket"]
        assert math.log(lo) <= LN_PHI <= math.log(hi)

    def test_even_same_entropy_as_golden(self, golden, even):
        # the two languages are exchanged by a bijection on 2-blocks,
        # so the Perron roots agree
        eg = entropy_spectral(golden)
        ee = entropy_spectral(even)
        assert abs(eg.value - ee.value) <= eg.error_bound + ee.error_bound

    def test_tighter_tolerance_tightens(self, golden):
        loose = entropy_spectral(golden, tol=1e-4)
        tight = entropy_spectral(golden, tol=1e-12)
        assert tight.error_bound <= loose.error_bound
        assert abs(tight.value - LN_PHI) <= 1e-11

    def test_zero_entropy_cases(self, shifts):
        for name in ("zeros", "twopoint", "period2"):
            est = entropy_spectral(shifts[name])
            assert est.value == 0.0 and est.error_bound == 0.0

    def test_empty_shift(self):
        a = Alphabet(("0", "1"))
        e = Shift.from_forbidden(a, ["0", "1"])
        est = entropy_spectral(e)
        assert est.value == 0.0
        assert est.params.get("degenerate") == "empty"

    def test_bad_tolerance(self, golden):
        with pytest.raises(ValueError):
            entropy_spectral(golden, tol=0.0)

    @pytest.mark.parametrize("tol", [1e-13, math.nan])
    def test_tolerance_below_binary64_resolution(self, golden, tol):
        # golden's iterates stay exact, so at such a tol its binary64
        # ratios could coincide: a zero-width bracket of an irrational root
        with pytest.raises(ValueError, match="^tol must be >= 1e-12"):
            entropy_spectral(golden, tol=tol)

    def test_least_tolerance_runs(self, golden):
        lo, hi = entropy_spectral(golden, tol=entropy.TOL_MIN).params["bracket"]
        assert lo < hi


@st.composite
def blocks(draw, letters):
    """(trans, comp, tol): a strongly connected block ``comp`` of a
    transition table over ``letters`` symbols, listed in a drawn order,
    whose other moves are undefined or lead to states outside it."""
    n = draw(st.integers(2, 9))
    states = draw(st.permutations(range(n + draw(st.integers(0, 3)))))
    comp = list(states[:n])
    trans = [[-1] * letters for _ in states]
    for i, q in enumerate(comp):
        row = trans[q]
        for a in range(letters):
            row[a] = draw(st.integers(-1, len(states) - 1))
        # a spanning cycle keeps the block strongly connected
        row[draw(st.integers(0, letters - 1))] = comp[(i + 1) % n]
    tol = draw(st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]))
    return tuple(map(tuple, trans)), comp, tol


def sparse_bracket(trans, comp, tol):
    # the column table of the raw block, built here: its unreachable
    # states keep it from being a FactorialDfa
    n = len(trans)
    cols = np.array(trans + ((n,) * len(trans[0]),)).T
    cols[cols == -1] = n
    return entropy._component_bracket(
        entropy._symbol_targets(cols, comp), tol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPerronKernel:
    """The per-symbol kernel against dense power iteration, with numpy
    warnings (such as 0/0 in the pad slot) raised as errors."""

    @settings(max_examples=150, deadline=None)
    @given(blocks(2))
    def test_two_letters_bit_identical_to_dense(self, block):
        trans, comp, tol = block
        assert sparse_bracket(trans, comp, tol) == dense_bracket(
            count_block(trans, comp), tol, entropy._ITER_CAP)

    @settings(max_examples=150, deadline=None)
    @given(blocks(3))
    def test_three_letters_bracket_the_perron_root(self, block):
        trans, comp, tol = block
        lo, hi, _ = sparse_bracket(trans, comp, tol)
        assert 0 < lo <= hi
        assert math.log(hi) - math.log(lo) <= tol
        m = np.array(count_block(trans, comp), dtype=float)
        root = max(np.linalg.eigvals(m).real)
        assert lo * (1 - 1e-12) <= root <= hi * (1 + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(blocks(2))
    def test_cap_counts_sweeps(self, block):
        trans, comp, tol = block
        lo, hi, needed = sparse_bracket(trans, comp, tol)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entropy, "_ITER_CAP", needed)
            assert sparse_bracket(trans, comp, tol) == (lo, hi, needed)
            mp.setattr(entropy, "_ITER_CAP", needed - 1)
            with pytest.raises(CapExceeded, match=(
                    f"^power iteration failed to certify within "
                    f"{needed - 1} sweeps: {len(comp)} states, "
                    rf"bracket width (inf|\d\S*) > tol {tol:g}$")):
                sparse_bracket(trans, comp, tol)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(blocks(2), blocks(3)))
    def test_batch_size_cannot_move_a_result(self, block):
        trans, comp, tol = block
        results = set()
        with pytest.MonkeyPatch.context() as mp:
            for size in (1, 7, 16):
                mp.setattr(entropy, "_BATCH", size)
                results.add(sparse_bracket(trans, comp, tol))
        assert len(results) == 1

    def test_wide_rule_image(self):
        # full2, memory 0..4, seed 66: a 4450-state image whose dense
        # count block took 300 MB
        x = bundled_shift("full2")
        img = image_presentation(random_ca(x.alphabet, x.alphabet, (0, 4),
                                           66), x)
        assert img.acceptor.n_states == 4450
        tracemalloc.start()
        try:
            est = entropy_spectral(img, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.params["iterations"] == 407
        assert est.params["component_size"] == 4433
        assert peak < 16 * 2 ** 20


class TestMethodAgreement:

    def test_routes_agree_within_bounds(self, shifts):
        for name in ("full2", "golden", "even", "mixnot_2", "twopoint"):
            x = shifts[name]
            eb = entropy_blocks(x, 40)
            es = entropy_spectral(x)
            assert abs(eb.value - es.value) <= eb.error_bound + es.error_bound

    def test_block_route_converges(self, golden):
        errs = [entropy_blocks(golden, n).error_bound for n in (10, 20, 40)]
        assert errs[2] < errs[0]


class TestEntropyCompare:

    def test_strict_gap_certified(self, shifts):
        d = entropy_compare(shifts["golden"], shifts["zeros"])
        assert d.verdict is True
        ex, ey = d.witness
        assert ex.value - ey.value == pytest.approx(LN_PHI, abs=1e-8)

    def test_full_over_golden(self, full2, golden):
        d = entropy_compare(full2, golden)
        assert d.verdict is True
        ex, ey = d.witness
        assert ex.value - ey.value == pytest.approx(LN2 - LN_PHI, abs=1e-8)

    def test_equal_shifts_inconclusive(self, golden):
        # float brackets can certify separation, never equality
        d = entropy_compare(golden, golden)
        assert d.verdict is None

    def test_non_included_pair_rejected(self, golden, zeros):
        with pytest.raises(NotSubshift):
            entropy_compare(zeros, golden)

    def test_monotone_counts_under_inclusion(self, shifts):
        pairs = [("zeros", "golden"), ("golden", "full2"), ("even", "full2")]
        for small, big in pairs:
            cs = block_counts(shifts[small], 20)
            cb = block_counts(shifts[big], 20)
            assert all(a <= b for a, b in zip(cs, cb))


class TestFolnerWindow:

    def test_boundary_ratio_vanishes(self):
        for n in (10 ** 2, 10 ** 3, 10 ** 4):
            r = FolnerWindow(n).boundary_ratio(1)
            assert r == Fraction(2, n)
        assert float(FolnerWindow(10 ** 4).boundary_ratio(1)) == 2e-4

    def test_ratio_is_exact_fraction(self):
        assert FolnerWindow(100).boundary_ratio(5) == Fraction(1, 10)

    def test_interval(self):
        assert list(FolnerWindow(4).interval) == [0, 1, 2, 3]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            FolnerWindow(0)
        with pytest.raises(ValueError):
            FolnerWindow(5).boundary_ratio(-1)


class TestTilingArithmetic:

    def test_stride_three_window_thirty(self):
        t = tiling_Z(3)
        d = tiling_density(t, 30)
        assert d.count == 10
        assert d.ratio == Fraction(1, 3)
        assert d.alpha_ok

    def test_stride_three_window_thirty_one(self):
        d = tiling_density(tiling_Z(3), 31)
        assert d.count == 10
        assert d.ratio == Fraction(10, 31)
        assert d.alpha_ok

    def test_stride_one_covers_everything(self):
        d = tiling_density(tiling_Z(1), 7)
        assert d.count == 7 and d.ratio == 1

    def test_exactness_check_runs(self):
        for k in range(1, 7):
            t = tiling_Z(k)
            assert t.tile == range(0, k)
            assert t.dilated == range(-k + 1, k)
            assert t.translates_in(4 * k) == [0, k, 2 * k, 3 * k]

    @given(k=st.integers(1, 8), n=st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_density_floor(self, k, n):
        if n < k:
            with pytest.raises(WindowTooSmall):
                tiling_density(tiling_Z(k), n)
            return
        d = tiling_density(tiling_Z(k), n)
        assert d.count == len(tiling_Z(k).translates_in(n))
        assert d.ratio >= Fraction(1, 2 * k) or n < 2 * k
        if n >= 2 * k:
            assert d.alpha_ok

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            tiling_Z(0)

    def test_huge_stride_is_checked_at_once(self):
        # interval arithmetic: one step per translate, not per cell
        start = time.perf_counter()
        t = tiling_Z(10 ** 9)
        assert time.perf_counter() - start < 0.1
        assert t.dilated == range(-10 ** 9 + 1, 10 ** 9)

    @pytest.mark.parametrize("attr, cells, message", [
        ("tile", lambda t: range(0, t.k + 1), "translates overlap"),
        ("tile", lambda t: range(0, t.k - 1), "translates miss the window"),
        ("tile", lambda t: range(1, t.k), "translates miss the window"),
        ("dilated", lambda t: range(-t.k + 2, 0), "dilated tiles fail"),
        ("dilated", lambda t: range(2 * t.k, 3 * t.k), "dilated tiles fail"),
    ])
    def test_broken_tiles_are_caught(self, monkeypatch, attr, cells,
                                     message):
        monkeypatch.setattr(TilingSpec, attr, property(cells))
        with pytest.raises(AssertionError, match=message):
            tiling_Z(4)


class TestPatternExclusion:

    def test_golden_one_letter_all_windows(self, golden):
        # F(20) = 6765 total words of length 18; dropping the words whose
        # tile carries a 1 leaves 4895, and 4895 * 89 <= 88 * 6765
        for n in range(0, 19):
            rep = pattern_exclusion_bound(golden, 1, n)
            assert rep.holds, n
        rep = pattern_exclusion_bound(golden, 1, 18)
        assert (rep.margin, rep.stride) == (4, 9)
        assert rep.tiles == (9,)
        assert (rep.rho, rep.q_count, rep.total_count) == (89, 4895, 6765)
        assert rep.q_count * rep.rho ** 1 <= (rep.rho - 1) ** 1 * rep.total_count

    def test_full_shift_exact_equality(self, full2):
        # margin 0, stride 1: every position is a tile and only the
        # all-zero word avoids the letter 1 everywhere
        rep = pattern_exclusion_bound(full2, 1, 12)
        assert rep.margin == 0 and rep.stride == 1
        assert len(rep.tiles) == 12
        assert (rep.rho, rep.q_count, rep.total_count) == (2, 1, 4096)
        assert rep.q_count * rep.rho ** 12 == (rep.rho - 1) ** 12 * rep.total_count
        assert rep.holds

    def test_default_pattern_enumerates_no_words(self, monkeypatch, full2):
        # the greatest word is walked from state 0, not picked out of the
        # 2**40 words of length 40; q = (2**40 - 1)**2 on the two tiles
        import soficlab.dfa as dfa

        def refuse(*args, **kwargs):
            raise AssertionError("enumerated the words of length d")

        monkeypatch.setattr(dfa, "enumerate_ranks", refuse)
        rep = pattern_exclusion_bound(full2, 40, 80)
        assert rep.pattern.text == "1" * 40 and rep.tiles == (0, 40)
        assert (rep.q_count, rep.total_count) == ((2 ** 40 - 1) ** 2, 2 ** 80)

    def test_explicit_pattern(self, golden):
        rep = pattern_exclusion_bound(golden, 2, 24, pattern="10")
        assert rep.pattern.text == "10"
        assert rep.holds

    def test_pattern_validation(self, golden):
        with pytest.raises(WordNotInLanguage):
            pattern_exclusion_bound(golden, 2, 20, pattern="11")
        with pytest.raises(WordNotInLanguage):
            pattern_exclusion_bound(golden, 2, 20, pattern="0")
        with pytest.raises(ValueError):
            pattern_exclusion_bound(golden, 0, 20)

    def test_avoid_count_vs_bruteforce(self, golden):
        # independent count: literal scan of the enumerated language
        rep = pattern_exclusion_bound(golden, 1, 12)
        tiles, n = rep.tiles, 12
        avoid = 0
        for w in golden.blocks(n):
            if all(w.text[g] != rep.pattern.text for g in tiles):
                avoid += 1
        assert avoid == rep.q_count

    def test_needs_certificate(self, twopoint):
        with pytest.raises(CertificateMissing):
            pattern_exclusion_bound(twopoint, 1, 10)


class TestPositivity:

    def test_holds_on_positive_entropy_fixtures(self, shifts):
        for name in ("full2", "golden", "even", "mixnot_2"):
            rep = positivity_lower_bound(shifts[name], 24)
            assert rep.holds, name
            for n, c_n, t in rep.rows:
                assert c_n >= 2 ** t

    def test_spectral_floor_for_si(self, shifts):
        # strongly irreducible with at least two points forces entropy
        # visibly above zero
        for name in ("full2", "golden", "even", "mixnot_2"):
            est = entropy_spectral(shifts[name])
            assert est.value - est.error_bound >= 1e-3, name

    def test_golden_tile_data(self, golden):
        rep = positivity_lower_bound(golden, 24)
        assert rep.d == 1 and rep.stride == 9
        # two complete tiles fit from n = 14 on: 2^2 = 4 <= c_14 = 987
        assert rep.rows[24] == (24, 121393, 2)

    def test_single_point_rejected(self, zeros):
        with pytest.raises(CertificateMissing):
            positivity_lower_bound(zeros, 24)
