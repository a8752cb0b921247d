"""Differential tests of canonicalization against an oracle that reads only
``Shift.origin``: random small graphs and random forbidden-word sets.  The
joinability kernels (backward family, sync search, gap test, diameter)
are checked the same way against transparent set-based oracles,
and the canonicalization kernels (Aho-Corasick presentation, Moore
refinement, the peel that removes nothing) against a suffix-scan block
graph and table filling."""

import itertools
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from soficlab import (Alphabet, LabeledGraph, Shift, equal_shifts,
                      gap_witness, is_irreducible, is_mixing, minimal_gap,
                      si_certificate)
from soficlab import dfa
from soficlab.ca import image_presentation, is_pre_injective, random_ca
from soficlab.cli import main
from soficlab.dfa import (_STATE_CAP, FactorialDfa, backward_subsets,
                          determinize, minimize, preimage_cols,
                          shortest_sync, word_counts)
from soficlab.errors import CapExceeded, NotMixing, StateBlowup
from soficlab.graph import (core_vertices, directed_diameter, essentialize,
                            follower_reduce, infinite_path_starts,
                            refine_classes)
from soficlab.props import _Joinability
from soficlab.shift import SftSpec
from soficlab.tiling import (_count_avoiding, _tile_starts,
                             pattern_exclusion_bound)

from oracles import (NOT_MIXING, _sft_steps, backward_family,
                     common_extension, core_by_two_sided_peel,
                     diameter_by_bfs, fill_exists, first_missed,
                     gap_by_row_orbit, least_fill, nerode_classes,
                     origin_blocks, origin_contains,
                     reach_core_by_closure, reachable_states,
                     sft_graph_by_suffix_scan, sync_word_by_levels,
                     word_image)

_ALPHABETS = {k: Alphabet(tuple(str(a) for a in range(k))) for k in (2, 3)}
_MULTI = Alphabet(("a", "bb"))
_MAX_LEN = {2: 6, 3: 4}  # longest word checked exhaustively


@st.composite
def graph_shifts(draw, k=None):
    k = k or draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 8))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1),
                                    st.integers(0, k - 1)),
                          min_size=n, max_size=3 * n))
    return Shift.from_graph(LabeledGraph(_ALPHABETS[k], n, tuple(edges)))


@st.composite
def sft_shifts(draw, k=None):
    k = k or draw(st.sampled_from((2, 3)))
    longest = 4 if k == 2 else 3
    words = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=1,
                                   max_size=longest).map(tuple),
                          max_size=5))
    alpha = _ALPHABETS[k]
    return Shift.from_forbidden(alpha, [alpha.word_from_ranks(w) for w in words])


shifts = st.one_of(graph_shifts(), sft_shifts())


def _pair_over(k):
    one = st.one_of(graph_shifts(k), sft_shifts(k))
    return st.tuples(one, one)


same_alphabet_pairs = st.sampled_from((2, 3)).flatmap(_pair_over)


def _words(x, n):
    return itertools.product(range(len(x.alphabet)), repeat=n)


def _oracle_members(x, n):
    return [w for w in _words(x, n) if origin_contains(x, w)]


def _reshuffled(x):
    """A graph for the same shift as ``x``: its origin graph (or the SFT's
    block graph by suffix scan) twice over, vertices reversed."""
    g = x.origin if isinstance(x.origin, LabeledGraph) \
        else sft_graph_by_suffix_scan(x.origin, _STATE_CAP)
    n = g.n_vertices
    edges = [(2 * n - 1 - s - off, 2 * n - 1 - d - off, a)
             for off in (0, n) for s, d, a in g.edges]
    return Shift.from_graph(LabeledGraph(g.alphabet, 2 * n, tuple(edges)))


class TestOriginOracle:

    @given(shifts)
    @settings(max_examples=60, deadline=None)
    def test_contains_word(self, x):
        det = Shift.from_graph(x.deterministic)
        for n in range(1, _MAX_LEN[len(x.alphabet)] + 1):
            for w in _words(x, n):
                member = origin_contains(x, w)
                assert x.contains_word(x.alphabet.word_from_ranks(w)) == member, w
                assert origin_contains(det, w) == member, w

    @given(shifts)
    @settings(max_examples=60, deadline=None)
    def test_word_counts(self, x):
        n_max = _MAX_LEN[len(x.alphabet)]
        counts = word_counts(preimage_cols(x.acceptor), n_max)
        assert counts[1:] == [len(_oracle_members(x, n))
                              for n in range(1, n_max + 1)]

    @given(shifts, st.data())
    @settings(max_examples=60, deadline=None)
    def test_pattern_exclusion_count(self, x, data):
        # the words of length n that differ from the pattern on every
        # tile of the certificate layout, counted from the origin
        d = data.draw(st.integers(1, 3))
        patterns = origin_blocks(x, d)
        assume(patterns)
        pattern = data.draw(st.sampled_from(patterns))
        margin = data.draw(st.integers(0, 2))
        n = data.draw(st.integers(0, _MAX_LEN[len(x.alphabet)]))
        tiles = _tile_starts(n, d, margin, d + 2 * margin)
        avoiding = [w for w in origin_blocks(x, n)
                    if all(w[g:g + d] != pattern for g in tiles)]
        assert _count_avoiding(x, n, tiles, x.alphabet.word_from_ranks(
            pattern)) == len(avoiding)

    @given(shifts.filter(lambda x: not x.is_empty and is_mixing(x).mixing),
           st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_default_pattern_is_greatest_word(self, x, d):
        rep = pattern_exclusion_bound(x, d, 0)
        assert rep.pattern.ranks() == origin_blocks(x, d)[-1]

    @given(shifts)
    @settings(max_examples=60, deadline=None)
    def test_canonical_objects(self, x):
        assert x.acceptor == minimize(determinize(x.essential))
        det = x.deterministic
        assert Shift.from_graph(det).acceptor == x.acceptor
        # right-resolving, essential and follower-separated
        assert det.is_right_resolving()
        assert {s for s, _, _ in det.edges} == set(range(det.n_vertices))
        assert {d for _, d, _ in det.edges} == set(range(det.n_vertices))
        assert follower_reduce(det)[0].n_vertices == det.n_vertices

    @given(same_alphabet_pairs)
    @settings(max_examples=60, deadline=None)
    def test_equal_shifts(self, pair):
        x, y = pair
        dec = equal_shifts(x, y)
        n_max = _MAX_LEN[len(x.alphabet)]
        if dec.verdict:
            for n in range(1, n_max + 1):
                assert _oracle_members(x, n) == _oracle_members(y, n)
            return
        w = dec.witness.ranks()
        in_x, in_y = origin_contains(x, w), origin_contains(y, w)
        assert in_x != in_y
        assert ("first" in dec.note) == in_x
        for n in range(1, min(len(w) - 1, n_max) + 1):
            assert _oracle_members(x, n) == _oracle_members(y, n)

    @given(shifts)
    @settings(max_examples=40, deadline=None)
    def test_equal_to_reshuffled_graph(self, x):
        y = _reshuffled(x)
        assert equal_shifts(x, y).verdict
        for n in range(1, _MAX_LEN[len(x.alphabet)] + 1):
            assert _oracle_members(x, n) == _oracle_members(y, n)

    def test_sft_oracle_by_hand(self, golden):
        # 11 is forbidden; every other word extends both ways
        assert not origin_contains(golden, (1, 1))
        assert origin_contains(golden, (1, 0, 1))
        x = Shift.from_forbidden(_ALPHABETS[2], ["01", "10"])
        assert origin_contains(x, (1, 1, 1))
        assert not origin_contains(x, (0, 1))
        # 0 is followed by a forced 1 and then a dead end
        y = Shift.from_forbidden(_ALPHABETS[2], ["00", "11", "010"])
        assert not origin_contains(y, (0,))
        assert not origin_contains(y, (1,))
        assert y.is_empty

    def test_sft_oracle_on_long_windows(self, shifts):
        # mixnot_5 forbids words of up to 12 symbols; the two sides of a
        # word extend separately, over its 618 forbidden-free 11-blocks
        _sft_steps.cache_clear()
        start = time.perf_counter()
        assert origin_contains(shifts["mixnot_5"], (1, 0, 0, 0))
        assert time.perf_counter() - start < 1.0
        for k in (2, 3, 4, 5):
            x = shifts[f"mixnot_{k}"]
            for n in range(1, 9):
                for w in itertools.product((0, 1), repeat=n):
                    member = x.contains_word(x.alphabet.word_from_ranks(w))
                    assert origin_contains(x, w) == member, (k, w)


def _joins(x, u, vs, max_fill):
    """The words of ``vs`` that some fill of length 0..max_fill joins after
    ``u``; fills extend ``u`` one symbol at a time, inside the language."""
    joined = set()
    prefixes = [u]
    for _ in range(max_fill + 1):
        for p in prefixes:
            joined.update(v for v in vs
                          if v not in joined and origin_contains(x, p + v))
        if len(joined) == len(vs):
            break
        prefixes = [p + (a,) for p in prefixes for a in range(len(x.alphabet))
                    if origin_contains(x, p + (a,))]
    return joined


class TestIrreducibleOracle:
    """``is_irreducible`` against fills found from ``Shift.origin`` alone.

    A joinable pair in a graph with n vertices joins along a shortest path
    between two vertices, so fills of length at most n - 1 decide it."""

    @given(graph_shifts())
    @settings(max_examples=80, deadline=None)
    def test_verdict_and_witness(self, x):
        dec = is_irreducible(x)
        max_fill = x.origin.n_vertices - 1
        if dec.verdict is False:
            u, v = (w.ranks() for w in dec.witness)
            assert origin_contains(x, u) and origin_contains(x, v)
            assert not _joins(x, u, [v], max_fill)
            return
        words = [w for n in range(1, 4) for w in _oracle_members(x, n)]
        for u in words:
            assert _joins(x, u, words, max_fill) == set(words), u


class TestPreInjectivityOracle:
    """Pre-injectivity against asymptotic pairs built from ``x.origin``
    alone: a refutation's words have a common extension, and any two
    distinct words with common ends, equal images and a common extension
    (up to the exhaustive length) refute it."""

    @given(shifts, st.integers(1, 2), st.integers(0, 10 ** 6))
    @settings(max_examples=80, deadline=None)
    # the past 1^inf sits at either vertex, so the essential graph does not
    # determine paths by the past; seed 4 maps 2 and 0 to 0, and
    # 1^inf 2 0^inf, 1^inf 0 0^inf share their image
    @example(Shift.from_graph(LabeledGraph(_ALPHABETS[3], 2, (
        (0, 0, 0), (0, 0, 1), (1, 0, 2), (1, 1, 1)))), 1, 4)
    def test_verdict_and_witness(self, x, width, seed):
        t = random_ca(x.alphabet, x.alphabet, (0, width - 1), seed)
        d = is_pre_injective(t, x)
        assert d.scope == "point"
        k = width - 1
        if d.verdict is False:
            wa, wb = d.witness.first.word, d.witness.second.word
            assert wa != wb and len(wa) == len(wb)
            assert t.apply(wa) == t.apply(wb) == d.witness.image
            assert wa.ranks()[:k] == wb.ranks()[:k]
            assert wa.ranks()[len(wa) - k:] == wb.ranks()[len(wb) - k:]
            assert common_extension(x, wa.ranks(), wb.ranks())
            return
        for n in range(width, _MAX_LEN[len(x.alphabet)] + 1):
            by_ends: dict = {}
            for w in _oracle_members(x, n):
                key = (w[:k], w[n - k:], t.apply(x.alphabet.word_from_ranks(w)))
                by_ends.setdefault(key, []).append(w)
            for group in by_ends.values():
                for wa, wb in itertools.combinations(group, 2):
                    assert not common_extension(x, wa, wb), (wa, wb)


class TestFormerBlowups:
    """Width-4 full-shift images whose acceptor once needed a second subset
    construction of more than a million states."""

    def test_width4_images_build(self, full2):
        for seed, states in ((97, 255), (161, 239)):
            t = random_ca(full2.alphabet, full2.alphabet, (0, 3), seed)
            assert image_presentation(t, full2).acceptor.n_states == states

    def test_corpus_command(self, capsys):
        assert main(["corpus", "--shift", "full2", "--count", "5",
                     "--seed", "95", "--memory", "0..3"]) == 0
        out = capsys.readouterr().out
        assert "#: summary shift=full2 kept=5 skipped=0 contradictions=0" in out

    def test_width5_corpus_command(self, capsys):
        # width 5 is bounded by the table cap alone (2**5 entries)
        assert main(["corpus", "--shift", "full2", "--count", "5",
                     "--seed", "0", "--memory", "0..4"]) == 0
        out = capsys.readouterr().out
        assert "#: summary shift=full2 kept=5 skipped=0 contradictions=0" in out


@st.composite
def partial_dfas(draw):
    """Random partial transition tables cut down to the states reachable
    from 0; unlike a shift's acceptor, not necessarily minimal or
    extendable."""
    k = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(st.integers(-1, n - 1), min_size=k,
                                  max_size=k), min_size=n, max_size=n))
    order, pos = [0], {0: 0}
    for q in order:
        for t in rows[q]:
            if t != -1 and t not in pos:
                pos[t] = len(order)
                order.append(t)
    return FactorialDfa(_ALPHABETS[k], tuple(
        tuple(-1 if t == -1 else pos[t] for t in rows[q]) for q in order))


@st.composite
def plain_graphs(draw):
    """Random graphs on 0..7 vertices; half of them carry a cycle through
    every vertex, so strongly connected ones come up often."""
    n = draw(st.integers(0, 7))
    if n == 0:
        return LabeledGraph(_ALPHABETS[2], 0, ())
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1), st.integers(0, 1)),
                          max_size=2 * n))
    if draw(st.booleans()):
        edges += [(v, (v + 1) % n, 0) for v in range(n)]
    return LabeledGraph(_ALPHABETS[2], n, tuple(edges))


def _states_row(d, states):
    """The bool row, with the False sentinel slot, of a set of states."""
    row = np.zeros(d.n_states + 1, dtype=bool)
    row[list(states)] = True
    return row


def _padded(cols, row, pad):
    """The table and the row with ``pad`` idle states put before the
    sentinel slot, whose moves all go to the sentinel: a search from the
    row never reaches them, but its rows are wider."""
    n = cols.shape[1] - 1
    wide = np.full((len(cols), n + pad + 1), n + pad)
    wide[:, :n] = np.where(cols[:, :n] == n, n + pad, cols[:, :n])
    return wide, np.concatenate([row[:n], np.zeros(pad + 1, dtype=bool)])


class TestJoinabilityKernels:
    """The joinability kernels against transparent oracles: a frozenset
    closure for the backward family, words tried one by one for the sync
    search, the full ordered scan for the gap test, forward rows per state
    for the gap evolution, and one breadth-first search per source for the
    diameter."""

    @given(st.one_of(partial_dfas(), shifts.map(lambda x: x.acceptor)))
    @settings(max_examples=80, deadline=None)
    def test_backward_subsets(self, d):
        expected = backward_family(d)
        cols = preimage_cols(d)

        def family():
            # a set in the sentinel slot would show as state n
            return [(frozenset(np.flatnonzero(r).tolist()), v)
                    for r, v in backward_subsets(cols)]

        assert family() == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dfa, "_STATE_CAP", len(expected))
            assert family() == expected
            if len(expected) > 1:
                mp.setattr(dfa, "_STATE_CAP", len(expected) - 1)
                with pytest.raises(CapExceeded):
                    backward_subsets(cols)

    @given(partial_dfas(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_shortest_sync(self, d, data):
        # the word oracle fixes both the length and the tie-break (the
        # lexicographically greatest of the shortest collapsing words)
        states = data.draw(st.sets(st.integers(0, d.n_states - 1),
                                   min_size=1))
        cols, row = preimage_cols(d), _states_row(d, states)
        got = shortest_sync(cols, row)
        # rows over 2**15 cells wide step one at a time, not all at once
        assert shortest_sync(*_padded(cols, row, 2 ** 15)) == got
        expected = sync_word_by_levels(d.trans, states, 8)
        if got is not None and len(got[0]) > 8:
            assert expected is None
            assert word_image(d.trans, states, got[0]) == {got[1]}
        else:
            assert got == expected

    def test_sync_search_memory_is_linear(self):
        # symbol 0 turns a 20000-cycle, symbol 1 sends its upper half to
        # state 0; columns of one int mask per state took 27.7 MB here
        n = 20000
        d = FactorialDfa(_ALPHABETS[2], tuple(
            ((q + 1) % n, 0 if q >= n // 2 else -1) for q in range(n)))
        tracemalloc.start()
        try:
            got = shortest_sync(preimage_cols(d), _states_row(d, range(n)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == ((1,), 0)
        assert peak < 4 * 2 ** 20

    @given(shifts.filter(lambda x: not x.is_empty), st.data())
    @settings(max_examples=80, deadline=None)
    def test_miss(self, x, data):
        family = backward_family(x.acceptor)
        full = (1 << x.acceptor.n_states) - 1
        # the complement of a set misses it; 0 misses every set
        masks = [0, full, *(full & ~sum(1 << q for q in fs)
                            for fs, _ in family)]
        masks += data.draw(st.lists(st.integers(0, full), max_size=20))
        masks += [sum(1 << q for q in reachable_states(x, s))
                  for s in range(x.acceptor.n_states)]
        j = _Joinability(x)
        for m in masks:
            assert j.miss(m) == first_missed(family, m), bin(m)
        assert j.miss(0) == ()

    @given(shifts.filter(lambda x: not x.is_empty))
    @settings(max_examples=200, deadline=None)
    def test_minimal_gap(self, x):
        expected = gap_by_row_orbit(x, 4 * 256 + 64)
        assert expected is not None
        if expected != NOT_MIXING:
            assert minimal_gap(x) == expected
            return
        with pytest.raises(NotMixing) as exc:
            minimal_gap(x)
        u, v, t, p = re.fullmatch(
            r"no uniform gap: u='(\w*)' cannot reach v='(\w*)' at gap "
            r"(\d+) \(recurs with period (\d+)\)", str(exc.value)).groups()
        t, p = int(t), int(p)
        assert origin_contains(x, x.word(u).ranks())
        assert origin_contains(x, x.word(v).ranks())
        # the witness pair fails at every gap t + k*period
        for gap in (t, t + p, t + 2 * p):
            if len(x.alphabet) ** gap <= 4096:
                assert not fill_exists(x, u, v, gap), gap

    @given(shifts.filter(lambda x: not x.is_empty and is_mixing(x).mixing))
    @settings(max_examples=200, deadline=None)
    def test_certificate_self_gap(self, x):
        # n0 is the least gap from which the sync word always bridges to
        # itself: the fill exists at n0..n0+3 and not at n0-1
        cert = si_certificate(x)
        w = cert.sync.word.text
        for k in range(max(cert.n0 - 1, 0), cert.n0 + 4):
            if len(x.alphabet) ** k <= 4096:
                assert fill_exists(x, w, w, k) == (k >= cert.n0), k

    @given(shifts.filter(lambda x: not x.is_empty), st.data())
    @settings(max_examples=100, deadline=None)
    def test_gap_witness(self, x, data):
        # the least fill, at gaps past the end of the layers' orbit too
        words = st.sampled_from([x.alphabet.word_from_ranks(w) for n in (1, 2)
                                 for w in _oracle_members(x, n)])
        u, v = data.draw(words), data.draw(words)
        for gap in range(10):
            if len(x.alphabet) ** gap > 4096:
                break
            w = gap_witness(x, u, v, gap)
            got = None if w is None else w.ranks()
            assert got == least_fill(x, u, v, gap), gap

    @given(plain_graphs())
    @settings(max_examples=150, deadline=None)
    def test_directed_diameter(self, g):
        expected = diameter_by_bfs(g)
        if expected is None:
            with pytest.raises(ValueError):
                directed_diameter(g)
        else:
            assert directed_diameter(g) == expected

    def test_directed_diameter_by_hand(self):
        a = _ALPHABETS[2]
        assert directed_diameter(LabeledGraph(a, 0, ())) == 0
        assert directed_diameter(LabeledGraph(a, 1, ())) == 0
        assert directed_diameter(LabeledGraph(a, 1, ((0, 0, 1),))) == 0
        cycle = LabeledGraph(a, 5, tuple((v, (v + 1) % 5, 0)
                                         for v in range(5)))
        assert directed_diameter(cycle) == 4
        with pytest.raises(ValueError):
            directed_diameter(LabeledGraph(a, 2, ((0, 1, 0),)))
        with pytest.raises(ValueError):
            directed_diameter(LabeledGraph(a, 2, ((0, 0, 0), (1, 1, 0))))


_SPEC_SYMBOLS = (("0",), ("0", "1"), ("0", "1", "2"), ("a", "bb", "c1"))
_SPEC_LONGEST = {1: 10, 2: 10, 3: 6}  # longest forbidden word, so window


@st.composite
def sft_specs(draw):
    """Forbidden-word specs over 1-3 letters or multi-character symbols,
    windows up to 10, with the empty set, one-letter words and redundant
    words (a drawn word extended on both sides) all in reach."""
    symbols = draw(st.sampled_from(_SPEC_SYMBOLS))
    k, longest = len(symbols), _SPEC_LONGEST[len(symbols)]
    letters = st.lists(st.integers(0, k - 1), max_size=longest)
    words = draw(st.lists(letters.filter(bool), max_size=6))
    if words and draw(st.booleans()):
        left, right = draw(letters), draw(letters)
        ext = left + draw(st.sampled_from(words)) + right
        words.append(ext[:longest])
    alpha = Alphabet(symbols)
    return SftSpec(alpha, tuple(alpha.word_from_ranks(w) for w in words))


@st.composite
def partial_tables(draw):
    """Partial transition tables on 0..9 states over 1-3 symbols; rows
    with no defined move come up often."""
    n = draw(st.integers(0, 9))
    k = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-1, n - 1)] * k)
    return [draw(st.one_of(st.just((-1,) * k), row)) for _ in range(n)]


@st.composite
def multigraph_edges(draw):
    """``(n, edges)``: 0..9 vertices and up to 3n flagged edges, parallel
    edges and loops allowed; vertices without out-edges (sinks) and without
    in-edges come up often."""
    n = draw(st.integers(0, 9))
    if n == 0:
        return 0, []
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                     st.booleans())
    edges = draw(st.lists(edge, max_size=3 * n))
    if edges and draw(st.booleans()):
        edges += draw(st.lists(st.sampled_from(edges), max_size=n))
    return n, edges


class TestCanonicalizationKernels:
    """The matcher presentation against a forbidden-word suffix scan, Moore
    refinement against Myhill-Nerode table filling, and the one-sided peel
    against a two-sided degree peel closed backwards."""

    @given(multigraph_edges())
    @settings(max_examples=300, deadline=None)
    @example((3, [(0, 1, False), (0, 1, False), (1, 1, True), (2, 0, False)]))
    def test_peel(self, graph):
        n, edges = graph
        assert core_vertices(n, edges) == core_by_two_sided_peel(n, edges)
        same = [e for e in edges if not e[2]]
        assert infinite_path_starts(n, same, 0, 1) \
            == reach_core_by_closure(n, same)
        reversed_edges = [(d, s, f) for s, d, f in edges]
        assert infinite_path_starts(n, edges, 1, 0) \
            == reach_core_by_closure(n, reversed_edges)

    @given(sft_specs())
    @settings(max_examples=150, deadline=None)
    def test_sft_to_graph(self, spec):
        # the matcher's presentation gives the block graph's acceptor, with
        # at most one vertex per prefix of a forbidden word
        x = Shift.from_forbidden(spec.alphabet, spec.forbidden)
        assert x.essential.n_vertices <= 1 + sum(map(len, spec.forbidden))
        try:
            blocks = sft_graph_by_suffix_scan(spec, _STATE_CAP)
        except StateBlowup:
            return
        assert x.acceptor == Shift.from_graph(blocks).acceptor

    def test_sft_to_graph_by_hand(self):
        a = _ALPHABETS[2]
        x = Shift.from_forbidden(a, ())
        assert (x.essential.n_vertices, x.essential.edges) \
            == (1, ((0, 0, 0), (0, 0, 1)))
        assert Shift.from_forbidden(a, ("1",)).essential.edges \
            == ((0, 0, 0),)
        x = Shift.from_forbidden(_MULTI, (["bb", "bb", "a"],))
        # matcher states root, bb, (bb,bb) in order, and (bb,bb) cannot be
        # followed by a
        assert x.essential.n_vertices == 3
        assert (2, 0, 0) not in x.essential.edges
        assert (2, 2, 1) in x.essential.edges
        spec = SftSpec(_MULTI, (_MULTI.word(["bb", "bb", "a"]),))
        blocks = sft_graph_by_suffix_scan(spec, _STATE_CAP)
        assert x.acceptor == Shift.from_graph(blocks).acceptor
        # no 111: three matcher states where the block graph has four
        spec = SftSpec(a, (a.word("111"),))
        with pytest.raises(StateBlowup, match="exceeds 3 vertices"):
            sft_graph_by_suffix_scan(spec, 3)
        x = Shift.from_forbidden(a, ("111",))
        assert x.essential.n_vertices == 3
        blocks = sft_graph_by_suffix_scan(spec, _STATE_CAP)
        assert x.acceptor == Shift.from_graph(blocks).acceptor

    @given(partial_tables())
    @settings(max_examples=200, deadline=None)
    @example([])
    @example([(-1,), (-1,), (-1,)])
    @example([(1,), (2,), (-1,)])
    @example([(-1, -1), (0, 1), (-1, -1), (2, 3)])
    def test_refine_classes(self, trans):
        assert refine_classes(trans) == nerode_classes(trans)

    def test_essentialize_keeps_an_essential_graph(self, golden):
        g = golden.essential
        assert essentialize(g)[0] is g
        assert essentialize(g)[1] == list(range(g.n_vertices))
        # a loop at 1 fed from a source 0: only the loop is essential
        g = LabeledGraph(_ALPHABETS[2], 2, ((0, 1, 0), (1, 1, 1)))
        h, old = essentialize(g)
        assert (h.n_vertices, h.edges, old) == (1, ((0, 0, 1),), [1])
