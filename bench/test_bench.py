"""Tests of the benchmark's own inputs and output checks.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from soficlab import (Word, bundled_ca, bundled_shift, is_injective,  # noqa: E402
                      is_pre_injective, is_surjective)


@pytest.mark.parametrize("workload", wl.WORKLOAD_NAMES)
def test_same_seed_gives_identical_inputs(workload):
    a = wl.input_bytes(wl.make_inputs(workload, 7))
    b = wl.input_bytes(wl.make_inputs(workload, 7))
    assert a == b


@pytest.mark.parametrize("workload", wl.WORKLOAD_NAMES)
def test_seed_orders_a_pinned_population(workload):
    a, b = wl.make_inputs(workload, 7), wl.make_inputs(workload, 8)
    assert a != b
    assert sorted(a, key=wl.label) == sorted(b, key=wl.label)
    assert len(a) >= 200


def test_full2_w4_keeps_the_blowup_seeds():
    seeds = {i["seed"] for i in wl.make_inputs("corpus-full2-w4", 3)}
    assert seeds == set(range(200))


@pytest.fixture(scope="module")
def full2():
    return bundled_shift("full2")


def test_true_witnesses_pass(full2):
    const0 = bundled_ca("const0", full2)
    rule, dom = checks.Rule(const0), checks.Membership(full2.origin)
    assert checks.check_diamond(rule, dom,
                                is_pre_injective(const0, full2).witness) == []
    fails, checked = checks.check_garden_of_eden(
        rule, dom, is_surjective(const0, full2, full2).witness)
    assert (fails, checked) == ([], True)
    xor = bundled_ca("xor", full2)
    assert checks.check_point_pair(checks.Rule(xor), dom,
                                   is_injective(xor, full2).witness) == []


def test_planted_wrong_diamond_is_rejected(full2):
    xor = bundled_ca("xor", full2)
    wit = is_pre_injective(bundled_ca("const0", full2), full2).witness
    # the same two windows do not have equal images under xor
    assert checks.check_diamond(checks.Rule(xor),
                                checks.Membership(full2.origin), wit)
    same = replace(wit, second=wit.first)
    assert checks.check_diamond(checks.Rule(bundled_ca("const0", full2)),
                                checks.Membership(full2.origin), same)


def test_planted_wrong_point_pair_is_rejected(full2):
    xor = bundled_ca("xor", full2)
    wit = is_injective(xor, full2).witness
    flipped = Word(wit.second.alphabet,
                   ("1" if wit.second[0] == "0" else "0",)
                   + wit.second.letters[1:])
    # either the images now differ or the two words coincide
    assert checks.check_point_pair(checks.Rule(xor),
                                   checks.Membership(full2.origin),
                                   replace(wit, second=flipped))


def test_planted_goe_word_with_a_preimage_is_rejected(full2):
    const0 = bundled_ca("const0", full2)
    fails, checked = checks.check_garden_of_eden(
        checks.Rule(const0), checks.Membership(full2.origin),
        full2.word("000"))
    assert checked and fails


def test_membership_reads_the_origin():
    golden = checks.Membership(bundled_shift("golden").origin)
    assert golden.contains((0, 1, 0, 1)) and not golden.contains((1, 1))
    even = checks.Membership(bundled_shift("even").origin)
    assert even.contains((0, 1, 1, 0)) and not even.contains((0, 1, 0))


def test_analyze_output_checks():
    good = ("#: entropy_spectral 0.5 1e-10\n#: entropy_blocks 0.51 0.05\n"
            "#: cert_N0_bound 4\n#: minimal_gap 1\n")
    assert checks.check_analyze_output(0, good) == []
    disjoint = good.replace("0.51 0.05", "0.7 0.05")
    assert checks.check_analyze_output(0, disjoint)
    gap = good.replace("minimal_gap 1", "minimal_gap 5")
    assert checks.check_analyze_output(0, gap)
    assert checks.check_analyze_output(2, good)
