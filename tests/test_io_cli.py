"""File formats and the command-line driver.

CLI tests call main(argv) in process and capture stdout; the `#:` lines
are the stability contract, so several are pinned byte for byte.
"""

import pytest

import soficlab.ca
import soficlab.corpus
from soficlab import (Decision, ParseError, parse_shift_text, parse_ca_text,
                      bind_ca, bundled_names, bundled_shift, bundled_raw_ca,
                      equal_shifts, run_corpus, xor_ca)
from soficlab.cli import main


def machine_lines(out):
    return [l for l in out.splitlines() if l.startswith("#:")]


class TestShiftFormat:

    def test_forbidden_round_trip(self, golden):
        s = parse_shift_text("alphabet: 0 1\nforbidden:\n11\n", "<t>")
        assert equal_shifts(s, golden).verdict is True

    def test_graph_round_trip(self, even):
        text = ("alphabet: 0 1\n"
                "graph:\n"
                "edge 0 0 0\n"
                "edge 0 1 1\n"
                "edge 1 0 1\n")
        s = parse_shift_text(text, "<t>")
        assert equal_shifts(s, even).verdict is True

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nalphabet: a b  # trailing\nforbidden:\nab\n"
        s = parse_shift_text(text, "<t>")
        assert not s.contains_word(s.word(["a", "b"]))

    def test_errors_carry_line_numbers(self):
        cases = [
            ("forbidden:\n11\n", "line 1"),                     # no alphabet
            ("alphabet: 0 1\nalphabet: 0\n", "line 2"),          # duplicate
            ("alphabet:\nforbidden:\n", "line 1"),               # empty
            ("alphabet: 0 1\nforbidden:\n12\n", "line 3"),       # bad symbol
            ("alphabet: 0 1\nforbidden:\n\n11\ngraph:\n", "line 5"),
            ("alphabet: 0 1\ngraph:\nedge 0 x 1\n", "line 3"),   # bad vertex
            ("alphabet: 0 1\ngraph:\nedge 0 -1 1\n", "line 3"),
            ("alphabet: 0 1\ngraph:\nedge 0 0 2\n", "line 3"),   # bad label
            ("alphabet: 0 1\nbogus:\n", "line 2"),
        ]
        for text, frag in cases:
            with pytest.raises(ParseError) as ei:
                parse_shift_text(text, "<t>")
            assert frag in str(ei.value), text

    def test_empty_forbidden_word_rejected(self):
        with pytest.raises(ParseError):
            parse_shift_text("alphabet: 0 1\nforbidden:\n''\n", "<t>")


class TestCaFormat:

    def test_round_trip(self, full2):
        raw = parse_ca_text(
            "memory: 0 1\nrule 00 0\nrule 01 1\nrule 10 1\nrule 11 0\n",
            "<t>")
        t = bind_ca(raw, full2.alphabet)
        assert t.table == ("0", "1", "1", "0")
        assert (t.mem_left, t.mem_right) == (0, 1)

    def test_bundled_fixtures_parse(self, full2):
        shift_names, ca_names = bundled_names()
        assert {"full2", "golden", "even", "twopoint",
                "mixnot_2"} <= set(shift_names)
        assert {"xor", "identity", "collapse", "const0"} <= set(ca_names)
        for name in shift_names:
            bundled_shift(name)
        for name in ca_names:
            bundled_raw_ca(name)

    def test_errors_carry_line_numbers(self, full2):
        cases = [
            ("rule 0 0\n", "line 1"),              # rule before memory
            ("memory: 1 0\n", "line 1"),           # r < l
            ("memory: 0 x\n", "line 1"),
            ("memory: 0 0\nmemory: 0 0\n", "line 2"),
            ("memory: 0 0\nrule 0\n", "line 2"),   # missing output
            ("memory: 0 0\nbogus 0 0\n", "line 2"),
        ]
        for text, frag in cases:
            with pytest.raises(ParseError) as ei:
                parse_ca_text(text, "<t>")
            assert frag in str(ei.value), text

    def test_duplicate_rule_rejected(self, full2):
        raw = parse_ca_text("memory: 0 0\nrule 0 0\nrule 0 1\nrule 1 1\n",
                            "<t>")
        with pytest.raises(ParseError) as ei:
            bind_ca(raw, full2.alphabet)
        assert "line 3" in str(ei.value)

    def test_partial_table_names_missing_word(self, full2):
        raw = parse_ca_text("memory: 0 1\nrule 00 0\nrule 01 1\nrule 10 1\n",
                            "<t>")
        with pytest.raises(ParseError) as ei:
            bind_ca(raw, full2.alphabet)
        assert "11" in str(ei.value)

    def test_symbol_outside_alphabet(self, full2):
        raw = parse_ca_text("memory: 0 0\nrule 0 0\nrule 2 0\n", "<t>")
        with pytest.raises(ParseError):
            bind_ca(raw, full2.alphabet)


class TestCliShift:

    def test_even_analysis(self, capsys):
        assert main(["shift", "analyze", "even"]) == 0
        out = capsys.readouterr().out
        assert "strongly irreducible: yes" in out
        assert "#: cert_N0_bound 3" in out
        assert "#: entropy_spectral 0.481211824956 2.32559e-10" in out

    def test_least_tolerance(self, capsys):
        # the least accepted tol still brackets golden's root with width
        assert main(["shift", "analyze", "golden", "--tol", "1e-12"]) == 0
        out = capsys.readouterr().out
        assert "#: entropy_spectral 0.48121182506 1.05305e-13" in out

    def test_suffix_form_matches_bare_name(self, capsys):
        assert main(["shift", "analyze", "even.shift"]) == 0
        a = machine_lines(capsys.readouterr().out)
        assert main(["shift", "analyze", "even"]) == 0
        b = machine_lines(capsys.readouterr().out)
        assert a == b

    def test_twopoint_analysis(self, capsys):
        assert main(["shift", "analyze", "twopoint"]) == 0
        out = capsys.readouterr().out
        assert "#: irreducible 0" in out
        assert "#: si 0" in out
        assert "#: entropy_spectral 0 0" in out

    def test_golden_minimal_gap(self, capsys):
        assert main(["shift", "analyze", "golden", "--minimal-gap", "10"]) == 0
        out = capsys.readouterr().out
        assert "#: minimal_gap 1" in out
        assert "#: cert_N0_bound 4" in out

    def test_block_table(self, capsys):
        assert main(["shift", "entropy", "golden", "--n-max", "6"]) == 0
        out = capsys.readouterr().out
        assert "6\t21\t" in out
        assert "#: entropy_blocks" in out

    def test_parse_failure_exit_one(self, capsys, tmp_path):
        p = tmp_path / "bad.shift"
        p.write_text("alphabet: 0 1\nforbidden:\n12\n")
        assert main(["shift", "analyze", str(p)]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_missing_file_exit_one(self, capsys):
        assert main(["shift", "analyze", "nosuch"]) == 1
        assert "no such file or bundled shift" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, what", [
        (["shift", "analyze", "{dir}"], "cannot read: Is a directory"),
        (["ca", "analyze", "full2", "{dir}"], "cannot read: Is a directory"),
        (["shift", "analyze", "{bom}"],
         "not UTF-8 text: invalid start byte at byte 0"),
    ], ids=["shift-directory", "ca-directory", "shift-utf16-bom"])
    def test_unreadable_file_exit_one(self, capsys, tmp_path, argv, what):
        bom = tmp_path / "bom.shift"
        bom.write_bytes(b"\xff\xfealphabet: 0 1\nforbidden:\n11\n")
        argv = [a.format(dir=tmp_path, bom=bom) for a in argv]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {argv[-1]}: {what}\n"

    def test_sparse_vertex_ids(self, capsys, tmp_path):
        # the ids that occur are numbered densely, so one large id costs
        # no more than a small one and changes nothing else
        outs = []
        for v, w in ((0, 1), (10 ** 12, 5)):
            p = tmp_path / f"even{v}.shift"
            p.write_text(f"alphabet: 0 1\ngraph:\nedge {v} {v} 0\n"
                         f"edge {v} {w} 1\nedge {w} {v} 1\n")
            assert main(["shift", "analyze", str(p), "--minimal-gap", "64",
                         "--table", "6"]) == 0
            outs.append(capsys.readouterr().out.split("\n", 1))
        assert outs[1][0].endswith("over {0,1}, kind sofic")
        assert outs[0][1] == outs[1][1]
        assert "#: minimal_gap 2\n" in outs[1][1]


class TestCliCa:

    def test_xor_on_full(self, capsys):
        assert main(["ca", "analyze", "full2", "xor"]) == 0
        out = capsys.readouterr().out
        assert "#: pre_injective 1 point" in out
        assert "#: injective 0" in out
        assert "#: surjective 1" in out
        assert "#: consistent 1" in out

    def test_collapse_on_twopoint(self, capsys):
        assert main(["ca", "analyze", "twopoint", "collapse"]) == 0
        out = capsys.readouterr().out
        assert "#: garden_of_eden 1" in out
        assert "#: surjective 0" in out
        assert "#: pre_injective 1 point" in out

    def test_identity_on_golden(self, capsys):
        assert main(["ca", "analyze", "golden", "identity"]) == 0
        out = capsys.readouterr().out
        assert "#: injective 1" in out
        assert "#: surjective 1" in out
        assert out.count("#: h_domain") == 1
        h_dom = [l for l in machine_lines(out) if "h_domain" in l][0]
        h_img = [l for l in machine_lines(out) if "h_image" in l][0]
        assert h_dom.split()[-1] == h_img.split()[-1]

    def test_wide_rule_file_is_refused(self, capsys, tmp_path):
        # the cap trips before the 2^41-entry table is allocated
        p = tmp_path / "wide.ca"
        p.write_text("memory: 0 40\nrule " + "0" * 41 + " 0\n")
        assert main(["ca", "analyze", "full2", str(p)]) == 1
        assert capsys.readouterr().err == \
            "error: TableTooLarge: table needs 2^41 entries, cap is 4194304\n"

    def test_non_endomorphism_exit_one(self, capsys):
        assert main(["ca", "analyze", "golden", "xor"]) == 1
        assert capsys.readouterr().err == \
            "error: image leaves the shift: witness '11'\n"


class TestCliCorpus:

    def test_small_corpus(self, capsys):
        assert main(["corpus", "--shift", "full2", "--count", "5",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "#: summary shift=full2 kept=5 skipped=0 contradictions=0" in out
        assert "#: 3, 1, 1, 1, 1," in out

    def test_bundled_examples(self, capsys):
        assert main(["corpus", "--paper-examples"]) == 0
        out = capsys.readouterr().out
        assert "CONTRADICTION" not in out
        assert "#: example" in out

    def test_bad_memory_exit_one(self, capsys):
        for memory in ("banana", "2..0", "0..1..2"):
            with pytest.raises(SystemExit) as ei:
                main(["corpus", "--shift", "full2", "--count", "2",
                      "--memory", memory])
            assert ei.value.code == 1
            assert f"bad memory interval {memory!r}" in \
                capsys.readouterr().err


class TestPlantedContradictions:
    """A planted fault must surface as a contradiction in every front end:
    a ``#: contradiction`` line and exit code 2."""

    MYHILL = ("pre-injective endomorphism of a strongly irreducible shift "
              "is not surjective")

    @pytest.fixture
    def xor_not_onto(self, monkeypatch):
        """``is_surjective`` answers no for xor, which is onto."""
        real = soficlab.ca.is_surjective

        def planted(t, x, y):
            if t.table == xor_ca().table:
                return Decision(False, x.word("11"), "point", note="planted")
            return real(t, x, y)
        monkeypatch.setattr(soficlab.ca, "is_surjective", planted)

    def test_run_corpus(self, xor_not_onto, full2):
        # seed 6 draws the xor table at memory 0..1
        rep = run_corpus(full2, count=3, seed=5, memory=(0, 1))
        assert rep.contradictions == (f"seed 6: {self.MYHILL}",)
        assert rep.worst_exit == 2

    def test_corpus_cli(self, xor_not_onto, capsys):
        assert main(["corpus", "--shift", "full2", "--count", "3",
                     "--seed", "5"]) == 2
        out = capsys.readouterr().out
        assert f"#: contradiction seed 6: {self.MYHILL}" in out
        assert "#: summary shift=full2 kept=3 skipped=0 contradictions=1" \
            in out

    def test_paper_examples(self, xor_not_onto, capsys):
        assert main(["corpus", "--paper-examples"]) == 2
        lines = [l for l in machine_lines(capsys.readouterr().out)
                 if l.startswith("#: contradiction")]
        assert lines == [f"#: contradiction xor on full2: {self.MYHILL}"]

    def test_ca_analyze(self, xor_not_onto, capsys):
        assert main(["ca", "analyze", "full2", "xor"]) == 2
        out = capsys.readouterr().out
        assert f"#: contradiction xor on full2: {self.MYHILL}" in out
        assert "#: consistent 0" in out

    def test_ca_analyze_block_counts(self, monkeypatch, capsys):
        # an image with too many blocks: the full shift on three symbols
        full3 = parse_shift_text("alphabet: 0 1 2\nforbidden:\n", "<t>")
        monkeypatch.setattr(soficlab.corpus, "image_presentation",
                            lambda t, x: full3)
        assert main(["ca", "analyze", "full2", "xor"]) == 2
        lines = [l for l in machine_lines(capsys.readouterr().out)
                 if l.startswith("#: contradiction")]
        assert lines == ["#: contradiction xor on full2: image block counts "
                         "exceed domain block counts"]


class TestCliEmptyDomain:
    """Rules on the empty shift: the image is the empty shift too."""

    @pytest.fixture
    def empty(self, tmp_path):
        p = tmp_path / "empty.shift"
        p.write_text("alphabet: 0 1\nforbidden:\n0\n1\n")
        return str(p)

    def test_ca_analyze(self, capsys, empty):
        assert main(["ca", "analyze", empty, "identity"]) == 0
        out = capsys.readouterr().out
        assert "#: surjective 1" in out
        assert "#: consistent 1" in out

    def test_corpus(self, capsys, empty):
        assert main(["corpus", "--shift", empty, "--count", "3",
                     "--memory", "0..2"]) == 0
        out = capsys.readouterr().out
        assert "#: 0, 1, 1, 1, 1, 0, 0" in out
        assert f"#: summary shift={empty} kept=3 skipped=0 " \
               "contradictions=0" in out


class TestCliTilingLemma:

    def test_tiling_line(self, capsys):
        assert main(["tiling", "check", "--k", "3", "--n", "30"]) == 0
        out = capsys.readouterr().out
        assert "#: tiling k 3 n 30 count 10 ratio 1/3 alpha_ok 1" in out

    def test_tiling_short_window_prints_no_half_report(self, capsys):
        # the density is computed before the first line is printed
        assert main(["tiling", "check", "--k", "3", "--n", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "WindowTooSmall" in err

    def test_lemma_golden(self, capsys):
        assert main(["lemma41", "check", "golden", "--d", "1",
                     "--n", "18"]) == 0
        out = capsys.readouterr().out
        assert "#: lemma41 d 1 stride 9 tiles 1 q 4895 total 6765 holds 1" in out

    def test_lemma_needs_certificate(self, capsys):
        assert main(["lemma41", "check", "twopoint", "--d", "1",
                     "--n", "10"]) == 1
        assert "CertificateMissing" in capsys.readouterr().err

    def test_lemma_on_empty_shift(self, capsys, tmp_path):
        p = tmp_path / "empty.shift"
        p.write_text("alphabet: 0 1\nforbidden:\n0\n1\n")
        assert main(["lemma41", "check", str(p)]) == 1
        assert capsys.readouterr().err == \
            "error: no pattern to exclude: the shift is empty\n"

    @pytest.mark.parametrize("pattern", ["1", "11"])
    def test_lemma_pattern_outside_the_blocks(self, capsys, pattern):
        # "1" has the wrong length, "11" is forbidden in golden
        assert main(["lemma41", "check", "golden", "--d", "2",
                     "--pattern", pattern]) == 1
        assert capsys.readouterr().err == \
            (f"error: WordNotInLanguage: pattern {pattern!r} is not an "
             "allowed word of length 2\n")


class TestCliContract:

    def test_usage_error_is_exit_one(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["shift", "analyze"])
        assert ei.value.code == 1

    def test_unknown_command_exit_one(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["bogus"])
        assert ei.value.code == 1

    @pytest.mark.parametrize("argv", [
        "shift analyze golden --n-max 1",
        "shift analyze golden --tol 0",
        "shift analyze golden --tol 1e-13",
        "shift analyze golden --table -1",
        "shift analyze golden --minimal-gap -3",
        "shift entropy golden --n-max 0",
        "shift entropy golden --tol nan",
        "ca analyze full2 xor --tol -1",
        "tiling check --k 0",
        "tiling check --n -1",
        "lemma41 check golden --d 0",
        "lemma41 check golden --n -1",
        "shift analyze golden --n-max x",
        "corpus --shift full2 --count 2 --memory 2..0",
        "corpus --shift full2 --count 2 --memory banana",
        "corpus --shift full2 --count -3",
    ])
    def test_bad_argument_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as ei:
            main(argv.split())
        assert ei.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: ")
        assert "Traceback" not in err

    def test_machine_lines_are_stable(self, capsys):
        assert main(["shift", "analyze", "golden"]) == 0
        a = machine_lines(capsys.readouterr().out)
        assert main(["shift", "analyze", "golden"]) == 0
        b = machine_lines(capsys.readouterr().out)
        assert a == b
        assert a  # non-empty
