"""``ca analyze`` on every bundled shift with every bundled rule, pinned
byte for byte.

The 40 transcripts (stdout and exit code) pin the verdicts and the texts
of the diamond and point-pair witnesses, which the CI step over the same
pairs does not read.  After an intended output change, rewrite the golden
file with ``PYTHONPATH=src python tests/test_bundled_maps_golden.py`` and
review the diff.
"""

import contextlib
import io
from pathlib import Path

from soficlab import bundled_names
from soficlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "bundled_maps.txt"


def transcript() -> str:
    shifts, rules = bundled_names()
    parts = []
    for s in shifts:
        for r in rules:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["ca", "analyze", s, r])
            parts.append(f"$ soficlab ca analyze {s} {r}\n"
                         f"{out.getvalue()}[exit {code}]\n")
    return "\n".join(parts)


def test_bundled_maps_match_golden():
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(transcript(), encoding="utf-8")
