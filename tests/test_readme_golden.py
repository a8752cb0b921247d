"""The README's command-line examples, pinned byte for byte.

Each command in the README's "Command line" block runs in process; its
stdout and exit code are joined into one transcript and compared with
``golden/readme_cli.txt``.  After an intended output change, rewrite the
golden file with ``PYTHONPATH=src python tests/test_readme_golden.py``
and review the diff.
"""

import contextlib
import io
import shlex
from pathlib import Path

from soficlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "readme_cli.txt"


def readme_commands() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.strip()]


def transcript() -> str:
    parts = []
    for cmd in readme_commands():
        argv = shlex.split(cmd)
        assert argv[0] == "soficlab", cmd
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv[1:])
        parts.append(f"$ {cmd}\n{out.getvalue()}[exit {code}]\n")
    return "\n".join(parts)


def test_readme_commands_match_golden():
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(transcript(), encoding="utf-8")
