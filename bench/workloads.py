"""Seeded inputs for the benchmark workloads, and the timed entry points.

A workload is a fixed list of instances.  An instance is one call into a
public entry point:

* corpus workloads call ``run_corpus(x, 1, seed, memory)`` once per rule
  seed, on a named domain shift;
* ``shift-analyze`` calls ``soficlab.cli.main`` in-process on one generated
  ``.shift`` file, with ``--minimal-gap 64`` and stdout captured.

The instance population of every workload is pinned, so that runs with
different workload seeds measure the same work: the corpus rule-seed
ranges are the cases named in the roadmap (blowups included), and the 200
``.shift`` files are drawn once from POPULATION_SEED.  Their costs are
heavy-tailed (one file takes seconds, most take milliseconds), so a
population redrawn per run would swamp any change under test.  The
workload seed given to the benchmark fixes the order the instances run in.

Nothing here imports soficlab at module import time, so the set-up probe
can time the first import.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

# name -> (domain, first rule seed, count, memory) parts of each corpus.
# corpus-w3 joins two sets that were first meant as workloads of their own
# (full shifts, where every rule is an endomorphism, and the constrained
# even/golden domains, where most are not): alone, each ran too briefly to
# time steadily on a shared 2-core machine.
CORPUS_PARTS = {
    "corpus-w3": (("full2", 42, 200, (0, 2)),
                  ("full3", 0, 50, (0, 2)),
                  ("even", 0, 500, (0, 2)),
                  ("golden", 0, 500, (0, 2))),
    "corpus-full2-w4": (("full2", 0, 200, (0, 3)),),
}
SHIFT_ANALYZE = "shift-analyze"
WORKLOAD_NAMES = ("corpus-w3", "corpus-full2-w4", SHIFT_ANALYZE)
SHIFT_FILES = 200
POPULATION_SEED = 1
MINIMAL_GAP_CAP = "64"


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The instances of ``workload`` in the order ``seed`` gives them, as
    plain JSON data."""
    if workload == SHIFT_ANALYZE:
        gen = random.Random(f"{workload}:{POPULATION_SEED}")
        items = [{"file": f"{i:03d}.shift",
                  "text": (_sft_text if i % 2 == 0 else _graph_text)(gen)}
                 for i in range(SHIFT_FILES)]
    else:
        items = [{"shift": name, "seed": s, "memory": list(memory)}
                 for name, first, count, memory in CORPUS_PARTS[workload]
                 for s in range(first, first + count)]
    random.Random(f"{workload}:{seed}").shuffle(items)
    return items


def input_bytes(items: list[dict]) -> bytes:
    return json.dumps(items, sort_keys=True).encode()


def _alphabet_line(k: int) -> str:
    return "alphabet: " + " ".join(str(a) for a in range(k))


def _sft_text(rng: random.Random) -> str:
    """Forbidden-word SFT: 2-3 letters, 3-8 words of length 2-8."""
    k = rng.randint(2, 3)
    words = ["".join(str(rng.randrange(k)) for _ in range(rng.randint(2, 8)))
             for _ in range(rng.randint(3, 8))]
    return "\n".join([_alphabet_line(k), "forbidden:", *words]) + "\n"


def _graph_text(rng: random.Random) -> str:
    """Labeled graph: 2-3 letters, 8-14 vertices, a spanning cycle plus
    one or two further out-edges per vertex."""
    k = rng.randint(2, 3)
    n = rng.randint(8, 14)
    edges = [(v, (v + 1) % n, rng.randrange(k)) for v in range(n)]
    for v in range(n):
        edges += [(v, rng.randrange(n), rng.randrange(k))
                  for _ in range(rng.randint(1, 2))]
    return "\n".join([_alphabet_line(k), "graph:",
                      *(f"edge {s} {d} {a}" for s, d, a in edges)]) + "\n"


def build_domains(workload: str) -> dict:
    """Import soficlab and build the workload's domain shifts (the set-up
    a user pays before the first instance)."""
    import soficlab
    import soficlab.cli  # noqa: F401  (the shift-analyze entry point)

    if workload == SHIFT_ANALYZE:
        return {}
    names = {name for name, *_ in CORPUS_PARTS[workload]}
    domains = {}
    for name in sorted(names):
        if name == "full3":
            domains[name] = soficlab.Shift.from_forbidden(
                soficlab.Alphabet(("0", "1", "2")), ())
        else:
            domains[name] = soficlab.bundled_shift(name)
    return domains


class Runner:
    """Runs instances of one workload and keeps what the checks need.

    ``run(item)`` returns ``(outcome, error)``: the outcome is the
    ``CorpusReport`` or ``(exit code, captured stdout)``; ``error`` names
    the exception type of an instance that ended without a verdict.  Any
    exception is caught here, so that one instance hitting a cap (or a
    bug) is recorded as undecided and the run goes on.
    """

    def __init__(self, workload: str, input_dir: Path):
        import soficlab.cli
        import soficlab.corpus

        self.workload = workload
        self.domains = build_domains(workload)
        self.input_dir = input_dir
        # looked up at call time, so a traced run sees rebound names
        self._cli = soficlab.cli
        self._corpus = soficlab.corpus

    def refresh(self) -> None:
        """Rebuild the domain shifts."""
        self.domains = build_domains(self.workload)

    def run(self, item: dict):
        if self.workload == SHIFT_ANALYZE:
            return self._analyze(item)
        x = self.domains[item["shift"]]
        try:
            rep = self._corpus.run_corpus(x, 1, item["seed"],
                                          tuple(item["memory"]))
        except Exception as exc:  # noqa: BLE001  (recorded as undecided)
            return None, type(exc).__name__
        return rep, None

    def _analyze(self, item: dict):
        path = str(self.input_dir / item["file"])
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self._cli.main(["shift", "analyze", path,
                                       "--minimal-gap", MINIMAL_GAP_CAP])
        except Exception as exc:  # noqa: BLE001  (recorded as undecided)
            return (1, out.getvalue()), type(exc).__name__
        text = out.getvalue()
        if code != 0:
            return (code, text), f"exit {code}"
        if "undecided" in text:
            return (code, text), "undecided"
        return (code, text), None


def label(item: dict) -> str:
    if "file" in item:
        return item["file"]
    lo, hi = item["memory"]
    return f"{item['shift']}:{item['seed']}@{lo}..{hi}"


def signature(outcome) -> str:
    """What a repeated pass must reproduce exactly."""
    if outcome is None:
        return ""
    if isinstance(outcome, tuple):
        code, text = outcome
        return f"{code}\n" + "\n".join(
            line for line in text.splitlines() if line.startswith("#:"))
    from soficlab import instance_lines
    return "\n".join([str(outcome.skipped), *instance_lines(outcome),
                      *outcome.contradictions])
