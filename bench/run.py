"""soficlab benchmark: one workload per run, one JSON line of metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload corpus-w3 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, a table

``--trace 0`` times one pass over the workload, then runs its light
instances again until the run has measured for ``--seconds`` (and for at
least MIN_REPEAT_S more), and reports the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics.  Either way the outputs of the first pass are checked by
``checks.py``, and every later run must reproduce them.  The last line of
stdout is the JSON result; a record with the slowest instances and (when
traced) the spans is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_RUNS = 3
REPEAT_CAP_S = 2.0
MIN_REPEAT_S = 8.0  # even after a first pass longer than --seconds
TAIL = 5
FULL_DOMAINS = ("full2", "full3")
END_TO_END_UNITS = {"wall_s": "s", "inst_p50_ms": "ms", "inst_p95_ms": "ms",
                    "inst_max_s": "s", "decided_share": "ratio",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_probe(workload: str) -> None:
    """Run in a fresh interpreter: time the import and the domain build."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    wl.build_domains(workload)
    print(time.perf_counter() - t0)


def measure_setup(workload: str) -> float:
    """Median of SETUP_RUNS fresh-interpreter set-ups, after one warm-up
    that also writes the bytecode caches."""
    samples = []
    for i in range(SETUP_RUNS + 1):
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", workload],
            capture_output=True, text=True, env=_env(), timeout=120,
            check=False)
        if res.returncode != 0:
            raise BenchError(f"set-up probe failed: {res.stderr.strip()}")
        if i:
            samples.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def import_soficlab():
    sys.path.insert(0, str(SRC))
    import soficlab
    if Path(soficlab.__file__).resolve().parent != (SRC / "soficlab").resolve():
        raise BenchError(f"imported soficlab from {soficlab.__file__}")
    return soficlab


def write_inputs(items: list[dict], input_dir: Path) -> None:
    input_dir.mkdir(parents=True, exist_ok=True)
    for item in items:
        if "text" in item:
            (input_dir / item["file"]).write_text(item["text"], encoding="utf-8")


def timed_pass(runner, items, tracer=None):
    """One pass in workload order, on freshly built domain shifts (so
    nothing cached on a domain object carries over from an earlier pass).
    Returns per-instance seconds, outcomes and errors."""
    times, outcomes, errors = [], [], []
    clock = time.perf_counter
    runner.refresh()
    gc.collect()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.instance = i
        t0 = clock()
        outcome, error = runner.run(item)
        times.append(clock() - t0)
        outcomes.append(outcome)
        errors.append(error)
    return times, outcomes, errors


def repeat_light(runner, items, first, signatures, errors, seconds):
    """Run every instance that took under REPEAT_CAP_S in the first pass
    again, round after round on fresh domains, until ``seconds`` more have
    passed.  Heavier instances
    average the machine's noise over their own length and run once.
    Returns the extra times of each instance and the indices of instances
    whose outputs changed."""
    light = [i for i, t in enumerate(first) if t < REPEAT_CAP_S]
    extra = [[] for _ in items]
    changed = set()
    clock = time.perf_counter
    deadline = clock() + seconds
    while light and clock() < deadline:
        runner.refresh()
        for i in light:
            if clock() >= deadline:
                break
            t0 = clock()
            outcome, error = runner.run(items[i])
            extra[i].append(clock() - t0)
            if error != errors[i] or wl.signature(outcome) != signatures[i]:
                changed.add(i)
    return extra, changed


def check_outputs(workload, items, outcomes, errors, domains, sofic):
    """Failures of the independent checks, plus GoE words left unchecked."""
    fails, unchecked = [], 0
    for item, outcome, error in zip(items, outcomes, errors):
        if workload == wl.SHIFT_ANALYZE:
            fails += [f"{item['file']}: {f}"
                      for f in checks.check_analyze_output(*outcome)]
        elif error is None:
            f, u = checks.check_corpus_instance(
                item, outcome, domains[item["shift"]],
                item["shift"] in FULL_DOMAINS, sofic)
            fails += f
            unchecked += u
    return fails, unchecked


def nearest_rank(sorted_vals: list[float], q: float) -> float:
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def corpus_counts(items, outcomes, errors) -> dict:
    kept = skipped = contradictions = 0
    undecided = []
    for item, outcome, error in zip(items, outcomes, errors):
        if error is not None:
            undecided.append(f"{wl.label(item)} {error}")
        elif not isinstance(outcome, tuple):
            kept += len(outcome.instances)
            skipped += outcome.skipped
            contradictions += len(outcome.contradictions)
    return {"kept": kept, "skipped": skipped,
            "contradictions": contradictions, "undecided": sorted(undecided)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "soficlab" / "__init__.py").is_file():
        raise BenchError(f"no soficlab package under {SRC}")
    setup_s = None if trace else measure_setup(workload)
    items = wl.make_inputs(workload, seed)
    input_dir = OUT / "inputs" / workload
    write_inputs(items, input_dir)
    sofic = import_soficlab()
    runner = wl.Runner(workload, input_dir)

    times, outcomes, errors = timed_pass(runner, items)
    signatures = [wl.signature(o) for o in outcomes]
    tracer, extra, changed = None, [[] for _ in items], set()
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced, outs, errs = timed_pass(runner, items, tracer)
        finally:
            tracer.uninstall()
        changed = {i for i in range(len(items)) if errs[i] != errors[i]
                   or wl.signature(outs[i]) != signatures[i]}
    else:
        extra, changed = repeat_light(runner, items, times, signatures,
                                      errors,
                                      max(seconds - sum(times), MIN_REPEAT_S))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    fails = [f"{wl.label(items[i])}: a later run gave other outputs"
             for i in sorted(changed)]
    check_fails, unchecked = check_outputs(workload, items, outcomes, errors,
                                           runner.domains, sofic)
    fails += check_fails

    per_inst = [statistics.median([t, *more]) for t, more in zip(times, extra)]
    order = sorted(range(len(items)), key=per_inst.__getitem__, reverse=True)
    tail = []
    for i in order[:TAIL]:
        row = {"instance": wl.label(items[i]), "seconds": per_inst[i],
               "outcome": errors[i] or "decided"}
        if tracer is not None:
            from tracer import stage_of
            row["stage"] = stage_of(tracer.spans, i)
        tail.append(row)

    failed = sum(e is not None for e in errors)
    counts = corpus_counts(items, outcomes, errors)
    if trace:
        from tracer import layer_metrics
        values = layer_metrics(tracer.spans)
        values["corpus.kept"] = counts["kept"]
        values["corpus.skipped"] = counts["skipped"]
        values["corpus.contradictions"] = counts["contradictions"]
        values["trace.overhead_s"] = sum(traced) - sum(times)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-{seed}.jsonl")
        units = {k: layer_unit(k) for k in values}
    else:
        ranked = sorted(per_inst)
        values = {"wall_s": sum(per_inst),
                  "inst_p50_ms": 1000 * statistics.median(ranked),
                  "inst_p95_ms": 1000 * nearest_rank(ranked, 0.95),
                  "inst_max_s": ranked[-1],
                  "decided_share": (len(items) - failed) / len(items),
                  "peak_rss_mb": rss_mb,
                  "setup_s": setup_s}
        units = END_TO_END_UNITS
    repeats = sum(map(len, extra))
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "instances": len(items), "first_pass_s": sum(times),
              "repeat_runs": repeats, **counts, "tail": tail,
              "goe_unchecked": unchecked, "check_failures": fails[:50],
              "metrics": values}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"# {workload} seed {seed}: {len(items)} instances, first pass "
          f"{sum(times):.2f} s, {repeats} repeat runs, kept {counts['kept']} "
          f"skipped {counts['skipped']} "
          f"contradictions {counts['contradictions']}, "
          f"undecided {counts['undecided'] or 'none'}, "
          f"GoE unchecked {unchecked}")
    for row in tail:
        print(f"# tail {row['instance']} {row['seconds']:.4f} s "
              f"{row['outcome']} {row.get('stage', '')}".rstrip())
    for f in fails[:20]:
        print(f"# CHECK FAILED {f}")
    return {"correct": not fails, "attempted": len(items), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()}}


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process; a table of end-to-end metrics."""
    results = {}
    for name in wl.WORKLOAD_NAMES:
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600, check=False)
        if res.returncode != 0:
            print(res.stdout + res.stderr, file=sys.stderr)
            return 1
        results[name] = json.loads(res.stdout.strip().splitlines()[-1])
        r = results[name]
        print(f"{name}: correct {r['correct']}, attempted {r['attempted']}, "
              f"failed {r['failed']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric:14s} {m['value']:12.4f} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=(*wl.WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", choices=wl.WORKLOAD_NAMES,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
