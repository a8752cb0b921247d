"""Spans around soficlab's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function wherever a soficlab module
holds it (its own module and every module that imported the name), and
``uninstall`` puts the originals back.  Spans stay in memory: name, start,
end, parent span, instance, time spent in child spans, the exception type
if one escaped, and sizes read from the returned object.  Self time is the
span's duration minus its children's.
"""

from __future__ import annotations

import json
import sys
import time

def _acceptor_key(x) -> int:
    return hash((x.alphabet.symbols, x.acceptor.trans))


def _shift_built(args, kwargs, result):
    self, origin = args[0], args[1]
    return {"key": hash(origin), "states": self.acceptor.n_states}


def _determinized(args, kwargs, result):
    return {"states": result.n_states}


def _determinize_failed(args, kwargs):
    """Subset states built before the cap tripped."""
    if len(args) > 1:
        return {"states_built": args[1]}
    if "cap" in kwargs:
        return {"states_built": kwargs["cap"]}
    return {"states_built": getattr(sys.modules["soficlab.dfa"], "_STATE_CAP", 0)}


def _image_built(args, kwargs, result):
    t, x = args[0], args[1]
    return {"key": hash((t.mem_left, t.mem_right, t.table, _acceptor_key(x)))}


# layer name -> (module, attribute, sizer of a normal return)
TARGETS = {
    "shiftio.parse": ("soficlab.shiftio", "parse_shift_text", None),
    "shift.build": ("soficlab.shift", "Shift.__init__", _shift_built),
    "dfa.determinize": ("soficlab.dfa", "determinize", _determinized),
    "dfa.minimize": ("soficlab.dfa", "minimize", None),
    "graph.follower_reduce": ("soficlab.graph", "follower_reduce", None),
    "graph.essentialize": ("soficlab.graph", "essentialize", None),
    "props.is_irreducible": ("soficlab.props", "is_irreducible", None),
    "props.is_mixing": ("soficlab.props", "is_mixing", None),
    "props.synchronized_cover": ("soficlab.props", "synchronized_cover",
                                 lambda a, k, r: {"key": _acceptor_key(a[0])}),
    "props.is_strongly_irreducible": ("soficlab.props",
                                      "is_strongly_irreducible", None),
    "dfa.backward_subsets": ("soficlab.dfa", "backward_subsets",
                             lambda a, k, r: {"sets": len(r)}),
    "dfa.shortest_sync": ("soficlab.dfa", "shortest_sync", None),
    "props.si_certificate": ("soficlab.props", "si_certificate", None),
    "props.minimal_gap": ("soficlab.props", "minimal_gap", None),
    "graph.directed_diameter": ("soficlab.graph", "directed_diameter", None),
    "dfa.word_counts": ("soficlab.dfa", "word_counts", None),
    "entropy.spectral": ("soficlab.entropy", "entropy_spectral",
                         lambda a, k, r: {"iterations":
                                          r.params.get("iterations", 0)}),
    "entropy.blocks": ("soficlab.entropy", "entropy_blocks", None),
    "graph.path_graph": ("soficlab.graph", "path_graph", None),
    "ca.pair_graph": ("soficlab.ca", "pair_graph",
                      lambda a, k, r: {"edges": len(r.edges)}),
    "ca.is_pre_injective": ("soficlab.ca", "is_pre_injective", None),
    "ca.is_injective": ("soficlab.ca", "is_injective", None),
    "ca.is_surjective": ("soficlab.ca", "is_surjective", None),
    "ca.image": ("soficlab.ca", "image_presentation", _image_built),
    "shift.language_included": ("soficlab.shift", "language_included", None),
    "dfa.shortest_missing": ("soficlab.dfa", "shortest_missing", None),
    "dfa.shortest_difference": ("soficlab.dfa", "shortest_difference", None),
    "corpus.run_corpus": ("soficlab.corpus", "run_corpus", None),
    "cli.main": ("soficlab.cli", "main", None),
}
ON_ERROR = {"dfa.determinize": _determinize_failed}

# span fields
NAME, START, END, PARENT, INSTANCE, CHILD, ERROR, SIZES = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.instance: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, sizer, on_error):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.instance, 0.0, None, None]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                span[ERROR] = type(exc).__name__
                if on_error is not None:
                    span[SIZES] = on_error(args, kwargs)
                raise
            else:
                span[END] = clock()
                if sizer is not None:
                    span[SIZES] = sizer(args, kwargs, result)
                return result
            finally:
                stack.pop()
                if stack:
                    spans[stack[-1]][CHILD] += span[END] - span[START]

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "soficlab" or k.startswith("soficlab.")]
        for name, (modname, attr, sizer) in TARGETS.items():
            owner = sys.modules[modname]
            if "." in attr:  # a method: rebind on its class
                cls_name, meth = attr.split(".")
                owner, attr = getattr(owner, cls_name), meth
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, sizer, ON_ERROR.get(name))
            holders = [owner] if owner not in mods else mods
            for mod in holders:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME],
                                     "start": s[START], "end": s[END],
                                     "parent": s[PARENT],
                                     "instance": s[INSTANCE],
                                     "self_s": s[END] - s[START] - s[CHILD],
                                     "error": s[ERROR], "sizes": s[SIZES]})
                         + "\n")


def self_time(span) -> float:
    return span[END] - span[START] - span[CHILD]


def stage_of(spans: list[list], instance: int) -> str:
    """The innermost span of an instance that raised; failing that, the
    span with the most self time."""
    mine = [i for i, s in enumerate(spans) if s[INSTANCE] == instance]
    raised = {i for i in mine if spans[i][ERROR] is not None}
    for i in raised:
        if not any(spans[j][PARENT] == i for j in raised):
            return f"{spans[i][NAME]} raised {spans[i][ERROR]}"
    if not mine:
        return "-"
    top = max(mine, key=lambda i: self_time(spans[i]))
    return f"{spans[top][NAME]} ({self_time(spans[top]):.3f} s self)"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


CALLS = ("shiftio.parse", "shift.build", "dfa.determinize", "props.is_mixing",
         "props.synchronized_cover", "dfa.word_counts", "entropy.spectral",
         "ca.pair_graph", "ca.image", "shift.language_included")
SELF_S = ("shiftio.parse", "shift.build", "dfa.determinize", "dfa.minimize",
          "graph.follower_reduce", "graph.essentialize",
          "props.synchronized_cover", "dfa.backward_subsets",
          "dfa.shortest_sync", "props.si_certificate", "props.minimal_gap",
          "graph.directed_diameter", "dfa.word_counts", "entropy.spectral",
          "entropy.blocks", "graph.path_graph", "ca.pair_graph",
          "ca.is_pre_injective", "ca.is_injective", "ca.is_surjective",
          "ca.image", "dfa.shortest_missing", "dfa.shortest_difference",
          "cli.main")
DOMAIN_INVARIANTS = ("props.is_strongly_irreducible", "entropy.spectral")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer calls, self seconds, sizes and useful-work ratios, over the
    spans of instances (the benchmark's own set-up is left out)."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    keys: dict[str, set] = {}
    size_sum: dict[tuple[str, str], int] = {}
    size_max: dict[tuple[str, str], int] = {}
    blowups = 0
    domain_inv = 0.0
    for s in spans:
        if s[INSTANCE] is None:
            continue
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + self_time(s)
        for k, v in (s[SIZES] or {}).items():
            if k == "key":
                keys.setdefault(name, set()).add(v)
            else:
                size_sum[name, k] = size_sum.get((name, k), 0) + v
                size_max[name, k] = max(size_max.get((name, k), 0), v)
        if name == "shift.build" and s[ERROR] == "StateBlowup":
            blowups += 1
        if name in DOMAIN_INVARIANTS and s[PARENT] >= 0 \
                and spans[s[PARENT]][NAME] == "corpus.run_corpus":
            domain_inv += s[END] - s[START]

    out = {f"{n}.calls": calls.get(n, 0) for n in CALLS}
    out.update({f"{n}.self_s": self_s.get(n, 0.0) for n in SELF_S})
    for n in ("shift.build", "props.synchronized_cover", "ca.image"):
        out[f"{n.replace('synchronized_', '')}.distinct_ratio"] = _ratio(
            len(keys.get(n, ())), calls.get(n, 0))
    det = ("dfa.determinize", "states")
    out.update({
        "dfa.determinize.states_max": size_max.get(det, 0),
        "dfa.determinize.states_sum": size_sum.get(det, 0),
        "dfa.subset_useful_ratio": _ratio(
            size_sum.get(("shift.build", "states"), 0),
            size_sum.get(det, 0)
            + size_sum.get(("dfa.determinize", "states_built"), 0)),
        "shift.blowups": blowups,
        "shift.acceptor.states_max": size_max.get(("shift.build", "states"), 0),
        "dfa.backward_subsets.sets_sum":
            size_sum.get(("dfa.backward_subsets", "sets"), 0),
        "entropy.spectral.iterations_sum":
            size_sum.get(("entropy.spectral", "iterations"), 0),
        "ca.pair_graph.edges_sum": size_sum.get(("ca.pair_graph", "edges"), 0),
        "corpus.domain_invariants.self_s": domain_inv,
    })
    return out
