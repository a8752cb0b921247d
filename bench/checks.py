"""Output checks that do not read the acceptor under test.

Rules are applied with this file's own table lookup, and membership in a
domain is decided from ``Shift.origin`` alone: forbidden words give a
vertex-per-block graph, a labeled graph is used as given, and either is
pruned to its essential part and simulated as a set of vertices.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import itertools
import re

GOE_NODE_CAP = 200_000  # preimage search nodes before a GoE word goes unchecked
_PRINT_SLACK = 1e-9     # rounding of the CLI's printed entropy figures


class Membership:
    """Language of a shift, decided from its origin description."""

    def __init__(self, origin):
        symbols = origin.alphabet.symbols
        self.rank = {s: i for i, s in enumerate(symbols)}
        na = len(symbols)
        if hasattr(origin, "forbidden"):
            n, edges = _block_graph(
                na, [tuple(self.rank[s] for s in w.letters)
                     for w in origin.forbidden])
        else:
            n, edges = origin.n_vertices, list(origin.edges)
        alive = _essential(n, edges)
        self.post = [[[] for _ in range(na)] for _ in range(n)]
        for s, d, a in edges:
            if alive[s] and alive[d]:
                self.post[s][a].append(d)
        self.start = frozenset(v for v in range(n) if alive[v])

    def step(self, states: frozenset, a: int) -> frozenset:
        return frozenset(d for v in states for d in self.post[v][a])

    def contains(self, ranks) -> bool:
        cur = self.start
        for a in ranks:
            cur = self.step(cur, a)
            if not cur:
                return False
        return bool(self.start)


def _block_graph(na: int, bad: list[tuple[int, ...]]):
    """Vertices are the allowed (m-1)-blocks, m the longest forbidden word;
    an edge appends one symbol without creating a forbidden factor."""
    m = max((len(f) for f in bad), default=1)

    def clean(word):
        return not any(word[i:i + len(f)] == f for f in bad
                       for i in range(len(word) - len(f) + 1))

    verts = [w for w in itertools.product(range(na), repeat=m - 1) if clean(w)]
    vid = {w: i for i, w in enumerate(verts)}
    edges = []
    for w in verts:
        for a in range(na):
            ext = w + (a,)
            if clean(ext):
                edges.append((vid[w], vid[ext[1:]], a))
    return len(verts), edges


def _essential(n: int, edges) -> list[bool]:
    """Vertices on a bi-infinite path: repeatedly drop sources and sinks."""
    alive = [True] * n
    changed = True
    while changed:
        changed = False
        has_in, has_out = [False] * n, [False] * n
        for s, d, _ in edges:
            if alive[s] and alive[d]:
                has_out[s] = has_in[d] = True
        for v in range(n):
            if alive[v] and not (has_in[v] and has_out[v]):
                alive[v] = False
                changed = True
    return alive


class Rule:
    """A sliding-block rule, applied by direct table lookup."""

    def __init__(self, ca):
        self.width = ca.mem_right - ca.mem_left + 1
        self.na = len(ca.source.symbols)
        self.src_rank = {s: i for i, s in enumerate(ca.source.symbols)}
        self.out = [ca.target.symbols.index(s) for s in ca.table]

    def output(self, window) -> int:
        idx = 0
        for a in window:
            idx = idx * self.na + a
        return self.out[idx]

    def apply(self, ranks) -> tuple[int, ...]:
        k = self.width
        return tuple(self.output(ranks[i:i + k])
                     for i in range(len(ranks) - k + 1))

    def ranks(self, word) -> tuple[int, ...]:
        return tuple(self.src_rank[s] for s in word.letters)


def check_diamond(rule: Rule, dom: Membership, wit) -> list[str]:
    """Two distinct domain windows, equal images, common first and last
    width-1 symbols."""
    a, b = rule.ranks(wit.first.word), rule.ranks(wit.second.word)
    k = rule.width - 1
    fails = []
    if a == b or len(a) != len(b) or len(a) < rule.width:
        fails.append("diamond words are not distinct windows of one length")
    elif a[:k] != b[:k] or a[len(a) - k:] != b[len(b) - k:]:
        fails.append("diamond words do not share their ends")
    if not (dom.contains(a) and dom.contains(b)):
        fails.append("diamond word outside the domain")
    img = rule.apply(a)
    if img != rule.apply(b) or img != rule.ranks(wit.image):
        fails.append("diamond words have different images")
    return fails


def check_point_pair(rule: Rule, dom: Membership, wit) -> list[str]:
    """Two distinct words with equal images that stay domain words with
    equal images when their periodic ends are repeated."""
    a, b = rule.ranks(wit.first), rule.ranks(wit.second)
    lp, rp = wit.left_period, wit.right_period
    if a == b or len(a) != len(b) or not (0 < lp <= len(a)) \
            or not (0 < rp <= len(a)):
        return ["point pair is not two distinct words with valid periods"]
    fails = []
    if rule.apply(a) != rule.apply(b) or rule.apply(a) != rule.ranks(wit.image):
        fails.append("point pair has different images")
    ext_a = a[:lp] + a + a[len(a) - rp:]
    ext_b = b[:lp] + b + b[len(b) - rp:]
    if not all(dom.contains(w) for w in (a, b, ext_a, ext_b)):
        fails.append("point pair leaves the domain when its periods repeat")
    if rule.apply(ext_a) != rule.apply(ext_b):
        fails.append("point pair images differ once the periods repeat")
    return fails


def check_garden_of_eden(rule: Rule, dom: Membership,
                         word) -> tuple[list[str], bool]:
    """A Garden-of-Eden word of an endomorphism lies in the domain and has
    no domain preimage.

    Preimages are searched symbol by symbol, pruned by the rule output and
    by domain membership.  Returns (failures, checked); ``checked`` is False
    when the search passed GOE_NODE_CAP nodes without finishing.
    """
    g = rule.ranks(word)
    fails = [] if dom.contains(g) else ["GoE word is not in the shift"]
    need = len(g) + rule.width - 1
    nodes = 0
    stack = [((), dom.start)]
    while stack:
        pre, states = stack.pop()
        if len(pre) == need:
            return fails + [f"GoE word {word.text!r} has a preimage"], True
        for a in range(rule.na):
            nxt = dom.step(states, a)
            if not nxt:
                continue
            w = pre + (a,)
            if len(w) >= rule.width and \
                    rule.output(w[len(w) - rule.width:]) != g[len(w) - rule.width]:
                continue
            nodes += 1
            if nodes > GOE_NODE_CAP:
                return fails, False
            stack.append((w, nxt))
    return fails, True


def check_corpus_instance(item: dict, rep, domain, is_full: bool,
                          sofic) -> tuple[list[str], int]:
    """Re-derive the witness behind each negative verdict of one kept
    corpus instance and check it.

    ``sofic`` is the soficlab package (for ``random_ca`` and the decision
    procedures whose witnesses are checked).  Returns (failures, number of
    GoE words left unchecked by the search cap).
    """
    where = f"{item['shift']} seed {item['seed']}"
    fails = [f"contradiction: {c}" for c in rep.contradictions]
    if not rep.instances:
        return [f"{where}: {f}" for f in fails], 0
    inst = rep.instances[0]
    ca = sofic.random_ca(domain.alphabet, domain.alphabet,
                         tuple(item["memory"]), item["seed"])
    rule = Rule(ca)
    dom = Membership(domain.origin)
    unchecked = 0
    if inst.pre_injective is False:
        fails += check_diamond(rule, dom,
                               sofic.is_pre_injective(ca, domain).witness)
    if inst.injective is False:
        fails += check_point_pair(rule, dom,
                                  sofic.is_injective(ca, domain).witness)
    if inst.surjective is False:
        goe = sofic.is_surjective(ca, domain, domain).witness
        if goe is not None:
            goe_fails, checked = check_garden_of_eden(rule, dom, goe)
            fails += goe_fails
            unchecked += not checked
    if is_full and inst.pre_injective != inst.surjective:
        fails.append(f"Moore-Myhill fails on a full shift "
                     f"(pre-injective {inst.pre_injective}, "
                     f"surjective {inst.surjective})")
    return [f"{where}: {f}" for f in fails], unchecked


_MACHINE = re.compile(r"^#: (\S+) (.*)$")


def check_analyze_output(code: int, text: str) -> list[str]:
    """Exit code, entropy brackets that overlap, minimal gap within the
    certificate bound.  Exit 1 (an input error or a cap) is an undecided
    instance, counted as a failed operation rather than a wrong answer."""
    if code == 2:
        return ["exit 2: contradiction of a certified implication"]
    if code != 0:
        return []
    fields = {}
    for line in text.splitlines():
        m = _MACHINE.match(line)
        if m:
            fields[m.group(1)] = m.group(2).split()
    fails = []
    if "empty" not in fields:
        if "entropy_spectral" not in fields or "entropy_blocks" not in fields:
            return ["entropy lines missing"]
        (sv, se), (bv, be) = (map(float, fields["entropy_spectral"]),
                              map(float, fields["entropy_blocks"]))
        if max(sv - se, bv - be) > min(sv + se, bv + be) + _PRINT_SLACK:
            fails.append(f"entropy brackets disjoint: spectral {sv}+-{se}, "
                         f"blocks {bv}+-{be}")
    if "minimal_gap" in fields and "cert_N0_bound" in fields:
        gap, bound = int(fields["minimal_gap"][0]), int(fields["cert_N0_bound"][0])
        if gap > bound:
            fails.append(f"minimal gap {gap} exceeds N0_bound {bound}")
    return fails
