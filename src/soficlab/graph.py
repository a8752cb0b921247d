"""Finite labeled directed graphs and the structure ops the package needs.

A :class:`LabeledGraph` presents a set of bi-infinite label sequences: the
ones read along bi-infinite edge paths.  Vertices are ``0..n_vertices-1``;
edges carry a symbol rank into the graph's alphabet.  Parallel edges with
distinct labels are meaningful, exact duplicates are collapsed.

Functions here are pure: each returns a new graph (plus bookkeeping such as
old-vertex maps) and never mutates its input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import Alphabet, block_digits
from .errors import StateBlowup

_PATH_CAP = 500_000  # max window states of a k-block recoding


@dataclass(frozen=True)
class LabeledGraph:
    """Immutable labeled digraph.

    Parameters
    ----------
    alphabet : Alphabet
        Edge-label alphabet.
    n_vertices : int
        Vertex count; vertices are the ints ``0..n_vertices-1``.
    edges : tuple of (int, int, int)
        ``(src, dst, symbol_rank)`` triples.  Stored sorted and deduplicated.
    """

    alphabet: Alphabet
    n_vertices: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.n_vertices < 0:
            raise ValueError("negative vertex count")
        canon = tuple(sorted(set(map(tuple, self.edges))))
        n, na = self.n_vertices, len(self.alphabet)
        for s, d, a in canon:
            if not (0 <= s < n and 0 <= d < n):
                raise ValueError(f"edge ({s},{d}) out of range")
            if not (0 <= a < na):
                raise ValueError(f"edge label rank {a} out of range")
        object.__setattr__(self, "edges", canon)

    def out_map(self) -> list[list[tuple[int, int]]]:
        """Per-vertex list of ``(dst, symbol_rank)``, edge order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_vertices)]
        for s, d, a in self.edges:
            adj[s].append((d, a))
        return adj

    def is_right_resolving(self) -> bool:
        """No vertex carries two out-edges with the same label (edges are
        distinct, so two with one source and label differ in target)."""
        return len({(s, a) for s, _, a in self.edges}) == len(self.edges)

    def __repr__(self) -> str:
        return (f"LabeledGraph({self.n_vertices} vertices, "
                f"{len(self.edges)} edges over {self.alphabet.compact})")


def subgraph(g: LabeledGraph, keep) -> tuple[LabeledGraph, list[int]]:
    """Induced subgraph on ``keep``.  Returns (graph, old_vertex_of_new)."""
    old = sorted(set(keep))
    pos = {v: i for i, v in enumerate(old)}
    edges = tuple((pos[s], pos[d], a) for s, d, a in g.edges
                  if s in pos and d in pos)
    return LabeledGraph(g.alphabet, len(old), edges), old


def infinite_path_starts(n: int, edges, src: int, dst: int) -> list[bool]:
    """Flags of the vertices from which an infinite path starts, reading
    each edge from its field ``src`` to its field ``dst``; one O(V + E)
    peel of the vertices whose every step leads to a peeled vertex.

    ``edges`` are tuples (extra fields are ignored), so labeled and
    pair-graph edges both fit; ``src=1, dst=0`` follows edges backwards,
    to the vertices an infinite path ends in.
    """
    steps = [0] * n
    for e in edges:
        steps[e[src]] += 1
    dead = [v for v in range(n) if steps[v] == 0]
    if dead:  # an essential graph, the common case, skips the back lists
        back: list[list[int]] = [[] for _ in range(n)]
        for e in edges:
            back[e[dst]].append(e[src])
        for v in dead:  # grows while read: each vertex is appended once
            for u in back[v]:
                steps[u] -= 1
                if steps[u] == 0:
                    dead.append(u)
    return [k > 0 for k in steps]


def core_vertices(n: int, edges) -> list[bool]:
    """Vertices of the largest subgraph in which every vertex has an in-
    and an out-edge, as flags: those on a bi-infinite path, so with an
    infinite path both out of them and into them."""
    ahead = infinite_path_starts(n, edges, 0, 1)
    behind = infinite_path_starts(n, edges, 1, 0)
    return [a and b for a, b in zip(ahead, behind)]


def essentialize(g: LabeledGraph) -> tuple[LabeledGraph, list[int]]:
    """Largest subgraph where every vertex has an in- and an out-edge.

    Returns (graph, old_vertex_of_new).  The result presents the same set
    of bi-infinite label sequences; it may be empty.  When the peel removes
    nothing, the graph returned is ``g`` itself with the identity map.
    """
    alive = core_vertices(g.n_vertices, g.edges)
    if all(alive):
        return g, list(range(g.n_vertices))
    return subgraph(g, [v for v in range(g.n_vertices) if alive[v]])


def strongly_connected_components(adj: list[list[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative, over successor lists (``adj[v]`` the
    vertices one edge from v).  Components are sorted vertex lists; the
    list is in reverse topological order of the condensation, so it opens
    with a sink."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    onstack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                onstack[v] = True
            descended = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if onstack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    return comps


def directed_diameter(g: LabeledGraph) -> int:
    """Max over ordered vertex pairs of the shortest directed path length.

    Evolves ``rows[v]``, the bitmask of vertices within k steps of v: one
    more step ORs into it the rows of v's successors.  The diameter is the
    first k at which every row is full.  Raises ValueError unless the graph
    is strongly connected (the rows then stop changing before they fill).
    """
    n = g.n_vertices
    if n <= 1:
        return 0
    succ = [{v} for v in range(n)]
    for s, d, _ in g.edges:
        succ[s].add(d)
    full = (1 << n) - 1
    rows = [1 << v for v in range(n)]
    k = 0
    while rows.count(full) < n:
        nxt = []
        for ts in succ:
            m = 0
            for t in ts:
                m |= rows[t]
            nxt.append(m)
        if nxt == rows:
            raise ValueError("graph is not strongly connected")
        rows, k = nxt, k + 1
    return k


def _label_steps(g: LabeledGraph) -> list[list[tuple[int, int]]]:
    """Per-vertex sorted list of ``(symbol_rank, dst)``."""
    return [sorted((a, d) for d, a in row) for row in g.out_map()]


def window_states(g: LabeledGraph, k: int) -> tuple[tuple[int, int], ...]:
    """The pairs (v, w) where v ends a path of k-1 edges of ``g`` and w is
    the base-|A| rank of its labels: all a width-k rule needs to know of
    the path, as every path into (v, w) reads the same blocks on.

    Numbered by first occurrence with the paths listed by start vertex,
    then first label, then the vertex it reaches, and so on; built a level
    at a time, keeping first occurrences, as a repeat's extensions follow
    its first occurrence's.  Raises StateBlowup past ``_PATH_CAP``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    na, steps = len(g.alphabet), _label_steps(g)
    states = [(v, 0) for v in range(g.n_vertices)]
    for _ in range(k - 1):
        states = list(dict.fromkeys(
            (u, w * na + a) for v, w in states for a, u in steps[v]))
        if len(states) > _PATH_CAP:
            raise StateBlowup(f"recoding exceeds {_PATH_CAP} window states")
    return tuple(states)


def window_graph(g: LabeledGraph, k: int, states) -> list[list[tuple[int, int]]]:
    """The k-block recoding of ``g`` on its :func:`window_states`: the
    out-edges ``(dst, b)`` of each state, by label.  An edge v -a-> u of
    ``g`` leads from (v, w) to (u, b mod |A|^(k-1)), where b = w*|A| + a
    is the rank of the k-block read.  For an essential ``g`` the recoding
    is essential and reads the k-block recodings of the sequences of
    ``g``."""
    na = len(g.alphabet)
    m, steps = na ** (k - 1), _label_steps(g)
    sid = {s: i for i, s in enumerate(states)}
    return [[(sid[u, (w * na + a) % m], w * na + a) for a, u in steps[v]]
            for v, w in states]


def path_graph(g: LabeledGraph, k: int) -> tuple[LabeledGraph, tuple[tuple[int, ...], ...]]:
    """The k-th higher block presentation: :func:`window_graph` with each
    edge labeled by its k-block as a symbol.

    The new alphabet is the set of label blocks that occur, sorted by rank
    tuple; the second return value maps new symbol rank -> rank tuple over
    the old alphabet.  Block names concatenate single-character symbols
    and comma-join longer ones.
    """
    adj = window_graph(g, k, window_states(g, k))
    used = sorted({b for row in adj for _, b in row})
    blocks = tuple(block_digits(b, len(g.alphabet), k) for b in used)
    sep = "" if g.alphabet._single else ","  # type: ignore[attr-defined]
    names = tuple(sep.join(g.alphabet.symbols[r] for r in b) for b in blocks)
    if len(set(names)) != len(names):
        # pathological symbol names; fall back to unambiguous ones
        names = tuple("b" + "_".join(map(str, b)) for b in blocks)
    brank = {b: i for i, b in enumerate(used)}
    return LabeledGraph(Alphabet(names), len(adj), tuple(
        (s, d, brank[b]) for s, row in enumerate(adj) for d, b in row)), blocks


def refine_classes(trans) -> tuple[list[int], int]:
    """Coarsest partition of the states of a partial transition table
    (``trans[q][a]`` a state or -1) in which equivalent states have the same
    defined symbols and move to equivalent states on each.

    Moore refinement from the single all-states class.  The table is read
    once as columns, one per symbol.  A round gathers each column through
    the current classes (``map(cls.__getitem__, col)``, with one trailing
    slot so that an undefined move reads -1) and zips the class column with
    the gathered ones into per-state signatures; ``dict.fromkeys`` keeps the
    distinct signatures in order of first occurrence, which numbers the new
    classes by least member.  Rounds stop when the class count stops
    growing.  Returns (class_of_state, class_count).
    """
    n = len(trans)
    if n == 0:
        return [], 0
    cols = list(zip(*trans))
    cls = [0] * n + [-1]
    nc = 1
    while True:
        sigs = list(zip(cls, *[map(cls.__getitem__, col) for col in cols]))
        ids = dict(zip(dict.fromkeys(sigs), range(n)))
        if len(ids) == nc:
            return cls[:n], nc
        cls = list(map(ids.__getitem__, sigs))
        cls.append(-1)
        nc = len(ids)


def transition_rows(g: LabeledGraph) -> list[list[int]]:
    """The partial transition table of a right-resolving graph:
    ``rows[s][a]`` is the target of the edge labeled a out of s, or -1."""
    rows = [[-1] * len(g.alphabet) for _ in range(g.n_vertices)]
    for s, d, a in g.edges:
        rows[s][a] = d
    return rows


def follower_reduce(g: LabeledGraph) -> tuple[LabeledGraph, list[int]]:
    """Merge vertices with equal follower sets (equal finite-word languages).

    Requires a right-resolving graph.  Returns (graph, class_of_old_vertex),
    classes numbered by least member so vertex order is stable.  On
    essential input the result is essential, right-resolving, and presents
    the same sequences.
    """
    if not g.is_right_resolving():
        raise ValueError("follower_reduce needs a right-resolving graph")
    cls, nclasses = refine_classes(transition_rows(g))
    edges = {(cls[s], cls[d], a) for s, d, a in g.edges}
    return LabeledGraph(g.alphabet, nclasses, tuple(edges)), cls
