"""Stable graphs: enumeration up to isomorphism, automorphism orders, bridges.

A stable graph for (g, n) is a connected multigraph (loops and parallel
edges allowed) with a nonnegative genus at each vertex and n legs, such that
h^1 + sum of vertex genera equals g and every vertex satisfies
2 g_v - 2 + n_v > 0, where n_v counts incident half-edges (loops twice).
The catalog is enumerated once with unlabeled legs, a leg count per vertex
(``unlabeled_graphs``); ``enumerate_graphs`` expands it into labeled legs.
The same degeneration walk, started from a vertex without legs and allowed
deficits max(0, 3 - 2 g_v - n_v) summing to at most n, gives the leg-free
``skeletons``.  A graph of (g, n) is a skeleton S with l_v legs at each
vertex, at least its deficit; the labeled graphs over S are the Aut(S)-orbits
of the leg maps, so each vector l weighs n!/prod l_v! over |Aut S|.  (2,4)
has 284 skeletons for 683 unlabeled and 5,608 labeled graphs, (3,2) 537 for
918 and 1,355.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, groupby, permutations, product
from math import factorial
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Tuple

__all__ = [
    "StableGraph",
    "CatalogEntry",
    "enumerate_graphs",
    "unlabeled_graphs",
    "skeletons",
    "aut_order",
    "bridges",
]

Edge = Tuple[int, int]


class StableGraph(NamedTuple):
    genera: Tuple[int, ...]          # genus per vertex
    edges: Tuple[Edge, ...]          # sorted pairs (i, j) with i <= j, loops i == j
    legs: Tuple[int, ...]            # legs[l] = vertex carrying leg with label l+1

    @property
    def num_vertices(self) -> int:
        return len(self.genera)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_legs(self) -> int:
        return len(self.legs)

    @property
    def h1(self) -> int:
        return self.num_edges - self.num_vertices + 1

    @property
    def genus(self) -> int:
        return self.h1 + sum(self.genera)

    def valences(self) -> Tuple[int, ...]:
        """n_v per vertex: edge ends (loops twice) plus legs."""
        val = [0] * self.num_vertices
        for i, j in self.edges:
            val[i] += 1
            val[j] += 1
        for v in self.legs:
            val[v] += 1
        return tuple(val)

    def is_connected(self) -> bool:
        seen = {0}
        while True:
            more = {i + j - v for i, j in self.edges for v in {i, j} & seen} - seen
            if not more:
                return len(seen) == self.num_vertices
            seen |= more

    def to_json(self) -> dict:
        return {
            "vertices": [{"genus": gv} for gv in self.genera],
            "edges": [[i, j] for i, j in self.edges],
            "legs": [{"vertex": v, "label": l + 1} for l, v in enumerate(self.legs)],
        }

    @staticmethod
    def from_json(obj: dict) -> "StableGraph":
        """Read a graph in the ``to_json`` schema.  Raises ValueError with a
        one-line message on a missing key, a vertex index out of range, leg
        labels other than 1..n, a negative genus, a disconnected graph or an
        unstable vertex."""
        try:
            genera = tuple(v["genus"] for v in obj["vertices"])
            edges = tuple(sorted(tuple(sorted(e)) for e in obj["edges"]))
            legs_map = {item["label"]: item["vertex"] for item in obj["legs"]}
            V, n = len(genera), len(obj["legs"])
        except KeyError as exc:
            raise ValueError(f"graph file: missing key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"graph file: malformed graph ({exc})") from None
        if any(len(e) != 2 for e in edges):
            raise ValueError("graph file: an edge is not a pair of vertex indices")
        for x in [x for e in edges for x in e] + list(legs_map.values()):
            if type(x) is not int or not 0 <= x < V:
                raise ValueError(f"graph file: vertex index {x!r} is not in 0..{V - 1}")
        if set(legs_map) != set(range(1, n + 1)):
            raise ValueError(f"graph file: the {n} leg labels are not 1..{n}")
        if any(type(gv) is not int or gv < 0 for gv in genera):
            raise ValueError("graph file: a genus is not an integer >= 0")
        graph = StableGraph(genera, edges, tuple(legs_map[l] for l in range(1, n + 1)))
        if V == 0 or not graph.is_connected():
            raise ValueError("graph file: the graph is empty or not connected")
        for v, (gv, nv) in enumerate(zip(genera, graph.valences())):
            if 2 * gv - 2 + nv <= 0:
                raise ValueError(f"graph file: vertex {v} is unstable (2g - 2 + n <= 0)")
        return graph


class CatalogEntry(NamedTuple):
    graph: StableGraph
    aut_order: int
    canonical_key: bytes


def _ranks(keys: List) -> Tuple[Tuple[int, ...], int]:
    """The rank of each key among the distinct keys, and their number."""
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    return tuple([rank[key] for key in keys]), len(rank)


@lru_cache(maxsize=4096)
def _initial_colors(genera: tuple, legs: tuple, labeled: bool) -> Tuple[Tuple[int, ...], int]:
    """_ranks of the reprs of (genus, leg labels), unlabeled legs labeled 1;
    cached, as walks and labeled expansions repeat most (genera, legs)."""
    labels: List[List[int]] = [[] for _ in genera]
    for l, v in enumerate(legs):
        labels[v].append(l + 1 if labeled else 1)
    return _ranks([repr((gv, tuple(ls))) for gv, ls in zip(genera, labels)])


def _refined_colors(graph: StableGraph, labeled: bool) -> Tuple[Tuple[int, ...], int]:
    """Color refinement from _initial_colors: each round ranks (own color,
    sorted neighbor colors) until no class splits or every vertex has its own
    color; returns the colors and their number.  A last entry V after fewer
    than two neighbors orders the ranks as the reprs of the nested tuples
    would: "(c,)" sorts after every longer tuple that starts with c, and a
    proper prefix of two or more entries sorts first."""
    V = graph.num_vertices
    neigh: List[List[int]] = [[] for _ in range(V)]
    for i, j in graph.edges:
        neigh[i].append(j)
        neigh[j].append(i)
    colors, classes = _initial_colors(tuple(graph.genera), tuple(graph.legs), labeled)
    while classes < V:
        near = [sorted(map(colors.__getitem__, ns)) for ns in neigh]
        new, split = _ranks([(c, *a) if len(a) > 1 else (c, *a, V) for c, a in zip(colors, near)])
        if split == classes:
            break
        colors, classes = new, split
    return colors, classes


def _canonicalize(graph: StableGraph, labeled: bool = False) -> Tuple[bytes, int, StableGraph]:
    """Canonical key, automorphism order, canonically relabeled graph.  Unless
    ``labeled``, legs are unlabeled: the canonical legs are sorted and the
    automorphisms also permute the legs at each vertex."""
    V = graph.num_vertices
    colors, classes = _refined_colors(graph, labeled)
    perm, stab = sorted(range(V), key=colors.__getitem__), 1
    if classes < V:  # with one vertex per color, the color order is the only candidate
        perm, stab = _search(graph, [list(b) for _, b in groupby(perm, key=colors.__getitem__)])
    pos = [0] * V
    for new, old in enumerate(perm):
        pos[old] = new
    ends = []
    for i, j in graph.edges:
        a, b = pos[i], pos[j]
        ends.append((a, b) if a <= b else (b, a))
    edges = tuple(sorted(ends))
    genera = tuple(graph.genera[v] for v in perm)
    legs = tuple(pos[v] for v in graph.legs)
    legs = legs if labeled else tuple(sorted(legs))
    canon = StableGraph(genera, edges, legs)
    key = repr((genera, edges, legs)).encode()

    aut = stab
    for (i, j), run in groupby(edges):
        m = len(list(run))
        aut *= factorial(m) << m if i == j else factorial(m)
    if not labeled:
        for _, run in groupby(legs):
            aut *= factorial(len(list(run)))
    return key, aut, canon


def _search(graph: StableGraph, blocks: List[List[int]]) -> Tuple[List[int], int]:
    """Depth-first search, cutting every prefix above the best rows found, for
    the least sequence of adjacency rows (earlier positions plus the diagonal)
    over the block-preserving vertex orders: the first order attaining it and
    their number, the vertex part of the automorphism order."""
    V = graph.num_vertices
    # adjacency matrix with multiplicities (diagonal = loop count)
    adj = [[0] * V for _ in range(V)]
    for i, j in graph.edges:
        adj[i][j] += 1
        if i != j:
            adj[j][i] += 1
    block_at = [b for b in blocks for _ in b]  # the block of each canonical position
    best: list = [None, None, 0]  # rows, first order attaining them, count

    def rec(perm: List[int], rows: Tuple[Tuple[int, ...], ...]) -> None:
        pos = len(perm)
        if pos == V:
            if rows == best[0]:
                best[2] += 1
            else:  # larger prefixes were cut, so these rows are smaller
                best[:] = [rows, perm, 1]
            return
        for v in block_at[pos]:
            if v not in perm:
                av = adj[v]
                new = rows + (tuple([av[u] for u in perm]) + (av[v],),)
                # a proper prefix of best[0] compares below it
                if best[1] is None or new <= best[0]:
                    rec(perm + [v], new)

    rec([], ())
    return best[1], best[2]


def aut_order(graph: StableGraph) -> int:
    """Order of the decoration- and leg-label-preserving automorphism group."""
    return _canonicalize(graph, labeled=True)[1]


def canonical_key(graph: StableGraph) -> bytes:
    return _canonicalize(graph, labeled=True)[0]


def _degenerations(graph: StableGraph, budget: int) -> Iterator[Tuple[StableGraph, Edge]]:
    """The graphs with one more edge that contract to ``graph`` (legs
    unlabeled), each with its new edge, whose deficits max(0, 3 - 2 g_v - n_v)
    sum to at most ``budget``: a loop at a vertex of positive genus, or a
    vertex split in two sides joined by the new edge, the second side becoming
    the last vertex.  Splits that keep a loop are skipped: a loop outranks the
    new edge in ``_is_largest_edge``, so those children would be dropped."""
    genera, edges, legs = graph
    V = len(genera)
    loops = [i for i, j in edges if i == j]
    valence = graph.valences()
    deficits = [max(0, 3 - 2 * gv - nv) for gv, nv in zip(genera, valence)]
    spare = budget - sum(deficits)
    for v, gv in enumerate(genera):
        if gv > 0:
            child = genera[:v] + (gv - 1,) + genera[v + 1 :]
            yield StableGraph(child, tuple(sorted(edges + ((v, v),))), legs), (v, v)
        h = valence[v]
        # the sides' deficits max(0, 2 - 2 g1 - h + moved) and
        # max(0, 2 - 2 (gv - g1) - moved) sum to at most room iff each of them
        # and 4 - 2 gv - h, the sum of the two arguments, is at most room
        room = spare + deficits[v]
        if 4 - 2 * gv - h > room or any(u != v for u in loops):
            continue
        # every loop at v joins the two sides; each edge end at v goes to
        # either side, and any number of its legs moves; the first edge end
        # (or leg, if there is none) stays, so the two sides are never swapped
        base = [(v, V) if e == (v, v) else e for e in edges]
        lv = loops.count(v)
        ends = [
            (k, end) for k, e in enumerate(edges) if e[0] != e[1]
            for end in (0, 1) if e[end] == v
        ]
        rest = [w for w in legs if w != v]
        c = len(legs) - len(rest)
        kept, ends = 0 if ends else min(c, 1), ends[1:]
        for size, s in product(range(len(ends) + 1), range(c - kept + 1)):
            moved = lv + size + s  # half-edges on the new side
            # genus g1 stays and gv - g1 moves; each side also gets the new edge
            splits = range(max(0, (3 - h + moved - room) // 2),
                           min(gv, gv + (room + moved - 2) // 2) + 1)
            split_legs = tuple(sorted(rest + [v] * (c - s))) + (V,) * s
            for subset in combinations(ends, size) if splits else ():
                new_edges = base + [(v, V)]
                for k, end in subset:
                    # V is the largest index, so the pair stays sorted
                    new_edges[k] = (edges[k][1 - end], V)
                split_edges = tuple(sorted(new_edges))
                for g1 in splits:
                    child = genera[:v] + (g1,) + genera[v + 1 :] + (gv - g1,)
                    yield StableGraph(child, split_edges, split_legs), (v, V)


def _is_largest_edge(graph: StableGraph, edge: Edge) -> bool:
    """True iff no edge of ``graph`` has a larger color than ``edge``.  A vertex
    is colored by [genus, leg count, valence], an edge by (is loop, sorted end
    colors); both colors are isomorphism invariants."""
    genera, edges, legs = graph
    colors = [[gv, 0, 0] for gv in genera]
    for v in legs:
        color = colors[v]
        color[1] += 1
        color[2] += 1
    for i, j in edges:
        colors[i][2] += 1
        colors[j][2] += 1

    def color(e: Edge) -> Tuple:
        ci, cj = colors[e[0]], colors[e[1]]
        return (e[0] == e[1], ci, cj) if ci <= cj else (e[0] == e[1], cj, ci)

    top = color(edge)
    return all(color(e) <= top for e in edges)


def _walk(root: StableGraph, budget: int) -> Tuple[CatalogEntry, ...]:
    """The degeneration walk from ``root``.  Level k holds the graphs with k
    edges.  Contracting an edge never raises the total deficit, and a
    largest-colored one leads to level k - 1, so every class of level k is a
    degeneration of a level k - 1 representative whose new edge is
    largest-colored; only those children are canonicalized."""
    key, aut, canon = _canonicalize(root)
    level = [CatalogEntry(canon, aut, key)]
    catalog: List[CatalogEntry] = []
    while level:
        catalog.extend(level)
        seen: Dict[bytes, CatalogEntry] = {}
        for entry in level:
            for child, edge in _degenerations(entry.graph, budget):
                if _is_largest_edge(child, edge):
                    key, aut, canon = _canonicalize(child)
                    if key not in seen:
                        seen[key] = CatalogEntry(canon, aut, key)
        level = sorted(seen.values(), key=lambda e: e.canonical_key)
    return tuple(catalog)


def _check_stable(g: int, n: int) -> None:
    if g < 0 or n < 0 or 2 * g - 2 + n <= 0:
        raise ValueError("unstable (g, n) = (%d, %d)" % (g, n))


@lru_cache(maxsize=None)
def unlabeled_graphs(g: int, n: int) -> Tuple[CatalogEntry, ...]:
    """Like ``enumerate_graphs``, but with unlabeled legs: ``legs`` is sorted
    and |Aut| also permutes the legs at each vertex, so n! times the sum of
    1/|Aut| is the labeled sum.  At n <= 1 labels change nothing, and
    ``enumerate_graphs(g, n)`` returns this catalog as it is.  The walk
    starts from one vertex with n legs, and every vertex stays stable."""
    _check_stable(g, n)
    return _walk(StableGraph((g,), (), (0,) * n), 0)


@lru_cache(maxsize=None)
def skeletons(g: int, n: int) -> Tuple[CatalogEntry, ...]:
    """The leg-free graphs of genus g whose vertices lack at most n legs in
    all to be stable.  The classes of ``unlabeled_graphs(g, n)`` are the pairs
    of a skeleton and a leg count per vertex, at least its deficit, up to the
    skeleton's automorphisms.  At n = 0 this is ``unlabeled_graphs(g, 0)``."""
    _check_stable(g, n)
    return _walk(StableGraph((g,), (), ()), n) if n else unlabeled_graphs(g, 0)


@lru_cache(maxsize=None)
def enumerate_graphs(g: int, n: int) -> Tuple[CatalogEntry, ...]:
    """One representative per isomorphism class of stable graphs for (g, n),
    including the edge-less graph, ordered by edge count and canonical key.
    Past n = 1 each graph of ``unlabeled_graphs(g, n)`` is expanded into its
    leg labelings, which are canonicalized with labels and deduplicated."""
    if n <= 1:
        return unlabeled_graphs(g, n)
    seen: Dict[bytes, CatalogEntry] = {}
    for entry in unlabeled_graphs(g, n):
        genera, edges, legs = entry.graph
        for labeling in set(permutations(legs)):
            key, aut, canon = _canonicalize(StableGraph(genera, edges, labeling), labeled=True)
            seen.setdefault(key, CatalogEntry(canon, aut, key))
    return tuple(sorted(seen.values(), key=lambda e: (e.graph.num_edges, e.canonical_key)))


def bridges(graph: StableGraph) -> FrozenSet[int]:
    """The edges whose removal disconnects a connected graph, by one low-link
    depth-first search.  It steps along edge indices, not vertices, so a loop
    or one of several parallel edges is never taken for a bridge."""
    order: Dict[int, int] = {}  # discovery time per vertex
    found = set()

    def low(v: int, via: int) -> int:
        """Earliest discovery time that v's subtree reaches by one back edge."""
        order[v] = reach = len(order)
        for idx, (i, j) in enumerate(graph.edges):
            if v in (i, j) and idx != via:
                w = i + j - v
                if w in order:
                    reach = min(reach, order[w])
                    continue
                sub = low(w, idx)
                if sub > order[v]:
                    found.add(idx)
                reach = min(reach, sub)
        return reach

    low(0, -1)
    return frozenset(found)
