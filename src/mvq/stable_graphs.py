"""Stable graphs: enumeration up to isomorphism, automorphism orders, edge surgery.

A stable graph for (g, n) is a connected multigraph (loops and parallel
edges allowed) with a nonnegative genus at each vertex and n labeled legs,
such that h^1 + sum of vertex genera equals g and every vertex satisfies
2 g_v - 2 + n_v > 0, where n_v counts incident half-edges (loops twice).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import factorial
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

__all__ = [
    "StableGraph",
    "CatalogEntry",
    "enumerate_graphs",
    "aut_order",
    "is_bridge",
    "cut_edge",
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

    def legs_at(self, v: int) -> Tuple[int, ...]:
        return tuple(l + 1 for l, w in enumerate(self.legs) if w == v)

    def is_connected(self) -> bool:
        V = self.num_vertices
        parent = list(range(V))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in self.edges:
            parent[find(i)] = find(j)
        return len({find(v) for v in range(V)}) == 1

    def is_stable(self) -> bool:
        return self.is_connected() and all(
            2 * gv - 2 + nv > 0 for gv, nv in zip(self.genera, self.valences())
        )

    def to_json(self) -> dict:
        return {
            "vertices": [{"genus": gv} for gv in self.genera],
            "edges": [[i, j] for i, j in self.edges],
            "legs": [{"vertex": v, "label": l + 1} for l, v in enumerate(self.legs)],
        }

    @staticmethod
    def from_json(obj: dict) -> "StableGraph":
        genera = tuple(v["genus"] for v in obj["vertices"])
        edges = tuple(sorted(tuple(sorted(e)) for e in obj["edges"]))
        legs_map = {item["label"]: item["vertex"] for item in obj["legs"]}
        legs = tuple(legs_map[l] for l in sorted(legs_map))
        return StableGraph(genera, edges, legs)


class CatalogEntry(NamedTuple):
    graph: StableGraph
    aut_order: int
    canonical_key: bytes


def _colors(graph: StableGraph) -> List[Tuple]:
    return [
        (graph.genera[v], graph.legs_at(v)) for v in range(graph.num_vertices)
    ]


def _refined_colors(graph: StableGraph) -> List[Tuple]:
    """Iterated color refinement: start from (genus, legs) and fold in the
    multiset of neighbor colors until stable."""
    V = graph.num_vertices
    colors = _colors(graph)
    for _ in range(V):
        neigh: List[List] = [[] for _ in range(V)]
        for i, j in graph.edges:
            neigh[i].append(colors[j])
            neigh[j].append(colors[i])
        new = [
            (colors[v], tuple(sorted(map(repr, neigh[v])))) for v in range(V)
        ]
        if len(set(new)) == len(set(colors)):
            break
        colors = new
    return colors


def _canonicalize(graph: StableGraph) -> Tuple[bytes, int, StableGraph]:
    """Canonical key, automorphism order, canonically relabeled graph."""
    V = graph.num_vertices
    colors = _refined_colors(graph)
    order = sorted(range(V), key=lambda v: repr(colors[v]))
    # group consecutive equal colors
    blocks: List[List[int]] = []
    for v in order:
        if blocks and colors[blocks[-1][-1]] == colors[v]:
            blocks[-1].append(v)
        else:
            blocks.append([v])

    # adjacency matrix with multiplicities (diagonal = loop count)
    adj = [[0] * V for _ in range(V)]
    for i, j in graph.edges:
        if i == j:
            adj[i][i] += 1
        else:
            adj[i][j] += 1
            adj[j][i] += 1

    # block membership of each canonical position
    block_at: List[List[int]] = []
    for b in blocks:
        block_at.extend([b] * len(b))

    # Branch-and-bound search for the lexicographically minimal sequence of
    # adjacency rows (restricted to earlier positions plus the diagonal) over
    # all permutations preserving the color blocks.  Counting the permutations
    # attaining the minimum gives the vertex part of the automorphism order.
    best_rows: List[Tuple[int, ...]] = []
    best_perm: List[int] = []
    cur_rows: List[Tuple[int, ...]] = [()] * V
    stab = 0
    gen = 0
    used = [False] * V
    perm_acc: List[int] = [0] * V

    def rec(pos: int, eq: bool) -> None:
        nonlocal stab, gen, best_perm, best_rows
        if pos == V:
            if eq and best_rows:
                stab += 1
            else:
                stab = 1
                best_rows = cur_rows[:V]
                best_perm = perm_acc[:V]
                gen += 1
            return
        my_gen = gen
        for v in block_at[pos]:
            if used[v]:
                continue
            if my_gen != gen:
                # a descendant installed a new best through this node, so our
                # prefix now coincides with the best prefix
                my_gen = gen
                eq = True
            av = adj[v]
            row = tuple(av[perm_acc[q]] for q in range(pos)) + (av[v],)
            child_eq = eq
            if eq and best_rows:
                ref = best_rows[pos]
                if row > ref:
                    continue
                if row < ref:
                    child_eq = False
            used[v] = True
            perm_acc[pos] = v
            cur_rows[pos] = row
            rec(pos + 1, child_eq)
            used[v] = False

    rec(0, True)
    perm = best_perm
    pos = [0] * V
    for new, old in enumerate(perm):
        pos[old] = new
    edge_list: List[Edge] = []
    for a in range(V):
        for b in range(a, V):
            edge_list.extend([(a, b)] * adj[perm[a]][perm[b]])
    edges = tuple(edge_list)
    genera = tuple(graph.genera[v] for v in perm)
    legs = tuple(pos[v] for v in graph.legs)
    canon = StableGraph(genera, edges, legs)
    key = repr((genera, edges, legs)).encode()

    mult: Dict[Edge, int] = {}
    for e in edges:
        mult[e] = mult.get(e, 0) + 1
    aut = stab
    for (i, j), m in mult.items():
        aut *= factorial(m)
        if i == j:
            aut *= 2 ** m
    return key, aut, canon


def aut_order(graph: StableGraph) -> int:
    """Order of the decoration- and leg-label-preserving automorphism group."""
    return _canonicalize(graph)[1]


def canonical_key(graph: StableGraph) -> bytes:
    return _canonicalize(graph)[0]


def _degree_vectors(mindeg: Sequence[int], total: int) -> Iterator[Tuple[int, ...]]:
    V = len(mindeg)

    def rec(i: int, rem: int):
        if i == V - 1:
            if rem >= mindeg[i]:
                yield (rem,)
            return
        tail_min = sum(mindeg[i + 1 :])
        for d in range(mindeg[i], rem - tail_min + 1):
            for rest in rec(i + 1, rem - d):
                yield (d,) + rest

    if sum(mindeg) <= total:
        yield from rec(0, total)


def _multigraphs(deg: Sequence[int]) -> Iterator[Tuple[Edge, ...]]:
    """All multigraphs (as sorted edge tuples) with the exact degree sequence."""
    V = len(deg)

    def rec(i: int, rem: List[int], acc: List[Edge]):
        if i == V:
            yield tuple(acc)
            return
        r = rem[i]
        later = sum(rem[i + 1 :])

        def distribute(j: int, s: int):
            # distribute s edge-ends of vertex i to vertices j..V-1
            if s == 0:
                yield from rec(i + 1, rem, acc)
                return
            if j == V:
                return
            cap = min(s, rem[j])
            room = sum(rem[x] for x in range(j + 1, V))
            lo = max(0, s - room)
            for m in range(lo, cap + 1):
                rem[j] -= m
                acc.extend([(i, j)] * m)
                yield from distribute(j + 1, s - m)
                del acc[len(acc) - m :]
                rem[j] += m

        for loops in range(r // 2 + 1):
            s = r - 2 * loops
            if s > later:
                continue
            acc.extend([(i, i)] * loops)
            rem[i] = 0
            yield from distribute(i + 1, s)
            rem[i] = r
            del acc[len(acc) - loops :]

    yield from rec(0, list(deg), [])


def _nondecreasing_tuples(length: int, lo: int, total_max: int) -> Iterator[Tuple[int, ...]]:
    def rec(k: int, minv: int, budget: int):
        if k == 0:
            yield ()
            return
        for v in range(minv, budget + 1):
            if v * k > budget:
                break
            for rest in rec(k - 1, v, budget - v):
                yield (v,) + rest

    yield from rec(length, lo, total_max)


@lru_cache(maxsize=None)
def enumerate_graphs(g: int, n: int) -> Tuple[CatalogEntry, ...]:
    """One representative per isomorphism class of stable graphs for (g, n),
    including the edge-less graph."""
    if g < 0 or n < 0 or 2 * g - 2 + n <= 0:
        raise ValueError("unstable (g, n) = (%d, %d)" % (g, n))
    seen: Dict[bytes, CatalogEntry] = {}
    max_v = 2 * g - 2 + n
    for V in range(1, max_v + 1):
        for gvec in _nondecreasing_tuples(V, 0, g):
            h1 = g - sum(gvec)
            if h1 < 0:
                continue
            E = h1 + V - 1
            for legassign in product(range(V), repeat=n):
                # among vertices of equal genus the leg-label sets must be
                # sorted; every isomorphism class has such a representative
                legsets: List[List[int]] = [[] for _ in range(V)]
                for l, v in enumerate(legassign):
                    legsets[v].append(l)
                ok = True
                for v in range(1, V):
                    if gvec[v] == gvec[v - 1] and tuple(legsets[v]) < tuple(
                        legsets[v - 1]
                    ):
                        ok = False
                        break
                if not ok:
                    continue
                legcnt = [len(s) for s in legsets]
                # vertices interchangeable before edges are placed: equal
                # genus and no legs; require nonincreasing degrees there
                twin = [
                    v > 0 and gvec[v] == gvec[v - 1] and not legsets[v] and not legsets[v - 1]
                    for v in range(V)
                ]
                mindeg = [
                    max(0 if V == 1 else 1, 3 - 2 * gvec[v] - legcnt[v])
                    for v in range(V)
                ]
                if sum(mindeg) > 2 * E:
                    continue
                for deg in _degree_vectors(mindeg, 2 * E):
                    if any(twin[v] and deg[v] > deg[v - 1] for v in range(V)):
                        continue
                    for edges in _multigraphs(deg):
                        graph = StableGraph(tuple(gvec), edges, tuple(legassign))
                        if not graph.is_connected():
                            continue
                        key, aut, canon = _canonicalize(graph)
                        if key not in seen:
                            seen[key] = CatalogEntry(canon, aut, key)
    return tuple(sorted(seen.values(), key=lambda e: (e.graph.num_edges, e.canonical_key)))


def is_bridge(graph: StableGraph, e: int) -> bool:
    """True iff removing edge e disconnects the graph."""
    i, j = graph.edges[e]
    if i == j:
        return False
    rest = graph.edges[:e] + graph.edges[e + 1 :]
    return not StableGraph(graph.genera, rest, graph.legs).is_connected()


def _component(graph: StableGraph, start: int, skip_edge: int) -> List[int]:
    adj: Dict[int, set] = {v: set() for v in range(graph.num_vertices)}
    for idx, (i, j) in enumerate(graph.edges):
        if idx == skip_edge:
            continue
        adj[i].add(j)
        adj[j].add(i)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return sorted(seen)


def cut_edge(graph: StableGraph, e: int):
    """Surgery along edge e: one smaller graph for a non-bridge, an ordered
    pair of graphs for a bridge.  New legs get the next free labels."""
    u, v = graph.edges[e]
    rest = graph.edges[:e] + graph.edges[e + 1 :]
    n = graph.num_legs
    if not is_bridge(graph, e):
        legs = graph.legs + (u, v)
        return StableGraph(graph.genera, rest, legs)

    comp_u = _component(graph, u, e)
    comp_v = _component(graph, v, e)

    def side(comp: List[int], endpoint: int):
        index = {old: new for new, old in enumerate(comp)}
        genera = tuple(graph.genera[w] for w in comp)
        edges = tuple(
            sorted(
                tuple(sorted((index[i], index[j])))
                for i, j in rest
                if i in index
            )
        )
        labels = [l for l in range(n) if graph.legs[l] in index]
        legs = tuple(index[graph.legs[l]] for l in labels) + (index[endpoint],)
        return StableGraph(genera, edges, legs)

    return side(comp_u, u), side(comp_v, v)
