"""Tests for stable-graph enumeration, canonical forms, and automorphisms."""
import hashlib
import json
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import groupby
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mvq import stable_graphs
from mvq.stable_graphs import (
    StableGraph,
    aut_order,
    canonical_key,
    bridges,
    enumerate_graphs,
    skeletons,
    unlabeled_graphs,
)
from mvq.volume_engine import _compositions


# (g, n) -> (number of stable graphs, sum of 1/|Aut|), recorded with the
# enumerator that built every multigraph of each degree vector and deduplicated
# them by canonical key, before catalogs were built by degeneration
PINNED_CATALOGS = {
    (0, 4): (4, Fraction(4)),
    (0, 5): (26, Fraction(26)),
    (0, 6): (236, Fraction(236)),
    (0, 7): (2752, Fraction(2752)),
    (1, 1): (2, Fraction(3, 2)),
    (1, 2): (5, Fraction(7, 2)),
    (1, 3): (23, Fraction(16)),
    (1, 4): (163, Fraction(115)),
    (1, 5): (1576, Fraction(1130)),
    (2, 0): (7, Fraction(17, 6)),
    (2, 1): (16, Fraction(83, 12)),
    (2, 2): (75, Fraction(69, 2)),
    (2, 3): (555, Fraction(1619, 6)),
    (3, 0): (42, Fraction(121, 12)),
    (3, 1): (181, Fraction(635, 12)),
    (3, 2): (1355, Fraction(2675, 6)),
    (4, 0): (379, Fraction(15521, 240)),
    (4, 1): (2666, Fraction(52387, 90)),
}


class TestCatalogCounts:
    def test_counts_including_edgeless(self):
        for (g, n), (count, mass) in PINNED_CATALOGS.items():
            catalog = enumerate_graphs(g, n)
            assert len(catalog) == count, (g, n)
            assert sum(Fraction(1, e.aut_order) for e in catalog) == mass, (g, n)

    def test_few_candidates_per_graph(self, monkeypatch):
        calls = [0]
        canonicalize = stable_graphs._canonicalize

        def counted(graph):
            calls[0] += 1
            return canonicalize(graph)

        monkeypatch.setattr(stable_graphs, "_canonicalize", counted)
        for g, n in ((4, 0), (4, 1)):
            calls[0] = 0
            catalog = unlabeled_graphs.__wrapped__(g, n)
            assert calls[0] <= 2 * len(catalog), (g, n, calls[0])

    def test_edgeless_graph_present(self):
        for g, n in ((2, 0), (1, 2), (3, 0)):
            edgeless = [e for e in enumerate_graphs(g, n) if not e.graph.edges]
            assert len(edgeless) == 1
            assert edgeless[0].graph.genera == (g,)

    def test_aut_orders_two_zero(self):
        orders = sorted(e.aut_order for e in enumerate_graphs(2, 0))
        assert orders == [1, 2, 2, 2, 8, 8, 12]

    def test_keys_are_unique(self):
        cat = enumerate_graphs(3, 0)
        keys = {e.canonical_key for e in cat}
        assert len(keys) == len(cat)

    def test_genus_and_leg_conservation(self):
        for e in enumerate_graphs(2, 1):
            graph = e.graph
            loops = sum(1 for a, b in graph.edges if a == b)
            first_betti = len(graph.edges) - loops - (
                len(set(range(len(graph.genera)))) - _n_components(graph)
            )
            assert sum(graph.genera) + _genus_from_cycles(graph) == 2
            assert len(graph.legs) == 1


# SHA-256 of repr of the (graph, aut_order, canonical_key) sequence of
# enumerate_graphs, recorded when the labeled catalog was built by its own
# degeneration walk, before it was expanded from the unlabeled catalog
CATALOG_DIGESTS = {
    (3, 2): "91c22f576d7b98bc664e3a80fb0296daed35d398eac5d142a7a157e92ce6bfb4",
    (2, 4): "c9c129b62d9a1664def56693522b157d147f80cc127ac56ffb3f5c92632b7e55",
    (0, 7): "689db727088ed2c9345d48069637a0c63348b66dc5fef4bfc5513be2fa424e0d",
    (1, 4): "10818a46c46d15fb22c577b36efdcb5a40afe372e0ae948bf1307505dc602e5f",
}

# the same digests of the degeneration walk's own representatives, which
# enumerate_graphs returns as they are at n <= 1
WALK_DIGESTS = {
    (4, 0): "05c1fedcc7422d8991d3c54ffc2709e09c1c9b60ebebb326bac40dff79e05ceb",
    (3, 1): "dfc754a1147107faaba7a8a2b5edd819c329cd5484816c30ecaba3455fa41dea",
    (4, 1): "38af8f641d0e72b3a77e865b1959b67cef99f87c6c4a42aec53c59fdaab400af",
}

# (g, n) -> number of classes of stable graphs with unlabeled legs
UNLABELED_COUNTS = {(3, 2): 918, (2, 4): 683, (0, 7): 13, (0, 8): 32, (1, 5): 76}


class TestUnlabeledCatalog:
    @pytest.mark.parametrize("g,n", sorted(CATALOG_DIGESTS))
    def test_expanded_catalog_is_unchanged(self, g, n):
        seq = [(e.graph, e.aut_order, e.canonical_key) for e in enumerate_graphs(g, n)]
        assert hashlib.sha256(repr(seq).encode()).hexdigest() == CATALOG_DIGESTS[g, n]

    @pytest.mark.parametrize("g,n", sorted(WALK_DIGESTS))
    def test_walk_catalog_is_unchanged(self, g, n):
        seq = [(e.graph, e.aut_order, e.canonical_key) for e in enumerate_graphs(g, n)]
        assert hashlib.sha256(repr(seq).encode()).hexdigest() == WALK_DIGESTS[g, n]

    def test_class_counts(self):
        for (g, n), count in UNLABELED_COUNTS.items():
            assert len(unlabeled_graphs(g, n)) == count, (g, n)

    def test_mass_is_labeled_mass_over_n_factorial(self):
        # orbit-stabilizer: the n! leg labelings of an unlabeled graph fall
        # into labeled classes with stabilizers their labeled |Aut|
        for g, n in PINNED_CATALOGS:
            labeled = sum(Fraction(1, e.aut_order) for e in enumerate_graphs(g, n))
            unlabeled = sum(Fraction(1, e.aut_order) for e in unlabeled_graphs(g, n))
            assert labeled == factorial(n) * unlabeled, (g, n)

    def test_labels_change_nothing_at_most_one_leg(self):
        # so at n <= 1 the unlabeled walk gives the labeled catalog as it is
        for g, n in ((2, 0), (3, 0), (2, 1), (3, 1), (4, 1)):
            for entry in enumerate_graphs(g, n):
                unlabeled = stable_graphs._canonicalize(entry.graph)
                assert unlabeled == stable_graphs._canonicalize(entry.graph, labeled=True)

    def test_few_candidates_per_unlabeled_graph(self, monkeypatch):
        calls = [0]
        canonicalize = stable_graphs._canonicalize

        def counted(graph, *args):
            calls[0] += 1
            return canonicalize(graph, *args)

        monkeypatch.setattr(stable_graphs, "_canonicalize", counted)
        for g, n in ((2, 4), (0, 8)):
            calls[0] = 0
            catalog = unlabeled_graphs.__wrapped__(g, n)
            assert calls[0] <= 2 * len(catalog), (g, n, calls[0])


# (g, n) -> number of leg-free skeletons, the edgeless one included
SKELETON_COUNTS = {(3, 2): 537, (2, 4): 284, (3, 3): 1727, (1, 6): 75, (0, 8): 12,
                   (1, 5): 35, (0, 7): 7}


def _leg_counts(skeleton, n):
    """The leg counts per vertex that make the skeleton a stable graph of
    (g, n): each at least the vertex's deficit."""
    need = [max(0, 3 - 2 * gv - nv) for gv, nv in zip(skeleton.genera, skeleton.valences())]
    return [[a + b for a, b in zip(need, extra)]
            for extra in _compositions(n - sum(need), len(need))]


class TestSkeletons:
    def test_counts(self):
        for (g, n), count in SKELETON_COUNTS.items():
            catalog = skeletons(g, n)
            assert len(catalog) == count, (g, n)
            for entry in catalog:
                assert entry.graph.legs == () and entry.graph.genus == g
                assert _leg_counts(entry.graph, n), (g, n, entry.graph)

    def test_no_legs_is_the_unlabeled_catalog(self):
        for g in (2, 3, 4):
            assert skeletons(g, 0) is unlabeled_graphs(g, 0)

    @pytest.mark.parametrize("g,n", [(2, 4), (0, 8), (1, 5), (3, 1)])
    def test_legs_on_skeletons_give_the_unlabeled_catalog(self, g, n):
        keys = set()
        for entry in skeletons(g, n):
            genera, edges, _ = entry.graph
            for legs in _leg_counts(entry.graph, n):
                placed = tuple(v for v, count in enumerate(legs) for _ in range(count))
                graph = StableGraph(genera, edges, placed)
                keys.add(stable_graphs._canonicalize(graph)[0])
        assert keys == {e.canonical_key for e in unlabeled_graphs(g, n)}

    @pytest.mark.parametrize("g,n", sorted(SKELETON_COUNTS) + [(4, 1)])
    def test_orbit_stabilizer_mass(self, g, n):
        # the labeled graphs over a skeleton S are the Aut(S)-orbits of its
        # n! / prod l_v! leg maps per leg-count vector l
        mass = sum(Fraction(factorial(n) // prod(map(factorial, legs)), entry.aut_order)
                   for entry in skeletons(g, n) for legs in _leg_counts(entry.graph, n))
        assert mass == factorial(n) * sum(Fraction(1, e.aut_order) for e in unlabeled_graphs(g, n))

    def test_unstable_rejected(self):
        for g, n in ((0, 2), (1, 0), (-1, 4), (2, -1)):
            with pytest.raises(ValueError):
                skeletons(g, n)


def _walked_graphs(monkeypatch, g, n):
    """Every graph that the degeneration walk for (g, n) canonicalizes."""
    seen = []
    canonicalize = stable_graphs._canonicalize

    def recorded(graph, *args):
        seen.append(graph)
        return canonicalize(graph, *args)

    monkeypatch.setattr(stable_graphs, "_canonicalize", recorded)
    unlabeled_graphs.__wrapped__(g, n)
    monkeypatch.undo()
    return seen


def _string_colors(graph, labeled):
    """Round 0 of the string refinement: the repr of (genus, leg labels) per
    vertex, unlabeled legs all labeled 1."""
    labels = [[] for _ in graph.genera]
    for l, v in enumerate(graph.legs):
        labels[v].append(l + 1 if labeled else 1)
    return [repr((gv, tuple(ls))) for gv, ls in zip(graph.genera, labels)]


def _string_refined_colors(graph, labeled):
    """The color refinement that integer ranks replaced: each color is the
    repr of the nested tuple (previous color, sorted neighbor colors), built
    from the previous round's strings, until no class splits or every vertex
    has its own color."""
    V = graph.num_vertices
    colors = _string_colors(graph, labeled)
    classes = len(set(colors))
    while classes < V:
        neigh = [[] for _ in range(V)]
        for i, j in graph.edges:
            neigh[i].append(colors[j])
            neigh[j].append(colors[i])
        new = ["(%s, %r)" % (colors[v], tuple(sorted(neigh[v]))) for v in range(V)]
        split = len(set(new))
        if split == classes:
            break
        colors, classes = new, split
    return colors


def _full_refined_colors(graph, labeled):
    """String color refinement that always builds the round after the last
    split."""
    V = graph.num_vertices
    colors = _string_colors(graph, labeled)
    for _ in range(V):
        neigh = [[] for _ in range(V)]
        for i, j in graph.edges:
            neigh[i].append(colors[j])
            neigh[j].append(colors[i])
        new = ["(%s, %r)" % (colors[v], tuple(sorted(neigh[v]))) for v in range(V)]
        if len(set(new)) == len(set(colors)):
            break
        colors = new
    return colors


def _order_and_ties(colors):
    """The vertices sorted by color, cut into runs of equal color."""
    order = sorted(range(len(colors)), key=colors.__getitem__)
    return [list(b) for _, b in groupby(order, key=colors.__getitem__)]


def _searched_canonical_form(graph, labeled):
    """Canonical form by a branch-and-bound search over all block-preserving
    vertex orders, even when every color block is one vertex."""
    V = graph.num_vertices
    colors = _full_refined_colors(graph, labeled)
    order = sorted(range(V), key=colors.__getitem__)
    block_at = []
    for _, b in groupby(order, key=colors.__getitem__):
        b = list(b)
        block_at.extend([b] * len(b))
    adj = [[0] * V for _ in range(V)]
    for i, j in graph.edges:
        adj[i][j] += 1
        if i != j:
            adj[j][i] += 1
    best = [None, None, 0]  # rows, order, count of orders attaining them

    def rec(perm, rows):
        if len(perm) == V:
            if best[0] is None or rows < best[0]:
                best[:] = [rows, perm, 1]
            elif rows == best[0]:
                best[2] += 1
            return
        pos = len(perm)
        for v in block_at[pos]:
            if v not in perm:
                row = tuple(adj[v][u] for u in perm) + (adj[v][v],)
                if best[0] is None or rows + [row] <= best[0][: pos + 1]:
                    rec(perm + [v], rows + [row])

    rec([], [])
    perm, stab = best[1], best[2]
    at = {old: new for new, old in enumerate(perm)}
    edges = tuple(sorted(tuple(sorted((at[i], at[j]))) for i, j in graph.edges))
    genera = tuple(graph.genera[v] for v in perm)
    legs = tuple(at[v] for v in graph.legs)
    legs = legs if labeled else tuple(sorted(legs))
    aut = stab if labeled else stab * prod(factorial(legs.count(v)) for v in set(legs))
    for (i, j), m in Counter(edges).items():
        aut *= factorial(m) * (2**m if i == j else 1)
    return repr((genera, edges, legs)).encode(), aut, StableGraph(genera, edges, legs)


# graphs of the (5,0) walk whose colors take five or six rounds past round 0
# to settle, so that the string colors nest quotes in quotes and escape them
# in runs of 7 or 15 backslashes
DEEP_REFINEMENTS = [
    StableGraph((0,) * 6, ((0, 0), (0, 1), (1, 2), (1, 2), (2, 3), (3, 4), (3, 4), (4, 5),
                           (5, 5), (5, 5)), ()),
    StableGraph((0,) * 6, ((0, 0), (0, 1), (1, 2), (1, 3), (2, 4), (2, 4), (3, 3), (3, 5),
                           (4, 5), (5, 5)), ()),
    StableGraph((0,) * 6, ((0, 0), (0, 2), (1, 2), (1, 3), (1, 3), (2, 4), (3, 4), (4, 5),
                           (5, 5), (5, 5)), ()),
    StableGraph((0,) * 7, ((0, 0), (0, 1), (1, 2), (1, 2), (2, 3), (3, 4), (3, 4), (4, 5),
                           (5, 6), (5, 6), (6, 6)), ()),
    StableGraph((0,) * 7, ((0, 0), (0, 2), (1, 2), (1, 3), (1, 3), (2, 4), (3, 4), (4, 5),
                           (5, 6), (5, 6), (6, 6)), ()),
    StableGraph((0,) * 7, ((0, 0), (0, 2), (1, 2), (1, 3), (1, 3), (2, 4), (3, 5), (4, 5),
                           (4, 6), (5, 6), (6, 6)), ()),
    StableGraph((0,) * 7, ((0, 1), (0, 1), (0, 2), (1, 5), (2, 4), (2, 4), (3, 4), (3, 4),
                           (3, 5), (5, 6), (6, 6)), ()),
    StableGraph((0,) * 7 + (1,), ((0, 1), (0, 1), (0, 2), (1, 4), (2, 3), (2, 4), (3, 5),
                                  (3, 5), (4, 6), (5, 7), (6, 6)), ()),
    StableGraph((0,) * 7 + (1,), ((0, 1), (0, 1), (0, 2), (1, 4), (2, 3), (2, 5), (3, 4),
                                  (3, 5), (4, 6), (5, 7), (6, 6)), ()),
    StableGraph((0,) * 7 + (1,), ((0, 1), (0, 1), (0, 3), (1, 2), (2, 5), (2, 5), (3, 4),
                                  (3, 4), (4, 7), (5, 6), (6, 6)), ()),
    StableGraph((0,) * 6 + (1, 0), ((0, 1), (0, 1), (0, 3), (1, 2), (2, 5), (2, 5), (3, 4),
                                    (3, 4), (4, 7), (5, 6), (7, 7)), ()),
    StableGraph((0,) * 6 + (1, 1), ((0, 1), (0, 1), (0, 3), (1, 2), (2, 4), (2, 6), (3, 4),
                                    (3, 5), (4, 7), (5, 5)), ()),
    StableGraph((0,) * 5 + (1, 0, 1), ((0, 1), (0, 1), (0, 3), (1, 2), (2, 4), (2, 6), (3, 4),
                                       (3, 5), (4, 7), (6, 6)), ()),
]


def _check_canonical_form(graph, labeled):
    """Integer color ranks order and tie the vertices as the string rounds
    do, with or without the round after the last split, and the canonical
    form equals the full search's."""
    colors, classes = stable_graphs._refined_colors(graph, labeled)
    ties = _order_and_ties(colors)
    assert len(ties) == classes
    assert ties == _order_and_ties(_string_refined_colors(graph, labeled))
    assert ties == _order_and_ties(_full_refined_colors(graph, labeled))
    assert stable_graphs._canonicalize(graph, labeled) == (
        _searched_canonical_form(graph, labeled)
    )


class TestCanonicalizeReference:
    """Refinement and search stop once their answer is known; every graph
    that three walks canonicalize gets the same vertex order, ties and
    canonical form as from the full string rounds and the full search."""

    @pytest.mark.parametrize("g,n", [(3, 2), (2, 4), (4, 0)])
    def test_walked_graphs(self, monkeypatch, g, n):
        graphs = _walked_graphs(monkeypatch, g, n)
        assert graphs
        for graph in graphs:
            for labeled in (False, True):
                _check_canonical_form(graph, labeled)

    def test_colors_with_escaped_quotes(self):
        for graph in DEEP_REFINEMENTS:
            assert graph.genus == 5 and graph.is_connected()
            assert "\\" * 7 in "".join(_string_refined_colors(graph, False))
            _check_canonical_form(graph, False)


def _reference_search(graph, blocks):
    """The branch-and-bound search that ``_search`` replaced: it tracks
    whether the current prefix equals the best rows' prefix with a flag and
    a generation counter that a descendant bumps when it installs a new
    best."""
    V = graph.num_vertices
    adj = [[0] * V for _ in range(V)]
    for i, j in graph.edges:
        if i == j:
            adj[i][i] += 1
        else:
            adj[i][j] += 1
            adj[j][i] += 1

    block_at = []
    for b in blocks:
        block_at.extend([b] * len(b))

    best_rows = []
    best_perm = []
    cur_rows = [()] * V
    stab = 0
    gen = 0
    used = [False] * V
    perm_acc = [0] * V

    def rec(pos, eq):
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
    return best_perm, stab


class TestSearchReference:
    """``_search`` returns the reference search's first minimal order and
    count on every search that canonicalizing three walks' graphs runs,
    labeled and unlabeled."""

    @pytest.mark.parametrize("g,n", [(3, 2), (2, 4), (4, 0)])
    def test_walked_searches(self, monkeypatch, g, n):
        graphs = _walked_graphs(monkeypatch, g, n)
        inputs = []
        search = stable_graphs._search

        def recorded(graph, blocks):
            inputs.append((graph, blocks))
            return search(graph, blocks)

        monkeypatch.setattr(stable_graphs, "_search", recorded)
        for graph in graphs:
            for labeled in (False, True):
                stable_graphs._canonicalize(graph, labeled)
        monkeypatch.undo()
        assert inputs
        for graph, blocks in inputs:
            assert search(graph, blocks) == _reference_search(graph, blocks), graph


def _n_components(graph):
    parent = list(range(len(graph.genera)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in graph.edges:
        parent[find(a)] = find(b)
    return len({find(v) for v in range(len(graph.genera))})


def _genus_from_cycles(graph):
    v = len(graph.genera)
    return len(graph.edges) - v + _n_components(graph)


def _relabel(graph, perm):
    """Apply a vertex permutation to a graph, unsorted."""
    genera = tuple(graph.genera[i] for i in _inverse(perm))
    edges = tuple(
        tuple(sorted((perm[a], perm[b]))) for a, b in graph.edges
    )
    legs = tuple(perm[v] for v in graph.legs)
    return StableGraph(genera, tuple(sorted(edges)), legs)


def _inverse(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


class TestCanonicalForm:
    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, rng):
        cat = enumerate_graphs(2, 0) + enumerate_graphs(3, 0)[:20]
        entry = rng.choice(cat)
        graph = entry.graph
        perm = list(range(len(graph.genera)))
        rng.shuffle(perm)
        assert canonical_key(_relabel(graph, perm)) == entry.canonical_key

    def test_aut_order_relabeling_invariance(self):
        rng = random.Random(7)
        for entry in enumerate_graphs(3, 0):
            graph = entry.graph
            perm = list(range(len(graph.genera)))
            rng.shuffle(perm)
            assert aut_order(_relabel(graph, perm)) == entry.aut_order

    def test_graph_built_from_lists(self):
        """A StableGraph whose fields are lists canonicalizes as its tuple twin."""
        for entry in enumerate_graphs(2, 1):
            graph = StableGraph(*map(list, entry.graph))
            assert canonical_key(graph) == entry.canonical_key
            assert aut_order(graph) == entry.aut_order


class TestEdgeOperations:
    def test_bridge_detection(self):
        # two genus-1 vertices joined by one edge: that edge is a bridge
        dumbbell = StableGraph((1, 1), ((0, 1),), ())
        assert 0 in bridges(dumbbell)
        # a loop is never a bridge
        loop = StableGraph((1,), ((0, 0),), ())
        assert 0 not in bridges(loop)

    def test_bridge_means_removal_disconnects(self):
        # trees at (0, 6), parallel edges at (3, 0), both at (2, 2)
        for g, n in ((0, 6), (3, 0), (2, 2)):
            for entry in enumerate_graphs(g, n):
                graph = entry.graph
                for e in range(graph.num_edges):
                    rest = graph._replace(edges=graph.edges[:e] + graph.edges[e + 1:])
                    assert (e in bridges(graph)) == (_n_components(rest) > 1)


@pytest.mark.parametrize("g,n,count", [(0, 4, None), (1, 1, None), (2, 1, None)])
def test_all_entries_are_stable(g, n, count):
    for entry in enumerate_graphs(g, n):
        graph = entry.graph
        for v, gv in enumerate(graph.genera):
            val = sum(2 if a == b == v else (a == v) + (b == v) for a, b in graph.edges)
            val += sum(1 for w in graph.legs if w == v)
            assert 2 * gv - 2 + val > 0


class TestJsonSchema:
    def test_readme_example_loads(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        block = re.search(r"Graph files are JSON.*?```json\n(.*?)```", text, re.S)
        doc = json.loads(block.group(1))
        graph = StableGraph.from_json(doc)
        assert (graph.genus, graph.num_legs, graph.num_edges) == (2, 1, 2)
        back = graph.to_json()
        for key in ("vertices", "edges", "legs"):
            assert back[key] == doc[key]

    # every (g, n) up to (3, 0), (2, 2) and (0, 6)
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([(0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 0)]),
        st.data(),
    )
    def test_round_trip_of_relabeled_graph(self, gn, data):
        entry = data.draw(st.sampled_from(enumerate_graphs(*gn)))
        perm = data.draw(st.permutations(range(entry.graph.num_vertices)))
        graph = _relabel(entry.graph, perm)
        back = StableGraph.from_json(json.loads(json.dumps(graph.to_json())))
        assert back == graph
        assert canonical_key(back) == entry.canonical_key
        assert aut_order(back) == entry.aut_order
