"""Graph recognizers against hand checks and exhaustive brute force."""

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import complete_multipartite, large_clique, random_chordal, random_graph
from helpers_brute import (
    all_graph_masks,
    c4_scan_brute,
    gem_scan_brute,
    graph_from_mask,
    has_gem_brute,
    has_hole_brute,
    is_chordal_greedy_simplicial,
    is_ptolemaic_brute,
    maximal_cliques_brute,
    remainder_is_forest,
    shortest_hole_brute,
    twin_classes,
)
from ptodel import graphs
from ptodel.fixtures import complete_graph, cycle_graph, fixture_graph, path_graph
from ptodel.fvsp import FvspInstance
from ptodel.graphs import (
    GraphFormatError,
    WeightedGraph,
    all_induced_c4,
    all_induced_gems,
    find_hole,
    find_induced_c4,
    find_induced_gem,
    format_graph,
    is_chordal,
    is_ptolemaic,
    maximal_cliques,
    parse_graph,
    union_find,
)


class TestC4Detection:
    def test_c4_is_its_own_witness(self):
        assert find_induced_c4(cycle_graph(4)) == (0, 1, 2, 3)

    def test_diamond_has_no_c4(self):
        assert find_induced_c4(fixture_graph("diamond")) is None

    def test_house_has_unique_square(self):
        # brute force over all 4-subsets of the house leaves only this one
        assert all_induced_c4(fixture_graph("house")) == [(1, 2, 3, 4)]

    def test_domino_has_two_squares(self):
        assert all_induced_c4(fixture_graph("domino")) == [(0, 1, 3, 4), (1, 2, 4, 5)]


class TestGemDetection:
    def test_gem_is_its_own_witness(self):
        assert find_induced_gem(fixture_graph("gem")) == (0, 1, 2, 3, 4)

    def test_c5_has_no_gem(self):
        assert find_induced_gem(cycle_graph(5)) is None

    def test_bull_has_no_gem(self):
        assert find_induced_gem(fixture_graph("bull")) is None

    def test_dart_has_no_gem(self):
        assert find_induced_gem(fixture_graph("dart")) is None


class TestScansMatchReference:
    """The scans from each square's minimum vertex and each P4's middle edge
    against the plain pair and subset scans: the same obstruction lists, and
    the same first witness (``check`` and ``icd`` print it)."""

    @staticmethod
    def _same(g):
        squares = list(c4_scan_brute(g))
        gems = list(gem_scan_brute(g))
        assert all_induced_c4(g) == sorted(set(squares)), g.edges
        assert all_induced_gems(g) == sorted(set(gems)), g.edges
        assert find_induced_c4(g) == next(iter(squares), None), g.edges
        assert find_induced_gem(g) == next(iter(gems), None), g.edges

    def test_every_labelled_graph_up_to_six_vertices(self):
        for n in range(7):
            for mask in all_graph_masks(n):
                self._same(graph_from_mask(n, mask))

    def test_random_graphs_up_to_thirteen_vertices(self):
        rng = random.Random(8)
        found = [0, 0]
        for _ in range(20000):
            n = rng.randint(4, 13)
            g = random_graph(rng, n, rng.choice((0.2, 0.35, 0.5, 0.65, 0.8)))
            self._same(g)
            found[0] += find_induced_c4(g) is not None
            found[1] += find_induced_gem(g) is not None
        assert min(found) >= 2000, found


class TestHoles:
    def test_c5_hole_is_itself(self):
        assert find_hole(cycle_graph(5)) == (0, 1, 2, 3, 4)

    def test_trees_are_chordal(self):
        assert find_hole(path_graph(5)) is None

    def test_domino_hole_is_a_square(self):
        hole = find_hole(fixture_graph("domino"))
        assert tuple(sorted(hole)) == (0, 1, 3, 4)

    def test_house_hole(self):
        hole = find_hole(fixture_graph("house"))
        assert tuple(sorted(hole)) == (1, 2, 3, 4)

    def test_long_cycle_is_its_own_hole(self):
        assert find_hole(cycle_graph(2000)) == tuple(range(2000))

    def test_chordality_at_scale(self):
        # maximum cardinality search is near-linear: a 6,000-vertex tree is
        # checked in a few hundredths of a second, not seconds
        rng = random.Random(5)
        tree = WeightedGraph(6000, [(rng.randrange(v), v) for v in range(1, 6000)])
        start = time.perf_counter()
        assert is_chordal(tree)
        assert time.perf_counter() - start < 0.5
        assert find_hole(cycle_graph(4000)) == tuple(range(4000))

    def test_diamond_chain_before_the_hole(self):
        # x_0, x_1, ... joined by diamonds {x_i, p_i, q_i, x_i+1}: chordal, with
        # 2^k induced x_0-x_k paths, all on ids below the C40 hanging off x_k
        k = 24
        edges = []
        for i in range(k):
            x, p, q, y = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
            edges += [(x, p), (x, q), (p, q), (p, y), (q, y)]
        ring = list(range(3 * k + 1, 3 * k + 41))
        edges += [(3 * k, ring[0])]
        edges += [(u, ring[(i + 1) % 40]) for i, u in enumerate(ring)]
        g = WeightedGraph(3 * k + 41, edges)
        assert find_hole(g) == tuple(ring)

    def test_search_disagreeing_with_elimination_raises(self, monkeypatch):
        monkeypatch.setattr(graphs, "_shortest_hole", lambda g: None)
        with pytest.raises(RuntimeError, match="disagree"):
            find_hole(cycle_graph(5))


class TestPtolemaicRecognition:
    def test_p4(self):
        assert is_ptolemaic(path_graph(4)) == (True, None)

    def test_gem_obstruction(self):
        ok, witness = is_ptolemaic(fixture_graph("gem"))
        assert not ok and witness == (0, 1, 2, 3, 4)

    def test_c5_minus_vertex(self):
        g, _ = cycle_graph(5).delete([4])
        assert is_ptolemaic(g) == (True, None)


class TestTwinClasses:
    def test_complete_graph_is_one_class(self):
        assert twin_classes(complete_graph(3)) == [(0, 1, 2)]

    def test_path_all_singletons(self):
        assert twin_classes(path_graph(3)) == [(0,), (1,), (2,)]

    def test_diamond_degree_three_pair(self):
        assert twin_classes(fixture_graph("diamond")) == [(0, 1), (2,), (3,)]


class TestMaximalCliques:
    def test_diamond(self):
        assert maximal_cliques(fixture_graph("diamond")) == [(0, 1, 2), (0, 1, 3)]

    def test_c5_edges(self):
        assert maximal_cliques(cycle_graph(5)) == [
            (0, 1), (0, 4), (1, 2), (2, 3), (3, 4),
        ]

    def test_k4(self):
        assert maximal_cliques(complete_graph(4)) == [(0, 1, 2, 3)]

    def test_guard_fires(self):
        # the complete 5-partite graph K(3,3,3,3,3) has 3^5 = 243 maximal
        # cliques on 15 vertices, over the n^2 = 225 a C4-free graph allows
        g = complete_multipartite(5, 3)
        full = maximal_cliques(g)
        assert len(full) == 243
        capped = maximal_cliques(g, 225)
        assert len(capped) == 226 and capped == sorted(set(capped))
        assert set(capped) <= set(full)
        assert maximal_cliques(g, 243) == full

    def test_large_clique_without_recursion(self):
        # the search goes one level deeper per clique vertex, past Python's
        # default recursion limit of 1000
        assert maximal_cliques(large_clique(1100)) == [tuple(range(1100))]

    def test_clique_with_pendant_paths(self):
        # K6 on 3..8 with the pendant paths 8-0-1, 3-9-10-11 and 5-2
        edges = [(u, v) for u in range(3, 9) for v in range(u + 1, 9)]
        edges += [(8, 0), (0, 1), (3, 9), (9, 10), (10, 11), (5, 2)]
        g = WeightedGraph(12, edges)
        assert maximal_cliques(g) == [
            (0, 1), (0, 8), (2, 5), (3, 4, 5, 6, 7, 8), (3, 9), (9, 10), (10, 11),
        ]
        assert maximal_cliques(g) == maximal_cliques_brute(g)

    def test_c4_free_declaration_holds_on_free_graphs(self):
        rng = random.Random(11)
        checked = 0
        while checked < 40:
            n = rng.randint(1, 9)
            g = graph_from_mask(n, rng.getrandbits(n * (n - 1) // 2))
            if find_induced_c4(g) is None:
                checked += 1
                assert maximal_cliques(g, n * n) == maximal_cliques(g)
                assert len(maximal_cliques(g)) <= n * n

    def test_limit_keeps_a_prefix_of_the_search(self):
        # at or above the count the list is whole; below it, the search
        # stops at limit + 1 distinct maximal cliques
        rng = random.Random(13)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 12), rng.choice((0.3, 0.6, 0.8)))
            full = maximal_cliques(g)
            for limit in range(len(full) + 3):
                capped = maximal_cliques(g, limit)
                if limit >= len(full):
                    assert capped == full
                else:
                    assert len(capped) == limit + 1 == len(set(capped))
                    assert capped == sorted(capped) and set(capped) <= set(full)


def _sample_graphs(seed, count, sizes):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice(sizes)
        out.append(graph_from_mask(n, rng.getrandbits(n * (n - 1) // 2)))
    return out


class TestAgainstBruteForce:
    def test_ptolemaic_matches_brute_exhaustive_small(self):
        for n in range(1, 6):
            for mask in all_graph_masks(n):
                g = graph_from_mask(n, mask)
                assert is_ptolemaic(g)[0] == is_ptolemaic_brute(g), (n, mask)

    def test_ptolemaic_matches_brute_sampled(self):
        for g in _sample_graphs(23, 300, [6, 7]):
            assert is_ptolemaic(g)[0] == is_ptolemaic_brute(g)

    def test_hole_absence_equals_elimination_ordering_exhaustive(self):
        for n in range(7):
            for mask in all_graph_masks(n):
                g = graph_from_mask(n, mask)
                chordal = is_chordal_greedy_simplicial(g)
                assert is_chordal(g) == chordal, (n, mask)
                assert (find_hole(g) is None) == chordal, (n, mask)

    def test_hole_absence_equals_elimination_ordering_sampled(self):
        for g in _sample_graphs(29, 400, [6, 7]):
            assert (find_hole(g) is None) == is_chordal_greedy_simplicial(g)
            assert is_chordal(g) == is_chordal_greedy_simplicial(g)

    def test_chordality_sampled_up_to_thirteen_vertices(self):
        # random chordal graphs, the same with one to three edges added
        # (about half of them then have a hole), and plain random graphs
        rng = random.Random(37)
        found = [0, 0]
        for i in range(7500):
            n = rng.randint(7, 13)
            if i % 3 == 2:
                g = random_graph(rng, n, rng.choice((0.2, 0.35, 0.5, 0.65, 0.8)))
            else:
                g = random_chordal(rng, n)
                if i % 3 == 1:
                    extra = [rng.sample(range(n), 2) for _ in range(rng.randint(1, 3))]
                    g = WeightedGraph(n, g.edges + tuple(map(tuple, extra)))
            chordal = is_chordal_greedy_simplicial(g)
            assert is_chordal(g) == chordal, g.edges
            assert (find_hole(g) is None) == chordal, g.edges
            found[chordal] += 1
        assert min(found) >= 2000, found

    def test_hole_certificates_are_holes(self):
        for g in _sample_graphs(31, 200, [5, 6, 7]):
            hole = find_hole(g)
            if hole is None:
                continue
            k = len(hole)
            assert k >= 4
            for i, u in enumerate(hole):
                for j in range(i + 1, k):
                    adjacent = g.has_edge(u, hole[j])
                    consecutive = j - i == 1 or (i == 0 and j == k - 1)
                    assert adjacent == consecutive

    def test_hole_certificates_match_brute_exhaustive(self):
        for n in range(1, 7):
            for mask in all_graph_masks(n):
                g = graph_from_mask(n, mask)
                assert find_hole(g) == shortest_hole_brute(g), (n, mask)

    def test_hole_certificates_match_brute_sampled(self):
        rng = random.Random(43)
        for n in range(7, 13):
            for p in (0.15, 0.3, 0.45, 0.6):
                for _ in range(40):
                    g = random_graph(rng, n, p)
                    assert find_hole(g) == shortest_hole_brute(g), g.edges

    def test_maximal_cliques_match_brute_exhaustive(self):
        for n in range(1, 6):
            for mask in all_graph_masks(n):
                g = graph_from_mask(n, mask)
                assert maximal_cliques(g) == maximal_cliques_brute(g)

    def test_maximal_cliques_match_brute_sampled(self):
        for g in _sample_graphs(37, 150, [6, 7]):
            assert maximal_cliques(g) == maximal_cliques_brute(g)

    def test_obstruction_scans_match_brute(self):
        for g in _sample_graphs(41, 200, [5, 6, 7]):
            assert (find_induced_gem(g) is not None) == has_gem_brute(g)
            holes = has_hole_brute(g)
            assert (find_hole(g) is not None) == holes


class TestTwinInvariants:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_partition_and_closed_neighborhoods(self, n, data):
        mask = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
        g = graph_from_mask(n, mask)
        classes = twin_classes(g)
        seen = sorted(v for cls in classes for v in cls)
        assert seen == list(range(n))
        for cls in classes:
            for u in cls:
                for v in cls:
                    assert g.closed_bits(u) == g.closed_bits(v)
        reps = [cls[0] for cls in classes]
        for i, u in enumerate(reps):
            for v in reps[i + 1 :]:
                assert g.closed_bits(u) != g.closed_bits(v)

    def test_classes_are_cliques(self):
        for g in _sample_graphs(43, 120, [4, 5, 6, 7]):
            for cls in twin_classes(g):
                for i, u in enumerate(cls):
                    for v in cls[i + 1 :]:
                        assert g.has_edge(u, v)


class TestGraphFormat:
    def test_round_trip_fixtures(self):
        for name in ["diamond", "gem", "house", "domino", "bull", "dart"]:
            g = fixture_graph(name)
            assert parse_graph(format_graph(g)) == g

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 9), st.data())
    def test_round_trip_random(self, n, data):
        mask = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)) if n > 1 else 0
        weights = data.draw(
            st.lists(
                st.floats(0, 50, allow_nan=False, width=32),
                min_size=n,
                max_size=n,
            )
        )
        g = graph_from_mask(n, mask, weights=[float(w) for w in weights])
        assert parse_graph(format_graph(g)) == g

    def test_default_weight_is_one(self):
        g = parse_graph("p 2 1\ne 0 1\n")
        assert g.weights == (1.0, 1.0)

    def test_comments_and_blank_lines(self):
        g = parse_graph("# hi\np 3 2\n\nv 0 2.5\ne 0 1\ne 1 2 # tail\n")
        assert g.weights[0] == 2.5 and g.m == 2

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "e 0 1\n",
            "p 2 1\n",  # edge count mismatch
            "p 2 1\ne 0 5\n",
            "p 2 1\ne 0 0\n",
            "p x y\n",
            "q 1 2\n",
            "p 2 0\nv 7 1.0\n",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(GraphFormatError):
            parse_graph(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "missing `p <n> <m>` header"),
            ("e 0 1\n", "line 1: e before header"),
            ("p 2 1\n", "header declares 1 edges, file has 0"),
            ("p 2 1\ne 0 5\n", "edge (0,5) out of range for n=2"),
            ("p 2 1\ne 0 0\n", "self-loop at vertex 0"),
            ("p x y\n", "line 1: 'p x y': invalid literal for int() with base 10: 'x'"),
            ("q 1 2\n", "line 1: unknown record 'q'"),
            ("p 2 0\nv 7 1.0\n", "line 2: vertex 7 out of range"),
            ("p 2 0\np 2 0\n", "line 2: duplicate header"),
            ("p 1 0\nv 0 nan\n", "vertex weights must be finite and nonnegative"),
            ("p 1 0\nv 0 1e20\n", "vertex weights must be at most 1e+06"),
            ("p 1000001 0\n", "line 1: vertex count 1000001 exceeds 1000000"),
            ("p 2 0\nv 0 5\nv 0 7\n", "line 3: duplicate weight for vertex 0"),
            ("p 2 0\nv 1\nv 1 1.0\n", "line 3: duplicate weight for vertex 1"),
        ],
    )
    def test_malformed_message(self, text, message):
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value) == message

    def test_header_at_the_cap_is_read(self):
        assert parse_graph(f"p {graphs.MAX_HEADER_N} 0\n").n == graphs.MAX_HEADER_N


class TestWeightedGraphBasics:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 1)], [1.0, -0.5])

    def test_non_finite_weights_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                WeightedGraph(1, [], [bad])
        with pytest.raises(GraphFormatError):
            parse_graph("p 1 0\nv 0 nan\n")

    def test_weight_cap(self):
        assert WeightedGraph(1, [], [graphs.MAX_WEIGHT]).weights == (graphs.MAX_WEIGHT,)
        with pytest.raises(ValueError, match="at most"):
            WeightedGraph(1, [], [math.nextafter(graphs.MAX_WEIGHT, math.inf)])

    def test_delete_relabels_densely(self):
        g = cycle_graph(5)
        sub, old = g.delete([2])
        assert sub.n == 4 and old == (0, 1, 3, 4)
        assert sub.edges == ((0, 1), (0, 3), (2, 3))

    def test_weight_of_is_float(self):
        assert isinstance(path_graph(3).weight_of([]), float)

    def test_weight_of_sums_in_id_order(self):
        g = WeightedGraph(3, [], [0.1, 0.2, 0.3])
        assert g.weight_of([2, 1, 0]) == g.weight_of({2, 0, 1}) == (0.1 + 0.2) + 0.3

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_ids_outside_the_graph_rejected(self, bad):
        # -1 would read the last vertex, and delete([-1]) deleted nothing
        g = WeightedGraph(3, [(0, 1), (1, 2)], [1.0, 2.0, 4.0])
        for call in (g.weight_of, g.induced, g.delete):
            with pytest.raises(ValueError, match=rf"^id {bad} is outside \[0, 3\)$"):
                call([1, bad])


class TestUnionFind:
    def test_closing_arcs_exactly_when_not_a_forest(self):
        # against helpers_brute.remainder_is_forest, an independent copy, and
        # a component labelling by search
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(1, 10)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            picked = rng.sample(pairs, rng.randint(0, min(len(pairs), 14)))
            arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in picked]
            root, closing = union_find(n, arcs)
            assert (not closing) == remainder_is_forest(FvspInstance(n, arcs, [1.0] * n), ())
            assert len(closing) == len(arcs) - n + len(set(root))
            adj = {v: set() for v in range(n)}
            for u, v in arcs:
                adj[u].add(v)
                adj[v].add(u)
            for v in range(n):
                seen, todo = {v}, [v]
                while todo:
                    for w in adj[todo.pop()] - seen:
                        seen.add(w)
                        todo.append(w)
                assert {w for w in range(n) if root[w] == root[v]} == seen
                assert root[root[v]] == root[v]
