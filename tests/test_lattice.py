"""Inter-clique digraph construction and its structural guarantees."""

import random

import pytest

from helpers_brute import (
    all_graph_masks,
    ancestors,
    close_sources,
    descendants,
    graph_from_mask,
    icd_cycles,
    icd_equivalent,
    segment_length,
    subset_intersections,
)
from generators import complete_multipartite, large_clique, random_c4gem_free, random_graph
from ptodel import lattice
from ptodel.fixtures import complete_graph, cycle_graph, fixture_graph, path_graph
from ptodel.fvsp import FvspInstance, validate_instance
from ptodel.graphs import (
    BudgetExceededError,
    StageError,
    WeightedGraph,
    _mask_of,
    find_hole,
    find_induced_c4,
    find_induced_gem,
    is_ptolemaic,
    maximal_cliques,
)
from ptodel.lattice import (
    InterCliqueDigraph,
    brute_force_icd,
    build_icd,
    check_laminar_out_trees,
    dump_icd,
    icd_to_dot,
    is_ptolemaic_via_icd,
)


def _is_free(g):
    return find_induced_c4(g) is None and find_induced_gem(g) is None


def _anc_violation(icd):
    """The ancestor in-tree check: ``validate_instance`` on the ICD's arcs."""
    return validate_instance(FvspInstance(icd.n_nodes, icd.arcs, icd.node_weights))


def _sample_icds(seed=5, count=40):
    """Mixed bag of ICDs: fixtures plus random free graphs."""
    rng = random.Random(seed)
    graphs = [
        path_graph(3),
        fixture_graph("diamond"),
        cycle_graph(5),
        cycle_graph(6),
        complete_graph(4),
        fixture_graph("bull"),
        fixture_graph("dart"),
    ]
    graphs += [
        random_c4gem_free(rng, rng.randint(3, 8), rng.uniform(0.2, 0.6))
        for _ in range(count)
    ]
    return [build_icd(g) for g in graphs]


class TestBuildExamples:
    def test_p3(self):
        icd = build_icd(path_graph(3))
        assert icd.cliques == ((0, 1), (1, 2), (1,))
        assert icd.arcs == ((0, 2), (1, 2))
        assert icd.phi[1] == 2  # middle vertex maps to the {1} node

    def test_diamond_three_nodes_forest(self):
        icd = build_icd(fixture_graph("diamond"))
        assert icd.n_nodes == 3 and len(icd.arcs) == 2
        assert set(icd.cliques) == {(0, 1, 2), (0, 1, 3), (0, 1)}
        assert icd.underlying_is_forest()

    def test_c5_ten_node_cycle(self):
        icd = build_icd(cycle_graph(5))
        assert icd.n_nodes == 10 and len(icd.arcs) == 10
        assert not icd.underlying_is_forest()
        # edge nodes carry no vertices, vertex nodes carry exactly one
        for i in range(10):
            if len(icd.cliques[i]) == 2:
                assert icd.phi_inv[i] == () and icd.node_weights[i] == 0.0
            else:
                assert icd.phi_inv[i] == icd.cliques[i]
                assert icd.node_weights[i] == 1.0

    def test_gem_is_rejected(self):
        with pytest.raises(
            StageError,
            match=r"^\[reduce\] per-maximal-clique family is not an out-tree: \(\d+, \d+, \d+\); ",
        ):
            build_icd(fixture_graph("gem"))

    def test_large_clique_single_node(self):
        icd = build_icd(large_clique(1100))
        assert icd.n_nodes == 1 and icd.arcs == ()
        assert icd.phi == (0,) * 1100

    def test_empty_graph(self):
        icd = build_icd(graph_from_mask(0, 0))
        assert icd.n_nodes == 0 and icd.arcs == ()


class TestBruteForceExamples:
    def test_k3_single_node(self):
        icd = brute_force_icd(complete_graph(3))
        assert icd.n_nodes == 1 and icd.cliques == ((0, 1, 2),)

    def test_p3_matches_build(self):
        assert icd_equivalent(brute_force_icd(path_graph(3)), build_icd(path_graph(3)))

    def test_gem_icd_has_cycle(self):
        icd = brute_force_icd(fixture_graph("gem"))
        assert icd.n_nodes == 6
        assert not icd.underlying_is_forest()

    def test_budget(self):
        with pytest.raises(
            BudgetExceededError,
            match="^more than 3 maximal cliques on 5 vertices exceeds the oracle budget$",
        ):
            brute_force_icd(cycle_graph(5), max_clique_budget=3)
        assert brute_force_icd(cycle_graph(5), max_clique_budget=5).n_nodes == 10

    def test_budget_stops_the_enumeration(self, monkeypatch):
        # K(3,...,3) on 36 vertices has 3^12 maximal cliques; the search
        # asked for them stops at the 21st
        g = complete_multipartite(12, 3)
        counts = []
        real = lattice.maximal_cliques

        def counted(g, limit=None):
            out = real(g, limit)
            counts.append(len(out))
            return out

        monkeypatch.setattr(lattice, "maximal_cliques", counted)
        with pytest.raises(BudgetExceededError):
            brute_force_icd(g)
        assert counts == [21]

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_must_be_positive(self, budget):
        # checked before the clique count: the empty graph has none to exceed it
        for g in (WeightedGraph(0, []), cycle_graph(5)):
            with pytest.raises(ValueError, match="^budget must be positive$"):
                brute_force_icd(g, max_clique_budget=budget)

    def test_closure_path_matches_subset_dp(self):
        # the oracle's pairwise closure reaches the intersection of every
        # subset of the maximal cliques, and nothing else
        rng = random.Random(3)
        graphs = [graph_from_mask(7, rng.getrandbits(21)) for _ in range(12)]
        graphs += [random_graph(rng, rng.randint(8, 11), 0.5) for _ in range(30)]
        for g in graphs:
            mc = maximal_cliques(g)
            if len(mc) <= 16:
                icd = brute_force_icd(g)
                assert set(icd.cliques) == subset_intersections(g.n, mc), g.edges


class TestBookkeepingInvariants:
    def test_cliques_are_source_intersections(self):
        for icd in _sample_icds(seed=45, count=25):
            for i in range(icd.n_nodes):
                expected = set(icd.max_cliques[icd.src_sets[i][0]])
                for m in icd.src_sets[i][1:]:
                    expected &= set(icd.max_cliques[m])
                assert set(icd.cliques[i]) == expected
                # source set is exactly the maximal cliques containing it
                for m, mc in enumerate(icd.max_cliques):
                    assert (m in icd.src_sets[i]) == (
                        set(icd.cliques[i]) <= set(mc)
                    )

    def test_phi_preimages_partition_vertices(self):
        for icd in _sample_icds(seed=47, count=25):
            seen = sorted(v for vs in icd.phi_inv for v in vs)
            assert seen == list(range(len(icd.phi)))
            for v, x in enumerate(icd.phi):
                assert v in icd.phi_inv[x]

    def test_phi_is_unique_minimal_containing_node(self):
        for icd in _sample_icds(seed=49, count=25):
            for v in range(len(icd.phi)):
                containing = [
                    i for i in range(icd.n_nodes) if v in icd.cliques[i]
                ]
                minimal = [
                    i
                    for i in containing
                    if not any(
                        j != i and set(icd.cliques[j]) < set(icd.cliques[i])
                        for j in containing
                    )
                ]
                assert minimal == [icd.phi[v]]

    def test_node_weights_sum_to_graph_weight(self):
        rng = random.Random(51)
        for _ in range(15):
            g = random_c4gem_free(
                rng, rng.randint(1, 8), 0.4, weights=(0.0, 7.0), zero_weight_p=0.3
            )
            icd = build_icd(g)
            assert sum(icd.node_weights) == pytest.approx(sum(g.weights))


class TestOracleEquivalence:
    def test_exhaustive_n5_including_disconnected(self):
        for n in range(1, 6):
            for mask in all_graph_masks(n):
                g = graph_from_mask(n, mask)
                if not _is_free(g):
                    continue
                assert icd_equivalent(build_icd(g), brute_force_icd(g)), (n, mask)

    def test_random_free_n7_n8(self):
        rng = random.Random(17)
        for _ in range(50):
            g = random_c4gem_free(
                rng, rng.randint(7, 8), rng.uniform(0.2, 0.5), max_cliques_cap=20
            )
            assert icd_equivalent(build_icd(g), brute_force_icd(g))

    def test_random_free_n15_n25(self):
        rng = random.Random(29)
        for _ in range(40):
            g = random_c4gem_free(
                rng, rng.randint(15, 25), rng.uniform(0.15, 0.5), max_cliques_cap=20
            )
            assert icd_equivalent(build_icd(g), brute_force_icd(g))

    def test_multi_round_closure_matches_oracle(self):
        # On (C4, gem)-free input the closure needs one productive round: the
        # laminar out-trees make every source set a seed or the meet of two.
        # General graphs take more rounds; their closure must still be the
        # oracle's family, and build_icd must reject them.
        rng = random.Random(31)
        multi = 0
        for _ in range(300):
            n = rng.randint(6, 10)
            g = graph_from_mask(n, rng.getrandbits(n * (n - 1) // 2))
            try:
                oracle = brute_force_icd(g)
            except BudgetExceededError:
                continue
            seeds = [_mask_of(oracle.src_sets[x]) for x in oracle.phi]
            family = close_sources(seeds)
            assert family == {_mask_of(s) for s in oracle.src_sets}
            one_round = set(seeds) | {a & b for a in seeds for b in seeds}
            one_round.discard(0)
            if family != one_round:
                multi += 1
                with pytest.raises(StageError):
                    build_icd(g)
            else:
                try:
                    fast = build_icd(g)
                except StageError:
                    continue
                assert icd_equivalent(fast, oracle)
        assert multi >= 20

    def test_node_bound(self):
        for icd in _sample_icds():
            n = len(icd.phi)
            assert icd.n_nodes <= max(2 * n * n * n, 1)

    @staticmethod
    def _raises_or_is_closure(g):
        """build_icd raises, or its source sets are the full closure of the
        vertex seeds; returns whether it raised."""
        try:
            icd = build_icd(g)
        except StageError:
            return True
        seeds = [
            sum(1 << m for m, mc in enumerate(icd.max_cliques) if v in mc)
            for v in range(g.n)
        ]
        assert {_mask_of(s) for s in icd.src_sets} == close_sources(seeds), g.edges
        return False

    def test_one_round_family_is_the_closure_or_raises(self):
        # the one-round family misses a node only where a per-clique family
        # is not laminar, which the sweep rejects
        rng = random.Random(37)
        outcomes = []
        for _ in range(600):
            n = rng.randint(6, 12)
            g = graph_from_mask(n, rng.getrandbits(n * (n - 1) // 2))
            outcomes.append(self._raises_or_is_closure(g))
        for _ in range(150):
            n = rng.randint(10, 40)
            g = random_graph(rng, n, rng.uniform(1.0, 4.0) / n)
            outcomes.append(self._raises_or_is_closure(g))
        assert sum(outcomes) >= 100 and outcomes.count(False) >= 100

    def test_one_round_family_at_scale(self):
        # (C4, gem)-free pieces glued at one vertex each stay (C4, gem)-free:
        # both obstructions are 2-connected, so each lies inside one piece
        rng = random.Random(41)
        n, edges = 1, []
        while n < 2000:
            piece = random_c4gem_free(rng, rng.randint(8, 16), rng.uniform(0.3, 0.6))
            at = rng.randrange(n)
            ids = [at] + list(range(n, n + piece.n - 1))
            edges += [(ids[u], ids[v]) for u, v in piece.edges]
            n += piece.n - 1
        g = WeightedGraph(n, edges)
        assert not self._raises_or_is_closure(g)


class TestStructuralChecks:
    def test_laminar_c5(self):
        assert check_laminar_out_trees(build_icd(cycle_graph(5))) == (True, None)

    def test_laminar_diamond(self):
        assert check_laminar_out_trees(build_icd(fixture_graph("diamond"))) == (True, None)

    def test_laminar_c4_oracle_icd(self):
        # C4 is outside the guarantee's hypothesis, but its lattice happens
        # to satisfy the conclusion: each clique family is {edge, two ends}
        assert check_laminar_out_trees(brute_force_icd(cycle_graph(4))) == (True, None)

    def test_laminar_rejects_arcs_that_skip_a_node(self):
        # one maximal clique M = A + {2}, A = (0, 1) > B = (0,): the family
        # is laminar and rooted at M, but M -> B skips A
        def icd_with(arcs):
            return InterCliqueDigraph(
                cliques=((0, 1, 2), (0, 1), (0,)),
                src_sets=((0,), (0,), (0,)),
                arcs=arcs,
                max_cliques=((0, 1, 2),),
                phi=(2, 1, 0),
                vertex_weights=(1.0, 1.0, 1.0),
            )

        assert check_laminar_out_trees(icd_with(((0, 1), (0, 2)))) == (
            False,
            (None, 0, 2),
        )
        assert check_laminar_out_trees(icd_with(((0, 1), (1, 2)))) == (True, None)

    def test_laminar_gem_fails(self):
        ok, witness = check_laminar_out_trees(brute_force_icd(fixture_graph("gem")))
        assert not ok and witness is not None

    def test_anc_in_trees_c5(self):
        assert _anc_violation(build_icd(cycle_graph(5))) is None

    def test_anc_in_trees_single_node(self):
        assert _anc_violation(build_icd(complete_graph(3))) is None

    def test_anc_in_trees_diamond_dag_fails(self):
        # two parallel containment chains meeting at one node
        syn = InterCliqueDigraph(
            cliques=((0, 1, 2), (0, 1), (0, 2), (0,)),
            src_sets=((0,), (0, 1), (0, 2), (0, 1, 2)),
            arcs=((0, 1), (0, 2), (1, 3), (2, 3)),
            max_cliques=((0, 1, 2), (0, 1, 3), (0, 2, 3)),
            phi=(3, 1, 2),
            vertex_weights=(1.0, 1.0, 1.0),
        )
        assert _anc_violation(syn).node == 3

    def test_anc_in_trees_on_free_samples(self):
        for icd in _sample_icds(seed=19, count=25):
            assert _anc_violation(icd) is None
            assert check_laminar_out_trees(icd) == (True, None)


class TestLatticeLemmas:
    def test_branching_nodes_source_sets(self):
        # a node with two or more immediate descendants is exactly the
        # intersection of any two of their source sets
        for icd in _sample_icds(seed=7, count=30):
            for x in range(icd.n_nodes):
                kids = icd.children[x]
                if len(kids) < 2:
                    continue
                sx = set(icd.src_sets[x])
                for i, a in enumerate(kids):
                    for b in kids[i + 1 :]:
                        assert sx == set(icd.src_sets[a]) & set(icd.src_sets[b])

    def test_at_most_one_greatest_common_descendant(self):
        pool = _sample_icds(seed=9, count=20)
        pool.append(brute_force_icd(cycle_graph(4)))
        pool.append(brute_force_icd(fixture_graph("gem")))
        pool.append(brute_force_icd(fixture_graph("house")))
        for icd in pool:
            for a in range(icd.n_nodes):
                for b in range(a + 1, icd.n_nodes):
                    common = descendants(icd, a) & descendants(icd, b)
                    greatest = [
                        x
                        for x in common
                        if not (ancestors(icd, x, include_self=False) & common)
                    ]
                    assert len(greatest) <= 1

    def test_twin_characterization(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(2, 7)
            g = graph_from_mask(n, rng.getrandbits(n * (n - 1) // 2))
            icd = brute_force_icd(g)
            for u in range(n):
                for v in range(u + 1, n):
                    twins = g.closed_bits(u) == g.closed_bits(v)
                    assert (icd.phi[u] == icd.phi[v]) == twins
                    same_src = icd.src_sets[icd.phi[u]] == icd.src_sets[icd.phi[v]]
                    assert same_src == twins

    def test_min_segment_length_at_least_8(self):
        for k in (5, 6, 7):
            icd = build_icd(cycle_graph(k))
            cycles = icd_cycles(icd)
            assert cycles
            assert min(segment_length(icd, c) for c in cycles) >= 8

    def test_hole_heredity(self):
        # a hole stays a hole when one vertex is swapped for any member of
        # its canonical clique
        from ptodel.graphs import WeightedGraph

        # five-cycle with a true twin of vertex 0 glued on
        c5twin = WeightedGraph(
            6, list(cycle_graph(5).edges) + [(5, 0), (5, 1), (5, 4)]
        )
        cases = [c5twin]
        rng = random.Random(21)
        while len(cases) < 12:
            g = random_c4gem_free(rng, rng.randint(5, 8), rng.uniform(0.3, 0.6))
            if find_hole(g) is not None:
                cases.append(g)
        for g in cases:
            assert _is_free(g)
            hole = find_hole(g)
            icd = build_icd(g)
            for v in hole:
                canonical = icd.cliques[icd.phi[v]]
                for vp in canonical:
                    swapped = (set(hole) - {v}) | {vp}
                    sub, _ = g.induced(swapped)
                    assert find_hole(sub) is not None, (g.edges, hole, v, vp)


def _twin_expand_cycle(k, sizes, weights=None):
    """Cycle C_k with vertex i blown up into a clique of sizes[i] true twins
    (stays (C4, gem)-free, keeps a hole, and exercises nontrivial twin
    classes in the lattice construction)."""
    from ptodel.graphs import WeightedGraph

    blocks = []
    nxt = 0
    for s in sizes:
        blocks.append(list(range(nxt, nxt + s)))
        nxt += s
    edges = []
    for i in range(k):
        blk = blocks[i]
        edges += [(a, b) for x, a in enumerate(blk) for b in blk[x + 1 :]]
        for a in blk:
            for b in blocks[(i + 1) % k]:
                edges.append((min(a, b), max(a, b)))
    return WeightedGraph(nxt, edges, weights)


class TestTwinExpandedCycles:
    def test_structure_and_equivalence(self):
        rng = random.Random(85)
        for _ in range(15):
            k = rng.randint(5, 7)
            sizes = [rng.randint(1, 3) for _ in range(k)]
            n = sum(sizes)
            w = [rng.choice([0.0, round(rng.uniform(0.1, 4.0), 3)]) for _ in range(n)]
            g = _twin_expand_cycle(k, sizes, w)
            assert _is_free(g)
            assert find_hole(g) is not None
            fast = build_icd(g)
            assert _anc_violation(fast) is None
            assert check_laminar_out_trees(fast) == (True, None)
            # blocks become the twin classes: one lattice node per block and
            # per cycle edge, underlying graph a single 2k-cycle
            assert fast.n_nodes == 2 * k
            assert not fast.underlying_is_forest()
            if n <= 16:
                assert icd_equivalent(fast, brute_force_icd(g))


class TestPtolemaicViaIcd:
    def test_examples(self):
        assert is_ptolemaic_via_icd(fixture_graph("diamond"))
        assert not is_ptolemaic_via_icd(cycle_graph(5))
        assert is_ptolemaic_via_icd(path_graph(4))

    def test_enumerates_the_cliques_once(self, monkeypatch):
        # one path at every size: the guarded list goes straight to the ICD
        # construction, and the brute-force oracle is never asked
        calls = []
        real = lattice.maximal_cliques
        monkeypatch.setattr(
            lattice,
            "maximal_cliques",
            lambda g, limit=None: calls.append((g.n, limit)) or real(g, limit),
        )
        monkeypatch.setattr(lattice, "brute_force_icd", None)
        assert is_ptolemaic_via_icd(path_graph(3))  # 2 maximal cliques
        assert is_ptolemaic_via_icd(path_graph(30))  # 29
        assert not is_ptolemaic_via_icd(cycle_graph(30))  # 30, and a hole
        assert calls == [(3, 9), (30, 900), (30, 900)]

    def test_clique_guard_is_false_where_build_icd_raises(self):
        # a perfect matching's complement on 20 vertices: 2^10 > 20^2 cliques
        g = WeightedGraph(
            20, [(u, v) for u in range(20) for v in range(u + 1, 20) if v != u ^ 1]
        )
        assert is_ptolemaic_via_icd(g) is False
        with pytest.raises(StageError) as direct:
            build_icd(g)
        assert str(direct.value) == (
            "[reduce] more than 400 maximal cliques on 20 vertices; input is not C4-free"
        )

    def test_agrees_with_obstruction_scan(self):
        rng = random.Random(27)
        for _ in range(250):
            n = rng.randint(1, 7)
            g = graph_from_mask(n, rng.getrandbits(n * (n - 1) // 2))
            assert is_ptolemaic_via_icd(g) == is_ptolemaic(g)[0]
        # more than 20 maximal cliques, where build_icd raises on some of the
        # graphs that are not (C4, gem)-free
        raised = ptolemaic = checked = 0
        while checked < 200:
            n = rng.randint(16, 30)
            g = random_graph(rng, n, rng.uniform(0.8, 4.0) / n)
            if len(maximal_cliques(g)) <= 20:
                continue
            checked += 1
            try:
                build_icd(g)
            except StageError:
                raised += 1
            verdict = is_ptolemaic(g)[0]
            assert is_ptolemaic_via_icd(g) == verdict, g.edges
            ptolemaic += verdict
        assert raised >= 20 and ptolemaic >= 10


class TestExport:
    def test_dump_matches_structure(self):
        icd = build_icd(path_graph(3))
        text = dump_icd(icd)
        assert "node 0 clique=0,1 src=0 w=1.0 phiInv=0" in text
        assert "arc 0 2" in text and "arc 1 2" in text
        assert len([ln for ln in text.splitlines() if ln.startswith("node ")]) == 3

    def test_dot_output(self):
        dot = icd_to_dot(build_icd(fixture_graph("diamond")))
        assert dot.startswith("digraph") and dot.count("->") == 2

    def test_dump_deterministic(self):
        g = cycle_graph(6)
        assert dump_icd(build_icd(g)) == dump_icd(build_icd(g))
