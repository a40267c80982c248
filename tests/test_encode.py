"""Tests for the combinatorial instance generators."""

import itertools
import random

import pytest

from gcls import decide, parse_hypergraph
from gcls.encode import (
    Hypergraph,
    Structure,
    arithmetic_progressions,
    complete_graph,
    hypergraph_coloring,
    list_hom,
    relational_hom,
    strong_coloring,
    vdw_instance,
)
from gcls.satdec import assignment_space

import oracles


def triangle():
    return Hypergraph.build(3, [(1, 2), (2, 3), (1, 3)])


def all_big_subsets(k):
    """The target hypergraph whose homomorphisms are the k-colourings."""
    subsets = [s for r in range(2, k + 1)
               for s in itertools.combinations(range(1, k + 1), r)]
    return Hypergraph.build(k, subsets)


def random_hypergraph(rng, max_vertices=5, max_edges=6, max_size=3):
    nv = rng.randint(1, max_vertices)
    edges = set()
    for _ in range(rng.randint(0, max_edges)):
        size = rng.randint(1, min(max_size, nv))
        edges.add(frozenset(rng.sample(range(1, nv + 1), size)))
    return Hypergraph.build(nv, edges)


def weakly_colorable(G, k):
    """Direct search for a colouring with no monochromatic edge."""
    return any(all(len({f[v] for v in e}) > 1 for e in G.edges)
               for f in ({v: c for v, c in zip(range(1, G.order + 1), combo)}
                         for combo in itertools.product(range(k),
                                                        repeat=G.order)))


def strongly_colorable(G, k):
    return any(all(len({f[v] for v in e}) == len(e) for e in G.edges)
               for f in ({v: c for v, c in zip(range(1, G.order + 1), combo)}
                         for combo in itertools.product(range(k),
                                                        repeat=G.order)))


def random_structures(rng, max_universe=3, max_arity=2):
    nrel = rng.randint(1, 2)
    arities = [rng.randint(1, max_arity) for _ in range(nrel)]
    na, nb = rng.randint(1, max_universe), rng.randint(1, max_universe)
    a_rels = [{tuple(rng.randint(1, na) for _ in range(m))
               for _ in range(rng.randint(0, 3))} for m in arities]
    b_rels = [{tuple(rng.randint(1, nb) for _ in range(m))
               for _ in range(rng.randint(0, 4))} for m in arities]
    return (Structure.build(range(1, na + 1), a_rels),
            Structure.build(range(1, nb + 1), b_rels))


def has_homomorphism(A, B, injective=False):
    for combo in itertools.product(B.universe, repeat=len(A.universe)):
        if injective and len(set(combo)) != len(combo):
            continue
        f = dict(zip(A.universe, combo))
        if all(tuple(f[x] for x in t) in rb
               for ra, rb in zip(A.relations, B.relations) for t in ra):
            return True
    return False


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Hypergraph.build(-1, []),
                 "vertex count must be >= 0", id="order"),
    pytest.param(lambda: arithmetic_progressions(0, 5),
                 "need k >= 1 and n >= 0", id="progression-length"),
    pytest.param(lambda: arithmetic_progressions(3, -1),
                 "need k >= 1 and n >= 0", id="progression-range"),
    pytest.param(lambda: strong_coloring(triangle(), 0),
                 "need at least one colour", id="strong-colours"),
    pytest.param(lambda: Structure.build([0, 1], []),
                 "universe elements must be positive integers", id="universe"),
    pytest.param(lambda: Structure.build([1, 2], [[(1, 3)]]),
                 "tuple (1, 3) leaves the universe", id="tuple"),
])
def test_outside_input_is_refused(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


class TestHypergraph:
    def test_build_dedupes_and_sorts(self):
        G = Hypergraph.build(3, [(2, 1), (1, 2), (3,)])
        assert G.edges == (frozenset({1, 2}), frozenset({3}))

    def test_build_rejects_foreign_vertices(self):
        with pytest.raises(ValueError):
            Hypergraph.build(2, [(1, 3)])

    def test_complete_graph(self):
        assert complete_graph(3).edges == (
            frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}))

    def test_progressions_enumeration(self):
        assert arithmetic_progressions(3, 6).edges == tuple(
            frozenset(e) for e in [{1, 2, 3}, {1, 3, 5}, {2, 3, 4},
                                   {2, 4, 6}, {3, 4, 5}, {4, 5, 6}])

    def test_progression_count_formula(self):
        for k, n in [(1, 4), (2, 5), (3, 8), (3, 9), (4, 12), (5, 7)]:
            G = arithmetic_progressions(k, n)
            if k == 1:
                expected = n
            else:
                expected = sum(max(0, n - (k - 1) * d) for d in range(1, n + 1))
            assert len(G.edges) == expected

    def test_progressions_are_real_progressions(self):
        for edge in arithmetic_progressions(4, 20).edges:
            steps = sorted(edge)
            diffs = {b - a for a, b in zip(steps, steps[1:])}
            assert len(edge) == 4 and len(diffs) == 1


class TestHypergraphColoring:
    def test_triangle_two_colours(self):
        F = hypergraph_coloring(triangle(), 2)
        assert F.c == 6
        assert not oracles.brute_satisfiable(F)

    def test_triangle_three_colours(self):
        assert oracles.brute_satisfiable(hypergraph_coloring(triangle(), 3))

    def test_isolated_vertex(self):
        F = hypergraph_coloring(Hypergraph.build(1, []), 3)
        assert F.c == 0 and len(F.table) == 1
        assert F.table.domain_size(1) == 3
        assert decide(F).satisfiable

    def test_rejects_empty_hyperedge(self):
        with pytest.raises(ValueError):
            hypergraph_coloring(Hypergraph.build(2, [()]), 2)

    def test_rejects_zero_colours(self):
        with pytest.raises(ValueError):
            hypergraph_coloring(triangle(), 0)

    def test_singleton_edge_is_unsatisfiable(self):
        F = hypergraph_coloring(Hypergraph.build(2, [(1,)]), 3)
        assert not oracles.brute_satisfiable(F)

    def test_clause_count_formula(self):
        rng = random.Random(3)
        for _ in range(40):
            G = random_hypergraph(rng)
            k = rng.randint(1, 3)
            if any(not e for e in G.edges):
                continue
            F = hypergraph_coloring(G, k)
            assert F.c == k * len(G.edges)
            assert len(F.table) == G.order

    def test_against_direct_colouring_search(self):
        rng = random.Random(4)
        sat = unsat = 0
        for _ in range(60):
            G = random_hypergraph(rng)
            k = rng.randint(1, 3)
            F = hypergraph_coloring(G, k)
            expect = weakly_colorable(G, k)
            assert oracles.brute_satisfiable(F) == expect
            sat += expect
            unsat += not expect
        assert sat >= 15 and unsat >= 15

    def test_witness_decodes_to_a_colouring(self):
        G = Hypergraph.build(5, [(1, 2, 3), (3, 4), (4, 5), (1, 5)])
        result = decide(hypergraph_coloring(G, 2))
        assert result.satisfiable
        colouring = {v: result.witness[v] for v in range(1, 6)}
        assert all(len({colouring[v] for v in e}) > 1 for e in G.edges)


class TestStrongColoring:
    def test_complete_graph_boundary(self):
        for k in (2, 3):
            assert oracles.brute_satisfiable(
                strong_coloring(complete_graph(k), k))
            assert not oracles.brute_satisfiable(
                strong_coloring(complete_graph(k + 1), k))

    def test_no_edges_gives_top(self):
        F = strong_coloring(Hypergraph.build(3, []), 2)
        assert F.c == 0 and len(F.table) == 3

    def test_small_edges_contribute_nothing(self):
        F = strong_coloring(Hypergraph.build(2, [(1,)]), 2)
        assert F.c == 0

    def test_against_direct_search(self):
        rng = random.Random(8)
        for _ in range(40):
            G = random_hypergraph(rng)
            k = rng.randint(1, 3)
            F = strong_coloring(G, k)
            assert oracles.brute_satisfiable(F) == strongly_colorable(G, k)


class TestListHom:
    def test_reproduces_colouring_through_the_subset_target(self):
        for k in (2, 3):
            L = {v: range(1, k + 1) for v in range(1, 4)}
            assert list_hom(triangle(), all_big_subsets(k), L) == \
                hypergraph_coloring(triangle(), k)

    def test_list_restriction_changes_the_answer(self):
        path = Hypergraph.build(3, [(1, 2), (2, 3)])
        target = all_big_subsets(2)
        free = {v: [1, 2] for v in (1, 2, 3)}
        assert oracles.brute_satisfiable(list_hom(path, target, free))
        pinned = {1: [1], 2: [1, 2], 3: [1]}
        F = list_hom(path, target, pinned)
        assert oracles.brute_satisfiable(F)
        clamped = {1: [1], 2: [1], 3: [1, 2]}
        assert not oracles.brute_satisfiable(list_hom(path, target, clamped))

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            list_hom(triangle(), all_big_subsets(2), {1: [], 2: [1], 3: [1]})

    def test_rejects_images_outside_target(self):
        with pytest.raises(ValueError):
            list_hom(triangle(), all_big_subsets(2),
                     {v: [1, 5] for v in (1, 2, 3)})

    def test_hom_search_agreement(self):
        # Full lists: plain hypergraph homomorphism existence.
        rng = random.Random(12)
        for _ in range(30):
            G1 = random_hypergraph(rng, max_vertices=3, max_edges=3)
            G2 = random_hypergraph(rng, max_vertices=3, max_edges=4)
            L = {v: range(1, G2.order + 1) for v in range(1, G1.order + 1)}
            F = list_hom(G1, G2, L)
            targets = set(G2.edges)
            expect = any(
                all(frozenset(f[v] for v in e) in targets for e in G1.edges)
                for f in ({v: w for v, w in
                           zip(range(1, G1.order + 1), combo)}
                          for combo in itertools.product(
                              range(1, G2.order + 1), repeat=G1.order)))
            assert oracles.brute_satisfiable(F) == expect


class TestRelationalHom:
    def test_identity_is_satisfiable(self):
        A = Structure.build([1, 2, 3], [{(1, 2), (2, 3)}])
        assert oracles.brute_satisfiable(relational_hom(A, A))
        assert oracles.brute_satisfiable(relational_hom(A, A, indirect=True))

    def test_incompatible_structures_rejected(self):
        A = Structure.build([1], [set()])
        B = Structure.build([1], [set(), set()])
        with pytest.raises(ValueError):
            relational_hom(A, B)
        C = Structure.build([1], [{(1,)}])
        D = Structure.build([1], [{(1, 1)}])
        with pytest.raises(ValueError):
            relational_hom(C, D)

    def test_empty_target_relation_is_unsatisfiable(self):
        A = Structure.build([1, 2], [{(1, 2)}])
        B = Structure.build([1, 2], [set()])
        assert not oracles.brute_satisfiable(relational_hom(A, B))
        assert not oracles.brute_satisfiable(relational_hom(A, B, indirect=True))

    def test_direct_and_indirect_match_brute_search(self):
        rng = random.Random(5)
        checked = sat_seen = 0
        for _ in range(120):
            A, B = random_structures(rng)
            direct = relational_hom(A, B)
            indirect = relational_hom(A, B, indirect=True)
            if max(assignment_space(direct), assignment_space(indirect)) > 5000:
                continue
            expect = has_homomorphism(A, B)
            assert oracles.brute_satisfiable(direct) == expect, (A, B)
            assert oracles.brute_satisfiable(indirect) == expect, (A, B)
            checked += 1
            sat_seen += expect
        assert checked >= 80 and sat_seen >= 40

    def test_injective_counting(self):
        A = Structure.build([1, 2, 3], [set()])
        small = Structure.build([1, 2], [set()])
        big = Structure.build([4, 5, 6], [set()])
        assert not oracles.brute_satisfiable(
            relational_hom(A, small, injective=True))
        assert oracles.brute_satisfiable(relational_hom(A, big, injective=True))

    def test_injective_against_brute_search(self):
        rng = random.Random(16)
        for _ in range(50):
            A, B = random_structures(rng)
            F = relational_hom(A, B, injective=True)
            assert oracles.brute_satisfiable(F) == \
                has_homomorphism(A, B, injective=True), (A, B)

    def test_injective_needs_direct_form(self):
        A = Structure.build([1], [set()])
        with pytest.raises(ValueError):
            relational_hom(A, A, injective=True, indirect=True)


class TestVdwInstances:
    def test_boundary_two_colours_three_terms(self):
        assert decide(vdw_instance(2, 3, 8)).satisfiable
        assert not decide(vdw_instance(2, 3, 9)).satisfiable

    def test_single_colour(self):
        assert not decide(vdw_instance(1, 3, 3)).satisfiable
        assert decide(vdw_instance(1, 3, 2)).satisfiable

    def test_progressions_of_length_one(self):
        assert not decide(vdw_instance(2, 1, 1)).satisfiable

    def test_no_integers(self):
        F = vdw_instance(2, 3, 0)
        assert F.c == 0 and decide(F).satisfiable

    def test_shape(self):
        F = vdw_instance(3, 3, 9)
        assert len(F.table) == 9
        assert all(F.table.domain_size(v) == 3 for v in range(1, 10))
        assert F.c == 3 * 16

    def test_rejects_bad_parameters(self):
        for m, k, n in [(0, 3, 5), (2, 0, 5), (2, 3, -1)]:
            with pytest.raises(ValueError):
                vdw_instance(m, k, n)

    def test_witness_avoids_monochromatic_progressions(self):
        result = decide(vdw_instance(2, 3, 8))
        assert result.satisfiable
        values = {v: result.witness[v] for v in range(1, 9)}
        for edge in arithmetic_progressions(3, 8).edges:
            assert len({values[v] for v in edge}) > 1


class TestParseHypergraph:
    def test_minimal(self):
        text = "c example\np hyp 3 3\n1 2 0\n2 3 0\n1 3 0\n"
        assert parse_hypergraph(text) == triangle()

    def test_edges_may_span_lines(self):
        G = parse_hypergraph("p hyp 4 2\n1 2\n3 0 2 4 0\n")
        assert G.edges == (frozenset({1, 2, 3}), frozenset({2, 4}))

    def test_empty_edge_parses(self):
        G = parse_hypergraph("p hyp 2 1\n0\n")
        assert G.edges == (frozenset(),)

    @pytest.mark.parametrize("text,fragment", [
        ("", "missing"),
        ("p hyp 2\n", "header"),
        ("p hyp two 2\n", "header"),
        ("p hyp 2 1\n1 3 0\n", "outside"),
        ("p hyp 2 1\n1 2\n", "terminated"),
        ("p hyp 2 2\n1 0\n", "announces"),
        ("p hyp 1 1\nx 0\n", "bad token"),
    ])
    def test_errors(self, text, fragment):
        with pytest.raises(ValueError) as err:
            parse_hypergraph(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("text, message", [
        # numbers are decimal digits only, as in the gcls and DIMACS readers
        ("p hyp 1_0 1\n1 0\n", "line 1, column 7: bad header: '1_0' is not a count"),
        ("p hyp 2 -1\n", "line 1, column 9: bad header: '-1' is not a count"),
        ("p hyp 2 1\n+1 0\n", "line 2, column 1: bad token '+1': expected a vertex or '0'"),
        ("p hyp 2 1\n1 1_0 0\n",
         "line 2, column 3: bad token '1_0': expected a vertex or '0'"),
        ("p hyp 2 1\n1  -1 0\n",
         "line 2, column 4: bad token '-1': expected a vertex or '0'"),
        # a comment line has the first word 'c'
        ("p hyp 2 1\ncx 0\n", "line 2, column 1: bad token 'cx': expected a vertex or '0'"),
        ("cx\np hyp 2 1\n1 0\n", "line 1, column 1: missing 'p hyp' header"),
        ("p hyp 2 1\n1  3 0\n", "line 2, column 4: vertex 3 outside 1..2"),
        ("p hyp 2 1\n p hyp 2 1\n1 0\n", "line 2, column 2: duplicate header"),
        ("p hyp 2 1\n1 2\n", "line 2, column 3: unterminated hyperedge at end of input"),
        ("p hyp 2 2\n1 0\n", "line 1, column 1: bad header counts: "
                              "header announces 2 hyperedges, file has 1"),
        ("", "line 1, column 1: missing 'p hyp' header"),
    ])
    def test_line_and_column(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_hypergraph(text)
        assert str(err.value) == message

    def test_accepted_forms(self):
        # '00' ends an edge, Unicode decimal digits are numbers, and repeats
        # collapse although each list counts towards the header
        G = parse_hypergraph("c x\np hyp 2 3\n1 1 2 00\n2 1 0 \u0661 0\n")
        assert G == Hypergraph.build(2, [(1, 2), (1,)])
