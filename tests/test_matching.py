import random
import sys

import pytest

from gcls.core import (
    BOT,
    Clause,
    EMPTY_ASSIGNMENT,
    MultiClauseSet,
    PartialAssignment,
    VariableTable,
    apply,
    compose,
    restrict,
    top,
)
from gcls.matching import (
    IncidenceGraph,
    is_matching_autarky,
    is_matching_lean,
    is_matching_satisfiable,
    matching_lean_kernel,
    matching_satisfying_assignment,
    max_deficiency,
    quasi_maximal_matching_autarky,
    repair_to_matching_maximum,
    surplus,
    surplus_at_least,
    tovey_check,
)

from gcls.cli import emit_gcls, main, parse_gcls
from gcls.encode import Hypergraph, hypergraph_coloring, strong_coloring, vdw_instance

import oracles
from test_core import mixed_example


def triangle_example():
    """Three ternary variables, three binary clauses in a cycle."""
    table = VariableTable({1: 3, 2: 3, 3: 3})
    return MultiClauseSet(table, [
        Clause([(1, 0), (2, 0)]),
        Clause([(2, 1), (3, 1)]),
        Clause([(3, 2), (1, 2)]),
    ])


# 9 clauses x 8 boolean variables; positive literal = (v,0), negative = (v,1).
# Rows pairwise clash in exactly one variable; deficiency 1; matching lean.
_MATRIX_ROWS = [
    "+0+0000+",
    "+0-+0000",
    "--000++0",
    "--00--00",
    "0+---000",
    "000-+0--",
    "-000+-0+",
    "-00+0+-0",
    "0++000+-",
]


def matrix_example():
    table = VariableTable({v: 2 for v in range(1, 9)})
    clauses = []
    for row in _MATRIX_ROWS:
        lits = []
        for col, sign in enumerate(row, start=1):
            if sign == "+":
                lits.append((col, 0))
            elif sign == "-":
                lits.append((col, 1))
        clauses.append(Clause(lits))
    return MultiClauseSet(table, clauses)


def two_unit_copies():
    """Two occurrences of the unit clause v!=0 over a ternary domain."""
    table = VariableTable({1: 3})
    return MultiClauseSet(table, [Clause([(1, 0)]), Clause([(1, 0)])])


def unit_chain_example():
    """v ternary plus boolean w, w'; matching satisfiable with delta* = 0."""
    table = VariableTable({1: 3, 2: 2, 3: 2})
    return MultiClauseSet(table, [
        Clause([(1, 0), (2, 0)]),
        Clause([(1, 0), (3, 0)]),
        Clause([(2, 1)]),
        Clause([(3, 1)]),
    ])


def multi_unit_lean():
    """{v!=1} + 2*{v!=2} over a ternary domain: matching lean."""
    table = VariableTable({1: 3})
    return MultiClauseSet(table, {Clause([(1, 1)]): 1, Clause([(1, 2)]): 2})


def pair_lean_example():
    """Ternary v with boolean w; a matching-lean 4-clause set."""
    table = VariableTable({1: 3, 2: 2})
    return MultiClauseSet(table, [
        Clause([(1, 1)]),
        Clause([(1, 2)]),
        Clause([(1, 2), (2, 0)]),
        Clause([(2, 1)]),
    ])


def nested_gadget_example():
    """Six boolean clauses whose matching-lean kernel is the three on 1 and 4."""
    table = VariableTable({v: 2 for v in range(1, 7)})
    kernel = [
        Clause([(1, 0)]),
        Clause([(4, 0)]),
        Clause([(1, 0), (4, 0)]),
    ]
    rest = [
        Clause([(1, 1), (2, 0), (4, 1), (5, 1), (6, 1)]),
        Clause([(1, 1), (2, 1), (3, 0), (4, 1), (5, 1), (6, 0)]),
        Clause([(1, 1), (2, 1), (3, 1), (4, 1), (5, 0)]),
    ]
    return MultiClauseSet(table, kernel + rest), MultiClauseSet(table, kernel)


def wide_example():
    """v with domain 4 plus boolean a,b,c,d: matching satisfiable, 7 clauses."""
    table = VariableTable({1: 4, 2: 2, 3: 2, 4: 2, 5: 2})
    return MultiClauseSet(table, [
        Clause([(1, 0), (2, 0), (3, 0)]),
        Clause([(1, 0), (2, 0), (3, 1)]),
        Clause([(2, 1), (3, 0)]),
        Clause([(2, 1), (3, 1)]),
        Clause([(1, 1), (4, 0), (5, 0)]),
        Clause([(1, 2), (4, 1), (5, 1)]),
        Clause([(1, 3), (4, 0), (5, 0)]),
    ])


def random_partial(rng, F, allow_outside=False):
    vs = sorted(F.var_set())
    if not vs:
        return EMPTY_ASSIGNMENT
    chosen = rng.sample(vs, rng.randint(0, len(vs)))
    return PartialAssignment(
        {v: rng.randrange(F.table.domain_size(v)) for v in chosen})


def copy_edges(G):
    """Edges of G counted as in the graph with one node per variable copy."""
    return sum(G.cap[v] for vs in G.adj for v in vs)


def assert_valid_matching(G, phi=None):
    """mate and users describe one matching of the edges of G within capacity."""
    assert G.size == sum(v is not None for v in G.mate)
    for o, v in enumerate(G.mate):
        if v is not None:
            assert v in G.adj[o] and o in G.users[v]
            assert phi is None or phi.satisfies_literal(
                (v, G.clauses[G.owner[o]].value_on(v)))
    for v, held in G.users.items():
        assert len(held) <= G.cap[v] and all(G.mate[o] == v for o in held)


class TestIncidence:
    def test_triangle_counts(self):
        G = IncidenceGraph(triangle_example())
        assert len(G.adj) == 3
        assert sum(G.cap.values()) == 6
        assert copy_edges(G) == 12

    def test_top_empty(self):
        G = IncidenceGraph(top(VariableTable({1: 3})))
        assert G.adj == [] and G.cap == {}

    def test_counts_match_formulas(self):
        rng = random.Random(401)
        for _ in range(60):
            F = oracles.random_instance(rng)
            G = IncidenceGraph(F)
            assert len(G.adj) == F.c
            assert sum(G.cap.values()) == F.rd
            expected_edges = sum(
                F.var_count(v) * (F.table.domain_size(v) - 1)
                for v in F.var_set())
            assert copy_edges(G) == expected_edges


class TestMaximumMatching:
    def test_triangle_covers_all_clauses(self):
        G = IncidenceGraph(triangle_example())
        assert G.size == 3
        assert all(v is not None for v in G.mate)
        assert_valid_matching(G)

    def test_empty(self):
        G = IncidenceGraph(top(VariableTable({})))
        assert G.size == 0

    def test_against_independent_matcher_and_subset_oracle(self):
        rng = random.Random(402)
        for _ in range(50):
            F = oracles.random_instance(rng, max_c=7)
            G = IncidenceGraph(F)
            assert_valid_matching(G)
            assert G.size == oracles.kuhn_maximum_matching(oracles.incidence_edges(F))
            assert G.size == F.c - oracles.brute_max_deficiency(F)

    def test_assignment_graph_against_independent_matcher(self):
        # B_phi(F) keeps the edges whose literal phi satisfies
        rng = random.Random(423)
        for _ in range(60):
            F = oracles.random_instance(rng, max_c=7)
            phi = random_partial(rng, F)
            G = IncidenceGraph(F, phi)
            assert_valid_matching(G, phi)
            edges = {}
            for idx, (clause, mult) in enumerate(F.items()):
                adj = [(lit.var, j) for lit in sorted(clause) if phi.satisfies_literal(lit)
                       for j in range(F.table.domain_size(lit.var) - 1)]
                for occ in range(mult):
                    edges[(idx, occ)] = adj
            assert G.size == oracles.kuhn_maximum_matching(edges)


class TestMaxDeficiency:
    def test_unit_chain_is_tight(self):
        assert max_deficiency(unit_chain_example()).value == 0

    def test_top(self):
        assert max_deficiency(top(VariableTable({1: 2}))).value == 0

    def test_against_oracle_with_part(self):
        rng = random.Random(403)
        for _ in range(50):
            F = oracles.random_instance(rng, max_c=7)
            value = max_deficiency(F).value
            assert value == oracles.brute_max_deficiency(F)
            # the matched clause occurrences form a largest
            # matching-satisfiable sub-multi-clause-set
            graph = IncidenceGraph(F)
            matched = {}
            for occ, var in enumerate(graph.mate):
                if var is not None:
                    clause = graph.clauses[graph.owner[occ]]
                    matched[clause] = matched.get(clause, 0) + 1
            part = F.with_clauses(matched)
            assert part.c == F.c - value
            assert all(part.multiplicity(c) <= F.multiplicity(c)
                       for c in part.clauses())
            assert oracles.brute_matching_satisfiable(part)


class TestMatchingSatisfyingAssignment:
    def test_two_copies_of_a_unit(self):
        phi = matching_satisfying_assignment(two_unit_copies())
        assert phi == PartialAssignment({1: 1})

    def test_top(self):
        assert matching_satisfying_assignment(top(VariableTable({}))) == EMPTY_ASSIGNMENT

    def test_wide_example_uses_paper_style_witness(self):
        F = wide_example()
        phi = matching_satisfying_assignment(F)
        assert phi is not None and oracles.brute_is_matching_satisfying(phi, F)

    def test_witness_contract_random(self):
        rng = random.Random(404)
        seen_sat = seen_unsat = 0
        for _ in range(60):
            F = oracles.random_instance(rng, max_c=7)
            phi = matching_satisfying_assignment(F)
            if phi is None:
                assert max_deficiency(F).value > 0
                seen_unsat += 1
            else:
                assert oracles.satisfies(phi, F)
                assert oracles.brute_is_matching_satisfying(phi, F)
                seen_sat += 1
        assert seen_sat and seen_unsat


class TestMatchingAutarky:
    def test_two_sided_example(self):
        table, f1, f2 = mixed_example()
        F = f1 + f2
        assert is_matching_autarky(PartialAssignment({3: 0, 4: 0}), F)

    def test_empty_assignment(self):
        assert is_matching_autarky(EMPTY_ASSIGNMENT, matrix_example())

    def test_matrix_has_no_single_variable_autarky(self):
        F = matrix_example()
        for v in sorted(F.var_set()):
            for value in (0, 1):
                assert not is_matching_autarky(PartialAssignment({v: value}), F)

    def test_against_oracle(self):
        rng = random.Random(405)
        hits = 0
        for _ in range(80):
            F = oracles.random_instance(rng, max_n=5, max_c=8)
            phi = random_partial(rng, F)
            got = is_matching_autarky(phi, F)
            assert got == oracles.brute_is_matching_autarky(phi, F)
            hits += got
        assert hits


class TestSurplus:
    def test_matrix_at_least_one(self):
        assert surplus(matrix_example()).value >= 1

    def test_top(self):
        assert surplus(top(VariableTable({1: 2}))) == (0, None)

    def test_against_brute_min_with_witness(self):
        rng = random.Random(406)
        for _ in range(60):
            F = oracles.random_instance(rng, max_c=8)
            value, witness = surplus(F)
            if not F.var_set():
                assert value == 0 and witness is None
                continue
            assert value == oracles.brute_surplus(F)
            assert witness and restrict(F, witness).delta == value

    def test_upper_bound_by_deficiency(self):
        rng = random.Random(407)
        for _ in range(40):
            F = oracles.random_instance(rng, max_c=8)
            if F.var_set():
                assert surplus(F).value <= F.delta - F.multiplicity(BOT)

    def test_trivial_domain_corner(self):
        table = VariableTable({1: 1})
        F = MultiClauseSet(table, [BOT, Clause([(1, 0)])])
        assert surplus(F) == (1, frozenset([1]))

    def test_early_exit_consistent(self):
        """With at_most=k a value below k is exact, and a value of at least k
        only means the surplus is at least k: it may exceed the surplus."""
        rng = random.Random(408)
        above = 0
        for _ in range(200):
            F = oracles.random_instance(rng, max_c=8)
            brute = oracles.brute_surplus(F)
            for bound in (1, 2):
                value = surplus(F, at_most=bound).value
                assert value == brute if value < bound else brute >= bound
                assert surplus_at_least(F, bound) == (brute >= bound)
                above += value > brute
        assert above >= 8  # seen: 16 of 400

    @staticmethod
    def graph_state(G):
        return (G.mate[:], G.size, dict(G.cap), dict(G.lean),
                {v: sorted(held) for v, held in G.users.items()})

    def test_graph_surplus_leaves_the_graph_as_found(self, monkeypatch):
        found = IncidenceGraph._from_variables
        augmented = []

        def counted(self, sources):
            path, reached = found(self, sources)
            augmented.append(path is not None)
            return path, reached

        monkeypatch.setattr(IncidenceGraph, "_from_variables", counted)
        rng = random.Random(427)
        trivial = empty = augmenting = 0
        for _ in range(800):
            F = oracles.random_instance(rng, max_c=10)
            G = IncidenceGraph(F)
            before = self.graph_state(G)
            augmented.clear()
            for at_most in (None, 1, 2):
                G.surplus(at_most)
                assert self.graph_state(G) == before
            trivial += any(F.table.domain_size(v) == 1 for v in F.var_set())
            empty += BOT in F
            augmenting += any(augmented)
        # seen: 69 with a one-value domain, 272 with the empty clause and 262
        # where a trial augmented, of 800
        assert trivial >= 40 and empty >= 150 and augmenting >= 150

    def test_agrees_with_the_former_surplus(self):
        """The former search, kept in oracles, has the same values under the
        at_most contract and, without one-value domains, the same witnesses."""
        rng = random.Random(428)
        mixed = 0
        for _ in range(800):
            F = oracles.random_instance(rng, max_c=10)
            sizes = {F.table.domain_size(v) for v in F.var_set()}
            for at_most in (None, 1, 2):
                got = surplus(F, at_most)
                expected = oracles.reference_surplus(F, at_most)
                if at_most is None or min(got.value, expected.value) < at_most:
                    assert got.value == expected.value
                else:
                    assert expected.value >= at_most
                if 1 not in sizes:
                    assert got.witness == expected.witness
                elif got.witness is not None:
                    assert restrict(F, got.witness).delta == got.value
            mixed += 1 in sizes and len(sizes) > 1
        assert mixed >= 30  # seen: 63 of 800


class TestMatchingLean:
    def test_fixed_examples(self):
        assert is_matching_lean(matrix_example())
        assert is_matching_lean(top(VariableTable({})))
        assert is_matching_lean(multi_unit_lean())
        assert is_matching_lean(pair_lean_example())
        F = MultiClauseSet(VariableTable({1: 2}), [Clause([(1, 0)])])
        assert not is_matching_lean(F)

    def test_matches_kernel_fixpoint(self):
        rng = random.Random(409)
        for _ in range(40):
            F = oracles.random_instance(rng, max_n=4, max_c=6)
            assert is_matching_lean(F) == (oracles.brute_matching_lean_kernel(F) == F)

    def test_single_removal_drops_max_deficiency(self):
        # alternative characterisation: lean iff removing any one clause
        # occurrence strictly lowers the maximal deficiency
        rng = random.Random(410)
        for _ in range(40):
            F = oracles.random_instance(rng, max_c=6)
            if not F.c:
                continue
            drops = []
            for clause in F.clauses():
                sub = {c: m for c, m in F.items() if c != clause}
                if F.multiplicity(clause) > 1:
                    sub[clause] = F.multiplicity(clause) - 1
                drops.append(max_deficiency(F.with_clauses(sub)).value
                             < max_deficiency(F).value)
            assert is_matching_lean(F) == all(drops)


class TestMatchingLeanKernel:
    def test_nested_gadget_kernel(self):
        F, kernel = nested_gadget_example()
        assert matching_lean_kernel(F) == kernel
        assert max_deficiency(F).value == 1 and F.delta == 0

    def test_matching_satisfiable_gives_top(self):
        F = unit_chain_example()
        assert matching_lean_kernel(F) == top(F.table)

    def test_against_fixpoint_oracle(self):
        rng = random.Random(411)
        for _ in range(35):
            F = oracles.random_instance(rng, max_n=4, max_c=6)
            kernel = matching_lean_kernel(F)
            assert kernel == oracles.brute_matching_lean_kernel(F)
            assert kernel.delta == max_deficiency(F).value

    def test_nonempty_kernel_deficiency(self):
        # nonempty matching-lean sets have delta = delta* >= 1
        rng = random.Random(412)
        seen = 0
        for _ in range(40):
            F = oracles.random_instance(rng, max_c=8)
            kernel = matching_lean_kernel(F)
            if kernel.c:
                assert kernel.delta == max_deficiency(kernel).value >= 1
                seen += 1
        assert seen

    def test_tight_sets_form_lattice(self):
        rng = random.Random(413)
        for _ in range(12):
            F = oracles.random_instance(rng, max_n=3, max_c=4)
            target = max_deficiency(F).value
            tight = [G for G in oracles.sub_multi_clause_sets(F)
                     if G.delta == target]
            for A in tight:
                for B in tight:
                    union = F.with_clauses({
                        c: max(A.multiplicity(c), B.multiplicity(c))
                        for c in F.clauses()
                        if max(A.multiplicity(c), B.multiplicity(c))})
                    inter = F.with_clauses({
                        c: min(A.multiplicity(c), B.multiplicity(c))
                        for c in F.clauses()
                        if min(A.multiplicity(c), B.multiplicity(c))})
                    assert union.delta == target and inter.delta == target

    def test_autarky_application_keeps_max_deficiency(self):
        # for matching autarkies phi: delta(phi*F) >= delta(F) and
        # delta*(phi*F) = delta*(F)
        rng = random.Random(414)
        seen = 0
        for _ in range(150):
            F = oracles.random_instance(rng, max_n=4, max_c=6)
            phi = random_partial(rng, F)
            if not phi or not is_matching_autarky(phi, F):
                continue
            G = apply(phi, F)
            assert G.delta >= F.delta
            assert max_deficiency(G).value == max_deficiency(F).value
            seen += 1
        assert seen >= 10


class TestQuasiMaximalAutarky:
    def test_lean_input_gives_empty(self):
        assert quasi_maximal_matching_autarky(matrix_example()) == EMPTY_ASSIGNMENT

    def test_unit_chain_fully_satisfied(self):
        F = unit_chain_example()
        phi = quasi_maximal_matching_autarky(F)
        assert apply(phi, F) == top(F.table)
        assert oracles.brute_is_matching_satisfying(phi, F)

    def test_contract_random(self):
        rng = random.Random(415)
        for _ in range(35):
            F = oracles.random_instance(rng, max_n=4, max_c=6)
            kernel = matching_lean_kernel(F)
            phi = quasi_maximal_matching_autarky(F)
            assert oracles.brute_is_matching_autarky(phi, F)
            assert apply(phi, F) == kernel
            assert not set(phi) & kernel.var_set()
            assert set(phi) <= F.var_set()


class TestTovey:
    def test_single_wide_unit(self):
        F = MultiClauseSet(VariableTable({1: 3}), [Clause([(1, 0)])])
        assert tovey_check(F)

    def test_boolean_balanced(self):
        table = VariableTable({1: 2, 2: 2, 3: 2})
        F = MultiClauseSet(table, [
            Clause([(1, 0), (2, 0), (3, 0)]),
            Clause([(1, 1), (2, 1), (3, 1)]),
        ])
        assert tovey_check(F) and is_matching_satisfiable(F)

    def test_rejects_without_nonempty_clause(self):
        with pytest.raises(ValueError):
            tovey_check(top(VariableTable({1: 2})))
        with pytest.raises(ValueError):
            tovey_check(MultiClauseSet(VariableTable({}), [BOT]))

    def test_true_implies_matching_satisfiable(self):
        rng = random.Random(416)
        hits = 0
        for _ in range(120):
            F = oracles.random_instance(rng, allow_empty_clause=False)
            if not F.c or not any(len(c) for c in F.clauses()):
                continue
            if tovey_check(F):
                hits += 1
                assert is_matching_satisfiable(F)
        assert hits


def nu_of(F, phi):
    return IncidenceGraph(F, phi).size


def replay_changes(F, phi0, changes, phi_final):
    phi = phi0
    for change in changes:
        satisfied_before = {c for c in F.clauses() if phi.satisfies_clause(c)}
        if change.kind == "extend":
            assert change.var not in phi and change.old is None
        else:
            assert change.kind == "flip" and phi[change.var] == change.old
        phi = compose(phi, PartialAssignment({change.var: change.new}))
        satisfied_after = {c for c in F.clauses() if phi.satisfies_clause(c)}
        assert satisfied_before <= satisfied_after
    assert phi == phi_final


class TestRepair:
    def test_already_maximum_keeps_assignment(self):
        F = triangle_example()
        phi0 = matching_satisfying_assignment(F)
        phi, changes = repair_to_matching_maximum(F, phi0)
        assert phi == phi0 and changes == []

    def test_from_empty_assignment(self):
        F = matrix_example()
        phi, changes = repair_to_matching_maximum(F, EMPTY_ASSIGNMENT)
        target = IncidenceGraph(F).size
        assert nu_of(F, phi) == target
        replay_changes(F, EMPTY_ASSIGNMENT, changes, phi)

    def test_random_contract(self):
        rng = random.Random(417)
        for _ in range(120):
            F = oracles.random_instance(rng, max_n=5, max_c=8)
            phi0 = random_partial(rng, F)
            phi, changes = repair_to_matching_maximum(F, phi0)
            assert nu_of(F, phi) == IncidenceGraph(F).size
            replay_changes(F, phi0, changes, phi)

    def test_satisfying_start_stays_satisfying(self):
        rng = random.Random(418)
        seen = 0
        for _ in range(80):
            F = oracles.random_instance(rng, max_n=4, max_c=6)
            models = oracles.brute_models(F)
            if not models:
                continue
            phi, _ = repair_to_matching_maximum(F, models[0])
            assert oracles.satisfies(phi, F)
            assert nu_of(F, phi) == F.c - max_deficiency(F).value
            seen += 1
        assert seen >= 20

    def test_small_assignment_reaches_matching_satisfiable(self):
        # from a matching-maximum satisfying assignment one can peel off a
        # sub-assignment of at most delta* variables whose application leaves
        # a matching satisfiable clause-set
        rng = random.Random(419)
        seen = 0
        for _ in range(80):
            F = oracles.random_instance(rng, max_n=4, max_c=6)
            models = oracles.brute_models(F)
            if not models:
                continue
            phi, _ = repair_to_matching_maximum(F, models[0])
            graph = IncidenceGraph(F, phi)
            uncovered = [o for o, v in enumerate(graph.mate) if v is None]
            assert len(uncovered) == max_deficiency(F).value
            keep = set()
            for o in uncovered:
                clause = graph.clauses[graph.owner[o]]
                keep.add(min(lit.var for lit in clause
                             if phi.satisfies_literal(lit)))
            small = PartialAssignment({v: phi[v] for v in keep})
            assert len(small) <= max_deficiency(F).value
            assert is_matching_satisfiable(apply(small, F))
            seen += 1
        assert seen >= 20


class TestMatchingSatisfyingStructure:
    def test_restriction_of_matching_satisfying(self):
        # if the composition of phi after psi matching-satisfies F, then phi
        # matching-satisfies psi*F
        rng = random.Random(420)
        seen = 0
        for _ in range(80):
            F = oracles.random_instance(rng, max_n=4, max_c=6)
            chi = matching_satisfying_assignment(F)
            if chi is None or not chi:
                continue
            vs = sorted(chi)
            cut = rng.randint(0, len(vs))
            psi = PartialAssignment({v: chi[v] for v in vs[:cut]})
            phi = PartialAssignment({v: chi[v] for v in vs[cut:]})
            assert oracles.brute_is_matching_satisfying(phi, apply(psi, F))
            seen += 1
        assert seen >= 20

    def test_minimal_boolean_assignment_criterion(self):
        # over boolean variables a minimal satisfying assignment is
        # matching-satisfying iff it assigns exactly c(F) variables
        rng = random.Random(421)
        seen = 0
        for _ in range(25):
            F = oracles.random_instance(rng, max_n=4, max_dom=2, max_c=4,
                                        allow_empty_clause=False)
            if not F.c or F.multiplicity(BOT):
                continue
            sat = [phi for phi in
                   oracles.partial_assignments(F.table, F.var_set())
                   if oracles.satisfies(phi, F)]
            minimal = [phi for phi in sat
                       if not any(set(q.items()) < set(phi.items()) for q in sat)]
            for phi in minimal:
                assert oracles.brute_is_matching_satisfying(phi, F) == \
                    (len(phi) == F.c)
                seen += 1
        assert seen

    def test_full_width_minimal_assignments_are_matching_satisfying(self):
        # the forward direction survives larger domains: a satisfying phi
        # with no c(F)-or-fewer-variable sub-assignment is matching-satisfying
        rng = random.Random(432)
        seen = 0
        for _ in range(25):
            F = oracles.random_instance(rng, max_n=4, max_c=4,
                                        allow_empty_clause=False)
            if not F.c or F.multiplicity(BOT):
                continue
            sat = [phi for phi in
                   oracles.partial_assignments(F.table, F.var_set())
                   if oracles.satisfies(phi, F)]
            for phi in sat:
                if len(phi) == F.c and not any(
                        set(q.items()) < set(phi.items()) for q in sat):
                    assert oracles.brute_is_matching_satisfying(phi, F)
                    seen += 1
        assert seen

    def test_one_variable_can_cover_two_clauses(self):
        # witness that the backward direction needs boolean domains: both
        # occurrences of the unit are matched to copies of the one variable
        F = two_unit_copies()
        phi = PartialAssignment({1: 1})
        minimal = not oracles.satisfies(EMPTY_ASSIGNMENT, F)
        assert minimal and oracles.brute_is_matching_satisfying(phi, F)
        assert len(phi) == 1 < F.c

    def test_fixing_a_value_bounds_deficiency_drop(self):
        # delta*(<v->e>*F) <= delta(F) - min(slack, surplus) + |D_v| - 1
        rng = random.Random(422)
        for _ in range(40):
            F = oracles.random_instance(rng, max_n=4, max_c=6)
            if not F.var_set():
                continue
            surp = surplus(F).value
            for v in sorted(F.var_set()):
                dom = F.table.domain_size(v)
                for value in range(dom):
                    after = max_deficiency(
                        apply(PartialAssignment({v: value}), F)).value
                    slack = F.var_count(v) - F.count((v, value))
                    assert after <= F.delta - min(slack, surp) + dom - 1
                    assert after <= F.delta - min(F.min_slack(v), surp) + dom - 1


def _matching_answers(F):
    return (surplus(F).value, max_deficiency(F).value, is_matching_lean(F),
            matching_lean_kernel(F))


class TestEqualClauseSetsEqualAnswers:
    """Answers depend on the clauses, not on how the object was built."""

    def test_vdw_encoder_object_and_parsed_text_agree(self):
        built = vdw_instance(2, 3, 6)
        parsed = parse_gcls(emit_gcls(built))
        assert built == parsed
        assert surplus(built).value == surplus(parsed).value == 3
        assert oracles.brute_surplus(built) == oracles.brute_surplus(parsed) == 3

    def test_vdw_2_4_20_surplus(self):
        # vertex 1 lies in 6 progressions, each giving one clause per colour:
        # delta(F[{1}]) = 12 - 1
        assert surplus(vdw_instance(2, 4, 20)).value == 11

    def test_built_dedup_and_parsed_forms_agree(self):
        path = Hypergraph.build(4, [(1, 2), (2, 3), (3, 4), (1, 2, 3)])
        for F in (vdw_instance(2, 3, 7), hypergraph_coloring(path, 2),
                  strong_coloring(path, 3)):
            assert all(m == 1 for _, m in F.items())
            expected = _matching_answers(F)
            assert _matching_answers(F.dedup()) == expected
            assert _matching_answers((F + F).dedup()) == expected
            assert _matching_answers(parse_gcls(emit_gcls(F))) == expected

    def test_clause_sets_against_oracles(self):
        rng = random.Random(5)
        for _ in range(300):
            F = oracles.random_instance(rng, multi=False)
            kernel = oracles.brute_matching_lean_kernel(F)
            assert surplus(F).value == oracles.brute_surplus(F)
            assert max_deficiency(F).value == oracles.brute_max_deficiency(F)
            assert is_matching_lean(F) == (kernel == F)
            assert matching_lean_kernel(F) == kernel


def chain_example(n):
    """{1:1} and {i:0, i+1:0} for i < n over boolean variables: every
    augmenting path of the matching runs down the whole chain."""
    table = VariableTable({v: 2 for v in range(1, n + 1)})
    return MultiClauseSet(table, [Clause([(1, 1)])] + [
        Clause([(i, 0), (i + 1, 0)]) for i in range(1, n)])


class TestNoRecursionOnDepth:
    def test_long_chain_through_library_and_cli(self, tmp_path, capsys):
        F = chain_example(300)
        path = tmp_path / "chain.gcls"
        path.write_text(emit_gcls(F), encoding="utf-8")
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            assert max_deficiency(F).value == 0
            assert surplus(F) == (0, F.var_set())
            assert matching_lean_kernel(F) == top(F.table)
            phi, _ = repair_to_matching_maximum(F, EMPTY_ASSIGNMENT)
            assert nu_of(F, phi) == F.c
            assert main(["lean-kernel", str(path)]) == 0
        finally:
            sys.setrecursionlimit(limit)
        out, _ = capsys.readouterr()
        assert out == emit_gcls(top(F.table))
