import itertools
import random
import sys
import time

import pytest

from gcls.core import (
    BOT,
    Clause,
    EMPTY_ASSIGNMENT,
    MultiClauseSet,
    PartialAssignment,
    VariableTable,
    _Trusted,
    apply,
    assign,
    top,
)
from gcls.encode import vdw_instance
from gcls.matching import (
    IncidenceGraph,
    matching_lean_kernel,
    matching_satisfying_assignment,
    max_deficiency,
    quasi_maximal_matching_autarky,
)
from gcls.musat import tree_to_clause_set
from gcls.reductions import (
    AutarkyStep,
    ForcedValueStep,
    lift_through_steps,
    pure_variable_elimination,
    s_reduction_with_log,
)
from gcls.satdec import (
    BruteForceCapExceeded,
    FptResult,
    _Walk,
    assignment_space,
    brute_force_sat,
    decide,
    find_autarky,
    find_nontrivial_autarky_bounded,
    implies,
    is_autarky,
    is_irredundant,
    is_minimally_unsatisfiable,
    lean_kernel,
    lean_kernel_bounded,
    sat_bounded_deficiency,
    sat_fpt,
)
from gcls.translate import direct_weak, lift_assignment

import oracles
from test_core import mixed_example
from test_musat import horn_chain, random_tree
from test_reductions import full_combinations, parity_samples


def bottom_only():
    return MultiClauseSet(VariableTable({}), [BOT])


class TestBruteForce:
    def test_no_clauses_yields_the_empty_assignment(self):
        assert brute_force_sat(top(VariableTable({1: 3}))) == EMPTY_ASSIGNMENT

    def test_empty_clause_is_unsatisfiable(self):
        assert brute_force_sat(bottom_only()) is None

    def test_mixed_example_pair_is_unsatisfiable(self):
        _, f1, f2 = mixed_example()
        assert brute_force_sat(f1 + f2) is None

    def test_returns_the_lexicographically_first_model(self):
        rng = random.Random(601)
        seen = 0
        for _ in range(60):
            F = oracles.random_instance(rng, max_n=5, max_c=8)
            models = oracles.brute_models(F)
            got = brute_force_sat(F)
            if models:
                seen += 1
                assert got == models[0]
            else:
                assert got is None
        assert seen

    def test_refuses_oversized_spaces(self, monkeypatch):
        table = VariableTable({v: 2 for v in range(1, 6)})
        F = MultiClauseSet(table, [Clause([(v, 0)]) for v in range(1, 6)])
        assert assignment_space(F) == 32
        monkeypatch.setattr("gcls.satdec.DEFAULT_BRUTE_CAP", 31)
        with pytest.raises(BruteForceCapExceeded):
            brute_force_sat(F)
        monkeypatch.setattr("gcls.satdec.DEFAULT_BRUTE_CAP", 32)
        assert brute_force_sat(F) is not None


class TestBoundedDeficiencyDecision:
    def test_matching_satisfiable_side(self):
        _, _, f2 = mixed_example()
        result = sat_bounded_deficiency(f2)
        assert result.satisfiable
        assert oracles.satisfies(result.witness, f2)

    def test_minimally_unsatisfiable_side(self):
        _, f1, _ = mixed_example()
        assert sat_bounded_deficiency(f1) == (False, None)

    def test_random_agreement_with_brute_force(self):
        rng = random.Random(602)
        for _ in range(80):
            F = oracles.random_instance(rng, max_n=5, max_c=8)
            result = sat_bounded_deficiency(F)
            assert result.satisfiable == oracles.brute_satisfiable(F)
            if result.satisfiable:
                assert oracles.satisfies(result.witness, F)


class TestAutarkySearch:
    def test_mixed_example_pair_has_an_autarky_outside_the_kernel(self):
        _, f1, f2 = mixed_example()
        phi = find_nontrivial_autarky_bounded(f1 + f2)
        assert phi is not None
        assert set(phi) <= {3, 4}
        assert oracles.brute_is_autarky(phi, f1 + f2)

    def test_minimally_unsatisfiable_instances_are_lean(self):
        _, f1, _ = mixed_example()
        assert find_nontrivial_autarky_bounded(f1) is None

    def test_no_clauses_means_lean(self):
        assert find_nontrivial_autarky_bounded(top(VariableTable({1: 2}))) is None

    def test_single_clause_is_satisfied_by_its_own_autarky(self):
        table = VariableTable({1: 2, 2: 2, 3: 3})
        F = MultiClauseSet(table, [Clause([(1, 1), (2, 1), (3, 1)])])
        phi = find_nontrivial_autarky_bounded(F)
        assert phi is not None and oracles.brute_is_autarky(phi, F)

    def test_random_none_means_lean(self):
        rng = random.Random(603)
        for _ in range(60):
            F = oracles.random_instance(rng, max_n=4, max_c=7)
            phi = find_nontrivial_autarky_bounded(F)
            if phi is None:
                assert oracles.brute_lean_kernel(F) == F
            else:
                assert phi and oracles.brute_is_autarky(phi, F)

    def test_is_autarky_matches_oracle(self):
        rng = random.Random(604)
        hits = 0
        for _ in range(80):
            F = oracles.random_instance(rng, max_n=5, max_c=8)
            vs = sorted(F.var_set())
            chosen = rng.sample(vs, rng.randint(0, len(vs))) if vs else []
            phi = PartialAssignment(
                {v: rng.randrange(F.table.domain_size(v)) for v in chosen})
            got = is_autarky(phi, F)
            assert got == oracles.brute_is_autarky(phi, F)
            hits += got
        assert hits


class TestLeanKernel:
    def test_mixed_example_pair_reduces_to_its_core(self):
        _, f1, f2 = mixed_example()
        assert lean_kernel_bounded(f1 + f2) == f1

    def test_satisfiable_instances_vanish(self):
        _, _, f2 = mixed_example()
        assert lean_kernel_bounded(f2).c == 0

    def test_random_agreement_with_oracle(self):
        rng = random.Random(605)
        for _ in range(50):
            F = oracles.random_instance(rng, max_n=4, max_c=7)
            assert lean_kernel_bounded(F) == oracles.brute_lean_kernel(F)


def without_one_clause(rng, F):
    items = dict(F.items())
    del items[rng.choice(list(items))]
    return F.with_clauses(items)


def walk_samples():
    """Seeded random instances (multi and dedup), Horn chains and tree images
    with and without one clause, and vdW(2,3,n) for n <= 9."""
    rng = random.Random(612)
    for _ in range(1000):
        F = oracles.random_instance(rng, max_n=5, max_c=9,
                                    multi=rng.random() < 0.5)
        yield F
        if F.dedup() is not F:
            yield F.dedup()
    for n in range(1, 13):
        yield horn_chain(n)
        yield without_one_clause(rng, horn_chain(n))
    for _ in range(40):
        image = tree_to_clause_set(random_tree(rng, 8))
        yield image
        yield without_one_clause(rng, image)
    for n in range(3, 10):
        yield vdw_instance(2, 3, n)


class TestWalkAgainstReferences:
    """The walk visits the former enumerations' candidates in their order,
    so every answer equals that of the uncut reference loops."""

    def test_same_answers_as_the_uncut_references(self, monkeypatch):
        cuts = []
        bind = _Walk.bind

        def counted_bind(self, v, e):
            ok = bind(self, v, e)
            cuts.append(not ok)
            return ok

        monkeypatch.setattr(_Walk, "bind", counted_bind)
        samples = with_bot = with_unit_domain = with_cut = 0
        for F in walk_samples():
            cuts.clear()
            assert brute_force_sat(F) == oracles.reference_brute_force_sat(F), F
            assert (sat_bounded_deficiency(F)
                    == oracles.reference_sat_bounded_deficiency(F)), F
            assert (find_nontrivial_autarky_bounded(F)
                    == oracles.reference_find_nontrivial_autarky_bounded(F)), F
            samples += 1
            with_bot += BOT in F
            with_unit_domain += any(F.table.domain_size(v) == 1
                                    for v in F.var_set())
            with_cut += any(cuts)
        assert samples >= 1000
        assert with_bot >= 300 and with_unit_domain >= 100 and with_cut >= 450

    def test_hopeless_candidates_build_no_restriction(self, monkeypatch):
        # on vdW(2,3,n), n <= 9, c(phi * F) <= rd(phi * F) rules out every
        # candidate before the first hit, so at most one restriction is built
        calls = []
        monkeypatch.setattr("gcls.satdec.apply",
                            lambda phi, F: calls.append(phi) or apply(phi, F))
        for n in range(6, 10):
            calls.clear()
            result = sat_bounded_deficiency(vdw_instance(2, 3, n))
            assert result.satisfiable == (n < 9)
            assert len(calls) == result.satisfiable

    def test_empty_clause_beside_an_autark_part(self):
        _, f1, f2 = mixed_example()
        F = f1 + f2 + bottom_only()
        phi = find_nontrivial_autarky_bounded(F)
        assert phi == oracles.reference_find_nontrivial_autarky_bounded(F)
        assert phi is not None and set(phi) <= {3, 4}
        assert oracles.brute_is_autarky(phi, F)
        assert lean_kernel_bounded(F) == f1 + bottom_only()
        table = VariableTable({1: 2})
        G = MultiClauseSet(table, [BOT, Clause([(1, 0)])])
        assert find_nontrivial_autarky_bounded(G) == assign((1, 1))

    def test_lean_kernel_with_the_empty_clause(self):
        rng = random.Random(613)
        seen = 0
        while seen < 60:
            F = oracles.random_instance(rng, max_n=4, max_c=7)
            if BOT in F:
                seen += 1
                assert lean_kernel_bounded(F) == oracles.brute_lean_kernel(F)


class TestTouchedClauseSearch:
    def test_agrees_with_the_bounded_search_and_the_oracles(self):
        rng = random.Random(5)
        branching = 0
        for _ in range(3000):
            F = oracles.random_instance(rng, max_n=5, max_c=9,
                                        multi=rng.random() < 0.5)
            phi = find_autarky(F)
            reference = find_nontrivial_autarky_bounded(F)
            assert (phi is None) == (reference is None), F
            # equal inputs get equal answers, whatever their clause order
            reordered = F.with_clauses(_Trusted(reversed(F.items())))
            assert find_autarky(reordered) == phi, F
            if phi is not None:
                assert phi and oracles.brute_is_autarky(phi, F), F
            matching = quasi_maximal_matching_autarky(F)
            if matching:
                assert phi == matching == reference, F
            kernel = lean_kernel(F)
            assert kernel == oracles.brute_lean_kernel(F), F
            assert kernel == lean_kernel_bounded(F), F
            # only matching lean instances that are not lean branch
            branching += not matching and kernel != F
        assert branching >= 450  # seen: 533

    def test_equivalence_chain_needs_no_recursion(self):
        # x_i <-> x_{i+1}: matching lean, and every autarky binds all n
        # variables along one forced path
        n = 1500
        assert n > sys.getrecursionlimit()
        table = VariableTable({v: 2 for v in range(1, n + 1)})
        F = MultiClauseSet(table, [Clause([(i, a), (i + 1, 1 - a)])
                                   for i in range(1, n) for a in (0, 1)])
        assert not quasi_maximal_matching_autarky(F)
        start = time.perf_counter()
        phi = find_autarky(F)
        elapsed = time.perf_counter() - start
        assert phi is not None and len(phi) == n and is_autarky(phi, F)
        assert elapsed < 2.0  # seen: 0.03 s


class TestDecide:
    def test_unknown_method_is_rejected(self):
        with pytest.raises(ValueError):
            decide(full_combinations(), method="nope")

    def test_brute_and_bounded_agree(self):
        rng = random.Random(606)
        for _ in range(60):
            F = oracles.random_instance(rng, max_n=5, max_c=8)
            expected = oracles.brute_satisfiable(F)
            for method in ("brute", "bounded", "auto"):
                result = decide(F, method=method)
                assert result.satisfiable == expected
                if expected:
                    assert oracles.satisfies(result.witness, F)


class TestImplication:
    def test_own_clauses_are_implied(self):
        _, _, f2 = mixed_example()
        for c in f2.clauses():
            assert implies(f2, c)

    def test_unsatisfiable_instances_imply_everything(self):
        _, f1, _ = mixed_example()
        assert implies(f1, BOT)
        assert implies(f1, Clause([(3, 0)]))

    def test_strict_subclause_is_not_implied(self):
        _, _, f2 = mixed_example()
        assert not implies(f2, Clause([(1, 0)]))

    def test_random_agreement(self):
        rng = random.Random(607)
        for _ in range(60):
            F = oracles.random_instance(rng, max_n=4, max_c=7)
            vs = sorted(F.var_set())
            if not vs:
                continue
            chosen = rng.sample(vs, rng.randint(1, min(2, len(vs))))
            clause = Clause((v, rng.randrange(F.table.domain_size(v)))
                            for v in chosen)
            assert (implies(F, clause)
                    == oracles.brute_implies(F, clause))


class TestIrredundancyAndMinimalUnsatisfiability:
    def test_mixed_example_classification(self):
        _, f1, f2 = mixed_example()
        assert is_irredundant(f1)
        assert is_minimally_unsatisfiable(f1)
        assert not is_minimally_unsatisfiable(f2)
        assert not is_irredundant(f1 + f2)

    def test_bottom_is_minimally_unsatisfiable(self):
        assert is_minimally_unsatisfiable(bottom_only())

    def test_full_combinations_are_minimally_unsatisfiable(self):
        assert is_minimally_unsatisfiable(full_combinations())

    def test_random_agreement(self):
        rng = random.Random(608)
        for _ in range(40):
            F = oracles.random_instance(rng, max_n=4, max_c=6)
            assert (is_irredundant(F)
                    == oracles.brute_is_irredundant(F))
            assert (is_minimally_unsatisfiable(F)
                    == oracles.brute_is_minimally_unsatisfiable(F))


def reduced_root_budget(F):
    """2**d for d the maximal deficiency of the matching-lean pure-free core
    of the boolean translation: the leaf budget the branching search gets."""
    G = direct_weak(F).boolean_cnf
    while True:
        H = matching_lean_kernel(pure_variable_elimination(G))
        if H == G:
            return 2 ** max_deficiency(G).value
        G = H


def assert_agrees_within_budget(F, result, reference):
    """Equal verdicts, every witness a model, and no more leaves than the
    reference or the leaf budget of the reduced root."""
    assert result.satisfiable == reference.satisfiable, dict(F.items())
    for witness in (result.witness, reference.witness):
        assert (witness is None) == (not result.satisfiable)
        assert witness is None or oracles.satisfies(witness, F)
    assert result.node_count <= reference.node_count, dict(F.items())
    assert result.node_count <= reduced_root_budget(F), dict(F.items())


def record_nodes(monkeypatch):
    """A list that gets (node instance, reduced instance, reduction steps)
    for every node sat_fpt reduces from now on."""
    nodes = []

    def recorded(G, **flags):
        reduced, steps = s_reduction_with_log(G, **flags)
        nodes.append((G, reduced, steps))
        return reduced, steps

    monkeypatch.setattr("gcls.satdec.s_reduction_with_log", recorded)
    return nodes


def unit_steps(steps):
    """The unit rule's steps at the head of a node's log."""
    return list(itertools.takewhile(
        lambda step: isinstance(step, ForcedValueStep), steps))


def reference_pure_fixpoint(F):
    """The former reductions._pure_fixpoint: pure-variable elimination with
    its autarky steps."""
    steps = []
    while True:
        hit = oracles.reference_first_pure(F)
        if hit is None:
            return F, steps
        phi = assign(hit)
        steps.append(AutarkyStep(phi))
        F = apply(phi, F)


def reference_sat_fpt(F):
    """sat_fpt with the prelude it had before the root s-reduction took
    over: pure-variable and matching-autarky reduction to a fixpoint."""
    translation = direct_weak(F)
    G = translation.boolean_cnf
    steps = []
    while True:
        G, pure_steps = reference_pure_fixpoint(G)
        steps.extend(pure_steps)
        phi = quasi_maximal_matching_autarky(G)
        if not phi:  # empty iff G is matching lean
            break
        steps.append(AutarkyStep(phi))
        G = apply(phi, G)
    sat, model, leaves = oracles.reference_branch_and_reduce(G)
    if not sat:
        return FptResult(False, None, leaves)
    model = lift_through_steps(steps, model)
    return FptResult(True, lift_assignment(translation, model), leaves)


class TestFptDecision:
    def fpt_samples(self):
        rng = random.Random(611)
        for _ in range(300):
            yield oracles.random_instance(rng, max_n=4, max_dom=3, max_c=7)
        for n in (1, 2, 3, 5, 8, 13, 21, 40):
            yield horn_chain(n)
            yield without_one_clause(rng, horn_chain(n))
        for _ in range(40):
            image = tree_to_clause_set(random_tree(rng, 15))
            yield image
            yield without_one_clause(rng, image)

    def node_samples(self):
        """fpt_samples, the parity family, and instances on which the search
        branches: denser random ones with small domains, vdW(2,3,n) and, as
        unit propagation decides nearly all the others at the root, random
        3-SAT near its threshold."""
        yield from self.fpt_samples()
        rng = random.Random(614)
        yield from parity_samples(rng, 100)
        for _ in range(200):
            yield oracles.random_instance(rng, max_n=7, max_dom=2, max_c=24,
                                          allow_empty_clause=False)
        for n in range(3, 9):
            yield vdw_instance(2, 3, n)
        for _ in range(60):
            yield oracles.random_3sat(rng, 8)

    def test_same_search_as_the_former_node(self, monkeypatch):
        """The search before the unit rule, kept in oracles, is the former
        node's search; the current one has its verdicts and never more
        leaves."""
        nodes = record_nodes(monkeypatch)
        unsat = branched = fired = fewer = 0
        for F in self.node_samples():
            reference = oracles.reference_sat_fpt_without_units(F)
            nodes.clear()
            result = sat_fpt(F)
            assert_agrees_within_budget(F, result, reference)
            unsat += not result.satisfiable
            branched += result.node_count > 1
            fired += any(unit_steps(steps) for _, _, steps in nodes)
            fewer += result.node_count < reference.node_count
        # seen: 384 unsatisfiable, 54 branched, 566 with a unit step and 113
        # with fewer leaves, of 1 039
        assert unsat >= 100 and branched >= 30
        assert fired >= 400 and fewer >= 60

    def test_s_reduced_nodes_are_matching_satisfiable_only_when_empty(
            self, monkeypatch):
        nodes = record_nodes(monkeypatch)
        for F in self.node_samples():
            sat_fpt(F)
        for _, G, _ in nodes:
            assert (matching_satisfying_assignment(G) is not None) == (not G), G
        empty = sum(not G for _, G, _ in nodes)
        assert empty >= 300 and len(nodes) - empty >= 300  # seen: 655 of 1 690

    def test_agrees_with_the_prelude_reference(self, monkeypatch):
        nodes = record_nodes(monkeypatch)
        unsat = fired = fewer = 0
        for F in self.fpt_samples():
            expected = reference_sat_fpt(F)
            nodes.clear()
            result = sat_fpt(F)
            assert_agrees_within_budget(F, result, expected)
            unsat += not result.satisfiable
            fired += any(unit_steps(steps) for _, _, steps in nodes)
            fewer += result.node_count < expected.node_count
        # seen: 185 unsatisfiable, 231 with a unit step and 1 with fewer
        # leaves, of 396
        assert unsat >= 100 and fired >= 150 and fewer >= 1

    def test_unit_rule_never_raises_the_maximal_deficiency(self, monkeypatch):
        """Each unit step at the head of a node's log assigns one variable;
        the maximal deficiency after it is at most the one before."""
        nodes = record_nodes(monkeypatch)
        for F in self.node_samples():
            sat_fpt(F)
        fired = 0
        for G, _, steps in nodes:
            forced = unit_steps(steps)
            fired += bool(forced)
            before = max_deficiency(G).value
            for step in forced:
                G = apply(assign(step), G)
                after = max_deficiency(G).value
                assert after <= before, (G, step)
                before = after
        assert fired >= 500  # seen: 863 of 1 690 nodes

    def test_only_sat_fpt_turns_the_unit_rule_on(self, monkeypatch):
        """A Horn chain has root units, and their propagation alone refutes
        it; only sat_fpt's root node propagates them."""
        G = direct_weak(horn_chain(8)).boolean_cnf
        _, steps = s_reduction_with_log(G)
        assert not any(isinstance(step, ForcedValueStep) for step in steps)
        reduced, steps = s_reduction_with_log(G, units=True)
        assert BOT in reduced and steps
        assert all(isinstance(step, ForcedValueStep) for step in steps)
        nodes = record_nodes(monkeypatch)
        assert sat_fpt(horn_chain(8)) == FptResult(False, None, 1)
        assert nodes == [(G, reduced, steps)]

    def test_nodes_share_one_incidence_graph(self, monkeypatch):
        """A node's surplus-one test reads the graph of its last
        matching-autarky test, so a node builds about one graph."""
        builds = []
        build = IncidenceGraph.__init__

        def counted(self, *args, **kwargs):
            builds.append(1)
            build(self, *args, **kwargs)

        monkeypatch.setattr(IncidenceGraph, "__init__", counted)
        result = sat_fpt(oracles.random_3sat(random.Random(24), 24))
        # seen: 146 graphs for 137 leaves; 272 with a second graph per test
        assert not result.satisfiable and result.node_count == 137
        assert len(builds) < 1.5 * result.node_count

    def test_deep_horn_chains_need_no_recursion(self):
        n = 1500
        assert n > sys.getrecursionlimit()
        chain = horn_chain(n)
        satisfiable = chain.with_clauses(
            {c: m for c, m in chain.items() if c != Clause([(n, 1)])})
        start = time.perf_counter()
        assert sat_fpt(chain) == FptResult(False, None, 1)
        result = sat_fpt(satisfiable)
        elapsed = time.perf_counter() - start
        assert result.satisfiable
        assert oracles.satisfies(result.witness, satisfiable)
        assert elapsed < 2.0  # seen: 0.1 s for both

    def test_unsatisfiable_units_collapse_at_the_root(self):
        _, f1, _ = mixed_example()
        result = sat_fpt(f1)
        assert not result.satisfiable
        assert result.witness is None
        assert result.node_count == 1

    def test_matching_satisfiable_instances_need_one_leaf(self):
        _, _, f2 = mixed_example()
        result = sat_fpt(f2)
        assert result.satisfiable
        assert result.node_count == 1
        assert all(result.witness.satisfies_clause(c) for c in f2.clauses())

    def test_witness_lives_on_the_original_variables(self):
        table = VariableTable({4: 3, 9: 2})
        F = MultiClauseSet(table, [Clause([(4, 0), (9, 1)]), Clause([(4, 1)])])
        result = sat_fpt(F)
        assert result.satisfiable
        assert set(result.witness) <= {4, 9}
        assert all(result.witness.satisfies_clause(c) for c in F.clauses())

    def test_agrees_with_brute_force_within_the_leaf_budget(self):
        rng = random.Random(609)
        # the small multi-valued instances and the denser boolean ones are
        # decided at the root; random 3-SAT near its threshold makes the
        # search branch
        samples = [oracles.random_instance(rng, max_n=4, max_dom=3, max_c=7)
                   for _ in range(120)]
        samples += [oracles.random_instance(rng, max_n=7, max_dom=2, max_c=24,
                                            allow_empty_clause=False)
                    for _ in range(200)]
        samples += [oracles.random_3sat(rng, 8) for _ in range(60)]
        unsat = branched = 0
        for F in samples:
            result = sat_fpt(F)
            assert result.satisfiable == oracles.brute_satisfiable(F)
            assert result.node_count <= reduced_root_budget(F)
            if result.satisfiable:
                assert all(result.witness.satisfies_clause(c)
                           for c in F.clauses())
            else:
                unsat += 1
            branched += result.node_count > 1
        assert unsat >= 25 and branched >= 30  # seen: 188 and 46 of 380

    def test_all_three_methods_agree(self):
        rng = random.Random(610)
        for _ in range(60):
            F = oracles.random_instance(rng, max_n=4, max_dom=3, max_c=6)
            answers = {m: decide(F, method=m).satisfiable
                       for m in ("brute", "bounded", "fpt")}
            assert len(set(answers.values())) == 1

    def test_auto_routes_large_spaces_away_from_brute_force(self):
        table = VariableTable({v: 2 for v in range(1, 26)})
        F = MultiClauseSet(table, [Clause([(v, 0)]) for v in table.sizes()])
        result = decide(F, method="auto")
        assert result.satisfiable
        assert all(result.witness.satisfies_clause(c) for c in F.clauses())
