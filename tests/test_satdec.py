import random

import pytest

from gcls.core import (
    BOT,
    Clause,
    EMPTY_ASSIGNMENT,
    MultiClauseSet,
    PartialAssignment,
    VariableTable,
    apply,
    assign,
    top,
)
from gcls.encode import vdw_instance
from gcls.matching import (
    matching_lean_kernel,
    matching_satisfying_assignment,
    max_deficiency,
    quasi_maximal_matching_autarky,
)
from gcls.musat import tree_to_clause_set
from gcls.reductions import (
    AutarkyStep,
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
    find_nontrivial_autarky_bounded,
    implies,
    is_autarky,
    is_irredundant,
    is_minimally_unsatisfiable,
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

    def test_refuses_oversized_spaces(self):
        table = VariableTable({v: 2 for v in range(1, 6)})
        F = MultiClauseSet(table, [Clause([(v, 0)]) for v in range(1, 6)])
        assert assignment_space(F) == 32
        with pytest.raises(BruteForceCapExceeded):
            brute_force_sat(F, cap=31)
        assert brute_force_sat(F, cap=32) is not None

    def test_cap_env_override(self, monkeypatch):
        table = VariableTable({v: 2 for v in range(1, 6)})
        F = MultiClauseSet(table, [Clause([(v, 0)]) for v in range(1, 6)])
        monkeypatch.setenv("GCLS_BRUTE_CAP", "16")
        with pytest.raises(BruteForceCapExceeded):
            brute_force_sat(F)


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
            assert implies(f2, c, method="brute")

    def test_unsatisfiable_instances_imply_everything(self):
        _, f1, _ = mixed_example()
        assert implies(f1, BOT, method="brute")
        assert implies(f1, Clause([(3, 0)]), method="brute")

    def test_strict_subclause_is_not_implied(self):
        _, _, f2 = mixed_example()
        assert not implies(f2, Clause([(1, 0)]), method="brute")

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
            assert (implies(F, clause, method="brute")
                    == oracles.brute_implies(F, clause))


class TestIrredundancyAndMinimalUnsatisfiability:
    def test_mixed_example_classification(self):
        _, f1, f2 = mixed_example()
        assert is_irredundant(f1, method="brute")
        assert is_minimally_unsatisfiable(f1, method="brute")
        assert not is_minimally_unsatisfiable(f2, method="brute")
        assert not is_irredundant(f1 + f2, method="brute")

    def test_bottom_is_minimally_unsatisfiable(self):
        assert is_minimally_unsatisfiable(bottom_only(), method="brute")

    def test_full_combinations_are_minimally_unsatisfiable(self):
        assert is_minimally_unsatisfiable(full_combinations(), method="brute")

    def test_random_agreement(self):
        rng = random.Random(608)
        for _ in range(40):
            F = oracles.random_instance(rng, max_n=4, max_c=6)
            assert (is_irredundant(F, method="brute")
                    == oracles.brute_is_irredundant(F))
            assert (is_minimally_unsatisfiable(F, method="brute")
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


def reference_node_sat_fpt(F):
    """sat_fpt with the former search node, which re-tested matching
    satisfiability and read the slack off ``measures``."""
    translation = direct_weak(F)
    sat, model, leaves = oracles.reference_branch_and_reduce(
        translation.boolean_cnf)
    if not sat:
        return FptResult(False, None, leaves)
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
        branches: denser random ones with small domains and vdW(2,3,n)."""
        yield from self.fpt_samples()
        rng = random.Random(614)
        yield from parity_samples(rng, 100)
        for _ in range(200):
            yield oracles.random_instance(rng, max_n=7, max_dom=2, max_c=24,
                                          allow_empty_clause=False)
        for n in range(3, 9):
            yield vdw_instance(2, 3, n)

    def test_same_search_as_the_former_node(self):
        unsat = branched = 0
        for F in self.node_samples():
            result = sat_fpt(F)
            assert result == reference_node_sat_fpt(F), dict(F.items())
            unsat += not result.satisfiable
            branched += result.node_count > 1
        assert unsat >= 100 and branched >= 30  # seen: 371 and 54 of 979

    def test_s_reduced_nodes_are_matching_satisfiable_only_when_empty(
            self, monkeypatch):
        nodes = []

        def recorded(G):
            reduced = s_reduction_with_log(G)
            nodes.append(reduced[0])
            return reduced

        monkeypatch.setattr("gcls.satdec.s_reduction_with_log", recorded)
        for F in self.node_samples():
            sat_fpt(F)
        for G in nodes:
            assert (matching_satisfying_assignment(G) is not None) == (not G), G
        empty = sum(not G for G in nodes)
        assert empty >= 300 and len(nodes) - empty >= 300  # seen: 608 of 1 260

    def test_agrees_with_the_prelude_reference(self):
        unsat = 0
        for F in self.fpt_samples():
            result, expected = sat_fpt(F), reference_sat_fpt(F)
            assert result.satisfiable == expected.satisfiable, dict(F.items())
            assert result.node_count == expected.node_count, dict(F.items())
            for witness in (result.witness, expected.witness):
                assert (witness is None) == (not result.satisfiable)
                assert witness is None or oracles.satisfies(witness, F)
            unsat += not result.satisfiable
        assert unsat >= 100

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
        # the small multi-valued instances are decided at the root; the
        # denser boolean ones make the search branch
        samples = [oracles.random_instance(rng, max_n=4, max_dom=3, max_c=7)
                   for _ in range(120)]
        samples += [oracles.random_instance(rng, max_n=7, max_dom=2, max_c=24,
                                            allow_empty_clause=False)
                    for _ in range(200)]
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
        assert unsat >= 25 and branched >= 30  # seen: 182 and 43 of 320

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
