import itertools
import random
from collections import Counter

import pytest

from gcls.core import (
    BOT,
    Clause,
    Literal,
    MultiClauseSet,
    PartialAssignment,
    VariableTable,
    apply,
    assign,
    restrict,
    top,
)
from gcls.matching import (
    is_matching_lean,
    max_deficiency,
    quasi_maximal_matching_autarky,
    surplus,
)
from gcls.musat import LEAF, DeficiencyOneTree, tree_to_clause_set
from gcls.satdec import sat_bounded_deficiency, sat_fpt
from gcls.translate import direct_weak
from gcls.reductions import (
    AutarkyStep,
    DomainShrinkStep,
    ForcedValueStep,
    VariableEliminationStep,
    _ReductionState,
    _elimination_bound,
    dp_resolve,
    is_blocked,
    is_singular,
    lift_through_steps,
    pure_variable_elimination,
    r_reduction,
    r_reduction_with_log,
    resolvents,
    s_reduction,
    s_reduction_with_log,
    singular_dp,
    subsumption_elimination,
    unit_clause_propagation,
)

import oracles
from test_core import mixed_example
from test_musat import horn_chain, random_tree


def ternary_units():
    """All three unit clauses over a single ternary variable."""
    table = VariableTable({1: 3})
    return MultiClauseSet(table, [Clause([(1, 0)]), Clause([(1, 1)]),
                                  Clause([(1, 2)])])


def chain_example():
    """A unit over a ternary variable feeding a binary clause."""
    table = VariableTable({1: 3, 2: 2})
    return MultiClauseSet(table, [Clause([(1, 0)]),
                                  Clause([(1, 1), (2, 0)])])


def full_combinations():
    """Every boolean clause over two variables: unsatisfiable, deficiency 2."""
    table = VariableTable({1: 2, 2: 2})
    return MultiClauseSet(table, [
        Clause([(1, 0), (2, 0)]),
        Clause([(1, 0), (2, 1)]),
        Clause([(1, 1), (2, 0)]),
        Clause([(1, 1), (2, 1)]),
    ])


def doubled_pair():
    """Two clashing boolean clauses, each twice: a multi-clause-set fixpoint."""
    table = VariableTable({1: 2, 2: 2})
    return MultiClauseSet(table, {Clause([(1, 0), (2, 0)]): 2,
                                  Clause([(1, 1), (2, 1)]): 2})


def assert_sat_equivalent(F, G):
    assert oracles.brute_satisfiable(F) == oracles.brute_satisfiable(G)


def assert_lift_recovers_model(F, G, steps):
    """Any model of G must lift through the steps to a model of F."""
    model = oracles.brute_models(G)[0]
    assert oracles.satisfies(lift_through_steps(steps, model), F)


class TestUnitClausePropagation:
    def test_ternary_units_collapse(self):
        G, steps = unit_clause_propagation(ternary_units())
        assert G.clauses() == (BOT,)
        assert len(steps) == 3

    def test_existing_bottom_short_circuits(self):
        table = VariableTable({1: 2})
        F = MultiClauseSet(table, [BOT, Clause([(1, 0)])])
        G, steps = unit_clause_propagation(F)
        assert G.clauses() == (BOT,) and steps == ()

    def test_chain_renames_the_shrunk_variable(self):
        F = chain_example()
        G, steps = unit_clause_propagation(F)
        assert G.var_set() == {2, 3}
        assert G.clauses() == (Clause([(2, 0), (3, 0)]),)
        assert G.table.domain_size(3) == 2
        assert steps == (DomainShrinkStep(old_var=1, new_var=3, excluded_value=0),)
        lifted = lift_through_steps(steps, PartialAssignment({2: 0, 3: 1}))
        assert lifted == PartialAssignment({1: 2, 2: 0})
        assert oracles.satisfies(lifted, F)

    def test_mixed_unsatisfiable_example(self):
        _, f1, _ = mixed_example()
        G, _ = unit_clause_propagation(f1)
        assert G.clauses() == (BOT,)

    def test_random_contract(self):
        rng = random.Random(501)
        for _ in range(60):
            F = oracles.random_instance(rng, max_n=5, max_c=9)
            G, steps = unit_clause_propagation(F)
            assert_sat_equivalent(F, G)
            assert all(G.table.domain_size(v) > 1 for v in G.var_set())
            if G.clauses() != (BOT,):
                assert not any(len(c) == 1 for c in G.clauses())
            again, more = unit_clause_propagation(G)
            assert again == G and more == ()
            if oracles.brute_satisfiable(F):
                assert_lift_recovers_model(F, G, steps)


class TestPureVariableElimination:
    def test_two_sided_example_dissolves(self):
        _, _, f2 = mixed_example()
        assert pure_variable_elimination(f2).c == 0

    def test_no_pure_values_is_a_fixpoint(self):
        _, f1, _ = mixed_example()
        assert pure_variable_elimination(f1) == f1

    def test_random_contract(self):
        rng = random.Random(502)
        for _ in range(60):
            F = oracles.random_instance(rng, max_n=5, max_c=9)
            G = pure_variable_elimination(F)
            assert_sat_equivalent(F, G)
            assert oracles.reference_first_pure(G) is None
            assert all(G.multiplicity(c) <= F.multiplicity(c)
                       for c in G.clauses())


class TestSubsumptionElimination:
    def test_empty_clause_subsumes_everything(self):
        table = VariableTable({1: 2})
        F = MultiClauseSet(table, {BOT: 2, Clause([(1, 0)]): 1})
        G = subsumption_elimination(F)
        assert G.clauses() == (BOT,) and G.multiplicity(BOT) == 2

    def test_subsumption_free_is_unchanged(self):
        _, f1, _ = mixed_example()
        assert subsumption_elimination(f1) == f1

    def test_boolean_multihitting_leaves_unique_core(self):
        core = full_combinations()
        table = core.table.declare(3, 2)
        fat = Clause([(1, 0), (2, 0), (3, 0)])
        F = MultiClauseSet(table, list(core.clauses()) + [fat])
        G = subsumption_elimination(F)
        assert set(G.clauses()) == set(core.clauses())
        assert oracles.brute_is_minimally_unsatisfiable(G)

    def test_ternary_multihitting_leaves_unique_core(self):
        units = ternary_units()
        table = units.table.declare(2, 2)
        F = MultiClauseSet(table, list(units.clauses()) +
                           [Clause([(1, 0), (2, 0)])])
        G = subsumption_elimination(F)
        assert set(G.clauses()) == set(units.clauses())
        assert oracles.brute_is_minimally_unsatisfiable(G)

    def test_random_keeps_exactly_the_minimal_clauses(self):
        rng = random.Random(503)
        for _ in range(60):
            F = oracles.random_instance(rng, max_n=5, max_c=9)
            G = subsumption_elimination(F)
            for phi in oracles.total_assignments(F.table, F.var_set()):
                assert oracles.satisfies(phi, F) == oracles.satisfies(phi, G)
            clauses = F.clauses()
            for c in clauses:
                if any(other < c for other in clauses):
                    assert c not in G
                else:
                    assert G.multiplicity(c) == F.multiplicity(c)


class TestResolvents:
    def test_clashing_side_literals_have_no_resolvent(self):
        table = VariableTable({1: 2, 2: 2})
        parents = [Clause([(1, 0), (2, 0)]), Clause([(1, 1), (2, 1)])]
        assert resolvents(1, parents, table) is None

    def test_units_resolve_to_the_empty_clause(self):
        F = ternary_units()
        assert resolvents(1, F.clauses(), F.table) == BOT

    def test_ternary_resolvent_merges_side_literals(self):
        table = VariableTable({1: 3, 2: 2})
        parents = [Clause([(1, 0), (2, 0)]), Clause([(1, 1)]), Clause([(1, 2)])]
        R = resolvents(1, parents, table)
        assert R == Clause([(2, 0)])
        for phi in oracles.total_assignments(table, {1, 2}):
            if all(phi.satisfies_clause(c) for c in parents):
                assert phi.satisfies_clause(R)

    def test_parents_must_cover_each_value_once(self):
        table = VariableTable({1: 3, 2: 2})
        with pytest.raises(ValueError):
            resolvents(1, [Clause([(2, 0)]), Clause([(1, 1)]),
                           Clause([(1, 2)])], table)
        with pytest.raises(ValueError):
            resolvents(1, [Clause([(1, 0)]), Clause([(1, 0), (2, 0)]),
                           Clause([(1, 2)])], table)
        with pytest.raises(ValueError):
            resolvents(1, [Clause([(1, 0)]), Clause([(1, 1)])], table)


class TestDpResolve:
    def test_requires_the_variable_to_occur(self):
        with pytest.raises(ValueError):
            dp_resolve(ternary_units(), 2)

    def test_unit_resolution(self):
        table = VariableTable({1: 2, 2: 2})
        F = MultiClauseSet(table, [Clause([(1, 0)]), Clause([(1, 1), (2, 0)])])
        assert dp_resolve(F, 1).clauses() == (Clause([(2, 0)]),)

    def test_variable_with_unused_value_just_drops_its_clauses(self):
        table = VariableTable({1: 2, 2: 2})
        F = MultiClauseSet(table, [Clause([(1, 0), (2, 0)])])
        assert dp_resolve(F, 1).c == 0

    def test_mixed_example_eliminates_to_bottom(self):
        _, f1, _ = mixed_example()
        assert dp_resolve(dp_resolve(f1.dedup(), 2), 1).clauses() == (BOT,)

    def test_random_sat_equivalence_and_clause_bound(self):
        rng = random.Random(504)
        for _ in range(60):
            M = oracles.random_instance(rng, max_n=4, max_c=7)
            F = M.dedup()
            for v in sorted(F.var_set()):
                G = dp_resolve(F, v)
                assert dp_resolve(M, v) == G
                assert all(m == 1 for _, m in G.items())
                assert v not in G.var_set()
                assert_sat_equivalent(F, G)
                assert G.c <= _elimination_bound(F, v)


class TestSingularVariables:
    def test_detection(self):
        _, f1, _ = mixed_example()
        assert is_singular(f1, 1) and is_singular(f1, 2)
        F = full_combinations()
        assert not is_singular(F, 1) and not is_singular(F, 2)
        lonely = MultiClauseSet(VariableTable({1: 2}), [Clause([(1, 0)])])
        assert not is_singular(lonely, 1)

    def test_mixed_example_elimination_chain(self):
        _, f1, _ = mixed_example()
        G, degenerate = singular_dp(f1, 2)
        assert not degenerate
        assert set(G.clauses()) == {Clause([(1, 0)]), Clause([(1, 1)]),
                                    Clause([(1, 2)])}
        assert G.c == f1.c - 2 and G.delta == f1.delta
        H, degenerate = singular_dp(G, 1)
        assert not degenerate
        assert H.clauses() == (BOT,) and H.delta == f1.delta

    def test_clashing_resolvent_is_degenerate(self):
        table = VariableTable({1: 2, 2: 2})
        F = MultiClauseSet(table, [Clause([(1, 0), (2, 0)]),
                                   Clause([(1, 1), (2, 1)])])
        G, degenerate = singular_dp(F, 1)
        assert degenerate and G.c == 0

    def test_known_resolvent_is_degenerate(self):
        table = VariableTable({1: 2, 2: 2})
        F = MultiClauseSet(table, [Clause([(1, 0), (2, 0)]), Clause([(1, 1)]),
                                   Clause([(2, 0)])])
        G, degenerate = singular_dp(F, 1)
        assert degenerate
        assert G.clauses() == (Clause([(2, 0)]),)

    def test_rejects_non_singular_variables(self):
        with pytest.raises(ValueError):
            singular_dp(full_combinations(), 1)

    def test_random_non_degenerate_steps_preserve_structure(self):
        rng = random.Random(505)
        seen = 0
        for _ in range(150):
            F = oracles.random_instance(rng, max_n=4, max_c=7).dedup()
            v = next((w for w in sorted(F.var_set()) if is_singular(F, w)),
                     None)
            if v is None:
                continue
            G, degenerate = singular_dp(F, v)
            assert_sat_equivalent(F, G)
            if degenerate:
                continue
            seen += 1
            assert G.c == F.c - (F.table.domain_size(v) - 1)
            assert G.delta == F.delta
            assert is_matching_lean(G) == is_matching_lean(F)
            if is_matching_lean(F):
                assert max_deficiency(G).value == max_deficiency(F).value
        assert seen >= 10


class TestBlockedClauses:
    def test_requires_the_variable_in_the_clause(self):
        F = full_combinations()
        with pytest.raises(ValueError):
            is_blocked(Clause([(1, 0), (2, 0)]), F, 3)

    def test_clashing_pair_blocks_both_clauses(self):
        table = VariableTable({1: 2, 2: 2})
        a = Clause([(1, 0), (2, 0)])
        b = Clause([(1, 1), (2, 1)])
        F = MultiClauseSet(table, [a, b])
        for clause in (a, b):
            assert is_blocked(clause, F, 1)
            assert is_blocked(clause, F, 2)

    def test_shared_side_literal_is_not_blocked(self):
        table = VariableTable({1: 2, 2: 2})
        a = Clause([(1, 0), (2, 0)])
        b = Clause([(1, 1), (2, 0)])
        F = MultiClauseSet(table, [a, b])
        assert not is_blocked(a, F, 1)

    def test_clause_on_an_unused_value_is_blocked(self):
        table = VariableTable({1: 2, 2: 2})
        a = Clause([(1, 0), (2, 0)])
        F = MultiClauseSet(table, [a])
        assert is_blocked(a, F, 1)

    def test_random_removal_is_sat_equivalent(self):
        rng = random.Random(506)
        removed = 0
        for _ in range(80):
            F = oracles.random_instance(rng, max_n=4, max_c=6).dedup()
            for c in F.clauses():
                for v in sorted(c.variables):
                    if is_blocked(c, F, v):
                        removed += 1
                        G = F.with_clauses(
                            {d: 1 for d in F.clauses() if d != c})
                        assert_sat_equivalent(F, G)
        assert removed


class TestLiftThroughSteps:
    def test_a_falsified_resolvent_has_no_lift(self):
        # variable 1 is singular with the one resolvent {(2, 0)}, which
        # <2->0> falsifies: both values of 1 are then blocked
        F = MultiClauseSet(VariableTable({1: 2, 2: 2}),
                           [Clause([(1, 0), (2, 0)]), Clause([(1, 1)])])
        step = VariableEliminationStep(1, frozenset(F.clauses()))
        with pytest.raises(ValueError, match="resolvents on variable 1"):
            lift_through_steps([step], assign((2, 0)))
        with pytest.raises(ValueError, match="resolvents on variable 1"):
            oracles.reference_lift_through_steps([(F, 1)], assign((2, 0)))
        assert lift_through_steps([step], assign((2, 1))) == assign((1, 0), (2, 1))

    def test_one_assignment_per_lift(self, monkeypatch):
        n = 200
        chain = horn_chain(n)
        chain = chain.with_clauses({c: 1 for c in chain.clauses()
                                    if c != Clause([(n, 1)])})
        F = direct_weak(chain).boolean_cnf
        G, steps = s_reduction_with_log(F)
        assert not G and len(steps) >= 400
        empty, built = PartialAssignment(), []
        init = PartialAssignment.__init__

        def counted(self, *args):
            built.append(1)
            init(self, *args)

        monkeypatch.setattr(PartialAssignment, "__init__", counted)
        model = lift_through_steps(steps, empty)
        monkeypatch.undo()
        assert len(built) == 1
        assert oracles.satisfies(model, F)


class TestRReduction:
    def test_mixed_unsatisfiable_example_collapses(self):
        _, f1, _ = mixed_example()
        assert r_reduction(f1).clauses() == (BOT,)

    def test_doubled_pair_is_a_fixpoint(self):
        F = doubled_pair()
        assert r_reduction(F) == F

    def test_full_combinations_is_a_fixpoint(self):
        F = full_combinations()
        assert r_reduction(F) == F

    def test_random_contract(self):
        rng = random.Random(507)
        for _ in range(60):
            F = oracles.random_instance(rng, max_n=5, max_c=9)
            G, steps = r_reduction_with_log(F)
            assert_sat_equivalent(F, G)
            assert max_deficiency(G).value <= max_deficiency(F).value
            assert is_matching_lean(G)
            assert oracles.reference_first_pure(G) is None
            assert not any(is_singular(G, v) for v in G.var_set())
            if oracles.brute_satisfiable(F):
                assert_lift_recovers_model(F, G, steps)


class TestSReduction:
    def test_no_clauses_is_a_fixpoint(self):
        F = top(VariableTable({1: 3}))
        assert s_reduction(F) == F

    def test_surplus_two_is_a_fixpoint(self):
        F = full_combinations()
        assert s_reduction(F) == F

    def test_mixed_example_pair(self):
        _, f1, f2 = mixed_example()
        assert s_reduction(f1 + f2).clauses() == (BOT,)
        assert s_reduction(f2).c == 0

    def test_random_contract(self):
        rng = random.Random(508)
        for _ in range(60):
            F = oracles.random_instance(rng, max_n=5, max_c=9)
            G, steps = s_reduction_with_log(F)
            assert_sat_equivalent(F, G)
            if G.var_set():
                assert surplus(G, at_most=2).value >= 2
            if oracles.brute_satisfiable(F):
                assert_lift_recovers_model(F, G, steps)

    def test_unit_rule_skips_a_unit_on_a_non_boolean_variable(self):
        # the only unit clause, {1:2}, lies on a 3-valued variable: the unit
        # rule forces boolean variables only, so it logs nothing here
        table = VariableTable({1: 3, 2: 2, 3: 2})
        F = MultiClauseSet(table, [Clause(c) for c in (
            [(1, 2)], [(1, 0), (2, 0)], [(1, 1), (2, 1), (3, 0)],
            [(2, 0), (3, 1)], [(2, 1), (3, 1)])])
        G, steps = s_reduction_with_log(F, units=True)
        assert not any(isinstance(s, ForcedValueStep) for s in steps)
        assert (G, steps) == s_reduction_with_log(F)
        assert G.items() == s_reduction(F).items()

    def test_boolean_descent_after_reduction(self):
        # On a reduced boolean instance with variables left, any single
        # assignment pushes the maximal deficiency strictly below delta.
        rng = random.Random(509)
        seen = 0
        for _ in range(150):
            F = oracles.random_instance(rng, max_n=5, max_dom=2, max_c=9)
            G = s_reduction(F)
            if not G.var_set():
                continue
            seen += 1
            for v in sorted(G.var_set()):
                for e in G.table.domain(v):
                    after = max_deficiency(apply(assign((v, e)), G)).value
                    assert after <= G.delta - 1
        assert seen >= 10


# -- the reduction loops against the rescanning reference ----------------------


def reference_dp(F, v):
    kept = {c: m for c, m in F.items() if not c.has_var(v)}
    buckets = [[c for c in F.clauses() if c.has_var(v) and c.value_on(v) == e]
               for e in F.table.domain(v)]
    for combo in itertools.product(*buckets):
        R = resolvents(v, combo, F.table)
        if R is not None:
            kept.setdefault(R, 1)
    return F.with_clauses(kept)


def reference_is_singular(F, v):
    counts = [F.count((v, e)) for e in F.table.domain(v)]
    if 0 in counts:
        return False
    return any(all(count == 1 for j, count in enumerate(counts) if j != i)
               for i in range(len(counts)))


def reference_drop_one_copy(F, clause):
    items = dict(F.items())
    items[clause] -= 1
    return F.with_clauses(items)


def reference_redundant_clause_on(F, v):
    base = reference_dp(F, v)
    for clause, mult in F.items():
        if not clause.has_var(v):
            continue
        if mult >= 2:
            return clause
        if reference_dp(reference_drop_one_copy(F, clause), v) == base:
            return clause
    return None


def clauses_on(F, v):
    return frozenset(c for c in F.clauses() if c.has_var(v))


def reference_r_reduce(F, fired=None):
    """The rescanning r-reduction loop: every rule re-tested on every
    variable after every step, redundancy by one elimination per clause.
    Each rule that fires is counted in ``fired``.  Returns the result, the
    log and, per step, its record for ``oracles.reference_lift_through_steps``."""
    fired = Counter() if fired is None else fired
    steps, records = [], []
    while True:
        hit = None
        for v in sorted(F.var_set()):
            if reference_is_singular(F, v):
                clause = reference_redundant_clause_on(F, v)
                if clause is not None:
                    hit = (v, clause)
                    break
        if hit is not None:
            v, clause = hit
            fired["redundant copy"] += 1
            steps.append(VariableEliminationStep(v, clauses_on(F, v)))
            records.append((F, v))
            F = reference_drop_one_copy(F, clause)
            continue
        pure = oracles.reference_first_pure(F)
        if pure is not None:
            fired["pure"] += 1
            phi = assign(pure)
            steps.append(AutarkyStep(phi))
            records.append(phi)
            F = apply(phi, F)
            continue
        phi = quasi_maximal_matching_autarky(F)
        if phi:
            fired["matching autarky"] += 1
            steps.append(AutarkyStep(phi))
            records.append(phi)
            F = apply(phi, F)
            continue
        v = next((w for w in sorted(F.var_set()) if reference_is_singular(F, w)), None)
        if v is None:
            return F, steps, records
        fired["singular DP"] += 1
        steps.append(VariableEliminationStep(v, clauses_on(F, v)))
        records.append((F, v))
        G = reference_dp(F, v)
        assert G.c == F.c - (F.table.domain_size(v) - 1)
        F = G


def reference_s_reduce(F, first_round, fired=None):
    """The s-reduction loop over reference_r_reduce, whose first round on F
    is given; a fresh r-reduction follows each surplus-one autarky.  Each
    rule that fires is counted in ``fired``.  Returns what
    ``reference_r_reduce`` returns."""
    fired = Counter() if fired is None else fired
    steps, records = [], []
    F, sub, sub_records = first_round
    while True:
        steps.extend(sub)
        records.extend(sub_records)
        if not F.var_set():
            return F, steps, records
        found = surplus(F, at_most=2)
        if found.value >= 2:
            return F, steps, records
        fired["surplus one"] += 1
        sigma = sat_bounded_deficiency(restrict(F, found.witness)).witness
        steps.append(AutarkyStep(sigma))
        records.append(sigma)
        F, sub, sub_records = reference_r_reduce(apply(sigma, F), fired)


def step_record(step):
    if isinstance(step, VariableEliminationStep):
        return ("eliminate", step.var, frozenset(step.clauses))
    assert isinstance(step, AutarkyStep)
    return ("autarky", step.assignment)


def assert_same_reduction(got, want):
    (G, steps), (H, ref_steps, _) = got, want
    assert G == H and G.items() == H.items()
    assert [step_record(s) for s in steps] == [step_record(s) for s in ref_steps]


def drop_one_clause(F, rng):
    clause = rng.choice(F.clauses())
    return F.with_clauses({c: 1 for c in F.clauses() if c != clause})


PARITY_ROWS = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def parity_block(variables=(1, 2, 3), swapped=False):
    """One clause per even-parity row over three boolean variables, the
    first variable's values swapped when asked.  Every value occurs twice,
    so no variable is pure or singular; the block is matching lean with
    surplus 1, so only the surplus-one rule of the s-reduction applies."""
    a, b, c = variables
    return [Clause([(a, x ^ swapped), (b, y), (c, z)]) for x, y, z in PARITY_ROWS]


def parity_samples(rng, rounds):
    """Per round, in a random orientation: the parity block alone, with some
    multiplicities of 2, on fresh variables next to a random instance, and
    tied to that instance by one extra literal (when it has variables)."""
    booleans = VariableTable({1: 2, 2: 2, 3: 2})
    for _ in range(rounds):
        swapped = rng.random() < 0.5
        block = parity_block(swapped=swapped)
        yield MultiClauseSet(booleans, block)
        yield MultiClauseSet(booleans, {c: rng.choice((1, 2)) for c in block})
        F = oracles.random_instance(rng, max_n=4, max_dom=3, max_c=6)
        fresh = tuple(range(len(F.table) + 1, len(F.table) + 4))
        table = F.table.merge(VariableTable({v: 2 for v in fresh}))
        block = parity_block(fresh, swapped)
        yield F + MultiClauseSet(table, block)
        if F.var_set():
            w = rng.choice(sorted(F.var_set()))
            i = rng.randrange(len(block))
            block[i] = Clause([*block[i], (w, rng.randrange(table.domain_size(w)))])
            yield F + MultiClauseSet(table, block)


class TestReductionAgainstReference:
    """The worklist reduction loop gives the same result and the same step
    list (kind, variable, clauses on it before the step, assignment) as the
    loops that rescan every variable after every step."""

    def samples(self):
        rng = random.Random(9090)
        for _ in range(1000):
            F = oracles.random_instance(rng, max_n=5, max_dom=3, max_c=10,
                                        multi=rng.random() < 0.7)
            yield F
            yield F.dedup()
            yield direct_weak(F).boolean_cnf
        for n in (1, 2, 3, 5, 9, 16):
            yield horn_chain(n)
        for _ in range(40):
            image = tree_to_clause_set(random_tree(rng, 9))
            yield image
            if image.c > 1:
                yield drop_one_clause(image, rng)
        yield from parity_samples(rng, 400)

    def test_r_and_s_reduction_logs(self):
        count = surplus_one_samples = 0
        fired = Counter()
        for F in self.samples():
            count += 1
            sample_fired = Counter()
            want = reference_r_reduce(F, sample_fired)
            G, steps = r_reduction_with_log(F)
            assert_same_reduction((G, list(steps)), want)
            G, steps = s_reduction_with_log(F)
            assert_same_reduction((G, list(steps)),
                                  reference_s_reduce(F, want, sample_fired))
            surplus_one_samples += bool(sample_fired["surplus one"])
            fired += sample_fired
        assert count >= 3000
        assert surplus_one_samples >= 100
        # each rule fires often enough to be compared (seen: 2 820 redundant
        # copies, 6 756 pure, 17 matching autarkies, 1 258 singular DP and
        # 910 surplus-one autarkies)
        floors = {"redundant copy": 1000, "pure": 3000, "matching autarky": 10,
                  "singular DP": 500, "surplus one": 400}
        assert all(fired[rule] >= floor for rule, floor in floors.items()), fired

    def test_assign_value_is_apply_on_the_state(self):
        """The unit rule's binding keeps the state equal to ``core.apply``:
        clause map, multiplicities and literal index."""
        checked = merged = 0
        for F in self.samples():
            for v in sorted(F.var_set())[:2]:
                for e in F.table.domain(v):
                    state = _ReductionState(F)
                    state.assign_value(v, e)
                    want = apply(assign((v, e)), F)
                    assert state.instance() == want, (F, v, e)
                    assert state.occ == _ReductionState(want).occ, (F, v, e)
                    checked += 1
                    merged += any(m > F.multiplicity(c)
                                  for c, m in want.items() if c in F)
        # seen: 16 127 bindings, 1 730 of them adding copies to a clause
        assert checked >= 10000 and merged >= 1000

    def test_lift_against_the_reference_lift(self):
        """A model of the s-reduced instance (the empty one when no clause is
        left, else the first brute-force model) lifts through the log to the
        reference lift's bindings, less some of its zeros."""
        lifted = fewer = 0
        for F in self.samples():
            G, steps = s_reduction_with_log(F)
            models = oracles.brute_models(G) if G else [PartialAssignment()]
            if not models:
                continue
            _, _, records = reference_s_reduce(F, reference_r_reduce(F))
            got = lift_through_steps(steps, models[0])
            want = oracles.reference_lift_through_steps(records, models[0])
            assert all(want[v] == e for v, e in got.items())
            assert all(want[v] == 0 for v in want.keys() - got.keys())
            assert oracles.satisfies(got, F) and oracles.satisfies(want, F)
            lifted += 1
            fewer += len(want) > len(got)
        assert lifted >= 2500 and fewer >= 30, (lifted, fewer)  # seen: 2 844 and 40

    def test_resolvent_index_after_each_retest(self, monkeypatch):
        """After each re-test, ``waiting`` and ``reads`` are inverse maps over
        int hashes, and only singular variables have read resolvents."""
        retest = _ReductionState.retest_dirty
        filed = 0

        def checked(state):
            nonlocal filed
            retest(state)
            pairs = {(h, v) for h, vs in state.waiting.items() for v in vs}
            assert pairs == {(h, v) for v, hs in state.reads.items() for h in hs}
            assert all(state.waiting.values()) and all(state.reads.values())
            assert all(type(h) is int for h in state.waiting)
            assert state.reads.keys() <= state.singular
            filed += len(pairs)

        monkeypatch.setattr(_ReductionState, "retest_dirty", checked)
        for F in self.samples():
            r_reduction_with_log(F)
            s_reduction_with_log(F, units=True)
        assert filed >= 10000, filed  # seen: 34 990

    def test_pure_variable_elimination(self):
        for F in self.samples():
            G = pure_variable_elimination(F)
            H = oracles.reference_pure_variable_elimination(F)
            assert G == H and G.items() == H.items()

    def test_parity_block_needs_the_surplus_one_rule(self):
        F = MultiClauseSet(VariableTable({1: 2, 2: 2, 3: 2}), parity_block())
        assert r_reduction_with_log(F) == (F, ())
        G, steps = s_reduction_with_log(F)
        assert G == top(F.table)
        assert steps == (AutarkyStep(assign((1, 0), (2, 1), (3, 0))),)

    def test_redundant_copy_of_a_duplicated_clause(self):
        # {1:0} twice and {1:1}: dropping a copy of the doubled unit keeps the
        # resolvent BOT, so the first step drops it, then BOT is derived
        F = MultiClauseSet(VariableTable({1: 2}),
                           [Clause([(1, 0)]), Clause([(1, 0)]), Clause([(1, 1)])])
        G, steps = r_reduction_with_log(F)
        assert [step_record(s) for s in steps] == [
            step_record(s) for s in reference_r_reduce(F)[1]]
        assert G.clauses() == (BOT,)


def complete_tree_image(arity, depth):
    """The image of the complete tree of that arity and depth, its nodes
    labelled 1, 2, ... level by level from the bottom."""
    level, label = [LEAF] * arity ** depth, 1
    while len(level) > 1:
        nodes = []
        for i in range(0, len(level), arity):
            nodes.append(DeficiencyOneTree.node(label, level[i:i + arity]))
            label += 1
        level = nodes
    return tree_to_clause_set(level[0])


class TestRetestsFollowTheDirtyRule:
    """A verdict is re-tested only when a clause it read has changed, so a
    singular-DP step on a tree image re-tests the variables of the clauses
    it changes, not their neighbours as well."""

    @pytest.fixture
    def retests(self, monkeypatch):
        count = [0]
        retest = _ReductionState.retest_dirty

        def counted(state):
            count[0] += len(state.dirty)
            retest(state)

        monkeypatch.setattr(_ReductionState, "retest_dirty", counted)
        return count

    @pytest.mark.parametrize("arity, depth", [(2, 7), (3, 5)])
    def test_r_reduction_retests_at_most_ell(self, retests, arity, depth):
        F = complete_tree_image(arity, depth)
        assert r_reduction(F).clauses() == (BOT,)
        # seen: 896 of ell 896 and 668 of ell 1 215
        assert retests[0] <= F.ell, (retests[0], F.ell)

    @pytest.mark.parametrize("arity, depth", [(2, 7), (3, 5)])
    def test_sat_fpt_retests_at_most_three_ell(self, retests, arity, depth):
        F = complete_tree_image(arity, depth)
        assert sat_fpt(F).node_count == 1
        bound = 3 * direct_weak(F).boolean_cnf.ell
        # seen: 1 909 of 3 x 1 150 and 2 352 of 3 x 1 578
        assert retests[0] <= bound, (retests[0], bound)
