import itertools
import random

import pytest

from gcls.core import (
    BOT,
    Clause,
    EMPTY_ASSIGNMENT,
    Literal,
    MultiClauseSet,
    PartialAssignment,
    VariableTable,
    apply,
    assign,
    assignment_to_clause,
    clause_to_assignment,
    compose,
    cross_out,
    domain_uniformisation,
    falsifying_count,
    measures,
    rename,
    restrict,
    top,
    touched,
)

import oracles


# three boolean variables a=1, b=2, c=3
BOOL3 = VariableTable({1: 2, 2: 2, 3: 2})
C1 = Clause([(1, 0), (2, 1), (3, 0)])
C2 = Clause([(1, 0), (2, 0), (3, 1)])
C3 = Clause([(1, 1), (2, 0), (3, 1)])
C4 = Clause([(2, 1), (3, 1)])
F_BOOL = MultiClauseSet(BOOL3, [C1, C2, C3, C4])


def mixed_example():
    """a,b ternary and c,d boolean; the two-part set whose general-lean core
    is the first five clauses."""
    table = VariableTable({1: 3, 2: 3, 3: 2, 4: 2})
    f1 = [Clause([(1, 0), (2, 0)]), Clause([(1, 0), (2, 1)]), Clause([(1, 0), (2, 2)]),
          Clause([(1, 1)]), Clause([(1, 2)])]
    f2 = [Clause([(1, 0), (3, 0), (4, 1)]), Clause([(2, 0), (3, 1), (4, 0)])]
    return table, MultiClauseSet(table, f1), MultiClauseSet(table, f2)


class TestClause:
    def test_clash_rejected(self):
        with pytest.raises(ValueError):
            Clause([(1, 0), (1, 1)])

    def test_duplicates_collapse(self):
        assert Clause([(1, 0), (1, 0)]) == Clause([(1, 0)])

    def test_bot_is_empty(self):
        assert len(BOT) == 0 and BOT.variables == frozenset()


class TestTableValidation:
    def test_bad_ids(self):
        with pytest.raises(ValueError):
            VariableTable({0: 2})
        with pytest.raises(ValueError):
            VariableTable({1: 0})

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValueError):
            MultiClauseSet(VariableTable({1: 2}), [Clause([(2, 0)])])

    def test_value_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            MultiClauseSet(VariableTable({1: 2}), [Clause([(1, 2)])])


class TestCompose:
    def test_identity(self):
        psi = assign((1, 1), (2, 0))
        assert compose(EMPTY_ASSIGNMENT, psi) == psi
        assert compose(psi, EMPTY_ASSIGNMENT) == psi

    def test_inner_wins(self):
        assert compose(assign((1, 1)), assign((1, 2))) == assign((1, 2))

    def test_associative_exhaustively(self):
        table = VariableTable({1: 3, 2: 3})
        assignments = list(oracles.partial_assignments(table, [1, 2]))
        for f, g, h in itertools.product(assignments, repeat=3):
            assert compose(compose(f, g), h) == compose(f, compose(g, h))


class TestApply:
    def test_empty_assignment_is_identity(self):
        assert apply(EMPTY_ASSIGNMENT, F_BOOL) == F_BOOL

    def test_mixed_example_autarkies(self):
        table, f1, f2 = mixed_example()
        F = f1 + f2
        for phi in (assign((3, 0), (4, 0)), assign((3, 1), (4, 1))):
            assert apply(phi, F) == f1

    def test_clause_count_drop_is_slack(self):
        rng = random.Random(7)
        for _ in range(60):
            F = oracles.random_instance(rng)
            for v in sorted(F.var_set()):
                for e in F.table.domain(v):
                    got = apply(assign((v, e)), F)
                    assert got.c == F.c - F.slack((v, e))

    def test_composition_law(self):
        rng = random.Random(8)
        for _ in range(40):
            F = oracles.random_instance(rng, max_n=3, max_dom=3, max_c=6)
            table = F.table
            vs = list(table.variables())
            for phi in oracles.partial_assignments(table, vs[:2]):
                for psi in oracles.partial_assignments(table, vs[1:3]):
                    assert apply(compose(phi, psi), F) == apply(phi, apply(psi, F))

    def test_additive_over_sum(self):
        rng = random.Random(9)
        for _ in range(40):
            F = oracles.random_instance(rng, max_n=4, max_c=8)
            items = F.items()
            F1 = F.with_clauses(items[::2])
            F2 = F.with_clauses(items[1::2])
            for phi in oracles.partial_assignments(F.table, sorted(F.table.variables())[:2]):
                assert apply(phi, F1 + F2) == apply(phi, F1) + apply(phi, F2)


class TestVariableSetOps:
    def test_cross_out_worked_example(self):
        got = cross_out({1}, F_BOOL)
        expected = MultiClauseSet(
            BOOL3,
            {Clause([(2, 1), (3, 0)]): 1, Clause([(2, 0), (3, 1)]): 2,
             Clause([(2, 1), (3, 1)]): 1})
        assert got == expected
        assert got.c == F_BOOL.c

    def test_cross_out_trivia(self):
        assert cross_out(set(), F_BOOL) == F_BOOL
        all_gone = cross_out(F_BOOL.var_set(), F_BOOL)
        assert all_gone.multiplicity(BOT) == F_BOOL.c

    def test_touched_worked_example(self):
        assert touched(F_BOOL, {1}) == MultiClauseSet(BOOL3, [C1, C2, C3])
        assert touched(F_BOOL, set()) == top(BOOL3)
        assert touched(F_BOOL, F_BOOL.var_set()) == F_BOOL

    def test_restrict_worked_example(self):
        got = restrict(F_BOOL, {1})
        assert got == MultiClauseSet(BOOL3, {Clause([(1, 0)]): 2, Clause([(1, 1)]): 1})

    def test_restrict_mixed_example(self):
        table, f1, f2 = mixed_example()
        F = f1 + f2
        assert restrict(F, {3}) == MultiClauseSet(table, [Clause([(3, 0)]), Clause([(3, 1)])])
        assert restrict(F, {3, 4}) == MultiClauseSet(
            table, [Clause([(3, 0), (4, 1)]), Clause([(3, 1), (4, 0)])])
        assert restrict(F, set()) == top(table)

    def test_restrict_properties(self):
        rng = random.Random(10)
        for _ in range(60):
            F = oracles.random_instance(rng)
            vs = sorted(F.var_set())
            for V in [set(vs[:1]), set(vs[:2]), set(vs)]:
                r = restrict(F, V)
                assert r.c == touched(F, V).c
                assert r.var_set() <= V
                assert BOT not in r
                assert r == cross_out(F.var_set() - V, touched(F, V))

    def test_cross_out_composes(self):
        rng = random.Random(11)
        for _ in range(40):
            F = oracles.random_instance(rng)
            vs = sorted(F.var_set())
            V1, V2 = set(vs[::2]), set(vs[1::2])
            assert cross_out(V1 | V2, F) == cross_out(V1, cross_out(V2, F))


class TestMeasures:
    def test_nested_translation_source(self):
        table = VariableTable({1: 4, 2: 4})
        F = MultiClauseSet(table, [
            Clause([(1, 0)]), Clause([(2, 0)]), Clause([(1, 0), (2, 0)]),
            Clause([(1, 1), (2, 1)]), Clause([(1, 2), (2, 2)]), Clause([(1, 3), (2, 3)])])
        m = measures(F)
        assert (m.c, m.n, m.rd, m.delta) == (6, 2, 6, 0)

    def test_empty(self):
        m = measures(top())
        assert (m.n, m.c, m.ell, m.rd, m.delta) == (0, 0, 0, 0, 0)

    def test_counts_recount(self):
        rng = random.Random(12)
        for _ in range(60):
            F = oracles.random_instance(rng)
            m = measures(F)
            assert F.var_set() is F.var_set()  # built once per instance
            assert m.ell == sum(m.variable_counts.values())
            for lit, cnt in m.literal_counts.items():
                assert cnt == sum(mult for c, mult in F.items() if lit in c)
                assert m.slack_counts[lit] == m.variable_counts[lit.var] - cnt
            assert m.delta == m.c - m.rd


class TestRename:
    def test_identity(self):
        F2, injective = rename(F_BOOL, 1, 1, {0: 0, 1: 1})
        assert F2 == F_BOOL and injective

    def test_domain_shrinking_recount(self):
        table = VariableTable({1: 3, 9: 2})
        F = MultiClauseSet(table, [Clause([(1, 1)]), Clause([(1, 2), (9, 0)])])
        with pytest.raises(ValueError):
            rename(F, 1, 9, {1: 0, 2: 1})  # target already occurs
        table2 = table.declare(10, 2)
        F2 = MultiClauseSet(table2, F.items())
        G, injective = rename(F2, 1, 10, {1: 0, 2: 1})
        assert injective
        assert G.count((10, 0)) == F.count((1, 1))
        assert G.count((10, 1)) == F.count((1, 2))
        assert 1 not in G.var_set()

    def test_bijective_round_trip(self):
        rng = random.Random(13)
        for _ in range(30):
            F = oracles.random_instance(rng, max_n=4)
            vs = sorted(F.var_set())
            if not vs:
                continue
            v = vs[0]
            size = F.table.domain_size(v)
            w = max(F.table.variables()) + 1
            F2 = MultiClauseSet(F.table.declare(w, size), F.items())
            perm = list(range(size))
            rng.shuffle(perm)
            out, injective = rename(F2, v, w, dict(enumerate(perm)))
            assert injective
            back, _ = rename(out, w, v, {pe: e for e, pe in enumerate(perm)})
            assert back == F

    def test_value_merge_is_reported(self):
        table = VariableTable({1: 3, 2: 2})
        F = MultiClauseSet(table, [Clause([(1, 0), (2, 0)]), Clause([(1, 1), (2, 0)])])
        G, injective = rename(F, 1, 1, {0: 0, 1: 0, 2: 2})
        assert not injective
        assert G.count((1, 0)) == 2


class TestDomainUniformisation:
    def test_already_uniform(self):
        assert domain_uniformisation(F_BOOL) == F_BOOL

    def test_mixed_domains(self):
        table = VariableTable({1: 2, 2: 3})
        F = MultiClauseSet(table, [Clause([(1, 0), (2, 2)]), Clause([(2, 0)])])
        G = domain_uniformisation(F)
        assert G.table.domain_size(1) == 3
        assert G.multiplicity(Clause([(1, 2)])) == 1
        assert G.c == F.c + 1 and G.delta == F.delta and G.rd == F.rd + 1

    def test_preserves_satisfiability_and_deficiency(self):
        rng = random.Random(14)
        for _ in range(40):
            F = oracles.random_instance(rng, max_n=4, max_c=8)
            G = domain_uniformisation(F)
            assert G.delta == F.delta
            assert oracles.brute_satisfiable(G) == oracles.brute_satisfiable(F)


class TestBridge:
    def test_bot_maps_to_empty(self):
        assert clause_to_assignment(BOT) == EMPTY_ASSIGNMENT
        assert assignment_to_clause(EMPTY_ASSIGNMENT) == BOT

    def test_by_definition(self):
        C = Clause([(1, 0), (2, 1)])
        assert clause_to_assignment(C) == assign((1, 0), (2, 1))

    def test_round_trip(self):
        table = VariableTable({1: 3, 2: 2, 3: 3})
        for k in range(4):
            for vs in itertools.combinations([1, 2, 3], k):
                for values in itertools.product(*(table.domain(v) for v in vs)):
                    C = Clause(zip(vs, values))
                    assert assignment_to_clause(clause_to_assignment(C)) == C


class TestFalsifyingCount:
    def test_trivia(self):
        table = VariableTable({1: 3, 2: 3})
        assert falsifying_count(table, BOT, {1, 2}) == 9
        assert falsifying_count(table, Clause([(1, 0), (2, 1)]), {1, 2}) == 1

    def test_requires_covering_vars(self):
        table = VariableTable({1: 3, 2: 3})
        with pytest.raises(ValueError):
            falsifying_count(table, Clause([(1, 0)]), {2})

    def test_against_enumeration(self):
        table = VariableTable({1: 3, 2: 2, 3: 3})
        V = {1, 2, 3}
        for C in [BOT, Clause([(1, 2)]), Clause([(1, 0), (3, 1)]),
                  Clause([(1, 1), (2, 0), (3, 2)])]:
            phi_c = clause_to_assignment(C)
            count = sum(1 for phi in oracles.total_assignments(table, V)
                        if all(phi[v] == e for v, e in phi_c.items()))
            assert falsifying_count(table, C, V) == count


class TestMultiplicities:
    def test_sum_and_dedup(self):
        table = VariableTable({1: 3})
        F = MultiClauseSet(table, [Clause([(1, 0)]), Clause([(1, 0)])])
        assert F.multiplicity(Clause([(1, 0)])) == 2 and F.c == 2
        assert F.dedup().c == 1
        G = F.dedup()
        assert G.dedup() is G

    def test_cross_out_keeps_multiplicities_after_dedup(self):
        table = VariableTable({1: 2, 2: 2, 3: 2})
        F = MultiClauseSet(table, [Clause([(1, 0), (3, 0)]), Clause([(1, 0), (3, 1)])])
        merged_multi = cross_out({3}, F)
        assert merged_multi.multiplicity(Clause([(1, 0)])) == 2
        merged_dedup = cross_out({3}, F.dedup())
        assert merged_dedup.multiplicity(Clause([(1, 0)])) == 2

    def test_equality_ignores_unused_table_entries(self):
        small = MultiClauseSet(VariableTable({1: 2}), [Clause([(1, 0)])])
        big = MultiClauseSet(VariableTable({1: 2, 7: 4}), [Clause([(1, 0)])])
        assert small == big

    def test_a_clause_set_is_passed_by_its_items(self):
        with pytest.raises(TypeError):
            MultiClauseSet(F_BOOL.table, F_BOOL)
        assert MultiClauseSet(F_BOOL.table, F_BOOL.items()) == F_BOOL


class TestEqualityAndHash:
    def test_partial_assignments_hash_by_their_bindings(self):
        a = PartialAssignment({1: 0, 2: 1})
        b = PartialAssignment([(2, 1), (1, 0)])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert len({a, PartialAssignment({1: 0})}) == 2

    def test_partial_assignment_equals_the_same_mapping(self):
        phi = PartialAssignment({1: 0, 2: 1})
        assert phi == {1: 0, 2: 1} and {2: 1, 1: 0} == phi
        assert phi != {1: 0}
        assert phi.__eq__([(1, 0), (2, 1)]) is NotImplemented
        assert phi != [(1, 0), (2, 1)]

    def test_clause_sets_compare_only_with_clause_sets(self):
        items = dict(F_BOOL.items())
        assert F_BOOL.__eq__(items) is NotImplemented
        assert F_BOOL != items

    def test_variable_table_repr(self):
        table = VariableTable({1: 2, 3: 4})
        assert repr(table) == "VariableTable({1: 2, 3: 4})"
        assert eval(repr(table)) == table


class TestClauseVariableMap:
    """has_var, value_on, variables and without_vars read the variable map
    the constructor keeps; they agree with a scan over the literals."""

    def test_against_literal_scan(self):
        rng = random.Random(811)
        for _ in range(500):
            lits = {v: rng.randrange(4) for v in rng.sample(range(1, 9), rng.randint(0, 6))}
            pairs = list(lits.items()) * rng.randint(1, 2)
            rng.shuffle(pairs)
            clause = Clause(pairs)
            assert clause == frozenset(Literal(v, e) for v, e in lits.items())
            assert clause.variables == frozenset(lit.var for lit in clause)
            for v in range(0, 10):
                assert clause.has_var(v) == any(lit.var == v for lit in clause)
                scanned = [lit.value for lit in clause if lit.var == v]
                if scanned:
                    assert clause.value_on(v) == scanned[0]
                else:
                    with pytest.raises(KeyError):
                        clause.value_on(v)
            drop = set(rng.sample(range(1, 9), rng.randint(0, 4)))
            rest = clause.without_vars(drop)
            assert isinstance(rest, Clause)
            assert rest == frozenset(lit for lit in clause if lit.var not in drop)
            assert rest.variables == clause.variables - drop
            assert all(isinstance(lit, Literal) for lit in rest)

    def test_clashes_still_raise(self):
        rng = random.Random(812)
        for _ in range(200):
            v = rng.randint(1, 5)
            pairs = [(w, rng.randrange(3)) for w in range(1, 6) if rng.random() < 0.5]
            pairs += [(v, 0), (v, 1)]
            rng.shuffle(pairs)
            with pytest.raises(ValueError, match="clashing"):
                Clause(pairs)


class TestDerivedResults:
    """Results derived without re-validation equal the validated
    construction of the same clauses, in the same canonical order."""

    @staticmethod
    def assert_validated_equal(G):
        validated = MultiClauseSet(G.table, dict(G.items()))
        assert G == validated
        assert G.items() == validated.items()
        assert repr(G) == repr(validated)
        assert all(m > 0 for _, m in G.items())

    def test_operations_on_random_instances(self):
        from gcls.reductions import _dp

        rng = random.Random(813)
        for _ in range(300):
            F = oracles.random_instance(rng, max_n=5, max_c=10)
            variables = sorted(F.var_set())
            V = rng.sample(variables, rng.randint(0, len(variables)))
            phi = PartialAssignment({v: rng.randrange(F.table.domain_size(v))
                                     for v in V})
            for G in (apply(phi, F), cross_out(V, F), touched(F, V),
                      restrict(F, V), F.dedup()):
                self.assert_validated_equal(G)
            for v in variables:
                self.assert_validated_equal(_dp(F, v))

    def test_reduction_instances_and_dropping_a_last_copy(self, monkeypatch):
        from gcls.reductions import _ReductionState, r_reduction_with_log

        instances = []
        change = _ReductionState.change

        def recorded(state, multiplicities):
            change(state, multiplicities)
            instances.append(state.instance())

        monkeypatch.setattr(_ReductionState, "change", recorded)
        rng = random.Random(814)
        dropped_last_copy = 0
        for _ in range(300):
            F = oracles.random_instance(rng, max_n=5, max_c=10)
            instances[:] = [F]
            G, _ = r_reduction_with_log(F)
            self.assert_validated_equal(G)
            for H in instances:
                self.assert_validated_equal(H)
            for H, K in zip(instances, instances[1:]):
                gone = [c for c, m in H.items() if m == 1 and c not in K]
                if K.c == H.c - 1 and len(gone) == 1 and all(c in H for c in K.clauses()):
                    dropped_last_copy += 1
        assert dropped_last_copy >= 10

    def test_parsed_files_and_tree_images(self):
        from gcls.cli import emit_dimacs, emit_gcls, parse_dimacs, parse_gcls
        from gcls.musat import tree_to_clause_set
        from gcls.translate import direct_weak
        from test_musat import random_tree

        rng = random.Random(815)
        for _ in range(200):
            F = oracles.random_instance(rng, max_n=5, max_c=10)
            parsed = parse_gcls(emit_gcls(F))
            assert parsed == F
            image = tree_to_clause_set(random_tree(rng, 12))
            for G in (parsed, parse_dimacs(emit_dimacs(direct_weak(F))).cnf, image):
                self.assert_validated_equal(G)
                assert all(dict(c) == c._by_var for c in G.clauses())

    def test_public_constructors_still_validate(self):
        F = MultiClauseSet(BOOL3, [C1])
        for bad, message in (([(4, 0)], "not declared"), ([(1, 2)], "outside domain"),
                             ([(2, 0), (3, 5)], "outside domain")):
            with pytest.raises(ValueError, match=message):
                MultiClauseSet(BOOL3, [Clause(bad)])
            with pytest.raises(ValueError, match=message):
                F.with_clauses({Clause(bad): 1})
            with pytest.raises(ValueError, match=message):
                F.with_clauses([bad])


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: VariableTable([(1, 2), (1, 3)]),
                 "variable 1 declared twice with different sizes", id="table"),
    pytest.param(lambda: BOOL3.declare(1, 3),
                 "variable 1 already declared with size 2", id="declare"),
    pytest.param(lambda: BOOL3.merge(VariableTable({3: 4})),
                 "tables disagree on domain size of variable 3", id="merge"),
    pytest.param(lambda: MultiClauseSet(BOOL3, {C1: -1}),
                 "negative multiplicity", id="multiplicity"),
    pytest.param(lambda: PartialAssignment([(1, 0), (1, 1)]),
                 "variable 1 bound twice", id="assignment"),
    pytest.param(lambda: apply(PartialAssignment({1: 2}), F_BOOL),
                 "value 2 outside domain of variable 1", id="apply"),
    pytest.param(lambda: rename(F_BOOL, 1, 9, {0: 0, 1: 1}),
                 "target variable 9 not declared", id="rename-target"),
    pytest.param(lambda: rename(F_BOOL, 1, 1, {0: 0}),
                 "value map does not cover occurring value 1", id="rename-cover"),
    pytest.param(lambda: rename(F_BOOL, 1, 1, {0: 0, 1: 2}),
                 "value map sends 1 outside the domain of 1", id="rename-image"),
])
def test_outside_input_is_refused(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_package_exports_each_module_name_once():
    """``gcls.__all__`` is the library modules' ``__all__`` lists plus the
    CLI's ``parse_hypergraph``; each class and function is exported by the
    module that defines it."""
    import importlib

    import gcls

    names = ["parse_hypergraph"]
    for name in ("core", "encode", "matching", "musat", "reductions", "satdec",
                 "structure", "translate"):
        module = importlib.import_module(f"gcls.{name}")
        names += module.__all__
        for public in module.__all__:
            obj = getattr(module, public)
            if callable(obj):
                assert obj.__module__ == module.__name__, public
    assert len(set(gcls.__all__)) == len(gcls.__all__)
    assert sorted(gcls.__all__) == sorted(names)
    for name in gcls.__all__:
        getattr(gcls, name)


def test_modules_import_only_the_standard_library():
    """The package declares no runtime dependencies (``dependencies = []``)."""
    import ast
    import sys
    from pathlib import Path

    import gcls

    imported = set()
    for path in Path(gcls.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert "re" in imported
    assert imported <= set(sys.stdlib_module_names), imported
