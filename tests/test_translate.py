"""Boolean translations: gadget schemes, measures, and assignment transfer."""

import random
from collections import Counter

import pytest

from gcls.cli import emit_dimacs, emit_gcls, parse_gcls
from gcls.core import (
    BOT,
    Clause,
    MultiClauseSet,
    PartialAssignment,
    VariableTable,
    top,
)
from gcls.encode import vdw_instance
from gcls.matching import (
    is_matching_autarky,
    is_matching_lean,
    matching_lean_kernel,
    matching_satisfying_assignment,
    max_deficiency,
)
from gcls.musat import tree_to_clause_set
from gcls.satdec import brute_force_sat, is_autarky
from gcls.translate import (
    VariableGadget,
    direct_strong,
    direct_weak,
    generic,
    lift_assignment,
    logarithmic,
    nested,
    push_assignment,
    reduced,
)

import oracles
from test_matching import nested_gadget_example
from test_musat import horn_chain, random_tree

ALL_SCHEMES = (direct_weak, direct_strong, nested, reduced, logarithmic)
SCHEME_TAGS = ("direct-weak", "direct-strong", "nested", "reduced", "logarithmic")


def ternary_pair():
    """Two domain-3 variables tied by three binary clauses."""
    table = VariableTable({1: 3, 2: 3})
    return MultiClauseSet(table, [
        Clause([(1, 0), (2, 1)]),
        Clause([(1, 1), (2, 0)]),
        Clause([(1, 2), (2, 2)]),
    ])


def four_valued_pair():
    """Two domain-4 variables: three clauses pairing equal values on top of
    units forbidding value 0; its nested translation is a known fixture."""
    table = VariableTable({1: 4, 2: 4})
    return MultiClauseSet(table, [
        Clause([(1, 0)]),
        Clause([(2, 0)]),
        Clause([(1, 0), (2, 0)]),
        Clause([(1, 1), (2, 1)]),
        Clause([(1, 2), (2, 2)]),
        Clause([(1, 3), (2, 3)]),
    ])


def doubled_unit():
    """Two copies of one unit clause on a domain-3 variable."""
    return MultiClauseSet(VariableTable({1: 3}), {Clause([(1, 0)]): 2})


def fan_pair():
    """A ternary hub feeding two boolean variables; maximal deficiency 0,
    but the direct translation has maximal deficiency 1."""
    table = VariableTable({1: 3, 2: 2, 3: 2})
    return MultiClauseSet(table, [
        Clause([(1, 0), (2, 0)]),
        Clause([(1, 0), (3, 0)]),
        Clause([(2, 1)]),
        Clause([(3, 1)]),
    ])


def unit_profile():
    """A unit plus a doubled unit on one domain-3 variable: matching lean,
    yet the direct translation has a proper matching-lean kernel."""
    return MultiClauseSet(VariableTable({1: 3}),
                          {Clause([(1, 1)]): 1, Clause([(1, 2)]): 2})


def unit_chain():
    """Matching lean without multiplicities; again the direct translation
    is not matching lean."""
    table = VariableTable({1: 3, 2: 2})
    return MultiClauseSet(table, [
        Clause([(1, 1)]),
        Clause([(1, 2)]),
        Clause([(1, 2), (2, 0)]),
        Clause([(2, 1)]),
    ])


def random_total(rng, F):
    return PartialAssignment({v: rng.randrange(F.table.domain_size(v))
                              for v in sorted(F.var_set())})


def random_partial(rng, F, pool):
    pool = sorted(pool)
    picked = rng.sample(pool, rng.randint(1, len(pool)))
    return PartialAssignment({v: rng.randrange(F.table.domain_size(v))
                              for v in picked})


def pure_free(F):
    return all(F.count((v, e)) > 0
               for v in F.var_set() for e in F.table.domain(v))


def alo_clause(translation, v):
    return Clause((b, 1) for b in translation.gadgets[v].variables)


class TestDirectWeak:
    def test_two_ternary_variables_translate_to_the_known_five_clauses(self):
        t = direct_weak(ternary_pair())
        assert t.scheme == "direct-weak"
        assert t.gadgets[1].variables == (1, 2, 3)
        assert t.gadgets[2].variables == (4, 5, 6)
        expected = MultiClauseSet(VariableTable({b: 2 for b in range(1, 7)}), [
            Clause([(1, 0), (5, 0)]),
            Clause([(2, 0), (4, 0)]),
            Clause([(3, 0), (6, 0)]),
            Clause([(1, 1), (2, 1), (3, 1)]),
            Clause([(4, 1), (5, 1), (6, 1)]),
        ])
        assert t.boolean_cnf == expected
        assert t.var_map == {1: (1, 0), 2: (1, 1), 3: (1, 2),
                             4: (2, 0), 5: (2, 1), 6: (2, 2)}
        assert t.inverse_map[(2, 2)] == 6

    def test_no_clauses_translate_to_no_clauses(self):
        t = direct_weak(top(VariableTable({1: 3})))
        assert t.boolean_cnf.c == 0
        assert t.gadgets == {}

    def test_empty_clause_passes_through(self):
        t = direct_weak(MultiClauseSet(VariableTable({}), [BOT]))
        assert t.boolean_cnf.clauses() == (BOT,)

    def test_clause_multiplicities_survive(self):
        t = direct_weak(doubled_unit())
        assert t.boolean_cnf.multiplicity(Clause([(1, 0)])) == 2
        assert t.boolean_cnf.multiplicity(alo_clause(t, 1)) == 1

    def test_dedup_input_gives_multiplicity_one_image(self):
        cnf = direct_weak(doubled_unit().dedup()).boolean_cnf
        assert all(m == 1 for _, m in cnf.items())

    def test_measures_and_deficiency_are_preserved(self):
        rng = random.Random(701)
        for _ in range(120):
            F = oracles.random_instance(rng, max_n=4, max_dom=4, max_c=7)
            G = direct_weak(F).boolean_cnf
            sizes = [F.table.domain_size(v) for v in F.var_set()]
            assert G.n == sum(sizes)
            assert G.c == F.c + len(sizes)
            assert G.delta == F.delta

    def test_boolean_blocks_are_contiguous_and_ascending(self):
        rng = random.Random(702)
        for _ in range(60):
            F = oracles.random_instance(rng, max_n=5, max_dom=3, max_c=6)
            t = direct_weak(F)
            assert sorted(t.var_map) == list(range(1, len(t.var_map) + 1))
            previous = 0
            for v in sorted(t.gadgets):
                block = t.gadgets[v].variables
                assert block == tuple(range(previous + 1, previous + 1 + len(block)))
                previous = block[-1]


class TestDirectStrong:
    def test_single_boolean_variable_gains_one_exclusion_clause(self):
        F = MultiClauseSet(VariableTable({1: 2}), [Clause([(1, 0)])])
        assert direct_weak(F).boolean_cnf.c == 2
        assert direct_strong(F).boolean_cnf.c == 3

    def test_exclusion_clause_count_is_pairs_per_block(self):
        rng = random.Random(703)
        for _ in range(80):
            F = oracles.random_instance(rng, max_n=4, max_dom=4, max_c=6)
            weak = direct_weak(F).boolean_cnf
            strong = direct_strong(F).boolean_cnf
            pairs = sum(k * (k - 1) // 2
                        for k in (F.table.domain_size(v) for v in F.var_set()))
            assert strong.c - weak.c == pairs

    def test_strong_clauses_force_exactly_one_false_per_block(self):
        t = direct_strong(ternary_pair())
        model = brute_force_sat(t.boolean_cnf)
        assert model is not None
        for v in (1, 2):
            assert sum(model[b] == 0 for b in t.gadgets[v].variables) == 1


class TestNested:
    def test_four_valued_pair_matches_the_fixture(self):
        t = nested(four_valued_pair(), value_order={2: (0, 3, 2, 1)})
        fixture, kernel = nested_gadget_example()
        assert t.scheme == "nested"
        assert t.boolean_cnf == fixture
        assert matching_lean_kernel(t.boolean_cnf) == kernel
        assert max_deficiency(t.boolean_cnf).value == 1
        assert max_deficiency(four_valued_pair()).value == 0

    def test_value_order_must_permute_the_domain(self):
        with pytest.raises(ValueError):
            nested(ternary_pair(), value_order={1: (0, 1)})
        with pytest.raises(ValueError):
            nested(ternary_pair(), value_order={1: (0, 1, 1)})

    def test_every_value_order_is_checked_not_only_the_first_of_its_kind(self):
        # Variable 1's default order (0, 1) is valid; the same tuple given
        # to the three-valued variable 2 must still be refused.
        F = MultiClauseSet(VariableTable({1: 2, 2: 3}), [
            Clause([(1, 0), (2, 0)]), Clause([(1, 1)]), Clause([(2, 1)]),
        ])
        with pytest.raises(ValueError):
            nested(F, value_order={2: (0, 1)})

    def test_boolean_input_comes_back_renamed_only(self):
        F = MultiClauseSet(VariableTable({3: 2, 7: 2}), [
            Clause([(3, 0), (7, 1)]),
            Clause([(3, 1)]),
        ])
        t = nested(F)
        expected = MultiClauseSet(VariableTable({1: 2, 2: 2}), [
            Clause([(1, 0), (2, 1)]),
            Clause([(1, 1)]),
        ])
        assert t.boolean_cnf == expected
        assert t.var_map == {1: (3, 0), 2: (7, 0)}

    def test_clause_count_kept_and_deficiency_never_drops(self):
        rng = random.Random(704)
        equalities = 0
        for _ in range(120):
            F = oracles.random_instance(rng, max_n=4, max_dom=4, max_c=7)
            G = nested(F).boolean_cnf
            assert G.c == F.c
            assert G.delta >= F.delta
            if pure_free(F):
                equalities += 1
                assert G.delta == F.delta
        assert equalities >= 10


class TestReducedAndLogarithmic:
    def test_reduced_maps_last_value_to_the_all_negative_clause(self):
        F = MultiClauseSet(VariableTable({1: 4}),
                           [Clause([(1, 0)]), Clause([(1, 3)])])
        t = reduced(F)
        assert t.scheme == "reduced"
        assert t.gadgets[1].variables == (1, 2, 3)
        assert t.boolean_cnf == MultiClauseSet(
            VariableTable({1: 2, 2: 2, 3: 2}),
            [Clause([(1, 0)]), Clause([(1, 1), (2, 1), (3, 1)])])

    def test_logarithmic_uses_big_endian_bit_patterns(self):
        F = MultiClauseSet(VariableTable({1: 5}), [Clause([(1, 4)])])
        t = logarithmic(F)
        assert t.scheme == "logarithmic"
        assert t.gadgets[1].variables == (1, 2, 3)
        image = Clause([(1, 1), (2, 0), (3, 0)])
        assert t.boolean_cnf.multiplicity(image) == 1
        assert t.boolean_cnf.c == 4  # the image plus codes 5, 6, 7 ruled out

    def test_logarithmic_is_the_identity_on_boolean_input(self):
        F = MultiClauseSet(VariableTable({1: 2}),
                           [Clause([(1, 0)]), Clause([(1, 1)])])
        assert logarithmic(F).boolean_cnf == F

    def test_domain_one_literal_becomes_the_empty_clause(self):
        F = MultiClauseSet(VariableTable({1: 1}), [Clause([(1, 0)])])
        for scheme in (nested, reduced, logarithmic):
            G = scheme(F).boolean_cnf
            assert G.clauses() == (BOT,)
            assert G.n == 0
        direct = direct_weak(F).boolean_cnf
        assert direct.c == 2 and brute_force_sat(direct) is None

    def test_variable_counts_follow_the_block_widths(self):
        rng = random.Random(705)
        for _ in range(80):
            F = oracles.random_instance(rng, max_n=4, max_dom=5, max_c=7)
            sizes = [F.table.domain_size(v) for v in F.var_set()]
            assert len(reduced(F).var_map) == sum(k - 1 for k in sizes)
            assert len(logarithmic(F).var_map) == sum(
                (k - 1).bit_length() for k in sizes)


class TestSatisfiabilityEquivalence:
    def test_every_scheme_preserves_satisfiability(self):
        rng = random.Random(706)
        unsat = 0
        for _ in range(150):
            F = oracles.random_instance(rng, max_n=4, max_dom=4, max_c=6)
            sat = oracles.brute_satisfiable(F)
            unsat += not sat
            for scheme in ALL_SCHEMES:
                assert (brute_force_sat(scheme(F).boolean_cnf) is not None) == sat
        assert unsat >= 20

    def test_lifted_models_satisfy_the_source(self):
        rng = random.Random(707)
        lifted = 0
        for _ in range(120):
            F = oracles.random_instance(rng, max_n=4, max_dom=4, max_c=6)
            for scheme in ALL_SCHEMES:
                t = scheme(F)
                model = brute_force_sat(t.boolean_cnf)
                if model is None:
                    continue
                lifted += 1
                phi = lift_assignment(t, model)
                assert all(phi.satisfies_clause(c) for c in F.clauses())
        assert lifted >= 100


class TestGenericScheme:
    def test_reproduces_the_named_translations(self):
        rng = random.Random(708)
        for _ in range(25):
            F = oracles.random_instance(rng, max_n=3, max_dom=3, max_c=5)
            for scheme in (direct_weak, nested, logarithmic):
                t = scheme(F)
                g = generic(F, t.gadgets)
                assert g.boolean_cnf == t.boolean_cnf
                assert g.var_map == t.var_map
                assert g.scheme == "generic"

    def test_hand_built_mixed_gadgets_work(self):
        rng = random.Random(709)
        for _ in range(40):
            F = oracles.random_instance(rng, max_n=3, max_dom=3, max_c=5)
            gadgets, next_id = {}, 1
            for v in sorted(F.var_set()):
                k = F.table.domain_size(v)
                style = rng.choice(("unit", "chain"))
                if style == "unit":
                    block = tuple(range(next_id, next_id + k))
                    by_value = tuple(Clause([(b, 0)]) for b in block)
                    extra = (Clause((b, 1) for b in block),)
                else:
                    block = tuple(range(next_id, next_id + k - 1))
                    by_value = tuple(
                        Clause([(b, 1) for b in block[:i]] + [(block[i], 0)])
                        for i in range(k - 1)
                    ) + (Clause((b, 1) for b in block),)
                    extra = ()
                gadgets[v] = VariableGadget(block, by_value, extra)
                next_id += len(block)
            t = generic(F, gadgets)
            assert (brute_force_sat(t.boolean_cnf) is not None) \
                == oracles.brute_satisfiable(F)

    def test_gadget_clauses_may_be_plain_literal_sets(self):
        F = four_valued_pair()
        for scheme in (direct_strong, nested, logarithmic):
            t = scheme(F)
            plain = {v: VariableGadget(g.variables, tuple(map(frozenset, g.by_value)),
                                       tuple(map(frozenset, g.extra)))
                     for v, g in t.gadgets.items()}
            assert generic(F, plain).boolean_cnf.items() == t.boolean_cnf.items()

    def test_violated_invariants_are_named(self):
        F = MultiClauseSet(VariableTable({1: 2, 2: 2}), [Clause([(1, 0), (2, 1)])])
        base = direct_weak(F).gadgets
        block = base[1].variables

        def rejects(gadgets, needle):
            with pytest.raises(ValueError, match=needle):
                generic(F, gadgets)

        rejects({2: base[2]}, "no gadget")
        rejects({**base, 1: base[1]._replace(extra=())}, "satisfiable")
        rejects({**base, 1: VariableGadget(
            block,
            (Clause([(block[0], 0)]), Clause([(block[0], 0), (block[1], 0)])),
            (Clause([(block[0], 1)]), Clause([(block[1], 1)])),
        )}, "not necessary")
        rejects({**base, 2: base[2]._replace(variables=block)}, "overlap")
        rejects({**base, 1: base[1]._replace(by_value=base[1].by_value[:1])},
                "values to a clause")
        rejects({**base, 1: base[1]._replace(by_value=base[1].by_value[:1] * 2)},
                "same clause")
        rejects({**base, 1: base[1]._replace(variables=block[:1])},
                "leaves its declared block")
        # the image is built without re-validation, so a gadget literal
        # outside {0, 1} must be caught here
        rejects({**base, 1: base[1]._replace(
            by_value=(Clause([(block[0], 2)]),) + base[1].by_value[1:])},
                "outside domain")


class TestTranslationAgainstReference:
    """Every scheme's image, built from the gadgets' clause maps without
    re-validation, equals the former validated build, and both emitters
    print the former bytes."""

    @staticmethod
    def samples():
        rng = random.Random(1501)
        instances = [oracles.random_instance(rng, max_n=5, max_dom=4, max_c=12)
                     for _ in range(160)]
        instances += [tree_to_clause_set(random_tree(rng, 12)) for _ in range(30)]
        instances += [horn_chain(n) for n in (1, 2, 7, 24)]
        instances += [vdw_instance(m, k, n) for m, k, n in ((2, 3, 8), (3, 3, 6),
                                                            (2, 4, 10))]
        for F in instances:
            # parsed from shuffled clause lines, so the clause map is not
            # in canonical order
            lines = emit_gcls(F).splitlines()
            declared = 1 + len(F.table)
            body = lines[declared:]
            rng.shuffle(body)
            yield rng, parse_gcls("\n".join(lines[:declared] + body) + "\n")

    @staticmethod
    def translations(rng, F):
        """Fresh translations of F, each with the gadgets that the former
        builders make for it (for generic, the gadgets it was given)."""
        for scheme in ALL_SCHEMES:
            t = scheme(F)
            yield t, oracles.reference_gadgets(F, t.scheme)
        order = {}
        for v in F.var_set():
            values = list(F.table.domain(v))
            rng.shuffle(values)
            order[v] = values
        yield nested(F, value_order=order), oracles.reference_gadgets(
            F, "nested", order)
        gadgets = oracles.reference_gadgets(F, rng.choice(SCHEME_TAGS))
        yield generic(F, gadgets), gadgets

    def test_images_and_text_match_the_former_build(self):
        seen = Counter()
        for rng, F in self.samples():
            # the library runs first: the references put F in canonical order
            text = emit_gcls(F)
            translations = list(self.translations(rng, F))
            assert text == oracles.reference_emit_gcls(F)
            seen["samples"] += 1
            seen["multiplicity"] += any(m > 1 for _, m in F.items())
            seen["domain one"] += any(F.table.domain_size(v) == 1
                                      for v in F.var_set())
            seen["empty clause"] += BOT in F
            for t, gadgets in translations:
                seen["translations"] += 1
                # the CLI's order of calls: the text comes first, from the
                # image keys alone
                dimacs = emit_dimacs(t)
                assert (t._boolean_cnf, t._gadgets) == (None, None)
                ref = oracles.reference_translate(F, gadgets, t.scheme)
                assert dimacs == oracles.reference_emit_dimacs(ref)
                assert t.gadgets == gadgets
                assert t.boolean_cnf.items() == ref.boolean_cnf.items()
                assert repr(t.boolean_cnf) == repr(ref.boolean_cnf)
                assert t.boolean_cnf.table == ref.boolean_cnf.table
                assert (t.var_map, t.inverse_map) == (ref.var_map, ref.inverse_map)
                built = list(t.boolean_cnf.clauses())
                built += [c for g in t.gadgets.values() for c in g.clauses()]
                assert all(dict(c) == c._by_var for c in built)
                assert emit_dimacs(t) == dimacs
                assert emit_gcls(t.boolean_cnf) == \
                    oracles.reference_emit_gcls(ref.boolean_cnf)
        assert seen["samples"] >= 190 and seen["translations"] >= 1300
        assert min(seen["multiplicity"], seen["domain one"],
                   seen["empty clause"]) >= 10, seen


class TestImageKeyEdgeCases:
    """Image keys are concatenated gadget clauses; these cases print the
    same bytes as the former validated build."""

    @staticmethod
    def assert_former_text(t, F, gadgets):
        ref = oracles.reference_translate(F, gadgets, t.scheme)
        text = emit_dimacs(t)
        assert text == oracles.reference_emit_dimacs(ref)
        return text

    @pytest.mark.parametrize("blocks", [
        {1: (7, 8, 9), 2: (4, 5, 6), 3: (1, 2, 3)},  # descending
        {1: (1, 4, 7), 2: (2, 5, 8), 3: (3, 6, 9)},  # interleaved
        {1: (9, 1, 5), 2: (2, 8, 4), 3: (6, 3, 7)},  # neither
    ])
    def test_generic_blocks_need_not_ascend(self, blocks):
        rng = random.Random(1502)
        table = VariableTable({1: 3, 2: 4, 3: 2})
        builders = {
            1: lambda block: oracles.reference_direct_gadget(block, strong=True),
            2: lambda block: oracles.reference_nested_gadget(block, (2, 0, 3, 1)),
            3: lambda block: oracles.reference_logarithmic_gadget(block[:1], 2),
        }
        gadgets = {v: builders[v](block) for v, block in blocks.items()}
        for _ in range(30):
            F = MultiClauseSet(table, [
                Clause((v, rng.randrange(table.domain_size(v)))
                       for v in rng.sample((1, 2, 3), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 8))])
            used = {v: gadgets[v] for v in F.var_set()}
            t = generic(F, used)
            self.assert_former_text(t, F, used)
            assert t.gadgets == used

    @pytest.mark.parametrize("scheme", [nested, reduced, logarithmic])
    def test_one_value_domains_have_empty_gadget_clauses(self, scheme):
        # variables 1 and 3 have one value: their gadget clauses are empty
        table = VariableTable({1: 1, 2: 3, 3: 1})
        F = MultiClauseSet(table, {
            Clause([(1, 0), (2, 1)]): 1,
            Clause([(2, 1)]): 2,
            Clause([(2, 1), (3, 0)]): 1,
            Clause([(1, 0)]): 1,
            Clause([(1, 0), (3, 0)]): 1,
            BOT: 1,
        })
        t = scheme(F)
        text = self.assert_former_text(
            t, F, oracles.reference_gadgets(F, t.scheme))
        assert "  " not in text and " \n" not in text
        lines = text.splitlines()
        assert lines.count("0") == 3  # three source clauses, one empty image
        image_of_2_1 = t.gadgets[2].by_value[1].sort_key()
        assert t.image[image_of_2_1] == 4

    def test_an_image_clause_equal_to_an_extra_clause_adds_up(self):
        F = MultiClauseSet(VariableTable({1: 2, 2: 2}),
                           {Clause([(1, 0), (2, 0)]): 1, Clause([(1, 0)]): 2})
        gadgets = {
            # the extra clause repeats the gadget clause of value 0
            1: VariableGadget((1,), (Clause([(1, 0)]), Clause([(1, 1)])),
                              (Clause([(1, 0)]),)),
            2: oracles.reference_direct_gadget((2, 3), strong=False),
        }
        t = generic(F, gadgets)
        text = self.assert_former_text(t, F, gadgets)
        assert t.image[((1, 0),)] == 3
        assert text.splitlines().count("1 0") == 3


class TestAssignmentTransfer:
    def test_push_binds_whole_blocks_under_direct(self):
        t = direct_weak(ternary_pair())
        psi = push_assignment(t, PartialAssignment({1: 1, 2: 2}))
        assert psi == PartialAssignment({1: 1, 2: 0, 3: 1, 4: 1, 5: 1, 6: 0})

    def test_push_falsifies_exactly_the_chosen_chain_clause(self):
        t = nested(ternary_pair())
        psi = push_assignment(t, PartialAssignment({1: 1}))
        assert psi == PartialAssignment({1: 1, 2: 0})

    def test_push_rejects_foreign_variables_and_values(self):
        t = direct_weak(ternary_pair())
        with pytest.raises(ValueError, match="not part"):
            push_assignment(t, PartialAssignment({9: 0}))
        with pytest.raises(ValueError, match="outside the domain"):
            push_assignment(t, PartialAssignment({1: 3}))

    def test_total_assignments_round_trip_under_every_scheme(self):
        rng = random.Random(710)
        for _ in range(80):
            F = oracles.random_instance(rng, max_n=4, max_dom=4, max_c=5)
            if not F.var_set():
                continue
            phi = random_total(rng, F)
            for scheme in ALL_SCHEMES:
                t = scheme(F)
                assert lift_assignment(t, push_assignment(t, phi)) == phi

    def test_partial_assignments_round_trip(self):
        rng = random.Random(711)
        for _ in range(80):
            F = oracles.random_instance(rng, max_n=4, max_dom=4, max_c=5)
            if not F.var_set():
                continue
            phi = random_partial(rng, F, F.var_set())
            for scheme in (direct_weak, direct_strong):
                t = scheme(F)
                assert lift_assignment(t, push_assignment(t, phi)) == phi
            multi = {v for v in F.var_set() if F.table.domain_size(v) > 1}
            if len(multi) != len(F.var_set()) or not multi:
                continue
            phi = random_partial(rng, F, multi)
            for scheme in (nested, reduced, logarithmic):
                t = scheme(F)
                assert lift_assignment(t, push_assignment(t, phi)) == phi

    def test_lift_keeps_untouched_blocks_unassigned(self):
        t = direct_weak(ternary_pair())
        assert lift_assignment(t, PartialAssignment({2: 1, 3: 0})) \
            == PartialAssignment({1: 2})

    def test_lift_prefers_the_smallest_excluded_value(self):
        t = direct_weak(ternary_pair())
        assert lift_assignment(t, PartialAssignment({1: 0, 3: 0})) \
            == PartialAssignment({1: 0})

    def test_lift_ignores_bindings_outside_the_translation(self):
        t = direct_weak(ternary_pair())
        assert lift_assignment(t, PartialAssignment({99: 1})) == PartialAssignment()

    def test_lift_rejects_blocks_with_no_remaining_value(self):
        t = direct_weak(ternary_pair())
        with pytest.raises(ValueError, match="rules out every value"):
            lift_assignment(t, PartialAssignment({1: 1}))

    def test_lift_rejects_an_unused_logarithmic_code(self):
        # a 3-valued variable gets a 2-bit block; the bits (1, 1) falsify
        # only the extra clause, which excludes the unused code
        t = logarithmic(ternary_pair())
        with pytest.raises(ValueError, match="does not determine a value for variable 1"):
            lift_assignment(t, PartialAssignment({1: 1, 2: 1}))

    def test_autarkies_transfer_both_ways_under_direct(self):
        rng = random.Random(712)
        autarkies = 0
        for _ in range(200):
            F = oracles.random_instance(rng, max_n=4, max_dom=3, max_c=6)
            if not F.var_set():
                continue
            t = direct_weak(F)
            phi = random_partial(rng, F, F.var_set())
            source = is_autarky(phi, F)
            autarkies += source
            assert source == is_autarky(push_assignment(t, phi), t.boolean_cnf)
        assert autarkies >= 20


class TestMatchingStructureTransfer:
    def test_doubled_unit_translation_is_not_matching_satisfiable(self):
        t = direct_weak(doubled_unit())
        assert matching_satisfying_assignment(doubled_unit()) is not None
        assert matching_satisfying_assignment(t.boolean_cnf) is None
        kernel = matching_lean_kernel(t.boolean_cnf)
        assert kernel == MultiClauseSet(t.boolean_cnf.table, {Clause([(1, 0)]): 2})

    def test_fan_pair_translation_raises_maximal_deficiency(self):
        F = fan_pair()
        t = direct_weak(F)
        assert max_deficiency(F).value == 0
        assert max_deficiency(t.boolean_cnf).value == 1
        expected = t.boolean_cnf.with_clauses(
            {c: m for c, m in t.boolean_cnf.items() if c != alo_clause(t, 1)})
        assert matching_lean_kernel(t.boolean_cnf) == expected

    def test_matching_leanness_does_not_transfer_to_the_translation(self):
        F = unit_profile()
        t = direct_weak(F)
        assert is_matching_lean(F)
        assert matching_lean_kernel(t.boolean_cnf) == MultiClauseSet(
            t.boolean_cnf.table, {Clause([(3, 0)]): 2})

        G = unit_chain()
        s = direct_weak(G)
        assert is_matching_lean(G)
        assert matching_lean_kernel(s.boolean_cnf) == s.boolean_cnf.with_clauses([
            Clause([(3, 0)]),
            Clause([(3, 0), (4, 0)]),
            Clause([(5, 0)]),
            alo_clause(s, 2),
        ])

    def test_pushed_matching_autarkies_come_from_matching_autarkies(self):
        rng = random.Random(713)
        hits = 0
        for _ in range(400):
            F = oracles.random_instance(rng, max_n=4, max_dom=3, max_c=6)
            if not F.var_set():
                continue
            t = direct_weak(F)
            phi = random_partial(rng, F, F.var_set())
            if is_matching_autarky(push_assignment(t, phi), t.boolean_cnf):
                hits += 1
                assert is_matching_autarky(phi, F)
        assert hits >= 20

    def test_maximal_deficiency_never_drops_under_direct(self):
        rng = random.Random(714)
        for _ in range(80):
            F = oracles.random_instance(rng, max_n=4, max_dom=3, max_c=6)
            t = direct_weak(F)
            assert max_deficiency(t.boolean_cnf).value >= max_deficiency(F).value


class TestClassPreservation:
    def test_minimal_unsatisfiability_transfers_under_direct_and_nested(self):
        rng = random.Random(715)
        cases = 0
        for _ in range(150):
            F = oracles.random_instance(rng, max_n=3, max_dom=3, max_c=5)
            mu = oracles.brute_is_minimally_unsatisfiable(F)
            cases += mu
            assert mu == oracles.brute_is_minimally_unsatisfiable(
                direct_weak(F).boolean_cnf)
            assert mu == oracles.brute_is_minimally_unsatisfiable(
                nested(F).boolean_cnf)
        assert cases >= 5

    def test_leanness_transfers_under_direct(self):
        rng = random.Random(716)
        lean_cases = 0
        for _ in range(120):
            F = oracles.random_instance(rng, max_n=3, max_dom=3, max_c=5)
            G = direct_weak(F).boolean_cnf
            lean = oracles.brute_lean_kernel(F) == F
            lean_cases += lean
            assert lean == (oracles.brute_lean_kernel(G) == G)
        assert lean_cases >= 30
