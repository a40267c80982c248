"""Tests for minimal unsatisfiability at deficiency one."""

import contextlib
import functools
import heapq
import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcls import (
    BOT,
    Clause,
    Literal,
    MultiClauseSet,
    VariableTable,
    apply,
    is_matching_lean,
    max_deficiency,
)
from gcls import musat, satdec
from gcls.cli import emit_gcls, main
from gcls.encode import complete_graph, hypergraph_coloring
from gcls.musat import (
    _backbone,
    DeficiencyOneTree,
    DegreeMeasures,
    LEAF,
    Mu1Verdict,
    classify_mu1,
    degree_measures,
    format_tree,
    is_saturated_mu,
    parse_tree,
    recognize_mu1,
    saturate,
    stability_at_least,
    tree_to_clause_set,
)
from gcls.reductions import is_singular, resolvents, singular_dp
from gcls.satdec import assignment_space, decide, is_minimally_unsatisfiable
from gcls.structure import _counts_cover_space, classify_hitting, hitting_sat

import oracles
from test_matching import matrix_example
from test_structure import tree_image_example, value_units

N = DeficiencyOneTree.node


def example_tree():
    """The tree whose image is tree_image_example() from test_structure."""
    return N(1, [
        N(2, [LEAF, N(5, [LEAF])]),
        N(3, [LEAF, LEAF, LEAF]),
        N(4, [N(6, [LEAF, LEAF])]),
    ])


EXAMPLE_TREE_TEXT = ("(1 (0 (2 (0 *) (1 (5 (0 *))))) "
                     "(1 (3 (0 *) (1 *) (2 *))) "
                     "(2 (4 (0 (6 (0 *) (1 *))))))")


def two_var_mu2():
    """Minimally unsatisfiable, deficiency 2, no singular variable.

    Value 2 of either variable is forbidden outright, the other four
    clauses cross the remaining values; every variable has occurrence
    counts (2, 2, 1).
    """
    return MultiClauseSet(VariableTable({1: 3, 2: 3}), {
        Clause([(1, 0), (2, 0)]): 1,
        Clause([(1, 1), (2, 0)]): 1,
        Clause([(1, 0), (2, 1)]): 1,
        Clause([(1, 1), (2, 1)]): 1,
        Clause([(1, 2)]): 1,
        Clause([(2, 2)]): 1,
    })


def marginal_example():
    """A totally singular member: example image with repeats removed.

    Obtained from tree_image_example() by literal eliminations bringing
    every occurrence count down to 1; each elimination step was checked
    to preserve minimal unsatisfiability.
    """
    return MultiClauseSet(tree_image_example().table, {
        Clause([(1, 0), (2, 1), (5, 0)]): 1,
        Clause([(1, 1), (3, 2)]): 1,
        Clause([(1, 2), (6, 1)]): 1,
        Clause([(2, 0)]): 1,
        Clause([(3, 0)]): 1,
        Clause([(3, 1)]): 1,
        Clause([(4, 0), (6, 0)]): 1,
    })


def intermediate_example():
    """Neither hitting nor totally singular: one literal removed."""
    F = tree_image_example()
    return F.with_clauses(
        {(Clause([(3, 0)]) if c == Clause([(1, 1), (3, 0)]) else c): 1
         for c in F.clauses()})


def boolean_chain():
    return MultiClauseSet(VariableTable({1: 2, 2: 2}), {
        Clause([(1, 0)]): 1,
        Clause([(1, 1), (2, 0)]): 1,
        Clause([(2, 1)]): 1,
    })


def random_tree(rng, max_nodes):
    """A random tree with at most max_nodes inner nodes, domains 1..3."""
    next_var = [1]

    def grow(budget):
        if budget <= 0 or rng.random() < 0.3:
            return LEAF, 0
        v = next_var[0]
        next_var[0] += 1
        used = 1
        kids = []
        for _ in range(rng.randint(1, 3)):
            sub, got = grow(budget - used)
            used += got
            kids.append(sub)
        return N(v, kids), used

    tree, _ = grow(rng.randint(1, max_nodes))
    return tree


def random_wide_tree(rng, max_nodes):
    """Like random_tree, but every inner node has at least two children."""
    next_var = [1]

    def grow(budget):
        if budget <= 0 or rng.random() < 0.35:
            return LEAF, 0
        v = next_var[0]
        next_var[0] += 1
        used = 1
        kids = []
        for _ in range(rng.randint(2, 3)):
            sub, got = grow(budget - used)
            used += got
            kids.append(sub)
        return N(v, kids), used

    tree, _ = grow(rng.randint(1, max_nodes))
    return tree


def chain_tree(depth, bottom=None):
    """Node v has children (node v + 1, leaf); node depth ends the chain
    unless bottom replaces it."""
    chain = bottom or N(depth, [LEAF, LEAF])
    for v in range(depth - 1, 0, -1):
        chain = N(v, [chain, LEAF])
    return chain


def inner_vars(tree):
    if tree.is_leaf:
        return []
    return [tree.var] + [v for c in tree.children for v in inner_vars(c)]


def leaf_count(tree):
    if tree.is_leaf:
        return 1
    return sum(leaf_count(c) for c in tree.children)


def relabel(tree, mapping):
    if tree.is_leaf:
        return LEAF
    return N(mapping[tree.var],
             [relabel(c, mapping) for c in tree.children])


def totally_singular(F):
    return all(F.count((v, e)) <= 1
               for v in F.var_set() for e in F.table.domain(v))


def mu_after_removal(F, clause, lit):
    """Minimal unsatisfiability after dropping one literal occurrence."""
    shrunk = Clause(l for l in clause if l != lit)
    G = F.with_clauses(
        {(shrunk if c == clause else c): 1 for c in F.clauses()})
    return G.c == F.c and is_minimally_unsatisfiable(G)


def eliminated_images(rng, count, max_nodes):
    """Tree images with random repeated literal occurrences removed; each
    removal keeps minimal unsatisfiability at deficiency 1."""
    for _ in range(count):
        F = tree_to_clause_set(random_tree(rng, max_nodes))
        for _ in range(rng.randint(0, 4)):
            pool = [(c, lit) for c in F.clauses() for lit in c
                    if F.count(lit) >= 2]
            if not pool:
                break
            clause, lit = rng.choice(pool)
            shrunk = Clause(l for l in clause if l != lit)
            F = F.with_clauses(
                {(shrunk if c == clause else c): 1 for c in F.clauses()})
            assert is_minimally_unsatisfiable(F)
            assert recognize_mu1(F).verdict == "mu1"
        yield F


def pigeonhole(k):
    """K_{k+1} coloured with k colours: minimally unsatisfiable."""
    return hypergraph_coloring(complete_graph(k + 1), k)


class TestDeficiencyOneTree:
    def test_leaf(self):
        assert LEAF.is_leaf
        assert LEAF == DeficiencyOneTree()

    def test_leaf_rejects_children(self):
        with pytest.raises(ValueError):
            DeficiencyOneTree(None, (LEAF,))

    def test_node_needs_children(self):
        with pytest.raises(ValueError):
            DeficiencyOneTree(1, ())

    def test_node_var_must_be_int(self):
        with pytest.raises(ValueError):
            DeficiencyOneTree("x", (LEAF,))

    def test_children_must_be_trees(self):
        with pytest.raises(ValueError):
            DeficiencyOneTree(1, ("*",))

    def test_structural_equality_and_hash(self):
        a = N(1, [LEAF, N(2, [LEAF])])
        b = N(1, [LEAF, N(2, [LEAF])])
        assert a == b and hash(a) == hash(b)
        assert a != N(1, [N(2, [LEAF]), LEAF])
        assert a.__eq__((1, (LEAF, LEAF))) is NotImplemented
        assert a != (1, (LEAF, LEAF))


class TestTreeToClauseSet:
    def test_example_tree_image(self):
        assert tree_to_clause_set(example_tree()) == tree_image_example()

    def test_trivial_tree_gives_empty_clause(self):
        F = tree_to_clause_set(LEAF)
        assert F.items() == ((BOT, 1),)

    def test_domains_follow_arities(self):
        table = tree_to_clause_set(example_tree()).table
        assert {v: table.domain_size(v) for v in (1, 2, 3, 4, 5, 6)} == \
            {1: 3, 2: 2, 3: 3, 4: 1, 5: 1, 6: 2}

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError):
            tree_to_clause_set(N(1, [N(1, [LEAF, LEAF]), LEAF]))

    def test_single_node_tree_gives_value_units(self):
        assert tree_to_clause_set(N(1, [LEAF, LEAF, LEAF])) == value_units(3)

    def test_random_images_are_unsat_one_regular_hitting_deficiency_one(self):
        rng = random.Random(2024)
        for _ in range(80):
            tree = random_tree(rng, 12)
            F = tree_to_clause_set(tree)
            assert F.c == leaf_count(tree)
            assert F.n == len(inner_vars(tree))
            assert F.delta == 1
            facts = classify_hitting(F)
            assert facts.hitting
            if F.c >= 2:
                assert facts.regular == 1
            assert not hitting_sat(F)
            if assignment_space(F) <= 50_000:
                assert not oracles.brute_satisfiable(F)


class TestTreeSerialization:
    def test_leaf_roundtrip(self):
        assert format_tree(LEAF) == "*"
        assert parse_tree("*") == LEAF

    def test_example_text(self):
        assert format_tree(example_tree()) == EXAMPLE_TREE_TEXT
        assert parse_tree(EXAMPLE_TREE_TEXT) == example_tree()

    def test_branch_order_is_free_on_input(self):
        assert parse_tree("(3 (2 *) (0 *) (1 *))") == N(3, [LEAF, LEAF, LEAF])

    def test_whitespace_tolerant(self):
        text = "( 1\n  (0 *)\n  (1 (2 (0 *) (1 *)))\n)"
        assert parse_tree(text) == N(1, [LEAF, N(2, [LEAF, LEAF])])

    def test_random_roundtrip(self):
        rng = random.Random(77)
        for _ in range(120):
            tree = random_tree(rng, 10)
            assert parse_tree(format_tree(tree)) == tree

    def test_deep_chain_roundtrip_without_recursion(self):
        chain = chain_tree(5_000)
        text = format_tree(chain)
        parsed = parse_tree(text)
        assert format_tree(parsed) == text
        assert parsed == chain and hash(parsed) == hash(chain)
        assert parsed != chain_tree(5_000, bottom=N(5_000, [LEAF, LEAF, LEAF]))

    @pytest.mark.parametrize("text", [
        "",
        "(1)",                      # no branches
        "(1 (1 *))",                # values must start at 0
        "(1 (0 *) (0 *))",          # duplicate value
        "(1 (0 *) (2 *))",          # gap in values
        "(1 (0 *)",                 # unclosed
        "* *",                      # trailing input
        "(1 (0 *) x)",              # junk token
        "(x (0 *))",                # variable not a number
        "(\u00b2 (0 *) (1 *))",     # a digit, but not a decimal one
        "(1 (0 (1 (0 *))))",        # duplicate variable label
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ValueError) as info:
            parse_tree(text)
        assert "invalid literal" not in str(info.value)  # int() never sees it


class TestRecognizeMu1:
    def test_example_image_is_member(self):
        outcome = recognize_mu1(tree_image_example())
        assert outcome.verdict == "mu1"
        assert sorted(outcome.steps) == [1, 2, 3, 4, 5, 6]
        assert outcome.reason is None

    def test_empty_clause_alone_is_member(self):
        F = MultiClauseSet(VariableTable({}), {BOT: 1})
        assert recognize_mu1(F) == ("mu1", (), None)

    def test_satisfiable_hitting_set_is_not(self):
        outcome = recognize_mu1(matrix_example())
        assert outcome.verdict == "not_mu1"
        assert outcome.reason is not None

    def test_deficiency_two_member_of_mu_is_not(self):
        F = two_var_mu2()
        assert is_minimally_unsatisfiable(F) and F.delta == 2
        assert recognize_mu1(F) == ("not_mu1", (), "no singular variable left")

    def test_repeated_clause_rejected_up_front(self):
        F = MultiClauseSet(VariableTable({1: 2}),
                           {Clause([(1, 0)]): 2, Clause([(1, 1)]): 1})
        outcome = recognize_mu1(F)
        assert outcome.verdict == "not_mu1" and outcome.steps == ()

    def test_no_clauses_is_not(self):
        F = MultiClauseSet(VariableTable({1: 2}), {})
        assert recognize_mu1(F).verdict == "not_mu1"

    def test_degenerate_elimination_detected(self):
        F = MultiClauseSet(VariableTable({1: 2}), {
            BOT: 1, Clause([(1, 0)]): 1, Clause([(1, 1)]): 1})
        outcome = recognize_mu1(F)
        assert outcome.verdict == "not_mu1"
        assert outcome.steps == (1,)
        assert "degenerate" in outcome.reason

    def test_relabelling_invariance(self):
        rng = random.Random(31)
        for _ in range(40):
            tree = random_tree(rng, 10)
            names = inner_vars(tree)
            shuffled = list(range(101, 101 + len(names)))
            rng.shuffle(shuffled)
            image = tree_to_clause_set(relabel(tree, dict(zip(names, shuffled))))
            assert recognize_mu1(image).verdict == "mu1"

    def test_against_brute_oracle(self):
        rng = random.Random(7)
        checked = members = 0
        for _ in range(450):
            F = oracles.random_instance(rng, max_n=3, max_dom=3, max_c=5,
                                        allow_empty_clause=True, multi=False)
            if assignment_space(F) > 20_000:
                continue
            expect = (oracles.brute_is_minimally_unsatisfiable(F)
                      and F.delta == 1)
            got = recognize_mu1(F).verdict == "mu1"
            assert got == expect, dict(F.items())
            checked += 1
            members += expect
        assert checked >= 300 and members >= 80


def reference_recognize(F):
    """The smallest-singular elimination loop over the public primitives;
    returns the verdict and the steps."""
    if any(mult > 1 for _, mult in F.items()):
        return "not_mu1", ()
    steps = []
    while F.items() != ((BOT, 1),):
        v = next((w for w in sorted(F.var_set()) if is_singular(F, w)), None)
        if v is None:
            return "not_mu1", tuple(steps)
        F, degenerate = singular_dp(F, v)
        steps.append(v)
        if degenerate:
            return "not_mu1", tuple(steps)
    return "mu1", tuple(steps)


def reference_recognize_worklist(F):
    """The worklist recognition over its own literal index, as it stood
    before recognition moved onto the r-reduction's state; returns the
    whole Mu1Verdict."""
    if any(mult > 1 for _, mult in F.items()):
        return Mu1Verdict("not_mu1", (), "a repeated clause is redundant")
    table = F.table
    clauses = set(F.clauses())
    index = {}
    for clause in clauses:
        for lit in clause:
            index.setdefault(lit, set()).add(clause)
    occurrences = dict(Counter(lit.var for clause in clauses for lit in clause))
    heap = [(count, v) for v, count in occurrences.items()]
    heapq.heapify(heap)
    steps = []
    while clauses != {BOT}:
        if not heap:
            return Mu1Verdict("not_mu1", tuple(steps),
                              "no singular variable left")
        count, v = heapq.heappop(heap)
        if count != occurrences[v]:
            continue  # stale entry; v was pushed again with its new count
        buckets = [list(index.get(Literal(v, e), ())) for e in table.domain(v)]
        sizes = [len(bucket) for bucket in buckets]
        if 0 in sizes or sum(size > 1 for size in sizes) > 1:
            continue  # not singular; comes back once its counts change
        steps.append(v)
        added = set()
        for parents in itertools.product(*buckets):
            R = resolvents(v, parents, table)
            if R is None or R in clauses or R in added:
                return Mu1Verdict("not_mu1", tuple(steps),
                                  f"degenerate elimination of variable {v}")
            added.add(R)
        for clause in itertools.chain.from_iterable(buckets):
            clauses.remove(clause)
            for lit in clause:
                index[lit].remove(clause)
                occurrences[lit.var] -= 1
        # every literal of a resolvent comes from a parent, so it is indexed
        # already, and every variable of a parent but v is in some resolvent
        touched = set()
        for clause in added:
            clauses.add(clause)
            for lit in clause:
                index[lit].add(clause)
                occurrences[lit.var] += 1
                touched.add(lit.var)
        for w in touched:
            heapq.heappush(heap, (occurrences[w], w))
    return Mu1Verdict("mu1", tuple(steps))


def reference_tree(F):
    """Tree reconstruction by recursive splitting on a variable common to
    all clauses, single-valued ones first."""
    table = F.table

    def build(clauses):
        if clauses == [BOT]:
            return LEAF
        common = frozenset.intersection(*(c.variables for c in clauses))
        root = min(common, key=lambda v: (table.domain_size(v) > 1, v))
        return N(root, [build([c.without_vars((root,)) for c in clauses
                               if c.value_on(root) == e])
                        for e in table.domain(root)])

    return build(list(F.clauses()))


def reference_classify(F):
    """Category and tree by the conflict matrix and per-literal counts."""
    if classify_hitting(F).hitting:
        return "saturated", reference_tree(F)
    if all(F.count((v, e)) == 1 for v in F.var_set() for e in F.table.domain(v)):
        return "marginal", None
    return "intermediate", None


def horn_chain(n):
    """x1, x_i -> x_{i+1}, not x_n: a marginal member."""
    clauses = [Clause([(1, 0)]), Clause([(n, 1)])]
    clauses += [Clause([(i, 1), (i + 1, 0)]) for i in range(1, n)]
    return MultiClauseSet(VariableTable({v: 2 for v in range(1, n + 1)}),
                          {c: 1 for c in clauses})


class TestMu1AgainstReference:
    """The worklist recognition and the linear classification agree with
    the smallest-singular loop and the conflict-matrix classification, and
    the whole verdict (steps and reason too) with the former worklist over
    its own literal index."""

    def samples(self):
        rng = random.Random(4242)
        for _ in range(700):
            F = oracles.random_instance(rng, max_n=4, max_dom=3, max_c=7,
                                        allow_empty_clause=True,
                                        multi=rng.random() < 0.5)
            yield F
            yield F.dedup()
        for _ in range(60):
            tree = random_tree(rng, 15)
            yield tree_to_clause_set(tree)
            names = inner_vars(tree)
            shuffled = rng.sample(range(1, len(names) + 1), len(names))
            yield tree_to_clause_set(relabel(tree, dict(zip(names, shuffled))))
        for n in (1, 2, 3, 7, 20):
            yield horn_chain(n)

    def test_verdicts_steps_hitting_and_categories(self):
        members = hitting_checked = 0
        reasons = Counter()
        for F in self.samples():
            outcome = recognize_mu1(F)
            verdict, _ = reference_recognize(F)
            assert outcome.verdict == verdict, dict(F.items())
            assert outcome == reference_recognize_worklist(F), dict(F.items())
            reasons[(outcome.reason or "").split(" of variable")[0]] += 1
            unsat = verdict == "mu1" or (assignment_space(F) <= 5_000
                                         and not oracles.brute_satisfiable(F))
            if unsat:
                assert _counts_cover_space(F) == classify_hitting(F).hitting, \
                    dict(F.items())
                hitting_checked += 1
            if verdict != "mu1":
                continue
            members += 1
            assert sorted(outcome.steps) == sorted(F.var_set())
            result = classify_mu1(F)
            assert (result.category, result.tree) == reference_classify(F), \
                dict(F.items())
        assert members >= 200 and hitting_checked >= 500
        assert min(reasons.values()) >= 40, reasons

    def test_chain_root_is_eliminated_last(self):
        # Every variable of a chain image is singular; the cheapest is the
        # deepest one, so the steps run bottom-up.
        outcome = recognize_mu1(tree_to_clause_set(chain_tree(12)))
        assert outcome == ("mu1", tuple(range(12, 0, -1)), None)


def generated_repr(tree):
    """The text of the dataclass-generated repr, built recursively."""
    kids = ", ".join(generated_repr(c) for c in tree.children)
    if len(tree.children) == 1:
        kids += ","
    return f"DeficiencyOneTree(var={tree.var!r}, children=({kids}))"


class TestNoRecursionOnDepth:
    def test_repr_keeps_the_generated_text(self):
        assert repr(LEAF) == "DeficiencyOneTree(var=None, children=())"
        assert repr(N(4, [LEAF])) == (
            "DeficiencyOneTree(var=4, children="
            "(DeficiencyOneTree(var=None, children=()),))")
        rng = random.Random(1203)
        trees = [example_tree(), chain_tree(5)] + [random_tree(rng, 12) for _ in range(50)]
        for tree in trees:
            assert repr(tree) == generated_repr(tree)

    def test_repr_of_deep_chain(self):
        text = repr(chain_tree(1200))
        assert text.count("var=") == 2401
        assert text.startswith("DeficiencyOneTree(var=1, children=(DeficiencyOneTree(var=2, ")
        leaf = "DeficiencyOneTree(var=None, children=())"
        assert text.endswith(f"var=1200, children=({leaf}, {leaf}))" + f", {leaf}))" * 1199)

    def test_deep_chain_image_through_library_and_cli(self, tmp_path, capsys):
        chain = chain_tree(300)
        path = tmp_path / "chain.gcls"
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            F = tree_to_clause_set(chain)
            path.write_text(emit_gcls(F), encoding="utf-8")
            assert recognize_mu1(F).verdict == "mu1"
            assert classify_mu1(F) == ("saturated", chain, None)
            assert main(["mu1", str(path)]) == 0
        finally:
            sys.setrecursionlimit(limit)
        out, _ = capsys.readouterr()
        assert out == "MU1 saturated\n" + format_tree(chain) + "\n"


class TestClassifyMu1:
    def test_example_image_is_saturated_with_original_tree(self):
        result = classify_mu1(tree_image_example())
        assert result.category == "saturated"
        assert result.tree == example_tree()
        assert tree_to_clause_set(result.tree) == tree_image_example()
        assert result.diagnostic is None

    def test_value_units_reconstruct_a_star(self):
        result = classify_mu1(value_units(3))
        assert result.category == "saturated"
        assert result.tree == N(1, [LEAF, LEAF, LEAF])

    def test_empty_clause_reports_saturated_trivial_tree(self):
        # {bottom} is both saturated and marginal; saturated wins.
        F = MultiClauseSet(VariableTable({}), {BOT: 1})
        assert classify_mu1(F) == ("saturated", LEAF, None)

    def test_marginal_example(self):
        assert classify_mu1(marginal_example()) == ("marginal", None, None)

    def test_intermediate_example(self):
        result = classify_mu1(intermediate_example())
        assert result.category == "intermediate"
        assert result.tree is None

    @pytest.mark.parametrize("build", [
        two_var_mu2, matrix_example,
        lambda: MultiClauseSet(VariableTable({1: 2}), {}),
    ])
    def test_rejects_non_members(self, build):
        with pytest.raises(ValueError):
            classify_mu1(build())

    def test_random_images_reconstruct(self):
        rng = random.Random(63)
        for _ in range(60):
            tree = random_tree(rng, 12)
            F = tree_to_clause_set(tree)
            result = classify_mu1(F)
            assert result.category == "saturated"
            assert tree_to_clause_set(result.tree) == F

    def test_marginality_means_no_surviving_literal_elimination(self):
        # On members whose variables all have at least two values,
        # marginal = removing any single literal occurrence destroys
        # minimal unsatisfiability = every occurrence count is 1.
        # Members that are also hitting (the unit pair over one variable,
        # say) report as saturated instead.
        rng = random.Random(11)
        members = marginal_seen = 0
        for _ in range(700):
            F = oracles.random_instance(rng, max_n=3, max_dom=3, max_c=5,
                                        allow_empty_clause=True, multi=False)
            if recognize_mu1(F).verdict != "mu1":
                continue
            if any(F.table.domain_size(v) == 1 for v in F.var_set()):
                continue
            members += 1
            category = classify_mu1(F).category
            removable = any(mu_after_removal(F, c, lit)
                            for c in F.clauses() for lit in c)
            assert removable == any(F.count(lit) >= 2
                                    for c in F.clauses() for lit in c)
            expect_marginal = (not removable
                               and not classify_hitting(F).hitting)
            assert (category == "marginal") == expect_marginal, dict(F.items())
            marginal_seen += category == "marginal"
        assert members >= 40 and marginal_seen >= 2

    def test_fully_eliminated_images_classify_marginal_or_saturated(self):
        # Remove literal occurrences from tree images until every count
        # is 1.  The result is marginal unless it happens to be (still)
        # hitting, in which case it reports saturated; no single removal
        # may keep minimal unsatisfiability either way (all domains >= 2
        # here, so there are no dead literals).
        rng = random.Random(29)
        marginal_seen = 0
        for _ in range(40):
            tree = random_wide_tree(rng, 8)
            F = tree_to_clause_set(tree)
            while True:
                pool = [(c, lit) for c in F.clauses() for lit in c
                        if F.count(lit) >= 2]
                if not pool:
                    break
                clause, lit = rng.choice(pool)
                shrunk = Clause(l for l in clause if l != lit)
                F = F.with_clauses(
                    {(shrunk if c == clause else c): 1 for c in F.clauses()})
            assert totally_singular(F)
            category = classify_mu1(F).category
            if classify_hitting(F).hitting:
                assert category == "saturated"
            else:
                assert category == "marginal"
                marginal_seen += 1
            assert not any(mu_after_removal(F, c, lit)
                           for c in F.clauses() for lit in c)
        assert marginal_seen >= 10

    def test_dead_literal_removal_keeps_mu_but_counts_rule(self):
        # A literal over a one-value variable can never be satisfied, so
        # dropping it keeps minimal unsatisfiability even at occurrence
        # count 1.  Classification follows the occurrence counts and
        # still calls such members marginal when they are not hitting.
        F = marginal_example()
        lit = Literal(4, 0)
        assert F.table.domain_size(4) == 1 and F.count(lit) == 1
        clause = next(c for c in F.clauses() if lit in c)
        assert mu_after_removal(F, clause, lit)
        assert classify_mu1(F).category == "marginal"

    def test_saturated_category_matches_addition_test(self):
        rng = random.Random(12)
        members = saturated_seen = 0
        for _ in range(200):
            F = oracles.random_instance(rng, max_n=3, max_dom=3, max_c=5,
                                        allow_empty_clause=True, multi=False)
            if recognize_mu1(F).verdict != "mu1":
                continue
            members += 1
            saturated = classify_mu1(F).category == "saturated"
            assert saturated == is_saturated_mu(F), dict(F.items())
            saturated_seen += saturated
        assert members >= 25 and saturated_seen >= 10


class TestSaturate:
    def test_fixpoints(self):
        for F in (tree_image_example(), two_var_mu2(), value_units(3)):
            assert saturate(F) == F

    def test_boolean_chain(self):
        expected = MultiClauseSet(VariableTable({1: 2, 2: 2}), {
            Clause([(1, 0), (2, 0)]): 1,
            Clause([(1, 1), (2, 0)]): 1,
            Clause([(2, 1)]): 1,
        })
        assert saturate(boolean_chain()) == expected

    def test_marginal_example_saturates(self):
        F = marginal_example()
        G = saturate(F)
        assert is_saturated_mu(G)
        assert G.c == F.c and G.delta == 1
        assert classify_mu1(G).category == "saturated"
        for c in F.clauses():
            assert any(set(c) <= set(d) for d in G.clauses())

    @pytest.mark.parametrize("build", [
        matrix_example,                                   # satisfiable
        lambda: MultiClauseSet(VariableTable({1: 2}), {   # redundant unsat
            BOT: 1, Clause([(1, 0)]): 1}),
    ])
    def test_rejects_non_minimally_unsatisfiable(self, build):
        with pytest.raises(ValueError):
            saturate(build())

    def test_random_eliminated_images_saturate_back(self):
        for F in eliminated_images(random.Random(404), 25, 8):
            G = saturate(F)
            assert is_saturated_mu(G)
            assert G.c == F.c and G.delta == 1

    def test_decide_calls_stay_within_one_per_candidate_and_clause(self, monkeypatch):
        # The opening minimal-unsatisfiability test calls satdec's decide,
        # so only the widening queries are counted.
        F = horn_chain(12)
        calls = []

        def counting(G):
            calls.append(G)
            return decide(G)

        monkeypatch.setattr(musat, "decide", counting)
        saturate(F)
        bound = sum(sum(not C.has_var(v) for v in F.var_set()) + 1
                    for C in F.clauses())
        assert bound == 145 and len(calls) <= bound


@contextlib.contextmanager
def deciding_with(method):
    """Within the block, every ``decide`` call of satdec, musat and the
    oracles runs the given back-end."""
    fixed = functools.partial(decide, method=method)
    with pytest.MonkeyPatch.context() as patch:
        for module in (satdec, musat, oracles):
            patch.setattr(module, "decide", fixed)
        yield


class TestSaturationAgainstReference:
    """saturate and is_saturated_mu agree with the literal sweeps they
    replaced, and every saturated result checks as saturated."""

    def agree(self, F):
        """Check one input; whether saturation added literals."""
        saturated = is_saturated_mu(F)
        assert saturated == oracles.reference_is_saturated_mu(F), \
            dict(F.items())
        try:
            expected = oracles.reference_saturate(F)
        except ValueError:
            with pytest.raises(ValueError):
                saturate(F)
            return False
        G = saturate(F)
        assert G == expected, dict(F.items())
        if G == F:
            assert saturated
            return False
        assert is_saturated_mu(G)
        return True

    @pytest.mark.parametrize("build", [
        tree_image_example, two_var_mu2, lambda: value_units(3),
        marginal_example, intermediate_example, boolean_chain, matrix_example,
        lambda: MultiClauseSet(VariableTable({}), {BOT: 1}),
        lambda: MultiClauseSet(VariableTable({1: 2}), {}),
        lambda: MultiClauseSet(VariableTable({1: 2}), {BOT: 1, Clause([(1, 0)]): 1}),
    ])
    def test_fixtures(self, build):
        self.agree(build())

    def test_horn_chains(self):
        for n in range(4, 13):
            assert self.agree(horn_chain(n))

    def test_deciding_with_reaches_every_query(self, monkeypatch):
        # the MU layer and the references ask only the chosen back-end
        # inside the block, and "auto" (brute force here) after it
        used = []

        def spy(name):
            back_end = getattr(satdec, name)

            def counted(G):
                used.append(name)
                return back_end(G)
            monkeypatch.setattr(satdec, name, counted)

        for name in ("brute_force_sat", "sat_bounded_deficiency", "sat_fpt"):
            spy(name)
        F = two_var_mu2()
        for method, name in (("bounded", "sat_bounded_deficiency"),
                             ("fpt", "sat_fpt"), ("auto", "brute_force_sat")):
            used.clear()
            with deciding_with(method):
                assert is_saturated_mu(F)
                assert oracles.reference_is_saturated_mu(F)
            assert used and set(used) == {name}
        used.clear()
        assert is_saturated_mu(F) and set(used) == {"brute_force_sat"}

    @pytest.mark.parametrize("k, method", [
        (3, "auto"), (3, "bounded"), (3, "fpt"), (4, "auto"), (5, "auto"),
    ])
    def test_pigeonhole(self, k, method):
        with deciding_with(method):
            assert not self.agree(pigeonhole(k))

    @pytest.mark.parametrize("method", ["auto", "fpt"])
    def test_eliminated_images(self, method):
        with deciding_with(method):
            widened = sum(self.agree(F) for F in
                          eliminated_images(random.Random(404), 40, 8))
        assert widened >= 8


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(st.randoms(use_true_random=False), st.sampled_from(["auto", "bounded", "fpt"]))
def test_widening_is_the_backbone_of_the_other_clauses(rng, method):
    """Each clause's query yields the brute-force backbone of the other
    clauses on its candidate variables, and saturate's result takes no
    candidate literal in any clause without becoming satisfiable."""
    (F,) = eliminated_images(rng, 1, 6)
    assume(F.c > 1)  # the trivial tree, which hypothesis's random draws favour
    table, clauses = F.table, F.clauses()
    candidates = [v for v in sorted(F.var_set()) if table.domain_size(v) >= 2]
    with deciding_with(method):
        for idx, clause in enumerate(clauses):
            rest = F.with_clauses({c: 1 for c in clauses if c != clause})
            outside = [v for v in candidates if not clause.has_var(v)]
            models = oracles.brute_models(rest)
            expected = [(v, models[0][v]) for v in outside if v in rest.var_set()
                        and len({phi[v] for phi in models}) == 1]
            assert list(_backbone(rest, outside)) == expected
        G = saturate(F)
    for clause in G.clauses():
        rest = {c: 1 for c in G.clauses() if c != clause}
        for v in candidates:
            if clause.has_var(v):
                continue
            for e in table.domain(v):
                widened = Clause(tuple(clause) + ((v, e),))
                assert oracles.brute_satisfiable(G.with_clauses({**rest, widened: 1}))


class TestIsSaturatedMu:
    def test_frozen_cases(self):
        assert is_saturated_mu(tree_image_example())  # has 1-value variables
        assert is_saturated_mu(two_var_mu2())
        assert is_saturated_mu(value_units(3))
        assert is_saturated_mu(MultiClauseSet(VariableTable({}), {BOT: 1}))
        assert not is_saturated_mu(marginal_example())
        assert not is_saturated_mu(intermediate_example())
        assert not is_saturated_mu(boolean_chain())
        assert not is_saturated_mu(matrix_example())          # satisfiable
        assert not is_saturated_mu(
            MultiClauseSet(VariableTable({1: 2}), {}))        # no clauses


class TestStabilityAtLeast:
    def test_deficiency_two_example_breaks_at_one(self):
        F = two_var_mu2()
        assert stability_at_least(F, 0)
        assert not stability_at_least(F, 1)

    def test_zero_means_irredundant(self):
        redundant = MultiClauseSet(VariableTable({1: 2}),
                                   {BOT: 1, Clause([(1, 0)]): 1})
        assert not stability_at_least(redundant, 0)
        assert stability_at_least(redundant, -1)

    def test_unsatisfiable_hitting_sets_are_stable_at_any_depth(self):
        # Every restriction of an unsatisfiable hitting clause-set stays
        # minimally unsatisfiable, so stability holds up to (and past) n.
        small = tree_to_clause_set(N(1, [N(2, [LEAF, LEAF]), LEAF]))
        assert stability_at_least(small, small.n)
        assert stability_at_least(small, small.n + 3)
        for phi in oracles.partial_assignments(small.table, small.var_set(),
                                               max_vars=small.n):
            assert oracles.brute_is_minimally_unsatisfiable(apply(phi, small))

    def test_non_hitting_member_fails_somewhere(self):
        F = marginal_example()
        assert not stability_at_least(F, F.n)

    def test_against_brute_oracle(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(120):
            F = oracles.random_instance(rng, max_n=3, max_dom=3, max_c=4,
                                        allow_empty_clause=False, multi=False)
            if assignment_space(F) > 3_000:
                continue
            for k in (0, 1, 2):
                assert stability_at_least(F, k) == \
                    oracles.brute_stability_at_least(F, k), (dict(F.items()), k)
                checked += 1
        assert checked >= 150

    def test_boolean_mu_stability_one_is_saturation(self):
        # For boolean minimally unsatisfiable clause-sets, surviving every
        # single-variable restriction is the same as being saturated.
        assert not stability_at_least(boolean_chain(), 1)
        assert stability_at_least(saturate(boolean_chain()), 1)
        rng = random.Random(99)
        members = 0
        for _ in range(500):
            F = oracles.random_instance(rng, max_n=4, max_dom=2, max_c=6,
                                        allow_empty_clause=False, multi=False)
            if not oracles.brute_is_minimally_unsatisfiable(F):
                continue
            members += 1
            assert stability_at_least(F, 1) == is_saturated_mu(F), \
                dict(F.items())
        assert members >= 100


class TestDegreeMeasures:
    def test_frozen_values(self):
        assert degree_measures(tree_image_example()) == DegreeMeasures(1, 1)
        assert degree_measures(two_var_mu2()) == DegreeMeasures(2, 5)
        assert degree_measures(marginal_example()) == DegreeMeasures(1, 1)
        one = MultiClauseSet(VariableTable({1: 2}), {Clause([(1, 0)]): 1})
        assert degree_measures(one) == DegreeMeasures(1, 1)

    @pytest.mark.parametrize("build", [
        lambda: MultiClauseSet(VariableTable({}), {BOT: 1}),
        lambda: MultiClauseSet(VariableTable({1: 2}), {}),
    ])
    def test_needs_an_occurring_variable(self, build):
        with pytest.raises(ValueError):
            degree_measures(build())

    def test_members_with_variables_have_min_max_value_degree_one(self):
        # A nontrivial member always keeps a variable all of whose values
        # occur exactly once (that is what recognition eliminates).
        rng = random.Random(5)
        members = 0
        for _ in range(700):
            F = oracles.random_instance(rng, max_n=3, max_dom=3, max_c=5,
                                        allow_empty_clause=False, multi=False)
            if F.n == 0 or recognize_mu1(F).verdict != "mu1":
                continue
            members += 1
            assert degree_measures(F).mmvd == 1, dict(F.items())
        assert members >= 40

    def test_stable_unsatisfiable_sets_respect_deficiency_bound(self):
        # Unsatisfiable and stable under single-variable restrictions
        # forces a variable whose busiest value occurs at most delta times.
        F = two_var_mu2()
        assert degree_measures(F).mmvd == 2 == F.delta  # bound is tight
        rng = random.Random(6)
        cases = 0
        for _ in range(350):
            F = oracles.random_instance(rng, max_n=3, max_dom=3, max_c=5,
                                        allow_empty_clause=False, multi=False)
            if F.n == 0 or assignment_space(F) > 3_000:
                continue
            if oracles.brute_satisfiable(F) or not stability_at_least(F, 1):
                continue
            cases += 1
            assert degree_measures(F).mmvd <= F.delta, dict(F.items())
        assert cases >= 40


class TestCrossModuleFacts:
    def test_members_sit_at_the_matching_bound(self):
        for F in (tree_image_example(), two_var_mu2(), marginal_example(),
                  boolean_chain()):
            assert is_minimally_unsatisfiable(F)
            assert F.delta >= 1
            assert max_deficiency(F).value == F.delta
            assert is_matching_lean(F)

    def test_members_are_exactly_lean_unsatisfiable_at_deficiency_one(self):
        rng = random.Random(21)
        checked = members = 0
        for _ in range(500):
            F = oracles.random_instance(rng, max_n=3, max_dom=3, max_c=5,
                                        allow_empty_clause=True, multi=False)
            if F.delta != 1 or assignment_space(F) > 20_000:
                continue
            expect = (is_matching_lean(F)
                      and not oracles.brute_satisfiable(F))
            got = recognize_mu1(F).verdict == "mu1"
            assert got == expect, dict(F.items())
            checked += 1
            members += got
        assert checked >= 100 and members >= 30

    def test_unsatisfiable_regular_hitting_sets_are_the_saturated_members(self):
        instances = [tree_image_example(), value_units(4),
                     tree_to_clause_set(random_tree(random.Random(8), 10))]
        for F in instances:
            facts = classify_hitting(F)
            assert facts.hitting and facts.regular == 1
            assert not hitting_sat(F)
            assert F.delta == 1
            assert classify_mu1(F).category == "saturated"

    def test_regular_hitting_deficiency_never_exceeds_one(self):
        # Holds for satisfiable ones too.
        assert classify_hitting(matrix_example()).regular == 1
        assert matrix_example().delta == 1
        rng = random.Random(50)
        seen = 0
        for _ in range(250):
            tree = random_tree(rng, 10)
            F = tree_to_clause_set(tree)
            facts = classify_hitting(F)
            if facts.regular is not None:
                seen += 1
                assert F.delta <= 1
        assert seen >= 200
