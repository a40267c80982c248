import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from gcls.core import (
    BOT,
    Clause,
    MultiClauseSet,
    PartialAssignment,
    VariableTable,
    apply,
    falsifying_count,
)
from gcls.reductions import subsumption_elimination
from gcls.structure import (
    ConflictMatrix,
    Inertia,
    Multipartition,
    _spanning_clauses,
    classify_hitting,
    clause_rows,
    conflict_inertia,
    conflict_matrix,
    deficiency_bound_check,
    hermitian_rank,
    hitting_sat,
)
from gcls.encode import complete_graph as complete_hypergraph
from gcls.encode import hypergraph_coloring, vdw_instance
from gcls.musat import tree_to_clause_set
from gcls.translate import nested

import oracles
from test_matching import matrix_example, two_unit_copies


def tree_image_example():
    """Seven clauses that pairwise clash in exactly one variable.

    Variable 1 (ternary) splits the clauses into three branches; each branch
    is completed by its own variables (3 ternary, 2 and 6 binary, 4 and 5 of
    domain size one).  Unsatisfiable with deficiency exactly 1.
    """
    table = VariableTable({1: 3, 2: 2, 3: 3, 4: 1, 5: 1, 6: 2})
    return MultiClauseSet(table, [
        Clause([(1, 0), (2, 0)]),
        Clause([(1, 0), (2, 1), (5, 0)]),
        Clause([(1, 1), (3, 0)]),
        Clause([(1, 1), (3, 1)]),
        Clause([(1, 1), (3, 2)]),
        Clause([(1, 2), (4, 0), (6, 0)]),
        Clause([(1, 2), (4, 0), (6, 1)]),
    ])


def bipartite_adjacency():
    """Adjacency matrix of a bipartite graph on {1,2,3} x {4,5,6}."""
    return ConflictMatrix([
        [0, 0, 0, 1, 1, 0],
        [0, 0, 0, 1, 1, 1],
        [0, 0, 0, 0, 1, 1],
        [1, 1, 0, 0, 0, 0],
        [1, 1, 1, 0, 0, 0],
        [0, 1, 1, 0, 0, 0],
    ])


def complete_graph(m, weight=1):
    """weight * (all-ones minus identity), the conflict matrix of an
    m-clause 1-regular (or weight-regular) hitting clause-set."""
    return ConflictMatrix([[0 if i == j else weight for j in range(m)]
                           for i in range(m)])


def value_units(k):
    """All unit clauses over a single variable with domain size k."""
    table = VariableTable({1: k})
    return MultiClauseSet(table, [Clause([(1, e)]) for e in range(k)])


def selector_family(rng, k=None, max_extra=3, max_block=3, units=False):
    """Random multihitting instance built around a selector variable.

    Variable 1 takes one value per block; every clause of block e carries the
    literal (1, e), so clauses from different blocks always clash there.
    Within a block all clauses draw their remaining literals from one fixed
    value vector, so they never clash with each other.  With units=True each
    block also contains the bare selector unit, which makes the whole set
    unsatisfiable (every assignment falsifies the unit of its selector value).
    """
    k = k if k is not None else rng.randint(1, 3)
    extra = rng.randint(1, max_extra)
    table = VariableTable({1: max(k, 2),
                           **{v: rng.randint(2, 3) for v in range(2, extra + 2)}})
    clauses = set()
    for e in range(k):
        tau = {v: rng.randrange(table.domain_size(v)) for v in range(2, extra + 2)}
        if units:
            clauses.add(Clause([(1, e)]))
        for _ in range(rng.randint(1, max_block)):
            tail = rng.sample(sorted(tau), rng.randint(0 if units else 1, extra))
            clauses.add(Clause([(1, e)] + [(v, tau[v]) for v in tail]))
    return MultiClauseSet(table, {c: 1 for c in clauses})


def differential_sample():
    """The shared sample of the differential tests against the references
    in oracles: seeded random instances (multi and deduplicated), MU(1)
    tree images, chain images and nested boolean images."""
    from test_musat import chain_tree, random_tree  # test_musat imports this module

    rng = random.Random(830)
    for _ in range(320):
        F = oracles.random_instance(rng, max_n=6, max_dom=4, max_c=12)
        yield F
        yield F.dedup()
    for _ in range(40):
        yield tree_to_clause_set(random_tree(rng, 8))
    for depth in (1, 5, 12):
        yield tree_to_clause_set(chain_tree(depth))
    for _ in range(60):
        yield nested(oracles.random_instance(rng, max_n=4, max_dom=4, max_c=8)).boolean_cnf


def random_symmetric(rng, m, zero_diagonal=False):
    """A random symmetric m x m matrix of small rationals."""
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            if i == j and zero_diagonal:
                continue
            x = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))
            if rng.random() < 0.3:
                x = Fraction(0)
            rows[i][j] = rows[j][i] = x
    return rows


def clash_pairs(C, D):
    """Independent conflict count: clashing literal pairs, one per variable."""
    return sum(1 for x in C for y in D if x.var == y.var and x.value != y.value)


def nonclash_is_transitive(rows):
    """Multihitting reference: 'does not clash with' is an equivalence
    relation on the clause occurrences."""
    m = len(rows)
    nc = [[i == j or clash_pairs(rows[i], rows[j]) == 0 for j in range(m)]
          for i in range(m)]
    return all(nc[i][k]
               for i in range(m) for j in range(m) for k in range(m)
               if nc[i][j] and nc[j][k])


def numpy_signature(rows):
    if not rows:
        return (0, 0)
    eigs = np.linalg.eigvalsh(np.array(rows, dtype=float))
    return int((eigs > 1e-9).sum()), int((eigs < -1e-9).sum())


class TestConflictMatrix:
    def test_single_clause(self):
        table = VariableTable({1: 2})
        F = MultiClauseSet(table, [Clause([(1, 0)])])
        assert conflict_matrix(F).rows() == ((0,),)

    def test_three_clause_counts(self):
        table = VariableTable({1: 3, 2: 2})
        a = Clause([(1, 0), (2, 0)])
        b = Clause([(1, 1), (2, 0)])
        c = Clause([(1, 2), (2, 1)])
        F = MultiClauseSet(table, [a, b, c])
        rows = clause_rows(F)
        M = conflict_matrix(F)
        ia, ib, ic = rows.index(a), rows.index(b), rows.index(c)
        assert M.entry(ia, ib) == 1          # variable 1 only
        assert M.entry(ia, ic) == 2          # both variables
        assert M.entry(ib, ic) == 2
        assert all(M.entry(i, i) == 0 for i in range(3))

    def test_copies_do_not_clash(self):
        F = two_unit_copies()
        assert conflict_matrix(F).rows() == ((0, 0), (0, 0))

    def test_rows_expand_multiplicities_adjacently(self):
        table = VariableTable({1: 2})
        u = Clause([(1, 0)])
        w = Clause([(1, 1)])
        F = MultiClauseSet(table, {u: 3, w: 1})
        rows = clause_rows(F)
        assert len(rows) == F.c == 4
        assert rows.count(u) == 3
        first = rows.index(u)
        assert rows[first:first + 3] == (u, u, u)

    def test_entries_match_literal_pair_oracle(self):
        rng = random.Random(810)
        for _ in range(150):
            F = oracles.random_instance(rng, max_n=5, max_c=8)
            rows = clause_rows(F)
            M = conflict_matrix(F)
            for i in range(M.order):
                for j in range(M.order):
                    assert M.entry(i, j) == (0 if i == j
                                             else clash_pairs(rows[i], rows[j]))

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            ConflictMatrix([[0, 1]])
        with pytest.raises(ValueError, match="symmetric"):
            ConflictMatrix([[0, 1], [2, 0]])
        with pytest.raises(ValueError, match="diagonal"):
            ConflictMatrix([[1, 0], [0, 0]])
        with pytest.raises(ValueError, match="negative"):
            ConflictMatrix([[0, -1], [-1, 0]])

    def test_rows_equality_hash_and_repr(self):
        M = ConflictMatrix([[0, 2], [2, 0]])
        same = ConflictMatrix(((0, 2), (2, 0)))
        assert (M[0], M[1]) == M.rows() == ((0, 2), (2, 0))
        assert M == same and hash(M) == hash(same) and len({M, same}) == 1
        assert repr(M) == "ConflictMatrix([[0, 2], [2, 0]])"
        assert M.__eq__(M.rows()) is NotImplemented
        assert M != M.rows()

    def test_built_matrix_passes_the_public_checks(self):
        # conflict_matrix skips the checks of the public constructor; a
        # rebuild through it must accept the rows and give an equal matrix.
        rng = random.Random(824)
        for _ in range(100):
            F = oracles.random_instance(rng, max_n=5, max_c=8)
            M = conflict_matrix(F)
            assert ConflictMatrix(M.rows()) == M
            assert all(type(row) is tuple for row in M.rows())

    def test_nested_translation_preserves_conflicts(self):
        # Entry-for-entry under the clause correspondence C -> image(C); the
        # canonical row orders of source and image may differ, so the displayed
        # matrices are permutations of one another rather than equal.
        rng = random.Random(811)
        for _ in range(80):
            F = oracles.random_instance(rng, max_n=4, max_dom=4, max_c=6)
            tr = nested(F)
            src = clause_rows(F)
            img = []
            for C in src:
                lits = []
                for lit in C:
                    lits.extend(tr.gadgets[lit.var].by_value[lit.value])
                img.append(Clause(lits))
            for i in range(len(src)):
                for j in range(len(src)):
                    assert clash_pairs(src[i], src[j]) == clash_pairs(img[i], img[j])


class TestClassifyHitting:
    def test_tree_image_is_one_regular_hitting(self):
        F = tree_image_example()
        M = conflict_matrix(F)
        assert all(M.entry(i, j) == 1
                   for i in range(7) for j in range(7) if i != j)
        cls = classify_hitting(F)
        assert cls.hitting
        assert cls.hitting_degree == 1
        assert cls.regular == 1
        assert cls.multihitting
        assert cls.multipartition.blocks == tuple((i,) for i in range(7))
        assert cls.multipartition.k == F.c  # hitting iff c-multihitting

    def test_matrix_example_is_one_regular_hitting(self):
        cls = classify_hitting(matrix_example())
        assert (cls.hitting, cls.hitting_degree, cls.regular) == (True, 1, 1)

    def test_copies_break_hitting_but_not_multihitting(self):
        cls = classify_hitting(two_unit_copies())
        assert not cls.hitting
        assert cls.regular == 0
        assert cls.multihitting
        assert cls.multipartition.blocks == ((0, 1),)

    def test_value_units_single_variable(self):
        cls = classify_hitting(value_units(3))
        assert cls.hitting and cls.regular == 1
        assert cls.multipartition.blocks == ((0,), (1,), (2,))

    def test_units_on_two_variables_are_not_multihitting(self):
        # (v1!=0) and (v2!=1) have no variable in common, so they do not
        # clash; grouping units by value can therefore not be a
        # multipartition once a second variable is involved.
        table = VariableTable({1: 2, 2: 2})
        F = MultiClauseSet(table, [Clause([(v, e)])
                                   for v in (1, 2) for e in range(2)])
        cls = classify_hitting(F)
        assert not cls.hitting
        assert not cls.multihitting
        assert cls.multipartition is None

    def test_subsumption_chain_blocks(self):
        table = VariableTable({1: 2, 2: 2})
        u0 = Clause([(1, 0)])
        s0 = Clause([(1, 0), (2, 0)])
        u1 = Clause([(1, 1)])
        F = MultiClauseSet(table, [u0, s0, u1])
        cls = classify_hitting(F)
        assert cls.multihitting and not cls.hitting
        rows = clause_rows(F)
        blocks = [{rows[i] for i in b} for b in cls.multipartition.blocks]
        assert {u0, s0} in blocks and {u1} in blocks

    def test_trivial_sizes(self):
        top = MultiClauseSet(VariableTable({}), [])
        cls = classify_hitting(top)
        assert cls == (True, None, 0, True, Multipartition(()))
        bot = MultiClauseSet(VariableTable({}), [BOT])
        cls = classify_hitting(bot)
        assert cls.hitting and cls.hitting_degree is None and cls.regular == 0
        assert cls.multipartition.blocks == ((0,),)

    def test_selector_families_recover_their_blocks(self):
        rng = random.Random(812)
        for _ in range(120):
            F = selector_family(rng)
            cls = classify_hitting(F)
            assert cls.multihitting
            rows = clause_rows(F)
            by_selector = {}
            for i, C in enumerate(rows):
                by_selector.setdefault(C.value_on(1), []).append(i)
            expected = tuple(sorted(tuple(b) for b in by_selector.values()))
            assert cls.multipartition.blocks == expected

    def test_flags_against_brute_oracles(self):
        rng = random.Random(813)
        multihitting_seen = hitting_seen = 0
        for _ in range(300):
            F = oracles.random_instance(rng, max_n=4, max_c=6)
            rows = clause_rows(F)
            cls = classify_hitting(F)
            pairs = [(i, j) for i in range(len(rows))
                     for j in range(len(rows)) if i < j]
            assert cls.hitting == all(clash_pairs(rows[i], rows[j]) for i, j in pairs)
            assert cls.multihitting == nonclash_is_transitive(rows)
            counts = {clash_pairs(rows[i], rows[j]) for i, j in pairs}
            assert cls.regular == (counts.pop() if len(counts) == 1
                                   else 0 if not counts else None)
            multihitting_seen += cls.multihitting
            hitting_seen += cls.hitting and len(rows) >= 2
        assert multihitting_seen >= 40
        assert hitting_seen >= 5

    def test_matches_the_pairwise_reference(self):
        rng = random.Random(827)
        samples = list(differential_sample())
        samples += [selector_family(rng, units=rng.random() < 0.5)
                    for _ in range(100)]
        seen = Counter()
        for F in samples:
            cls = classify_hitting(F)
            assert cls == oracles.reference_classify_hitting(F)
            seen["hitting"] += cls.hitting and F.c >= 2
            seen["multihitting"] += cls.multihitting and not cls.hitting
            seen["neither"] += not cls.multihitting
            seen["irregular"] += cls.regular is None
            seen["regular above 1"] += (cls.regular or 0) > 1
        assert min(seen.values()) >= 5, seen

    def test_multipartition_blocks_partition_the_rows(self):
        rng = random.Random(814)
        for _ in range(100):
            F = selector_family(rng, units=rng.random() < 0.5)
            cls = classify_hitting(F)
            flat = sorted(i for b in cls.multipartition.blocks for i in b)
            assert flat == list(range(F.c))


class TestHittingSat:
    def test_tree_image_counts_cover_the_space(self):
        F = tree_image_example()
        V = sorted(F.var_set())
        covered = sum(falsifying_count(F.table, C, V) for C in F.clauses())
        assert covered == 36 == 3 * 2 * 3 * 1 * 1 * 2
        assert hitting_sat(F) is False

    def test_matrix_example_leaves_space_uncovered(self):
        F = matrix_example()
        V = sorted(F.var_set())
        covered = sum(falsifying_count(F.table, C, V) for C in F.clauses())
        assert covered == 176 < 2 ** 8
        assert hitting_sat(F) is True

    def test_trivial_clause_sets(self):
        assert hitting_sat(MultiClauseSet(VariableTable({}), [])) is True
        assert hitting_sat(MultiClauseSet(VariableTable({}), [BOT])) is False

    def test_rejects_non_hitting(self):
        with pytest.raises(ValueError, match="hitting"):
            hitting_sat(two_unit_copies())
        table = VariableTable({1: 2, 2: 2})
        F = MultiClauseSet(table, [Clause([(1, 0)]), Clause([(2, 0)])])
        with pytest.raises(ValueError, match="hitting"):
            hitting_sat(F)

    def test_agrees_with_brute_force(self):
        rng = random.Random(815)
        checked = unsat = 0
        for _ in range(2000):
            F = oracles.random_instance(rng, max_n=4, max_dom=3, max_c=5)
            if not classify_hitting(F).hitting:
                continue
            checked += 1
            expected = oracles.brute_satisfiable(F)
            assert hitting_sat(F) == expected
            unsat += not expected
        assert checked >= 200
        assert unsat >= 20

    def test_counts_use_arbitrary_precision(self):
        huge = 10 ** 30
        table = VariableTable({1: huge, 2: 2})
        unsat = MultiClauseSet(table, [Clause([(2, 0)]), Clause([(2, 1)])])
        assert hitting_sat(unsat) is False
        sat = MultiClauseSet(table, [Clause([(2, 0)]),
                                     Clause([(2, 1), (1, 5)])])
        assert hitting_sat(sat) is True


class TestHermitianRank:
    def test_bipartite_adjacency_has_balanced_signature(self):
        assert hermitian_rank(bipartite_adjacency()) == Inertia(3, 3, 3, 3)

    def test_zero_matrices(self):
        for m in (0, 1, 5):
            assert hermitian_rank([[0] * m for _ in range(m)]) == Inertia(0, 0, 0, m)

    def test_complete_graph_defect_is_one(self):
        # weight*(J - I) is a rank-one perturbation of a negative multiple of
        # the identity: one positive eigenvalue weight*(m-1), and -weight with
        # multiplicity m-1.
        for weight in (1, 2, 3):
            for m in range(2, 8):
                I = hermitian_rank(complete_graph(m, weight))
                assert I == Inertia(1, m - 1, m - 1, 1)

    def test_diagonal_matrix(self):
        rows = [[0] * 4 for _ in range(4)]
        for i, d in enumerate((2, -3, 0, 5)):
            rows[i][i] = d
        assert hermitian_rank(rows) == Inertia(2, 1, 2, 2)

    def test_antidiagonal_pair(self):
        for b in (1, -2, Fraction(3, 7)):
            assert hermitian_rank([[0, b], [b, 0]]) == Inertia(1, 1, 1, 1)

    def test_rational_entries(self):
        rows = [[Fraction(1, 2), Fraction(1, 3)],
                [Fraction(1, 3), Fraction(2, 9)]]
        # determinant 1/9 - 1/9 = 0, trace positive: signature (1, 0).
        assert hermitian_rank(rows) == Inertia(1, 0, 1, 1)

    def test_negation_swaps_signature(self):
        rng = random.Random(816)
        for _ in range(60):
            F = oracles.random_instance(rng, max_n=4, max_c=6)
            rows = conflict_matrix(F).rows()
            plus, minus, h, hdef = hermitian_rank(rows)
            negated = [[-x for x in row] for row in rows]
            assert hermitian_rank(negated) == Inertia(minus, plus, h, hdef)
            doubled = [[3 * x for x in row] for row in rows]
            assert hermitian_rank(doubled) == Inertia(plus, minus, h, hdef)

    def test_permutation_invariance(self):
        rng = random.Random(817)
        for _ in range(60):
            F = oracles.random_instance(rng, max_n=4, max_c=6)
            rows = conflict_matrix(F).rows()
            m = len(rows)
            perm = list(range(m))
            rng.shuffle(perm)
            shuffled = [[rows[perm[i]][perm[j]] for j in range(m)] for i in range(m)]
            assert hermitian_rank(shuffled) == hermitian_rank(rows)

    def test_signature_matches_floating_point_eigenvalues(self):
        # Nonzero eigenvalues of small-integer symmetric matrices are roots of
        # monic integer polynomials with bounded coefficients, hence bounded
        # away from zero far beyond the 1e-9 threshold used here.
        rng = random.Random(818)
        for _ in range(200):
            F = oracles.random_instance(rng, max_n=5, max_c=7)
            rows = conflict_matrix(F).rows()
            mine = hermitian_rank(rows)
            assert (mine.n_plus, mine.n_minus) == numpy_signature(rows)
        for _ in range(200):
            m = rng.randint(1, 7)
            rows = [[0] * m for _ in range(m)]
            for i in range(m):
                for j in range(i, m):
                    rows[i][j] = rows[j][i] = rng.randint(-4, 4)
            mine = hermitian_rank(rows)
            assert (mine.n_plus, mine.n_minus) == numpy_signature(rows)
            assert mine.h == max(mine.n_plus, mine.n_minus)
            assert mine.hdef == m - mine.h

    def test_integer_kernel_matches_the_fraction_reference(self):
        rng = random.Random(825)
        zero_diagonal_pivots = 0
        for trial in range(400):
            m = rng.randint(0, 8)
            rows = random_symmetric(rng, m, zero_diagonal=trial % 2 == 0)
            expected = oracles.reference_hermitian_rank(rows)
            assert hermitian_rank(rows) == expected
            zero_diagonal_pivots += trial % 2 == 0 and expected.n_plus > 0
        assert zero_diagonal_pivots >= 120

    def test_conflict_matrices_match_the_fraction_reference(self):
        for F in differential_sample():
            M = conflict_matrix(F)
            assert hermitian_rank(M) == oracles.reference_hermitian_rank(M)

    def test_repeated_two_by_two_pivots(self):
        # A shuffled direct sum of k blocks [[0, b], [b, 0]]: every pivot
        # is 2x2, and each contributes one positive and one negative value.
        rng = random.Random(828)
        for k in range(1, 6):
            m = 2 * k
            rows = [[0] * m for _ in range(m)]
            for t in range(k):
                b = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 5)))
                rows[2 * t][2 * t + 1] = rows[2 * t + 1][2 * t] = b
            perm = list(range(m))
            rng.shuffle(perm)
            shuffled = [[rows[perm[i]][perm[j]] for j in range(m)] for i in range(m)]
            assert hermitian_rank(shuffled) == Inertia(k, k, k, k)

    def test_conflict_matrix_and_raw_rows_agree(self):
        M = bipartite_adjacency()
        assert hermitian_rank(M) == hermitian_rank(M.rows())

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_rank([[0, 1]])
        with pytest.raises(ValueError, match="symmetric"):
            hermitian_rank([[0, 1], [2, 0]])


class TestConflictInertia:
    def test_matches_the_full_matrix_reference(self):
        for F in differential_sample():
            expected = oracles.reference_hermitian_rank(conflict_matrix(F))
            assert conflict_inertia(F) == expected

    def test_chosen_clauses_are_a_basis_of_the_literal_row_space(self):
        rng = random.Random(829)
        for _ in range(150):
            F = oracles.random_instance(rng, max_n=5, max_dom=3, max_c=10)
            literals = sorted({lit for C in F.clauses() for lit in C})

            def rank(clauses):
                U = np.array([[lit in C for lit in literals] for C in clauses],
                             dtype=float)
                return int(np.linalg.matrix_rank(U)) if U.size else 0

            chosen = _spanning_clauses(F)
            assert len(set(chosen)) == len(chosen) == rank(chosen)
            assert rank(chosen) == rank(clause_rows(F))

    def test_trivial_clause_sets(self):
        assert conflict_inertia(MultiClauseSet(VariableTable({}), [])) == Inertia(0, 0, 0, 0)
        bot = MultiClauseSet(VariableTable({}), {BOT: 3})
        assert conflict_inertia(bot) == Inertia(0, 0, 0, 3)
        assert conflict_inertia(two_unit_copies()) == Inertia(0, 0, 0, 2)

    def test_examples_checked_against_the_reference(self):
        # Each value was checked against oracles.reference_hermitian_rank on
        # the full conflict matrix (c = 114, 196 and 270), which takes
        # seconds per instance; the literal incidence has rank at most 60.
        cases = [
            (tree_image_example(), Inertia(1, 6, 6, 1)),
            (vdw_instance(2, 4, 20), Inertia(20, 20, 20, 94)),
            (hypergraph_coloring(complete_hypergraph(8), 7), Inertia(8, 48, 48, 148)),
            (vdw_instance(3, 3, 20), Inertia(20, 40, 40, 230)),
        ]
        for F, expected in cases:
            assert conflict_inertia(F) == expected


class TestDeficiencyBound:
    def test_always_holds_on_random_instances(self):
        rng = random.Random(819)
        for _ in range(200):
            F = oracles.random_instance(rng, max_n=5, max_c=8)
            assert deficiency_bound_check(F)
            assert F.delta <= hermitian_rank(conflict_matrix(F)).hdef

    def test_tree_image_attains_the_bound(self):
        F = tree_image_example()
        assert F.delta == 1
        assert hermitian_rank(conflict_matrix(F)).hdef == 1
        assert deficiency_bound_check(F)

    def test_matrix_example_attains_the_bound(self):
        F = matrix_example()
        assert F.delta == 1
        assert hermitian_rank(conflict_matrix(F)).hdef == 1

    def test_unsat_regular_hitting_has_deficiency_one(self):
        # A regular hitting clause-set has hermitian defect 1, so an
        # unsatisfiable one (minimally unsatisfiable, deficiency >= 1) has
        # deficiency exactly 1.
        F = tree_image_example()
        cls = classify_hitting(F)
        assert cls.hitting and cls.regular == 1
        assert hitting_sat(F) is False
        assert F.delta == 1


class TestMultihittingCores:
    def equivalent(self, F, G):
        V = F.var_set() | G.var_set()
        return all(oracles.satisfies(phi, F) == oracles.satisfies(phi, G)
                   for phi in oracles.total_assignments(F.table, V))

    def test_implied_clauses_have_strict_subsets(self):
        # In a multihitting clause-set without domain-one variables, a clause
        # implied by the others is always subsumed by one of them.
        rng = random.Random(820)
        implied_seen = 0
        for _ in range(150):
            F = selector_family(rng, units=rng.random() < 0.5)
            if not classify_hitting(F).multihitting:
                continue
            for C in F.clauses():
                rest = F.with_clauses({D: 1 for D in F.clauses() if D != C})
                if oracles.brute_implies(rest, C):
                    implied_seen += 1
                    assert any(D < C for D in rest.clauses())
        assert implied_seen >= 30

    def test_subsumption_elimination_is_the_unique_core(self):
        rng = random.Random(821)
        unsat_seen = 0
        for _ in range(80):
            F = selector_family(rng, max_extra=2, max_block=2,
                                units=rng.random() < 0.7)
            core = subsumption_elimination(F)
            assert self.equivalent(F, core)
            assert oracles.brute_is_irredundant(core)
            if F.c <= 6 and not oracles.brute_satisfiable(F):
                unsat_seen += 1
                mus = [G for G in oracles.sub_multi_clause_sets(F)
                       if oracles.brute_is_minimally_unsatisfiable(G)]
                assert mus == [core]
        assert unsat_seen >= 10

    def test_boolean_chain_core(self):
        table = VariableTable({1: 2, 2: 2})
        F = MultiClauseSet(table, [
            Clause([(1, 0)]),
            Clause([(1, 0), (2, 0)]),
            Clause([(1, 1)]),
            Clause([(1, 1), (2, 1)]),
        ])
        assert classify_hitting(F).multihitting
        assert not oracles.brute_satisfiable(F)
        core = subsumption_elimination(F)
        assert core.clauses() == (Clause([(1, 0)]), Clause([(1, 1)]))
        assert oracles.brute_is_minimally_unsatisfiable(core)

    def test_wide_domains_in_bihitting_sets_are_pure(self):
        # A variable occurring with all of its d >= 3 values would put a
        # d-clique into the conflict graph, which a complete bipartite graph
        # cannot contain; so such variables keep at least one unused value.
        rng = random.Random(822)
        wide_seen = 0
        for _ in range(120):
            F = selector_family(rng, k=2)
            assert classify_hitting(F).multipartition.k <= 2
            for v in F.var_set():
                if F.table.domain_size(v) >= 3:
                    wide_seen += 1
                    assert min(F.count((v, e)) for e in F.table.domain(v)) == 0
        assert wide_seen >= 30

    def test_hitting_sets_stay_irredundant_under_assignments(self):
        rng = random.Random(823)
        for F in (tree_image_example(), matrix_example()):
            assert classify_hitting(F).hitting
            for phi in itertools.islice(
                    oracles.partial_assignments(F.table, F.var_set(), max_vars=2),
                    0, None, 7):
                G = apply(phi, F)
                if G.clauses() and BOT not in G:
                    assert oracles.brute_is_irredundant(G)
