"""Brute-force reference implementations used to cross-check the library.

Everything here works by exhaustive enumeration straight from definitions and
deliberately avoids the library's own algorithms (the only shared code is the
core data model).  Keep it that way: these are the independent side of every
two-route check in the test-suite.  The exceptions are the last sections:
earlier library versions of replaced algorithms, kept verbatim as references
for the code that replaced them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from gcls.cli import DimacsFile, _mapping_comments
from gcls.core import (
    BOT,
    EMPTY_ASSIGNMENT,
    Clause,
    Literal,
    MultiClauseSet,
    PartialAssignment,
    VariableTable,
    apply,
    assign,
    compose,
    measures,
    restrict,
    touched,
)
from gcls.matching import (
    IncidenceGraph,
    Surplus,
    matching_satisfying_assignment,
    max_deficiency,
    quasi_maximal_matching_autarky,
)
from gcls.reductions import (
    ForcedValueStep,
    lift_through_steps,
    s_reduction_with_log,
)
from gcls.satdec import (
    FptResult,
    SatResult,
    decide,
    is_autarky,
    is_minimally_unsatisfiable,
)
from gcls.structure import (
    ConflictMatrix,
    HittingClassification,
    Inertia,
    Multipartition,
    conflict_matrix,
)
from gcls.translate import (
    VariableGadget,
    direct_weak,
    lift_assignment,
)


def total_assignments(table: VariableTable, variables):
    """All total assignments over the given variables."""
    variables = sorted(variables)
    domains = [table.domain(v) for v in variables]
    for combo in itertools.product(*domains):
        yield PartialAssignment(zip(variables, combo))


def partial_assignments(table: VariableTable, variables, max_vars=None):
    """All partial assignments over subsets of the given variables."""
    variables = sorted(variables)
    limit = len(variables) if max_vars is None else min(max_vars, len(variables))
    for k in range(limit + 1):
        for subset in itertools.combinations(variables, k):
            yield from total_assignments(table, subset)


def satisfies(phi: PartialAssignment, F: MultiClauseSet) -> bool:
    return all(phi.satisfies_clause(c) for c in F.clauses())


def brute_satisfiable(F: MultiClauseSet) -> bool:
    return any(satisfies(phi, F) for phi in total_assignments(F.table, F.var_set()))


def brute_models(F: MultiClauseSet):
    return [phi for phi in total_assignments(F.table, F.var_set()) if satisfies(phi, F)]


def sub_multi_clause_sets(F: MultiClauseSet):
    """All sub-multi-clause-sets of F (every multiplicity 0..F(C))."""
    items = F.items()
    ranges = [range(m + 1) for _, m in items]
    for mults in itertools.product(*ranges):
        yield F.with_clauses({c: k for (c, _), k in zip(items, mults) if k})


def brute_max_deficiency(F: MultiClauseSet) -> int:
    """max delta over all sub-multi-clause-sets, counted without building them."""
    items = F.items()
    best = 0
    for mults in itertools.product(*(range(m + 1) for _, m in items)):
        chosen = [(c, k) for (c, _), k in zip(items, mults) if k]
        variables = {lit.var for c, _ in chosen for lit in c}
        delta = (sum(k for _, k in chosen)
                 - sum(F.table.domain_size(v) - 1 for v in variables))
        best = max(best, delta)
    return best


def brute_surplus(F: MultiClauseSet) -> int:
    variables = sorted(F.var_set())
    if not variables:
        return 0
    best = None
    for k in range(1, len(variables) + 1):
        for V in itertools.combinations(variables, k):
            d = restrict(F, V).delta
            if best is None or d < best:
                best = d
    return best


# -- matchings, straight from the incidence definition -----------------------


def incidence_edges(F: MultiClauseSet):
    """Edges of the clause/variable-copy incidence graph of F.

    Left nodes: (clause index, occurrence); right nodes: (variable, copy) with
    domain_size - 1 copies per occurring variable.
    """
    edges = {}
    clause_list = []
    for clause, mult in F.items():
        for occ in range(mult):
            node = (len(clause_list), occ)
            clause_list.append((node, clause))
    for node, clause in clause_list:
        adj = []
        for lit in sorted(clause):
            for copy in range(F.table.domain_size(lit.var) - 1):
                adj.append((lit.var, copy))
        edges[node] = adj
    return edges


def kuhn_maximum_matching(adjacency) -> int:
    """Size of a maximum matching, by simple augmenting-path search."""
    match_right = {}

    def try_augment(left, seen):
        for right in adjacency[left]:
            if right in seen:
                continue
            seen.add(right)
            if right not in match_right or try_augment(match_right[right], seen):
                match_right[right] = left
                return True
        return False

    size = 0
    for left in adjacency:
        if try_augment(left, set()):
            size += 1
    return size


def brute_matching_satisfiable(F: MultiClauseSet) -> bool:
    return kuhn_maximum_matching(incidence_edges(F)) == F.c


def brute_is_matching_satisfying(phi: PartialAssignment, F: MultiClauseSet) -> bool:
    """phi satisfies F and the satisfied-literal incidence subgraph covers F."""
    if not satisfies(phi, F):
        return False
    edges = {}
    idx = 0
    for clause, mult in F.items():
        adj = []
        for lit in sorted(clause):
            if phi.satisfies_literal(lit):
                for copy in range(F.table.domain_size(lit.var) - 1):
                    adj.append((lit.var, copy))
        for occ in range(mult):
            edges[(idx, occ)] = adj
        idx += 1
    return kuhn_maximum_matching(edges) == F.c


def brute_is_matching_autarky(phi: PartialAssignment, F: MultiClauseSet) -> bool:
    # phi must satisfy every clause it touches; checking that first on F
    # itself skips building the restriction for most phi
    if not all(phi.satisfies_clause(c) for c in F.clauses() if c.variables & phi.keys()):
        return False
    return brute_is_matching_satisfying(phi, restrict(F, set(phi)))


def brute_is_autarky(phi: PartialAssignment, F: MultiClauseSet) -> bool:
    """phi satisfies every clause it touches."""
    return satisfies(phi, touched(F, set(phi)))


def _kernel_by_fixpoint(F: MultiClauseSet, is_autarky) -> MultiClauseSet:
    while True:
        for phi in partial_assignments(F.table, F.var_set()):
            # phi binds occurring variables only, so a nonempty phi touches
            # some clause
            if not phi:
                continue
            if is_autarky(phi, F):
                F = apply(phi, F)
                break
        else:
            return F


def brute_matching_lean_kernel(F: MultiClauseSet) -> MultiClauseSet:
    return _kernel_by_fixpoint(F, brute_is_matching_autarky)


def brute_lean_kernel(F: MultiClauseSet) -> MultiClauseSet:
    return _kernel_by_fixpoint(F, brute_is_autarky)


def brute_is_minimally_unsatisfiable(F: MultiClauseSet) -> bool:
    if brute_satisfiable(F):
        return False
    for clause, mult in F.items():
        smaller = {c: m for c, m in F.items() if c != clause}
        if mult > 1:
            smaller[clause] = mult - 1
        if not brute_satisfiable(F.with_clauses(smaller)):
            return False
    return True


def brute_implies(F: MultiClauseSet, clause: Clause) -> bool:
    """F entails the clause (every total model satisfies it)."""
    phi = PartialAssignment({lit.var: lit.value for lit in clause})
    table = F.table
    for v in clause.variables:
        if v not in table:
            table = table.declare(v, max(lit.value for lit in clause if lit.var == v) + 1)
    G = MultiClauseSet(table, F.items())
    return not brute_satisfiable(apply(phi, G))


def brute_is_irredundant(F: MultiClauseSet) -> bool:
    for clause, mult in F.items():
        smaller = {c: m for c, m in F.items() if c != clause}
        if mult > 1:
            smaller[clause] = mult - 1
        if brute_implies(F.with_clauses(smaller), clause):
            return False
    return True


def brute_stability_at_least(F: MultiClauseSet, k: int) -> bool:
    """Every restriction by at most k bindings stays irredundant."""
    for phi in partial_assignments(F.table, F.var_set(), max_vars=k):
        if not brute_is_irredundant(apply(phi, F)):
            return False
    return True


# -- random instance generation ----------------------------------------------


def random_instance(rng: random.Random, max_n=6, max_dom=3, max_c=12,
                    allow_empty_clause=True, multi=True) -> MultiClauseSet:
    n = rng.randint(0, max_n)
    table = VariableTable({v: rng.randint(1 if rng.random() < 0.1 else 2, max_dom)
                           for v in range(1, n + 1)})
    clauses = []
    for _ in range(rng.randint(0, max_c)):
        if n == 0 or (allow_empty_clause and rng.random() < 0.05):
            clauses.append(BOT)
            continue
        width = rng.randint(1, min(n, 4))
        chosen = rng.sample(range(1, n + 1), width)
        clauses.append(Clause((v, rng.randrange(table.domain_size(v))) for v in chosen))
    if not multi:
        return MultiClauseSet(table, {c: 1 for c in clauses})
    return MultiClauseSet(table, clauses)


def random_3sat(rng: random.Random, n: int) -> MultiClauseSet:
    """Uniform random 3-SAT near its threshold: n >= 3 boolean variables and
    floor(4.26 n) clauses, each on three distinct variables."""
    clauses = [Clause((v, rng.randrange(2)) for v in rng.sample(range(1, n + 1), 3))
               for _ in range(int(4.26 * n))]
    return MultiClauseSet(VariableTable({v: 2 for v in range(1, n + 1)}), clauses)


# -- references kept from replaced algorithms ---------------------------------
#
# Earlier library versions of the conflict-structure functions, moved here
# verbatim when the library switched to the literal incidence.  They work on
# the full conflict matrix, so they are the pairwise side of the
# differential tests in test_structure.py.


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        self.parent[self.find(x)] = self.find(y)


def reference_classify_hitting(F: MultiClauseSet) -> HittingClassification:
    """Hitting / regular / multihitting analysis of the conflict matrix.

    Multihitting detection merges occurrences along non-edges of the
    conflict graph and then verifies that no two occurrences in the same
    component clash; since the blocks of a complete multipartite graph
    are exactly the connected components of its complement, the
    multipartition is unique whenever it exists.
    """
    matrix = conflict_matrix(F)
    m = matrix.order
    off_diagonal = [matrix.entry(i, j) for i in range(m) for j in range(i + 1, m)]

    hitting = all(x > 0 for x in off_diagonal)
    hitting_degree = max(off_diagonal) if off_diagonal else None
    if off_diagonal:
        regular = off_diagonal[0] if len(set(off_diagonal)) == 1 else None
    else:
        regular = 0

    uf = _UnionFind(m)
    for i in range(m):
        for j in range(i + 1, m):
            if matrix.entry(i, j) == 0:
                uf.union(i, j)
    # Merging along non-edges makes any two occurrences from different
    # components clash automatically; what can still fail is a clash inside
    # a component, which is exactly what rules out a multipartition.
    component = [uf.find(i) for i in range(m)]
    multihitting = all(
        matrix.entry(i, j) == 0
        for i in range(m)
        for j in range(i + 1, m)
        if component[i] == component[j]
    )

    multipartition = None
    if multihitting:
        grouped: dict = {}
        for i in range(m):
            grouped.setdefault(component[i], []).append(i)
        blocks = tuple(sorted(tuple(sorted(b)) for b in grouped.values()))
        multipartition = Multipartition(blocks)

    return HittingClassification(
        hitting=hitting,
        hitting_degree=hitting_degree,
        regular=regular,
        multihitting=multihitting,
        multipartition=multipartition,
    )


def reference_hermitian_rank(M) -> Inertia:
    """Exact inertia of a symmetric matrix by rational congruence.

    Accepts a ConflictMatrix or any square symmetric matrix given as rows
    of rationals.  Elimination uses a 1x1 pivot on the largest-magnitude
    nonzero diagonal entry while one exists (ties broken by lowest
    index); when the remaining diagonal is all zero it uses a 2x2 pivot
    on the lexicographically least nonzero off-diagonal entry, which
    contributes one positive and one negative eigenvalue.  Congruence
    preserves the signature, so the count is exact.
    """
    rows = M.rows() if isinstance(M, ConflictMatrix) else tuple(tuple(r) for r in M)
    m = len(rows)
    for i, row in enumerate(rows):
        if len(row) != m:
            raise ValueError("matrix must be square")
        for j in range(m):
            if rows[i][j] != rows[j][i]:
                raise ValueError("matrix must be symmetric")
    A = [[Fraction(x) for x in row] for row in rows]

    active = list(range(m))
    n_plus = n_minus = 0
    while active:
        diagonal = [i for i in active if A[i][i] != 0]
        if diagonal:
            p = max(diagonal, key=lambda i: abs(A[i][i]))
            d = A[p][p]
            if d > 0:
                n_plus += 1
            else:
                n_minus += 1
            active.remove(p)
            for i in active:
                f = A[i][p] / d
                if f:
                    for j in active:
                        A[i][j] -= f * A[p][j]
            continue
        pair = next(
            ((i, j) for i in active for j in active if j > i and A[i][j] != 0),
            None,
        )
        if pair is None:
            break  # what remains is a zero matrix
        i, j = pair
        b = A[i][j]
        n_plus += 1
        n_minus += 1
        active.remove(i)
        active.remove(j)
        for k in active:
            ci, cj = A[k][i], A[k][j]
            if ci or cj:
                for l in active:
                    A[k][l] -= (ci * A[j][l] + cj * A[i][l]) / b

    h = max(n_plus, n_minus)
    return Inertia(n_plus=n_plus, n_minus=n_minus, h=h, hdef=m - h)


# Earlier library versions of the satdec enumerations, moved here verbatim
# when the library switched to one backtracking walk with cuts.  They visit
# every candidate, building phi * F and its matching for each, so they are
# the uncut side of the differential tests in test_satdec.py.


def reference_brute_force_sat(F: MultiClauseSet):
    """The former satdec.brute_force_sat loop, without its cap."""
    variables = sorted(F.var_set())
    clauses = F.clauses()
    for combo in itertools.product(*(F.table.domain(v) for v in variables)):
        binding = dict(zip(variables, combo))
        if all(any(binding[lit.var] != lit.value for lit in c) for c in clauses):
            return PartialAssignment(binding)
    return None


def reference_bounded_assignments(F: MultiClauseSet, max_vars: int):
    """Partial assignments over var(F) binding at most max_vars variables.

    Sizes ascend; within a size, variable tuples and then value tuples ascend
    lexicographically, so the first hit of any search is deterministic.
    """
    variables = sorted(F.var_set())
    for size in range(min(max_vars, len(variables)) + 1):
        for subset in itertools.combinations(variables, size):
            for values in itertools.product(*(F.table.domain(v) for v in subset)):
                yield PartialAssignment(zip(subset, values))


def reference_sat_bounded_deficiency(F: MultiClauseSet) -> SatResult:
    bound = max_deficiency(F).value
    for phi in reference_bounded_assignments(F, bound):
        psi = matching_satisfying_assignment(apply(phi, F))
        if psi is not None:
            return SatResult(True, compose(phi, psi))
    return SatResult(False, None)


def reference_find_nontrivial_autarky_bounded(F: MultiClauseSet):
    bound = max_deficiency(F).value
    for phi in reference_bounded_assignments(F, bound):
        psi = quasi_maximal_matching_autarky(apply(phi, F))
        candidate = compose(phi, psi)
        if candidate and is_autarky(candidate, F):
            return candidate
    return None


# Earlier library versions of the pure-variable pick and of a sat_fpt search
# node, moved here verbatim when pure-variable elimination moved onto the
# reduction loop's state and the node stopped re-testing matching
# satisfiability after the s-reduction.


def reference_first_pure(F: MultiClauseSet):
    """The former reductions._first_pure: the smallest occurring variable
    with an unused value, and its smallest unused value."""
    used = {}
    for clause in F._clauses:
        for v, e in clause._by_var.items():
            used.setdefault(v, set()).add(e)
    for v in sorted(used):
        for e in F.table.domain(v):
            if e not in used[v]:
                return v, e
    return None


def reference_pure_variable_elimination(F: MultiClauseSet) -> MultiClauseSet:
    """The former reductions.pure_variable_elimination loop."""
    while (hit := reference_first_pure(F)) is not None:
        F = apply(assign(hit), F)
    return F


def reference_branch_and_reduce(G: MultiClauseSet):
    """The former satdec._branch_and_reduce: decide a boolean instance;
    returns (sat, model, explored leaves)."""
    G, steps = s_reduction_with_log(G)
    psi = matching_satisfying_assignment(G)
    if psi is not None:
        return True, lift_through_steps(steps, psi), 1
    if BOT in G:
        return False, None, 1
    slack = measures(G).slack_counts
    v = min(G.var_set(),
            key=lambda w: (min(slack[w, e] for e in G.table.domain(w)), w))
    leaves = 0
    for e in G.table.domain(v):
        phi = assign((v, e))
        sat, model, below = reference_branch_and_reduce(apply(phi, G))
        leaves += below
        if sat:
            return True, lift_through_steps(steps, compose(model, phi)), leaves
    return False, None, leaves


def reference_lift_through_steps(records, psi: PartialAssignment) -> PartialAssignment:
    """The former reductions.lift_through_steps with its
    extend_through_elimination: a model of the last instance to a model of
    the first, one composition or extension per record, last to first.

    A record is the assignment of an autarky step, or (instance before,
    variable) of a variable-elimination step.  Such a step completes psi
    over var(instance) - {v} with value 0 (completions never lose satisfied
    clauses), then gives v the smallest value all of whose clauses are
    already satisfied elsewhere; ValueError when no value qualifies.
    """
    for record in reversed(records):
        if isinstance(record, PartialAssignment):
            psi = compose(psi, record)
            continue
        F, v = record
        bindings = {w: e for w, e in psi.items() if w != v}
        for w in sorted(F.var_set()):
            if w != v:
                bindings.setdefault(w, 0)
        base = PartialAssignment(bindings)
        by_value = {}
        for clause in F.clauses():
            if clause.has_var(v):
                by_value.setdefault(clause.value_on(v), []).append(
                    clause.without_vars((v,)))
        for value in F.table.domain(v):
            if all(base.satisfies_clause(rest) for rest in by_value.get(value, ())):
                bindings[v] = value
                psi = PartialAssignment(bindings)
                break
        else:
            raise ValueError(f"assignment does not cover the resolvents on variable {v}")
    return psi


# The library's sat_fpt as it was before its nodes put the unit rule first,
# moved here verbatim (under a new name) as the reference for the search
# that replaced it: same verdicts, and never more leaves.


def reference_sat_fpt_without_units(F: MultiClauseSet) -> FptResult:
    """Branch-and-reduce satisfiability decision via the boolean translation.

    The instance is translated to boolean form and searched with no
    separate prelude: every node, the root included, applies s_reduction
    (whose loop already eliminates pure variables and applies the matching
    autarky), answers SAT when no clause is left (the only matching-
    satisfiable s-reduced instance), and otherwise branches a variable of
    minimal slack into both values, 0 first.  Each branch strictly
    decreases the maximal deficiency, so the number of explored leaves
    (node_count) is at most 2**d for d the maximal deficiency of the
    reduced root (Szeider, JCSS 2004).

    The search loops over an explicit stack of (parent instance, branch,
    trail length).  One trail logs the reduction steps and branches (as
    ``ForcedValueStep``) from the root; taking an entry cuts it back.  The
    first empty node lifts the whole trail once, to the original variables.
    """
    translation = direct_weak(F)
    trail: List = []
    stack = [(translation.boolean_cnf, None, 0)]
    leaves = 0
    while stack:
        G, branch, mark = stack.pop()
        if branch is not None:
            trail[mark:] = [branch]
            G = apply(assign(branch), G)
        G, steps = s_reduction_with_log(G)
        trail.extend(steps)
        # s-reduced G is matching lean, so matching satisfiable only when empty:
        # with a clause, a matching-satisfying assignment would be a non-trivial
        # matching autarky (and the empty clause has no edge to match)
        if not G:
            model = lift_through_steps(trail, EMPTY_ASSIGNMENT)
            return FptResult(True, lift_assignment(translation, model), leaves + 1)
        if BOT in G:
            leaves += 1
            continue
        # minimal slack: occurrences of w minus those of its most frequent value
        counts = G.value_count_table()
        v = min(counts, key=lambda w: (sum(counts[w]) - max(counts[w]), w))
        mark = len(trail)
        for e in reversed(G.table.domain(v)):
            stack.append((G, ForcedValueStep(v, e), mark))
    return FptResult(False, None, leaves)


# The library's surplus as it was before the search moved onto the caller's
# IncidenceGraph, moved here verbatim (under a new name) as the reference for
# that method.  It handles one-value domains apart by their occurrence counts,
# searches a second graph on F without its empty clause, and restores the
# matching from a copy after each variable.  Its docstring's at_most sentence
# is too strong: a value below k is exact, and a value of at least k only
# means the surplus is at least k.


def reference_surplus(F: MultiClauseSet, at_most: Optional[int] = None) -> Surplus:
    """Minimum of delta(F[V]) over nonempty variable sets V (0 when n(F)=0).

    With spare capacity in a maximum matching the surplus is negative and
    the variables alternating-reachable from the spare capacity are the
    witness.  Otherwise, for each variable v in turn, the capacity of v is
    raised one unit at a time, each time followed by one augmenting search
    from v; the first failure at s extra units yields the witness reachable
    from v with delta = s-1, and later variables only try fewer units.  The
    matching is restored before the next v.
    With at_most=k the search stops early and reports min(surplus, k+1)
    style: a returned value > k only means the surplus exceeds k.
    """
    occurring = sorted(F.var_set())
    if not occurring:
        return Surplus(0, None)
    stripped = F.with_clauses({c: m for c, m in F.items() if c != BOT})
    nontrivial = [v for v in occurring if F.table.domain_size(v) >= 2]
    trivial = [v for v in occurring if F.table.domain_size(v) == 1]
    best: Optional[Surplus] = None
    if trivial:
        v = min(trivial, key=lambda w: (stripped.var_count(w), w))
        best = Surplus(stripped.var_count(v), frozenset([v]))
    if not nontrivial:
        return best

    graph = IncidenceGraph(stripped)
    spare = graph._spare()
    found = (graph.size - stripped.rd, graph._from_variables(spare)[1]) if spare else None
    top = stripped.delta if at_most is None else min(stripped.delta, at_most)
    if best is not None:
        top = min(top, best.value)
    for v in () if spare else nontrivial:
        saved = (graph.cap[v], graph.mate[:],
                 {w: held[:] for w, held in graph.users.items()}, graph.size)
        for s in range(1, top + 1):
            graph.cap[v] += 1
            path, reached = graph._from_variables([v])
            if path is None:
                found, top = (s - 1, reached), s - 1
                break
            graph._augment(path)
        graph.cap[v], graph.mate, graph.users, graph.size = saved
    if found is None:  # no variable beats the whole set within top
        found = (stripped.delta, stripped.var_set())
    cand = Surplus(found[0], frozenset(found[1]))
    assert cand.witness and restrict(stripped, cand.witness).delta == cand.value
    return cand if best is None or cand.value < best.value else best


# Earlier library versions of the translation core and the two emitters,
# moved here verbatim when the library started building the boolean image
# from the gadgets' own clause maps without re-validation and the emitters
# started sorting once.  They rebuild every clause through the validating
# constructors, so they are the checked side of the differential tests in
# test_translate.py.  When the library moved to image keys built from one
# pattern per domain size, its gadget builders and block allocation moved
# here too, rebuilt on the validating constructors, and the eager result
# tuple with them; the library's own trusted image loop of that time
# computed what reference_translate computes.


class ReferenceTranslation(NamedTuple):
    """The former translate.TranslationResult, every field built eagerly."""

    boolean_cnf: MultiClauseSet
    var_map: Dict[int, Tuple[int, int]]
    inverse_map: Dict[Tuple[int, int], int]
    scheme: str
    gadgets: Dict[int, VariableGadget]
    source_table: VariableTable


def reference_direct_gadget(block, strong: bool) -> VariableGadget:
    pos = [Literal(b, 0) for b in block]
    by_value = tuple(Clause([lit]) for lit in pos)
    extra = [Clause(Literal(b, 1) for b in block)]
    if strong:
        extra.extend(Clause(pair) for pair in itertools.combinations(pos, 2))
    return VariableGadget(tuple(block), by_value, tuple(extra))


def reference_nested_chain(block, k: int) -> Tuple[Clause, ...]:
    """The Horn chain E_1 .. E_k over k-1 boolean variables."""
    neg = [Literal(b, 1) for b in block]
    chain = [Clause(neg[:i] + [Literal(block[i], 0)]) for i in range(k - 1)]
    chain.append(Clause(neg))
    return tuple(chain)


def reference_nested_gadget(block, order) -> VariableGadget:
    chain = reference_nested_chain(block, len(order))
    by_value = [None] * len(order)
    for position, value in enumerate(order):
        by_value[value] = chain[position]
    return VariableGadget(tuple(block), tuple(by_value))


def reference_reduced_gadget(block) -> VariableGadget:
    by_value = tuple(Clause([Literal(b, 0)]) for b in block) + (
        Clause(Literal(b, 1) for b in block),)
    return VariableGadget(tuple(block), by_value)


def _reference_full_clause(block, code: int) -> Clause:
    width = len(block)
    return Clause(Literal(b, (code >> (width - 1 - j)) & 1)
                  for j, b in enumerate(block))


def reference_logarithmic_gadget(block, k: int) -> VariableGadget:
    by_value = tuple(_reference_full_clause(block, code) for code in range(k))
    extra = tuple(_reference_full_clause(block, code)
                  for code in range(k, 2 ** len(block)))
    return VariableGadget(tuple(block), by_value, extra)


def reference_gadgets(F: MultiClauseSet, scheme: str,
                      value_order=None) -> Dict[int, VariableGadget]:
    """The gadgets the former library built for a named scheme: contiguous
    blocks per occurring source variable, ascending (the former
    translate._allocate), each filled by the scheme's gadget builder."""
    gadgets, next_id = {}, 1
    for v in sorted(F.var_set()):
        k = F.table.domain_size(v)
        width = {"direct-weak": k, "direct-strong": k,
                 "logarithmic": max(k - 1, 1).bit_length() if k > 1 else 0,
                 }.get(scheme, k - 1)
        block = tuple(range(next_id, next_id + width))
        next_id += width
        if scheme in ("direct-weak", "direct-strong"):
            gadgets[v] = reference_direct_gadget(block, scheme == "direct-strong")
        elif scheme == "nested":
            order = (value_order or {}).get(v, range(k))
            gadgets[v] = reference_nested_gadget(block, tuple(order))
        elif scheme == "reduced":
            gadgets[v] = reference_reduced_gadget(block)
        else:
            gadgets[v] = reference_logarithmic_gadget(block, k)
    return gadgets


def reference_translate(F: MultiClauseSet, gadgets: Dict[int, VariableGadget],
                        tag: str) -> ReferenceTranslation:
    """The former translate._translate."""
    table = VariableTable({b: 2 for g in gadgets.values() for b in g.variables})
    image: Dict[Clause, int] = {}
    for clause, mult in F.items():
        lits = [lit for source in clause
                for lit in gadgets[source.var].by_value[source.value]]
        boolean = Clause(lits)
        image[boolean] = image.get(boolean, 0) + mult
    for v in sorted(gadgets):
        for clause in gadgets[v].extra:
            image[clause] = image.get(clause, 0) + 1
    cnf = MultiClauseSet(table, image)
    var_map = {b: (v, j) for v, g in gadgets.items()
               for j, b in enumerate(g.variables)}
    inverse = {pair: b for b, pair in var_map.items()}
    return ReferenceTranslation(cnf, var_map, inverse, tag, gadgets, F.table)


def reference_emit_gcls(F: MultiClauseSet) -> str:
    """The former cli.emit_gcls."""
    variables = sorted(F.table.variables())
    lines = [f"p gcls {variables[-1] if variables else 0} "
             f"{sum(m for _, m in F.items())}"]
    lines.extend(f"d {v} {F.table.domain_size(v)}" for v in variables)
    for clause, mult in F.items():
        body = " ".join(f"{lit.var}:{lit.value}" for lit in sorted(clause))
        lines.extend([f"{body} 0" if body else "0"] * mult)
    return "\n".join(lines) + "\n"


def reference_emit_dimacs(source: Union[ReferenceTranslation, DimacsFile]) -> str:
    """The former cli.emit_dimacs."""
    if isinstance(source, ReferenceTranslation):
        source = DimacsFile(_mapping_comments(source), source.boolean_cnf)
    comments, cnf = source
    variables = sorted(cnf.table.variables())
    lines = list(comments)
    lines.append(f"p cnf {variables[-1] if variables else 0} "
                 f"{sum(m for _, m in cnf.items())}")
    for clause, mult in cnf.items():
        body = " ".join(str(lit.var) if lit.value == 0 else str(-lit.var)
                        for lit in sorted(clause))
        lines.extend([f"{body} 0" if body else "0"] * mult)
    return "\n".join(lines) + "\n"


# -- saturation by literal sweeps ------------------------------------------
#
# moved here verbatim when musat started computing each clause's widening
# as a backbone of the other clauses, in one pass.  They make one decide
# call per (clause, variable, value) trial, sweep after sweep.


def _widen(clause: Clause, v: int, value: int) -> Clause:
    return Clause(tuple(clause) + (Literal(v, value),))


def reference_saturate(F: MultiClauseSet) -> MultiClauseSet:
    """The former musat.saturate: greedy saturation of a minimally
    unsatisfiable clause-set.

    Sweeps clauses in canonical order, variables ascending, values
    ascending, keeping any literal addition under which the set stays
    unsatisfiable (which then keeps it minimally unsatisfiable), until a
    full sweep changes nothing.  Only variables of the input with at least
    two values are considered: adding a single-valued variable never
    changes the falsifying assignments, so it could be added everywhere
    and saturation would be unreachable.  The result extends each input
    clause (possibly trivially).  Raises ValueError on non-MU input.
    """
    if not is_minimally_unsatisfiable(F):
        raise ValueError("saturate needs a minimally unsatisfiable input")
    table = F.table
    clauses = [c for c, _ in F.items()]
    candidates = [v for v in sorted(F.var_set()) if table.domain_size(v) >= 2]
    changed = True
    while changed:
        changed = False
        for idx, clause in enumerate(clauses):
            for v in candidates:
                if clause.has_var(v):
                    continue
                for value in table.domain(v):
                    trial = list(clauses)
                    trial[idx] = _widen(clause, v, value)
                    G = MultiClauseSet(table, {c: 1 for c in trial})
                    if not decide(G).satisfiable:
                        clause = trial[idx]
                        clauses[idx] = clause
                        changed = True
                        break
    return F.with_clauses({c: 1 for c in clauses})


def reference_is_saturated_mu(F: MultiClauseSet) -> bool:
    """The former musat.is_saturated_mu: minimally unsatisfiable and no
    literal addition keeps it unsatisfiable.

    Tries every clause C, every at-least-two-valued variable of F outside
    C, and every value; widening a clause into a clause already present
    collapses the two, which leaves a satisfiable proper subset, so such
    additions count as rendering the set satisfiable.
    """
    if not is_minimally_unsatisfiable(F):
        return False
    table = F.table
    for clause in F.clauses():
        rest = [c for c in F.clauses() if c != clause]
        for v in sorted(F.var_set()):
            if table.domain_size(v) < 2 or clause.has_var(v):
                continue
            for value in table.domain(v):
                G = MultiClauseSet(
                    table, {c: 1 for c in rest + [_widen(clause, v, value)]})
                if not decide(G).satisfiable:
                    return False
    return True
