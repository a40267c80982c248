"""Brute-force reference implementations used to cross-check the library.

Everything here works by exhaustive enumeration straight from definitions and
deliberately avoids the library's own algorithms (the only shared code is the
core data model).  Keep it that way: these are the independent side of every
two-route check in the test-suite.
"""

from __future__ import annotations

import itertools
import random

from gcls.core import (
    BOT,
    Clause,
    MultiClauseSet,
    PartialAssignment,
    VariableTable,
    apply,
    restrict,
    touched,
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
