"""Satisfiability decision and autarky search.

A brute-force reference decision with a hard cap, the bounded-deficiency
decision through matching-satisfiable restrictions, autarky search and lean
kernel computation that are polynomial for fixed maximal deficiency, a
branch-and-reduce decision on the boolean translation, and the implication,
irredundancy and minimal-unsatisfiability tests built on top.
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Iterator, NamedTuple, Optional, Tuple

from .core import (
    BOT,
    Clause,
    MultiClauseSet,
    PartialAssignment,
    apply,
    assign,
    clause_to_assignment,
    compose,
    measures,
)
from .matching import (
    matching_satisfying_assignment,
    max_deficiency,
    quasi_maximal_matching_autarky,
)
from .reductions import lift_through_steps, s_reduction_with_log

#: Default ceiling on the assignment space brute_force_sat will enumerate.
DEFAULT_BRUTE_CAP = 20_000_000

#: Assignment-space threshold below which "auto" dispatches to brute force.
AUTO_BRUTE_LIMIT = 10 ** 6


class BruteForceCapExceeded(RuntimeError):
    """The total-assignment space is larger than the configured cap."""


def _brute_cap() -> int:
    raw = os.environ.get("GCLS_BRUTE_CAP")
    return int(raw) if raw else DEFAULT_BRUTE_CAP


def assignment_space(F: MultiClauseSet) -> int:
    """Number of total assignments over the occurring variables."""
    return math.prod(F.table.domain_size(v) for v in F.var_set())


def brute_force_sat(F: MultiClauseSet,
                    cap: Optional[int] = None) -> Optional[PartialAssignment]:
    """First satisfying total assignment over var(F) in lexicographic order.

    Variables ascend by id, values by magnitude.  Returns None when F is
    unsatisfiable.  When the assignment space exceeds the cap (argument,
    else GCLS_BRUTE_CAP, else 2*10^7) it refuses by raising
    BruteForceCapExceeded -- it never guesses.
    """
    limit = _brute_cap() if cap is None else cap
    space = assignment_space(F)
    if space > limit:
        raise BruteForceCapExceeded(
            f"{space} total assignments exceed the cap of {limit}")
    variables = sorted(F.var_set())
    clauses = F.clauses()
    for combo in itertools.product(*(F.table.domain(v) for v in variables)):
        binding = dict(zip(variables, combo))
        if all(any(binding[lit.var] != lit.value for lit in c) for c in clauses):
            return PartialAssignment(binding)
    return None


class SatResult(NamedTuple):
    satisfiable: bool
    witness: Optional[PartialAssignment]


def _bounded_assignments(F: MultiClauseSet,
                         max_vars: int) -> Iterator[PartialAssignment]:
    """Partial assignments over var(F) binding at most max_vars variables.

    Sizes ascend; within a size, variable tuples and then value tuples ascend
    lexicographically, so the first hit of any search is deterministic.
    """
    variables = sorted(F.var_set())
    for size in range(min(max_vars, len(variables)) + 1):
        for subset in itertools.combinations(variables, size):
            for values in itertools.product(*(F.table.domain(v) for v in subset)):
                yield PartialAssignment(zip(subset, values))


def sat_bounded_deficiency(F: MultiClauseSet) -> SatResult:
    """Decide satisfiability by searching a matching-satisfiable restriction.

    A satisfiable instance always admits a partial assignment phi binding at
    most maximal-deficiency many variables such that phi * F is matching
    satisfiable; composing phi with the matching-satisfying assignment psi of
    phi * F yields a model.  Exhausting the enumeration proves
    unsatisfiability.
    """
    bound = max_deficiency(F).value
    for phi in _bounded_assignments(F, bound):
        psi = matching_satisfying_assignment(apply(phi, F))
        if psi is not None:
            return SatResult(True, compose(phi, psi))
    return SatResult(False, None)


def is_autarky(phi: PartialAssignment, F: MultiClauseSet) -> bool:
    """Whether every clause touched by var(phi) is satisfied by phi."""
    touched_vars = phi.keys()
    return all(phi.satisfies_clause(c) for c in F.clauses()
               if c.variables & touched_vars)


def find_nontrivial_autarky_bounded(
        F: MultiClauseSet) -> Optional[PartialAssignment]:
    """A non-trivial autarky for F, or None when F is lean.

    Tries every partial assignment phi binding at most maximal-deficiency
    many variables; phi * F is reduced by its quasi-maximal matching autarky
    psi, and the composition is returned as soon as it is a non-empty autarky
    for F.  (The empty phi covers instances that are not matching lean.)  If
    no composition works, F has no non-trivial autarky at all.
    """
    bound = max_deficiency(F).value
    for phi in _bounded_assignments(F, bound):
        psi = quasi_maximal_matching_autarky(apply(phi, F))
        candidate = compose(phi, psi)
        if candidate and is_autarky(candidate, F):
            return candidate
    return None


def lean_kernel_bounded(F: MultiClauseSet) -> MultiClauseSet:
    """The lean kernel: repeated non-trivial-autarky reduction to a fixpoint.

    The result carries exactly the clauses belonging to no autark subset; it
    is independent of the order in which autarkies are found and applied.
    """
    while True:
        phi = find_nontrivial_autarky_bounded(F)
        if phi is None:
            return F
        F = apply(phi, F)


class FptResult(NamedTuple):
    satisfiable: bool
    witness: Optional[PartialAssignment]
    node_count: int


def _branch_and_reduce(
        G: MultiClauseSet) -> Tuple[bool, Optional[PartialAssignment], int]:
    """Decide a boolean instance; returns (sat, model, explored leaves)."""
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
        sat, model, below = _branch_and_reduce(apply(phi, G))
        leaves += below
        if sat:
            return True, lift_through_steps(steps, compose(model, phi)), leaves
    return False, None, leaves


def sat_fpt(F: MultiClauseSet) -> FptResult:
    """Branch-and-reduce satisfiability decision via the boolean translation.

    The instance is translated to boolean form and searched with no
    separate prelude: every node, the root included, applies s_reduction
    (whose r-reduction already eliminates pure variables and applies the
    matching autarky), answers SAT on matching-satisfiable instances, and
    otherwise branches a variable of minimal slack into both values.  Each
    branch strictly decreases the maximal deficiency, so the number of
    explored leaves (node_count) is at most 2**d for d the maximal
    deficiency of the reduced root.  The witness is an assignment over the
    original variables.
    """
    from .translate import direct_weak, lift_assignment

    translation = direct_weak(F)
    sat, model, leaves = _branch_and_reduce(translation.boolean_cnf)
    if not sat:
        return FptResult(False, None, leaves)
    return FptResult(True, lift_assignment(translation, model), leaves)


# -- implication, irredundancy, minimal unsatisfiability -----------------------


def decide(F: MultiClauseSet, method: str = "auto") -> SatResult:
    """Dispatch to one SAT back-end; "auto" means brute force on assignment
    spaces up to 10^6 and branch-and-reduce beyond."""
    if method == "brute":
        witness = brute_force_sat(F)
        return SatResult(witness is not None, witness)
    if method == "bounded":
        return sat_bounded_deficiency(F)
    if method == "fpt":
        outcome = sat_fpt(F)
        return SatResult(outcome.satisfiable, outcome.witness)
    if method == "auto":
        if assignment_space(F) <= AUTO_BRUTE_LIMIT:
            witness = brute_force_sat(F)
            return SatResult(witness is not None, witness)
        outcome = sat_fpt(F)
        return SatResult(outcome.satisfiable, outcome.witness)
    raise ValueError(f"unknown method {method!r}")


def implies(F: MultiClauseSet, clause: Clause, method: str = "auto") -> bool:
    """Whether every model of F satisfies the clause."""
    phi = clause_to_assignment(clause)
    return not decide(apply(phi, F), method).satisfiable


def is_irredundant(F: MultiClauseSet, method: str = "auto") -> bool:
    """No clause of F is implied by the remaining ones."""
    for clause in F.clauses():
        items = dict(F.items())
        items[clause] -= 1
        if implies(F.with_clauses(items), clause, method):
            return False
    return True


def is_minimally_unsatisfiable(F: MultiClauseSet, method: str = "auto") -> bool:
    """Unsatisfiable, and every clause removal makes it satisfiable."""
    return not decide(F, method).satisfiable and is_irredundant(F, method)
