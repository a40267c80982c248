"""Satisfiability-preserving reductions for generalised clause-sets.

Unit-clause propagation (which shrinks domains by renaming variables away),
pure-variable and subsumption elimination, the resolution rule with its
variable-elimination operator, the singular special cases, blocked clauses,
and two composite reduction loops built from all of those.

Every reduction keeps satisfiability.  The composite loops also come in a
``*_with_log`` form returning the steps performed; each step can ``lift`` a
model of its result back to a model of its input, so a witness found on the
reduced instance can be rebuilt for the original one.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .core import (
    BOT,
    Clause,
    Literal,
    MultiClauseSet,
    PartialAssignment,
    VariableTable,
    apply,
    assign,
    compose,
    rename,
    restrict,
)
from .matching import quasi_maximal_matching_autarky, surplus


# -- step records for witness reconstruction ---------------------------------


class ForcedValueStep(NamedTuple):
    """A variable with a one-value domain was assigned and crossed out."""

    var: int
    value: int

    def lift(self, psi: PartialAssignment) -> PartialAssignment:
        return compose(psi, assign((self.var, self.value)))


class DomainShrinkStep(NamedTuple):
    """``old_var`` lost ``excluded_value`` and was renamed to ``new_var``.

    Surviving values keep their order: old value e becomes e when
    e < excluded_value and e - 1 otherwise.
    """

    old_var: int
    new_var: int
    excluded_value: int

    def lift(self, psi: PartialAssignment) -> PartialAssignment:
        bindings = dict(psi)
        packed = bindings.pop(self.new_var, None)
        if packed is None:
            value = 1 if self.excluded_value == 0 else 0
        else:
            value = packed if packed < self.excluded_value else packed + 1
        bindings[self.old_var] = value
        return PartialAssignment(bindings)


class AutarkyStep(NamedTuple):
    """An autarky was applied, removing every clause it touches."""

    assignment: PartialAssignment

    def lift(self, psi: PartialAssignment) -> PartialAssignment:
        return compose(psi, self.assignment)


class VariableEliminationStep(NamedTuple):
    """A resolution step on ``var`` turned ``before`` into the next instance.

    Covers both flavours used by the reduction loops: replacing the clauses
    on a singular variable by their resolvents, and dropping one clause copy
    whose removal leaves the resolvent set unchanged.
    """

    before: MultiClauseSet
    var: int

    def lift(self, psi: PartialAssignment) -> PartialAssignment:
        return extend_through_elimination(self.before, self.var, psi)


def lift_through_steps(steps, psi: PartialAssignment) -> PartialAssignment:
    """Turn a model of the last instance into a model of the first one."""
    for step in reversed(steps):
        psi = step.lift(psi)
    return psi


def extend_through_elimination(F: MultiClauseSet, v: int,
                               psi: PartialAssignment) -> PartialAssignment:
    """Extend a model of the resolvents on v (and the v-free part) to F.

    psi is completed over var(F) - {v} with value 0 (completions never lose
    satisfied clauses), then v gets the smallest value all of whose clauses
    are already satisfied elsewhere.  Such a value exists whenever psi
    satisfies every well-defined resolvent on v, because a value without one
    would contribute a parent clause to an unsatisfied-or-clashing resolvent.
    """
    bindings = {w: e for w, e in psi.items() if w != v}
    for w in sorted(F.var_set()):
        if w != v:
            bindings.setdefault(w, 0)
    base = PartialAssignment(bindings)
    by_value: Dict[int, List[Clause]] = {}
    for clause in F.clauses():
        if clause.has_var(v):
            by_value.setdefault(clause.value_on(v), []).append(
                clause.without_vars((v,)))
    for value in F.table.domain(v):
        if all(base.satisfies_clause(rest) for rest in by_value.get(value, ())):
            bindings[v] = value
            return PartialAssignment(bindings)
    raise ValueError(f"assignment does not cover the resolvents on variable {v}")


# -- unit-clause propagation --------------------------------------------------


def unit_clause_propagation(F: MultiClauseSet) -> Tuple[MultiClauseSet, tuple]:
    """Exhaust trivial-domain reduction and unit-clause elimination.

    A unit clause {(v, e)} forces v away from e: clauses containing the
    literal (v, e) are satisfied and dropped, and the other occurrences of v
    move to a fresh variable whose domain is one value shorter.  The result
    has no trivial variables and no unit clauses unless it is {BOT}.

    Returns the propagated instance and the alias chain of steps, in
    application order; lift_through_steps maps a model of the result back to
    the original variables.
    """
    steps: List = []
    fresh = max(F.table.variables(), default=0) + 1
    while True:
        for v in sorted(F.var_set()):
            if F.table.domain_size(v) == 1:
                F = apply(assign((v, 0)), F)
                steps.append(ForcedValueStep(v, 0))
        if BOT in F:
            return F.with_clauses({BOT: 1}), tuple(steps)
        unit = next((c for c in F.clauses() if len(c) == 1), None)
        if unit is None:
            return F, tuple(steps)
        ((v, e),) = unit
        size = F.table.domain_size(v)
        kept = {c: m for c, m in F.items() if Literal(v, e) not in c}
        F = MultiClauseSet(F.table.declare(fresh, size - 1), kept)
        value_map = {old: (old if old < e else old - 1)
                     for old in range(size) if old != e}
        F, _ = rename(F, v, fresh, value_map)
        steps.append(DomainShrinkStep(v, fresh, e))
        fresh += 1


# -- pure variables and subsumption -------------------------------------------


def _first_pure(F: MultiClauseSet) -> Optional[Tuple[int, int]]:
    for v in sorted(F.var_set()):
        used = F.values_of(v)
        for e in F.table.domain(v):
            if e not in used:
                return v, e
    return None


def _pure_fixpoint(F: MultiClauseSet) -> Tuple[MultiClauseSet, List[AutarkyStep]]:
    steps: List[AutarkyStep] = []
    while True:
        hit = _first_pure(F)
        if hit is None:
            return F, steps
        phi = assign(hit)
        steps.append(AutarkyStep(phi))
        F = apply(phi, F)


def pure_variable_elimination(F: MultiClauseSet) -> MultiClauseSet:
    """Fixpoint of assigning unused values, which drops the touched clauses."""
    return _pure_fixpoint(F)[0]


def subsumption_elimination(F: MultiClauseSet) -> MultiClauseSet:
    """Keep exactly the subset-minimal clauses (with their multiplicities)."""
    clauses = F.clauses()
    kept = {c: m for c, m in F.items() if not any(other < c for other in clauses)}
    return F.with_clauses(kept)


# -- resolution and variable elimination ---------------------------------------


def resolvents(v: int, parents: Sequence[Clause],
               table: VariableTable) -> Optional[Clause]:
    """The resolvent on v of parent clauses covering each value of v once.

    Returns None when the non-v literals clash (no resolvent exists); raises
    ValueError when the parents do not hit every value of v exactly once.
    """
    values = []
    for clause in parents:
        if not clause.has_var(v):
            raise ValueError(f"parent {clause!r} does not contain variable {v}")
        values.append(clause.value_on(v))
    if sorted(values) != list(table.domain(v)):
        raise ValueError(f"parents must cover each value of variable {v} exactly once")
    merged: Dict[int, int] = {}
    for clause in parents:
        for lit in clause:
            if lit.var != v and merged.setdefault(lit.var, lit.value) != lit.value:
                return None
    return Clause(merged.items())


def _dp(F: MultiClauseSet, v: int) -> MultiClauseSet:
    """Replace the clauses on v by their resolvents (identity if v absent).

    Clauses without v keep their multiplicities; each resolvent is added
    once unless already present.  Clauses on v count once each.
    """
    kept = {c: m for c, m in F.items() if not c.has_var(v)}
    buckets = [[c for c in F.clauses() if c.has_var(v) and c.value_on(v) == e]
               for e in F.table.domain(v)]
    for combo in itertools.product(*buckets):
        R = resolvents(v, combo, F.table)
        if R is not None:
            kept.setdefault(R, 1)
    return F.with_clauses(kept)


def dp_resolve(F: MultiClauseSet, v: int) -> MultiClauseSet:
    """Eliminate v from the clause-set of F: drop the clauses on v and add
    every resolvent on it.  Every multiplicity of the result is 1."""
    if v not in F.var_set():
        raise ValueError(f"variable {v} does not occur")
    return _dp(F.dedup(), v)


def _elimination_bound(G: MultiClauseSet, v: int) -> int:
    """c(G) - sum of per-value occurrence counts + their product."""
    counts = [G.count((v, e)) for e in G.table.domain(v)]
    return G.c - sum(counts) + math.prod(counts)


def is_singular(F: MultiClauseSet, v: int) -> bool:
    """All values of v but at most one occur exactly once, none is unused."""
    counts = [F.count((v, e)) for e in F.table.domain(v)]
    if 0 in counts:
        return False
    return any(all(count == 1 for j, count in enumerate(counts) if j != i)
               for i in range(len(counts)))


def singular_dp(F: MultiClauseSet, v: int) -> Tuple[MultiClauseSet, bool]:
    """Eliminate a singular variable; flag whether the step was degenerate.

    Degenerate means the clause count lands strictly below the resolution
    bound of _elimination_bound: some resolvent clashed away, coincided with
    a sibling, or was present already.  Non-degenerate steps drop the clause
    count by exactly |D_v| - 1 and preserve the deficiency.
    """
    if not is_singular(F, v):
        raise ValueError(f"variable {v} is not singular")
    G = F.dedup()
    result = _dp(G, v)
    return result, result.c < _elimination_bound(G, v)


def is_blocked(clause: Clause, F: MultiClauseSet, v: int) -> bool:
    """Whether adding/removing the clause leaves elimination of v unchanged.

    Both sides are compared after subsumption normalisation; a blocked clause
    of F can be removed satisfiability-equivalently.
    """
    if not clause.has_var(v):
        raise ValueError(f"variable {v} does not occur in {clause!r}")
    plus = F.with_clauses({**{c: 1 for c in F.clauses()}, clause: 1})
    minus = F.with_clauses({c: 1 for c in F.clauses() if c != clause})
    return (subsumption_elimination(_dp(plus, v)) ==
            subsumption_elimination(_dp(minus, v)))


# -- the composite reduction loops ---------------------------------------------


def _drop_one_copy(F: MultiClauseSet, clause: Clause) -> MultiClauseSet:
    items = dict(F.items())
    items[clause] -= 1
    return F.with_clauses(items)


def _redundant_clause_on(F: MultiClauseSet, v: int) -> Optional[Clause]:
    """A clause copy on singular v whose removal keeps the resolvents intact.

    Removal of such a copy is satisfiability-equivalent because eliminating v
    afterwards still yields the same instance.  One exists exactly when the
    elimination of v would be degenerate (or some copy is simply duplicated).
    """
    base = _dp(F, v)
    for clause, mult in F.items():
        if not clause.has_var(v):
            continue
        if mult >= 2:
            return clause
        if _dp(_drop_one_copy(F, clause), v) == base:
            return clause
    return None


def _r_reduce_logged(F: MultiClauseSet) -> Tuple[MultiClauseSet, List]:
    steps: List = []
    while True:
        hit = None
        for v in sorted(F.var_set()):
            if is_singular(F, v):
                clause = _redundant_clause_on(F, v)
                if clause is not None:
                    hit = (v, clause)
                    break
        if hit is not None:
            v, clause = hit
            steps.append(VariableEliminationStep(F, v))
            F = _drop_one_copy(F, clause)
            continue
        pure = _first_pure(F)
        if pure is not None:
            phi = assign(pure)
            steps.append(AutarkyStep(phi))
            F = apply(phi, F)
            continue
        phi = quasi_maximal_matching_autarky(F)
        if phi:  # empty iff F is matching lean
            steps.append(AutarkyStep(phi))
            F = apply(phi, F)
            continue
        v = next((w for w in sorted(F.var_set()) if is_singular(F, w)), None)
        if v is None:
            return F, steps
        # no clause copy on v is redundant, so every clause on v has
        # multiplicity one and all resolvents are defined, pairwise distinct
        # and fresh: the clause count drops by exactly |D_v| - 1
        steps.append(VariableEliminationStep(F, v))
        G = _dp(F, v)
        assert G.c == F.c - (F.table.domain_size(v) - 1)
        F = G


def r_reduction(F: MultiClauseSet) -> MultiClauseSet:
    """Fixpoint of four rules, tried in priority order: dropping a redundant
    clause on a singular variable, pure-variable elimination, matching-autarky
    reduction, and elimination of a (then non-degenerate) singular variable.

    The result is matching lean, has no pure and no singular variables, is
    satisfiability-equivalent, and its maximal deficiency never exceeds the
    input's.
    """
    return _r_reduce_logged(F)[0]


def r_reduction_with_log(F: MultiClauseSet):
    F, steps = _r_reduce_logged(F)
    return F, tuple(steps)


def _satisfy_surplus_one_part(part: MultiClauseSet) -> PartialAssignment:
    from .satdec import sat_bounded_deficiency  # deferred: satdec builds on us

    outcome = sat_bounded_deficiency(part)
    assert outcome.satisfiable, "deficiency-one restriction must be satisfiable"
    return outcome.witness


def _s_reduce_logged(F: MultiClauseSet) -> Tuple[MultiClauseSet, List]:
    steps: List = []
    while True:
        F, sub = _r_reduce_logged(F)
        steps.extend(sub)
        if not F.var_set():
            return F, steps
        found = surplus(F, at_most=2)
        if found.value >= 2:
            return F, steps
        # matching lean and nonempty, so the surplus is exactly one here and
        # comes with a witness V; the restriction to V has deficiency one and
        # every variable occurs more often than its domain size, which makes
        # the restriction satisfiable -- a satisfying assignment of it is a
        # non-trivial autarky.
        part = restrict(F, found.witness)
        sigma = _satisfy_surplus_one_part(part)
        steps.append(AutarkyStep(sigma))
        F = apply(sigma, F)


def s_reduction(F: MultiClauseSet) -> MultiClauseSet:
    """r_reduction strengthened until the surplus is at least two (or no
    variables are left), by satisfying deficiency-one restrictions and
    applying them as autarkies."""
    return _s_reduce_logged(F)[0]


def s_reduction_with_log(F: MultiClauseSet):
    F, steps = _s_reduce_logged(F)
    return F, tuple(steps)
