"""Satisfiability-preserving reductions for generalised clause-sets.

Unit-clause propagation (which shrinks domains by renaming variables away),
pure-variable and subsumption elimination, the resolution rule with its
variable-elimination operator, the singular special cases, blocked clauses,
and one reduction loop whose five rules, in priority order, are: dropping a
redundant clause copy on a singular variable, pure-variable elimination,
matching-autarky reduction, singular DP and the surplus-one autarky.  For
boolean instances a unit rule can go before them all (``satdec.sat_fpt``
turns it on).

Every reduction keeps satisfiability.  Both reductions also come in a
``*_with_log`` form returning the steps performed, each recording only what
lifting reads.  ``lift_through_steps`` rebuilds a witness found on the
reduced instance for the original one in one dict, which each step updates
in place, binding just the variables that decide each value.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .core import (
    BOT,
    Clause,
    Literal,
    MultiClauseSet,
    PartialAssignment,
    VariableTable,
    _clause,
    _Trusted,
    apply,
    assign,
    rename,
    restrict,
)
from .matching import IncidenceGraph

__all__ = [
    "dp_resolve",
    "is_blocked",
    "is_singular",
    "lift_through_steps",
    "pure_variable_elimination",
    "r_reduction",
    "resolvents",
    "s_reduction",
    "singular_dp",
    "subsumption_elimination",
    "unit_clause_propagation",
]


# -- step records for witness reconstruction ---------------------------------


class ForcedValueStep(NamedTuple):
    """``var`` was assigned ``value`` and crossed out: a one-value domain in
    unit-clause propagation, a branch of ``satdec.sat_fpt``, or the unit rule
    of the reduction loop, where a unit clause {(var, 1 - value)} on a
    boolean variable forced it."""

    var: int
    value: int

    def lift(self, bindings: Dict[int, int]) -> None:
        bindings[self.var] = self.value


class DomainShrinkStep(NamedTuple):
    """``old_var`` lost ``excluded_value`` and was renamed to ``new_var``.

    Surviving values keep their order: old value e becomes e when
    e < excluded_value and e - 1 otherwise.
    """

    old_var: int
    new_var: int
    excluded_value: int

    def lift(self, bindings: Dict[int, int]) -> None:
        packed = bindings.pop(self.new_var, None)
        if packed is None:
            value = 1 if self.excluded_value == 0 else 0
        else:
            value = packed if packed < self.excluded_value else packed + 1
        bindings[self.old_var] = value


class AutarkyStep(NamedTuple):
    """An autarky was applied, removing every clause it touches."""

    assignment: PartialAssignment

    def lift(self, bindings: Dict[int, int]) -> None:
        bindings.update(self.assignment)


class VariableEliminationStep(NamedTuple):
    """A resolution step on the singular ``var``, whose ``clauses`` just
    before it are all that decide its value when lifting.

    Covers both flavours used by the reduction loop: replacing the clauses
    on var by their resolvents, and dropping one clause copy whose removal
    leaves the resolvent set unchanged.
    """

    var: int
    clauses: FrozenSet[Clause]

    def lift(self, bindings: Dict[int, int]) -> None:
        """Bind the unbound variables of the clauses to 0, then var to the
        smallest value none of whose clauses has all other literals
        falsified.  Every value of a singular var occurs in the clauses, and
        one qualifies whenever the bindings satisfy every well-defined
        resolvent on var; otherwise ValueError.
        """
        v = self.var
        for clause in self.clauses:
            for w in clause._by_var:
                bindings.setdefault(w, 0)
        free = {clause._by_var[v] for clause in self.clauses}
        free -= {clause._by_var[v] for clause in self.clauses
                 if all(bindings[w] == e for w, e in clause._by_var.items() if w != v)}
        if not free:
            raise ValueError(
                f"assignment does not cover the resolvents on variable {v}")
        bindings[v] = min(free)


def lift_through_steps(steps, psi: PartialAssignment) -> PartialAssignment:
    """Turn a model of the last instance into a model of the first one.

    psi is copied once into a dict that each step, last to first, updates
    in place; one assignment is built at the end.
    """
    bindings = dict(psi)
    for step in reversed(steps):
        step.lift(bindings)
    return PartialAssignment(bindings)


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


def pure_variable_elimination(F: MultiClauseSet) -> MultiClauseSet:
    """Fixpoint of assigning unused values, which drops the touched clauses;
    each step makes the pick of the reduction loop's pure rule."""
    state = _ReductionState(F)
    while True:
        state.retest_dirty()
        if not state.pure:
            return state.instance()
        state.remove_touched(assign(state.pure_binding()))


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
    return _clause(merged)


def _dp(F: MultiClauseSet, v: int) -> MultiClauseSet:
    """Replace the clauses on v by their resolvents (identity if v absent).

    Clauses without v keep their multiplicities; each resolvent is added
    once unless already present.  Clauses on v count once each.
    """
    kept = _Trusted()
    buckets: List[List[Clause]] = [[] for _ in F.table.domain(v)]
    for clause, mult in F._clauses.items():
        e = clause._by_var.get(v)
        if e is None:
            kept[clause] = mult
        else:
            buckets[e].append(clause)
    for combo in itertools.product(*buckets):
        R = resolvents(v, combo, F.table)
        if R is not None:
            kept.setdefault(R, 1)
    return MultiClauseSet(F.table, kept)


def dp_resolve(F: MultiClauseSet, v: int) -> MultiClauseSet:
    """Eliminate v from the clause-set of F: drop the clauses on v and add
    every resolvent on it.  Every multiplicity of the result is 1."""
    if v not in F.var_set():
        raise ValueError(f"variable {v} does not occur")
    return _dp(F.dedup(), v)


def _elimination_bound(G: MultiClauseSet, v: int) -> int:
    """c(G) - sum of per-value occurrence counts + their product."""
    counts = G.value_counts(v)
    return G.c - sum(counts) + math.prod(counts)


def is_singular(F: MultiClauseSet, v: int) -> bool:
    """All values of v but at most one occur exactly once, none is unused."""
    return _singular_counts(F.value_counts(v))


def _singular_counts(counts: Sequence[int]) -> bool:
    return 0 not in counts and sum(count != 1 for count in counts) <= 1


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


# -- the reduction loop -------------------------------------------------------


class _ReductionState:
    """The clauses of one reduction run and their literal index.

    ``mult`` maps each clause to its multiplicity and ``occ`` maps each
    occurring variable v to one dict per value e, holding the clauses with
    the literal (v, e) and their multiplicities.  ``singular_step`` is the
    one singular-DP step, shared by the reduction loop and ``musat.
    recognize_mu1``.  Every step goes through ``change``, which updates both
    in place and marks dirty exactly the variables whose verdicts read a
    changed clause; ``retest_dirty`` recomputes those verdicts.  The pure
    and singular verdicts on v read the clauses on v; the redundant-copy
    verdict also reads whether each resolvent on v is a clause, so it files
    v under each resolvent's hash in ``waiting`` (``reads`` is the inverse),
    and a re-test drops those entries first.  An equal hash only costs a
    spare re-test.

    ``units`` is None unless the loop's unit rule is on.  Then it is a stack
    of unit clauses: those of the instance at loop start, and each one that
    ``change`` has given a positive multiplicity since; some may be gone
    again.  ``assign_value`` applies one binding in place.  Neither
    ``__init__`` nor ``_set`` tracks units, so callers without the rule pay
    nothing for it.
    """

    units: Optional[List[Clause]] = None

    def __init__(self, F: MultiClauseSet):
        self.table = F.table
        self.sizes = F.table._sizes
        self.mult: Dict[Clause, int] = {}
        self.occ: Dict[int, List[Dict[Clause, int]]] = {}
        self.pure: set = set()
        self.singular: set = set()
        self.redundant: Dict[int, Clause] = {}
        self.dirty: set = set()
        self.waiting: Dict[int, set] = {}
        self.reads: Dict[int, set] = {}
        self.current: Optional[MultiClauseSet] = F
        for clause, m in F._clauses.items():
            self._set(clause, m)
        self.dirty.update(self.occ)

    def instance(self) -> MultiClauseSet:
        if self.current is None:
            self.current = MultiClauseSet(self.table, _Trusted(self.mult))
        return self.current

    def _set(self, clause: Clause, m: int) -> None:
        if m:
            self.mult[clause] = m
        else:
            del self.mult[clause]
        for v, e in clause._by_var.items():
            slots = self.occ.get(v)
            if slots is None:
                slots = self.occ[v] = [{} for _ in range(self.sizes[v])]
            if m:
                slots[e][clause] = m
            else:
                del slots[e][clause]
                if not any(slots):
                    del self.occ[v]

    def change(self, multiplicities: Dict[Clause, int]) -> None:
        """Give clauses new multiplicities and mark the dirty variables: those
        of each changed clause, and those whose verdict read it as a
        resolvent (``waiting``)."""
        for clause, m in multiplicities.items():
            self._set(clause, m)
            self.dirty.update(clause._by_var)
            self.dirty.update(self.waiting.get(hash(clause), ()))
        if self.units is not None:
            self.units.extend(clause for clause, m in multiplicities.items()
                              if m and len(clause) == 1)
        self.current = None

    def remove_touched(self, phi: PartialAssignment) -> None:
        """Apply an autarky: it satisfies, and so removes, every clause it touches."""
        self.change({clause: 0 for v in phi for slot in self.occ.get(v, ())
                     for clause in slot})

    def assign_value(self, v: int, value: int) -> None:
        """Apply v = value through ``change``: the clauses on v with another
        value are satisfied and go, and those with (v, value) lose that
        literal, their copies adding up as in ``core.apply``."""
        slots = self.occ[v]
        update = {clause: 0 for slot in slots for clause in slot}
        for clause, m in slots[value].items():
            rest = _clause({w: e for w, e in clause._by_var.items() if w != v})
            update[rest] = update.get(rest, self.mult.get(rest, 0)) + m
        self.change(update)

    def retest_dirty(self) -> None:
        for v in self.dirty:
            for h in self.reads.pop(v, ()):
                self.waiting[h].discard(v)
                if not self.waiting[h]:
                    del self.waiting[h]
            self.pure.discard(v)
            self.singular.discard(v)
            self.redundant.pop(v, None)
            slots = self.occ.get(v)
            if slots is None:
                continue
            counts = [sum(slot.values()) for slot in slots]
            if 0 in counts:
                self.pure.add(v)
            elif _singular_counts(counts):
                self.singular.add(v)
                clause = self._redundant_clause_on(v, slots)
                if clause is not None:
                    self.redundant[v] = clause
        self.dirty.clear()

    def pure_binding(self) -> Tuple[int, int]:
        """The smallest pure variable and its smallest unused value."""
        v = min(self.pure)
        return v, next(e for e, slot in enumerate(self.occ[v]) if not slot)

    def _redundant_clause_on(self, v: int, slots) -> Optional[Clause]:
        """The first clause on singular v, in canonical order, one copy of
        which can go without changing the result of eliminating v.

        That is a clause with multiplicity >= 2; the only clause of its
        value when every resolvent clashes or is a clause already; or one of
        several clauses of the main value whose one resolvent clashes, is a
        clause already, or is also the resolvent of another combination.
        v is filed in ``waiting`` under the hash of each resolvent.
        """
        found = {main: None if R is None else frozenset(R.items())
                 for main, R in _singular_combinations(v, slots)}
        seen, twice = set(), set()
        for R in found.values():
            if R is not None:
                (twice if R in seen else seen).add(R)
        if seen:
            self.reads[v] = set(map(hash, seen))
            for h in self.reads[v]:
                self.waiting.setdefault(h, set()).add(v)
        all_kept = all(R is None or R in self.mult for R in found.values())
        redundant = [
            clause for slot in slots for clause in slot
            if self.mult[clause] >= 2 or (
                all_kept if len(slot) == 1 else
                found[clause] is None or found[clause] in self.mult
                or found[clause] in twice)]
        return min(redundant, key=Clause.sort_key, default=None)

    def singular_step(self, v: int) -> Optional[Dict[Clause, int]]:
        """Singular DP on v as an update for ``change``: the clauses on v go
        (multiplicity 0) and their resolvents come in (multiplicity 1).
        None when the step is degenerate: a resolvent clashes, is already a
        clause, or repeats.  The clauses on v must each have multiplicity
        one; then a non-degenerate step drops the clause count by exactly
        |D_v| - 1.
        """
        slots = self.occ[v]
        update = {c: 0 for slot in slots for c in slot}
        for _, R in _singular_combinations(v, slots):
            if R is None:
                return None
            resolvent = _clause(R)
            if resolvent in self.mult or resolvent in update:
                return None
            update[resolvent] = 1
        return update


def _with_side_literals(merged: Optional[Dict[int, int]], clause: Clause,
                        v: int) -> Optional[Dict[int, int]]:
    """merged plus the literals of clause other than v; None on a clash."""
    if merged is None:
        return None
    for w, e in clause._by_var.items():
        if w != v and merged.setdefault(w, e) != e:
            return None
    return merged


def _singular_combinations(v: int, slots):
    """(main clause, resolvent map or None) per parent combination on a
    singular v: one combination per clause of the value with several
    clauses, or one with main clause None when every value has one."""
    side: Optional[Dict[int, int]] = {}
    mains: Sequence = (None,)
    for slot in slots:
        if len(slot) > 1:
            mains = tuple(slot)
        else:
            side = _with_side_literals(side, next(iter(slot)), v)
    if mains[0] is None:
        return [(None, side)]
    return [(main, None if side is None else _with_side_literals(dict(side), main, v))
            for main in mains]


def _r_reduce_logged(F: MultiClauseSet, surplus_one: bool,
                     units: bool = False) -> Tuple[MultiClauseSet, List]:
    """The reduction loop; its last rule runs only with ``surplus_one``, and
    its unit rule, which goes before every other rule, only with ``units``.

    The unit rule takes a unit clause {(v, e)} on a boolean variable, logs
    ``ForcedValueStep(v, 1 - e)`` and assigns v = 1 - e on the state.  When
    that leaves the empty clause, the loop stops there: the instance is
    unsatisfiable, and the rest of it is returned unreduced.
    """
    state = _ReductionState(F)
    if units:
        state.units = [clause for clause in state.mult if len(clause) == 1]
    steps: List = []
    # the graph of the last matching-autarky test while F stayed matching lean
    graph: Optional[IncidenceGraph] = None
    while True:
        if state.units:
            unit = state.units.pop()
            if unit not in state.mult:
                continue  # gone since it was pushed
            ((v, e),) = unit._by_var.items()
            if state.sizes[v] != 2:
                continue
            steps.append(ForcedValueStep(v, 1 - e))
            state.assign_value(v, 1 - e)
            if BOT in state.mult:
                return state.instance(), steps
            graph = None
            continue
        state.retest_dirty()
        if state.redundant:
            v = min(state.redundant)
            steps.append(VariableEliminationStep(v, frozenset().union(*state.occ[v])))
            clause = state.redundant[v]
            state.change({clause: state.mult[clause] - 1})
            graph = None
            continue
        if state.pure:
            phi = assign(state.pure_binding())
        elif graph is not None:
            # a non-degenerate singular DP keeps F matching lean
            phi = None
        else:
            graph = IncidenceGraph(state.instance())
            phi = graph.quasi_maximal_autarky()
        if phi:  # empty iff F is matching lean
            steps.append(AutarkyStep(phi))
            state.remove_touched(phi)
            graph = None
            continue
        if state.singular:
            v = min(state.singular)
            steps.append(VariableEliminationStep(v, frozenset().union(*state.occ[v])))
            update = state.singular_step(v)
            # no clause copy on v is redundant, so the step is non-degenerate
            assert update is not None
            state.change(update)
            continue
        if not surplus_one or not state.occ:
            return state.instance(), steps
        if graph.F is not state.instance():
            graph = IncidenceGraph(state.instance())
        found = graph.surplus(at_most=2)
        if found.value >= 2:
            return state.instance(), steps
        # matching lean and nonempty, so the surplus is exactly one here and
        # comes with a witness V; the restriction to V has deficiency one and
        # every variable occurs more often than its domain size, which makes
        # the restriction satisfiable -- a satisfying assignment of it is a
        # non-trivial autarky.
        part = restrict(state.instance(), found.witness)
        sigma = _satisfy_surplus_one_part(part)
        steps.append(AutarkyStep(sigma))
        state.remove_touched(sigma)
        graph = None


def r_reduction(F: MultiClauseSet) -> MultiClauseSet:
    """The reduction loop without its surplus-one rule: fixpoint of dropping
    a redundant clause on a singular variable, pure-variable elimination,
    matching-autarky reduction, and elimination of a (then non-degenerate)
    singular variable, tried in that order.

    The result is matching lean, has no pure and no singular variables, is
    satisfiability-equivalent, and its maximal deficiency never exceeds the
    input's.
    """
    return _r_reduce_logged(F, surplus_one=False)[0]


def r_reduction_with_log(F: MultiClauseSet):
    F, steps = _r_reduce_logged(F, surplus_one=False)
    return F, tuple(steps)


def _satisfy_surplus_one_part(part: MultiClauseSet) -> PartialAssignment:
    from .satdec import sat_bounded_deficiency  # deferred: satdec builds on us

    outcome = sat_bounded_deficiency(part)
    assert outcome.satisfiable, "deficiency-one restriction must be satisfiable"
    return outcome.witness


def s_reduction(F: MultiClauseSet) -> MultiClauseSet:
    """The reduction loop with all five rules: r_reduction's, then, while the
    surplus is one, satisfying the deficiency-one restriction to a surplus
    witness and applying it as an autarky.  The result has surplus at least
    two or no variables."""
    return _r_reduce_logged(F, surplus_one=True)[0]


def s_reduction_with_log(F: MultiClauseSet, units: bool = False):
    """s_reduction and its steps; ``units`` puts the unit rule of the
    reduction loop first, for boolean instances (``satdec.sat_fpt``)."""
    F, steps = _r_reduce_logged(F, surplus_one=True, units=units)
    return F, tuple(steps)
