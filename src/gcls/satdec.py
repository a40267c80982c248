"""Satisfiability decision and autarky search.

A brute-force reference decision with a hard cap, the bounded-deficiency
decision through matching-satisfiable restrictions, autarky search and lean
kernel computation that are polynomial for fixed maximal deficiency, a
branch-and-reduce decision on the boolean translation, and the implication,
irredundancy and minimal-unsatisfiability tests built on top.

Two autarky searches share the walk.  ``find_nontrivial_autarky_bounded``
and ``lean_kernel_bounded`` are the paper's algorithm: every phi on at most
delta* variables, composed with the matching autarky of phi * F.  The CLI
runs ``find_autarky`` and ``lean_kernel``, which branch only on clauses the
bound assignment touches without satisfying (Liffiton & Sakallah, SAT 2008;
Kullmann & Marques-Silva, SAT 2015).  Their search is complete with no bound
on the variables bound, and exponential in the worst case: it roots each
variable v with each value in turn, an open clause is satisfied at one of
its free variables by every autarky extending the bound one, and once every
value of v has failed v lies in no autarky and is excluded from all later
branches.  Both searches try the quasi-maximal matching autarky first, so
on an input that is not matching lean both return that same autarky.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .core import (
    BOT,
    EMPTY_ASSIGNMENT,
    Clause,
    MultiClauseSet,
    PartialAssignment,
    _Trusted,
    apply,
    assign,
    clause_to_assignment,
    compose,
)
from .matching import (
    matching_lean_kernel,
    matching_satisfying_assignment,
    max_deficiency,
    quasi_maximal_matching_autarky,
)
from .reductions import ForcedValueStep, lift_through_steps, s_reduction_with_log

__all__ = [
    "BruteForceCapExceeded",
    "brute_force_sat",
    "decide",
    "find_autarky",
    "find_nontrivial_autarky_bounded",
    "implies",
    "is_autarky",
    "is_irredundant",
    "is_minimally_unsatisfiable",
    "lean_kernel",
    "lean_kernel_bounded",
    "sat_bounded_deficiency",
    "sat_fpt",
]

#: Default ceiling on the assignment space brute_force_sat will enumerate.
DEFAULT_BRUTE_CAP = 20_000_000

#: Assignment-space threshold below which "auto" dispatches to brute force.
AUTO_BRUTE_LIMIT = 10 ** 6


class BruteForceCapExceeded(RuntimeError):
    """The total-assignment space is larger than DEFAULT_BRUTE_CAP."""


def assignment_space(F: MultiClauseSet) -> int:
    """Number of total assignments over the occurring variables."""
    return math.prod(F.table.domain_size(v) for v in F.var_set())


class _Walk:
    """One backtracking walk over the partial assignments of F.

    It runs over an occurrence index built once: for each non-empty clause
    its variables, length and multiplicity, and for each occurring variable
    the clauses it occurs in with the value each of them forbids.  Binding
    or unbinding one variable updates, on that variable's clauses only, how
    many literals of each are falsified.  With ``room`` it also updates how
    many bound literals satisfy each clause, and from these keeps ``c``,
    the c of phi * F without the empty clause for the current partial
    assignment phi.  The empty clause is touched by no assignment, so it is
    not indexed; callers that must see it test ``BOT in F`` themselves.
    """

    __slots__ = ("variables", "size", "cap", "occ", "members", "length", "mult",
                 "room", "false", "sat", "c", "rd")

    def __init__(self, F: MultiClauseSet, room: bool = False):
        sizes = F.table._sizes
        self.variables = sorted(F.var_set())
        self.size = {v: sizes[v] for v in self.variables}
        self.cap = {v: sizes[v] - 1 for v in self.variables}
        self.occ: Dict[int, List[Tuple[int, int]]] = {v: [] for v in self.variables}
        self.members, self.length, self.mult = [], [], []
        for clause, mult in F._clauses.items():
            if clause:
                i = len(self.length)
                for v, e in clause._by_var.items():
                    self.occ[v].append((i, e))
                self.members.append(tuple(clause._by_var))
                self.length.append(len(clause))
                self.mult.append(mult)
        self.room = room
        self.false = [0] * len(self.length)  # falsified literals per clause
        self.sat = [0] * len(self.length)  # satisfying bound literals per clause
        self.c = sum(self.mult)
        self.rd = sum(self.cap.values())  # rd(F)

    def bind(self, v: int, e: int) -> bool:
        """Bind v to e; False when that falsifies a non-empty clause."""
        false, sat, length, room = self.false, self.sat, self.length, self.room
        ok = True
        for i, forbidden in self.occ[v]:
            if forbidden == e:
                false[i] += 1
                if false[i] == length[i]:
                    ok = False
            elif room:
                sat[i] += 1
                if sat[i] == 1:
                    self.c -= self.mult[i]
        return ok

    def unbind(self, v: int, e: int) -> None:
        """Undo ``bind(v, e)``."""
        false, sat, room = self.false, self.sat, self.room
        for i, forbidden in self.occ[v]:
            if forbidden == e:
                false[i] -= 1
            elif room:
                sat[i] -= 1
                if not sat[i]:
                    self.c += self.mult[i]

    def assignments(self, variables: Sequence[int]) -> Iterator[List[int]]:
        """The value tuples over the variables, in ascending lexicographic
        order (the first variable varies slowest), each yielded while it is
        bound; the list yielded is reused.  A prefix that falsifies a
        non-empty clause is cut with its whole subtree: every extension
        falsifies that clause too."""
        k = len(variables)
        if not k:
            yield []
            return
        values = [-1] * k
        depth = 0
        while depth >= 0:
            v, e = variables[depth], values[depth]
            if e >= 0:
                self.unbind(v, e)
            e += 1
            if e == self.size[v]:
                values[depth] = -1
                depth -= 1
            else:
                values[depth] = e
                if not self.bind(v, e):
                    continue
                if depth + 1 == k:
                    yield values
                else:
                    depth += 1

    def bounded(self, max_vars: int) -> Iterator[Tuple[Tuple[int, ...], List[int]]]:
        """(variables, values) of the partial assignments binding at most
        max_vars variables.  Sizes ascend; within a size the variable tuples
        ascend lexicographically, and for each of them the value tuples as
        in ``assignments``, with its cut.

        With ``room`` only the phi with c(phi * F) <= rd(phi * F) are
        yielded.  Every phi over a variable tuple S leaves the clauses S
        does not touch and removes the variables of S, so
        rd(phi * F) <= rd(F) - cap(S): a tuple whose untouched clauses
        already outweigh that bound is skipped whole, and the exact
        rd(phi * F) is worked out only for a phi whose c is within it.
        """
        for size in range(min(max_vars, len(self.variables)) + 1):
            for subset in itertools.combinations(self.variables, size):
                if self.room:
                    reach = self.rd - sum(self.cap[v] for v in subset)
                    touched = {i for v in subset for i, _ in self.occ[v]}
                    if self.c - sum(self.mult[i] for i in touched) > reach:
                        continue
                for values in self.assignments(subset):
                    if not self.room or (self.c <= reach
                                         and self.c <= self._rd(subset)):
                        yield subset, values

    def _rd(self, subset: Tuple[int, ...]) -> int:
        """rd(phi * F) for the bound phi over subset: the capacities of the
        other variables of the clauses phi does not satisfy."""
        occurring = {w for i, members in enumerate(self.members)
                     if not self.sat[i] for w in members}
        return sum(self.cap[w] for w in occurring.difference(subset))


def brute_force_sat(F: MultiClauseSet) -> Optional[PartialAssignment]:
    """First satisfying total assignment over var(F) in lexicographic order.

    Variables ascend by id, values by magnitude.  Returns None when F is
    unsatisfiable.  When the assignment space exceeds DEFAULT_BRUTE_CAP it
    refuses by raising BruteForceCapExceeded before any work -- it never
    guesses.

    The search is a backtracking walk in that order.  F containing the empty
    clause is answered at once (no assignment satisfies it), and a prefix
    that falsifies a non-empty clause is cut with its subtree (no model
    extends it), so the first total assignment reached is the first model.
    """
    space = assignment_space(F)
    if space > DEFAULT_BRUTE_CAP:
        raise BruteForceCapExceeded(
            f"{space} total assignments exceed the cap of {DEFAULT_BRUTE_CAP}")
    if BOT in F:
        return None
    walk = _Walk(F)
    for values in walk.assignments(walk.variables):
        return PartialAssignment(zip(walk.variables, values))
    return None


class SatResult(NamedTuple):
    satisfiable: bool
    witness: Optional[PartialAssignment]


def sat_bounded_deficiency(F: MultiClauseSet) -> SatResult:
    """Decide satisfiability by searching a matching-satisfiable restriction.

    A satisfiable instance always admits a partial assignment phi binding at
    most maximal-deficiency many variables such that phi * F is matching
    satisfiable; composing phi with the matching-satisfying assignment psi of
    phi * F yields a model.  Exhausting the enumeration proves
    unsatisfiability.

    The candidates phi come in the order of ``_Walk.bounded``: sizes
    ascending, then variable tuples, then value tuples.  Three tests skip
    candidates without changing the first hit:

    - F containing the empty clause is answered at once: every phi * F
      contains it, and it has no edge to match;
    - a value prefix that falsifies a non-empty clause is cut with its
      subtree: phi * F contains the empty clause;
    - phi with c(phi * F) > rd(phi * F) is skipped: a matching covering c
      occurrences needs c units of capacity.  A variable tuple whose every
      phi is such is skipped whole, before its value tuples.

    Only the remaining candidates build phi * F and its matching.
    """
    if BOT in F:
        return SatResult(False, None)
    walk = _Walk(F, room=True)
    for subset, values in walk.bounded(max_deficiency(F).value):
        phi = PartialAssignment(zip(subset, values))
        psi = matching_satisfying_assignment(apply(phi, F))
        if psi is not None:
            return SatResult(True, compose(phi, psi))
    return SatResult(False, None)


def is_autarky(phi: PartialAssignment, F: MultiClauseSet) -> bool:
    """Whether every clause touched by var(phi) is satisfied by phi."""
    bound = phi._bindings.keys()
    return all(phi.satisfies_clause(c) for c in F._clauses
               if not bound.isdisjoint(c._by_var))


def find_nontrivial_autarky_bounded(
        F: MultiClauseSet) -> Optional[PartialAssignment]:
    """A non-trivial autarky for F, or None when F is lean.

    Tries every partial assignment phi binding at most maximal-deficiency
    many variables; phi * F is reduced by its quasi-maximal matching autarky
    psi, and the composition is returned as soon as it is a non-empty autarky
    for F.  (The empty phi covers instances that are not matching lean.)  If
    no composition works, F has no non-trivial autarky at all.

    The candidates phi come in the order of ``_Walk.bounded``: sizes
    ascending, then variable tuples, then value tuples.  A value prefix that
    falsifies a non-empty clause is cut with its subtree: psi lives on the
    variables of phi * F, so the composition leaves that clause touched and
    falsified.  The empty clause is touched by nothing and never cuts.
    """
    walk = _Walk(F)
    for subset, values in walk.bounded(max_deficiency(F).value):
        phi = PartialAssignment(zip(subset, values))
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


class _AutarkyWalk(_Walk):
    """The walk with what the autarky search reads per clause.

    A clause is open when the bound phi touches it without satisfying it
    (``false[i] > 0 and sat[i] == 0``); ``open`` holds the open clauses and
    is kept up to date by ``bind`` and ``unbind``.  ``free[i]`` counts the
    variables of clause i that are neither bound nor excluded, where an
    excluded variable is one shown to lie in no autarky of phi * F.  The
    bind keeps these instead of reporting a falsified clause, so this walk
    is searched with ``extend``, never with ``assignments``.  Both callers
    build it after a matching step, which puts F's clauses in canonical
    order, so the clause numbers that break ties do not depend on how F
    was built.
    """

    __slots__ = ("literals", "open", "free", "bound", "excluded")

    def __init__(self, F: MultiClauseSet):
        super().__init__(F)
        self.literals = [sorted(clause._by_var.items())
                         for clause in F._clauses if clause]
        self.open = set()
        self.free = list(self.length)
        self.bound: Dict[int, int] = {}
        self.excluded = set()

    def bind(self, v: int, e: int) -> None:
        false, sat, free, opened = self.false, self.sat, self.free, self.open
        for i, forbidden in self.occ[v]:
            free[i] -= 1
            if forbidden == e:
                false[i] += 1
                if not sat[i]:
                    opened.add(i)
            else:
                sat[i] += 1
                if sat[i] == 1:
                    opened.discard(i)
        self.bound[v] = e

    def unbind(self, v: int, e: int) -> None:
        false, sat, free, opened = self.false, self.sat, self.free, self.open
        for i, forbidden in self.occ[v]:
            free[i] += 1
            if forbidden == e:
                false[i] -= 1
                if not false[i]:
                    opened.discard(i)
            else:
                sat[i] -= 1
                if not sat[i] and false[i]:
                    opened.add(i)
        del self.bound[v]

    def _moves(self) -> List[Tuple[int, int]]:
        """The branches at the open clause with the fewest free variables
        (the lowest index among those), reversed so that ``pop`` takes them
        by ascending variable, then value: each free w with each value the
        clause does not forbid.  Empty when no free variable is left."""
        free, bound, excluded = self.free, self.bound, self.excluded
        i = min(self.open, key=lambda j: (free[j], j))
        return [(w, x) for w, forbidden in reversed(self.literals[i])
                if w not in bound and w not in excluded
                for x in reversed(range(self.size[w])) if x != forbidden]

    def extend(self, v: int, e: int) -> bool:
        """Search for an autarky of phi * F that sets v = e, phi the bound
        assignment (itself an autarky).  On success phi and that autarky
        stay bound, which composed are an autarky of F; on failure the walk
        is left as it was.

        Depth-first over an explicit stack: ``stack`` holds the branches not
        yet tried at each node of the path, and ``path`` the bind that led
        to each node, so a node whose branches are spent undoes its bind.
        """
        self.bind(v, e)
        path, stack = [(v, e)], []
        while self.open:
            stack.append(self._moves())
            while not stack[-1]:
                stack.pop()
                self.unbind(*path.pop())
                if not stack:
                    return False
            w, x = stack[-1].pop()
            self.bind(w, x)
            path.append((w, x))
        return True

    def root(self, v: int) -> bool:
        """``extend`` from each value of v in turn; when every value fails,
        v lies in no autarky of phi * F and is excluded from all later
        branches."""
        if any(self.extend(v, e) for e in range(self.size[v])):
            return True
        self.excluded.add(v)
        for i, _ in self.occ[v]:
            self.free[i] -= 1
        return False


def find_autarky(F: MultiClauseSet) -> Optional[PartialAssignment]:
    """A non-trivial autarky for F, or None when F is lean.

    When F is not matching lean, this is its quasi-maximal matching autarky,
    the first candidate ``find_nontrivial_autarky_bounded`` tries (the empty
    phi composed with it), so both return the same autarky there.

    Otherwise the search is complete, with no bound on the number of bound
    variables: for each variable v in ascending order and each value e, it
    searches from {v: e}, branching at the open clause (touched but not
    satisfied) with the fewest free variables on each free variable w with
    each value the clause does not forbid, and answers with the first phi
    that leaves no clause open.  An autarky psi that extends phi satisfies
    the open clause at one of its unbound variables, so the branch psi
    takes is tried and every autarky setting v = e is reached.  Once every
    value of v has failed, v lies in no autarky, so it is excluded from all
    later branches; an open clause without free variables is a dead end.
    """
    phi = quasi_maximal_matching_autarky(F)
    if phi:
        return phi
    walk = _AutarkyWalk(F)
    for v in walk.variables:
        if walk.root(v):
            return PartialAssignment(walk.bound)
    return None


def lean_kernel(F: MultiClauseSet) -> MultiClauseSet:
    """The lean kernel of F, equal to ``lean_kernel_bounded(F)``.

    F is first cut to its matching-lean kernel.  Then one walk roots each
    variable not yet bound, in ascending order, as ``find_autarky`` does,
    but every autarky found stays bound: with phi bound, the walk searches
    phi * F, whose autarkies composed with phi are autarkies of F.  A
    variable excluded under some phi lies in no autarky of phi * F, nor of
    any later restriction of it, so one pass leaves a phi with phi * F lean:
    the kernel is the clauses phi does not satisfy.
    """
    F = matching_lean_kernel(F)
    walk = _AutarkyWalk(F)
    for v in walk.variables:
        if v not in walk.bound:
            walk.root(v)
    sat = iter(walk.sat)
    return F.with_clauses(_Trusted(
        (clause, mult) for clause, mult in F._clauses.items()
        if not clause or not next(sat)))


class FptResult(NamedTuple):
    satisfiable: bool
    witness: Optional[PartialAssignment]
    node_count: int


def sat_fpt(F: MultiClauseSet) -> FptResult:
    """Branch-and-reduce satisfiability decision via the boolean translation.

    The instance is translated to boolean form and searched with no
    separate prelude: every node, the root included, applies s_reduction
    with the unit rule put first (``s_reduction_with_log(G, units=True)``;
    its loop also eliminates pure variables and applies the matching
    autarky), is a leaf when the empty clause is left, answers SAT when no
    clause is left (the only matching-satisfiable s-reduced instance), and
    otherwise branches a variable of minimal slack into both values, 0
    first.  Each branch strictly decreases the maximal deficiency, so the
    number of explored leaves (node_count) is at most 2**d for d the
    maximal deficiency of the reduced root (Szeider, JCSS 2004).

    The unit rule keeps that bound: it never raises the maximal deficiency.
    A unit clause {(v, e)} forces v = 1 - e; take any F' within the forced
    instance.  The clauses of F' each come from a clause of the node, and
    these together with the unit clause are one clause more than F' on at
    most one boolean variable more, so their deficiency is no lower than
    that of F'.

    The search loops over an explicit stack of (parent instance, branch,
    trail length).  One trail logs the reduction steps and branches (as
    ``ForcedValueStep``) from the root; taking an entry cuts it back.  The
    first empty node lifts the whole trail once, to the original variables.
    """
    from .translate import direct_weak, lift_assignment

    translation = direct_weak(F)
    trail: List = []
    stack = [(translation.boolean_cnf, None, 0)]
    leaves = 0
    while stack:
        G, branch, mark = stack.pop()
        if branch is not None:
            trail[mark:] = [branch]
            G = apply(assign(branch), G)
        G, steps = s_reduction_with_log(G, units=True)
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


# -- implication, irredundancy, minimal unsatisfiability -----------------------


def decide(F: MultiClauseSet, method: str = "auto") -> SatResult:
    """Dispatch to one SAT back-end; "auto" means brute force on assignment
    spaces up to 10^6 and branch-and-reduce beyond."""
    if method == "auto":
        method = "brute" if assignment_space(F) <= AUTO_BRUTE_LIMIT else "fpt"
    if method == "brute":
        witness = brute_force_sat(F)
        return SatResult(witness is not None, witness)
    if method == "bounded":
        return sat_bounded_deficiency(F)
    if method == "fpt":
        outcome = sat_fpt(F)
        return SatResult(outcome.satisfiable, outcome.witness)
    raise ValueError(f"unknown method {method!r}")


def implies(F: MultiClauseSet, clause: Clause) -> bool:
    """Whether every model of F satisfies the clause."""
    phi = clause_to_assignment(clause)
    return not decide(apply(phi, F)).satisfiable


def is_irredundant(F: MultiClauseSet) -> bool:
    """No clause of F is implied by the remaining ones."""
    for clause in F.clauses():
        items = dict(F.items())
        items[clause] -= 1
        if implies(F.with_clauses(items), clause):
            return False
    return True


def is_minimally_unsatisfiable(F: MultiClauseSet) -> bool:
    """Unsatisfiable, and every clause removal makes it satisfiable."""
    return not decide(F).satisfiable and is_irredundant(F)
