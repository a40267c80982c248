"""Clause/variable incidence graphs, maximal deficiency, surplus, matching
autarkies, the matching-lean kernel, and repair of assignments to
matching-maximum ones.

The incidence graph B(F) has one left node per clause occurrence and one
right node per occurring variable v with capacity |D_v| - 1 (0 for a
one-value domain), and an edge whenever v occurs in the clause; B_phi(F)
keeps only the edges whose literal phi satisfies.  A matching gives each
occurrence at most one variable and each variable at most its capacity of
occurrences, which is a matching of the graph with |D_v| - 1 copies of
every variable node.

``IncidenceGraph`` computes one maximum matching (a greedy pass, then one
breadth-first augmenting search per occurrence left uncovered), and every
answer is read off that matching:

- the maximal deficiency is c - nu; F is matching satisfiable iff it is 0;
- an occurrence lies in the matching-lean kernel iff some maximum matching
  misses it, iff an even alternating path from an uncovered occurrence
  reaches it (the Dulmage-Mendelsohn decomposition); the matched
  occurrences outside that set give the quasi-maximal matching autarky;
- the surplus comes from spare capacity: the variables alternating-reachable
  from it form the witness, and with no spare capacity, raising the
  capacity of v one unit at a time until no augmenting path leaves v
  measures the best witness through v.  A capacity-0 node is raised like
  any other, and each trial's augmenting paths are undone in place before
  the next variable's.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from .core import (
    MultiClauseSet,
    PartialAssignment,
    compose,
    restrict,
)

__all__ = [
    "IncidenceGraph",
    "is_matching_autarky",
    "is_matching_lean",
    "is_matching_satisfiable",
    "matching_lean_kernel",
    "matching_satisfying_assignment",
    "max_deficiency",
    "quasi_maximal_matching_autarky",
    "repair_to_matching_maximum",
    "surplus",
    "surplus_at_least",
    "tovey_check",
]


class Surplus(NamedTuple):
    value: int
    witness: Optional[frozenset]  # nonempty V with delta(F[V]) == value, None iff n(F) == 0


class IncidenceGraph:
    """B(F), or B_phi(F) when phi is given, with one maximum matching.

    Occurrences are numbered in canonical clause order: ``owner[o]`` indexes
    ``clauses``, ``adj[o]`` lists every variable on an edge of o, capacity 0
    included (with phi, every variable whose literal in the clause phi
    satisfies), ``mate[o]`` is the variable matched to o (None when
    uncovered), ``users[v]`` the occurrences matched to v, and ``size`` the
    size of the matching.  ``lean`` holds the occurrences that an even
    alternating path from an uncovered occurrence reaches, which are those
    some maximum matching misses.
    """

    __slots__ = ("F", "clauses", "owner", "adj", "cap", "mate", "users", "size",
                 "lean", "_on")

    def __init__(self, F: MultiClauseSet, phi: Optional[PartialAssignment] = None):
        self.F = F
        self.clauses = F.clauses()
        cap = self.cap = {v: F.table.domain_size(v) - 1 for v in F.var_set()}
        owner: List[int] = []
        adj: List[List[int]] = []
        for idx, (clause, mult) in enumerate(F.items()):
            vs = [v for v, e in sorted(clause)
                  if phi is None or phi.satisfies_literal((v, e))]
            owner += [idx] * mult
            adj += [vs] * mult
        self.owner, self.adj, self._on = owner, adj, None
        mate = self.mate = [None] * len(adj)
        users = self.users = {v: [] for v in cap}
        free = []
        for o, vs in enumerate(adj):
            for v in vs:
                if len(users[v]) < cap[v]:
                    mate[o] = v
                    users[v].append(o)
                    break
            else:
                free.append(o)
        self.size = len(adj) - len(free)
        self.lean = {}
        for o in free:
            self._augment_from(o)

    def _relink(self, o: int, v: Optional[int]) -> None:
        """Match occurrence o to variable v, or uncover it when v is None,
        releasing its previous mate."""
        old = self.mate[o]
        if old is None:
            self.size += 1
        else:
            self.users[old].remove(o)
        self.mate[o] = v
        if v is None:
            self.size -= 1
        else:
            self.users[v].append(o)

    def _augment(self, path: list) -> None:
        """Flip an augmenting path [v0, o1, v1, ..., vk, o_end]: v0 has spare
        capacity, each o_i is matched to v_i, and o_end is uncovered.  The
        list [None, o_end, vk, ..., v1, o1] flips it back."""
        for k in range(1, len(path), 2):
            self._relink(path[k], path[k - 1])

    def _spare(self) -> List[int]:
        return [v for v in sorted(self.cap) if len(self.users[v]) < self.cap[v]]

    def _augment_from(self, source: int) -> None:
        """Breadth-first search for an augmenting path from an uncovered
        occurrence, flipped when found.  When there is none, the reached
        occurrences join ``lean``: their neighbours are saturated by them,
        so no later augmenting path enters them and they stay unreachable
        for the other searches."""
        adj, mate, users, cap, lean = self.adj, self.mate, self.users, self.cap, self.lean
        came = {source: None}
        queue = [source]
        for o in queue:
            for v in adj[o]:
                held = users[v]
                if len(held) < cap[v]:
                    path = [v, o]
                    while came[o] is not None:
                        path += [mate[o], came[o]]
                        o = came[o]
                    self._augment(path)
                    return
                for p in held:
                    if p not in came and p not in lean:
                        came[p] = o
                        queue.append(p)
        lean.update(came)

    def _from_variables(self, sources):
        """Breadth-first alternating search from variables with spare capacity.

        Returns (path, None) for the first augmenting path found, or
        (None, reached variables) when there is none.
        """
        if self._on is None:
            self._on = {v: [] for v in self.cap}
            for o, vs in enumerate(self.adj):
                for v in vs:
                    self._on[v].append(o)
        on, mate = self._on, self.mate
        came = dict.fromkeys(sources)
        queue = list(came)
        for v in queue:
            for o in on[v]:
                w = mate[o]
                if w is None:
                    path = [o, v]
                    while came[v] is not None:
                        v, o = came[v]
                        path += [o, v]
                    return path[::-1], None
                if w not in came:
                    came[w] = (v, o)
                    queue.append(w)
        return None, came.keys()

    def surplus(self, at_most: Optional[int] = None) -> Surplus:
        """Minimum of delta(F[V]) over nonempty variable sets V (0 when n(F)=0),
        for a graph built without phi.

        With spare capacity in the maximum matching the surplus is negative
        and the variables alternating-reachable from the spare capacity are
        the witness.  Otherwise, for each variable v in turn, the capacity
        of v is raised one unit at a time, each time followed by one
        augmenting search from v; the first failure at s extra units yields
        the witness reachable from v with delta = s-1, and later variables
        only try fewer units.  The trial's augmenting paths are then flipped
        back, last first, so the graph ends as it began, up to the order of
        the ``users`` lists, which only ``__init__`` reads.
        With at_most=k the search stops early: a value below k is exact,
        and a value of at least k only means the surplus is at least k.
        """
        cap = self.cap
        if not cap:
            return Surplus(0, None)
        rd = sum(cap.values())
        spare = self._spare()
        if spare:
            value, witness = self.size - rd, self._from_variables(spare)[1]
        else:  # the whole set, unless some variable beats it within top
            value, witness = sum(1 for vs in self.adj if vs) - rd, cap.keys()
            top = value if at_most is None else min(value, at_most)
            for v in sorted(cap):
                saved, paths = cap[v], []
                for s in range(1, top + 1):
                    cap[v] += 1
                    path, reached = self._from_variables([v])
                    if path is None:
                        value, witness, top = s - 1, reached, s - 1
                        break
                    self._augment(path)
                    paths.append(path)
                cap[v] = saved
                for path in reversed(paths):
                    self._augment([None, *path[:0:-1]])
        found = Surplus(value, frozenset(witness))
        assert found.witness and restrict(self.F, found.witness).delta == value
        return found

    def quasi_maximal_autarky(self) -> PartialAssignment:
        """The assignment read off the occurrences outside ``lean``; see
        ``quasi_maximal_matching_autarky``."""
        return self._assignment(o for o in range(len(self.adj)) if o not in self.lean)

    def _assignment(self, occurrences) -> PartialAssignment:
        """Each variable matched to one of the (matched) occurrences gets its
        least value that none of them forbids; capacity |D_v| - 1 leaves one."""
        forbidden: Dict[int, set] = {}
        for o in occurrences:
            v = self.mate[o]
            forbidden.setdefault(v, set()).add(self.clauses[self.owner[o]].value_on(v))
        return PartialAssignment({
            v: min(e for e in self.F.table.domain(v) if e not in values)
            for v, values in forbidden.items()})


class MaxDeficiency(NamedTuple):
    value: int


def max_deficiency(F: MultiClauseSet) -> MaxDeficiency:
    """Maximal deficiency over all sub-multi-clause-sets, via maximum matching."""
    graph = IncidenceGraph(F)
    return MaxDeficiency(len(graph.adj) - graph.size)


def is_matching_satisfiable(F: MultiClauseSet) -> bool:
    return max_deficiency(F).value == 0


def matching_satisfying_assignment(F: MultiClauseSet) -> Optional[PartialAssignment]:
    """A satisfying assignment witnessing matching satisfiability, or None.

    Each variable matched to some clause occurrences receives the smallest
    value not forbidden for it by those clauses; since a variable has
    capacity domain_size-1, such a value always exists.
    """
    graph = IncidenceGraph(F)
    if graph.size < len(graph.adj):
        return None
    return graph._assignment(range(len(graph.adj)))


def is_matching_autarky(phi: PartialAssignment, F: MultiClauseSet) -> bool:
    """phi is a matching-satisfying assignment of the restriction to var(phi)."""
    G = restrict(F, set(phi))
    return IncidenceGraph(G, phi).size == G.c


def surplus(F: MultiClauseSet, at_most: Optional[int] = None) -> Surplus:
    """Minimum of delta(F[V]) over nonempty variable sets V (0 when n(F)=0),
    read off a fresh graph of F by ``IncidenceGraph.surplus``.

    With at_most=k the search stops early: a value below k is exact, and a
    value of at least k only means the surplus is at least k.
    """
    return IncidenceGraph(F).surplus(at_most)


def surplus_at_least(F: MultiClauseSet, bound: int) -> bool:
    """Whether surp(F) >= bound, stopping the search as early as possible."""
    return surplus(F, at_most=bound).value >= bound


def is_matching_lean(F: MultiClauseSet) -> bool:
    """No nontrivial matching autarky exists (surplus >= 1 when n > 0):
    every occurrence is missed by some maximum matching."""
    graph = IncidenceGraph(F)
    return len(graph.lean) == len(graph.adj)


def matching_lean_kernel(F: MultiClauseSet) -> MultiClauseSet:
    """The largest matching-lean sub-multi-clause-set (the matching-lean
    kernel): the clauses whose occurrences some maximum matching misses.
    Occurrences of one clause stand or fall together."""
    graph = IncidenceGraph(F)
    kept = {graph.owner[o] for o in graph.lean}
    return F.with_clauses({c: m for idx, (c, m) in enumerate(F.items()) if idx in kept})


def quasi_maximal_matching_autarky(F: MultiClauseSet) -> PartialAssignment:
    """A matching autarky whose application yields the matching-lean kernel;
    empty iff F is matching lean.

    The occurrences outside the kernel are matched in every maximum matching,
    never to a kernel variable, so the assignment read off them satisfies
    exactly those clauses and touches no kernel clause.
    """
    return IncidenceGraph(F).quasi_maximal_autarky()


def tovey_check(F: MultiClauseSet) -> bool:
    """Sufficient degree/width criterion for matching satisfiability.

    True iff max variable occurrence / min clause length is at most the
    minimum domain size minus one; rejects inputs without a non-empty clause.
    """
    if not any(len(c) for c in F.clauses()):
        raise ValueError("needs a non-empty clause")
    max_occ = max(map(sum, F.value_count_table().values()))
    min_len = min(len(c) for c in F.clauses())
    min_dom = min(F.table.domain_size(v) for v in F.var_set())
    return max_occ <= (min_dom - 1) * min_len


# -- repair to a matching-maximum assignment ---------------------------------


class Change(NamedTuple):
    kind: str  # "extend" or "flip"
    var: int
    old: Optional[int]  # None for extensions
    new: int


def repair_to_matching_maximum(F: MultiClauseSet, phi0: PartialAssignment):
    """Repair phi0 by conservative changes until it is matching-maximum.

    Returns (phi, changes) with nu(B_phi(F)) = nu(B(F)).  Each change is an
    extension or a flip preserving all clauses currently satisfied, so the set
    of satisfied clauses grows monotonically along the change sequence.
    The graph of F carries a maximum matching of the live edges (those whose
    literal phi satisfies), grown along augmenting paths of the full graph.
    """
    graph = IncidenceGraph(F)
    target = graph.size
    live = IncidenceGraph(F, phi0)
    graph.mate, graph.users, graph.size = live.mate, live.users, live.size
    phi, changes = phi0, []

    def forbidden(o: int, v: int) -> int:
        return graph.clauses[graph.owner[o]].value_on(v)

    def free_live_edge():
        for o, mate in enumerate(graph.mate):
            if mate is None:
                for v in graph.adj[o]:
                    if (len(graph.users[v]) < graph.cap[v]
                            and phi.satisfies_literal((v, forbidden(o, v)))):
                        return o, v
        return None

    def make_live(o: int, v: int) -> None:
        # Sound when no extension of the matching covers the spare capacity
        # of v: bind v, or flip it, to a value avoiding the one o forbids and
        # every one the clauses matched to v rely on.
        nonlocal phi
        old = phi.get(v)
        assert old in (None, forbidden(o, v)), "edge was live already"
        in_use = {forbidden(p, v) for p in graph.users[v]} | {forbidden(o, v)}
        candidates = [e for e in F.table.domain(v) if e not in in_use]
        assert candidates, "matching left no free value"
        changes.append(Change("extend" if old is None else "flip", v, old, candidates[0]))
        phi = compose(phi, PartialAssignment({v: candidates[0]}))

    while True:
        edge = free_live_edge()
        while edge is not None:
            graph._relink(*edge)
            edge = free_live_edge()
        if graph.size >= target:
            return phi, changes
        path, _ = graph._from_variables(graph._spare())
        assert path is not None
        # walk the path: relink each clause occurrence to the variable before
        # it, making the edge live first; stop as soon as the matching is no
        # longer maximal on the live edges, so that it grows instead
        for k in range(1, len(path), 2):
            if free_live_edge() is not None:
                break
            o, v = path[k], path[k - 1]
            if not phi.satisfies_literal((v, forbidden(o, v))):
                make_live(o, v)
            graph._relink(o, v)
