"""Core data model for generalised (multi-)clause-sets.

Variables take values from finite domains {0, ..., size-1}.  A literal
``(v, e)`` is the constraint "v must not take value e"; a clause is a
clashing-free set of such literals (at most one literal per variable), and a
multi-clause-set maps clauses to positive multiplicities.  There is one
multiplicity model: every operation keeps multiplicities, and a clause-set is
a multi-clause-set whose multiplicities are all 1, obtained with
``MultiClauseSet.dedup``.

A partial assignment satisfies a literal (v, e) iff it binds v to some value
different from e, and falsifies it iff it binds v to e exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, Iterator, Mapping, NamedTuple, Tuple

__all__ = [
    "BOT",
    "Clause",
    "EMPTY_ASSIGNMENT",
    "Literal",
    "Measures",
    "MultiClauseSet",
    "PartialAssignment",
    "VariableTable",
    "apply",
    "assign",
    "assignment_to_clause",
    "clause_to_assignment",
    "compose",
    "cross_out",
    "domain_uniformisation",
    "falsifying_count",
    "measures",
    "rename",
    "restrict",
    "top",
    "touched",
]


class Literal(NamedTuple):
    var: int
    value: int


class Clause(frozenset):
    """A clashing-free frozenset of literals.

    Construction rejects two literals on the same variable with different
    values; duplicate (var, value) pairs collapse by set semantics.  A clause
    keeps the variable-to-value map its clash check builds, so ``has_var``
    and ``value_on`` are dictionary lookups.
    """

    __slots__ = ("_by_var",)

    def __new__(cls, literals: Iterable[Tuple[int, int]] = ()) -> "Clause":
        by_var: Dict[int, int] = {}
        for v, e in literals:
            v, e = int(v), int(e)
            if by_var.setdefault(v, e) != e:
                raise ValueError(f"clashing literals on variable {v}")
        self = super().__new__(cls, map(_literal, by_var.items()))
        self._by_var = by_var
        return self

    @property
    def variables(self) -> frozenset:
        return frozenset(self._by_var)

    def value_on(self, v: int) -> int:
        """The forbidden value this clause states for v (KeyError if absent)."""
        return self._by_var[v]

    def has_var(self, v: int) -> bool:
        return v in self._by_var

    def without_vars(self, vs) -> "Clause":
        return _clause({v: e for v, e in self._by_var.items() if v not in vs})

    def sort_key(self) -> tuple:
        return tuple(sorted(self))

    def __repr__(self) -> str:
        inner = ",".join(f"{v}:{e}" for (v, e) in sorted(self))
        return "{" + inner + "}"


_literal = partial(tuple.__new__, Literal)


def _clause(by_var: Dict[int, int], literals: Iterable[Literal] = ()) -> Clause:
    """The clause of a variable-to-value map of ints, without re-checking;
    a caller that already holds the map's literals may pass them."""
    self = frozenset.__new__(Clause, literals or map(_literal, by_var.items()))
    self._by_var = by_var
    return self


#: The empty clause (unsatisfiable by every assignment).
BOT = Clause()


class VariableTable:
    """Immutable declaration of variables and their domain sizes.

    The domain of a declared variable v is range(domain_size(v)).  Var ids are
    positive integers; domain sizes are >= 1.
    """

    __slots__ = ("_sizes",)

    def __init__(self, entries: Mapping[int, int] | Iterable[Tuple[int, int]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        sizes: Dict[int, int] = {}
        for v, size in items:
            v, size = int(v), int(size)
            if v < 1:
                raise ValueError(f"var ids must be positive, got {v}")
            if size < 1:
                raise ValueError(f"domain size of {v} must be >= 1, got {size}")
            if sizes.setdefault(v, size) != size:
                raise ValueError(f"variable {v} declared twice with different sizes")
            sizes[v] = size
        self._sizes = dict(sorted(sizes.items()))

    def domain_size(self, v: int) -> int:
        return self._sizes[v]

    def domain(self, v: int) -> range:
        return range(self._sizes[v])

    def variables(self) -> Tuple[int, ...]:
        return tuple(self._sizes)

    def __contains__(self, v: int) -> bool:
        return v in self._sizes

    def __len__(self) -> int:
        return len(self._sizes)

    def declare(self, v: int, size: int) -> "VariableTable":
        """A new table with v declared (must agree if already present)."""
        if v in self._sizes and self._sizes[v] != size:
            raise ValueError(f"variable {v} already declared with size {self._sizes[v]}")
        return VariableTable({**self._sizes, v: size})

    def merge(self, other: "VariableTable") -> "VariableTable":
        merged = dict(self._sizes)
        for v, size in other._sizes.items():
            if merged.setdefault(v, size) != size:
                raise ValueError(f"tables disagree on domain size of variable {v}")
        return VariableTable(merged)

    def sizes(self) -> Dict[int, int]:
        return dict(self._sizes)

    def __eq__(self, other) -> bool:
        return isinstance(other, VariableTable) and self._sizes == other._sizes

    def __repr__(self) -> str:
        return f"VariableTable({self._sizes})"


def _clause_items(clauses) -> Iterator[Tuple[Clause, int]]:
    if isinstance(clauses, Mapping):
        yield from clauses.items()
    else:
        for entry in clauses:
            if isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[1], int) \
                    and not isinstance(entry[0], (int, Literal)):
                yield entry
            else:
                yield entry, 1


class _Trusted(dict):
    """Positive clause multiplicities derived inside the library from clauses
    already checked against the same table.  ``MultiClauseSet`` takes it as
    its clause map, without per-literal checks."""


class MultiClauseSet:
    """An immutable map from clauses to positive multiplicities over a table.

    Every operation keeps multiplicities: clauses that become equal (say,
    after crossing out variables) add up instead of merging.  A clause-set is
    simply a multi-clause-set whose multiplicities are all 1; ``dedup`` is
    the one way to get it.  Iteration order of clauses is canonical (sorted
    literal tuples), so equal objects print and serialise identically; a
    derived object sorts its clauses on the first ordered access, and every
    object builds its variable set on the first ``var_set`` call.
    """

    __slots__ = ("table", "_clauses", "_ordered", "_vars")

    def __init__(self, table: VariableTable, clauses=()):
        self.table = table
        self._vars = None
        if type(clauses) is _Trusted:
            self._clauses = clauses
            self._ordered = False
            return
        sizes = table._sizes
        acc: Dict[Clause, int] = {}
        for clause, mult in _clause_items(clauses):
            if not isinstance(clause, Clause):
                clause = Clause(clause)
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult == 0:
                continue
            for v, e in clause:
                if v not in sizes:
                    raise ValueError(f"variable {v} not declared")
                if not 0 <= e < sizes[v]:
                    raise ValueError(f"value {e} outside domain of variable {v}")
            acc[clause] = acc.get(clause, 0) + mult
        self._clauses = {c: acc[c] for c in sorted(acc, key=Clause.sort_key)}
        self._ordered = True

    def _canonical(self) -> Dict[Clause, int]:
        if not self._ordered:
            clauses = self._clauses
            self._clauses = {c: clauses[c] for c in sorted(clauses, key=Clause.sort_key)}
            self._ordered = True
        return self._clauses

    # -- accessors ---------------------------------------------------------

    def items(self) -> Tuple[Tuple[Clause, int], ...]:
        return tuple(self._canonical().items())

    def clauses(self) -> Tuple[Clause, ...]:
        return tuple(self._canonical())

    def multiplicity(self, clause: Clause) -> int:
        return self._clauses.get(clause, 0)

    def __contains__(self, clause: Clause) -> bool:
        return clause in self._clauses

    def __bool__(self) -> bool:
        return bool(self._clauses)

    def with_clauses(self, clauses) -> "MultiClauseSet":
        return MultiClauseSet(self.table, clauses)

    def dedup(self) -> "MultiClauseSet":
        """This multi-clause-set with every multiplicity 1; self when already so."""
        if all(m == 1 for m in self._clauses.values()):
            return self
        return MultiClauseSet(self.table, _Trusted.fromkeys(self._clauses, 1))

    # -- measures ----------------------------------------------------------

    def var_set(self) -> frozenset:
        if self._vars is None:
            self._vars = frozenset(v for c in self._clauses for v in c._by_var)
        return self._vars

    @property
    def c(self) -> int:
        return sum(self._clauses.values())

    @property
    def n(self) -> int:
        return len(self.var_set())

    @property
    def ell(self) -> int:
        return sum(m * len(c) for c, m in self._clauses.items())

    @property
    def rd(self) -> int:
        return sum(self.table.domain_size(v) - 1 for v in self.var_set())

    @property
    def delta(self) -> int:
        return self.c - self.rd

    def count(self, lit: Tuple[int, int]) -> int:
        lit = Literal(*lit)
        return sum(m for c, m in self._clauses.items() if lit in c)

    def var_count(self, v: int) -> int:
        return sum(m for c, m in self._clauses.items() if v in c._by_var)

    def value_counts(self, v: int) -> list:
        """``count((v, e))`` for every value e of v, from one pass."""
        counts = [0] * self.table.domain_size(v)
        for c, m in self._clauses.items():
            e = c._by_var.get(v)
            if e is not None:
                counts[e] += m
        return counts

    def value_count_table(self) -> Dict[int, list]:
        """``value_counts(v)`` for every occurring variable v, from one pass."""
        sizes = self.table._sizes
        by_var: Dict[int, list] = {}
        for c, m in self._clauses.items():
            for v, e in c._by_var.items():
                counts = by_var.get(v)
                if counts is None:
                    counts = by_var[v] = [0] * sizes[v]
                counts[e] += m
        return by_var

    def slack(self, lit: Tuple[int, int]) -> int:
        return self.var_count(lit[0]) - self.count(lit)

    def min_slack(self, v: int) -> int:
        counts = self.value_counts(v)
        total = sum(counts)
        return min(total - k for k in counts)

    def values_of(self, v: int) -> frozenset:
        return frozenset(c._by_var[v] for c in self._clauses if v in c._by_var)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "MultiClauseSet") -> "MultiClauseSet":
        table = self.table.merge(other.table)
        acc = dict(self._clauses)
        for c, m in other._clauses.items():
            acc[c] = acc.get(c, 0) + m
        return MultiClauseSet(table, acc)

    def __eq__(self, other) -> bool:
        """Equality of the clause maps plus domain sizes on occurring variables."""
        if not isinstance(other, MultiClauseSet):
            return NotImplemented
        if self._clauses != other._clauses:
            return False
        return all(self.table.domain_size(v) == other.table.domain_size(v)
                   for v in self.var_set())

    def __repr__(self) -> str:
        body = " + ".join((f"{m}*{c!r}" if m != 1 else repr(c))
                          for c, m in self._canonical().items())
        return f"MultiClauseSet[{body or 'T'}]"


def top(table: VariableTable | None = None) -> MultiClauseSet:
    """The empty multi-clause-set (satisfied by everything)."""
    return MultiClauseSet(table or VariableTable())


class PartialAssignment(Mapping):
    """An immutable, hashable map from variables to values."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[int, int] | Iterable[Tuple[int, int]] = ()):
        items = bindings.items() if isinstance(bindings, Mapping) else bindings
        acc: Dict[int, int] = {}
        for v, e in items:
            v, e = int(v), int(e)
            if acc.setdefault(v, e) != e:
                raise ValueError(f"variable {v} bound twice")
        self._bindings = dict(sorted(acc.items()))

    def __getitem__(self, v: int) -> int:
        return self._bindings[v]

    def __iter__(self) -> Iterator[int]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __hash__(self) -> int:
        return hash(tuple(self._bindings.items()))

    def __eq__(self, other) -> bool:
        if isinstance(other, PartialAssignment):
            return self._bindings == other._bindings
        if isinstance(other, Mapping):
            return self._bindings == dict(other)
        return NotImplemented

    def satisfies_literal(self, lit: Tuple[int, int]) -> bool:
        v, e = lit
        return v in self._bindings and self._bindings[v] != e

    def falsifies_literal(self, lit: Tuple[int, int]) -> bool:
        v, e = lit
        return self._bindings.get(v) == e

    def satisfies_clause(self, clause: Clause) -> bool:
        return any(self.satisfies_literal(lit) for lit in clause)

    def __repr__(self) -> str:
        inner = ",".join(f"{v}->{e}" for v, e in self._bindings.items())
        return f"<{inner}>"


EMPTY_ASSIGNMENT = PartialAssignment()


def assign(*pairs: Tuple[int, int]) -> PartialAssignment:
    return PartialAssignment(pairs)


# -- operations -------------------------------------------------------------


def compose(outer: PartialAssignment, inner: PartialAssignment) -> PartialAssignment:
    """Sequential composition: apply inner first; on overlap inner wins."""
    merged = dict(outer)
    merged.update(inner)
    return PartialAssignment(merged)


def apply(phi: PartialAssignment, F: MultiClauseSet) -> MultiClauseSet:
    """Restrict F by phi: drop satisfied clauses, delete falsified literals."""
    sizes = F.table._sizes
    bound = dict(phi.items())
    for v, e in bound.items():
        if v in sizes and not 0 <= e < sizes[v]:
            raise ValueError(f"value {e} outside domain of variable {v}")
    keys = bound.keys()
    acc = _Trusted()
    for clause, mult in F._clauses.items():
        by_var = clause._by_var
        if not keys.isdisjoint(by_var):
            if any(bound[v] != e for v, e in by_var.items() if v in bound):
                continue
            clause = _clause({v: e for v, e in by_var.items() if v not in bound})
        acc[clause] = acc.get(clause, 0) + mult
    return MultiClauseSet(F.table, acc)


def cross_out(V, F: MultiClauseSet) -> MultiClauseSet:
    """Remove every literal whose variable lies in V; clause count is kept."""
    V = frozenset(V)
    acc = _Trusted()
    for clause, mult in F._clauses.items():
        if not V.isdisjoint(clause._by_var):
            clause = clause.without_vars(V)
        acc[clause] = acc.get(clause, 0) + mult
    return MultiClauseSet(F.table, acc)


def touched(F: MultiClauseSet, V) -> MultiClauseSet:
    """The sub-multi-clause-set of clauses containing a variable from V."""
    V = frozenset(V)
    return MultiClauseSet(F.table, _Trusted(
        (c, m) for c, m in F._clauses.items() if not V.isdisjoint(c._by_var)))


def restrict(F: MultiClauseSet, V) -> MultiClauseSet:
    """Restriction F[V]: clauses touching V, with all other variables crossed out."""
    V = frozenset(V)
    return cross_out(F.var_set() - V, touched(F, V))


@dataclass(frozen=True)
class Measures:
    n: int
    c: int
    ell: int
    rd: int
    delta: int
    literal_counts: Dict[Literal, int]
    variable_counts: Dict[int, int]
    slack_counts: Dict[Literal, int]


def measures(F: MultiClauseSet) -> Measures:
    """All basic counting measures of F, weighted by multiplicity.

    Per-literal counts cover every (variable, value) pair of occurring
    variables, including values that never occur (count 0, full slack).
    """
    by_var = F.value_count_table()
    lit_counts = {Literal(v, e): k for v in sorted(by_var) for e, k in enumerate(by_var[v])}
    var_counts = {v: sum(by_var[v]) for v in sorted(by_var)}
    slacks = {lit: var_counts[lit.var] - cnt for lit, cnt in lit_counts.items()}
    return Measures(n=F.n, c=F.c, ell=F.ell, rd=F.rd, delta=F.delta,
                    literal_counts=lit_counts, variable_counts=var_counts,
                    slack_counts=slacks)


def rename(F: MultiClauseSet, v: int, w: int, h: Mapping[int, int]):
    """Replace variable v by w, mapping values through h.

    Returns (renamed multi-clause-set, flag whether h was injective on the
    values of v actually occurring in F).  Rejects value-map images outside
    the domain of w; clause collisions merge as usual.
    """
    if w not in F.table:
        raise ValueError(f"target variable {w} not declared")
    if v != w and w in F.var_set():
        raise ValueError(f"target variable {w} already occurs in F")
    wsize = F.table.domain_size(w)
    occurring = sorted(F.values_of(v))
    for e in occurring:
        if e not in h:
            raise ValueError(f"value map does not cover occurring value {e}")
        if not 0 <= h[e] < wsize:
            raise ValueError(f"value map sends {e} outside the domain of {w}")
    injective = len({h[e] for e in occurring}) == len(occurring)
    acc: Dict[Clause, int] = {}
    for clause, mult in F.items():
        if clause.has_var(v):
            lits = [lit for lit in clause if lit.var != v]
            lits.append(Literal(w, h[clause.value_on(v)]))
            clause = Clause(lits)
        acc[clause] = acc.get(clause, 0) + mult
    return F.with_clauses(acc), injective


def domain_uniformisation(F: MultiClauseSet) -> MultiClauseSet:
    """Enlarge all occurring domains to a common size, forbidding new values.

    Every occurring variable gets the maximal occurring domain size; unit
    clauses exclude the padded values, which keeps the deficiency unchanged.
    """
    occurring = sorted(F.var_set())
    if not occurring:
        return F
    target = max(F.table.domain_size(v) for v in occurring)
    table = F.table
    units = []
    for v in occurring:
        old = F.table.domain_size(v)
        if old < target:
            table = VariableTable({**table.sizes(), v: target})
            units.extend(Clause([(v, e)]) for e in range(old, target))
    acc: Dict[Clause, int] = dict(F.items())
    for unit in units:
        acc[unit] = acc.get(unit, 0) + 1
    return MultiClauseSet(table, acc)


def clause_to_assignment(clause: Clause) -> PartialAssignment:
    """The assignment setting exactly the literals of the clause false."""
    return PartialAssignment({lit.var: lit.value for lit in clause})


def assignment_to_clause(phi: PartialAssignment) -> Clause:
    """The clause falsified exactly by (extensions of) phi."""
    return Clause(phi.items())


def falsifying_count(table: VariableTable, clause: Clause, V) -> int:
    """Number of total assignments over V falsifying the clause."""
    V = frozenset(V)
    if not clause.variables <= V:
        raise ValueError("clause mentions variables outside V")
    return math.prod(table.domain_size(v) for v in V - clause.variables)
