"""Conflict structure of multi-clause-sets.

Two clauses *clash* in a variable v when both constrain v but exclude
different values; the number of such variables is the number of conflicts
between the two clauses.  Arranging these counts in a symmetric matrix --
one row per clause *occurrence*, so multiplicities matter -- gives the
conflict matrix, the adjacency matrix of the conflict multigraph.

This module computes that matrix and reads structure off it:

* hitting clause-sets (every two occurrences clash), their degree, and
  regularity (every pair clashes in exactly r variables);
* multihitting clause-sets: the conflict graph is complete multipartite,
  i.e. "does not clash with" is an equivalence relation on the clause
  occurrences; the blocks of the (unique) multipartition are returned;
* a counting satisfiability decision for hitting clause-sets: distinct
  clauses of a hitting clause-set are falsified by disjoint sets of total
  assignments, so the instance is unsatisfiable exactly when the
  falsifying counts add up to the full assignment-space size;
* the inertia of a symmetric matrix over the rationals, computed exactly
  by congruence elimination.  The quantity of interest is the "hermitian
  defect" ``m - max(n_plus, n_minus)``: for a conflict matrix it bounds
  the deficiency of the clause-set from above, which makes the matrix a
  purely combinatorial certificate against large deficiency.

The conflict matrix factors through the literal incidence.  Let U be the
c x L 0/1 matrix of clause occurrences against the L occurring literals,
and Q = (+)_v (J - I), one all-ones-minus-identity block per variable over
its occurring values.  Row i of U Q picks, for each literal (v, a) of
clause i, the other values of v; so (U Q U^T)[i, j] counts the variables
on which clauses i and j exclude different values, and M = U Q U^T.  Hence
x^T M x = y^T Q y with y = U^T x: the form of M is the pull-back of Q
restricted to W = range(U^T) along the surjection x -> U^T x, which only
adds dim ker(U^T) zero eigenvalues (split off the kernel and apply
Sylvester's law of inertia).  If the rows U[I] of a set I of clauses form
a basis of W, the Gram matrix of Q in that basis is U[I] Q U[I]^T =
M[I, I].  So the principal submatrix M[I, I], of order rank(U) <= L, has
the same (n_plus, n_minus) as M; ``conflict_inertia`` uses that.

Everything here is exact integer arithmetic; no floating point is
involved.
"""

from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .core import Clause, MultiClauseSet

__all__ = [
    "ConflictMatrix",
    "HittingClassification",
    "Inertia",
    "Multipartition",
    "clause_rows",
    "classify_hitting",
    "conflict_inertia",
    "conflict_matrix",
    "deficiency_bound_check",
    "hermitian_rank",
    "hitting_sat",
]


def clause_rows(F: MultiClauseSet) -> Tuple[Clause, ...]:
    """The clause occurrences of F in matrix row order.

    Clauses appear in canonical sorted order, each repeated according to
    its multiplicity (so copies of the same clause occupy adjacent rows).
    All index-based results in this module -- conflict matrices and
    multipartition blocks -- refer to this ordering.
    """
    return tuple(C for C, mult in F.items() for _ in range(mult))


def _conflicts(C: Clause, D: Clause) -> int:
    """Number of variables on which C and D exclude different values."""
    count = 0
    for lit in C:
        if D.has_var(lit.var) and D.value_on(lit.var) != lit.value:
            count += 1
    return count


class ConflictMatrix:
    """Symmetric nonnegative integer matrix with zero diagonal.

    Entry (i, j) counts the conflicts between clause occurrences i and j;
    the diagonal is zero because a clause never clashes with itself (nor
    with another copy of itself).
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Sequence[Sequence[int]]):
        entries = tuple(tuple(int(x) for x in row) for row in rows)
        m = len(entries)
        for i, row in enumerate(entries):
            if len(row) != m:
                raise ValueError("conflict matrix must be square")
            if row[i] != 0:
                raise ValueError("conflict matrix must have zero diagonal")
            for j, x in enumerate(row):
                if x < 0:
                    raise ValueError("conflict counts cannot be negative")
                if entries[j][i] != x:
                    raise ValueError("conflict matrix must be symmetric")
        self._rows = entries

    @classmethod
    def _trusted(cls, rows: Tuple[Tuple[int, ...], ...]) -> "ConflictMatrix":
        """A matrix built in this module from conflict counts: square,
        symmetric, nonnegative and zero on the diagonal by construction, so
        the O(m^2) checks of ``__init__`` are skipped."""
        self = object.__new__(cls)
        self._rows = rows
        return self

    @property
    def order(self) -> int:
        return len(self._rows)

    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        return self._rows

    def entry(self, i: int, j: int) -> int:
        return self._rows[i][j]

    def __getitem__(self, i: int) -> Tuple[int, ...]:
        return self._rows[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, ConflictMatrix):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = ", ".join(repr(list(row)) for row in self._rows)
        return f"ConflictMatrix([{body}])"


def conflict_matrix(F: MultiClauseSet) -> ConflictMatrix:
    """Conflict matrix of F over the row order of clause_rows(F)."""
    rows = clause_rows(F)
    m = len(rows)
    entries: List[List[int]] = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            entries[i][j] = entries[j][i] = _conflicts(rows[i], rows[j])
    return ConflictMatrix._trusted(tuple(map(tuple, entries)))


class Multipartition(NamedTuple):
    """Partition of the clause-occurrence indices witnessing multihitting.

    Two occurrences share a block exactly when they do not clash; blocks
    are sorted internally and listed by smallest member.
    """

    blocks: Tuple[Tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.blocks)


class HittingClassification(NamedTuple):
    """What the conflict matrix says about a clause-set.

    hitting         every two occurrences clash (vacuous below two clauses)
    hitting_degree  largest number of conflicts between two occurrences,
                    None when there are fewer than two clauses
    regular         r when every pair of occurrences clashes in exactly r
                    variables (0 below two clauses), None otherwise
    multihitting    the conflict graph is complete multipartite
    multipartition  the witnessing partition, None when not multihitting
    """

    hitting: bool
    hitting_degree: Optional[int]
    regular: Optional[int]
    multihitting: bool
    multipartition: Optional[Multipartition]


def _union(masks) -> int:
    """Bitwise or of row masks."""
    result = 0
    for mask in masks:
        result |= mask
    return result


def classify_hitting(F: MultiClauseSet) -> HittingClassification:
    """Hitting / regular / multihitting analysis of the conflict matrix,
    read off the value groups of each variable instead of the matrix.

    Two occurrences clash in v exactly when they sit in different value
    groups of v, so the conflict counts of distinct clauses are the number
    of variables that separate them; copies of one clause never clash.
    For multihitting, each occurrence gets the bit mask of the occurrences
    it does not clash with (itself included).  "Does not clash" is an
    equivalence exactly when every occurrence has the mask of each of its
    zero-partners, i.e. when each mask is covered by the occurrences that
    carry it; the blocks of the (then unique) multipartition are the masks.
    """
    items = F.items()
    k = len(items)
    first = [0]  # clause i occupies the rows first[i] .. first[i + 1] - 1
    for _, mult in items:
        first.append(first[-1] + mult)
    c = first[-1]
    own = [((1 << (first[i + 1] - first[i])) - 1) << first[i] for i in range(k)]
    groups: Dict[int, Dict[int, List[int]]] = {}  # v -> value -> clauses
    for i, (clause, _) in enumerate(items):
        for v, e in clause._by_var.items():
            groups.setdefault(v, {}).setdefault(e, []).append(i)

    counts: Counter = Counter()  # i * k + j, i < j -> conflicts of i and j
    clashing = [0] * k  # rows each clause clashes with
    for by_value in groups.values():
        if len(by_value) < 2:
            continue
        members = list(by_value.values())
        masks = [_union(own[i] for i in group) for group in members]
        every = _union(masks)
        for group, mask in zip(members, masks):
            for i in group:
                clashing[i] |= every ^ mask
        for a, group in enumerate(members):
            for other in members[a + 1:]:
                counts.update([i * k + j if i < j else j * k + i
                               for i in group for j in other])

    # some two occurrences do not clash: copies, or clauses with no count
    zero_pairs = c > k or len(counts) < k * (k - 1) // 2
    if c < 2:
        hitting_degree, regular = None, 0
    else:
        hitting_degree = max(counts.values(), default=0)
        values = set(counts.values())
        if zero_pairs:
            regular = None if values else 0
        else:
            regular = values.pop() if len(values) == 1 else None

    everything = (1 << c) - 1
    by_mask: Dict[int, List[int]] = {}  # non-clash mask -> clauses carrying it
    for i in range(k):
        by_mask.setdefault(everything ^ clashing[i], []).append(i)
    multihitting = all(_union(own[i] for i in group) == mask
                       for mask, group in by_mask.items())

    multipartition = None
    if multihitting:
        blocks = sorted(tuple(r for i in group for r in range(first[i], first[i + 1]))
                        for group in by_mask.values())
        multipartition = Multipartition(tuple(blocks))

    return HittingClassification(
        hitting=not zero_pairs,
        hitting_degree=hitting_degree,
        regular=regular,
        multihitting=multihitting,
        multipartition=multipartition,
    )


def hitting_sat(F: MultiClauseSet) -> bool:
    """Counting satisfiability decision for hitting clause-sets.

    Distinct clauses of a hitting clause-set exclude pairwise disjoint
    sets of total assignments, so F is unsatisfiable exactly when the
    falsifying counts of its clauses cover the whole assignment space:

        sum over clauses C of  prod over v not in C of |domain(v)|
            ==  prod over all v of |domain(v)|

    Counts are exact big integers.  Raises ValueError on input that is
    not hitting (the disjointness argument, and hence the criterion,
    would be wrong there).
    """
    if not classify_hitting(F).hitting:
        raise ValueError("hitting_sat needs a hitting clause-set")
    return not _counts_cover_space(F)


def _counts_cover_space(F: MultiClauseSet) -> bool:
    """Whether the falsifying counts of F's clause occurrences add up to
    the number of total assignments over var(F), in exact integers.

    Every total assignment falsifies at least one occurrence of an
    unsatisfiable F, and exactly one iff F is hitting; and the clauses of a
    hitting F falsify disjoint sets of them.  So on unsatisfiable input
    this decides hitting, and on hitting input unsatisfiability.
    """
    sizes = {v: F.table.domain_size(v) for v in F.var_set()}
    space = prod(sizes.values())
    falsified = sum(mult * (space // prod(sizes[v] for v, _ in clause))
                    for clause, mult in F.items())
    return falsified == space


class Inertia(NamedTuple):
    """Signature of a symmetric rational matrix.

    n_plus / n_minus count positive / negative eigenvalues (with
    multiplicity); h = max(n_plus, n_minus) and hdef = order - h is the
    hermitian defect.  For a conflict matrix, hdef bounds the deficiency
    of the underlying clause-set from above.
    """

    n_plus: int
    n_minus: int
    h: int
    hdef: int


def _signature(A: List[List[int]]) -> Tuple[int, int]:
    """(n_plus, n_minus) of the symmetric integer matrix A, which is consumed.

    Fraction-free congruence elimination.  After each step A holds
    |det P| times the Schur complement of the pivot block P eliminated so
    far, a positive multiple, so the signature is kept; its entries are
    minors of the input, so they stay bounded and every division below is
    exact (Bareiss).  A 1x1 pivot d is scaled by |d|; when the remaining
    diagonal is all zero, a 2x2 pivot [[0, b], [b, 0]] is scaled by b^2 and
    contributes one positive and one negative eigenvalue.
    """
    n_plus = n_minus = 0
    scale = 1  # |det P|
    while A:
        p = next((i for i, row in enumerate(A) if row[i]), None)
        if p is not None:
            pivot = A.pop(p)
            d = pivot.pop(p)
            for row in A:
                del row[p]
            if d > 0:
                n_plus += 1
                sign = 1
            else:
                n_minus += 1
                sign, d = -1, -d
            A = [[(d * x - sign * a * y) // scale for x, y in zip(row, pivot)]
                 for row, a in zip(A, pivot)]
            scale = d
            continue
        i = next((i for i, row in enumerate(A) if any(row)), None)
        if i is None:
            break  # what remains is a zero matrix
        j = next(j for j, x in enumerate(A[i]) if x)
        b = A[i][j]
        n_plus += 1
        n_minus += 1
        rest = [t for t in range(len(A)) if t != i and t != j]
        ci = [A[i][t] for t in rest]
        cj = [A[j][t] for t in rest]
        bb, ss = b * b, scale * scale
        A = [[(bb * x - b * (u * y + v * z)) // ss
              for x, y, z in zip([A[t][s] for s in rest], cj, ci)]
             for t, u, v in zip(rest, ci, cj)]
        scale = bb // scale
    return n_plus, n_minus


def hermitian_rank(M) -> Inertia:
    """Exact inertia of a symmetric matrix by integer congruence.

    Accepts a ConflictMatrix or any square symmetric matrix given as rows
    of rationals.  The rows are scaled by the common denominator of their
    entries, a positive scalar that keeps the signature, and the integer
    matrix is eliminated fraction-free: 1x1 pivots on nonzero diagonal
    entries while one exists, 2x2 pivots on a nonzero off-diagonal entry
    when the remaining diagonal is all zero.  Congruence preserves the
    signature, so the count is exact.
    """
    rows = M.rows() if isinstance(M, ConflictMatrix) else tuple(tuple(r) for r in M)
    m = len(rows)
    for i, row in enumerate(rows):
        if len(row) != m:
            raise ValueError("matrix must be square")
        for j in range(m):
            if rows[i][j] != rows[j][i]:
                raise ValueError("matrix must be symmetric")
    if isinstance(M, ConflictMatrix):
        A = [list(row) for row in rows]
    else:
        entries = [[Fraction(x) for x in row] for row in rows]
        scale = lcm(*(x.denominator for row in entries for x in row))
        A = [[x.numerator * (scale // x.denominator) for x in row] for row in entries]
    n_plus, n_minus = _signature(A)
    h = max(n_plus, n_minus)
    return Inertia(n_plus=n_plus, n_minus=n_minus, h=h, hdef=m - h)


def _spanning_clauses(F: MultiClauseSet) -> List[Clause]:
    """Clauses of F whose literal-incidence rows form a basis of the row
    space of U, chosen greedily in canonical order.

    Rows are reduced to echelon form over the integers, each kept
    primitive; copies of a clause are always dependent, and the search
    stops once the rank reaches the number of occurring literals.
    """
    column: Dict[Tuple[int, int], int] = {}
    for clause in F.clauses():
        for lit in clause:
            column.setdefault(lit, len(column))
    width = len(column)
    echelon: Dict[int, List[int]] = {}  # leading column -> row
    chosen: List[Clause] = []
    for clause in F.clauses():
        if len(chosen) == width:
            break
        row = [0] * width
        for lit in clause:
            row[column[lit]] = 1
        for lead in range(width):
            x = row[lead]
            if not x:
                continue
            basis = echelon.get(lead)
            if basis is None:
                echelon[lead] = row
                chosen.append(clause)
                break
            y = basis[lead]
            row = [y * a - x * b for a, b in zip(row, basis)]
            g = gcd(*row)
            if g > 1:
                row = [a // g for a in row]
    return chosen


def conflict_inertia(F: MultiClauseSet) -> Inertia:
    """The inertia of conflict_matrix(F), without building it.

    By the factorisation M = U Q U^T of the module docstring, M has the
    signature of its principal submatrix on a set of clauses whose literal
    rows form a basis of the row space of U; that submatrix has order at
    most the number of occurring literals.  The hermitian defect is taken
    against the full order F.c.
    """
    chosen = _spanning_clauses(F)
    n_plus, n_minus = _signature([[_conflicts(C, D) for D in chosen] for C in chosen])
    h = max(n_plus, n_minus)
    return Inertia(n_plus=n_plus, n_minus=n_minus, h=h, hdef=F.c - h)


def deficiency_bound_check(F: MultiClauseSet) -> bool:
    """Whether delta(F) <= hdef(conflict_matrix(F)).

    This inequality is a theorem, so the check should never fail; it is
    exposed as a cross-validation hook, and a False return signals a bug
    in either the deficiency computation or the inertia computation.
    """
    return F.delta <= conflict_inertia(F).hdef
