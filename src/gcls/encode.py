"""Generators turning combinatorial problems into generalised clause-sets.

Colouring a hypergraph so that no hyperedge is monochromatic translates
directly: vertices become variables whose domain is the colour set, and
for every hyperedge H and colour e the clause "some vertex of H avoids e"
is emitted.  Total satisfying assignments are exactly the good colourings.
Specialising the hypergraph to the arithmetic progressions inside 1..n
yields the van der Waerden instances; strong colourings (all vertices of
an edge pairwise distinct) need only binary clauses.

Two homomorphism encoders round off the module.  ``list_hom`` encodes
hypergraph homomorphisms with per-vertex lists of allowed images (list
colouring is the special case where the target hypergraph has every set
of two or more colours as an edge).  ``relational_hom`` encodes structure
homomorphisms either directly (variables are source elements, clauses
forbid mapping a related tuple onto a non-related one) or indirectly
(variables are the related source tuples themselves, mapped to target
tuples, with consistency clauses gluing shared elements together).

The module holds generators only (``cli.parse_hypergraph`` reads ``p hyp``
files); domains are 0-based indices in the clause-sets, with documented
orderings giving the decode maps.
"""

import itertools
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Sequence, Tuple

from .core import Clause, MultiClauseSet, VariableTable

__all__ = [
    "Hypergraph",
    "Structure",
    "arithmetic_progressions",
    "complete_graph",
    "hypergraph_coloring",
    "list_hom",
    "relational_hom",
    "strong_coloring",
    "vdw_instance",
]


class Hypergraph(NamedTuple):
    """Vertices 1..order and a set of hyperedges (kept sorted, deduplicated)."""

    order: int
    edges: Tuple[FrozenSet[int], ...]

    @classmethod
    def build(cls, order: int, edges) -> "Hypergraph":
        if order < 0:
            raise ValueError("vertex count must be >= 0")
        seen = set()
        for edge in edges:
            edge = frozenset(int(v) for v in edge)
            for v in edge:
                if not 1 <= v <= order:
                    raise ValueError(f"vertex {v} outside 1..{order}")
            seen.add(edge)
        return cls(order, tuple(sorted(seen, key=lambda e: sorted(e))))


def complete_graph(order: int) -> Hypergraph:
    """All two-element edges on 1..order."""
    return Hypergraph.build(order, itertools.combinations(range(1, order + 1), 2))


def arithmetic_progressions(k: int, n: int) -> Hypergraph:
    """The hypergraph on 1..n whose edges are the k-term progressions.

    Edges are the sets {a, a+d, ..., a+(k-1)d} with d >= 1 that fit inside
    1..n; for k = 1 every singleton is a (trivial) progression.
    """
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    if k == 1:
        return Hypergraph.build(n, ([a] for a in range(1, n + 1)))
    edges = []
    for d in range(1, n + 1):
        for a in range(1, n - (k - 1) * d + 1):
            edges.append(range(a, a + k * d, d))
    return Hypergraph.build(n, edges)


def hypergraph_coloring(G: Hypergraph, num_colors: int) -> MultiClauseSet:
    """Clauses whose satisfying assignments are the weak colourings of G.

    One variable per vertex with domain 0..num_colors-1, and for every
    hyperedge H and colour e the clause {v != e : v in H}.  Isolated
    vertices stay declared but unconstrained.  Empty hyperedges are
    rejected (they can never be non-monochromatic); singleton hyperedges
    are allowed and make the instance unsatisfiable.
    """
    if num_colors < 1:
        raise ValueError("need at least one colour")
    table = VariableTable({v: num_colors for v in range(1, G.order + 1)})
    clauses: Dict[Clause, int] = {}
    for edge in G.edges:
        if not edge:
            raise ValueError("an empty hyperedge cannot be coloured")
        for color in range(num_colors):
            clauses[Clause((v, color) for v in edge)] = 1
    return MultiClauseSet(table, clauses)


def strong_coloring(G: Hypergraph, num_colors: int) -> MultiClauseSet:
    """Clauses forcing the vertices of each hyperedge to get distinct colours.

    For every hyperedge, every pair of its vertices and every colour e the
    binary clause {v != e, w != e}.  Edges with fewer than two vertices
    contribute nothing.
    """
    if num_colors < 1:
        raise ValueError("need at least one colour")
    table = VariableTable({v: num_colors for v in range(1, G.order + 1)})
    clauses: Dict[Clause, int] = {}
    for edge in G.edges:
        for v, w in itertools.combinations(sorted(edge), 2):
            for color in range(num_colors):
                clauses[Clause([(v, color), (w, color)])] = 1
    return MultiClauseSet(table, clauses)


def vdw_instance(m: int, k: int, n: int) -> MultiClauseSet:
    """The van der Waerden instance: m-colour 1..n, no monochromatic k-AP.

    Satisfiable exactly when n is below the van der Waerden number for
    (m, k); colours are the values 0..m-1.
    """
    if m < 1 or k < 1 or n < 0:
        raise ValueError("need m, k >= 1 and n >= 0")
    return hypergraph_coloring(arithmetic_progressions(k, n), m)


def list_hom(G1: Hypergraph, G2: Hypergraph,
             L: Mapping[int, Sequence[int]]) -> MultiClauseSet:
    """Hypergraph homomorphisms from G1 to G2 under image lists.

    Sought is f with f(v) in L(v) for every vertex of G1 and f(H) an edge
    of G2 for every hyperedge H of G1.  Variable v gets domain size
    |L(v)|, value i standing for the i-th smallest allowed image; for
    every hyperedge H and every combination of allowed images whose image
    set is not an edge of G2, the clause forbidding that combination is
    emitted.  Taking for G2 all subsets of the colours with at least two
    elements turns this into list colouring.
    """
    allowed: Dict[int, List[int]] = {}
    for v in range(1, G1.order + 1):
        images = sorted(set(L[v])) if v in L else []
        if not images:
            raise ValueError(f"vertex {v} has no allowed images")
        for w in images:
            if not 1 <= w <= G2.order:
                raise ValueError(f"image {w} of vertex {v} is not in G2")
        allowed[v] = images
    targets = set(G2.edges)
    table = VariableTable({v: len(allowed[v]) for v in allowed})
    clauses: Dict[Clause, int] = {}
    for edge in G1.edges:
        vertices = sorted(edge)
        for combo in itertools.product(*(allowed[v] for v in vertices)):
            if frozenset(combo) in targets:
                continue
            clauses[Clause((v, allowed[v].index(w))
                           for v, w in zip(vertices, combo))] = 1
    return MultiClauseSet(table, clauses)


class Structure(NamedTuple):
    """A finite relational structure: universe plus a list of relations.

    Universe elements are positive integers; relation i is a collection
    of equal-length tuples over the universe.  Two structures are
    compatible when they have the same number of relations with matching
    arities.
    """

    universe: Tuple[int, ...]
    relations: Tuple[FrozenSet[Tuple[int, ...]], ...]

    @classmethod
    def build(cls, universe, relations) -> "Structure":
        elems = tuple(sorted(set(int(x) for x in universe)))
        if any(x < 1 for x in elems):
            raise ValueError("universe elements must be positive integers")
        rels = []
        for rel in relations:
            tuples = frozenset(tuple(int(x) for x in t) for t in rel)
            for t in tuples:
                if any(x not in elems for x in t):
                    raise ValueError(f"tuple {t} leaves the universe")
            rels.append(tuples)
        return cls(elems, tuple(rels))


def _arities(A: Structure, B: Structure) -> List[int]:
    if len(A.relations) != len(B.relations):
        raise ValueError("structures must have the same number of relations")
    arities = []
    for i, (ra, rb) in enumerate(zip(A.relations, B.relations)):
        lengths = {len(t) for t in ra} | {len(t) for t in rb}
        if len(lengths) > 1:
            raise ValueError(f"relation {i} mixes arities {sorted(lengths)}")
        arities.append(lengths.pop() if lengths else 0)
    return arities


def _direct_hom(A: Structure, B: Structure, injective: bool) -> MultiClauseSet:
    targets = list(B.universe)
    index = {b: i for i, b in enumerate(targets)}
    table = VariableTable({a: len(targets) for a in A.universe})
    clauses: Dict[Clause, int] = {}
    for ra, rb in zip(A.relations, B.relations):
        for x in sorted(ra):
            for y in itertools.product(targets, repeat=len(x)):
                if y in rb:
                    continue
                # A combination giving one source element two different
                # images can never arise as f(x), so no clause is needed.
                seen: Dict[int, int] = {}
                if all(seen.setdefault(xk, yk) == yk for xk, yk in zip(x, y)):
                    clauses[Clause((xk, index[yk])
                                   for xk, yk in zip(x, y))] = 1
    if injective:
        for a, a2 in itertools.combinations(A.universe, 2):
            for b in targets:
                clauses[Clause([(a, index[b]), (a2, index[b])])] = 1
    return MultiClauseSet(table, clauses)


def _indirect_hom(A: Structure, B: Structure) -> MultiClauseSet:
    pairs = sorted((i, x) for i, ra in enumerate(A.relations) for x in ra)
    var_of = {pair: idx for idx, pair in enumerate(pairs, start=1)}
    values = {pair: sorted(B.relations[pair[0]]) for pair in pairs}
    sizes = {}
    clauses: Dict[Clause, int] = {}
    for pair in pairs:
        if values[pair]:
            sizes[var_of[pair]] = len(values[pair])
        else:
            # No admissible image for this tuple at all.
            clauses[Clause()] = 1
    live = [pair for pair in pairs if values[pair]]
    for pair in live:
        i, x = pair
        for idx, y in enumerate(values[pair]):
            seen: Dict[int, int] = {}
            if not all(seen.setdefault(xk, yk) == yk
                       for xk, yk in zip(x, y)):
                clauses[Clause([(var_of[pair], idx)])] = 1
    for pair, pair2 in itertools.combinations(live, 2):
        (_, x), (_, x2) = pair, pair2
        shared = [(k, k2) for k, xk in enumerate(x)
                  for k2, xk2 in enumerate(x2) if xk == xk2]
        if not shared:
            continue
        for idx, y in enumerate(values[pair]):
            for idx2, y2 in enumerate(values[pair2]):
                if any(y[k] != y2[k2] for k, k2 in shared):
                    clauses[Clause([(var_of[pair], idx),
                                    (var_of[pair2], idx2)])] = 1
    return MultiClauseSet(VariableTable(sizes), clauses)


def relational_hom(A: Structure, B: Structure, injective: bool = False,
                   indirect: bool = False) -> MultiClauseSet:
    """Homomorphisms between compatible relational structures as clauses.

    Direct form: one variable per source element with the target universe
    as domain (value i = i-th smallest target element); for every related
    source tuple, each assignment of images that lands outside the target
    relation is forbidden by one clause.  ``injective`` adds the binary
    clauses keeping distinct source elements on distinct images.

    Indirect form (``indirect=True``): one variable per related source
    tuple, with the corresponding target relation as domain (value i =
    i-th smallest target tuple); unit clauses discard target tuples that
    would give one element two images, binary clauses keep tuples sharing
    a source element consistent.  Satisfiable exactly when the direct
    form is.  Injectivity constrains elements rather than tuples, so it
    is only available in the direct form.
    """
    _arities(A, B)
    if indirect:
        if injective:
            raise ValueError("injectivity is only supported in the direct form")
        return _indirect_hom(A, B)
    return _direct_hom(A, B, injective)

