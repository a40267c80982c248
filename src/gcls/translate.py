"""Boolean translations of generalised clause-sets.

Every translation here is an instance of one generic scheme: each source
variable v gets a private block of boolean variables, a gadget clause per
value of v (replacing the literal "v != value" in translated clauses), and
optionally some fixed clauses appended once.  The schemes differ only in the
gadget:

* direct (weak): one boolean variable per value, the gadget clause for a
  value is the positive unit on its variable, and an "at least one value"
  clause (all negatives) is appended per source variable;
* direct (strong): the weak form plus all positive binary clauses of a
  block, expressing "at most one value";
* nested: k-1 boolean variables in a Horn chain -- value i maps to
  {-v1,...,-v(i-1), vi}, the last value to the all-negative clause;
* reduced: the nested chain with the negative tails cut off the first k-1
  clauses (so: unit clauses plus the all-negative clause over k-1 variables);
* logarithmic: ceil(log2 k) bits; value i maps to the full clause falsified
  exactly by the binary encoding of i, the unused full clauses are appended.

Boolean variables use domain {0, 1}; a positive occurrence of b is the
literal (b, 0) ("b != 0") and a negative one is (b, 1).  Assignments move in
both directions: push_assignment turns an assignment of source variables
into one of block variables, lift_assignment inverts that, block by block.
"""

from __future__ import annotations

import itertools
from typing import (
    Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from .core import (
    Clause,
    Literal,
    MultiClauseSet,
    PartialAssignment,
    VariableTable,
    _clause,
    _Trusted,
)
from .satdec import brute_force_sat


class VariableGadget(NamedTuple):
    """The boolean gadget replacing one source variable.

    ``variables`` is the block of boolean variables (ascending), ``by_value``
    holds one gadget clause per source value (index = value), and ``extra``
    are the clauses appended once to the translation.  A valid gadget has
    pairwise distinct ``by_value`` clauses, ``by_value + extra`` jointly
    unsatisfiable, and every ``by_value`` clause necessary for that.
    """

    variables: Tuple[int, ...]
    by_value: Tuple[Clause, ...]
    extra: Tuple[Clause, ...] = ()

    def clauses(self) -> Tuple[Clause, ...]:
        return self.by_value + self.extra


class TranslationResult(NamedTuple):
    """A boolean clause-set plus the bookkeeping to move assignments."""

    boolean_cnf: MultiClauseSet
    var_map: Dict[int, Tuple[int, int]]
    inverse_map: Dict[Tuple[int, int], int]
    scheme: str
    gadgets: Dict[int, VariableGadget]
    source_table: VariableTable


_DIRECT_SCHEMES = ("direct-weak", "direct-strong")


def _gadget_clause(literals: Sequence[Literal]) -> Clause:
    """A gadget clause over distinct block variables: no clash can occur,
    so the clause keeps the given literal objects without re-checking."""
    return _clause(dict(literals), literals)


# -- gadget builders -----------------------------------------------------------


def _direct_gadget(block: Sequence[int], strong: bool) -> VariableGadget:
    pos = [Literal(b, 0) for b in block]
    by_value = tuple(_gadget_clause([lit]) for lit in pos)
    extra = [_gadget_clause([Literal(b, 1) for b in block])]
    if strong:
        extra.extend(_gadget_clause(pair) for pair in itertools.combinations(pos, 2))
    return VariableGadget(tuple(block), by_value, tuple(extra))


def _nested_chain(block: Sequence[int], k: int) -> Tuple[Clause, ...]:
    """The Horn chain E_1 .. E_k over k-1 boolean variables."""
    neg = [Literal(b, 1) for b in block]
    chain = [_gadget_clause(neg[:i] + [Literal(block[i], 0)])
             for i in range(k - 1)]
    chain.append(_gadget_clause(neg))
    return tuple(chain)


def _nested_gadget(block: Sequence[int], order: Sequence[int]) -> VariableGadget:
    chain = _nested_chain(block, len(order))
    by_value = [None] * len(order)
    for position, value in enumerate(order):
        by_value[value] = chain[position]
    return VariableGadget(tuple(block), tuple(by_value))


def _reduced_gadget(block: Sequence[int]) -> VariableGadget:
    by_value = tuple(_gadget_clause([Literal(b, 0)]) for b in block) + (
        _gadget_clause([Literal(b, 1) for b in block]),)
    return VariableGadget(tuple(block), by_value)


def _full_clause(block: Sequence[int], code: int) -> Clause:
    width = len(block)
    return _gadget_clause([Literal(b, (code >> (width - 1 - j)) & 1)
                           for j, b in enumerate(block)])


def _logarithmic_gadget(block: Sequence[int], k: int) -> VariableGadget:
    by_value = tuple(_full_clause(block, code) for code in range(k))
    extra = tuple(_full_clause(block, code)
                  for code in range(k, 2 ** len(block)))
    return VariableGadget(tuple(block), by_value, extra)


def _allocate(F: MultiClauseSet, width) -> Dict[int, Tuple[int, ...]]:
    """Contiguous boolean blocks per occurring source variable, ascending."""
    blocks: Dict[int, Tuple[int, ...]] = {}
    next_id = 1
    for v in sorted(F.var_set()):
        size = width(F.table.domain_size(v))
        blocks[v] = tuple(range(next_id, next_id + size))
        next_id += size
    return blocks


# -- translation core ----------------------------------------------------------


def _translate(F: MultiClauseSet, gadgets: Dict[int, VariableGadget],
               tag: str) -> TranslationResult:
    """The boolean image of F: each clause becomes the union of its
    literals' gadget clauses, then every extra clause is appended once.

    Nothing is re-validated.  This relies on three invariants that every
    caller establishes: the gadget clauses are ``Clause`` objects whose
    ``_by_var`` is their literal map; the blocks of distinct source
    variables are disjoint (``_allocate`` makes them so, ``validate_scheme``
    checks it for ``generic``), so the union of gadget clauses of one
    source clause never clashes; and every gadget literal lies in its
    block with a value in {0, 1} (``validate_scheme`` builds each gadget as
    a validated instance over its block).  Each image clause keeps the
    gadgets' own literal objects.
    """
    table = VariableTable({b: 2 for g in gadgets.values() for b in g.variables})
    by_value = {v: g.by_value for v, g in gadgets.items()}
    image = _Trusted()
    for clause, mult in F._clauses.items():
        by_var: Dict[int, int] = {}
        lits: List[Literal] = []
        for v, e in clause._by_var.items():
            gadget_clause = by_value[v][e]
            by_var.update(gadget_clause._by_var)
            lits.extend(gadget_clause)
        boolean = _clause(by_var, lits)
        image[boolean] = image.get(boolean, 0) + mult
    for v in sorted(gadgets):
        for clause in gadgets[v].extra:
            image[clause] = image.get(clause, 0) + 1
    cnf = MultiClauseSet(table, image)
    var_map = {b: (v, j) for v, g in gadgets.items()
               for j, b in enumerate(g.variables)}
    inverse = {pair: b for b, pair in var_map.items()}
    return TranslationResult(cnf, var_map, inverse, tag, gadgets, F.table)


def direct_weak(F: MultiClauseSet) -> TranslationResult:
    """One boolean variable per (variable, value); clauses translated
    literal-for-literal into positive clauses; one all-negative
    "at least one value" clause appended per source variable.

    Preserves the deficiency exactly, and satisfiability, leanness and
    minimal unsatisfiability as classes.
    """
    blocks = _allocate(F, lambda k: k)
    gadgets = {v: _direct_gadget(block, strong=False)
               for v, block in blocks.items()}
    return _translate(F, gadgets, "direct-weak")


def direct_strong(F: MultiClauseSet) -> TranslationResult:
    """direct_weak plus, per block, every positive binary clause: at most one
    of the block's variables may be false, i.e. at most one value is taken."""
    blocks = _allocate(F, lambda k: k)
    gadgets = {v: _direct_gadget(block, strong=True)
               for v, block in blocks.items()}
    return _translate(F, gadgets, "direct-strong")


def nested(F: MultiClauseSet,
           value_order: Optional[Mapping[int, Sequence[int]]] = None
           ) -> TranslationResult:
    """Replace each source variable by a Horn chain over |D_v| - 1 booleans.

    Keeps the clause count and the whole conflict structure; the deficiency
    can only grow, and stays equal when no value is pure.  value_order may
    fix, per source variable, the order in which values enter the chain
    (default: declared order); each entry must permute the domain.
    """
    order = dict(value_order or {})
    blocks = _allocate(F, lambda k: k - 1)
    gadgets = {}
    for v, block in blocks.items():
        chosen = tuple(order.get(v, F.table.domain(v)))
        if sorted(chosen) != list(F.table.domain(v)):
            raise ValueError(
                f"value order for variable {v} must permute its domain")
        gadgets[v] = _nested_gadget(block, chosen)
    return _translate(F, gadgets, "nested")


def reduced(F: MultiClauseSet) -> TranslationResult:
    """The nested chain with its negative tails removed: over |D_v| - 1
    booleans, the first |D_v| - 1 values map to positive units and the last
    value to the all-negative clause.  Nothing is appended."""
    blocks = _allocate(F, lambda k: k - 1)
    gadgets = {v: _reduced_gadget(block) for v, block in blocks.items()}
    return _translate(F, gadgets, "reduced")


def logarithmic(F: MultiClauseSet) -> TranslationResult:
    """ceil(log2 |D_v|) bits per source variable; value i maps to the full
    clause falsified exactly by the big-endian encoding of i, and the unused
    codes' full clauses are appended to exclude them."""
    blocks = _allocate(F, lambda k: max(k - 1, 1).bit_length() if k > 1 else 0)
    gadgets = {v: _logarithmic_gadget(block, F.table.domain_size(v))
               for v, block in blocks.items()}
    return _translate(F, gadgets, "logarithmic")


# -- the generic scheme with validation ----------------------------------------


def _gadget_instance(clauses: Iterable[Clause],
                     variables: Sequence[int]) -> MultiClauseSet:
    table = VariableTable({b: 2 for b in variables})
    return MultiClauseSet(table, {c: 1 for c in clauses})


def validate_scheme(F: MultiClauseSet,
                    gadgets: Mapping[int, VariableGadget]) -> None:
    """Check the gadget-scheme invariants, raising on the first violation."""
    seen: Dict[int, int] = {}
    for v in sorted(F.var_set()):
        if v not in gadgets:
            raise ValueError(f"no gadget for occurring variable {v}")
        g = gadgets[v]
        if len(g.by_value) != F.table.domain_size(v):
            raise ValueError(
                f"gadget for variable {v} must map each of its"
                f" {F.table.domain_size(v)} values to a clause")
        if len(set(g.by_value)) != len(g.by_value):
            raise ValueError(
                f"gadget for variable {v} maps two values to the same clause")
        for b in g.variables:
            if b in seen and seen[b] != v:
                raise ValueError(
                    f"gadget blocks of variables {seen[b]} and {v} overlap"
                    f" in boolean variable {b}")
            seen[b] = v
        block = set(g.variables)
        for clause in g.clauses():
            if not {lit.var for lit in clause} <= block:
                raise ValueError(
                    f"gadget clause {clause!r} of variable {v} leaves its"
                    f" declared block")
        if brute_force_sat(_gadget_instance(g.clauses(), g.variables)) is not None:
            raise ValueError(
                f"gadget for variable {v} is satisfiable; it must exclude"
                f" every assignment")
        for value, clause in enumerate(g.by_value):
            rest = [d for d in g.clauses() if d != clause]
            if brute_force_sat(_gadget_instance(rest, g.variables)) is None:
                raise ValueError(
                    f"gadget clause for value {value} of variable {v} is"
                    f" not necessary")


def generic(F: MultiClauseSet,
            gadgets: Mapping[int, VariableGadget]) -> TranslationResult:
    """Translate with caller-supplied gadgets, after validating them.

    Every source clause turns into the union of the gadget clauses of its
    literals, then all extra clauses are appended once.  The result is
    satisfiability-equivalent to F for any valid scheme, and each variable
    may use a different gadget style.
    """
    validate_scheme(F, gadgets)
    used = {v: _with_clause_objects(gadgets[v]) for v in F.var_set()}
    return _translate(F, used, "generic")


def _with_clause_objects(gadget: VariableGadget) -> VariableGadget:
    """The gadget with every clause a ``Clause``; a gadget whose clauses
    already are comes back as it is."""
    if all(isinstance(c, Clause) for c in gadget.clauses()):
        return gadget
    return VariableGadget(gadget.variables, tuple(map(Clause, gadget.by_value)),
                          tuple(map(Clause, gadget.extra)))


# -- assignment transfer -------------------------------------------------------


def push_assignment(translation: TranslationResult,
                    phi: PartialAssignment) -> PartialAssignment:
    """The boolean image of an assignment of source variables.

    Per assigned variable the whole block is bound: under the direct schemes
    the chosen value's boolean goes to 0 and the others to 1; under the other
    schemes the block gets the first assignment that satisfies every gadget
    clause except the chosen value's (thereby falsifying exactly that one).
    """
    bindings: Dict[int, int] = {}
    for v in sorted(phi):
        gadget = translation.gadgets.get(v)
        if gadget is None:
            raise ValueError(f"variable {v} is not part of the translation")
        value = phi[v]
        if value not in translation.source_table.domain(v):
            raise ValueError(f"value {value} is outside the domain of {v}")
        if translation.scheme in _DIRECT_SCHEMES:
            for j, b in enumerate(gadget.variables):
                bindings[b] = 0 if j == value else 1
            continue
        others = [d for j, d in enumerate(gadget.by_value) if j != value]
        others.extend(gadget.extra)
        for combo in itertools.product((0, 1), repeat=len(gadget.variables)):
            mu = PartialAssignment(zip(gadget.variables, combo))
            if all(mu.satisfies_clause(d) for d in others):
                bindings.update(zip(gadget.variables, combo))
                break
        else:  # unreachable for valid gadgets: the chosen clause is necessary
            raise ValueError(
                f"gadget of variable {v} cannot express value {value}")
    return PartialAssignment(bindings)


def lift_assignment(translation: TranslationResult,
                    psi: PartialAssignment) -> PartialAssignment:
    """Map an assignment of the boolean variables back to source variables.

    Bindings outside the translation are dropped first; blocks without any
    binding stay unassigned.  Under the direct schemes each touched block
    must set some value's boolean to 0 (else ValueError: such an assignment
    has no standard completion) and the smallest such value is taken --
    this preserves the autarky property in both directions.  Under the other
    schemes unbound block variables are completed with 0 and the first value
    whose gadget clause is falsified is taken, which turns satisfying
    assignments into satisfying assignments.  A block with no variables at
    all (a domain-1 source variable under nested/reduced/logarithmic, where
    nothing needs encoding) always resolves to its single value.
    """
    values: Dict[int, int] = {}
    for v in sorted(translation.gadgets):
        gadget = translation.gadgets[v]
        bound = {b: psi[b] for b in gadget.variables if b in psi}
        if gadget.variables and not bound:
            continue
        if translation.scheme in _DIRECT_SCHEMES:
            zeros = [j for j, b in enumerate(gadget.variables)
                     if bound.get(b) == 0]
            if not zeros:
                raise ValueError(
                    f"assignment rules out every value of variable {v}")
            values[v] = zeros[0]
            continue
        mu = PartialAssignment({b: bound.get(b, 0) for b in gadget.variables})
        value = next((j for j, d in enumerate(gadget.by_value)
                      if all(mu.falsifies_literal(lit) for lit in d)), None)
        if value is None:
            raise ValueError(
                f"assignment does not determine a value for variable {v}")
        values[v] = value
    return PartialAssignment(values)
