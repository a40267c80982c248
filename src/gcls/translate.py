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
  exactly by the big-endian encoding of i, the unused full clauses are
  appended.

Boolean variables use domain {0, 1}; a positive occurrence of b is the
literal (b, 0) ("b != 0") and a negative one is (b, 1).  Assignments move in
both directions: push_assignment turns an assignment of source variables
into one of block variables, lift_assignment inverts that, block by block.

A built-in scheme is one pattern per domain size (per size and value order
for nested): the gadget's by-value and extra clauses as sorted tuples of
(offset, bit) pairs over the offsets 0 .. width-1, built once per call.
``_allocate`` gives the occurring source variables contiguous blocks that
ascend with the variable, and shifts each pattern onto its block.  The image
is one dict from keys -- the sorted literal tuple of a boolean clause -- to
multiplicities.  Invariant: since the blocks are contiguous and ascend with
the source variable, and every shifted pattern clause is sorted, the
concatenation of a source clause's gadget clauses, taken in ascending source
variable order, is sorted; so no key needs a sort.  ``generic`` is the
exception: its caller-chosen blocks need not ascend, so it sorts each key.

A ``TranslationResult`` holds the image, the variable map and the shifted
patterns, which is all that printing the image needs.  The boolean
clause-set, the gadgets as ``Clause`` objects and the inverse variable map
are built from them on first access.
"""

from __future__ import annotations

import itertools
from typing import (
    Any, Callable, Dict, Hashable, Iterable, Mapping, NamedTuple, Optional,
    Sequence, Tuple,
)

from .core import (
    Clause,
    MultiClauseSet,
    PartialAssignment,
    VariableTable,
    _clause,
    _literal,
    _Trusted,
)
from .satdec import brute_force_sat

__all__ = [
    "TranslationResult",
    "VariableGadget",
    "direct_strong",
    "direct_weak",
    "generic",
    "lift_assignment",
    "logarithmic",
    "nested",
    "push_assignment",
    "reduced",
]

#: A gadget clause or image clause as its literals, ascending.
Key = Tuple[Tuple[int, int], ...]


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


def _gadget_clause(key: Key) -> Clause:
    """The clause of a key of ``Literal`` objects over distinct variables:
    no clash can occur, so the clause keeps them without re-checking."""
    return _clause(dict(key), key)


class TranslationResult:
    """A boolean image of a clause-set plus the bookkeeping to move
    assignments.

    Built eagerly: ``scheme``; ``source_table``; ``var_map``, which maps each
    boolean variable b to (v, j) when b is the j-th variable of the block of
    source variable v; and ``image``, which maps each image clause, as its
    key (its literals ascending), to its multiplicity.  Built on first
    access: ``boolean_cnf`` (the image as a ``MultiClauseSet`` over every
    block variable), ``gadgets`` (with ``Clause`` objects) and
    ``inverse_map`` (the inverse of ``var_map``).  Printing needs only the
    eager part.  A built-in scheme's key is the concatenation of the shifted
    pattern clauses of its source clause's literals, in ascending source
    variable order; it is sorted because the blocks are contiguous and
    ascend with the source variable.
    """

    __slots__ = ("scheme", "source_table", "var_map", "image", "_keyed",
                 "_boolean_cnf", "_gadgets", "_inverse_map")

    def __init__(self, scheme: str, source_table: VariableTable,
                 keyed: Dict[int, VariableGadget], image: Dict[Key, int]):
        """``keyed`` holds each occurring source variable's gadget with its
        clauses as keys, ``image`` the multiplicities of the image keys."""
        self.scheme = scheme
        self.source_table = source_table
        self.var_map = {b: (v, j) for v, g in keyed.items()
                        for j, b in enumerate(g.variables)}
        self.image = image
        self._keyed = keyed
        self._boolean_cnf: Optional[MultiClauseSet] = None
        self._gadgets: Optional[Dict[int, VariableGadget]] = None
        self._inverse_map: Optional[Dict[Tuple[int, int], int]] = None

    @property
    def boolean_cnf(self) -> MultiClauseSet:
        # nothing is re-validated: the blocks of distinct source variables
        # are disjoint and every gadget literal lies in its block with a
        # value in {0, 1} (_allocate makes them so, validate_scheme checks
        # it for generic), so no image clause clashes
        if self._boolean_cnf is None:
            table = VariableTable(dict.fromkeys(self.var_map, 2))
            self._boolean_cnf = MultiClauseSet(table, _Trusted(
                [(_clause(dict(key), key), m) for key, m in self.image.items()]))
        return self._boolean_cnf

    @property
    def gadgets(self) -> Dict[int, VariableGadget]:
        if self._gadgets is None:
            self._gadgets = {
                v: VariableGadget(g.variables,
                                  tuple(map(_gadget_clause, g.by_value)),
                                  tuple(map(_gadget_clause, g.extra)))
                for v, g in self._keyed.items()}
        return self._gadgets

    @property
    def inverse_map(self) -> Dict[Tuple[int, int], int]:
        if self._inverse_map is None:
            self._inverse_map = {pair: b for b, pair in self.var_map.items()}
        return self._inverse_map


_DIRECT_SCHEMES = ("direct-weak", "direct-strong")


# -- patterns --------------------------------------------------------------------


class _Pattern(NamedTuple):
    """A gadget over the block offsets 0 .. width-1; its clauses are sorted
    tuples of (offset, bit) pairs."""

    width: int
    by_value: Tuple[Key, ...]
    extra: Tuple[Key, ...] = ()


def _direct_pattern(k: int, strong: bool) -> _Pattern:
    extra = (tuple((j, 1) for j in range(k)),)
    if strong:
        extra += tuple(((i, 0), (j, 0))
                       for i, j in itertools.combinations(range(k), 2))
    return _Pattern(k, tuple(((j, 0),) for j in range(k)), extra)


def _nested_pattern(k: int, order: Sequence[int]) -> _Pattern:
    """The Horn chain E_1 .. E_k over k-1 offsets, E_i given to the value
    order[i-1]."""
    neg = tuple((j, 1) for j in range(k - 1))
    chain = [neg[:i] + ((i, 0),) for i in range(k - 1)] + [neg]
    by_value = [()] * k
    for position, value in enumerate(order):
        by_value[value] = chain[position]
    return _Pattern(k - 1, tuple(by_value))


def _reduced_pattern(k: int) -> _Pattern:
    units = tuple(((j, 0),) for j in range(k - 1))
    return _Pattern(k - 1, units + (tuple((j, 1) for j in range(k - 1)),))


def _logarithmic_pattern(k: int) -> _Pattern:
    """Value i maps to the full clause falsified by the big-endian code i."""
    width = (k - 1).bit_length()
    full = [tuple((j, (code >> (width - 1 - j)) & 1) for j in range(width))
            for code in range(2 ** width)]
    return _Pattern(width, tuple(full[:k]), tuple(full[k:]))


# -- translation core ----------------------------------------------------------


def _allocate(F: MultiClauseSet, pattern: Callable[[int], _Pattern]
              ) -> Dict[int, VariableGadget]:
    """Per occurring source variable v, ascending, the pattern(v) shifted
    onto the next contiguous block, as a gadget with its clauses as keys."""
    keyed: Dict[int, VariableGadget] = {}
    next_id = 1
    for v in sorted(F.var_set()):
        width, by_value, extra = pattern(v)
        base = next_id
        next_id += width

        def shift(clause: Key) -> Key:
            return tuple([_literal((base + o, bit)) for o, bit in clause])
        keyed[v] = VariableGadget(tuple(range(base, next_id)),
                                  tuple(map(shift, by_value)),
                                  tuple(map(shift, extra)))
    return keyed


def _image(F: MultiClauseSet, keyed: Mapping[int, VariableGadget],
           ascending: bool) -> Dict[Key, int]:
    """The image keys of F: each clause becomes the union of its literals'
    gadget clauses, then every extra clause is appended once.  With
    ``ascending`` blocks a key is the concatenation of its gadget clauses in
    ascending source variable order; otherwise it is sorted.  Source clauses
    are short, so adding up the gadget clauses' tuples beats a chain."""
    by_value = {v: g.by_value for v, g in keyed.items()}
    image: Dict[Key, int] = {}
    for clause, mult in F._clauses.items():
        key: Key = ()
        for v, e in sorted(clause._by_var.items()):
            key += by_value[v][e]
        if not ascending:
            key = tuple(sorted(key))
        image[key] = image.get(key, 0) + mult
    for v in sorted(keyed):
        for key in keyed[v].extra:
            image[key] = image.get(key, 0) + 1
    return image


def _translate(F: MultiClauseSet, pattern: Callable[[int], _Pattern],
               scheme: str) -> TranslationResult:
    keyed = _allocate(F, pattern)
    return TranslationResult(scheme, F.table, keyed, _image(F, keyed, True))


def _memo(key_of: Callable[[int], Hashable],
          make: Callable[[Any], _Pattern]) -> Callable[[int], _Pattern]:
    """The pattern of source variable v: make(key_of(v)), built once per
    key.  key_of runs for every variable, so any check in it does too."""
    patterns: Dict[Hashable, _Pattern] = {}

    def pattern(v: int) -> _Pattern:
        key = key_of(v)
        if key not in patterns:
            patterns[key] = make(key)
        return patterns[key]
    return pattern


def _by_size(make: Callable[[int], _Pattern], F: MultiClauseSet
             ) -> Callable[[int], _Pattern]:
    """The pattern of source variable v: make(domain size), one per size."""
    return _memo(F.table._sizes.__getitem__, make)


def direct_weak(F: MultiClauseSet) -> TranslationResult:
    """One boolean variable per (variable, value); clauses translated
    literal-for-literal into positive clauses; one all-negative
    "at least one value" clause appended per source variable.

    Preserves the deficiency exactly, and satisfiability, leanness and
    minimal unsatisfiability as classes.
    """
    pattern = _by_size(lambda k: _direct_pattern(k, strong=False), F)
    return _translate(F, pattern, "direct-weak")


def direct_strong(F: MultiClauseSet) -> TranslationResult:
    """direct_weak plus, per block, every positive binary clause: at most one
    of the block's variables may be false, i.e. at most one value is taken."""
    pattern = _by_size(lambda k: _direct_pattern(k, strong=True), F)
    return _translate(F, pattern, "direct-strong")


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

    def checked_order(v: int) -> Tuple[int, ...]:
        domain = F.table.domain(v)
        chosen = tuple(order.get(v, domain))
        if sorted(chosen) != list(domain):
            raise ValueError(
                f"value order for variable {v} must permute its domain")
        return chosen
    # A valid order permutes range(k), so it fixes k: one pattern per order.
    pattern = _memo(checked_order,
                    lambda chosen: _nested_pattern(len(chosen), chosen))
    return _translate(F, pattern, "nested")


def reduced(F: MultiClauseSet) -> TranslationResult:
    """The nested chain with its negative tails removed: over |D_v| - 1
    booleans, the first |D_v| - 1 values map to positive units and the last
    value to the all-negative clause.  Nothing is appended."""
    return _translate(F, _by_size(_reduced_pattern, F), "reduced")


def logarithmic(F: MultiClauseSet) -> TranslationResult:
    """ceil(log2 |D_v|) bits per source variable; value i maps to the full
    clause falsified exactly by the big-endian encoding of i, and the unused
    codes' full clauses are appended to exclude them."""
    return _translate(F, _by_size(_logarithmic_pattern, F), "logarithmic")


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
    may use a different gadget style.  A gadget clause may be any iterable
    of (variable, value) pairs.
    """
    validate_scheme(F, gadgets)
    keyed = {}
    for v in sorted(F.var_set()):
        g = gadgets[v]
        keyed[v] = VariableGadget(tuple(g.variables),
                                  tuple(tuple(sorted(Clause(c))) for c in g.by_value),
                                  tuple(tuple(sorted(Clause(c))) for c in g.extra))
    return TranslationResult("generic", F.table, keyed, _image(F, keyed, False))


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
        gadget = translation._keyed.get(v)
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
    for v in sorted(translation._keyed):
        gadget = translation._keyed[v]
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
