"""Minimal unsatisfiability at deficiency one.

The clause-sets that are minimally unsatisfiable with deficiency exactly 1
have a complete structure theory, and this module implements it:

* ``DeficiencyOneTree`` -- a rooted tree whose inner nodes carry distinct
  variables and whose outgoing edges enumerate the node variable's domain.
  Reading the edge labels along the path to each leaf as literals gives a
  clause per leaf; ``tree_to_clause_set`` produces that clause-set, which
  is always a 1-regular hitting, saturated, minimally unsatisfiable
  clause-set of deficiency 1.

* ``recognize_mu1`` -- decides membership in the class by eliminating
  singular variables (all values but at most one occur exactly once) with
  the resolution/DP operator: members are exactly the clause-sets that
  reduce to the single empty clause through non-degenerate steps, in any
  elimination order.  Members that still contain a variable always contain
  a variable all of whose values occur exactly once, so the reduction
  never stalls on genuine members.  The pass always eliminates the
  cheapest singular variable (fewest occurrences, ties by index), kept in
  a lazy heap.  It runs on the r-reduction's literal index and its one
  singular-DP step (``reductions._ReductionState.singular_step``), so each
  step costs about the size of the clauses on the eliminated variable.

* ``classify_mu1`` -- splits the class into its two extremes and the rest:
  the saturated members (no literal can be added to any clause without
  making the set satisfiable) are exactly the tree images, and a witness
  tree is reconstructed for them; the marginal members (no literal can be
  removed without destroying minimal unsatisfiability) are exactly the
  totally singular ones, where every literal occurrence is unique.
  Everything else is intermediate.  The single empty clause is both
  saturated and marginal; it reports as saturated (with the trivial tree).
  After recognition, classification is linear in the input size up to
  sorting: hitting is a counting identity, and the tree is read off the
  occurrence counts.

* ``saturate`` and ``is_saturated_mu`` -- adding (v, e) to a clause C of a
  minimally unsatisfiable set keeps it unsatisfiable exactly when every
  model of the other clauses sets v = e, so a clause's widening is the
  backbone of the others.  ``saturate`` adds it to each clause in one pass
  and keeps a clause-by-clause bijection to the input; ``is_saturated_mu``
  stops at the first literal found.

* ``stability_at_least``, ``degree_measures`` -- bounded stability of
  irredundancy under partial assignments, and the min-max variable-degree
  measures.

Trees serialize to a parenthesized text form, see ``format_tree``.
"""

import heapq
import itertools
import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

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
)
from .reductions import _ReductionState, _singular_counts
from .satdec import decide, is_irredundant, is_minimally_unsatisfiable
from .structure import _counts_cover_space

__all__ = [
    "DeficiencyOneTree",
    "DegreeMeasures",
    "LEAF",
    "Mu1Classification",
    "Mu1Verdict",
    "classify_mu1",
    "degree_measures",
    "format_tree",
    "is_saturated_mu",
    "parse_tree",
    "recognize_mu1",
    "saturate",
    "stability_at_least",
    "tree_to_clause_set",
]


@dataclass(frozen=True, eq=False)
class DeficiencyOneTree:
    """Rooted tree with variable-labelled inner nodes.

    A leaf is ``DeficiencyOneTree()``.  An inner node carries a variable
    and one child per domain value; the child at index j is the subtree
    reached by assigning value j, so the edge labelling is the tuple
    position.  Variable labels must be distinct across the whole tree;
    that global condition is checked by the consumers (tree_to_clause_set,
    parse_tree), not per node.  Equality, hashing and repr are structural
    and walk the tree with an explicit stack, so deep trees work too; repr
    prints the text the dataclass would generate.
    """

    var: Optional[int] = None
    children: Tuple["DeficiencyOneTree", ...] = ()

    def __post_init__(self):
        if self.var is None:
            if self.children:
                raise ValueError("a leaf carries no children")
        else:
            if not isinstance(self.var, int):
                raise ValueError("inner nodes are labelled with integer variables")
            if not self.children:
                raise ValueError("an inner node needs one child per domain value")
            if not all(isinstance(c, DeficiencyOneTree) for c in self.children):
                raise ValueError("children must be trees")

    @property
    def is_leaf(self) -> bool:
        return self.var is None

    @classmethod
    def node(cls, var: int, children) -> "DeficiencyOneTree":
        return cls(var, tuple(children))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeficiencyOneTree):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.var != b.var or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:
        hashes: Dict[int, int] = {}  # id(subtree) -> its hash
        stack = [self]
        while stack:
            node = stack[-1]
            pending = [c for c in node.children if id(c) not in hashes]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            hashes[id(node)] = hash(
                (node.var, tuple(hashes[id(c)] for c in node.children)))
        return hashes[id(self)]

    def __repr__(self) -> str:
        parts, stack = [], [self]  # stack: subtrees still to print, closing text
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            parts.append(f"{type(item).__qualname__}(var={item.var!r}, children=(")
            kids = item.children
            stack.append(",))" if len(kids) == 1 else "))")
            for i in reversed(range(len(kids))):
                stack.append(kids[i])
                if i:
                    stack.append(", ")
        return "".join(parts)


LEAF = DeficiencyOneTree()


def _check_labels(tree: DeficiencyOneTree) -> None:
    seen = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        if node.var in seen:
            raise ValueError(f"variable {node.var} labels two nodes")
        seen.add(node.var)
        stack.extend(node.children)


def tree_to_clause_set(tree: DeficiencyOneTree) -> MultiClauseSet:
    """The clause-set whose clauses are the root-to-leaf paths of the tree.

    Each leaf contributes the clause of literals (variable of node, value
    of outgoing edge) collected along its path from the root; the trivial
    tree yields the single empty clause.  The result is a 1-regular
    hitting (any two clauses clash exactly at their lowest common
    ancestor), saturated, minimally unsatisfiable clause-set of
    deficiency 1, over the domains spelled out by the node arities.
    """
    _check_labels(tree)
    sizes = {}
    clauses = _Trusted()  # distinct labels: the paths are distinct clauses
    stack = [(tree, {})]
    while stack:
        node, path = stack.pop()
        if node.is_leaf:
            clauses[_clause(path)] = 1
            continue
        sizes[node.var] = len(node.children)
        stack.extend((child, {**path, node.var: value})
                     for value, child in enumerate(node.children))
    return MultiClauseSet(VariableTable(sizes), clauses)


class Mu1Verdict(NamedTuple):
    """Outcome of the singular-elimination recognition.

    verdict  "mu1" or "not_mu1"
    steps    variables eliminated, in order, before the outcome was known
    reason   why recognition stopped short (not_mu1 only)
    """

    verdict: str
    steps: Tuple[int, ...]
    reason: Optional[str] = None


def recognize_mu1(F: MultiClauseSet) -> Mu1Verdict:
    """Decide minimal unsatisfiability at deficiency 1 by elimination.

    Repeatedly resolves away the cheapest singular variable: the one with
    the fewest occurrences, ties broken by the smaller index.  Membership
    is equivalent to every such maximal elimination sequence being
    non-degenerate (each step drops the clause count by exactly the domain
    size minus one) and ending in the single empty clause.  A degenerate
    step, or running out of singular variables early, refutes membership
    conclusively.

    The clauses live in the literal index of the r-reduction
    (``reductions._ReductionState``), and each step is its
    ``singular_step``, which is degenerate when a resolvent clashes, is
    already a clause, or repeats.  The candidates sit in a lazy heap keyed
    by (occurrences, variable), to which a variable returns whenever its
    counts change.  Updates go clause by clause through ``_set``, without
    the neighbour marking of ``change``: the root of a chain image occurs in
    every clause, so marking would cost the whole image per step.  So a step
    costs about the size of the clauses on the eliminated variable, not a
    scan of the whole clause-set.
    """
    if any(mult > 1 for _, mult in F.items()):
        return Mu1Verdict("not_mu1", (), "a repeated clause is redundant")
    state = _ReductionState(F)
    occ = state.occ
    heap = [(sum(map(len, slots)), v) for v, slots in occ.items()]
    heapq.heapify(heap)
    steps = []
    while state.mult.keys() != {BOT}:
        if not heap:
            return Mu1Verdict("not_mu1", tuple(steps),
                              "no singular variable left")
        count, v = heapq.heappop(heap)
        slots = occ.get(v)
        if slots is None or count != sum(map(len, slots)):
            continue  # stale entry; v was pushed again with its new count
        if not _singular_counts([len(slot) for slot in slots]):
            continue  # not singular; comes back once its counts change
        steps.append(v)
        update = state.singular_step(v)
        if update is None:
            return Mu1Verdict("not_mu1", tuple(steps),
                              f"degenerate elimination of variable {v}")
        touched = set()
        for clause, m in update.items():
            state._set(clause, m)
            if m:
                touched.update(clause._by_var)
        for w in touched:
            heapq.heappush(heap, (sum(map(len, occ[w])), w))
    return Mu1Verdict("mu1", tuple(steps))


class Mu1Classification(NamedTuple):
    """Position of a deficiency-1 minimally unsatisfiable clause-set.

    category    "saturated", "marginal", or "intermediate"
    tree        witness tree whose image is the input (saturated only)
    diagnostic  explanation when a hitting input unexpectedly failed
                tree reconstruction (downgraded to intermediate)
    """

    category: str
    tree: Optional[DeficiencyOneTree]
    diagnostic: Optional[str] = None


def _tree_from_image(F: MultiClauseSet) -> DeficiencyOneTree:
    """Rebuild a tree whose image is the hitting clause-set F.

    A node's variable occurs in every clause below it, so it occurs more
    often than any variable further down, except along a run of
    single-child nodes, where the single-valued variables are put first
    (ascending) and the run's last node below them.  Sorting each clause
    by that rank gives its root path; the paths form a trie, which folds
    bottom-up into the tree.
    """
    table = F.table
    occurrences = Counter(lit.var for clause in F.clauses() for lit in clause)
    ranked = sorted(occurrences, key=lambda v: (
        -occurrences[v], table.domain_size(v) > 1, v))
    position = {Literal(v, e): i for i, v in enumerate(ranked)
                for e in table.domain(v)}
    trie: Dict[Literal, dict] = {}  # literal -> subtrie; {} ends a path
    for clause in F.clauses():
        node = trie
        for lit in sorted(clause, key=position.__getitem__):
            node = node.setdefault(lit, {})
    order, stack = [], [trie]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.values())
    built: Dict[int, DeficiencyOneTree] = {}  # id(subtrie) -> its tree
    for node in reversed(order):
        if not node:
            built[id(node)] = LEAF
            continue
        branching = {lit.var for lit in node}
        if len(branching) > 1:
            raise ValueError(f"variables {sorted(branching)} branch at one node")
        (v,) = branching
        if len(node) != table.domain_size(v):
            raise ValueError(f"a node on variable {v} misses some of its values")
        built[id(node)] = DeficiencyOneTree(
            v, tuple(built[id(node[Literal(v, e)])] for e in table.domain(v)))
    tree = built[id(trie)]
    if tree_to_clause_set(tree) != F:
        raise ValueError("reconstruction did not reproduce the clause-set")
    return tree


def _classify_member(F: MultiClauseSet) -> Mu1Classification:
    """classify_mu1 for an F already recognised as a member."""
    if _counts_cover_space(F):  # hitting, as F is unsatisfiable
        try:
            return Mu1Classification("saturated", _tree_from_image(F))
        except ValueError as exc:
            return Mu1Classification("intermediate", None, str(exc))
    if all(count == 1 for counts in F.value_count_table().values()
           for count in counts):
        return Mu1Classification("marginal", None)
    return Mu1Classification("intermediate", None)


def classify_mu1(F: MultiClauseSet) -> Mu1Classification:
    """Saturated / marginal / intermediate split of the deficiency-1 class.

    Saturated members are exactly the hitting ones, equivalently the tree
    images, and the witness tree is returned; marginal members are exactly
    the totally singular ones (every literal occurrence unique).  The
    single empty clause qualifies as both and reports as saturated.
    Raises ValueError when the input is not minimally unsatisfiable of
    deficiency 1.
    """
    outcome = recognize_mu1(F)
    if outcome.verdict != "mu1":
        raise ValueError(
            f"not minimally unsatisfiable of deficiency 1 ({outcome.reason})")
    return _classify_member(F)


def _backbone(rest: MultiClauseSet, variables):
    """Yield (v, e), v ascending, for each of the variables that takes the
    value e in every model of the satisfiable rest.

    One model gives the candidates, the values it binds.  Each is tested
    by adding the unit clause {(v, e)}, "v != e": unsatisfiable confirms
    it, and a new model drops every candidate it disagrees with or leaves
    unbound (so free to take any value).  This is the model-based backbone
    of Marques-Silva, Janota and Lynce (ECAI 2010).
    """
    if not variables:
        return
    witness = decide(rest).witness
    candidates = {v: witness[v] for v in variables if v in witness}
    for v in sorted(candidates):
        if v not in candidates:
            continue
        e = candidates[v]
        trial = _Trusted(rest.items())
        trial[_clause({v: e})] = 1
        witness = decide(rest.with_clauses(trial)).witness
        if witness is None:
            yield Literal(v, e)
        else:
            candidates = {w: c for w, c in candidates.items()
                          if witness.get(w) == c}


def _widening(F: MultiClauseSet, clauses, idx: int):
    """The literals each of which, added to clauses[idx], keeps the
    minimally unsatisfiable clauses (over F's table) unsatisfiable.

    Adding (v, e) to a clause C does so exactly when every model of the
    others sets v = e: the backbone of the others on the candidate
    variables outside C, those of F with at least two values (a
    single-valued one would fit everywhere).
    """
    clause = clauses[idx]
    rest = F.with_clauses(_Trusted.fromkeys(clauses[:idx] + clauses[idx + 1:], 1))
    table = F.table
    variables = [v for v in sorted(F.var_set())
                 if table.domain_size(v) >= 2 and not clause.has_var(v)]
    return _backbone(rest, variables)


def saturate(F: MultiClauseSet) -> MultiClauseSet:
    """Saturation of a minimally unsatisfiable clause-set.

    One pass in canonical clause order: each clause takes on every literal
    of its widening (see ``_widening``), with the earlier clauses already
    widened, and the set stays minimally unsatisfiable.  One pass is a
    fixpoint: widening a clause only adds models to the other clauses, so
    their backbones can only shrink, and a clause done stays saturated.
    The result extends each input clause (possibly trivially).  Raises
    ValueError on non-MU input.
    """
    if not is_minimally_unsatisfiable(F):
        raise ValueError("saturate needs a minimally unsatisfiable input")
    clauses = list(F.clauses())
    for idx, clause in enumerate(clauses):
        clauses[idx] = Clause(itertools.chain(clause, _widening(F, clauses, idx)))
    return F.with_clauses({c: 1 for c in clauses})


def is_saturated_mu(F: MultiClauseSet) -> bool:
    """Minimally unsatisfiable and no literal addition keeps it unsatisfiable.

    Every clause's widening (see ``_widening``) must be empty; the check
    stops at the first literal found.
    """
    if not is_minimally_unsatisfiable(F):
        return False
    clauses = F.clauses()
    return all(next(_widening(F, clauses, idx), None) is None
               for idx in range(len(clauses)))


def stability_at_least(F: MultiClauseSet, k: int) -> bool:
    """Whether every assignment of at most k variables leaves F irredundant.

    k = 0 asks for irredundancy of F itself; negative k is vacuously true.
    Only assignments over occurring variables matter (others leave F
    unchanged), so k caps at n(F).
    """
    variables = sorted(F.var_set())
    table = F.table
    for r in range(0, min(k, len(variables)) + 1):
        for subset in itertools.combinations(variables, r):
            for values in itertools.product(*(table.domain(v) for v in subset)):
                phi = PartialAssignment(zip(subset, values))
                if not is_irredundant(apply(phi, F)):
                    return False
    return True


class DegreeMeasures(NamedTuple):
    """Occurrence statistics over the occurring variables.

    mmvd  min over variables of the largest per-value occurrence count
    mvd   min over variables of the total occurrence count
    """

    mmvd: int
    mvd: int


def degree_measures(F: MultiClauseSet) -> DegreeMeasures:
    """Min-max value-degree and min variable-degree; needs n(F) > 0."""
    if F.n == 0:
        raise ValueError("degree measures need at least one occurring variable")
    counts = F.value_count_table().values()
    return DegreeMeasures(mmvd=min(map(max, counts)), mvd=min(map(sum, counts)))


# -- tree serialization ----------------------------------------------------
#
# tree   ::= '*' | '(' VAR branch+ ')'
# branch ::= '(' VALUE tree ')'
#
# VAR and VALUE are decimal integers; a node's branch values must cover
# 0 .. arity-1 exactly, in any order.  Emission is always ascending.


def format_tree(tree: DeficiencyOneTree) -> str:
    """Parenthesized text form, inverse of parse_tree."""
    parts, stack = [], [tree]  # stack: subtrees and text still to print
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item.is_leaf:
            parts.append("*")
        else:
            parts.append(f"({item.var}")
            stack.append(")")
            for value in reversed(range(len(item.children))):
                stack.extend((")", item.children[value], f" ({value} "))
    return "".join(parts)


def parse_tree(text: str) -> DeficiencyOneTree:
    """Parse the parenthesized tree format; see format_tree."""
    tokens = re.findall(r"[()*]|\d+|\S", text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of tree text")
        token = tokens[pos]
        if expected is not None and token != expected:
            raise ValueError(f"expected {expected!r}, found {token!r}")
        pos += 1
        return token

    def number(what):
        token = take()
        if not token.isdecimal():
            raise ValueError(f"expected {what}, found {token!r}")
        return int(token)

    stack = []  # one [var, branches, value being read] per open inner node
    while True:
        if peek() == "*":
            take()
            tree = LEAF
        else:
            take("(")
            stack.append([number("a variable"), {}, None])
            tree = None
        while stack:
            var, branches, value = frame = stack[-1]
            if tree is not None:
                branches[value] = tree
                take(")")
                tree = None
            if peek() == "(":
                take("(")
                frame[2] = value = number("a value")
                if value in branches:
                    raise ValueError(f"value {value} given twice for variable {var}")
                break
            take(")")
            stack.pop()
            if sorted(branches) != list(range(len(branches))):
                raise ValueError(
                    f"branch values of variable {var} must cover 0..{len(branches) - 1}")
            if not branches:
                raise ValueError(f"variable {var} has no branches")
            tree = DeficiencyOneTree(var, tuple(branches[v] for v in sorted(branches)))
        else:
            break

    if pos != len(tokens):
        raise ValueError(f"trailing input {tokens[pos]!r}")
    _check_labels(tree)
    return tree
