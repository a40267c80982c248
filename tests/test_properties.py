"""The paper's results as properties, indexed by part and topic.

Each property is checked on instances drawn by ``hypothesis`` from the
``instances`` strategy: small generalised clause-sets with domains of size
1 to 4, repeated clauses (multiplicities) and the empty clause.  Runs are
derandomized and keep no example database, so every run checks the same
examples.

Part II, the direct translation
    - the deficiency is invariant under ``direct_weak``.

Part II, the nested translation
    - ``nested`` keeps the conflict structure: the hermitian signature of
      the conflict matrix, and the hitting classification up to the
      clause-occurrence order, on which the multipartition's indices rest.

Part II, MU(1) and tree images, on trees drawn by ``trees``
    - a tree image is recognised as MU(1) and classified as saturated, with
      a tree of the same image;
    - singular DP reduces it to the empty clause in one elimination per
      variable, and ``sat_fpt`` refutes it at the root.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from gcls.core import BOT, Clause, MultiClauseSet, VariableTable
from gcls.musat import (
    LEAF,
    DeficiencyOneTree,
    classify_mu1,
    recognize_mu1,
    tree_to_clause_set,
)
from gcls.reductions import VariableEliminationStep, r_reduction_with_log
from gcls.satdec import sat_fpt
from gcls.structure import classify_hitting, conflict_inertia
from gcls.translate import direct_weak, nested

#: derandomized and without a database: each run checks the same examples
checked = settings(derandomize=True, deadline=None, max_examples=80,
                   database=None)


@st.composite
def clauses(draw, sizes, max_width=4):
    """A clause on at most max_width of the variables 1..len(sizes), the
    variable v taking a value below sizes[v - 1]."""
    if not sizes:
        return Clause()
    variables = draw(st.sets(st.integers(1, len(sizes)), max_size=max_width))
    return Clause((v, draw(st.integers(0, sizes[v - 1] - 1)))
                  for v in sorted(variables))


@st.composite
def instances(draw, max_n=5, max_dom=4, max_c=10):
    """A multi-clause-set over the variables 1..n; a clause drawn twice
    gets multiplicity 2, and ``dedup`` is taken in about half the draws."""
    sizes = draw(st.lists(st.integers(1, max_dom), max_size=max_n))
    F = MultiClauseSet(VariableTable(dict(enumerate(sizes, 1))),
                       draw(st.lists(clauses(sizes), max_size=max_c)))
    return F.dedup() if draw(st.booleans()) else F


@checked
@given(instances())
def test_direct_weak_keeps_the_deficiency(F):
    assert direct_weak(F).boolean_cnf.delta == F.delta


def _order_free(hitting):
    """The classification without the multipartition's occurrence indices:
    its block sizes stay, as a multiset."""
    blocks = hitting.multipartition
    sizes = None if blocks is None else sorted(map(len, blocks.blocks))
    return hitting._replace(multipartition=sizes)


@checked
@given(instances())
def test_nested_keeps_the_conflict_structure(F):
    G = nested(F).boolean_cnf
    assert G.c == F.c
    assert conflict_inertia(G) == conflict_inertia(F)
    assert _order_free(classify_hitting(G)) == _order_free(classify_hitting(F))


@st.composite
def trees(draw, max_nodes=12):
    """A tree of at most max_nodes inner nodes with one to three children
    each, grown without recursion: each node fills a drawn leaf slot of the
    tree so far, and the labels 1..n are drawn shuffled."""
    arities = draw(st.lists(st.integers(1, 3), max_size=max_nodes))
    labels = draw(st.permutations(range(1, len(arities) + 1)))
    slots = [None]  # open leaf slots: (node, child index), or None for the root
    children = []
    for node, arity in enumerate(arities):
        slot = slots.pop(draw(st.integers(0, len(slots) - 1)))
        if slot is not None:
            children[slot[0]][slot[1]] = node
        children.append([None] * arity)
        slots.extend((node, j) for j in range(arity))
    built = [LEAF] * len(arities)
    for node in reversed(range(len(arities))):  # children come after parents
        built[node] = DeficiencyOneTree.node(
            labels[node], [LEAF if c is None else built[c] for c in children[node]])
    return built[0] if arities else LEAF


@checked
@given(trees())
def test_tree_images_are_saturated_mu1(tree):
    F = tree_to_clause_set(tree)
    assert recognize_mu1(F).verdict == "mu1"
    found = classify_mu1(F)
    assert found.category == "saturated"
    assert tree_to_clause_set(found.tree) == F


@checked
@given(trees())
def test_tree_images_reduce_by_singular_dp_alone(tree):
    F = tree_to_clause_set(tree)
    G, steps = r_reduction_with_log(F)
    assert G.clauses() == (BOT,)
    assert len(steps) == F.n
    assert all(isinstance(step, VariableEliminationStep) for step in steps)
    found = sat_fpt(F)
    assert not found.satisfiable and found.node_count == 1
