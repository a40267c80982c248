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
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from gcls.core import Clause, MultiClauseSet, VariableTable
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
