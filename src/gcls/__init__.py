"""Toolkit for generalised (non-boolean) clause-sets.

Clauses are sets of "variable must avoid value" literals over finite domains.
The package provides the deficiency/matching machinery, polynomial-time
reductions, satisfiability deciders parameterised by maximal deficiency,
translations to boolean CNF, conflict-structure analysis, recognition of
minimally unsatisfiable instances of deficiency 1, and combinatorial encoders,
plus a command-line front end (``gcls``).

Each library module declares its public names in its own ``__all__``; the
package re-exports them, plus ``parse_hypergraph`` from ``gcls.cli``.
"""

from .core import *
from .encode import *
from .matching import *
from .musat import *
from .reductions import *
from .satdec import *
from .structure import *
from .translate import *

__all__ = (core.__all__ + encode.__all__ + matching.__all__ + musat.__all__
           + reductions.__all__ + satdec.__all__ + structure.__all__
           + translate.__all__ + ["parse_hypergraph"])


def __getattr__(name: str):
    """``parse_hypergraph`` is read from ``gcls.cli`` on first use: importing
    the CLI module with the package would put it in ``sys.modules`` before
    ``python -m gcls.cli`` runs it, which makes runpy warn."""
    if name == "parse_hypergraph":
        from .cli import parse_hypergraph
        return parse_hypergraph
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
