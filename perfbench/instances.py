"""Seeded instance generators for the benchmark.

Everything here is independent of the ``gcls`` package and of the test
suite, so neither a library nor a test refactor can shift the workloads.
An instance is plain data: domain sizes, clause occurrences (a clause is a
sorted tuple of ``(var, value)`` literals, "var must avoid value"), and
the answers known by construction that the correctness gate compares with.

The seed only relabels variables and values of the structured families
(an isomorphism: every measure and verdict is unchanged) and draws the
random families, so the cost of a workload moves little from seed to seed.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

Clause = Tuple[Tuple[int, int], ...]


class Instance(NamedTuple):
    name: str
    sizes: Dict[int, int]  # every declared variable 1..max with its domain size
    clauses: Tuple[Clause, ...]  # one entry per occurrence
    sat: Optional[bool] = None  # satisfiability, when known by construction
    mu1: Optional[str] = None  # "saturated"/"marginal" for MU(1), "no" for NOT-MU1


def text(inst: Instance) -> str:
    """The instance in the native ``gcls`` file format."""
    nvars = max(inst.sizes, default=0)
    lines = [f"c {inst.name}", f"p gcls {nvars} {len(inst.clauses)}"]
    lines += [f"d {v} {inst.sizes[v]}" for v in sorted(inst.sizes)]
    lines += [" ".join(f"{v}:{e}" for v, e in c) + " 0" if c else "0"
              for c in inst.clauses]
    return "\n".join(lines) + "\n"


def relabel(rng: random.Random, name: str, sizes: Dict[int, int],
             clauses: Sequence[Clause], **known) -> Instance:
    """Rename variables by a random permutation and values per variable by a
    random permutation of its domain."""
    variables = sorted(sizes)
    image = dict(zip(variables, rng.sample(variables, len(variables))))
    values = {v: rng.sample(range(sizes[v]), sizes[v]) for v in variables}
    renamed = tuple(tuple(sorted((image[v], values[v][e]) for v, e in c))
                    for c in clauses)
    return Instance(name, {image[v]: sizes[v] for v in variables},
                    tuple(sorted(renamed)), **known)


def coloring(order: int, edges: Sequence[Sequence[int]], colours: int
             ) -> Tuple[Dict[int, int], Tuple[Clause, ...]]:
    """No hyperedge monochromatic: per edge and colour e, "some vertex != e"."""
    sizes = {v: colours for v in range(1, order + 1)}
    clauses = sorted({tuple((v, e) for v in sorted(edge))
                      for edge in edges for e in range(colours)})
    return sizes, tuple(clauses)


def vdw(m: int, k: int, n: int) -> Tuple[Dict[int, int], Tuple[Clause, ...]]:
    """m-colour 1..n with no monochromatic k-term arithmetic progression."""
    aps = [range(a, a + k * d, d)
           for d in range(1, n + 1) for a in range(1, n - (k - 1) * d + 1)]
    return coloring(n, aps, m)


def vdw_instance(rng: random.Random, m: int, k: int, n: int,
                 sat: Optional[bool] = None) -> Instance:
    sizes, clauses = vdw(m, k, n)
    return relabel(rng, f"vdw({m},{k},{n})", sizes, clauses, sat=sat, mu1="no")


def pigeonhole(rng: random.Random, k: int) -> Instance:
    """Colour the complete graph K_{k+1} with k colours: unsatisfiable."""
    edges = [(u, w) for u in range(1, k + 2) for w in range(u + 1, k + 2)]
    sizes, clauses = coloring(k + 1, edges, k)
    return relabel(rng, f"php(K{k + 1},{k})", sizes, clauses, sat=False,
                    mu1="no")


def horn_chain(rng: random.Random, n: int) -> Instance:
    """x1, x_i -> x_{i+1}, not x_n: minimally unsatisfiable of deficiency 1,
    not hitting, every literal occurring once (the marginal class)."""
    clauses = [((1, 0),)]
    clauses += [((i, 1), (i + 1, 0)) for i in range(1, n)]
    clauses.append(((n, 1),))
    return relabel(rng, f"horn({n})", {v: 2 for v in range(1, n + 1)},
                    clauses, sat=False, mu1="marginal")


def tree_image(rng: random.Random, inner: int, arities: Sequence[int]
               ) -> Instance:
    """The clause-set of a random tree with ``inner`` inner nodes.

    Inner nodes carry distinct variables, arities are drawn from ``arities``,
    and each leaf gives the clause of its root path.  Such an image is
    minimally unsatisfiable of deficiency 1 and hitting (saturated).
    """
    labels = rng.sample(range(1, inner + 1), inner)
    root: List = [None]
    leaves = [(root, 0)]  # (parent list, slot) of every current leaf
    sizes = {}
    for var in labels:
        parent, slot = leaves.pop(rng.randrange(len(leaves)))
        arity = rng.choice(arities)
        node = (var, [None] * arity)
        sizes[var] = arity
        parent[slot] = node
        leaves += [(node[1], j) for j in range(arity)]
    clauses = []
    stack = [(root[0], ())]
    while stack:
        node, path = stack.pop()
        if node is None:
            clauses.append(tuple(sorted(path)))
            continue
        var, children = node
        stack += [(child, path + ((var, e),)) for e, child in enumerate(children)]
    return Instance(f"tree({inner})", sizes, tuple(sorted(clauses)), sat=False,
                    mu1="saturated")


def minus_one_clause(rng: random.Random, inst: Instance) -> Instance:
    """Drop one clause of a minimally unsatisfiable instance: satisfiable."""
    drop = rng.randrange(len(inst.clauses))
    rest = inst.clauses[:drop] + inst.clauses[drop + 1:]
    return Instance(inst.name + "-1", inst.sizes, rest, sat=True, mu1="no")


def random_multi(rng: random.Random, n: int, c: int) -> Instance:
    """Random clauses over n variables with domains 2-4, widths 1-3 and
    multiplicities up to 3; small enough for the brute-force oracles."""
    sizes = {v: rng.randint(2, 4) for v in range(1, n + 1)}
    clauses = []
    while len(clauses) < c:
        chosen = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
        clause = tuple(sorted((v, rng.randrange(sizes[v])) for v in chosen))
        clauses += [clause] * min(rng.randint(1, 3), c - len(clauses))
    return Instance(f"random({n},{c})", sizes, tuple(sorted(clauses)))
