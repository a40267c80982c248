"""The three workloads: which CLI requests run on which generated files.

A request is one ``gcls`` invocation on one instance file.  Each workload
is a fixed list of requests, replayed in order as one "pass"; the seed
relabels the structured instances and draws the random ones.  Tree shapes,
and the clause dropped from a tree to make it satisfiable, come from fixed
seeds and are only relabelled by the run seed: the cost of deciding a tree
varies several-fold with its shape and the dropped clause, which would make
the workload's figures depend on the seed.

Run as a script, this module is the set-up the benchmark times: a fresh
interpreter imports ``gcls`` from the checkout, generates one workload's
instances and writes their files, then removes them.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import sys
from typing import Dict, List, NamedTuple, Optional, Tuple

import instances as gen
from instances import Instance

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
WORKLOADS = ("analyze", "solve", "convert")

#: The van der Waerden families of ``analyze``, n doubling; ``convert``
#: reuses them for ``mu1`` (NOT-MU1), ``translate`` and ``encode vdw``.
VDW = tuple((m, k, n) for m, k, sizes in ((2, 3, (5, 10, 20)), (2, 4, (5, 10, 20)),
                                          (3, 3, (4, 8, 16))) for n in sizes)


class Request(NamedTuple):
    argv: Tuple[str, ...]  # complete argument vector for ``gcls.cli.main``
    inst: Instance  # the input, or for ``encode vdw`` the expected output
    label: str


def import_gcls():
    """Import ``gcls.cli`` from the checkout's ``src``.

    Exits with status 1 when the checkout has no ``src/gcls`` or when
    another ``gcls`` would be imported, so a bare benchmark directory fails
    instead of measuring something else.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gcls", "cli.py")):
        sys.exit(f"perfbench: no gcls sources under {src}")
    sys.path.insert(0, src)
    import gcls.cli
    if not os.path.realpath(gcls.cli.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported gcls from {gcls.cli.__file__}, not {src}")
    return gcls.cli


def _relabelled(rng: random.Random, base: Instance, tag: object) -> Instance:
    return gen.relabel(rng, f"{base.name}#{tag}", base.sizes, base.clauses,
                       sat=base.sat, mu1=base.mu1)


def _tree(rng: random.Random, inner: int, shape: int, arities) -> Instance:
    shape_rng = random.Random(f"tree-{inner}-{shape}")
    return _relabelled(rng, gen.tree_image(shape_rng, inner, arities), shape)


def _sat_tree(rng: random.Random, inner: int, copy: int) -> Instance:
    """Tree image (shape 0) minus one clause, the clause fixed per copy."""
    tree = gen.tree_image(random.Random(f"tree-{inner}-0"), inner, (2, 3))
    base = gen.minus_one_clause(random.Random(f"drop-{inner}-{copy}"), tree)
    return _relabelled(rng, base, copy)


def _analyze(rng: random.Random) -> List[Tuple[Tuple[str, ...], Instance]]:
    vdws = [gen.vdw_instance(rng, m, k, n) for m, k, n in VDW]
    phps = [gen.pigeonhole(rng, k) for k in range(3, 7)]
    shapes = [(3, 5), (4, 6), (4, 8), (5, 6), (5, 8), (6, 8)] * 6
    randoms = [gen.random_multi(rng, n, c) for n, c in shapes]
    hermitian = [vdws[1], vdws[4], vdws[7], phps[0], phps[1]] + randoms[:10]
    mix = [(("analyze",), f) for f in vdws + phps + randoms]
    mix += [(("lean-kernel",), f) for f in vdws + phps + randoms]
    mix += [(("analyze", "--hermitian"), f) for f in hermitian]
    return mix


def _solve(rng: random.Random) -> List[Tuple[Tuple[str, ...], Instance]]:
    horns = [gen.horn_chain(rng, n) for n in (4, 6, 8, 12, 16, 32)]
    trees = [_tree(rng, inner, 0, (2, 3)) for inner in range(5, 9)]
    sat_trees = [_sat_tree(rng, inner, copy) for inner in (5, 6, 7, 8, 11)
                 for copy in range(4)]
    vdw_sat = gen.vdw_instance(rng, 2, 3, 8, sat=True)
    vdw_unsat = gen.vdw_instance(rng, 2, 3, 9, sat=False)
    fpt, auto = ("solve", "--method", "fpt"), ("solve",)
    bounded, autarky = ("solve", "--method", "bounded"), ("autarky",)
    # fpt stays under a second up to n = 16.  auto means brute force on these
    # sizes; it stays cheap up to n = 12 and 8 inner nodes, and beyond that
    # the time to the first model found depends on the relabelling.
    mix = [(fpt, f) for f in horns[:-1] + trees + sat_trees + [vdw_sat]]
    mix += [(auto, f) for f in horns[:-2] + trees + sat_trees[:16] + [vdw_sat, vdw_unsat]]
    mix += [(bounded, f) for f in horns + trees + sat_trees + [vdw_sat]]
    mix += [(autarky, f) for f in horns[:-1] + trees + sat_trees]
    return mix


def _convert(rng: random.Random) -> List[Tuple[Tuple[str, ...], Instance]]:
    trees = [_tree(rng, inner, shape, (2, 3, 4))
             for inner, shapes in ((25, 5), (50, 3), (100, 3)) for shape in range(shapes)]
    big = _tree(rng, 200, 0, (2, 3, 4))
    horns = [gen.horn_chain(rng, n) for n in (64, 128, 256)]
    vdws = [gen.vdw_instance(rng, m, k, n) for m, k, n in VDW]
    schemes = ("direct", "direct-strong", "nested", "reduced", "log")
    mix = [(("translate", "--scheme", s), f) for f in trees + [big] for s in schemes]
    mix += [(("translate", "--scheme", s), f)
            for f in horns + vdws for s in ("direct", "nested")]
    mix += [(("mu1",), f) for f in trees[:9] + horns + vdws]
    for m, k, n in VDW:
        sizes, clauses = gen.vdw(m, k, n)
        expected = Instance(f"vdw({m},{k},{n})", sizes, clauses)
        mix.append((("encode", "vdw", str(m), str(k), str(n)), expected))
    return mix


MIXES = {"analyze": _analyze, "solve": _solve, "convert": _convert}


def prepare(workload: str, seed: int, workdir: str) -> List[Request]:
    """Generate the workload's instances, write one file per instance and
    return the requests of one pass, in replay order."""
    mix = MIXES[workload](random.Random(f"{workload}-{seed}"))
    os.makedirs(workdir, exist_ok=True)
    paths: Dict[int, str] = {}
    requests = []
    for command, inst in mix:
        if command[0] == "encode":
            requests.append(Request(command, inst, " ".join(command)))
            continue
        if id(inst) not in paths:
            paths[id(inst)] = os.path.join(workdir, f"{len(paths)}.gcls")
            with open(paths[id(inst)], "w", encoding="utf-8") as handle:
                handle.write(gen.text(inst))
        requests.append(Request(command + (paths[id(inst)],), inst,
                                f"{' '.join(command)} {inst.name}"))
    return requests


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    import_gcls()
    try:
        prepare(args.workload, args.seed, args.workdir)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
