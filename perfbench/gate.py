"""The correctness gate: every response is checked, outside the timed region.

Answers are compared with what is known by construction (Horn chains and
tree images are minimally unsatisfiable of deficiency 1, a tree image minus
one clause is satisfiable, vdW(2,3,n) flips at n = 9), printed models and
autarkies are evaluated here against the input clauses, measures are
recomputed from the instance, and on instances small enough for them the
maximal deficiency, surplus and matching-lean kernel are compared with the
brute-force oracles of ``tests/oracles.py``.  The gate never consults the
library's algorithms, except ``parse_dimacs``, which a translation's output
must satisfy, and the core data model the oracles work on.
"""

from __future__ import annotations

import math
import os
import re
import sys
from collections import Counter
from typing import Dict, Optional, Tuple

from instances import Clause, Instance
from workloads import ROOT, Request

#: Largest sub-multi-clause-set count / variable count handed to the oracles.
ORACLE_SUBSETS = 4096
ORACLE_VARS = 8
KERNEL_ORACLE_VARS = 4


def _oracles():
    tests = os.path.join(ROOT, "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles
    return oracles


def occurring(inst: Instance) -> Dict[int, int]:
    """Domain sizes of the variables that occur in some clause."""
    return {v: inst.sizes[v] for c in inst.clauses for v, _ in c}


def parse_gcls_text(text: str) -> Tuple[Dict[int, int], Counter]:
    """Domain declarations and clause multiset of a ``gcls`` file."""
    sizes: Dict[int, int] = {}
    clauses: Counter = Counter()
    current = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0] in ("c", "p"):
            continue
        if tokens[0] == "d":
            sizes[int(tokens[1])] = int(tokens[2])
            continue
        for token in tokens:
            if token == "0":
                clauses[tuple(sorted(current))] += 1
                current = []
            else:
                var, val = token.split(":")
                current.append((int(var), int(val)))
    if current:
        raise ValueError("unterminated clause")
    return sizes, clauses


def _bindings(line: str) -> Dict[int, int]:
    if not line.startswith("v"):
        raise ValueError(f"expected a 'v' line, got {line!r}")
    pairs = [token.split(":") for token in line[1:].split()]
    return {int(v): int(e) for v, e in pairs}


def _satisfied(clause: Clause, phi: Dict[int, int]) -> bool:
    return any(v in phi and phi[v] != e for v, e in clause)


def _in_domains(phi: Dict[int, int], inst: Instance) -> bool:
    return all(v in inst.sizes and 0 <= e < inst.sizes[v] for v, e in phi.items())


def model_error(inst: Instance, phi: Dict[int, int]) -> Optional[str]:
    if not _in_domains(phi, inst):
        return "model binds a value outside its domain"
    if not all(_satisfied(c, phi) for c in inst.clauses):
        return "printed model falsifies a clause"
    return None


def autarky_error(inst: Instance, phi: Dict[int, int]) -> Optional[str]:
    if not phi:
        return "empty autarky"
    if not _in_domains(phi, inst):
        return "autarky binds a value outside its domain"
    touched = (c for c in inst.clauses if any(v in phi for v, _ in c))
    if not all(_satisfied(c, phi) for c in touched):
        return "autarky leaves a touched clause unsatisfied"
    return None


def parse_tree_text(text: str):
    """``format_tree`` text to nested ``(var, children)``, leaves ``None``."""
    tokens = re.findall(r"[()*]|\d+", text)
    pos = 0

    def node():
        nonlocal pos
        if tokens[pos] == "*":
            pos += 1
            return None
        var, pos = int(tokens[pos + 1]), pos + 2  # "(" var
        children = []
        while tokens[pos] == "(":
            if int(tokens[pos + 1]) != len(children):
                raise ValueError("branch values out of order")
            pos += 2
            children.append(node())
            pos += 1  # ")" closing the branch
        pos += 1  # ")" closing the node
        return var, children

    tree = node()
    if pos != len(tokens):
        raise ValueError("trailing tree text")
    return tree


def tree_image(tree) -> Tuple[Dict[int, int], Counter]:
    sizes, clauses = {}, Counter()
    stack = [(tree, ())]
    while stack:
        node, path = stack.pop()
        if node is None:
            clauses[tuple(sorted(path))] += 1
            continue
        var, children = node
        sizes[var] = len(children)
        stack += [(child, path + ((var, e),)) for e, child in enumerate(children)]
    return sizes, clauses


class Gate:
    """Checks responses; oracle answers are computed once per instance."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self._oracle: Dict[int, Dict[str, object]] = {}

    def check(self, request: Request, code: int, out: str) -> Optional[str]:
        """None when the response is correct, else why it is not."""
        command = request.argv[0]
        if code == 3:
            return "refused (exit 3)"
        if command != "solve" and code != 0:
            return f"exit code {code}"
        try:
            return getattr(self, "_" + command.replace("-", "_"))(request, code, out)
        except (ValueError, IndexError, KeyError) as exc:
            return f"unreadable output: {exc}"

    # -- per command --------------------------------------------------------

    def _solve(self, request: Request, code: int, out: str) -> Optional[str]:
        inst, lines = request.inst, out.splitlines()
        if code == 20 and lines == ["s UNSATISFIABLE"]:
            return "wrong verdict: UNSAT" if inst.sat else None
        if code == 10 and lines[0] == "s SATISFIABLE" and len(lines) == 2:
            if inst.sat is False:
                return "wrong verdict: SAT"
            return model_error(inst, _bindings(lines[1]))
        return f"malformed solve response (exit {code})"

    def _autarky(self, request: Request, code: int, out: str) -> Optional[str]:
        inst, lines = request.inst, out.splitlines()
        if lines == ["LEAN"]:
            return "satisfiable instance reported LEAN" if inst.sat else None
        if lines[0] == "AUTARKY" and len(lines) == 2:
            if inst.mu1 in ("saturated", "marginal"):
                return "autarky on a minimally unsatisfiable instance"
            return autarky_error(inst, _bindings(lines[1]))
        return "malformed autarky response"

    def _analyze(self, request: Request, code: int, out: str) -> Optional[str]:
        inst = request.inst
        got = dict(line.split(" ", 1) for line in out.splitlines())
        sizes = occurring(inst)
        nonempty = [c for c in inst.clauses if c]
        rd = sum(k - 1 for k in sizes.values())
        expected = {"n": len(sizes), "c": len(inst.clauses), "rd": rd,
                    "ell": sum(len(c) for c in inst.clauses),
                    "delta": len(inst.clauses) - rd}
        for key, value in expected.items():
            if got.get(key) != str(value):
                return f"{key} is {got.get(key)}, expected {value}"
        keys = ["delta-star", "surplus", "hitting-degree", "multipartition-blocks"]
        if "--hermitian" in request.argv:
            keys += ["n-plus", "n-minus", "h", "hdef"]
        delta_star, surp, *_ = [int(got[key]) for key in keys]
        if delta_star < max(expected["delta"], 0):
            return f"delta-star {delta_star} below max(delta, 0)"
        if sizes:
            # surplus <= delta(F[V]) for V = all variables and each {v}
            bound = min([len(nonempty) - rd] + [
                sum(1 for c in nonempty if any(w == v for w, _ in c)) - (k - 1)
                for v, k in sizes.items()])
            if surp > bound:
                return f"surplus {surp} above the upper bound {bound}"
        lean = "yes" if not sizes or surp >= 1 else "no"
        if got["matching-lean"] != lean:
            return f"matching-lean {got['matching-lean']} but surplus {surp}"
        oracle = self._oracle_answers(inst)
        for key, value in (("delta-star", delta_star), ("surplus", surp)):
            if key in oracle and oracle[key] != value:
                return f"{key} {value}, brute force gives {oracle[key]}"
        return None

    def _lean_kernel(self, request: Request, code: int, out: str) -> Optional[str]:
        inst = request.inst
        sizes, kernel = parse_gcls_text(out)
        if kernel - Counter(inst.clauses):
            return "kernel is not a sub-multiset of the input"
        if any(inst.sizes.get(v) != sizes.get(v) for c in kernel for v, _ in c):
            return "kernel changes a domain size"
        oracle = self._oracle_answers(inst)
        if "kernel" in oracle and oracle["kernel"] != kernel:
            return "kernel differs from the brute-force matching-lean kernel"
        return None

    def _translate(self, request: Request, code: int, out: str) -> Optional[str]:
        scheme = request.argv[request.argv.index("--scheme") + 1]
        cnf = self.cli.parse_dimacs(out).cnf
        sizes = list(occurring(request.inst).values())
        c = len(request.inst.clauses)
        bits = [(k - 1).bit_length() for k in sizes]
        expected = {
            "direct": (sum(sizes), c + len(sizes)),
            "direct-strong": (sum(sizes), c + len(sizes) + sum(math.comb(k, 2) for k in sizes)),
            "nested": (sum(sizes) - len(sizes), c),
            "reduced": (sum(sizes) - len(sizes), c),
            "log": (sum(bits), c + sum(2 ** b - k for b, k in zip(bits, sizes))),
        }[scheme]
        if (len(cnf.table), cnf.c) != expected:
            return (f"{scheme} image has {len(cnf.table)} variables and "
                    f"{cnf.c} clauses, expected {expected}")
        return None

    def _mu1(self, request: Request, code: int, out: str) -> Optional[str]:
        inst, lines = request.inst, out.splitlines()
        if inst.mu1 == "no":
            return None if lines[0] == "NOT-MU1" else "MU(1) claimed for a non-member"
        if lines[0] != f"MU1 {inst.mu1}":
            return f"{lines[0]!r}, expected 'MU1 {inst.mu1}'"
        if inst.mu1 == "saturated":
            sizes, clauses = tree_image(parse_tree_text(lines[1]))
            if clauses != Counter(inst.clauses) or sizes != occurring(inst):
                return "printed tree does not produce the input"
        elif len(lines) != 1:
            return "tree printed for a non-saturated member"
        return None

    def _encode(self, request: Request, code: int, out: str) -> Optional[str]:
        sizes, clauses = parse_gcls_text(out)
        if sizes != request.inst.sizes or clauses != Counter(request.inst.clauses):
            return f"encode output differs from {request.inst.name}"
        return None

    # -- oracles ------------------------------------------------------------

    def _oracle_answers(self, inst: Instance) -> Dict[str, object]:
        if id(inst) not in self._oracle:
            self._oracle[id(inst)] = self._compute_oracles(inst)
        return self._oracle[id(inst)]

    @staticmethod
    def _compute_oracles(inst: Instance) -> Dict[str, object]:
        counts = Counter(inst.clauses)
        subsets = math.prod(m + 1 for m in counts.values())
        nvars = len(occurring(inst))
        if subsets > ORACLE_SUBSETS or nvars > ORACLE_VARS:
            return {}
        oracles = _oracles()
        from gcls.core import MultiClauseSet, VariableTable
        F = MultiClauseSet(VariableTable(inst.sizes), counts)
        answers: Dict[str, object] = {
            "delta-star": oracles.brute_max_deficiency(F),
            "surplus": oracles.brute_surplus(F),
        }
        if nvars <= KERNEL_ORACLE_VARS:
            kernel = oracles.brute_matching_lean_kernel(F)
            answers["kernel"] = Counter({tuple(sorted(c)): m for c, m in kernel.items()})
        return answers
