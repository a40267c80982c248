"""File formats and the ``gcls`` command-line front end.

Three text formats share one syntax, read by one reader (``_lines`` and
``_clauses``): ``c`` comment lines, a ``p <kind> <n> <m>`` header, then m
lists of tokens, each terminated by a ``0`` token and free to span lines.
``p gcls`` carries a generalised clause-set: ``d <var> <size>`` domain
declarations (undeclared variables have domain size 2) and clauses of
``var:val`` tokens, a repeated clause raising its multiplicity.  ``p cnf``
(DIMACS) carries the boolean image of a translation, with the variable
correspondence in ``c gclsmap`` / ``c gclsnest`` comment lines.  ``p hyp``
carries a hypergraph on the vertices 1..n.  The gcls and DIMACS emitters are
parse-stable: emitting, parsing and emitting again reproduces the bytes.

The command surface (``analyze``, ``translate``, ``solve``, ``autarky``,
``lean-kernel``, ``mu1``, ``encode``) is thin plumbing over the library.
Exit codes: 0 success, 1 internal error (one ``error: internal:`` line on
stderr, never a traceback), 2 usage or input-format error, 3 refusal such as
an exceeded brute-force cap, and for ``solve`` 10 satisfiable / 20
unsatisfiable.  Every model and autarky is checked against the parsed input
before it is printed; a failed check is an internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import (
    Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
    Union,
)

from .core import (
    Literal,
    MultiClauseSet,
    PartialAssignment,
    VariableTable,
    _clause,
    _literal,
    _Trusted,
)
from .encode import Hypergraph, hypergraph_coloring, vdw_instance
from .matching import IncidenceGraph, matching_lean_kernel
from .musat import _classify_member, format_tree, recognize_mu1
from .satdec import (
    BruteForceCapExceeded,
    decide,
    find_autarky,
    is_autarky,
    lean_kernel,
)
from .structure import classify_hitting, conflict_inertia
from .translate import (
    Key,
    TranslationResult,
    direct_strong,
    direct_weak,
    logarithmic,
    nested,
    reduced,
    _DIRECT_SCHEMES,
)

__all__ = [
    "DimacsFile",
    "emit_dimacs",
    "emit_gcls",
    "main",
    "parse_dimacs",
    "parse_gcls",
    "parse_hypergraph",
]


# -- the shared reader ----------------------------------------------------------


def _fail(line: int, column: int, message: str) -> None:
    raise ValueError(f"line {line}, column {column}: {message}")


def _tokens(raw: str) -> List[Tuple[int, str]]:
    """The (column, token) pairs of one line; columns are 1-based.  The
    tokens are those of ``raw.split()``: both split on ``str.isspace``."""
    return [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", raw)]


def _column(raw: str, index: int) -> int:
    """The 1-based column of the index-th token of a line."""
    return _tokens(raw)[index][0]


def _parse_header(raw: str, line: int, kind: str) -> Tuple[int, int]:
    tokens = _tokens(raw)
    if len(tokens) != 4 or tokens[0][1] != "p" or tokens[1][1] != kind:
        _fail(line, tokens[0][0], f"bad header: expected 'p {kind} <n> <m>'")
    for column, token in tokens[2:]:
        if not token.isdecimal():  # int() reads exactly the decimal digits
            _fail(line, column, f"bad header: {token!r} is not a count")
    return int(tokens[2][1]), int(tokens[3][1])


_Body = List[Tuple[int, str, List[str]]]  # (line, raw text, its words)


def _lines(text: str, kind: str) -> Tuple[tuple, _Body, List[str]]:
    """The header (line, kind, n, m) read off ``p <kind> <n> <m>``, the body
    lines and the comment lines (first word ``c``, kept verbatim) of a file.
    Lines are split once; a token's column is only worked out for errors."""
    lines = text.splitlines()
    header: Optional[tuple] = None
    body: _Body = []
    comments: List[str] = []
    for ln, raw in enumerate(lines, 1):
        words = raw.split()
        if not words:
            continue
        if words[0] == "c":
            comments.append(raw)
        elif words[0] == "p":
            if header is not None:
                _fail(ln, _column(raw, 0), "duplicate header")
            header = (ln, kind, *_parse_header(raw, ln, kind))
        elif header is None:
            _fail(ln, _column(raw, 0), f"missing 'p {kind}' header")
        else:
            body.append((ln, raw, words))
    if header is None:
        _fail(len(lines) + 1, 1, f"missing 'p {kind}' header")
    return header, body, comments


def _clauses(header: tuple, body: _Body,
             literal: Callable[[str], Optional[Literal]]) -> _Trusted:
    """The multiplicities of the 0-terminated token lists of the body.
    ``literal(token)`` reads a token other than ``0`` into its Literal, or
    None for another spelling of the list end, and raises ValueError on a bad
    token; it runs once per distinct token, and a repeat costs a dict lookup."""
    multiplicities = _Trusted()  # every literal is checked as it is read
    current: Dict[int, int] = {}
    literals: List[Literal] = []  # those of current
    checked: Dict[str, Literal] = {}  # literal tokens that passed every check
    for ln, raw, words in body:
        for index, token in enumerate(words):
            lit = checked.get(token)
            if lit is None:
                try:
                    lit = None if token == "0" else literal(token)
                except ValueError as exc:  # a bad token, placed at its position
                    raise ValueError(f"line {ln}, column {_column(raw, index)}: "
                                     f"{exc}") from None
                if lit is None:
                    clause = _clause(current, literals)
                    multiplicities[clause] = multiplicities.get(clause, 0) + 1
                    current, literals = {}, []
                    continue
                checked[token] = lit
            var, val = lit
            if current.setdefault(var, val) != val:
                _fail(ln, _column(raw, index), f"clashing literals on variable {var}")
            literals.append(lit)
    header_line, kind, _, announced = header
    noun = "hyperedge" if kind == "hyp" else "clause"
    if current:  # ln, raw and index still hold the last token
        _fail(ln, _column(raw, index), f"unterminated {noun} at end of input")
    count = sum(multiplicities.values())
    if count != announced:
        _fail(header_line, 1, f"bad header counts: header announces "
                              f"{announced} {noun}s, file has {count}")
    return multiplicities


# -- the gcls format ------------------------------------------------------------


def parse_gcls(text: str) -> MultiClauseSet:
    """Parse the native format into a multi-clause-set.  Variables outside
    the header range, values outside the declared domain, bad declarations
    and every fault of the shared syntax raise ValueError with the 1-based
    line and column of the offending token."""
    header, body, _ = _lines(text, "gcls")
    nvars = header[2]
    sizes: Dict[int, int] = {}
    clause_lines: _Body = []
    for ln, raw, words in body:
        if words[0] != "d":
            clause_lines.append((ln, raw, words))
            continue
        if len(words) != 3 or not (words[1].isdecimal() and words[2].isdecimal()):
            _fail(ln, _column(raw, 0), "bad declaration: expected 'd <var> <size>'")
        var, size = int(words[1]), int(words[2])
        if not 1 <= var <= nvars:
            _fail(ln, _column(raw, 1),
                  f"undeclared variable {var}: header allows 1..{nvars}")
        if size < 1:
            _fail(ln, _column(raw, 2), "domain size must be at least 1")
        if sizes.setdefault(var, size) != size:
            _fail(ln, _column(raw, 1),
                  f"variable {var} declared twice with different sizes")

    def literal(token: str) -> Literal:
        var_text, colon, val_text = token.partition(":")
        # isdecimal is exactly the \d of a str pattern (category Nd)
        if not (colon and var_text.isdecimal() and val_text.isdecimal()):
            raise ValueError(f"bad token {token!r}: expected 'var:val' or '0'")
        var, val = int(var_text), int(val_text)
        if not 1 <= var <= nvars:
            raise ValueError(f"undeclared variable {var}: header allows 1..{nvars}")
        size = sizes.setdefault(var, 2)
        if val >= size:
            raise ValueError(f"value {val} out of range for variable {var} "
                             f"(domain size {size})")
        return _literal((var, val))

    multiplicities = _clauses(header, clause_lines, literal)
    return MultiClauseSet(VariableTable(sizes), multiplicities)


def _clause_lines(pairs: Iterable[Tuple[tuple, int]],
                  names: Union[Sequence[str], Mapping[Tuple[int, int], str]]
                  ) -> List[str]:
    """One line per clause occurrence: ``pairs`` are (key, multiplicity) in
    output order, a key being a clause's literals ascending, and a literal
    prints as names[literal].  A translation's key holds literal codes
    (``translate.Key``) and names is a list indexed by code; a clause-set's
    key holds ``Literal`` pairs and names is a dict."""
    lines: List[str] = []
    name = names.__getitem__
    for key, mult in pairs:
        body = " ".join(map(name, key))
        lines.extend([f"{body} 0" if body else "0"] * mult)
    return lines


def _sorted_keys(F: MultiClauseSet) -> List[Tuple[Key, int]]:
    """The (key, multiplicity) pairs of F in canonical order; each clause's
    literals are sorted once, and that sort is also its key."""
    return sorted([(c.sort_key(), m) for c, m in F._clauses.items()])


def emit_gcls(F: MultiClauseSet) -> str:
    """Canonical text for F: header, one declaration per table variable,
    one line per clause occurrence with literals ascending by variable."""
    sizes = F.table._sizes  # ascending by variable
    lines = [f"p gcls {max(sizes, default=0)} {F.c}"]
    lines.extend([f"d {v} {size}" for v, size in sizes.items()])
    names = {(v, e): f"{v}:{e}" for v, size in sizes.items() for e in range(size)}
    lines.extend(_clause_lines(_sorted_keys(F), names))
    return "\n".join(lines) + "\n"


# -- the DIMACS format ----------------------------------------------------------


class DimacsFile(NamedTuple):
    """A boolean CNF plus its comment lines, as stored on disk."""

    comments: Tuple[str, ...]
    cnf: MultiClauseSet


def _mapping_comments(translation: TranslationResult) -> Tuple[str, ...]:
    tag = "gclsmap" if translation.scheme in _DIRECT_SCHEMES else "gclsnest"
    return tuple(f"c {tag} {b} {v} {j}"
                 for b, (v, j) in sorted(translation.var_map.items()))


def emit_dimacs(source: Union[TranslationResult, DimacsFile]) -> str:
    """DIMACS text: mapping comments, ``p cnf`` header, 0-terminated clauses.

    Literal b avoiding value 0 prints as the positive literal b, avoiding
    value 1 as -b.  A clause of multiplicity m produces m identical lines.
    A translation prints from its image keys, without building its boolean
    clause-set: code 2*b prints as b and code 2*b + 1 as -b.
    """
    names: Union[List[str], Dict[Tuple[int, int], str]]
    if isinstance(source, TranslationResult):
        comments = _mapping_comments(source)
        nvars = max(source.var_map, default=0)
        pairs = sorted(source.image.items())
        names = [text for b in range(nvars + 1) for text in (str(b), str(-b))]
    else:
        comments, cnf = source
        nvars = max(cnf.table._sizes, default=0)
        pairs = _sorted_keys(cnf)
        names = {(b, bit): str(-b if bit else b)
                 for b in cnf.table._sizes for bit in (0, 1)}
    lines = list(comments)
    lines.append(f"p cnf {nvars} {sum([m for _, m in pairs])}")
    lines.extend(_clause_lines(pairs, names))
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> DimacsFile:
    """Parse DIMACS CNF; comment lines are kept verbatim (sans newline).

    The table declares every variable 1..n from the header with domain 2,
    whether or not it occurs, so emitting the result reproduces the header.
    """
    header, body, comments = _lines(text, "cnf")
    nvars = header[2]

    def literal(token: str) -> Optional[Literal]:
        # an optional minus, then decimal digits (int() reads them all)
        if not (token[1:] if token[:1] == "-" else token).isdecimal():
            raise ValueError(f"bad token {token!r}: expected an integer")
        var = abs(int(token))  # 0 for '-0' and '00', which end a clause too
        if var > nvars:
            raise ValueError(f"undeclared variable {var}: header allows 1..{nvars}")
        return _literal((var, 1 if token[:1] == "-" else 0)) if var else None

    cnf = MultiClauseSet(VariableTable({v: 2 for v in range(1, nvars + 1)}),
                         _clauses(header, body, literal))
    return DimacsFile(tuple(comments), cnf)


# -- the hypergraph format ------------------------------------------------------


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse ``p hyp <n> <m>``: vertex v reads as the literal (v, 0), so a
    repeated vertex or edge collapses, but each of the m lists counts."""
    header, body, _ = _lines(text, "hyp")
    order = header[2]

    def vertex(token: str) -> Optional[Literal]:
        if not token.isdecimal():
            raise ValueError(f"bad token {token!r}: expected a vertex or '0'")
        v = int(token)
        if v > order:
            raise ValueError(f"vertex {v} outside 1..{order}")
        return _literal((v, 0)) if v else None  # '00' ends an edge too

    edges = _clauses(header, body, vertex)
    return Hypergraph.build(order, [edge.variables for edge in edges])


# -- command implementations -----------------------------------------------------


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load(path: str) -> MultiClauseSet:
    return parse_gcls(_read(path))


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_analyze(args: argparse.Namespace) -> int:
    F = _load(args.file)
    hitting = classify_hitting(F)
    graph = IncidenceGraph(F)  # one graph for delta-star, surplus and leanness
    lines = [
        f"n {F.n}",
        f"c {F.c}",
        f"ell {F.ell}",
        f"rd {F.rd}",
        f"delta {F.delta}",
        f"delta-star {len(graph.adj) - graph.size}",
        f"surplus {graph.surplus().value}",
        f"matching-lean {_yesno(len(graph.lean) == len(graph.adj))}",
        f"hitting {_yesno(hitting.hitting)}",
        f"hitting-degree {hitting.hitting_degree or 0}",
        f"regular {'no' if hitting.regular is None else hitting.regular}",
        f"multihitting {_yesno(hitting.multihitting)}",
        f"multipartition-blocks "
        f"{hitting.multipartition.k if hitting.multipartition else 0}",
    ]
    if args.hermitian:
        inertia = conflict_inertia(F)
        lines.extend([
            f"n-plus {inertia.n_plus}",
            f"n-minus {inertia.n_minus}",
            f"h {inertia.h}",
            f"hdef {inertia.hdef}",
        ])
    _write(None, "\n".join(lines) + "\n")
    return 0


_SCHEMES = {
    "direct": direct_weak,
    "direct-strong": direct_strong,
    "nested": nested,
    "reduced": reduced,
    "log": logarithmic,
}


def _occurrence_order(F: MultiClauseSet) -> Dict[int, Tuple[int, ...]]:
    """Per variable, the domain ordered by descending occurrence count."""
    return {v: tuple(sorted(range(len(counts)), key=lambda e: (-counts[e], e)))
            for v, counts in F.value_count_table().items()}


def cmd_translate(args: argparse.Namespace) -> int:
    F = _load(args.file)
    if args.order_by_occurrences:
        translation = nested(F, value_order=_occurrence_order(F))
    else:
        translation = _SCHEMES[args.scheme](F)
    _write(args.output, emit_dimacs(translation))
    return 0


def _in_domains(phi: PartialAssignment, F: MultiClauseSet) -> bool:
    return all(v in F.table and 0 <= e < F.table.domain_size(v) for v, e in phi.items())


def _self_check(ok: bool, what: str) -> None:
    """A wrong answer is an internal error, never printed output."""
    if not ok:
        raise RuntimeError(f"self-check failed: {what}")


def cmd_solve(args: argparse.Namespace) -> int:
    F = _load(args.file)
    result = decide(F, method=args.method)
    if not result.satisfiable:
        _write(None, "s UNSATISFIABLE\n")
        return 20
    phi = result.witness
    _self_check(_in_domains(phi, F) and all(map(phi.satisfies_clause, F.clauses())),
                f"{phi!r} is not a model of the input")
    bindings = " ".join(f"{v}:{e}" for v, e in phi.items())
    _write(None, f"s SATISFIABLE\nv{' ' if bindings else ''}{bindings}\n")
    return 10


def cmd_autarky(args: argparse.Namespace) -> int:
    F = _load(args.file)
    phi = find_autarky(F)
    if phi is None:
        _write(None, "LEAN\n")
    else:
        _self_check(bool(phi) and _in_domains(phi, F) and is_autarky(phi, F),
                    f"{phi!r} is not a non-trivial autarky of the input")
        bindings = " ".join(f"{v}:{e}" for v, e in phi.items())
        _write(None, f"AUTARKY\nv {bindings}\n")
    return 0


def cmd_lean_kernel(args: argparse.Namespace) -> int:
    F = _load(args.file)
    kernel = (matching_lean_kernel(F) if args.system == "matching"
              else lean_kernel(F))
    _write(args.output, emit_gcls(kernel))
    return 0


def cmd_mu1(args: argparse.Namespace) -> int:
    F = _load(args.file)
    verdict = recognize_mu1(F)
    if verdict.verdict != "mu1":
        reason = f"reason {verdict.reason}\n" if verdict.reason else ""
        _write(None, "NOT-MU1\n" + reason)
        return 0
    outcome = _classify_member(F)
    text = f"MU1 {outcome.category}\n"
    if outcome.tree is not None:
        text += format_tree(outcome.tree) + "\n"
    _write(None, text)
    return 0


def cmd_encode_vdw(args: argparse.Namespace) -> int:
    _write(args.output, emit_gcls(vdw_instance(args.m, args.k, args.n)))
    return 0


def cmd_encode_coloring(args: argparse.Namespace) -> int:
    G = parse_hypergraph(_read(args.hypfile))
    _write(args.output, emit_gcls(hypergraph_coloring(G, args.k)))
    return 0


# -- argument parsing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``gcls`` parser; each sub-command sets ``handler`` to the name of
    its ``cmd_*`` function."""
    parser = argparse.ArgumentParser(
        prog="gcls",
        description="Analyze, translate, solve and generate generalised "
                    "clause-sets.")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser(
        "analyze", help="measure and classify a clause-set")
    analyze.add_argument("--hermitian", action="store_true",
                         help="also report the conflict-matrix signature")
    analyze.add_argument("file")
    analyze.set_defaults(handler="cmd_analyze")

    translate = commands.add_parser(
        "translate", help="translate to boolean CNF (DIMACS)")
    translate.add_argument("--scheme", required=True, choices=sorted(_SCHEMES))
    translate.add_argument("--order-by-occurrences", action="store_true",
                           help="nested scheme only: order each domain by "
                                "descending occurrence count")
    translate.add_argument("file")
    translate.add_argument("-o", "--output")
    translate.set_defaults(handler="cmd_translate")

    solve = commands.add_parser("solve", help="decide satisfiability")
    solve.add_argument("--method", default="auto",
                       choices=("auto", "brute", "bounded", "fpt"))
    solve.add_argument("file")
    solve.set_defaults(handler="cmd_solve")

    autarky = commands.add_parser(
        "autarky", help="find a non-trivial autarky or certify leanness")
    autarky.add_argument("file")
    autarky.set_defaults(handler="cmd_autarky")

    kernel = commands.add_parser("lean-kernel", help="compute a lean kernel")
    kernel.add_argument("--system", default="matching",
                        choices=("matching", "general"))
    kernel.add_argument("file")
    kernel.add_argument("-o", "--output")
    kernel.set_defaults(handler="cmd_lean_kernel")

    mu1 = commands.add_parser(
        "mu1", help="recognize and classify deficiency-1 minimal "
                    "unsatisfiability")
    mu1.add_argument("file")
    mu1.set_defaults(handler="cmd_mu1")

    encode = commands.add_parser("encode", help="generate an instance")
    kinds = encode.add_subparsers(dest="kind", required=True)

    vdw = kinds.add_parser("vdw", help="colour 1..N avoiding monochromatic "
                                       "K-term arithmetic progressions")
    vdw.add_argument("m", type=int, help="number of colours")
    vdw.add_argument("k", type=int, help="progression length")
    vdw.add_argument("n", type=int, help="number of integers")
    vdw.add_argument("-o", "--output")
    vdw.set_defaults(handler="cmd_encode_vdw")

    coloring = kinds.add_parser(
        "coloring", help="proper K-colouring of a hypergraph")
    coloring.add_argument("hypfile")
    coloring.add_argument("k", type=int, help="number of colours")
    coloring.add_argument("-o", "--output")
    coloring.set_defaults(handler="cmd_encode_coloring")

    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command.  The parser is built on the first call and kept; it
    names each command's function, which is looked up when it runs."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    if getattr(args, "order_by_occurrences", False) and args.scheme != "nested":
        _parser.error("--order-by-occurrences only applies to --scheme nested")
    try:
        return globals()[args.handler](args)
    except BruteForceCapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
