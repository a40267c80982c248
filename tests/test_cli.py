import io
import os
import random
import subprocess
import sys
import time

import pytest

from gcls import cli, core, translate
from gcls.cli import (emit_dimacs, emit_gcls, main, parse_dimacs, parse_gcls,
                      parse_hypergraph)
from gcls.core import PartialAssignment
from gcls.encode import complete_graph, hypergraph_coloring, vdw_instance
from gcls.matching import surplus
from gcls.satdec import SatResult, lean_kernel_bounded
from gcls.translate import direct_strong, direct_weak, logarithmic, nested, reduced

import oracles


def write(tmp_path, text, name="in.gcls"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


SAT_TEXT = "p gcls 2 2\nd 1 3\n1:0 2:1 0\n1:1 0\n"
UNSAT_TEXT = "p gcls 1 2\n1:0 0\n1:1 0\n"


class TestRoundTrips:
    def test_gcls_bytes_are_parse_stable(self):
        rng = random.Random(901)
        for _ in range(100):
            F = oracles.random_instance(rng)
            text = emit_gcls(F)
            assert parse_gcls(text) == F
            assert emit_gcls(parse_gcls(text)) == text
        text = emit_gcls(vdw_instance(2, 3, 8))
        assert emit_gcls(parse_gcls(text)) == text

    @pytest.mark.parametrize("scheme", [direct_weak, direct_strong, nested,
                                        reduced, logarithmic])
    def test_dimacs_bytes_are_parse_stable(self, scheme):
        rng = random.Random(902)
        for _ in range(40):
            F = oracles.random_instance(rng, max_n=4, max_c=8)
            text = emit_dimacs(scheme(F))
            assert emit_dimacs(parse_dimacs(text)) == text


class TestExitCodes:
    def test_bad_token_reports_line_and_column(self, tmp_path, capsys):
        path = write(tmp_path, "p gcls 2 1\n1:0 x 0\n")
        code, out, err = run(capsys, "analyze", path)
        assert code == 2 and out == ""
        assert err == ("error: line 2, column 5: bad token 'x': "
                       "expected 'var:val' or '0'\n")

    def test_malformed_hypergraph_reports_line_and_column(self, tmp_path, capsys):
        path = write(tmp_path, "p hyp 3 1\n1 +2 0\n", name="in.hyp")
        code, out, err = run(capsys, "encode", "coloring", path, "2")
        assert (code, out) == (2, "")
        assert err == ("error: line 2, column 3: bad token '+2': "
                       "expected a vertex or '0'\n")

    def test_brute_cap_refuses(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("gcls.satdec.DEFAULT_BRUTE_CAP", 1)
        code, out, err = run(capsys, "solve", "--method", "brute",
                             write(tmp_path, SAT_TEXT))
        assert code == 3 and out == ""
        assert err.startswith("refused: ")

    @pytest.mark.parametrize("method", ["auto", "brute", "bounded", "fpt"])
    def test_solve_satisfiable(self, tmp_path, capsys, method):
        code, out, _ = run(capsys, "solve", "--method", method,
                           write(tmp_path, SAT_TEXT))
        assert code == 10
        status, values = out.splitlines()
        assert status == "s SATISFIABLE" and values.startswith("v")
        phi = PartialAssignment(tuple(map(int, token.split(":")))
                                for token in values.split()[1:])
        assert oracles.satisfies(phi, parse_gcls(SAT_TEXT))

    @pytest.mark.parametrize("method", ["auto", "brute", "bounded", "fpt"])
    def test_solve_unsatisfiable(self, tmp_path, capsys, method):
        code, out, _ = run(capsys, "solve", "--method", method,
                           write(tmp_path, UNSAT_TEXT))
        assert (code, out) == (20, "s UNSATISFIABLE\n")


class TestStandardInput:
    @pytest.mark.parametrize("argv, text", [
        (("analyze",), SAT_TEXT),
        (("solve",), SAT_TEXT),
        (("solve",), UNSAT_TEXT),
    ])
    def test_dash_reads_what_the_path_reads(self, tmp_path, capsys, monkeypatch,
                                            argv, text):
        by_path = run(capsys, *argv, write(tmp_path, text))
        assert by_path[1]
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(capsys, *argv, "-") == by_path


class TestEncodeThenAnalyze:
    def test_vdw_surplus_matches_library(self, tmp_path, capsys):
        path = str(tmp_path / "vdw.gcls")
        code, out, _ = run(capsys, "encode", "vdw", "2", "3", "6", "-o", path)
        assert (code, out) == (0, "")
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert "surplus 3" in out.splitlines()
        assert f"surplus {surplus(vdw_instance(2, 3, 6)).value}" in out.splitlines()


class TestAnalyzeHermitian:
    @pytest.mark.parametrize("instance, expected", [
        (lambda: hypergraph_coloring(complete_graph(8), 7), (8, 48, 48, 148)),
        (lambda: vdw_instance(2, 4, 20), (20, 20, 20, 94)),
    ], ids=["K8-7-colours", "vdW(2,4,20)"])
    def test_signature_lines(self, tmp_path, capsys, instance, expected):
        code, out, err = run(capsys, "analyze", "--hermitian",
                             write(tmp_path, emit_gcls(instance())))
        assert (code, err) == (0, "")
        n_plus, n_minus, h, hdef = expected
        assert out.splitlines()[-4:] == [f"n-plus {n_plus}", f"n-minus {n_minus}",
                                         f"h {h}", f"hdef {hdef}"]


class TestParseDiagnostics:
    @pytest.mark.parametrize("text, message", [
        ("p gcls 2 1\n1:0 1:1 0\n",
         "line 2, column 5: clashing literals on variable 1"),
        ("p gcls 2 2\n1:0 2:1 0\n  2:1   1:0 2:0 0\n",
         "line 3, column 13: clashing literals on variable 2"),
        ("p gcls 2 1\n1:0 2:1",
         "line 2, column 5: unterminated clause at end of input"),
        ("p gcls 2 1\n1:0 3:1 0\n",
         "line 2, column 5: undeclared variable 3: header allows 1..2"),
        ("p gcls 2 1\nd 1 3\n1:2 2:2 0\n",
         "line 3, column 5: value 2 out of range for variable 2 (domain size 2)"),
        ("1:0 0\np gcls 1 1\n", "line 1, column 1: missing 'p gcls' header"),
        ("p gcls 2 1\n1:0  1:0:1 0\n",
         "line 2, column 6: bad token '1:0:1': expected 'var:val' or '0'"),
        ("p gcls 2 1\n1:0 \u00b2:0 0\n",
         "line 2, column 5: bad token '\u00b2:0': expected 'var:val' or '0'"),
        # headers and declarations
        ("  d 1 2\np gcls 2 1\n1:0 0\n",
         "line 1, column 3: missing 'p gcls' header"),
        ("p gcls 2 1\n d 1\n1:0 0\n",
         "line 2, column 2: bad declaration: expected 'd <var> <size>'"),
        ("p gcls 2 1\nd x 2\n1:0 0\n",
         "line 2, column 1: bad declaration: expected 'd <var> <size>'"),
        ("p gcls 2 1\nd 1 2 3\n1:0 0\n",
         "line 2, column 1: bad declaration: expected 'd <var> <size>'"),
        ("p gcls 2 1\nd -1 2\n1:0 0\n",
         "line 2, column 1: bad declaration: expected 'd <var> <size>'"),
        ("p gcls 2 1\n  d   3 2\n1:0 0\n",
         "line 2, column 7: undeclared variable 3: header allows 1..2"),
        ("p gcls 2 1\nd 0 2\n1:0 0\n",
         "line 2, column 3: undeclared variable 0: header allows 1..2"),
        ("p gcls 2 1\nd 1  0\n1:0 0\n",
         "line 2, column 6: domain size must be at least 1"),
        ("p gcls 2 1\nd 1 3\nd  1 2\n1:0 0\n",
         "line 3, column 4: variable 1 declared twice with different sizes"),
        ("p gcls 2 1\n p gcls 2 1\n1:0 0\n", "line 2, column 2: duplicate header"),
        ("p gcls 2 x\n1:0 0\n", "line 1, column 10: bad header: 'x' is not a count"),
        ("p  gcls x 1\n1:0 0\n", "line 1, column 9: bad header: 'x' is not a count"),
        ("p gcls 2\n1:0 0\n",
         "line 1, column 1: bad header: expected 'p gcls <n> <m>'"),
        ("p gcls 2 2\n1:0 0\n", "line 1, column 1: bad header counts: "
                                "header announces 2 clauses, file has 1"),
        ("cx\np gcls 1 1\n1:0 0\n", "line 1, column 1: missing 'p gcls' header"),
        ("c only\n", "line 2, column 1: missing 'p gcls' header"),
        # a superscript two is a digit but not a decimal digit: int() rejects it
        ("p gcls 2 1\nd 1 \u00b2\n1:0 0\n",
         "line 2, column 1: bad declaration: expected 'd <var> <size>'"),
        ("p gcls \u00b2 1\n1:0 0\n",
         "line 1, column 8: bad header: '\u00b2' is not a count"),
    ])
    def test_line_and_column(self, text, message):
        # Tokens are checked once and then remembered; a remembered token
        # must still report its own position, and only decimal digits count.
        with pytest.raises(ValueError) as info:
            parse_gcls(text)
        assert str(info.value) == message

    def test_unicode_decimal_digits_are_numbers(self):
        F = parse_gcls("p gcls 2 1\n1:0 \u0661:0 0\n")
        assert emit_gcls(F) == "p gcls 1 1\nd 1 2\n1:0 0\n"

    def test_repeated_declarations_and_comments_are_accepted(self):
        F = parse_gcls("  c indented\nc\np gcls 2 1\nd 1 3\n d 1 3 \n1:2 0\n")
        assert emit_gcls(F) == "p gcls 1 1\nd 1 3\n1:2 0\n"

    @pytest.mark.parametrize("text, message", [
        ("p cnf 2 1\n1  x 0\n", "line 2, column 4: bad token 'x': expected an integer"),
        ("p cnf 2 1\n1 +2 0\n", "line 2, column 3: bad token '+2': expected an integer"),
        ("p cnf 2 1\n1 --2 0\n",
         "line 2, column 3: bad token '--2': expected an integer"),
        ("p cnf 2 1\n1 - 0\n", "line 2, column 3: bad token '-': expected an integer"),
        ("p cnf 2 1\n1 \u00b2 0\n",
         "line 2, column 3: bad token '\u00b2': expected an integer"),
        ("p cnf 2 1\n1 -3 0\n",
         "line 2, column 3: undeclared variable 3: header allows 1..2"),
        ("p cnf 2 1\n1 \u0662 -\u0661\u0660 0\n",
         "line 2, column 5: undeclared variable 10: header allows 1..2"),
        ("p cnf 2 1\n2 1  -2 0\n", "line 2, column 6: clashing literals on variable 2"),
        ("p cnf 2 1\n1 0 2\n", "line 2, column 5: unterminated clause at end of input"),
        ("p cnf 2 1\n1 0\n 2  \nc end\n",
         "line 3, column 2: unterminated clause at end of input"),
        ("c a\n p cnf 2 1\n\n 1 0 \n 2 0\n", "line 2, column 1: bad header counts: "
                                              "header announces 1 clauses, file has 2"),
        ("p cnf 2 1\nc x\n", "line 1, column 1: bad header counts: "
                             "header announces 1 clauses, file has 0"),
        ("", "line 1, column 1: missing 'p cnf' header"),
        ("c x\n", "line 2, column 1: missing 'p cnf' header"),
        ("c x\n1 0\np cnf 2 1\n", "line 2, column 1: missing 'p cnf' header"),
        ("p cnf 2 1\n  p cnf 2 1\n1 0\n", "line 2, column 3: duplicate header"),
        ("p cnf 2 -1\n1 0\n", "line 1, column 9: bad header: '-1' is not a count"),
        ("p cnf 2 1 3\n1 0\n",
         "line 1, column 1: bad header: expected 'p cnf <n> <m>'"),
        ("p gcls 2 1\n1 0\n", "line 1, column 1: bad header: expected 'p cnf <n> <m>'"),
    ])
    def test_dimacs_line_and_column(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_dimacs(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("parse, kind, token, noun, expected", [
        (parse_gcls, "gcls", "1:0", "clause", "'var:val' or '0'"),
        (parse_dimacs, "cnf", "1", "clause", "an integer"),
        (parse_hypergraph, "hyp", "1", "hyperedge", "a vertex or '0'"),
    ])
    @pytest.mark.parametrize("template, message", [
        ("{t} 0\np {kind} 2 1\n", "line 1, column 1: missing 'p {kind}' header"),
        ("p {kind} 2 1\n  p {kind} 2 1\n{t} 0\n", "line 2, column 3: duplicate header"),
        ("p {kind} 2 1\n{t} 0\n  {t}\n",
         "line 3, column 3: unterminated {noun} at end of input"),
        ("c x\np {kind} 2 2\n{t} 0\n", "line 2, column 1: bad header counts: "
                                       "header announces 2 {noun}s, file has 1"),
        ("p {kind} 2 1\n 1_0 {t} 0\n",
         "line 2, column 2: bad token '1_0': expected {expected}"),
    ])
    def test_one_fault_one_message_in_every_format(self, parse, kind, token, noun,
                                                   expected, template, message):
        # the three formats share one reader for their common syntax
        with pytest.raises(ValueError) as info:
            parse(template.format(kind=kind, t=token))
        assert str(info.value) == message.format(kind=kind, noun=noun,
                                                 expected=expected)

    @pytest.mark.parametrize("text, comments, clauses", [
        # '-0' and '00' end a clause; any Unicode decimal digits form a number
        ("p cnf 2 2\n1 -0 2 00\n", (), "1 0\n2 0\n"),
        ("p cnf 2 1\n1 \u0662 0\n", (), "1 2 0\n"),
        ("p cnf 2 1\n1 -\u0662 0\n", (), "1 -2 0\n"),
        (" c x\np cnf 2 1\nc\n1\t2 0\r\n", (" c x", "c"), "1 2 0\n"),
        ("p cnf 0 1\n0\n", (), "0\n"),
    ])
    def test_dimacs_accepted_forms(self, text, comments, clauses):
        parsed = parse_dimacs(text)
        assert parsed.comments == comments
        assert emit_dimacs(parsed).split("\n", len(comments) + 1)[-1] == clauses


class TestTranslateOrderByOccurrences:
    def test_matches_nested_with_values_by_descending_count(self, tmp_path, capsys):
        rng = random.Random(903)
        reordered = 0
        for _ in range(60):
            F = oracles.random_instance(rng, max_n=4, max_dom=4, max_c=10)
            order = {v: tuple(sorted(F.table.domain(v),
                                     key=lambda e: (-F.count((v, e)), e)))
                     for v in F.var_set()}
            reordered += any(order[v] != tuple(F.table.domain(v)) for v in order)
            code, out, err = run(capsys, "translate", "--scheme", "nested",
                                 "--order-by-occurrences",
                                 write(tmp_path, emit_gcls(F)))
            assert (code, err) == (0, "")
            assert out == emit_dimacs(nested(F, value_order=order))
        assert reordered >= 20


class TestTranslateBuildsNoBooleanObjects:
    def test_cmd_translate_prints_from_the_image_keys(self, tmp_path, capsys,
                                                     monkeypatch):
        path = write(tmp_path, emit_gcls(vdw_instance(3, 3, 8)))
        printed = []

        def emit(translation):
            printed.append(translation)
            return emit_dimacs(translation)

        builds = []

        def counted(cls):
            init = cls.__init__

            def __init__(self, *args, **kwargs):
                builds.append(cls.__name__)
                init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", __init__)

        counted(core.MultiClauseSet)
        counted(core.VariableTable)
        monkeypatch.setattr(cli, "emit_dimacs", emit)
        runs = [["--scheme", scheme] for scheme in sorted(cli._SCHEMES)]
        runs.append(["--scheme", "nested", "--order-by-occurrences"])
        for argv in runs:
            assert run(capsys, "translate", *argv, path)[0] == 0
        # the parsed input is the only clause-set and the only table
        assert builds == ["VariableTable", "MultiClauseSet"] * len(runs)
        assert len(printed) == len(runs)
        for t in printed:
            assert (t._boolean_cnf, t._gadgets, t._inverse_map) == (None,) * 3


class TestTranslatePrintsLiteralCodes:
    def test_cmd_translate_decodes_no_key(self, tmp_path, capsys, monkeypatch):
        F = vdw_instance(3, 3, 8)
        path = write(tmp_path, emit_gcls(F))
        decoded = []
        decode = translate._decode

        def counted(key):
            decoded.append(key)
            return decode(key)

        printed = []

        def emit(translation):
            printed.append(translation)
            return emit_dimacs(translation)

        monkeypatch.setattr(translate, "_decode", counted)
        monkeypatch.setattr(cli, "emit_dimacs", emit)
        runs = [["--scheme", scheme] for scheme in sorted(cli._SCHEMES)]
        runs.append(["--scheme", "nested", "--order-by-occurrences"])
        for argv in runs:
            code, out, _ = run(capsys, "translate", *argv, path)
            assert code == 0 and out == emit_dimacs(printed[-1])
        # the print path reads the codes alone: no Literal is decoded
        assert decoded == []
        orders = [None] * (len(runs) - 1) + [cli._occurrence_order(F)]
        for t, order in zip(printed, orders):
            gadgets = oracles.reference_gadgets(F, t.scheme, order)
            ref = oracles.reference_translate(F, gadgets, t.scheme)
            assert t.boolean_cnf.items() == ref.boolean_cnf.items()
            assert len(decoded) == len(t.image)
            assert t.gadgets == gadgets
            assert len(decoded) == len(t.image) + sum(
                len(g.clauses()) for g in gadgets.values())
            decoded.clear()


class TestModuleEntryPoint:
    def test_python_m_gcls_cli_runs_without_a_warning(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
            __file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))

        def python(*argv):
            return subprocess.run([sys.executable, "-W", "error", *argv],
                                  env=env, capture_output=True, text=True,
                                  timeout=60)

        done = python("-m", "gcls.cli", "--help")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("usage: gcls")
        # the package keeps exporting parse_hypergraph, without importing
        # gcls.cli until it is asked for
        done = python("-c", "import sys, gcls; "
                            "print('gcls.cli' in sys.modules); "
                            "from gcls import parse_hypergraph; "
                            "print(parse_hypergraph is gcls.cli.parse_hypergraph)")
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\nTrue\n", "")


class TestSelfCheck:
    def test_wrong_model_is_an_internal_error(self, tmp_path, capsys,
                                              monkeypatch):
        wrong = PartialAssignment({1: 1, 2: 0})  # falsifies clause 1:1
        monkeypatch.setattr(cli, "decide",
                            lambda F, method: SatResult(True, wrong))
        code, out, err = run(capsys, "solve", write(tmp_path, SAT_TEXT))
        assert code == 1 and out == ""
        assert err == ("error: internal: RuntimeError: self-check failed: "
                       "<1->1,2->0> is not a model of the input\n")

    def test_model_outside_the_domains_is_an_internal_error(
            self, tmp_path, capsys, monkeypatch):
        outside = PartialAssignment({1: 5, 2: 0})
        monkeypatch.setattr(cli, "decide",
                            lambda F, method: SatResult(True, outside))
        code, out, err = run(capsys, "solve", write(tmp_path, SAT_TEXT))
        assert code == 1 and out == ""
        assert err == ("error: internal: RuntimeError: self-check failed: "
                       "<1->5,2->0> is not a model of the input\n")

    def test_wrong_autarky_is_an_internal_error(self, tmp_path, capsys,
                                                monkeypatch):
        # 1->0 touches 1:0 2:1 without satisfying it
        monkeypatch.setattr(cli, "find_autarky",
                            lambda F: PartialAssignment({1: 0}))
        code, out, err = run(capsys, "autarky", write(tmp_path, SAT_TEXT))
        assert code == 1 and out == ""
        assert err == ("error: internal: RuntimeError: self-check failed: "
                       "<1->0> is not a non-trivial autarky of the input\n")

    def test_correct_autarky_is_printed(self, tmp_path, capsys):
        code, out, _ = run(capsys, "autarky", write(tmp_path, SAT_TEXT))
        assert code == 0 and out.startswith("AUTARKY\nv ")


class TestSolveBoundedPinned:
    def test_vdw_2_3_8_bytes(self, tmp_path, capsys):
        path = str(tmp_path / "vdw.gcls")
        assert run(capsys, "encode", "vdw", "2", "3", "8", "-o", path) == (0, "", "")
        assert run(capsys, "solve", "--method", "bounded", path) == (
            10, "s SATISFIABLE\nv 1:1 2:0 3:0 4:1 5:1 6:0 7:0 8:1\n", "")


class TestSolveFpt:
    def test_vdw_2_3_8_prints_a_model(self, tmp_path, capsys):
        F = vdw_instance(2, 3, 8)
        code, out, err = run(capsys, "solve", "--method", "fpt",
                             write(tmp_path, emit_gcls(F)))
        assert (code, err) == (10, "")
        status, values = out.splitlines()
        assert status == "s SATISFIABLE"
        phi = PartialAssignment(tuple(map(int, token.split(":")))
                                for token in values.split()[1:])
        assert oracles.satisfies(phi, F)

    def test_vdw_2_3_9_is_unsatisfiable(self, tmp_path, capsys):
        path = write(tmp_path, emit_gcls(vdw_instance(2, 3, 9)))
        assert run(capsys, "solve", "--method", "fpt", path) == (
            20, "s UNSATISFIABLE\n", "")


class TestAutarkySearchTargets:
    """Inputs on which trying every assignment on up to delta* variables ran
    from seconds to past a minute; the bounds leave room for a slow host."""

    def test_general_lean_kernel_of_vdw_2_3_9(self, tmp_path, capsys):
        F = vdw_instance(2, 3, 9)
        path = write(tmp_path, emit_gcls(F))
        start = time.perf_counter()
        result = run(capsys, "lean-kernel", "--system", "general", path)
        assert time.perf_counter() - start < 5
        assert result == (0, emit_gcls(lean_kernel_bounded(F)), "")

    def test_autarky_of_vdw_2_4_20(self, tmp_path, capsys):
        F = vdw_instance(2, 4, 20)
        path = write(tmp_path, emit_gcls(F))
        start = time.perf_counter()
        code, out, err = run(capsys, "autarky", path)
        assert time.perf_counter() - start < 5
        assert (code, err) == (0, "")
        status, values = out.splitlines()
        assert status == "AUTARKY"
        phi = PartialAssignment(tuple(map(int, token.split(":")))
                                for token in values.split()[1:])
        assert phi and oracles.brute_is_autarky(phi, F)

    def test_pigeonhole_k7_with_6_colours_is_lean(self, tmp_path, capsys):
        path = write(tmp_path, emit_gcls(hypergraph_coloring(complete_graph(7), 6)))
        start = time.perf_counter()
        assert run(capsys, "autarky", path) == (0, "LEAN\n", "")
        assert time.perf_counter() - start < 20


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call, usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestParserReuse:
    def test_second_round_repeats_the_first(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None)  # the first call builds it
        sat = write(tmp_path, SAT_TEXT)
        hyp = write(tmp_path, "p hyp 3 2\n1 2 0\n2 3 0\n", "g.hyp")
        commands = [
            ("analyze", sat),
            ("analyze", "--hermitian", sat),
            ("translate", "--scheme", "nested", "--order-by-occurrences", sat),
            ("translate", "--scheme", "log", sat),
            ("solve", "--method", "bounded", sat),
            ("solve", write(tmp_path, UNSAT_TEXT, "unsat.gcls")),
            ("autarky", sat),
            ("lean-kernel", "--system", "general", sat),
            ("mu1", sat),
            ("encode", "vdw", "2", "3", "5"),
            ("encode", "coloring", hyp, "2"),
        ]
        first = [outcome(capsys, argv) for argv in commands]
        code, out, err = outcome(capsys, ("solve", "--method", "nope", sat))
        assert (code, out) == (2, "") and "invalid choice: 'nope'" in err
        code, out, err = outcome(capsys, ("translate", "--scheme", "direct",
                                          "--order-by-occurrences", sat))
        assert (code, out) == (2, "") and err.endswith(
            "error: --order-by-occurrences only applies to --scheme nested\n")
        second = [outcome(capsys, argv) for argv in commands]
        assert second == first
        assert [code for code, _, _ in first] == [0, 0, 0, 0, 10, 20, 0, 0, 0, 0, 0]


class TestNoTraceback:
    def test_unexpected_exception_is_one_line(self, tmp_path, capsys,
                                              monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_analyze", boom)
        code, out, err = run(capsys, "analyze", write(tmp_path, SAT_TEXT))
        assert (code, out, err) == (1, "", "error: internal: RuntimeError: boom\n")

    def test_missing_file_is_an_input_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "analyze", str(tmp_path / "absent.gcls"))
        assert code == 2 and err.startswith("error: ")
