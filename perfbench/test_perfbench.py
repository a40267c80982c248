"""Tests of the benchmark itself: metric names, the gate, tiny workloads and
the determinism of traced counts.  The program is never altered here."""

from __future__ import annotations

import json
import os
import random

import pytest

import gate
import instances as gen
import run
import workloads
from spans import Tracer

cli = workloads.import_gcls()


def tiny(mix):
    """Per command, only the instance with the fewest clauses."""
    smallest = {}
    for command, inst in mix:
        if command not in smallest or len(inst.clauses) < len(smallest[command].clauses):
            smallest[command] = inst
    return list(smallest.items())


@pytest.fixture
def tiny_mixes(monkeypatch):
    for name, make in list(workloads.MIXES.items()):
        monkeypatch.setitem(workloads.MIXES, name, lambda rng, make=make: tiny(make(rng)))


def _declared(kind):
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"] for metric in json.load(handle)[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, kind, tiny_mixes,
                                                    monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "untraced_child", lambda args: {
        "correct": True, "attempted": 1, "failed": 0,
        "metrics": {"requests_per_s": {"value": 1.0, "unit": "1/s"}}})
    code = run.main(["--workload", "convert", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _declared(kind)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_completes_at_tiny_size(workload, tiny_mixes, tmp_path):
    requests = workloads.prepare(workload, 3, str(tmp_path))
    replayed = run.replay(cli, requests, 0)
    assert run.check(cli, requests, replayed) == (0, [], [])
    assert len(replayed.latencies) == len(requests)


def _request(inst, *command, tmp_path=None):
    path = tmp_path / "f.gcls"
    path.write_text(gen.text(inst))
    return workloads.Request(command + (str(path),), inst, "test")


def test_gate_rejects_wrong_verdicts_and_models(tmp_path):
    rng = random.Random(5)
    horn = gen.horn_chain(rng, 4)
    sat = gen.minus_one_clause(rng, gen.tree_image(rng, 4, (2, 3)))
    check = gate.Gate(cli).check
    solve_horn = _request(horn, "solve", tmp_path=tmp_path)
    solve_sat = _request(sat, "solve", tmp_path=tmp_path)
    falsifying = dict(sat.clauses[0])  # falsifies the first clause
    falsifying.update((v, 0) for v in sat.sizes if v not in falsifying)
    wrong_model = "v " + " ".join(f"{v}:{e}" for v, e in sorted(falsifying.items()))
    # the true answers pass
    assert check(solve_horn, 20, "s UNSATISFIABLE\n") is None
    assert check(_request(horn, "mu1", tmp_path=tmp_path), 0, "MU1 marginal\n") is None
    # a wrong verdict, a wrong model and a refusal fail
    assert check(solve_horn, 10, "s SATISFIABLE\nv 1:0\n") is not None
    assert check(solve_sat, 20, "s UNSATISFIABLE\n") is not None
    assert check(solve_sat, 10, f"s SATISFIABLE\n{wrong_model}\n") is not None
    assert check(solve_horn, 3, "") is not None
    assert check(_request(horn, "autarky", tmp_path=tmp_path), 0,
                 "AUTARKY\nv 1:1\n") is not None
    assert check(_request(horn, "mu1", tmp_path=tmp_path), 0, "NOT-MU1\n") is not None


def test_traced_counts_repeat_exactly(tiny_mixes, tmp_path):
    requests = workloads.prepare("solve", 1, str(tmp_path))
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            run.replay(cli, requests, 0, tracer)
        finally:
            tracer.uninstall()
        counts.append({k: v for k, v in tracer.summary().items()
                       if not k.endswith("self_ms")})
    assert counts[0] == counts[1]
    assert counts[0]["core.MultiClauseSet.builds"] > 0
    assert counts[0]["matching.IncidenceGraph.builds"] > 0
    assert counts[0]["satdec.sat_fpt.calls"] > 0
