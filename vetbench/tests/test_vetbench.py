"""Tests of the benchmark itself: generator determinism, a small checked
pass per workload, and the tracer's counts and clean removal."""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from vetbench import check, run, tracer
from vetbench.generate import WORKLOADS, generate

SRC = run.ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def _small(name):
    spec = WORKLOADS[name]
    return replace(spec, libs=3, classes=2, methods=3, stmts=4, fanout=2, tests=2,
                   loop=(2, 3), noise=min(spec.noise, 6), drift_stmts=min(spec.drift_stmts, 4))


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(tmp_path, name):
    first = generate(tmp_path / "a", name, 3)
    generate(tmp_path / "b", name, 3)
    generate(tmp_path / "c", name, 4)
    files = _files(tmp_path / "a")
    assert files == _files(tmp_path / "b")
    assert files != _files(tmp_path / "c")
    assert json.loads(files["answers.json"]) == json.loads(json.dumps(first))


@pytest.fixture(scope="module")
def small_pass(tmp_path_factory):
    """(bench, timings) of one small checked pass of a workload, run once."""
    done = {}

    def get(name, traced=False):
        if name not in done:
            bench = run.Bench(name, 5, tmp_path_factory.mktemp(name), _small(name))
            bench.setup(0)
            done[name] = bench, bench.run_pass(traced=traced)
        return done[name]
    return get


@pytest.mark.parametrize("name", ["corpus", "kb-drift"])
def test_small_pass_matches_known_answers(small_pass, name):
    bench, times = small_pass(name)
    assert (bench.failed, bench.wrong) == (0, 0)
    assert bench.checked > 20
    assert set(run.STEP_METRICS.values()) < set(times)


def test_traced_small_pass_counts_match_known_answers(small_pass):
    bench, times = small_pass("trace-heavy", traced=True)
    assert (bench.failed, bench.wrong) == (0, 0)
    values, per_command = run.layer_values(times)
    events = bench.answers["trace_events"]
    assert values["interp.tests"] == len(events)
    assert values["interp.events"] == sum(events.values())
    assert values["kb.records_matched"] == len(bench.answers["verdicts"])
    assert values["ted.calls"] == 2 * bench.answers["spec"]["drifted"]
    assert len(per_command) == len(bench.answers["steps"])
    assert set(run.PER_LAYER) - {"cli.startup_s", "tracer.pipeline_s",
                                 "tracer.overhead_share"} == set(values)


def test_checks_count_wrong_answers_and_failed_ops(small_pass):
    bench, _ = small_pass("corpus")
    answers = json.loads(json.dumps(bench.answers))
    checked, wrong, errors = check.wrong_answers(answers, bench.root, [])
    assert (wrong, errors) == ([], [])
    answers["verdicts"]["VULN-N|l2|1.0"] = "FIXED"
    answers["planted"]["l2.VulnS.run(int)"]["static"] = False
    checked_again, wrong, errors = check.wrong_answers(answers, bench.root, [])
    assert checked_again == checked
    assert len(wrong) == 3  # findings.json, report.json, reach-static.json
    (bench.root / "ws" / ".vet" / "report.json").unlink()
    assert len(check.wrong_answers(answers, bench.root, [])[2]) == 1
    step = {"argv": ["scan"], "exit": 1}
    assert check.failed_ops([step], [{"code": 1, "stderr": ""}]) == []
    assert len(check.failed_ops([step], [{"code": 3, "stderr": ""}])) == 1
    assert len(check.failed_ops([step], [{"code": 1, "stderr": "Traceback (most"}])) == 1


def test_tracer_restores_every_original(tmp_path, monkeypatch):
    from vulnvet import bom, cli, diffing, interp, kb
    answers = generate(tmp_path, "kb-drift", 5, _small("kb-drift"))
    monkeypatch.chdir(tmp_path / "ws")
    before = (bom.parse_unit, diffing.tree_edit_distance, interp.normalize,
              cli.build_bom, kb.KnowledgeBase.records)
    t = tracer.Tracer()
    with t:
        assert bom.parse_unit is not before[0]
        assert len(tracer.wrapped_sites()) >= len(tracer.TARGETS)
        for argv in answers["setup"] + [s["argv"] for s in answers["steps"]]:
            cli.main(argv)
    assert tracer.wrapped_sites() == []
    assert (bom.parse_unit, diffing.tree_edit_distance, interp.normalize,
            cli.build_bom, kb.KnowledgeBase.records) == before
    layers = {s[0] for s in t.spans}
    assert {"jx.parse", "bom.build", "kb.load", "kb.import", "detection.detect", "ted",
            "interp.run", "traces.merge", "callgraph.build", "combined.reach",
            "metrics.recommend", "report.html"} <= layers
    assert t.counts["ted.calls"] == 2 * answers["spec"]["drifted"]
