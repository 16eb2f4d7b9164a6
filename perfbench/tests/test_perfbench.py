"""Self-tests of the benchmark: inputs repeat byte for byte, the reference
reproduces the known answers on the repository's example stack, and the
correctness gate catches a wrong verdict.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import contextlib
import copy
import dataclasses
import io
import json
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import ldbig
import ldbig.cli
import run
import workloads
from generate import Service, Stack, compose_yaml, order_text, patterns_json
from reference import Expected, flow_arcs, leak_pairs, link_violations, \
    verdict_error
from tracer import Tracer

REPO = Path(__file__).resolve().parents[2]

# tests/data/wordpress.yml as a generator description
WORDPRESS = Stack(
    "wordpress",
    {"wp": Service("wp", ["front"], links=[("db", "db")], ports=[("8080", "80")],
                   mounts=[("datavolume", "/var/www/data", True)]),
     "db": Service("db", ["front", "back"], expose=["3306"]),
     "pma": Service("pma", ["back"], links=[("db", "mysql")],
                    ports=[("8181", "80")],
                    mounts=[("datavolume", "/data", False)])},
    networks=["front", "back"], volumes={"datavolume": True},
    order=[("back", "front")])


def _db_on_back_only(stack):
    moved = copy.deepcopy(stack)
    moved.services["db"].networks = ["back"]
    return moved


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ldbig.cli.main(argv)
    return code, out.getvalue()


def _files(directory):
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_byte_identical_inputs(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "ISO_STACKS", 10)
    first = workloads.build(workload, 7, tmp_path / "a", ldbig)
    again = workloads.build(workload, 7, tmp_path / "b", ldbig)
    other = workloads.build(workload, 8, tmp_path / "c", ldbig)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert [v.key for v in first] == [v.key for v in again]
    assert [v.expected for v in first] == [v.expected for v in again]
    assert first and other


def test_wordpress_description_matches_the_repository_file():
    def without_images(model):
        return dataclasses.replace(model, services={
            n: dataclasses.replace(s, image="") for n, s in model.services.items()})

    mine = ldbig.parse_compose(compose_yaml(WORDPRESS))
    repo = ldbig.parse_compose(
        (REPO / "tests" / "data" / "wordpress.yml").read_text(encoding="utf-8"))
    assert without_images(mine) == without_images(repo)


def test_reference_reproduces_the_wordpress_answers():
    assert link_violations(WORDPRESS) == set()
    assert leak_pairs(WORDPRESS) == {("back", "front")}
    # the shortest channel runs through db (a longer one runs through pma,
    # the shared volume and wp)
    arcs = flow_arcs(WORDPRESS)
    two_steps = {mid for mid in arcs[("network", "back")]
                 if ("network", "front") in arcs[mid]}
    assert two_steps == {("container", "db")}
    assert link_violations(_db_on_back_only(WORDPRESS)) == {("wp", "db")}


@pytest.mark.parametrize("stack", [WORDPRESS, _db_on_back_only(WORDPRESS)],
                         ids=["wordpress", "db-on-back"])
def test_ldbig_agrees_with_the_reference_on_wordpress(stack, tmp_path):
    compose, order, patterns = (tmp_path / "s.yml", tmp_path / "s.order",
                                tmp_path / "p.json")
    compose.write_text(compose_yaml(stack), encoding="utf-8")
    order.write_text(order_text(stack), encoding="utf-8")
    patterns.write_text(patterns_json(workloads.LATTICE_PATTERNS),
                        encoding="utf-8")
    files = {"compose": str(compose), "order": str(order),
             "patterns": str(patterns)}
    exp = Expected.of(stack, [p["name"] for p in workloads.LATTICE_PATTERNS])
    for command, argv in workloads.COMMANDS.items():
        code, text = _cli([a.format(**files) for a in argv])
        assert verdict_error(command, exp, code, text, ldbig) is None, command


def test_a_wrong_verdict_is_caught(tmp_path):
    compose = tmp_path / "s.yml"
    compose.write_text(compose_yaml(_db_on_back_only(WORDPRESS)), encoding="utf-8")
    code, text = _cli(["check-links", str(compose), "--json"])
    assert code == 1
    # the right answer for another stack is a wrong answer for this one
    assert verdict_error("check-links", Expected.of(WORDPRESS), code, text, ldbig)
    tampered = text.replace('"wp"', '"pma"')
    assert verdict_error("check-links", Expected.of(_db_on_back_only(WORDPRESS)),
                         code, tampered, ldbig)


def test_a_run_with_a_broken_check_fails_and_saves_its_inputs(
        tmp_path, monkeypatch, capsys):
    seed = 3
    stacks_with_findings = [
        v for v in workloads.build("fleet-small", seed, tmp_path / "probe", ldbig)
        if v.command == "check-links" and not v.expected.rejected
        and v.expected.links]
    assert stacks_with_findings, "the seed must plant an unreachable link"
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(ldbig.cli, "check_links", lambda composite: [])
    code = run.main(["--workload", "fleet-small", "--seed", str(seed),
                     "--seconds", "0.5"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    saved = list((tmp_path / "out" / "failures").rglob("replay.txt"))
    assert saved and all("check-links" in p.read_text() for p in saved)


def test_the_loop_counts_each_sample_of_a_wrong_verdict(tmp_path):
    compose = tmp_path / "s.yml"
    compose.write_text(compose_yaml(WORDPRESS), encoding="utf-8")
    built = ldbig.assemble(ldbig.parse_compose(compose.read_text(encoding="utf-8")))
    # the last verdict's reference is wrong on purpose
    verdicts = [workloads.Verdict(f"wordpress/{i}", "iso", 6, i < 2,
                                  pair=(built, built)) for i in range(3)]
    loop = run.closed_loop(ldbig, verdicts, 2.0, 0.2)
    assert len(loop.times) >= 3
    assert [list(seen) for seen in loop.outcomes] == [[True]] * 3
    assert sum(sum(seen.values()) for seen in loop.outcomes) == len(loop.times)
    assert loop.services(verdicts) == 6 * len(loop.times)
    # every sample is paired with a yardstick timed after it
    assert len(loop.paired) == len(loop.times)
    assert list(loop.paired) == sorted(loop.paired)
    assert loop.paired[-1] == len(loop.yardsticks) - 1
    failures = run.check(ldbig, verdicts, loop)
    assert list(failures) == [2]
    assert failures[2][1] == loop.outcomes[2][True]


def test_each_verdict_is_timed_by_its_best_repetition():
    # three verdicts, two and a third passes: sample k ran verdict k % 3
    loop = run.Loop(array("d", [5, 1, 9, 2, 4, 8, 3, 7]),
                    [{}, {}, {}], 0.0)
    assert run.verdict_times(loop) == [2, 1, 8]
    partial = run.Loop(array("d", [5, 1]), [{}, {}, {}], 0.0)
    assert run.verdict_times(partial) == [5, 1]


def test_a_verdict_costs_the_median_of_its_times_over_their_yardsticks():
    # two verdicts, three passes; each sample is measured against the mean
    # of the yardsticks timed before and after it (only after, for the first)
    loop = run.Loop(array("d", [2, 4, 6, 3, 8, 4]), [{}, {}], 0.0,
                    yardsticks=array("d", [1, 3, 1]),
                    paired=array("I", [0, 0, 1, 1, 2, 2]))
    assert run.verdict_costs(loop) == [3, 2]


def test_result_line_names_every_metric_in_benchmark_json(capsys):
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == run.REPORTED
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    for f in Path(run.__file__).parent.glob("*.py"):
        bench.mkdir(exist_ok=True)
        (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_is_span_time_minus_children():
    tracer = Tracer()
    tracer.spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0),
                    ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    layers = tracer.layers()
    assert layers["a"] == {"s": 10.0, "self_s": 6.0, "calls": 1}
    assert layers["b"] == {"s": 4.0, "self_s": 3.0, "calls": 2}
    assert sum(row["self_s"] for row in layers.values()) == 10.0


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    import ldbig.algebra
    import ldbig.composefile

    original = ldbig.algebra.tensor
    compose = tmp_path / "s.yml"
    compose.write_text(compose_yaml(WORDPRESS), encoding="utf-8")
    tracer = Tracer()
    tracer.install()
    try:
        assert ldbig.composefile.tensor is ldbig.algebra.tensor is ldbig.tensor
        assert ldbig.algebra.tensor is not original
        _cli(["validate", str(compose)])
    finally:
        tracer.uninstall()
    assert ldbig.composefile.tensor is original and ldbig.tensor is original
    layers = tracer.layers()
    assert layers["algebra.tensor"]["calls"] == 2
    assert layers["cli.main"]["calls"] == 1
    assert tracer.counts["interfaces.check_name"] > 0
    parents = {tracer.spans[p][0] for name, _, _, p in tracer.spans
               if name == "algebra.tensor"}
    assert parents == {"composefile.assemble"}
