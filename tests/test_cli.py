import argparse
import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ldbig import (
    assemble, build_flow_graph, check_links, is_isomorphic, loads,
    parse_compose,
)
from ldbig import cli
from ldbig.cli import main
from ldbig.report import Finding, Report
from model_reference import flow_arcs, unreachable_links

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run_cli(*args, cwd=None, launch=("-m", "ldbig"), **env):
    return subprocess.run(
        [sys.executable, *launch, *args],
        capture_output=True, text=True,
        env={"PATH": "", "LDBIG_COLOR": "never",
             "PYTHONPATH": ":".join(sys.path), **env},
        cwd=cwd)


@pytest.fixture(scope="module")
def compose_file(data_dir):
    return str(data_dir / "wordpress.yml")


def test_validate_ok(compose_file):
    out = run_cli("validate", compose_file)
    assert out.returncode == 0
    assert "ok" in out.stdout


def test_check_links_ok(compose_file):
    out = run_cli("check-links", compose_file)
    assert out.returncode == 0


def test_check_links_reports_pairs(tmp_path, wordpress_text):
    broken = tmp_path / "broken.yml"
    broken.write_text(wordpress_text.replace("networks: [front, back]",
                                             "networks: [back]"))
    out = run_cli("check-links", str(broken), "--json")
    assert out.returncode == 1
    report = json.loads(out.stdout)
    assert report["status"] == "violations"
    assert [f["payload"]["subject"] for f in report["findings"]] \
        == [["wp", "db"]]


def test_check_security_finds_the_leak(compose_file, data_dir):
    out = run_cli("check-security", compose_file,
                  "--order", str(data_dir / "order.txt"), "--json")
    assert out.returncode == 1
    (finding,) = json.loads(out.stdout)["findings"]
    assert finding["kind"] == "securityLeak"
    assert finding["payload"]["subject"] == ["back", "front"]
    assert {"kind": "container", "name": "db"} in finding["payload"]["path"]


def test_check_security_empty_order(compose_file, tmp_path):
    order = tmp_path / "empty.txt"
    order.write_text("# nothing\n")
    out = run_cli("check-security", compose_file, "--order", str(order))
    assert out.returncode == 0


@pytest.mark.parametrize("services", ["services: {}", "services:"])
def test_a_stack_without_services_has_no_findings(services, data_dir,
                                                  tmp_path, capsys):
    stack = tmp_path / "empty.yml"
    stack.write_text(f"version: '2'\n{services}\n")
    order = tmp_path / "empty.order"
    order.write_text("")
    for argv in (["validate"], ["check-links"],
                 ["check-security", "--order", str(order)],
                 ["check-sorts", "--forbidden",
                  str(data_dir / "forbidden.json")]):
        assert main([argv[0], str(stack), *argv[1:]]) == 0, argv
        assert capsys.readouterr().out == "ok: no findings\n"


def test_check_sorts(compose_file, data_dir, tmp_path):
    out = run_cli("check-sorts", compose_file,
                  "--forbidden", str(data_dir / "forbidden.json"), "--json")
    assert out.returncode == 1
    (finding,) = json.loads(out.stdout)["findings"]
    assert finding["payload"]["pattern"] == "any-container"
    assert len(finding["payload"]["occurrences"]) == 3

    only_nested = tmp_path / "nested.json"
    patterns = json.loads((data_dir / "forbidden.json").read_text())
    only_nested.write_text(json.dumps([patterns[0]]))
    out = run_cli("check-sorts", compose_file, "--forbidden", str(only_nested))
    assert out.returncode == 0


def test_non_object_pattern_entry_is_an_input_error(compose_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('[1, "x"]')
    out = run_cli("check-sorts", compose_file, "--forbidden", str(bad),
                  "--json")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    report = json.loads(out.stdout)
    assert report["status"] == "inputError"
    (finding,) = report["findings"]
    assert "patterns[0]: expected an object" in finding["message"]


def test_a_bad_pattern_name_is_an_input_error_at_its_path(compose_file,
                                                          tmp_path):
    bad = tmp_path / "pat.json"
    bad.write_text(json.dumps([{"name": "p", "bigraph": {
        "inner": [{}], "outer": [{}, {"plus": ["a b"]}]}}]))
    out = run_cli("check-sorts", compose_file, "--forbidden", str(bad))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert (f"{bad}: patterns[0].bigraph.outer[1].plus[0]: name may not "
            "contain whitespace: 'a b'") in out.stdout


@pytest.mark.parametrize("golden, option", [
    ("wordpress.check-security.json", ("--order", "order.txt")),
    ("wordpress.check-sorts.json", ("--forbidden", "forbidden.json")),
    ("wordpress-db-off-front.check-links.json", None),
])
def test_check_reports_match_golden_bytes(data_dir, tmp_path, capsys,
                                          golden, option):
    stack, command, _ = golden.split(".")
    text = (data_dir / "wordpress.yml").read_text(encoding="utf-8")
    if stack == "wordpress-db-off-front":
        text = text.replace("networks: [front, back]", "networks: [back]")
    compose = tmp_path / "stack.yml"
    compose.write_text(text)
    extra = [option[0], str(data_dir / option[1])] if option else []
    assert main([command, str(compose), "--json", *extra]) == 1
    expected = (data_dir / "golden" / golden).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


MINIMAL = "version: '2'\nservices:\n  a:\n    image: x\n"


@pytest.mark.parametrize("compose, patterns, message", [
    (None, '[{"name": "x", "bigraph": 1}]',
     "patterns[0].bigraph: expected an object"),
    (None, '[{"bigraph": {"inner": [], "outer": [], "nodes": [1]}}]',
     "patterns[0].bigraph.nodes[0]: expected an object"),
    (None, '[{"bigraph": {}}]', "patterns[0].bigraph.inner: expected a list"),
    (None, '[{"bigraph": {"inner": [{}], "outer": [{}], "links": [{"point": '
     '{"kind": "bogus"}, "link": {"kind": "edge", "id": 1}}]}}]',
     "patterns[0].bigraph.links[0].point: unknown reference kind 'bogus'"),
    (None, '[{"bigraph": {"inner": [{}], "outer": [{}], "nodes": [{"id": true}]}}]',
     "patterns[0].bigraph.nodes[0].id: expected an integer"),
    (None, '[{"anchor_at_roots": "false", "bigraph": {"inner": [{}], "outer": [{}]}}]',
     "patterns[0].anchor_at_roots: expected a boolean"),
    (MINIMAL + "networks: [a]\n", None, "networks: expected a mapping"),
    (MINIMAL + "volumes: [a]\n", None, "volumes: expected a mapping"),
    (MINIMAL + "services:\n  b:\n    image: y\n", None,
     "stack.yml:5: malformed YAML: found duplicate key 'services'"),
])
def test_malformed_documents_are_input_errors(compose_file, tmp_path, capsys,
                                              compose, patterns, message):
    if compose is not None:
        compose_file = tmp_path / "stack.yml"
        compose_file.write_text(compose)
    forbidden = tmp_path / "patterns.json"
    forbidden.write_text(patterns or "[]")
    code = main(["check-sorts", str(compose_file), "--json",
                 "--forbidden", str(forbidden)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["status"] == "inputError"
    assert report["findings"][0]["message"].endswith(message)


ILL_FORMED_PATTERN = json.dumps([{"name": "dangling", "bigraph": {
    "signature": {"controls": [{"name": "container", "plus": 0, "minus": 1}]},
    "inner": [{}], "outer": [{}, {}],
    "nodes": [{"id": 1, "control": {"name": "container", "plus": 0, "minus": 1},
               "parent": {"node": 7}}]}}])


@pytest.mark.parametrize("flag, text, message", [
    ("--order", "back front\n",
     'order file line 1: expected "HIGH > LOW", got \'back front\''),
    ("--order", "back > front\nfront > back\n",
     "network 'back' is above itself in the closure"),
    ("--order", "nosuch > front\n",
     "networks not present in the model: ['nosuch']"),
    ("--order", b"back > fr\xffont\n", "'utf-8' codec can't decode byte 0xff"),
    ("--forbidden", "{", "Expecting property name enclosed in double quotes"),
    ("--forbidden", "[" * 100_000, "pattern file is nested too deeply"),
    ("--forbidden", '{"name": "x"}', "pattern file must be a JSON list"),
    ("--forbidden", ILL_FORMED_PATTERN, "patterns[0].bigraph: not well-formed: "
     "[parent] node 1: unknown node 7; [forest] node 1: never reaches a root"),
    ("--forbidden", json.dumps([{"name": "other", "bigraph": {
        "signature": {"controls": [{"name": "x", "plus": 0, "minus": 0}]},
        "inner": [{}], "outer": [{}]}}]),
     "pattern 'other' uses a different signature"),
])
def test_input_errors_name_the_file_they_are_in(compose_file, tmp_path, capsys,
                                                flag, text, message):
    aux = tmp_path / "aux.txt"
    aux.write_bytes(text if isinstance(text, bytes) else text.encode())
    command = "check-security" if flag == "--order" else "check-sorts"
    code = main([command, compose_file, "--json", flag, str(aux)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["status"] == "inputError"
    (finding,) = report["findings"]
    assert finding["message"].startswith(f"{aux}: {message}")
    assert finding["payload"] == {"file": str(aux)}


def test_a_name_with_whitespace_gets_one_report_from_every_command(
        tmp_path, capsys):
    stack = tmp_path / "stack.yml"
    stack.write_text("services:\n  a b:\n    image: x\n")
    reports = []
    for argv in (["validate"], ["check-links"],
                 *(["export", "--format", "json", "--stage", stage]
                   for stage in ("environment", "stubs", "composite"))):
        assert main([*argv, str(stack), "--json"]) == 2
        reports.append(capsys.readouterr().out)
    assert len(set(reports)) == 1
    (finding,) = json.loads(reports[0])["findings"]
    assert finding["message"] == \
        f"{stack}: services: name may not contain whitespace: 'a b'"
    assert finding["payload"] == {"file": str(stack), "line": None}


# each stack gives one name to entities of two kinds; ``lone`` sits on its
# own network, so the order's one pair cannot leak
_LONE = "  lone: {image: z, networks: [side]}\n"


@pytest.mark.parametrize("text, high", [
    pytest.param("services:\n  db: {image: x, volumes: ['db:/data']}\n"
                 "  web: {image: y, links: [db]}\n" + _LONE
                 + "networks: {side: }\nvolumes: {db: }\n",
                 "default", id="service and volume"),
    pytest.param("services:\n  db: {image: x, networks: [db, back]}\n"
                 "  web: {image: y, networks: [back], links: [db]}\n" + _LONE
                 + "networks: {db: , back: , side: }\n",
                 "db", id="service and network"),
    pytest.param("services:\n  app: {image: x, networks: [data], "
                 "volumes: ['data:/d:ro']}\n" + _LONE
                 + "networks: {data: , side: }\nvolumes: {data: }\n",
                 "data", id="network and volume"),
    pytest.param("services:\n  web: {image: x, networks: [l_db], "
                 "links: [db]}\n  db: {image: y, networks: [l_db]}\n"
                 + _LONE + "networks: {l_db: , side: }\n",
                 "l_db", id="network and link alias"),
    pytest.param("services:\n  web: {image: x, expose: ['80'], "
                 "ports: ['8080:80'], volumes: ['p_80:/srv']}\n" + _LONE
                 + "networks: {side: }\nvolumes: {p_80: {external: true}}\n",
                 "default", id="volume and port"),
    pytest.param("services:\n  p_80: {image: x, expose: ['80']}\n"
                 "  web: {image: y, links: [p_80]}\n" + _LONE
                 + "networks: {side: }\n",
                 "default", id="service and port"),
])
def test_names_shared_across_kinds_are_accepted_by_every_command(
        text, high, data_dir, tmp_path, capsys):
    stack = tmp_path / "stack.yml"
    stack.write_text(text)
    order = tmp_path / "order.txt"
    order.write_text(f"{high} > side\n")
    forbidden = json.loads((data_dir / "forbidden.json").read_text())
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps(
        [p for p in forbidden if p["name"] == "nested-container"]))
    for argv in (["validate"], ["check-links"],
                 ["check-security", "--order", str(order)],
                 ["check-sorts", "--forbidden", str(nested)],
                 *(["export", "--format", fmt, "--stage", stage]
                   for fmt in ("json", "dot")
                   for stage in ("environment", "stubs", "composite"))):
        assert main([argv[0], str(stack), *argv[1:]]) == 0, argv
    capsys.readouterr()
    # the whole pattern file also holds any-container, one per service
    model = parse_compose(text)
    assert main(["check-sorts", str(stack), "--forbidden",
                 str(data_dir / "forbidden.json"), "--json"]) == 1
    (finding,) = json.loads(capsys.readouterr().out)["findings"]
    assert finding["payload"]["pattern"] == "any-container"
    assert len(finding["payload"]["occurrences"]) == len(model.services)
    composite = assemble(model)
    assert [v.subject for v in check_links(composite)] \
        == unreachable_links(model)
    assert build_flow_graph(composite).arcs == flow_arcs(model)


# the CLI as ``python -m ldbig`` runs it, but on PyYAML's pure-Python loader
PURE_CLI = ("import sys, yaml; yaml.__with_libyaml__ = False; "
            "from ldbig.cli import main; sys.exit(main(sys.argv[1:]))")


def test_deeply_nested_yaml_is_an_input_error(tmp_path):
    # in a child process, through libyaml's events and then the pure parser's:
    # a crash in either would not take the test run with it
    deep = tmp_path / "deep.yml"
    deep.write_text("a: " + "[" * 100_000 + "\n")
    for launch in (("-m", "ldbig"), ("-c", PURE_CLI)):
        out = run_cli("validate", str(deep), "--json", launch=launch)
        assert out.returncode == 2  # a signal would make it negative
        assert "Traceback" not in out.stderr
        (finding,) = json.loads(out.stdout)["findings"]
        assert finding["message"] == \
            f"{deep}:1: malformed YAML: nested too deeply"


def test_both_loaders_give_the_same_reports(yaml_loader, data_dir, tmp_path,
                                            capsys):
    compose = str(data_dir / "wordpress.yml")
    assert main(["check-security", compose, "--json",
                 "--order", str(data_dir / "order.txt")]) == 1
    assert capsys.readouterr().out == (
        data_dir / "golden" / "wordpress.check-security.json").read_text()
    assert main(["export", compose, "--format", "json"]) == 0
    assert capsys.readouterr().out == (
        data_dir / "golden" / "wordpress.composite.json").read_text()
    stack = tmp_path / "stack.yml"
    stack.write_text(MINIMAL + "services:\n  b:\n    image: y\n")
    assert main(["validate", str(stack)]) == 2
    assert capsys.readouterr().out == (
        f"error [inputError] {stack}:5: malformed YAML: "
        "found duplicate key 'services'\n")


# -- the cyclic collector ------------------------------------------------------

@pytest.mark.parametrize("collecting", [True, False])
def test_main_pauses_the_collector_and_gives_it_back(collecting, data_dir,
                                                     tmp_path, capsys,
                                                     monkeypatch):
    run, during, after = cli._run, [], []

    def watched(args):
        during.append(gc.isenabled())
        return run(args)

    monkeypatch.setattr(cli, "_run", watched)
    stack = tmp_path / "stack.yml"
    stack.write_text(MINIMAL + "services:\n  b:\n    image: y\n")
    for argv, code in ((["validate", str(data_dir / "wordpress.yml")], 0),
                       (["validate", str(stack)], 2)):
        (gc.enable if collecting else gc.disable)()
        try:
            assert main(argv) == code
            after.append(gc.isenabled())
        finally:
            gc.enable()
    capsys.readouterr()
    assert during == [False, False]
    assert after == [collecting, collecting]


def test_a_pass_leaves_the_same_cyclic_garbage_at_every_size(monkeypatch,
                                                             tmp_path):
    """A collector-off pass of ``check-security --json`` leaves as many
    cyclic objects on 400 services as on 100, so the pipeline makes no
    cycle per service or per node."""
    monkeypatch.syspath_prepend(str(BENCH))
    import generate

    found = []
    for n in (100, 400):
        stack = generate.monolith_stack(random.Random(1), 0, n)
        compose, order = tmp_path / f"{n}.yml", tmp_path / f"{n}.order"
        compose.write_text(generate.compose_yaml(stack))
        order.write_text(generate.order_text(stack))
        gc.disable()
        try:
            gc.collect()
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["check-security", str(compose), "--json",
                             "--order", str(order)]) == 1
            found.append(gc.collect())
        finally:
            gc.enable()
    assert found[0] == found[1]


def test_cyclic_order_error_is_the_same_under_every_hash_seed(compose_file,
                                                              tmp_path):
    order = tmp_path / "cyclic.txt"
    order.write_text("back > front\nfront > back\n")
    outputs = set()
    for seed in range(1, 9):
        out = run_cli("check-security", compose_file, "--order", str(order),
                      PYTHONHASHSEED=str(seed))
        assert out.returncode == 2
        outputs.add(out.stdout)
    assert outputs == {f"error [inputError] {order}: network 'back' is above "
                       "itself in the closure\n"}


def test_malformed_file_is_an_input_error(tmp_path):
    bad = tmp_path / "garbage.yml"
    bad.write_text("services: [not\n  :valid\n")
    out = run_cli("validate", str(bad))
    assert out.returncode == 2


def test_missing_file_is_an_input_error(tmp_path):
    out = run_cli("validate", str(tmp_path / "nope.yml"))
    assert out.returncode == 2


@pytest.mark.parametrize("argv, bad", [
    (["validate", "{missing}"], "{missing}"),
    (["validate", "{dir}"], "{dir}"),
    (["check-security", "{file}", "--order", "{missing}"], "{missing}"),
    (["export", "{file}", "--format", "json", "--output", "{dir}/no/out.json"],
     "{dir}/no/out.json"),
])
def test_a_file_the_system_cannot_open_is_named(argv, bad, compose_file,
                                                tmp_path, capsys):
    paths = {"file": compose_file, "dir": str(tmp_path),
             "missing": str(tmp_path / "missing.txt")}
    bad = bad.format(**paths)
    assert main([a.format(**paths) for a in argv] + ["--json"]) == 2
    (finding,) = json.loads(capsys.readouterr().out)["findings"]
    assert finding["payload"] == {"file": bad}
    assert finding["message"].endswith(f": {bad!r}")


def test_a_sequence_tag_on_a_mapping_is_malformed_yaml(yaml_loader, tmp_path,
                                                      capsys):
    stack = tmp_path / "stack.yml"
    stack.write_text("services: {}\na: !!seq {b: 1}\n")
    assert main(["validate", str(stack)]) == 2
    assert capsys.readouterr().out == (
        f"error [inputError] {stack}:2: malformed YAML: "
        "expected a sequence node, but found mapping\n")


class _Terminal(io.StringIO):
    def isatty(self):
        return True


def test_a_terminal_gets_colour_unless_it_is_turned_off(compose_file,
                                                       tmp_path, monkeypatch):
    missing = str(tmp_path / "nope.yml")
    for mode, argv, start in (
            ("auto", ["validate", compose_file], "\x1b[32mok\x1b[0m: no"),
            ("auto", ["validate", missing], "\x1b[31merror\x1b[0m [input"),
            ("never", ["validate", compose_file], "ok: no")):
        monkeypatch.setenv("LDBIG_COLOR", mode)
        monkeypatch.setattr(sys, "stdout", _Terminal())
        main(argv)
        assert sys.stdout.getvalue().startswith(start), (mode, argv)


def test_a_report_has_findings_unless_it_is_ok():
    finding = Finding("inputError", "error", "x")
    with pytest.raises(ValueError, match="an ok report carries no findings"):
        Report("ok", (finding,))
    with pytest.raises(ValueError, match="a violations report needs findings"):
        Report("violations")
    assert Report("violations", [finding]).findings == (finding,)


def test_dangling_reference_is_an_input_error(tmp_path, wordpress_text):
    bad = tmp_path / "dangling.yml"
    bad.write_text(wordpress_text.replace("links: [db]", "links: [ghost]"))
    out = run_cli("check-links", str(bad), "--json")
    assert out.returncode == 2
    report = json.loads(out.stdout)
    assert report["status"] == "inputError"
    assert "ghost" in report["findings"][0]["message"]


def test_unknown_network_in_order_is_an_input_error(compose_file, tmp_path):
    order = tmp_path / "order.txt"
    order.write_text("nosuch > front\n")
    out = run_cli("check-security", compose_file, "--order", str(order))
    assert out.returncode == 2
    assert "nosuch" in out.stdout


def test_bad_order_line_is_an_input_error(compose_file, tmp_path):
    order = tmp_path / "order.txt"
    order.write_text("back front\n")
    out = run_cli("check-security", compose_file, "--order", str(order))
    assert out.returncode == 2


@pytest.mark.parametrize("reader_gone", [True, False])
@pytest.mark.parametrize("command, code", [
    (["check-security", "{file}", "--order", "{order}", "--json"], 1),
    (["export", "{file}", "--format", "json"], 0),
])
def test_a_closed_stdout_ends_without_a_traceback(compose_file, data_dir,
                                                  command, code, reader_gone):
    # a pipe whose reader has left before anything is written, as
    # `| head -c 1` may leave it, or no stdout at all (`>&-`)
    read, write = os.pipe()
    os.close(read)
    argv = [a.format(file=compose_file, order=data_dir / "order.txt")
            for a in command]
    try:
        out = subprocess.run(
            [sys.executable, "-m", "ldbig", *argv], stdout=write,
            stderr=subprocess.PIPE, text=True,
            preexec_fn=None if reader_gone else lambda: os.close(1),
            env={"PATH": "", "PYTHONPATH": ":".join(sys.path)})
    finally:
        os.close(write)
    assert out.stderr == ""
    assert out.returncode == code


def test_a_programming_error_is_not_an_input_error(compose_file, monkeypatch):
    def planted(composite):
        raise KeyError("planted")

    monkeypatch.setattr(cli, "check_links", planted)
    with pytest.raises(KeyError, match="planted"):
        main(["check-links", compose_file])


def test_export_json_reimports_isomorphic(compose_file, wordpress_text):
    out = run_cli("export", compose_file, "--format", "json")
    assert out.returncode == 0
    exported = loads(out.stdout)
    original = assemble(parse_compose(wordpress_text))
    assert is_isomorphic(exported, original)


def test_export_stages_and_dot(compose_file, tmp_path):
    for stage in ("environment", "stubs", "composite"):
        out = run_cli("export", compose_file, "--format", "dot",
                      "--stage", stage)
        assert out.returncode == 0
        assert out.stdout.startswith(f'digraph "{stage}"')
    target = tmp_path / "env.json"
    out = run_cli("export", compose_file, "--format", "json",
                  "--stage", "environment", "--output", str(target))
    assert out.returncode == 0
    assert loads(target.read_text()).inner.width == 3


def test_version_flag():
    out = run_cli("--version")
    assert out.returncode == 0


# -- one parser per process ------------------------------------------------


@pytest.fixture
def fresh_parser(monkeypatch):
    """A process state in which ``main`` has built no parser yet; yields
    the list of every ``ArgumentParser`` constructed from then on."""
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("LDBIG_COLOR", "never")
    cli._parser.cache_clear()
    yield built
    cli._parser.cache_clear()


def _answer(argv, capsys):
    """Exit code, stdout and stderr of ``main(argv)`` in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _fresh_answer(argv):
    """The same, as the first call of a fresh process."""
    out = run_cli(*argv, COLUMNS="80")
    return out.returncode, out.stdout, out.stderr


def _every_command(compose_file, data_dir):
    return [["validate", compose_file, "--json"],
            ["check-links", compose_file],
            ["check-security", compose_file, "--json",
             "--order", str(data_dir / "order.txt")],
            ["check-sorts", compose_file,
             "--forbidden", str(data_dir / "forbidden.json")],
            ["export", compose_file, "--format", "dot"],
            ["export", compose_file, "--format", "json", "--stage", "stubs"]]


def test_main_builds_its_parser_on_the_first_call_only(fresh_parser,
                                                       compose_file, data_dir,
                                                       capsys):
    commands = _every_command(compose_file, data_dir)
    first = [_answer(argv, capsys) for argv in commands]
    assert len(fresh_parser) == 6  # ldbig and its five subcommands
    fresh_parser.clear()
    for _ in range(3):
        assert [_answer(argv, capsys) for argv in commands] == first
    assert fresh_parser == []
    assert [code for code, _, _ in first] == [0, 0, 1, 1, 0, 0]


def test_build_parser_still_returns_a_parser_of_its_own(fresh_parser):
    assert cli.build_parser() is not cli.build_parser()
    changed = cli.build_parser()
    changed.set_defaults(func=None)
    assert cli._parser() is not changed
    assert cli._parser().parse_args(["validate", "x"]).func is cli._cmd_validate


def test_exits_inside_argparse_leave_the_next_answer_unchanged(
        fresh_parser, compose_file, data_dir, capsys):
    order = str(data_dir / "order.txt")
    answer = ["check-security", compose_file, "--json", "--order", order]
    between = [["check-security", compose_file],  # --order is required
               ["--version"], ["--help"], ["check-security", "--help"]]
    assert _answer(answer, capsys) == _fresh_answer(answer)
    for argv in between:
        code, out, err = _answer(argv, capsys)
        assert (code, out, err) == _fresh_answer(argv), argv
        assert _answer(answer, capsys) == _fresh_answer(answer), argv
    usage = _answer(between[0], capsys)
    assert usage[0] == 2 and "the following arguments are required: " \
        "--order" in usage[2]
    assert len(fresh_parser) == 6


def test_help_is_wrapped_to_the_width_when_it_is_printed(
        fresh_parser, compose_file, capsys, monkeypatch):
    assert _answer(["validate", compose_file], capsys)[0] == 0
    texts = {}
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        code, texts[columns], _ = _answer(["check-security", "--help"],
                                          capsys)
        assert code == 0
        assert texts[columns] == run_cli("check-security", "--help",
                                         COLUMNS=columns).stdout
    assert max(map(len, texts["40"].splitlines())) <= 40
    assert max(map(len, texts["200"].splitlines())) > 40
    assert len(fresh_parser) == 6
