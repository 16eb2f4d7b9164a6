import json
import subprocess
import sys

import pytest

from ldbig import assemble, is_isomorphic, loads, parse_compose
from ldbig.cli import main
from ldbig.report import Report


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "ldbig", *args],
        capture_output=True, text=True,
        env={"PATH": "", "LDBIG_COLOR": "never",
             "PYTHONPATH": ":".join(sys.path)},
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
    report = Report.from_json(json.loads(out.stdout))
    assert report.status == "violations"
    assert [f.payload["subject"] for f in report.findings] == [["wp", "db"]]


def test_check_security_finds_the_leak(compose_file, data_dir):
    out = run_cli("check-security", compose_file,
                  "--order", str(data_dir / "order.txt"), "--json")
    assert out.returncode == 1
    report = Report.from_json(json.loads(out.stdout))
    (finding,) = report.findings
    assert finding.kind == "securityLeak"
    assert finding.payload["subject"] == ["back", "front"]
    assert {"kind": "container", "name": "db"} in finding.payload["path"]


def test_check_security_empty_order(compose_file, tmp_path):
    order = tmp_path / "empty.txt"
    order.write_text("# nothing\n")
    out = run_cli("check-security", compose_file, "--order", str(order))
    assert out.returncode == 0


def test_check_sorts(compose_file, data_dir, tmp_path):
    out = run_cli("check-sorts", compose_file,
                  "--forbidden", str(data_dir / "forbidden.json"), "--json")
    assert out.returncode == 1
    report = Report.from_json(json.loads(out.stdout))
    (finding,) = report.findings
    assert finding.payload["pattern"] == "any-container"
    assert len(finding.payload["occurrences"]) == 3

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
    report = Report.from_json(json.loads(out.stdout))
    assert report.status == "inputError"
    assert "patterns[0]: expected an object" in report.findings[0].message


MINIMAL = "version: '2'\nservices:\n  a:\n    image: x\n"


@pytest.mark.parametrize("compose, patterns, message", [
    (None, '[{"name": "x", "bigraph": 1}]',
     "patterns[0].bigraph: expected an object"),
    (None, '[{"bigraph": {"inner": [], "outer": [], "nodes": [1]}}]',
     "patterns[0].bigraph.nodes[0]: expected an object"),
    (None, '[{"bigraph": {}}]', "patterns[0].bigraph.inner: expected a list"),
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
    report = Report.from_json(json.loads(capsys.readouterr().out))
    assert code == 2
    assert report.status == "inputError"
    assert report.findings[0].message.endswith(message)


def test_malformed_file_is_an_input_error(tmp_path):
    bad = tmp_path / "garbage.yml"
    bad.write_text("services: [not\n  :valid\n")
    out = run_cli("validate", str(bad))
    assert out.returncode == 2


def test_missing_file_is_an_input_error(tmp_path):
    out = run_cli("validate", str(tmp_path / "nope.yml"))
    assert out.returncode == 2


def test_dangling_reference_is_an_input_error(tmp_path, wordpress_text):
    bad = tmp_path / "dangling.yml"
    bad.write_text(wordpress_text.replace("links: [db]", "links: [ghost]"))
    out = run_cli("check-links", str(bad), "--json")
    assert out.returncode == 2
    report = Report.from_json(json.loads(out.stdout))
    assert report.status == "inputError"
    assert "ghost" in report.findings[0].message


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


def test_json_report_round_trips(compose_file, data_dir):
    out = run_cli("check-security", compose_file,
                  "--order", str(data_dir / "order.txt"), "--json")
    data = json.loads(out.stdout)
    assert Report.from_json(data).to_json() == data


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
