"""The rules of the line-reach audit (``tests/reach.py``), on made-up hits."""

import reach


def every_body_line():
    return {(str(path), line) for path in reach.SRC.glob("*.py")
            for line in reach.body_lines(path)}


def test_body_lines_hold_bytecode_of_a_function(tmp_path):
    source = tmp_path / "m.py"
    source.write_text('X = 1\n\n\ndef f(a):\n    """doc"""\n    b = [a\n'
                      '         for a in a]\n    return b\n\n\nclass C:\n'
                      '    y = 2\n\n    @staticmethod\n    def g():\n'
                      '        pass\n')
    # not the module's or the class's lines, a def, a decorator or a docstring
    assert reach.body_lines(source) == {6, 7, 8, 16}


def test_each_allowed_line_is_a_body_line_that_no_test_may_run():
    problems = reach.audit(every_body_line())
    assert len(problems) == len(reach.ALLOWED)
    assert all(": runs, though allowed: " in p for p in problems)


def lines_reading(file, text):
    path = reach.SRC / file
    return {(str(path), n) for n, t in enumerate(
        path.read_text(encoding="utf-8").splitlines(), 1) if t.strip() == text}


def test_a_line_never_run_is_named_with_its_text():
    text = "return input_error(str(exc), file=exc.filename)"
    ((_, line),) = lines_reading("cli.py", text)
    hits = every_body_line() - {(str(reach.SRC / "cli.py"), line)}
    for file, allowed in reach.ALLOWED:
        hits -= lines_reading(file, allowed)
    assert reach.audit(hits) == [f"cli.py:{line}: never runs: {text}"]
