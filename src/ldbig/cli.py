"""Command-line frontend: a docker-compose linter over bigraph models.

Subcommands: validate, check-links, check-security, check-sorts, export.
Exit codes: 0 no findings, 1 findings, 2 input or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .analysis import check_links, check_security, parse_order_file
from .composefile import assemble, environment_bigraph, parse_compose, \
    stub_block
from .errors import ComposeSyntaxError, CyclicOrder, LdbError, \
    SignatureMismatch, UnknownNetwork
from .report import Finding, Report, input_error, ok, violations
from .serialize import dumps, json_text, patterns_from_json, to_dot
from .sorting import check_sorting


def _use_color(stream) -> bool:
    mode = os.environ.get("LDBIG_COLOR", "auto")
    if mode == "never":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _paint(text: str, code: str, stream) -> str:
    if _use_color(stream):
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _print_report(report: Report, as_json: bool):
    if as_json:
        print(json_text(report.to_json()))
        return
    if report.status == "ok":
        print(_paint("ok", "32", sys.stdout) + ": no findings")
        return
    for f in report.findings:
        tag = _paint(f.severity, "31" if f.severity == "error" else "33",
                     sys.stdout)
        print(f"{tag} [{f.kind}] {f.message}")


class _InputFileError(Exception):
    """An input error in an order or pattern file, reported against it."""

    def __init__(self, file: str, error: Exception):
        super().__init__(f"{file}: {error}")
        self.file = file


@contextmanager
def _errors_in(path: str, *kinds):
    """Report an error of these kinds raised inside against ``path``."""
    try:
        yield
    except kinds as exc:
        raise _InputFileError(path, exc) from exc


def _load_model(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_compose(text)


def _sorted_findings(items):
    return sorted(items, key=lambda f: (f.kind, f.message))


def _cmd_validate(args) -> Report:
    # assemble owns well-formedness: an ill-formed composite raises LdbError
    assemble(_load_model(args.file))
    return ok()


def _cmd_check_links(args) -> Report:
    composite = assemble(_load_model(args.file))
    return violations(_sorted_findings(
        Finding(v.kind, "warning", v.message, v.payload())
        for v in check_links(composite)))


def _cmd_check_security(args) -> Report:
    composite = assemble(_load_model(args.file))
    with _errors_in(args.order, ValueError):  # UnicodeDecodeError included
        order = parse_order_file(Path(args.order).read_text(encoding="utf-8"))
    with _errors_in(args.order, CyclicOrder, UnknownNetwork):
        leaks = check_security(composite, order)
    return violations(_sorted_findings(
        Finding(v.kind, "warning", v.message, v.payload()) for v in leaks))


def _cmd_check_sorts(args) -> Report:
    composite = assemble(_load_model(args.file))
    with _errors_in(args.forbidden, ValueError):
        patterns = patterns_from_json(
            Path(args.forbidden).read_text(encoding="utf-8"))
    with _errors_in(args.forbidden, SignatureMismatch):
        result = check_sorting(composite, patterns)
    findings = []
    for name, occurrences in result.counterexamples:
        findings.append(Finding(
            "forbiddenShape", "warning",
            f"forbidden shape {name!r} occurs {len(occurrences)} time(s)",
            {"pattern": name,
             "occurrences": [{str(k): v for k, v in o.node_map}
                             for o in occurrences]}))
    return violations(_sorted_findings(findings))


def _cmd_export(args) -> Report:
    build = {"environment": environment_bigraph, "stubs": stub_block,
             "composite": assemble}[args.stage]
    # the model and the specs it caches are freed before the text is built
    b = build(_load_model(args.file))
    text = dumps(b) if args.format == "json" else to_dot(b, title=args.stage)
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        print(text, end="")  # a no-op when stdout is closed (None)
    return ok()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldbig",
        description="Model docker-compose files as bigraphs and check them.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="docker-compose YAML file")
        p.add_argument("--json", action="store_true",
                       help="emit the report as JSON")

    p = sub.add_parser("validate", help="parse, assemble and validate")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check-links",
                       help="linked services must share a network")
    common(p)
    p.set_defaults(func=_cmd_check_links)

    p = sub.add_parser("check-security",
                       help="no information flow against the network order")
    common(p)
    p.add_argument("--order", required=True,
                   help="order file: one 'HIGH > LOW' per line")
    p.set_defaults(func=_cmd_check_security)

    p = sub.add_parser("check-sorts",
                       help="no forbidden shape occurs in the composite")
    common(p)
    p.add_argument("--forbidden", required=True,
                   help="JSON list of {name, bigraph} patterns")
    p.set_defaults(func=_cmd_check_sorts)

    p = sub.add_parser("export", help="emit a model stage as DOT or JSON")
    common(p)
    p.add_argument("--format", choices=("dot", "json"), required=True)
    p.add_argument("--stage", choices=("environment", "stubs", "composite"),
                   default="composite")
    p.add_argument("--output", "-o", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_export)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call.

    Parsing leaves the parser as it was: each call gets a fresh namespace,
    the handlers look up what they run when called, and help is wrapped to
    the terminal width at the time it is printed.
    """
    return build_parser()


def _run(args) -> Report:
    try:
        return args.func(args)
    except ComposeSyntaxError as exc:
        where = f"{args.file}:{exc.line}" if exc.line else args.file
        return input_error(f"{where}: {exc}", file=args.file, line=exc.line)
    except _InputFileError as exc:
        return input_error(str(exc), file=exc.file)
    except (LdbError, ValueError) as exc:
        return input_error(f"{args.file}: {exc}", file=args.file)
    except BrokenPipeError:
        raise  # the reader of stdout left; main handles it
    except OSError as exc:
        return input_error(str(exc), file=exc.filename)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    report = ok()  # stands for an export whose reader left mid-document
    # one pass over one file makes almost no cyclic garbage, so the cyclic
    # collector would only rescan the growing model; the caller's state
    # comes back however the pass ends
    collecting = gc.isenabled()
    gc.disable()
    try:
        report = _run(args)
        if args.command != "export" or report.status != "ok":
            # an exported document is the output
            _print_report(report, getattr(args, "json", False))
        if sys.stdout is not None:  # None when started with fd 1 closed
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``): send the rest, and the
        # flush at exit, to devnull rather than end in a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    finally:
        if collecting:
            gc.enable()
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
