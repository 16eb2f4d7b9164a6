"""The benchmark's own reference agrees with every CLI verdict on a few of
its generated stacks, so a change that would make the benchmark count
failed verdicts fails here first."""

import contextlib
import io
import random
from pathlib import Path

import ldbig
import ldbig.cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_the_benchmark_reference_accepts_every_verdict(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import generate
    import reference
    import workloads

    rng = random.Random(1)
    stacks = [generate.fleet_stack(rng, i) for i in range(10)]
    stacks.append(generate.monolith_stack(rng, 0, 40))
    assert stacks[9].rejection is not None
    verdicts = workloads._cli_verdicts(stacks, workloads.REPO_PATTERNS,
                                       workloads.ALL_COMMANDS, tmp_path)
    assert len(verdicts) == len(stacks) * len(workloads.COMMANDS)
    wrong = []
    for verdict in verdicts:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ldbig.cli.main(verdict.argv)
        reason = reference.verdict_error(verdict.command, verdict.expected,
                                         code, out.getvalue(), ldbig)
        if reason:
            wrong.append((verdict.key, reason))
    assert wrong == []
