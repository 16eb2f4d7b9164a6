"""The four workloads: their inputs on disk and the verdicts to run on them.

A verdict is one CLI subcommand on one generated stack, or one
``is_isomorphic`` call on a pair of assembled stacks.  Each verdict carries
the reference it is checked against.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import generate as gen
from reference import Expected

# Per-stack CLI verdicts; {compose}, {order} and {patterns} name the stack's files.
COMMANDS = {
    "validate": ["validate", "{compose}", "--json"],
    "check-links": ["check-links", "{compose}", "--json"],
    "check-security": ["check-security", "{compose}", "--json",
                       "--order", "{order}"],
    "check-sorts": ["check-sorts", "{compose}", "--json",
                    "--forbidden", "{patterns}"],
    "export-json": ["export", "{compose}", "--format", "json"],
    "export-dot": ["export", "{compose}", "--format", "dot"],
}
ALL_COMMANDS = tuple(COMMANDS)

FLEET_STACKS = 40
MONOLITH_SIZES = (140, 170, 200, 230, 260, 290)
LATTICE_SIZES, LATTICE_GROUPS, LATTICE_PER_GROUP = (72, 84, 96, 108, 120, 132) * 2, 5, 6
ISO_STACKS, ISO_PERMUTATIONS, RING_EVERY = 200, 3, 5

REPO_PATTERNS = [gen.NESTED_CONTAINER, gen.ANY_CONTAINER]
LATTICE_PATTERNS = REPO_PATTERNS + [gen.NETWORK_AND_VOLUME, gen.TWIN_NETWORKS]


@dataclass
class Verdict:
    key: str                  # "<stack>/<command>", names the saved input
    command: str              # a key of COMMANDS, or "iso"
    services: int             # services in the inputs the verdict reads
    expected: object          # reference.Expected, or the iso truth value
    files: tuple[Path, ...] = ()
    argv: list[str] | None = None
    pair: tuple | None = None  # the two bigraphs of an iso verdict


def _write_stack(stack: gen.Stack, patterns, directory: Path) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    files = {"compose": directory / f"{stack.name}.yml",
             "order": directory / f"{stack.name}.order",
             "patterns": directory / "patterns.json"}
    files["compose"].write_text(gen.compose_yaml(stack), encoding="utf-8")
    files["order"].write_text(gen.order_text(stack), encoding="utf-8")
    files["patterns"].write_text(gen.patterns_json(patterns), encoding="utf-8")
    return files


def _cli_verdicts(stacks, patterns, commands, directory: Path) -> list[Verdict]:
    """Every command on every stack, in a Latin-square order: round ``r``
    runs command ``(i + r) mod k`` on stack ``i``, so any stretch of the list
    mixes stack sizes and commands and a run cut short is not lopsided."""
    names = [p["name"] for p in patterns]
    per_stack = []
    for stack in stacks:
        files = _write_stack(stack, patterns, directory)
        exp = Expected.of(stack, names)
        per_stack.append([
            Verdict(f"{stack.name}/{cmd}", cmd, len(stack.services), exp,
                    tuple(files.values()),
                    argv=[a.format(**{k: str(p) for k, p in files.items()})
                          for a in COMMANDS[cmd]])
            for cmd in commands])
    k = len(commands)
    return [per_stack[i][(i + r) % k]
            for r in range(k) for i in range(len(per_stack))]


def _iso_verdicts(rng: random.Random, directory: Path, ldbig) -> list[Verdict]:
    """Each stack against service-permuted copies (true) and a copy with one
    link retargeted (false); every pair of copies is one verdict."""
    out = []
    index = 0
    while index < ISO_STACKS:
        if index % RING_EVERY == RING_EVERY - 1:
            stack = gen.peer_ring(rng, index, 5, 1)
        else:
            stack = gen.iso_stack(rng, index, 4 + index % 2)
        wrong = gen.retargeted(rng, stack)
        if wrong is None:  # no link move changes the in-degrees: draw again
            continue
        index += 1
        same = [stack] + [gen.permuted(rng, stack) for _ in range(ISO_PERMUTATIONS)]
        built = {}
        for s in same + [wrong]:
            path = directory / f"{s.name}-{len(built)}.yml"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(gen.compose_yaml(s), encoding="utf-8")
            built[path] = ldbig.assemble(
                ldbig.parse_compose(path.read_text(encoding="utf-8")))
        paths = list(built)
        n = 2 * len(stack.services)
        for a, b in itertools.combinations(paths[:-1], 2):
            out.append(Verdict(f"{stack.name}/{a.stem}~{b.stem}", "iso", n, True,
                               (a, b), pair=(built[a], built[b])))
        for a in paths[:-1]:
            out.append(Verdict(f"{stack.name}/{a.stem}~{paths[-1].stem}", "iso",
                               n, False, (a, paths[-1]),
                               pair=(built[a], built[paths[-1]])))
    return out


def build(workload: str, seed: int, directory: Path, ldbig) -> list[Verdict]:
    """Write the workload's inputs under ``directory`` and list its verdicts."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fleet-small":
        stacks = [gen.fleet_stack(rng, i) for i in range(FLEET_STACKS)]
        return _cli_verdicts(stacks, REPO_PATTERNS, ALL_COMMANDS, directory)
    if workload == "monolith-large":
        stacks = [gen.monolith_stack(rng, i, n)
                  for i, n in enumerate(MONOLITH_SIZES)]
        return _cli_verdicts(stacks, REPO_PATTERNS, ALL_COMMANDS, directory)
    if workload == "lattice-deep":
        stacks = [gen.lattice_stack(rng, i, n, LATTICE_GROUPS, LATTICE_PER_GROUP)
                  for i, n in enumerate(LATTICE_SIZES)]
        return _cli_verdicts(stacks, LATTICE_PATTERNS,
                             ("check-security", "check-sorts", "check-links"),
                             directory)
    if workload == "equivalence":
        return _iso_verdicts(rng, directory, ldbig)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("fleet-small", "monolith-large", "lattice-deep", "equivalence")
