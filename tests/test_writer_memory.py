"""The CLI writes a document in bounded pieces, so what it holds while
writing tracks the model, not the text.

Each case runs ``cli.main`` in-process with stdout a sink that discards
what it is given, and traces allocations with ``tracemalloc`` from the
moment what is written is built: the composite for an export, the report
for ``check-security --json``.  The traced peak is what the writer holds
above it.  From 400 to 3,200 services the document grows about 8x; the
peak must stay under one fixed bound at both sizes.  On CPython 3.11.7
this writer holds 1.6 to 2.0 MB at 3,200 services: mostly the link map
sorted for export, the index of children the DOT walk builds, and one
piece's findings.  One that makes the whole text before it writes holds
7.7 to 27 MB.
"""

import random
import sys
import tracemalloc

import pytest

from ldbig import cli
from test_assembly import _generate, _monolith_text

BOUND = 3 << 20  # bytes
SIZES = {400: 5, 3200: 11}  # services -> lattice groups, for ~8x the leaks


class _Sink:
    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)

    def flush(self):
        pass


def _writer_peak(monkeypatch, built: str, argv) -> tuple[int, int]:
    """The peak traced from when ``cli``'s ``built`` returns to when
    ``main(argv)`` does, and the size of what it wrote to stdout."""
    build = getattr(cli, built)

    def traced(*args):
        result = build(*args)
        tracemalloc.start()
        return result

    monkeypatch.setattr(cli, built, traced)
    monkeypatch.setattr(sys, "stdout", _Sink())
    try:
        cli.main(argv)
        return tracemalloc.get_traced_memory()[1], sys.stdout.size
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def stacks(tmp_path_factory):
    """Per size, a monolith's compose file and a lattice's compose and
    order files."""
    generate, workloads = _generate()
    out = tmp_path_factory.mktemp("stacks")
    paths = {}
    for n, groups in SIZES.items():
        lattice = generate.lattice_stack(random.Random(1), 0, n, groups,
                                         workloads.LATTICE_PER_GROUP)
        paths[n] = [out / f"monolith{n}.yml", out / f"lattice{n}.yml",
                    out / f"lattice{n}.order"]
        for path, text in zip(paths[n], (
                _monolith_text(n), generate.compose_yaml(lattice),
                generate.order_text(lattice))):
            path.write_text(text, encoding="utf-8")
    return {n: [str(p) for p in ps] for n, ps in paths.items()}


@pytest.mark.parametrize("case", ["export-json", "export-dot", "leaks"])
def test_the_writer_holds_a_bounded_share_of_the_document(case, stacks,
                                                          monkeypatch):
    sizes = {}
    for n, (monolith, lattice, order) in stacks.items():
        built, argv = {
            "export-json": ("assemble", ["export", monolith, "--format", "json"]),
            "export-dot": ("assemble", ["export", monolith, "--format", "dot"]),
            "leaks": ("violations", ["check-security", lattice, "--order",
                                     order, "--json"]),
        }[case]
        peak, sizes[n] = _writer_peak(monkeypatch, built, argv)
        assert peak < BOUND, (n, peak, sizes[n])
    assert sizes[3200] > 7 * sizes[400]
