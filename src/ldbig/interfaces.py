"""Local interfaces: ordered lists of (positive, negative) name sets.

Locality 0 holds the global (non-localized) names; localities 1..width are
attached to roots (outer side) or sites (inner side).  Juxtaposition appends
the localized parts and takes the union of the global parts, which must be
disjoint.  Names are checked where they are read (the compose and JSON
readers); an interface only keeps each locality's two sides disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LdbError

__all__ = ["LocalInterface", "EMPTY_INTERFACE", "juxtapose", "check_name"]


def check_name(text: str) -> str:
    """Reject empty names and names containing whitespace."""
    if not isinstance(text, str) or not text:
        raise ValueError(f"name must be a non-empty string, got {text!r}")
    if text.split() != [text]:  # str.split cuts at every isspace() char
        raise ValueError(f"name may not contain whitespace: {text!r}")
    return text


@dataclass(frozen=True)
class LocalInterface:
    """An ordered list of localities, each a pair of disjoint name sets.

    ``localities[0]`` is the global locality; ``width`` counts only the
    localized entries.  Instances are immutable and hashable.
    """

    localities: tuple[tuple[frozenset[str], frozenset[str]], ...]

    def __post_init__(self):
        if not self.localities:
            raise ValueError("an interface has at least the global locality")
        # from a list, as tensor's operands: see there
        frozen = tuple([(frozenset(p), frozenset(m))
                        for p, m in self.localities])
        for i, (plus, minus) in enumerate(frozen):
            if plus & minus:
                raise ValueError(f"locality {i}: names {sorted(plus & minus)} "
                                 "are both positive and negative")
        object.__setattr__(self, "localities", frozen)

    @classmethod
    def of(cls, *localities) -> "LocalInterface":
        """Build from (plus, minus) name iterables, the first pair being the
        global locality; no arguments gives the empty interface."""
        return cls(localities or ((frozenset(), frozenset()),))

    @property
    def width(self) -> int:
        return len(self.localities) - 1

    def plus(self, i: int) -> frozenset[str]:
        return self.localities[i][0]

    def minus(self, i: int) -> frozenset[str]:
        return self.localities[i][1]

    def pretty(self) -> str:
        def names(s):
            return "{" + ",".join(sorted(s)) + "}"

        parts = [f"({names(p)},{names(m)})" for p, m in self.localities]
        return "<" + ",".join(parts) + ">"


EMPTY_INTERFACE = LocalInterface.of()


def juxtapose(*interfaces: LocalInterface) -> LocalInterface:
    """X1 (x) ... (x) Xn: the union of the global localities, then each
    operand's localized ones in turn; no operands give the empty interface.

    The product is partial: it is defined only when no global name, of
    either polarity, belongs to two operands.
    """
    plus: set[str] = set()
    minus: set[str] = set()
    owner: dict[str, int] = {}
    localized = []
    for k, y in enumerate(interfaces, 1):
        for text in sorted(y.plus(0) | y.minus(0)):
            if owner.setdefault(text, k) != k:
                raise LdbError(f"global name {text!r} is shared by operands "
                               f"{owner[text]} and {k}")
        plus |= y.plus(0)
        minus |= y.minus(0)
        localized.extend(y.localities[1:])
    return LocalInterface(((frozenset(plus), frozenset(minus)), *localized))


# the name perfbench/tracer.py wraps
juxtapose_with_renames = juxtapose
