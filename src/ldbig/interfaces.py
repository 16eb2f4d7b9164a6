"""Local interfaces: ordered lists of (positive, negative) name sets.

Locality 0 holds the global (non-localized) names; localities 1..width are
attached to roots (outer side) or sites (inner side).  Juxtaposition appends
the localized parts and merges the global parts, renaming right-operand
globals on collision.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
        frozen = []
        for i, (plus, minus) in enumerate(self.localities):
            plus = frozenset(check_name(n) for n in plus)
            minus = frozenset(check_name(n) for n in minus)
            if plus & minus:
                raise ValueError(
                    f"locality {i}: names {sorted(plus & minus)} are both "
                    "positive and negative"
                )
            frozen.append((plus, minus))
        object.__setattr__(self, "localities", tuple(frozen))

    @classmethod
    def of(cls, *localities) -> "LocalInterface":
        """Build from (plus, minus) name iterables, the first pair being the
        global locality; no arguments gives the empty interface."""
        pairs = [(frozenset(p), frozenset(m)) for p, m in localities]
        if not pairs:
            pairs = [(frozenset(), frozenset())]
        return cls(tuple(pairs))

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


EMPTY_INTERFACE = LocalInterface(((frozenset(), frozenset()),))

_TAG_SUFFIX = re.compile(r"(~\d+)+$")


def _tag_base(text: str) -> str:
    return _TAG_SUFFIX.sub("", text) or text


def _fresh_variant(text: str, taken: set[str], next_free: dict[str, int]) -> str:
    """Smallest ``base~k`` not in ``taken``, continuing an existing tag tower.

    ``next_free`` maps a base to a k below which every slot is taken; it
    stays valid while ``taken`` only grows, and the caller must take the
    result."""
    base = _tag_base(text)
    k = next_free.get(base, 1)
    while f"{base}~{k}" in taken:
        k += 1
    next_free[base] = k + 1
    return f"{base}~{k}"


def juxtapose_with_renames(*interfaces: LocalInterface):
    """Juxtapose interfaces left to right; also return, per operand, the
    rename maps applied to its global names (one per polarity).

    Each operand's global names are absorbed in a canonical order into the
    globals of the operands before it; a colliding name moves to the
    smallest free slot of its tag tower, so the first operand's names are
    never touched.  Plus and minus share one namespace here because a name
    may collide across polarities and the result's sides must stay
    disjoint.  The result equals the left fold of the binary operation.

    The ``~k`` suffix is reserved for this tagging.  For names that do not
    already use it the operation is associative on the resulting name sets;
    names hand-crafted in the reserved form may receive grouping-dependent
    fresh variants (disjointness and the rename report still hold).
    """
    plus: set[str] = set()
    minus: set[str] = set()
    taken: set[str] = set()
    next_free: dict[str, int] = {}
    localized = []
    renames: list[tuple[dict[str, str], dict[str, str]]] = []
    for y in interfaces:
        moved: tuple[dict[str, str], dict[str, str]] = ({}, {})
        incoming = [(_tag_base(t), len(t), t, 0) for t in y.plus(0)]
        incoming += [(_tag_base(t), len(t), t, 1) for t in y.minus(0)]
        for _, _, text, side in sorted(incoming):
            final = text
            if text in taken:
                final = _fresh_variant(text, taken, next_free)
                moved[side][text] = final
            taken.add(final)
            (minus if side else plus).add(final)
        localized.extend(y.localities[1:])
        renames.append(moved)
    localities = ((frozenset(plus), frozenset(minus)), *localized)
    return LocalInterface(localities), renames


def juxtapose(*interfaces: LocalInterface) -> LocalInterface:
    """X1 (x) ... (x) Xn: merged globals, then each operand's localities in
    turn; no operands give the empty interface."""
    return juxtapose_with_renames(*interfaces)[0]
