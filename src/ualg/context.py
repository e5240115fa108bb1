"""Context structures: which contexts govern which words of typed letters.

A context is a repetition-free word of letters.  Each of the eight modelable
structures, listed once in `STRUCTURES`, is a decidable relation
holds(R, c, v).  Terminal contexts and the orders that govern a word live
here too, and so does the correspondence R -> Delta_R with finite-ordinal
function families: `R.family` is Delta_R by its direct characterization,
and `delta_of(R, theta)` decides membership through `holds`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import ClassVar, Optional

from .finord import (
    ALL_FUNCTIONS, BIJECTIONS, IDENTITIES, INJECTIONS, LEFT_SURJECTIONS,
    RIGHT_SURJECTIONS, STRICTLY_INCREASING, SURJECTIONS, DeltaFamily, FinFn,
)

Word = tuple["Letter", ...]


class ContextError(ValueError):
    """Raised on malformed contexts or misuse of a structure."""


class Letter:
    """A typed variable, interned per (sort, name): building the same pair
    twice yields the same object, so letters compare and hash by identity."""

    __slots__ = ("sort", "name")
    _table: ClassVar[dict[tuple[str, str], Letter]] = {}

    def __new__(cls, sort: str, name: str) -> Letter:
        x = cls._table.get((sort, name))
        if x is None:
            x = cls._table[(sort, name)] = super().__new__(cls)
            x.sort = sort
            x.name = name
        return x

    def __reduce__(self) -> tuple[type, tuple[str, str]]:
        # Copies and unpickled letters go through __new__, so stay interned.
        return (Letter, (self.sort, self.name))

    def __repr__(self) -> str:
        return f"Letter({self.sort!r}, {self.name!r})"

    def __str__(self) -> str:
        return self.name


# The eight structures, each with the tag of the finite-ordinal family
# Delta_R that R corresponds to; `STRUCTURES` lists them in this order.
_FAMILY_TAGS = {
    "trivial": IDENTITIES,
    "bijective": BIJECTIONS,
    "strict-increasing": STRICTLY_INCREASING,
    "injective": INJECTIONS,
    "surjective": SURJECTIONS,
    "left-surjective": LEFT_SURJECTIONS,
    "right-surjective": RIGHT_SURJECTIONS,
    "cartesian": ALL_FUNCTIONS,
}


@dataclass(frozen=True)
class ContextStructure:
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _FAMILY_TAGS:
            raise ContextError(f"unknown context structure {self.kind!r}")

    @property
    def family(self) -> DeltaFamily:
        """Delta_R by its direct characterization (`delta_of` uses holds)."""
        return DeltaFamily(_FAMILY_TAGS[self.kind])

    def __str__(self) -> str:
        return self.kind


STRUCTURES = tuple(map(ContextStructure, _FAMILY_TAGS))
(TRIVIAL, BIJECTIVE, STRICT_INCREASING, INJECTIVE, SURJECTIVE,
 LEFT_SURJECTIVE, RIGHT_SURJECTIVE, CARTESIAN) = STRUCTURES


def parse_structure(token: str) -> ContextStructure:
    for R in STRUCTURES:
        if R.kind == token:
            return R
    raise ContextError(f"unknown structure token {token!r}")


def check_context(c: Word) -> Word:
    if len(set(c)) != len(c):
        raise ContextError(
            "context letters must be distinct: " + " ".join(map(str, c)))
    return c


def _is_subsequence(v: Word, c: Word) -> bool:
    it = iter(c)
    return all(x in it for x in v)


def _first_occurrence_order(v: Word) -> Word:
    return tuple(dict.fromkeys(v))


def _last_occurrence_order(v: Word) -> Word:
    seen = dict.fromkeys(reversed(v))
    return tuple(reversed(tuple(seen)))


def holds(R: ContextStructure, c: Word, v: Word) -> bool:
    """Decide whether context c governs the word v under R."""
    check_context(c)
    kind = R.kind
    if kind == "trivial":
        return v == c
    if kind == "bijective":
        return sorted(v, key=_letter_key) == sorted(c, key=_letter_key)
    if kind == "strict-increasing":
        return len(set(v)) == len(v) and _is_subsequence(v, c)
    if kind == "injective":
        return len(set(v)) == len(v) and set(v) <= set(c)
    if kind == "surjective":
        return set(v) == set(c)
    if kind == "left-surjective":
        return _first_occurrence_order(v) == c
    if kind == "right-surjective":
        return _last_occurrence_order(v) == c
    return set(v) <= set(c)  # cartesian


def _letter_key(x: Letter) -> tuple[str, str]:
    return (x.sort, x.name)


def terminal_context(R: ContextStructure, v: Word) -> Optional[Word]:
    """The canonical context c with (for all w) holds(w, c) iff holds(w, v).

    Returns None when v is not governed by any context (a repeated letter
    under the four substitution-free structures).  The canonical choice is
    first-occurrence order, except last-occurrence for right-surjective.
    """
    kind = R.kind
    if kind in ("trivial", "bijective", "strict-increasing", "injective"):
        return v if len(set(v)) == len(v) else None
    if kind == "right-surjective":
        return _last_occurrence_order(v)
    return _first_occurrence_order(v)


def governing_orders(R: ContextStructure, v: Word) -> list[Word]:
    """The orders of v's letters that govern v, in permutation order.

    Delta_R holds every bijection or only the identity, so these are every
    order of the terminal context, or the terminal context alone; none when
    v has no terminal context."""
    if not v:  # closed: () is the one order, and every structure admits it
        return [v]
    c = terminal_context(R, v)
    if c is None:
        return []
    return list(itertools.permutations(c)) if _has_swaps(R) else [c]


@functools.cache
def _has_swaps(R: ContextStructure) -> bool:
    return delta_of(R, FinFn(2, 2, (2, 1)))


def embedding(v: Word, w: Word) -> FinFn:
    """The function theta with w = v o theta: each letter of w goes to its
    position in the context v.  A letter of w that v lacks is a KeyError."""
    pos = {x: i for i, x in enumerate(v, start=1)}
    return FinFn(len(w), len(v), tuple(pos[x] for x in w))


def delta_of(R: ContextStructure, theta: FinFn) -> bool:
    """Whether theta belongs to the function family matching R.

    Uses fresh letters c1..cn of a dummy sort and asks whether the context
    c1..cn governs the reindexed word theta.pull(c1..cn).
    """
    letters = tuple(Letter("_s", f"_c{i}") for i in range(1, theta.cod + 1))
    return holds(R, letters, theta.pull(letters))
