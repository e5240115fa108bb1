"""Functions between finite ordinals and the categories they generate.

The ordinal [n] is {1, .., n}.  A FinFn stores the images of 1..m under a
function [m] -> [n]; everything downstream (composition, coproducts,
similarity components, fiber analysis) is plain arithmetic on those tuples.
All interfaces are 1-based to match the usual ordinal convention.  Structure
monoids decide membership exactly, with no closure horizon.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence


class FinOrdError(ValueError):
    """Raised on malformed functions or mismatched (co)domains."""


@dataclass(frozen=True)
class FinFn:
    """A function [dom] -> [cod], given by the tuple of images of 1..dom."""

    dom: int
    cod: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dom < 0 or self.cod < 0:
            raise FinOrdError("ordinal sizes must be nonnegative")
        if len(self.images) != self.dom:
            raise FinOrdError(
                f"expected {self.dom} images, got {len(self.images)}")
        for e in self.images:
            if not 1 <= e <= self.cod:
                raise FinOrdError(f"image {e} outside 1..{self.cod}")

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.dom:
            raise FinOrdError(f"argument {i} outside 1..{self.dom}")
        return self.images[i - 1]

    def pull(self, xs: Sequence) -> tuple:
        """The word xs o self: entry i is xs[self(i)], counting from 1."""
        return tuple(xs[e - 1] for e in self.images)

    def __str__(self) -> str:
        return f"{self.dom} {self.cod} : " + " ".join(map(str, self.images))

    def is_identity(self) -> bool:
        return self.dom == self.cod and all(
            e == i for i, e in enumerate(self.images, start=1))


def fn(images: Sequence[int], cod: int) -> FinFn:
    """Shorthand constructor: fn((2, 1), 3) is the map 1->2, 2->1 into [3]."""
    return FinFn(len(images), cod, tuple(images))


def identity(n: int) -> FinFn:
    return FinFn(n, n, tuple(range(1, n + 1)))


def compose(g: FinFn, f: FinFn) -> FinFn:
    """g after f.  Requires f.cod = g.dom."""
    if f.cod != g.dom:
        raise FinOrdError(f"cannot compose: f.cod={f.cod} != g.dom={g.dom}")
    return FinFn(f.dom, g.cod, tuple(g.images[e - 1] for e in f.images))


def coproduct(fs: Sequence[FinFn]) -> FinFn:
    """Block sum f1 + .. + fk; the empty sum is the empty function [0]->[0]."""
    images: list[int] = []
    offset = 0
    for f in fs:
        images.extend(offset + e for e in f.images)
        offset += f.cod
    return FinFn(sum(f.dom for f in fs), offset, tuple(images))


def similarity_component(theta: FinFn, ks: Sequence[int]) -> FinFn:
    """Blow-up of theta replacing target point j by a block of size ks[j-1].

    With L_i = k_{theta(1)} + .. + k_{theta(i)} and K_j = k_1 + .. + k_j, the
    component maps L_{i-1} + x to K_{theta(i)-1} + x.  ks entries may be 0.
    """
    if len(ks) != theta.cod:
        raise FinOrdError(
            f"expected {theta.cod} block sizes, got {len(ks)}")
    for k in ks:
        if k < 0:
            raise FinOrdError("block sizes must be nonnegative")
    prefix = [0]
    for k in ks:
        prefix.append(prefix[-1] + k)  # prefix[j] = K_j
    images: list[int] = []
    for j in theta.images:
        base = prefix[j - 1]
        images.extend(base + x for x in range(1, ks[j - 1] + 1))
    return FinFn(len(images), prefix[-1], tuple(images))


def fiber_sizes(f: FinFn) -> tuple[int, ...]:
    """|f^-1{j}| for each j in 1..cod; the entries sum to dom."""
    counts = [0] * f.cod
    for e in f.images:
        counts[e - 1] += 1
    return tuple(counts)


# ---------------------------------------------------------------------------
# Structure monoids


@dataclass(frozen=True)
class StructureMonoid:
    """Subset of N containing 1, closed under k-fold sums with k a member,
    given by its generators; `monoid_contains` decides membership exactly."""

    generators: frozenset[int]

    def __post_init__(self) -> None:
        if any(g < 0 for g in self.generators):
            raise FinOrdError("generators must be nonnegative")


@functools.lru_cache(maxsize=256)
def _closure(generators: frozenset[int], limit: int) -> frozenset[int]:
    """The members positive generators derive without leaving [1, limit];
    `sums` runs through the sums of exactly k members."""
    members = set(generators) | {1}
    while True:
        sums, new = {0}, set()
        for k in range(1, max(members) + 1):
            sums = {s + x for s in sums for x in members if s + x <= limit}
            if k in members:
                new |= sums
        if new <= members:
            return frozenset(members)
        members |= new


def monoid(*generators: int) -> StructureMonoid:
    return StructureMonoid(frozenset(generators))


def monoid_contains(m: StructureMonoid, n: int) -> bool:
    """Whether n is a member, exactly.  With 0, the monoid is {0, 1} or, once
    some k >= 2 gives 2 = 0 + .. + 1 + 1, all of N.  Without 0, a sum of k
    members is at least k, so deriving n uses only k and summands up to n:
    the closure within [1, n] decides it."""
    if n < 0:
        return False
    if 0 in m.generators:
        return n <= 1 or max(m.generators) >= 2
    return n in _closure(frozenset(g for g in m.generators if g <= n), n)


# ---------------------------------------------------------------------------
# Families of functions closed (or not) under the category operations


IDENTITIES = "identities"
BIJECTIONS = "bijections"
STRICTLY_INCREASING = "strict-increasing"
INJECTIONS = "injections"
SURJECTIONS = "surjections"
LEFT_SURJECTIONS = "left-surjections"
RIGHT_SURJECTIONS = "right-surjections"
ALL_FUNCTIONS = "all"
INCREASING = "increasing"  # non-strict; fails the similarity closure
DELTA_UPPER = "delta-upper"
PSI_LOWER = "psi-lower"
PSI_UPPER = "psi-upper"

_NAMED_KINDS = (
    IDENTITIES, BIJECTIONS, STRICTLY_INCREASING, INJECTIONS, SURJECTIONS,
    LEFT_SURJECTIONS, RIGHT_SURJECTIONS, ALL_FUNCTIONS, INCREASING,
)
_MONOID_KINDS = (DELTA_UPPER, PSI_LOWER, PSI_UPPER)


@dataclass(frozen=True)
class DeltaFamily:
    """A wide family of finite-ordinal functions, selected by tag.

    The monoid-parametrized tags require a StructureMonoid; psi-lower and
    psi-upper additionally require 0 not to be a member.
    """

    kind: str
    monoid: Optional[StructureMonoid] = None

    def __post_init__(self) -> None:
        if self.kind in _NAMED_KINDS:
            if self.monoid is not None:
                raise FinOrdError(f"{self.kind} takes no monoid")
        elif self.kind in _MONOID_KINDS:
            if self.monoid is None:
                raise FinOrdError(f"{self.kind} requires a monoid")
            if self.kind in (PSI_LOWER, PSI_UPPER) and monoid_contains(self.monoid, 0):
                raise FinOrdError(f"{self.kind} requires 0 outside the monoid")
        else:
            raise FinOrdError(f"unknown family kind {self.kind!r}")

    def __str__(self) -> str:
        if self.monoid is None:
            return self.kind
        gens = ",".join(map(str, sorted(self.monoid.generators)))
        return f"{self.kind}:{gens}"


def _fiber_ends_rise(f: FinFn, last: bool) -> bool:
    """Whether each fiber's first point (its last, if `last`) is at most the
    next fiber's; every fiber is non-empty when this is called."""
    ends = [0] * f.cod
    for i, e in enumerate(f.images, start=1):
        if last or not ends[e - 1]:
            ends[e - 1] = i
    return all(a <= b for a, b in zip(ends, ends[1:]))


def in_family(d: DeltaFamily, f: FinFn) -> bool:
    """Decide membership by the direct characterization of each tag."""
    if d.kind == ALL_FUNCTIONS:
        return True
    if d.kind == IDENTITIES:
        return f.is_identity()
    if d.kind == BIJECTIONS:
        return f.dom == f.cod and len(set(f.images)) == f.dom
    if d.kind == STRICTLY_INCREASING:
        return all(a < b for a, b in zip(f.images, f.images[1:]))
    if d.kind == INCREASING:
        return all(a <= b for a, b in zip(f.images, f.images[1:]))
    if d.kind == INJECTIONS:
        return len(set(f.images)) == f.dom
    # the three surjection kinds, then the monoid kinds
    if not all(s >= 1 if d.monoid is None else monoid_contains(d.monoid, s)
               for s in fiber_sizes(f)):
        return False
    if d.kind in (LEFT_SURJECTIONS, PSI_LOWER):
        return _fiber_ends_rise(f, last=False)
    if d.kind in (RIGHT_SURJECTIONS, PSI_UPPER):
        return _fiber_ends_rise(f, last=True)
    return True  # surjections and delta-upper


def functions(m: int, n: int) -> Iterator[FinFn]:
    """Every function [m] -> [n], with images in lexicographic order."""
    for images in itertools.product(range(1, n + 1), repeat=m):
        yield FinFn(m, n, images)


def all_functions(max_n: int) -> Iterator[FinFn]:
    """Every function [m] -> [n] with m, n <= max_n, in a fixed order."""
    for n in range(max_n + 1):
        for m in range(max_n + 1):
            yield from functions(m, n)


def family_members(d: DeltaFamily, max_n: int) -> list[FinFn]:
    return [f for f in all_functions(max_n) if in_family(d, f)]


@dataclass(frozen=True)
class CategoryCheck:
    name: str
    ok: bool
    detail: tuple[str, ...] = ()


@dataclass(frozen=True)
class CategoryReport:
    family: DeltaFamily
    max_n: int
    member_count: int
    checks: tuple[CategoryCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        head = f"family {self.family} max {self.max_n}: " + (
            "pass" if self.passed else "FAIL")
        out = [head, f"  members (dom,cod <= {self.max_n}): {self.member_count}"]
        for c in self.checks:
            out.append(f"  {c.name}: {'ok' if c.ok else 'FAIL'}")
            out.extend("    " + line for line in c.detail)
        return out


def verify_structure_category(d: DeltaFamily, max_n: int) -> CategoryReport:
    """Exhaustively check the closure properties over members of bounded size.

    Checks identities, composition, binary coproducts, and similarity
    components (block sizes 0..max_n).  A failing family produces a report
    carrying the first counterexample, not an exception.
    """
    if max_n < 1:
        raise FinOrdError("max_n must be >= 1")
    members = family_members(d, max_n)
    by_dom: dict[int, list[FinFn]] = {}
    for f in members:
        by_dom.setdefault(f.dom, []).append(f)
    checks: list[CategoryCheck] = []

    missing = [n for n in range(max_n + 1) if not in_family(d, identity(n))]
    checks.append(CategoryCheck(
        "identities", not missing,
        tuple(f"id on [{n}] not in family" for n in missing[:1])))

    def closure(name: str, labels: tuple[str, str, str],
                pairs: Iterable[tuple], op: Callable,
                show: Callable = str) -> None:
        """Check `name`; its detail is the first (x, y, op(x, y)) over
        pairs with op(x, y) outside d, one line each."""
        for x, y in pairs:
            z = op(x, y)
            if not in_family(d, z):
                a, b, c = labels
                checks.append(CategoryCheck(name, False, (
                    f"{a} = {x}", f"{b} = {show(y)}",
                    f"{c} = {z}  (not in family)")))
                return
        checks.append(CategoryCheck(name, True))

    closure("composition", ("f", "g", "g.f"),
            ((f, g) for f in members for g in by_dom.get(f.cod, ())),
            lambda f, g: compose(g, f))
    closure("coproduct", ("f", "g", "f+g"),
            itertools.product(members, repeat=2),
            lambda f, g: coproduct([f, g]))
    closure("similarity", ("theta", "ks", "component"),
            ((theta, ks) for theta in members
             for ks in itertools.product(range(max_n + 1), repeat=theta.cod)),
            similarity_component, lambda ks: " ".join(map(str, ks)))

    return CategoryReport(d, max_n, len(members), tuple(checks))


def parse_family(token: str) -> DeltaFamily:
    """Parse a CLI family token, e.g. 'bijections' or 'delta-upper:0,1'."""
    if ":" in token:
        kind, _, gens = token.partition(":")
        if kind not in _MONOID_KINDS:
            raise FinOrdError(f"unknown family token {token!r}")
        try:
            generators = frozenset(int(g) for g in gens.split(",") if g != "")
        except ValueError as exc:
            raise FinOrdError(f"bad generator list in {token!r}") from exc
        return DeltaFamily(kind, StructureMonoid(generators))
    if token not in _NAMED_KINDS + _MONOID_KINDS:
        raise FinOrdError(f"unknown family token {token!r}")
    return DeltaFamily(token)  # a bare monoid kind: "requires a monoid"
