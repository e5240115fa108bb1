"""Seeded inputs for the three workloads.

Each generator draws the same mix for every seed: fixed counts per theory,
oracle truth and term size.  Only letters, bracketings and the order change,
so two seeds ask for comparable work.  The expected answer of every generated goal
comes from the oracles in `goals`, never from `ualg`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from goals import ORACLES, parse_goal, render_goal

ROOT = Path(__file__).resolve().parent.parent

FREE_MAGMA_TEXT = """\
theory FreeMagma
structure cartesian
sort A
op f : A A -> A
"""


def theory_texts() -> dict[str, str]:
    """Theory sources by key: the sample files plus two restatements."""
    read = lambda name: (ROOT / "theories" / name).read_text(encoding="utf-8")
    monoid = read("monoid.ua")
    return {
        "monoid": monoid,
        "projection": read("first_projection.ua"),
        "projection_injective": read("first_projection_injective.ua"),
        "magma": FREE_MAGMA_TEXT,
        "eh": read("eckmann_hilton.ua"),
        "monoid_bijective": monoid.replace("structure cartesian",
                                           "structure bijective"),
    }


@dataclass(frozen=True)
class Goal:
    theory: str
    text: str
    stratum: str
    truth: Optional[bool]  # the oracle's answer; None where no oracle applies
    expected: Optional[str] = None  # a hand-written verdict, for README goals


@dataclass(frozen=True)
class Query:
    """One closed-loop request: a theory and the goals answered together."""
    qid: int
    theory: str
    goals: tuple[Goal, ...]


def _goal(theory: str, text: str, stratum: str) -> Goal:
    return Goal(theory, text, stratum, ORACLES[theory](parse_goal(text)))


# ---------------------------------------------------------------------------
# terms as the benchmark's own tuples


def _v(name: str) -> tuple:
    return ("var", name)


def _bracket(rng: random.Random, leaves: list[tuple], ops: tuple[str, ...]
             ) -> tuple:
    """A random binary bracketing of the leaves, in order."""
    if len(leaves) == 1:
        return leaves[0]
    k = rng.randrange(1, len(leaves))
    return (rng.choice(ops), _bracket(rng, leaves[:k], ops),
            _bracket(rng, leaves[k:], ops))


def _left_comb(leaves: list[tuple], op: str) -> tuple:
    t = leaves[0]
    for leaf in leaves[1:]:
        t = (op, t, leaf)
    return t


def _ctx(sort: str, *terms: tuple) -> tuple[tuple[str, str], ...]:
    names = set()
    stack = list(terms)
    while stack:
        t = stack.pop()
        if t[0] == "var":
            names.add(t[1])
        else:
            stack.extend(t[1:])
    return tuple((n, sort) for n in "abcdxyzw" if n in names)


def _render(lhs: tuple, rhs: tuple, sort: str) -> str:
    return render_goal(lhs, rhs, _ctx(sort, lhs, rhs))


# ---------------------------------------------------------------------------
# decide


README_GOALS = (
    Goal("monoid", "mul(e,mul(x,y)) ~ mul(x,y) ctx [ x:M y:M ]",
         "readme", True, "proved"),
    Goal("projection_injective", "f(x,y) ~ x ctx [ x:A y:A ]",
         "readme", None, "refuted"),
    Goal("projection", "f(x,y) ~ f(y,x) ctx [ x:A y:A ]",
         "readme", False, "countermodel"),
)

PER_STRATUM = 12  # goals per (theory, truth, size) stratum
SIZES = (1, 2, 3)
DEEP_TRUE_PROJECTION = 1  # each falls through to the exhaustive size-3 search


def _with_unit(rng: random.Random, word: list[str], unit: bool) -> list[tuple]:
    leaves = [_v(x) for x in word]
    if unit:
        leaves.insert(rng.randrange(len(leaves) + 1), ("e",))
    return leaves


# Which sides of a monoid goal get a unit, cycled through each stratum.  A
# fixed cycle rather than a coin per side: the unit count sets how long a
# proof takes, and coins made the decide p90 swing by a third between seeds.
UNIT_PATTERNS = ((True, False), (False, True), (True, True))


def _swap(rng: random.Random, word: list[str]) -> list[str]:
    """Swap two adjacent distinct letters: the letter counts stay the same."""
    spots = [i for i in range(len(word) - 1) if word[i] != word[i + 1]]
    i = rng.choice(spots)
    return word[:i] + [word[i + 1], word[i]] + word[i + 2:]


def _recount(rng: random.Random, word: list[str], letters: str) -> list[str]:
    """Replace, drop or append one letter: some letter count changes."""
    w = list(word)
    move = rng.randrange(3 if len(w) > 1 else 2)
    if move == 0:
        i = rng.randrange(len(w))
        w[i] = rng.choice([x for x in letters if x != w[i]])
    elif move == 1:
        w.append(rng.choice(letters))
    else:
        del w[rng.randrange(len(w))]
    return w


def _rename(t: tuple, names: dict[str, str]) -> tuple:
    if t[0] == "var":
        return _v(names[t[1]])
    return (t[0],) + tuple(_rename(a, names) for a in t[1:])


def _monoid_goal(rng: random.Random, n: int, truth: bool, letters: str,
                 units: tuple[bool, bool], swap: bool = False,
                 names: Optional[dict[str, str]] = None) -> str:
    """Words of n letters, bracketed at random with an optional unit.  A false
    goal swaps two letters (no countermodel of size 2 exists: both
    two-element monoids are commutative) or changes a letter count (the
    parity or the support then separates the words in a size-2 monoid).
    `names` renames the letters afterwards."""
    while True:
        word = rng.sample(letters, n) if n == len(letters) else \
            rng.choices(letters, k=n)
        if swap and len(set(word)) < 2:
            continue
        other = word if truth else (
            _swap(rng, word) if swap else _recount(rng, word, letters))
        lhs = _bracket(rng, _with_unit(rng, word, units[0]), ("mul",))
        rhs = _bracket(rng, _with_unit(rng, other, units[1]), ("mul",))
        if lhs != rhs:
            if names:
                lhs, rhs = _rename(lhs, names), _rename(rhs, names)
            return _render(lhs, rhs, "M")


def _projection_goal(rng: random.Random, n: int, truth: bool,
                     letters: str) -> str:
    """n applications of f on the left.  A true goal equates the term with
    its leftmost leaf; a false one with a term of at most n applications
    whose leftmost leaf differs."""
    while True:
        left = [_v(x) for x in rng.choices(letters, k=n + 1)]
        right = [_v(x) for x in rng.choices(letters, k=rng.randrange(n + 1) + 1)]
        if truth:
            return _render(_bracket(rng, left, ("f",)), left[0], "A")
        if right[0] != left[0]:
            return _render(_bracket(rng, left, ("f",)),
                           _bracket(rng, right, ("f",)), "A")


def _deep_projection_goal(rng: random.Random, truth: bool) -> str:
    """A depth-5 left comb: deeper than the decide bounds reach."""
    left = [_v(x) for x in rng.choices("xy", k=6)]
    right = left[0] if truth else _v("y" if left[0][1] == "x" else "x")
    return _render(_left_comb(left, "f"), right, "A")


def _magma_goal(rng: random.Random, n: int, truth: bool, letters: str) -> str:
    while True:
        lhs = _bracket(rng, [_v(x) for x in rng.choices(letters, k=n + 1)],
                       ("f",))
        rhs = lhs if truth else _bracket(
            rng, [_v(x) for x in rng.choices(letters, k=n + 1)], ("f",))
        if truth or lhs != rhs:
            return _render(lhs, rhs, "A")


def decide_goals(seed: int) -> list[Goal]:
    """231 goals: 76 per theory (Monoid, FirstProjection, free magma) plus the
    README's three sample goals, shuffled."""
    rng = random.Random(f"decide:{seed}")
    # A monoid goal costs 55k to 350k Python calls, set by its bracketings,
    # unit positions and changed letters, and the costliest of them make up
    # the decide p90: drawn afresh for each seed, they moved the p90 by a
    # quarter between seeds.  So their shapes come from one stream that is
    # the same for every seed, and the seed renames each goal's letters.
    shapes = random.Random("decide:monoid")
    goals: list[Goal] = list(README_GOALS)

    def renaming(letters: str) -> dict[str, str]:
        return dict(zip(letters, rng.sample(letters, len(letters))))

    def add(theory: str, stratum: str, text: str) -> None:
        goals.append(_goal(theory, text, f"{theory}:{stratum}"))

    # Projection goals use two letters: with three distinct letters and three
    # applications, `prove` at the decide bounds leaves about one true goal
    # in eight open, and each then costs a 7 s exhaustive size-3 search, so
    # the work per seed would swing by multiples of 7 s.
    for n in SIZES:
        for truth in (True, False):
            for i in range(PER_STRATUM):
                swap = not truth and n > 1 and i < PER_STRATUM // 3
                add("monoid", f"{n}:{truth}" + (":swap" if swap else ""),
                    _monoid_goal(shapes, n, truth, "xyz",
                                 UNIT_PATTERNS[i % len(UNIT_PATTERNS)], swap,
                                 renaming("xyz")))
                add("projection", f"{n}:{truth}",
                    _projection_goal(rng, n, truth, "xy"))
                add("magma", f"{n}:{truth}", _magma_goal(rng, n, truth, "xyz"))
    # Four distinct letters exceed the decide context bound of 3.
    for i, (truth, swap) in enumerate(((True, False), (True, False),
                                       (False, True), (False, False))):
        add("monoid", f"wide:{truth}" + (":swap" if swap else ""),
            _monoid_goal(shapes, 4, truth, "xyzw",
                         UNIT_PATTERNS[i % len(UNIT_PATTERNS)], swap,
                         renaming("xyzw")))
        add("magma", f"wide:{truth}", _magma_goal(rng, 3, truth, "xyzw"))
    for i in range(4):
        truth = i < DEEP_TRUE_PROJECTION
        add("projection", f"deep:{truth}", _deep_projection_goal(rng, truth))
    rng.shuffle(goals)
    return goals


# ---------------------------------------------------------------------------
# derive


def derive_goals(seed: int) -> list[Goal]:
    """The commutativity of `o` and of `star` on Eckmann-Hilton, each
    derived from the interchange law and both units, so that `prove` builds
    one large saturator over open terms.  The seed picks the two letters of
    each goal, which also sets which side is which, and the order."""
    rng = random.Random(f"derive:{seed}")
    goals = []
    for op in ("o", "star"):
        a, b = (_v(x) for x in rng.sample("xyzw", 2))
        goals.append(_goal("eh", _render((op, a, b), (op, b, a), "M"),
                           f"eh:{op}-commutes"))
    rng.shuffle(goals)
    return goals


# ---------------------------------------------------------------------------
# universal

HOM = (("M", "M"), "M")


def _eh_side(rng: random.Random, names: list[str]) -> tuple:
    order = list(names)
    rng.shuffle(order)
    return _bracket(rng, [_v(x) for x in order], ("o", "star"))

CRITERION_10_EH_GOALS = (
    "o(x,e) ~ x ctx [ x:M ]",
    "star(o(a,b),o(c,d)) ~ o(star(a,c),star(b,d)) ctx [ a:M b:M c:M d:M ]",
)


def _unit_goal(rng: random.Random, op: str, unit: str) -> str:
    x = _v("x")
    lhs = (op, (unit,), x) if rng.random() < 0.5 else (op, x, (unit,))
    return _render(lhs, x, "M")


def universal_goals(seed: int) -> dict[str, list[Goal]]:
    """Goal sides to add to each quotient.

    EH: criterion 10's two goals, a unit law with the operation's own unit,
    one with the other operation's unit (true, but only through e = u), and
    two two-letter goals.  Monoid: two unit laws, a two-letter goal with a
    unit inserted, and a false commuted one."""
    rng = random.Random(f"universal:{seed}")
    eh = [_goal("eh", text, "eh:criterion10") for text in CRITERION_10_EH_GOALS]
    op = rng.choice(("o", "star"))
    own, other = ("e", "u") if op == "o" else ("u", "e")
    eh.append(_goal("eh", _unit_goal(rng, op, own), "eh:own-unit"))
    eh.append(_goal("eh", _unit_goal(rng, op, other), "eh:other-unit"))
    for _ in range(2):
        lhs = rhs = _eh_side(rng, ["x", "y"])
        while rhs == lhs:
            rhs = _eh_side(rng, ["x", "y"])
        eh.append(_goal("eh", _render(lhs, rhs, "M"), "eh:2"))

    monoid = [_goal("monoid_bijective", _unit_goal(rng, "mul", "e"), "monoid:1")
              for _ in range(2)]
    xy = ("mul", _v("x"), _v("y"))
    with_unit = _bracket(rng, _with_unit(rng, ["x", "y"], True), ("mul",))
    monoid.append(_goal("monoid_bijective", _render(with_unit, xy, "M"),
                        "monoid:2:True"))
    monoid.append(_goal("monoid_bijective",
                        _render(("mul", _v("y"), _v("x")), xy, "M"),
                        "monoid:2:False"))
    return {"eh": eh, "monoid_bijective": monoid}


def queries(workload: str, seed: int) -> list[Query]:
    if workload in ("decide", "derive"):
        goals = decide_goals(seed) if workload == "decide" else \
            derive_goals(seed)
        return [Query(i, g.theory, (g,)) for i, g in enumerate(goals)]
    if workload == "universal":
        return [Query(i, theory, tuple(goals)) for i, (theory, goals)
                in enumerate(universal_goals(seed).items())]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("decide", "derive", "universal")
