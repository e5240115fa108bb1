"""Goal terms on the benchmark's side: a small parser, the four oracles and a
ground evaluator for countermodels.

Nothing here imports `ualg`.  A verdict from the program is judged against
these functions, so they must not share code with it.

A term is a tuple: ("var", name) for a context variable, otherwise
(op, arg, ...), so a constant is (name,).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class GoalTerms:
    lhs: tuple
    rhs: tuple
    ctx: tuple[tuple[str, str], ...]  # (variable, sort) in context order


def _split_args(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_term(text: str, variables: set[str]) -> tuple:
    text = text.strip()
    head, paren, rest = text.partition("(")
    head = head.strip()
    if not paren:
        return ("var", head) if head in variables else (head,)
    if not rest.endswith(")"):
        raise ValueError(f"unbalanced term: {text!r}")
    return (head,) + tuple(parse_term(a, variables)
                           for a in _split_args(rest[:-1]))


def parse_goal(text: str) -> GoalTerms:
    """Parse `<term> ~ <term> ctx [ x:S ... ]`, the syntax of the theory DSL."""
    body, _, ctx_text = text.partition(" ctx ")
    ctx = tuple(tuple(item.split(":")) for item in
                ctx_text.strip().strip("[]").split())
    names = {name for name, _ in ctx}
    lhs, _, rhs = body.partition("~")
    return GoalTerms(parse_term(lhs, names), parse_term(rhs, names), ctx)


def render(t: tuple) -> str:
    if t[0] == "var":
        return t[1]
    if len(t) == 1:
        return t[0]
    return t[0] + "(" + ",".join(render(a) for a in t[1:]) + ")"


def render_goal(lhs: tuple, rhs: tuple, ctx: tuple[tuple[str, str], ...]) -> str:
    items = "".join(f"{name}:{sort} " for name, sort in ctx)
    return f"{render(lhs)} ~ {render(rhs)} ctx [ {items}]"


# ---------------------------------------------------------------------------
# Oracles: is lhs ~ rhs true in the free model of the theory?


def _leaves(t: tuple) -> list[tuple]:
    if t[0] == "var" or len(t) == 1:
        return [t]
    return [leaf for a in t[1:] for leaf in _leaves(a)]


def _variables(t: tuple) -> list[str]:
    """Variable leaves left to right; constants (the units) are erased."""
    return [leaf[1] for leaf in _leaves(t) if leaf[0] == "var"]


def monoid_equal(g: GoalTerms) -> bool:
    """Free monoid: the same word once `e` and the brackets are erased."""
    return _variables(g.lhs) == _variables(g.rhs)


def projection_equal(g: GoalTerms) -> bool:
    """f(x,y) = x with the padding eliminated: a term equals its leftmost leaf."""
    return _leaves(g.lhs)[0] == _leaves(g.rhs)[0]


def magma_equal(g: GoalTerms) -> bool:
    """No axioms: only syntactically identical terms are equal."""
    return g.lhs == g.rhs


def eh_equal(g: GoalTerms) -> bool:
    """Eckmann-Hilton: both operations agree and form a commutative monoid, so
    terms are equal when their variable multisets agree after erasing units."""
    return Counter(_variables(g.lhs)) == Counter(_variables(g.rhs))


ORACLES = {
    "monoid": monoid_equal,
    "projection": projection_equal,
    "magma": magma_equal,
    "eh": eh_equal,
    "monoid_bijective": monoid_equal,
}


# ---------------------------------------------------------------------------
# Ground evaluation of a countermodel, straight from its op tables


def _ground_value(t: tuple, env: dict[str, int], tables: dict) -> int:
    if t[0] == "var":
        return env[t[1]]
    doms, table = tables[t[0]]
    index = 0
    for arg, size in zip(t[1:], doms):
        index = index * size + _ground_value(arg, env, tables)
    return table[index]


def ground_holds(carriers: dict[str, int], tables: dict, g: GoalTerms) -> bool:
    """Does lhs = rhs under every assignment of the context variables?

    `tables` maps each op to (argument carrier sizes, row-major table)."""
    names = [name for name, _ in g.ctx]
    ranges = [range(carriers[sort]) for _, sort in g.ctx]
    for values in itertools.product(*ranges):
        env = dict(zip(names, values))
        if _ground_value(g.lhs, env, tables) != _ground_value(g.rhs, env, tables):
            return False
    return True


def axioms_of(theory_text: str) -> list[GoalTerms]:
    """The `eq` lines of a theory file, parsed on the benchmark's side."""
    out = []
    for raw in theory_text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("eq "):
            out.append(parse_goal(line.partition(":")[2]))
    return out
