"""Finite-set models: dense tuple-indexed tables and backtracking search.

A MultiMap is a total function from a cartesian product of finite carriers
(identified by their sizes) into a carrier, stored as a dense row-major table
(first coordinate most significant).  Carriers may be empty: a product with
an empty factor has no rows and the table is the empty tuple.  A term's
table is `syntax.denote` over Set's maps, built once by `set_multicategory`.

Model search follows SEM and Mace4: for each size vector it assigns the table
cells one at a time, ops in signature order and each table row-major, trying
values in ascending order.  Every ground instance of every axiom is checked
as soon as all the cells it reads are assigned (it waits on the first
unassigned cell it reads), and a mismatch prunes the branch.  The axioms'
ground instances are compiled once per size vector and kept on the theory, so
every search of one theory reuses them.  Cells and values are taken in the
order of the full product of all tables, so the complete tables are reached
in that order, less those some axiom instance rules out: the first model
found is the one the brute-force product gives first.  The ground instances
of the goal to `avoid` are compiled the same way, on each call, and a
complete table on which they all hold is skipped before any MultiMap is
built: in Set a term's table at a point is its ground value there.  Every
other complete table is confirmed by `satisfies_theory` and checked against
`avoid` with `satisfies`, so each model returned has passed the term
semantics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .context import ContextStructure, Letter, Word
from .finord import FinFn
from .syntax import (
    App, Equation, Signature, Term, Theory, TheoryError, Var, denote,
    is_r_context, term_str,
)


class ModelError(TheoryError):
    pass


def _row_index(doms: Sequence[int], args: Sequence[int]) -> int:
    idx = 0
    for a, d in zip(args, doms):
        idx = idx * d + a
    return idx


@dataclass(frozen=True)
class MultiMap:
    doms: tuple[int, ...]
    cod: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        size = 1
        for d in self.doms:
            if d < 0:
                raise ModelError("carrier sizes must be nonnegative")
            size *= d
        if self.cod < 0:
            raise ModelError("carrier sizes must be nonnegative")
        if len(self.table) != size:
            raise ModelError(
                f"table has {len(self.table)} entries, product needs {size}")
        for e in self.table:
            if not 0 <= e < self.cod:
                raise ModelError(f"table entry {e} outside carrier of size {self.cod}")

    def __call__(self, *args: int) -> int:
        if len(args) != len(self.doms):
            raise ModelError(
                f"expected {len(self.doms)} arguments, got {len(args)}")
        for a, d in zip(args, self.doms):
            if not 0 <= a < d:
                raise ModelError(f"argument {a} outside carrier of size {d}")
        return self.table[_row_index(self.doms, args)]


def table_from(doms: Sequence[int], cod: int, fn) -> MultiMap:
    rows = itertools.product(*(range(d) for d in doms))
    return MultiMap(tuple(doms), cod, tuple(fn(*r) for r in rows))


def identity_map(k: int) -> MultiMap:
    return MultiMap((k,), k, tuple(range(k)))


def theta_action(f: MultiMap, theta: FinFn,
                 target: Sequence[int]) -> MultiMap:
    """Reindex a multimap along theta: result(xs) = f(*theta.pull(xs)).

    `target` gives the carrier sizes of the result's domain word; f's
    domain must be theta.pull(target).
    """
    target = tuple(target)
    if len(f.doms) != theta.dom:
        raise ModelError(
            f"map has {len(f.doms)} arguments but theta.dom = {theta.dom}")
    if len(target) != theta.cod:
        raise ModelError(
            f"target word has {len(target)} carriers but theta.cod = {theta.cod}")
    if f.doms != theta.pull(target):
        raise ModelError(
            f"carrier mismatch: map has {f.doms}, theta pulls the target "
            f"back to {theta.pull(target)}")
    # f's row index is linear in the target point: coordinate j weighs the
    # sum of f's strides at the positions theta sends to j.
    weights = [0] * theta.cod
    stride = 1
    for i in reversed(range(theta.dom)):
        weights[theta.images[i] - 1] += stride
        stride *= f.doms[i]
    rows = [0]
    for d, w in zip(target, weights):
        rows = [r + a * w for r in rows for a in range(d)]
    return MultiMap(target, f.cod, tuple(f.table[r] for r in rows))


def compose_multi(g: MultiMap, fs: Sequence[MultiMap]) -> MultiMap:
    """Pointwise composite g(f1(..), .., fn(..)) on the concatenated domains."""
    if len(fs) != len(g.doms):
        raise ModelError(f"g expects {len(g.doms)} inner maps, got {len(fs)}")
    for f, d in zip(fs, g.doms):
        if f.cod != d:
            raise ModelError(f"inner codomain {f.cod} does not match {d}")
    doms = tuple(d for f in fs for d in f.doms)
    # Row-major order over the concatenated domains is the product of the
    # inner tables' rows.
    return MultiMap(doms, g.cod, tuple(
        g.table[_row_index(g.doms, vals)]
        for vals in itertools.product(*(f.table for f in fs))))


# ---------------------------------------------------------------------------
# Models


@dataclass(frozen=True)
class FinSetModel:
    """Carriers per sort (size k means {0..k-1}) plus one table per op.

    The signature and context structure ride along so terms can be
    interpreted without extra arguments.
    """

    signature: Signature
    structure: ContextStructure
    carriers: Mapping[str, int]
    op_tables: Mapping[str, MultiMap]

    def __post_init__(self) -> None:
        for s in self.signature.sorts:
            if s not in self.carriers or self.carriers[s] < 0:
                raise ModelError(f"missing or negative carrier for sort {s}")
        for name, decl in self.signature.ops.items():
            t = self.op_tables.get(name)
            if t is None:
                raise ModelError(f"missing table for op {name}")
            want = tuple(self.carriers[s] for s in decl.arity)
            if t.doms != want or t.cod != self.carriers[decl.result]:
                raise ModelError(f"table for op {name} has the wrong shape")


def _require_context(R: ContextStructure, v: Word, t: Term) -> None:
    if not is_r_context(R, v, t):
        raise ModelError(
            f"[{' '.join(x.name for x in v)}] is not a context for "
            f"{term_str(t)} under {R}")


def set_multicategory(m: FinSetModel) -> tuple[Callable, ...]:
    """Set's `ident`, `op`, `compose` and `act` over m, for `syntax.denote`:
    identity tables, op tables, `compose_multi` and `theta_action`."""
    return (lambda sort: identity_map(m.carriers[sort]),
            m.op_tables.__getitem__, compose_multi,
            lambda f, th, b: theta_action(f, th, [m.carriers[s] for s in b]))


def eval_term(m: FinSetModel, v: Word, t: Term) -> MultiMap:
    """The table of t in context v: `syntax.denote` over Set's maps."""
    R = m.structure
    _require_context(R, v, t)
    return denote(R, v, t, *set_multicategory(m))


def satisfies(m: FinSetModel, eq: Equation) -> bool:
    return eval_term(m, eq.ctx, eq.lhs) == eval_term(m, eq.ctx, eq.rhs)


def satisfies_theory(m: FinSetModel, E: Theory) -> bool:
    return all(satisfies(m, eq) for eq in E.equations)


# ---------------------------------------------------------------------------
# Model search
#
# The cells of all op tables form one flat list `val`: ops in signature order,
# each table row-major, -1 for a cell not yet assigned.  A ground evaluator
# gives a term's value at a fixed point of its letters, or -1 - j when it
# reads the unassigned cell j.

_Ground = Callable[[list[int]], int]
_Layout = Mapping[str, tuple[int, tuple[int, ...]]]  # op -> (offset, doms)


def _ground(t: Term, point: Mapping[Letter, int], layout: _Layout) -> _Ground:
    if isinstance(t, Var):
        c = point[t.letter]
        return lambda val: c
    assert isinstance(t, App)
    off, doms = layout[t.op]
    if all(isinstance(a, Var) for a in t.args):
        # The cell is fixed; reading it directly halves the search time on
        # the Eckmann-Hilton theory at size 3.
        j = off + _row_index(doms, [point[a.letter] for a in t.args])

        def cell(val: list[int]) -> int:
            v = val[j]
            return v if v >= 0 else -1 - j
        return cell
    subs = tuple(zip([_ground(a, point, layout) for a in t.args], doms))

    def node(val: list[int]) -> int:
        idx = 0
        for sub, d in subs:
            a = sub(val)
            if a < 0:
                return a
            idx = idx * d + a
        v = val[off + idx]
        return v if v >= 0 else -1 - off - idx
    return node


def _instances(eqs: Sequence[Equation], sizes: Mapping[str, int],
               layout: _Layout) -> list[tuple[_Ground, _Ground]]:
    """Both sides of every ground instance of every equation; an equation
    whose context has an empty carrier has none."""
    out = []
    for eq in eqs:
        for values in itertools.product(*(range(sizes[x.sort]) for x in eq.ctx)):
            point = dict(zip(eq.ctx, values))
            out.append((_ground(eq.lhs, point, layout),
                        _ground(eq.rhs, point, layout)))
    return out


def _check(instances: Sequence[tuple[_Ground, _Ground]], val: list[int],
           watch: list[list], added: list[int]) -> bool:
    """False if some instance whose cells are all assigned fails; each other
    instance moves to the watch list of the first unassigned cell it reads,
    and that cell goes on `added` so the move can be undone."""
    for inst in instances:
        a = inst[0](val)
        if a >= 0:
            b = inst[1](val)
            if b >= 0:
                if a != b:
                    return False
                continue
            a = b
        j = -1 - a
        watch[j].append(inst)
        added.append(j)
    return True


def _op_tables(E: Theory, sizes: Mapping[str, int],
               avoid: Optional[Equation]) -> Iterator[dict[str, MultiMap]]:
    """Every assignment of op tables on these carriers whose ground axiom
    instances all hold and, given `avoid`, some ground instance of `avoid`
    fails, by backtracking over the cells in flat order with values
    ascending.  That is the order of the full product of all tables (first
    op most significant, each table row-major), with the assignments that
    some instance rules out left away."""
    sig = E.signature
    layout: dict[str, tuple[int, tuple[int, ...]]] = {}
    cods: list[int] = []
    for name, decl in sig.ops.items():
        doms = tuple(sizes[s] for s in decl.arity)
        layout[name] = (len(cods), doms)
        cods.extend([sizes[decl.result]] * math.prod(doms))
    goal = None if avoid is None else _instances([avoid], sizes, layout)
    n = len(cods)
    val = [-1] * n
    watch: list[list] = [[] for _ in range(n)]
    compiled = E._memo.setdefault("instances", {})  # by size vector
    key = tuple(sizes[s] for s in sig.sorts)
    if key not in compiled:
        compiled[key] = _instances(E.equations, sizes, layout)
    if not _check(compiled[key], val, watch, []):
        return
    added: list[list[int]] = [[] for _ in range(n)]
    k = 0
    while k >= 0:
        if k == n:
            if goal is None or not all(lhs(val) == rhs(val)
                                       for lhs, rhs in goal):
                yield {name: MultiMap(doms, sizes[sig.ops[name].result],
                                      tuple(val[off:off + math.prod(doms)]))
                       for name, (off, doms) in layout.items()}
            k -= 1
            continue
        for j in added[k]:  # undo what the previous value of cell k moved
            watch[j].pop()
        added[k].clear()
        v = val[k] + 1
        if v == cods[k]:
            val[k] = -1
            k -= 1
        else:
            val[k] = v
            if _check(watch[k], val, watch, added[k]):
                k += 1


def iter_models(E: Theory, max_size: int,
                avoid: Optional[Equation] = None) -> Iterator[FinSetModel]:
    """All models of E with carriers of size <= max_size that fail `avoid`,
    in the fixed order: size vectors ascending lexicographically, then tables
    as in `_op_tables`.  A negative `max_size`, or an `avoid` whose context
    does not govern a side, raises ModelError here, before any search.

    The search leaves out the tables on which every ground instance of
    `avoid` holds.  That is exact: in Set every reindexing is substitution,
    so a term's table at a point is its ground value there.  Each table it
    gives is confirmed by `satisfies_theory` and checked against `avoid` with
    `satisfies` before it is yielded."""
    if max_size < 0:
        raise ModelError("max_size must be >= 0")
    if avoid is not None:
        for side in (avoid.lhs, avoid.rhs):
            _require_context(E.structure, avoid.ctx, side)
    return _models(E, max_size, avoid)


def _models(E: Theory, max_size: int,
            avoid: Optional[Equation]) -> Iterator[FinSetModel]:
    sorts = E.signature.sorts
    for sizes_vec in itertools.product(range(max_size + 1), repeat=len(sorts)):
        sizes = dict(zip(sorts, sizes_vec))
        for tables in _op_tables(E, sizes, avoid):
            m = FinSetModel(E.signature, E.structure, sizes, tables)
            if satisfies_theory(m, E) and (
                    avoid is None or not satisfies(m, avoid)):
                yield m


def find_model(E: Theory, max_size: int, avoid: Optional[Equation] = None
               ) -> Optional[FinSetModel]:
    """The first model of `iter_models`, or None within the bound."""
    return next(iter_models(E, max_size, avoid), None)


def format_model(m: FinSetModel) -> str:
    lines = []
    for s in m.signature.sorts:
        lines.append(f"carrier {s} = {m.carriers[s]}")
    for name in m.signature.ops:
        row = " ".join(map(str, m.op_tables[name].table))
        lines.append(f"table {name} : {row}".rstrip())
    return "\n".join(lines)
