"""Multi-sorted signatures, terms, equations, theories, and their DSL.

Terms are interned: building the same tree twice yields the same object, so
they compare and hash by identity, in C, inside the saturation engine.  The
DSL is line-oriented; see `parse_theory` for the grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from .context import (
    ContextStructure, ContextError, Letter, Word, check_context, embedding,
    holds, parse_structure, terminal_context,
)


class TheoryError(ValueError):
    """Base class for everything a malformed theory can raise."""


class ParseError(TheoryError):
    def __init__(self, msg: str, line: int, col: int = 0):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


class TypingError(TheoryError):
    pass


class EquationContextError(TheoryError):
    pass


@dataclass(frozen=True)
class OpDecl:
    arity: tuple[str, ...]
    result: str


@dataclass(frozen=True)
class Signature:
    sorts: tuple[str, ...]
    ops: Mapping[str, OpDecl]

    def __post_init__(self) -> None:
        declared = set(self.sorts)
        if len(self.sorts) != len(declared):
            raise TypingError("duplicate sort declaration")
        for name, decl in self.ops.items():
            for s in decl.arity + (decl.result,):
                if s not in declared:
                    raise TypingError(f"op {name}: undeclared sort {s!r}")

    def op(self, name: str) -> OpDecl:
        try:
            return self.ops[name]
        except KeyError:
            raise TypingError(f"unknown op {name!r}") from None

    def constants(self) -> list[str]:
        return [n for n, d in self.ops.items() if not d.arity]


def signature(sorts: Sequence[str],
              ops: Mapping[str, tuple[Sequence[str], str]]) -> Signature:
    return Signature(tuple(sorts),
                     {n: OpDecl(tuple(a), r) for n, (a, r) in ops.items()})


# ---------------------------------------------------------------------------
# Terms (interned)


class Term:
    __slots__ = ("sort", "_depth", "_tau", "_repr")
    sort: str

    def __repr__(self) -> str:
        return self._repr  # type: ignore[attr-defined]


class Var(Term):
    __slots__ = ("letter",)

    def __init__(self, letter: Letter):
        self.letter = letter
        self.sort = letter.sort
        self._depth = 1
        self._tau = (letter,)
        self._repr = letter.name

    def __reduce__(self):
        # Copies and unpickled terms are rebuilt through the intern table.
        return (var, (self.letter,))


class App(Term):
    __slots__ = ("op", "args")

    def __init__(self, op: str, sort: str, args: tuple[Term, ...]):
        self.op = op
        self.sort = sort
        self.args = args
        self._depth = 1 + max((a._depth for a in args), default=0)
        self._tau = tuple(x for a in args for x in a._tau)
        if args:
            self._repr = f"{op}({', '.join(a._repr for a in args)})"
        else:
            self._repr = op

    def __reduce__(self):
        return (_app, (self.op, self.sort, self.args))


_TERMS: dict[object, Term] = {}


def var(letter: Letter) -> Var:
    key = ("v", letter)
    t = _TERMS.get(key)
    if t is None:
        t = _TERMS[key] = Var(letter)
    return t  # type: ignore[return-value]


def app(sig: Signature, op: str, args: Sequence[Term] = ()) -> App:
    decl = sig.op(op)
    args = tuple(args)
    if len(args) != len(decl.arity):
        raise TypingError(
            f"op {op} expects {len(decl.arity)} arguments, got {len(args)}")
    for a, want in zip(args, decl.arity):
        if a.sort != want:
            raise TypingError(
                f"op {op}: argument {a!r} has sort {a.sort}, expected {want}")
    return _app(op, decl.result, args)


def _app(op: str, sort: str, args: tuple[Term, ...]) -> App:
    """The interned application: the one place that builds its intern key,
    which holds the result sort, as one op name may differ in it."""
    key = ("a", op, sort, args)
    t = _TERMS.get(key)
    if t is None:
        t = _TERMS[key] = App(op, sort, args)
    return t  # type: ignore[return-value]


def const(sig: Signature, name: str) -> App:
    return app(sig, name, ())


def term_depth(t: Term) -> int:
    return t._depth


def tau(t: Term) -> Word:
    """The left-to-right word of variables of t; constants contribute nothing."""
    return t._tau


def term_vars(t: Term) -> frozenset[Letter]:
    return frozenset(t._tau)


def term_str(t: Term) -> str:
    return repr(t)


# ---------------------------------------------------------------------------
# Renaming


def apply_renaming(s: Mapping[Letter, Term], t: Term) -> Term:
    """Structural substitution; every variable of t must be mapped, sort-safe."""
    if not t._tau:
        return t
    if isinstance(t, Var):
        try:
            image = s[t.letter]
        except KeyError:
            raise TypingError(f"renaming misses variable {t.letter.name}") from None
        if image.sort != t.sort:
            raise TypingError(
                f"renaming maps {t.letter.name}:{t.sort} to a {image.sort} term")
        return image
    assert isinstance(t, App)
    new_args = tuple(apply_renaming(s, a) for a in t.args)
    if new_args == t.args:
        return t
    return _app(t.op, t.sort, new_args)


def arg_contexts(R: ContextStructure, args: Sequence[Term]
                 ) -> Optional[tuple[Word, ...]]:
    """The terminal context of each argument, or None if one has none: an
    application composes at these words and embeds at their concatenation."""
    ws = tuple(terminal_context(R, a._tau) for a in args)
    return None if None in ws else ws


def denote(R: ContextStructure, v: Word, t: Term, ident: Callable,
           op: Callable, compose: Callable, act: Callable):
    """t in context v, in the multicategory of `ident(sort)`, `op(name)`,
    `compose(head, args)` and `act(f, theta, b)` (reindex f along theta onto
    v's sort word b): an application composes at its `arg_contexts` words,
    and each result is reindexed along its embedding.  An uncovered letter
    or an argument with no context raises EquationContextError."""
    if isinstance(t, Var):
        w, inner = (t.letter,), ident(t.sort)
    elif not t.args:
        w, inner = (), op(t.op)
    else:
        ws = arg_contexts(R, t.args)
        if ws is None:
            raise EquationContextError(
                f"an argument of {term_str(t)} has no context")
        w = sum(ws, ())
        inner = compose(op(t.op), [denote(R, w_i, a, ident, op, compose, act)
                                   for w_i, a in zip(ws, t.args)])
    try:
        theta = embedding(v, w)
    except KeyError:
        raise EquationContextError(
            f"context does not cover {term_str(t)}") from None
    return act(inner, theta, tuple(x.sort for x in v))


def is_r_context(R: ContextStructure, c: Word, t: Term) -> bool:
    return holds(R, c, tau(t))


def is_r_renaming(R: ContextStructure, s: Mapping[Letter, Term],
                  v: Word, w: Word, ws: Sequence[Word]) -> bool:
    """Check a substitution triple: each s(v[i]) has v[i]'s sort, w governs
    the concatenation of the ws, and each ws[i] governs the variable word of
    s(v[i])."""
    check_context(v)
    if set(s.keys()) != set(v):
        raise TypingError("renaming domain must equal the context letters")
    if len(ws) != len(v):
        raise TypingError("need one target context per context letter")
    if not holds(R, w, tuple(x for wi in ws for x in wi)):
        return False
    for x, wi in zip(v, ws):
        image = s[x]
        if image.sort != x.sort or not holds(R, wi, tau(image)):
            return False
    return True


# ---------------------------------------------------------------------------
# Equations and theories


@dataclass(frozen=True)
class Equation:
    name: str
    lhs: Term
    rhs: Term
    ctx: Word

    def __str__(self) -> str:
        return (f"{term_str(self.lhs)} ~ {term_str(self.rhs)} "
                f"ctx [{ctx_str(self.ctx)}]")


def ctx_str(c: Word) -> str:
    return " ".join(f"{x.name}:{x.sort}" for x in c)


def equation(name: str, lhs: Term, rhs: Term, ctx: Sequence[Letter],
             structure: Optional[ContextStructure] = None) -> Equation:
    ctx = check_context(tuple(ctx))
    if lhs.sort != rhs.sort:
        raise TypingError(
            f"equation {name or '<goal>'}: sides have sorts "
            f"{lhs.sort} and {rhs.sort}")
    eq = Equation(name, lhs, rhs, ctx)
    if structure is not None:
        validate_equation(structure, eq)
    return eq


def validate_equation(R: ContextStructure, eq: Equation) -> None:
    for side in (eq.lhs, eq.rhs):
        if not is_r_context(R, eq.ctx, side):
            raise EquationContextError(
                f"equation {eq.name or '<goal>'}: [{ctx_str(eq.ctx)}] is not a "
                f"valid context for {term_str(side)} under {R}")


class _Memo(dict):
    """A theory's tables that depend on it alone, by owner: the saturator's
    renaming tables, views, orders and templates, and the model search's
    compiled axiom instances.  A deep copy or an unpickled theory starts
    with an empty one, as the instances are closures."""

    def __reduce__(self):
        return (_Memo, ())


@dataclass(frozen=True)
class Theory:
    name: str
    signature: Signature
    structure: ContextStructure
    equations: tuple[Equation, ...]
    # Not an init field, so a theory rebuilt with `Theory(...)` starts empty.
    _memo: _Memo = field(default_factory=_Memo, init=False, compare=False,
                         repr=False)

    def __post_init__(self) -> None:
        seen = set()
        for eq in self.equations:
            if eq.name in seen:
                raise TheoryError(f"duplicate equation name {eq.name!r}")
            seen.add(eq.name)
            validate_equation(self.structure, eq)

    def axiom(self, name: str) -> Equation:
        for eq in self.equations:
            if eq.name == name:
                return eq
        raise TheoryError(f"no axiom named {name!r}")


# ---------------------------------------------------------------------------
# The DSL
#
#   theory <Name>
#   structure <structure-token>
#   sort <S> [<S> ...]            (each <S> an identifier)
#   op <name> : [<S> ...] -> <S>   (<name> an identifier)
#   eq <name> : <term> ~ <term> ctx [ <var>:<S> ... ]
#
# '#' starts a comment.  A term is read by `_parse_term` from its tokens:
# names (\w+, as op names and letters are identifiers) and '(', ')', ','.
# A bare name is a declared constant or a context variable; everything else
# is op(arg, ..., arg), where op() applies op to no arguments.


_TOKEN = re.compile(r"(\w+|[(),])|\S")


def _parse_term(text: str, line: int, col0: int, sig: Signature,
                ctx_sorts: Mapping[str, str]) -> Term:
    """One term, on an explicit stack of the applications still open, so no
    nesting depth reaches Python's recursion limit.  A token is a name, one
    of '(),', or any other non-space character, which is rejected; the
    tokens end in the sentinel ("", end of term), so a lookahead is one
    comparison."""
    toks: list[tuple[str, int]] = []
    for m in _TOKEN.finditer(text):
        if m[1] is None:
            raise ParseError(f"unexpected character {m[0]!r}", line,
                             col0 + m.start())
        toks.append((m[0], col0 + m.start()))
    toks.append(("", col0 + len(text)))
    open_apps: list[tuple[str, int, list[Term]]] = []
    i = 0
    while True:
        name, col = toks[i]
        if name in "(),":  # the sentinel "" too
            raise ParseError(f"expected a name, got {name!r}" if name
                             else "unexpected end of term", line, col)
        i += 1
        if toks[i][0] == "(" and toks[i + 1][0] != ")":
            open_apps.append((name, col, []))
            i += 1
            continue
        if toks[i][0] != "(" and name not in sig.ops:
            if name not in ctx_sorts:
                raise ParseError(f"{name!r} is neither a declared constant "
                                 "nor a context variable", line, col)
            t = var(Letter(ctx_sorts[name], name))
        else:
            # a declared constant, or name() applying name to no arguments
            if toks[i][0] == "(":
                i += 2
            try:
                t = const(sig, name)
            except TypingError as exc:
                raise ParseError(str(exc), line, col) from exc
        # t ends an argument: close each application it completes
        while open_apps:
            op, op_col, args = open_apps[-1]
            args.append(t)
            tok, tcol = toks[i]
            i += 1
            if tok == ",":
                break
            if tok != ")":
                raise ParseError(f"expected ',' or ')', got {tok!r}" if tok
                                 else "unexpected end of term", line, tcol)
            open_apps.pop()
            try:
                t = app(sig, op, args)
            except TypingError as exc:
                raise ParseError(str(exc), line, op_col) from exc
        else:
            if toks[i][0]:
                raise ParseError(f"trailing input {toks[i][0]!r}", line,
                                 toks[i][1])
            return t


def _parse_ctx_block(text: str, line: int, sig: Signature) -> Word:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("context must be bracketed: ctx [ x:S ... ]", line)
    entries = text[1:-1].split()
    letters: list[Letter] = []
    for entry in entries:
        name, sep, sort = entry.partition(":")
        if not sep or not name or not sort:
            raise ParseError(f"bad context entry {entry!r}", line)
        # A letter must print back as it was read, and a bare name in a term
        # is read as a constant first, so op names cannot be letters.
        if not name.isidentifier():
            raise ParseError(
                f"context letter {name!r} is not an identifier", line)
        if name in sig.ops:
            raise ParseError(
                f"context letter {name!r} is a declared op name", line)
        if sort not in sig.sorts:
            raise ParseError(f"undeclared sort {sort!r} in context", line)
        letters.append(Letter(sort, name))
    try:
        return check_context(tuple(letters))
    except ContextError as exc:
        raise ParseError(str(exc), line) from exc


def parse_equation_text(sig: Signature, text: str, *, name: str = "",
                        line: int = 1,
                        structure: Optional[ContextStructure] = None) -> Equation:
    """Parse '<term> ~ <term> ctx [ x:S ... ]' against a signature."""
    body, sep, ctx_part = text.partition(" ctx ")
    if not sep:
        raise ParseError("equation needs a 'ctx [ ... ]' part", line)
    lhs_text, sep, rhs_text = body.partition("~")
    if not sep:
        raise ParseError("equation needs '~' between its sides", line)
    ctx = _parse_ctx_block(ctx_part, line, sig)
    ctx_sorts = {x.name: x.sort for x in ctx}
    lhs = _parse_term(lhs_text, line, 0, sig, ctx_sorts)
    rhs = _parse_term(rhs_text, line, len(lhs_text) + 1, sig, ctx_sorts)
    try:
        return equation(name, lhs, rhs, ctx, structure)
    except (TypingError, EquationContextError) as exc:
        raise type(exc)(f"line {line}: {exc}") from exc


def parse_theory(text: str) -> Theory:
    name = ""
    structure: Optional[ContextStructure] = None
    sorts: list[str] = []
    ops: dict[str, OpDecl] = {}
    raw_eqs: list[tuple[str, str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "theory":
            if not rest:
                raise ParseError("theory needs a name", lineno)
            name = rest
        elif head == "structure":
            try:
                structure = parse_structure(rest)
            except ContextError as exc:
                raise ParseError(str(exc), lineno) from exc
        elif head == "sort":
            if not rest:
                raise ParseError("sort needs at least one name", lineno)
            for s in rest.split():
                # The extended signature names hom sorts "[A B=>C]", so a
                # sort name must not carry brackets, '=>' or separators.
                if not s.isidentifier():
                    raise ParseError(f"sort name {s!r} is not an identifier",
                                     lineno)
                if s in sorts:
                    raise ParseError(f"duplicate sort {s!r}", lineno)
                sorts.append(s)
        elif head == "op":
            decl_name, sep, typing = rest.partition(":")
            decl_name = decl_name.strip()
            if not sep or not decl_name:
                raise ParseError("op syntax: op <name> : [<S> ...] -> <S>", lineno)
            if not decl_name.isidentifier():
                raise ParseError(f"op name {decl_name!r} is not an identifier",
                                 lineno)
            if decl_name in ops:
                raise ParseError(f"duplicate op {decl_name!r}", lineno)
            arity_text, sep, result = typing.partition("->")
            if not sep:
                raise ParseError("op typing needs '->'", lineno)
            arity = tuple(arity_text.split())
            result = result.strip()
            for s in arity + (result,):
                if s not in sorts:
                    raise ParseError(f"undeclared sort {s!r}", lineno)
            ops[decl_name] = OpDecl(arity, result)
        elif head == "eq":
            eq_name, sep, body = rest.partition(":")
            eq_name = eq_name.strip()
            if not sep or not eq_name:
                raise ParseError("eq syntax: eq <name> : <t> ~ <t> ctx [...]",
                                 lineno)
            if any(eq_name == seen for seen, _, _ in raw_eqs):
                raise ParseError(f"duplicate equation name {eq_name!r}", lineno)
            raw_eqs.append((eq_name, body.strip(), lineno))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)

    if structure is None:
        raise ParseError("theory is missing a 'structure' line", 1)
    sig = Signature(tuple(sorts), ops)
    eqs = tuple(
        parse_equation_text(sig, body, name=eq_name, line=lineno,
                            structure=structure)
        for eq_name, body, lineno in raw_eqs)
    return Theory(name, sig, structure, eqs)
