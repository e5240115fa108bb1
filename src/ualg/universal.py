"""The extended signature and the bounded universal-model quotient.

The extended signature has one sort per (argument word, result sort) pair and
four symbol families: composition, identities, reindexing actions for every
admitted finite-ordinal function within bounds, and the original ops as
constants.  Every sort and symbol name is built once, by `build_sigma`, from
a structured key; code that needs a symbol's shape reads the key from the
symbol table and never parses the name.  The categorization axioms make those
symbols behave like a multicategory; internalizing a theory adds one closed
equation per axiom.
The initial model is then the quotient of closed terms by the ground
congruence closure of the closed axiom instances (Birkhoff), which the
shared saturation engine, run ground, computes at bounded depth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from .context import (
    CARTESIAN, ContextStructure, Letter, Word, delta_of, embedding,
)
from .finord import (
    FinFn, all_functions, compose as fn_compose, coproduct,
    identity as fn_identity, similarity_component,
)
from .setmodel import (
    FinSetModel, MultiMap, compose_multi, identity_map, theta_action,
)
from .syntax import (
    App, Equation, OpDecl, Signature, Term, Theory, TheoryError, Var, app,
    arg_contexts, equation, term_depth, term_str, var,
)
from .deduction import Bounds, _Saturator, _term_key


class UniversalError(TheoryError):
    pass


# ---------------------------------------------------------------------------
# The extended signature


@dataclass(frozen=True)
class SigmaSignature:
    """The extended signature with its symbol table.

    Each sort and symbol name is built once, by `build_sigma`, next to its
    structured key: ("id", c), ("op", f), ("act", theta, b, c) or
    ("comp", a_words, bs, c), and ("hom", a, b) for the hom sort of arity a
    and result b.
    `sym_info` maps symbol names to keys, `hom_of` hom-sort names to (a, b),
    and `name_of` every key to its name; nothing parses a name back."""

    base: Signature
    structure: ContextStructure
    max_arity: int
    signature: Signature = field(compare=False)
    sym_info: Mapping[str, tuple] = field(compare=False)
    hom_of: Mapping[str, tuple[tuple[str, ...], str]] = field(compare=False)
    name_of: Mapping[tuple, str] = field(compare=False)
    thetas: tuple[FinFn, ...] = field(compare=False)

    def _lookup(self, key: tuple, what: Callable[[], str]) -> str:
        name = self.name_of.get(key)
        if name is None:
            raise UniversalError(f"{what()} outside bounds")
        return name

    def hom_sort_name(self, a: Sequence[str], b: str) -> str:
        return self._lookup(("hom", tuple(a), b),
                            lambda: f"hom sort {' '.join(a) or '()'} -> {b}")

    def id_name(self, c: str) -> str:
        return self._lookup(("id", c), lambda: f"identity symbol on {c}")

    def op_name(self, f: str) -> str:
        return self._lookup(("op", f), lambda: f"op symbol {f}")

    def act_name(self, theta: FinFn, b: Sequence[str], c: str) -> str:
        return self._lookup(
            ("act", theta, tuple(b), c),
            lambda: f"action symbol for {theta.images}->{theta.cod} on "
                    f"{' '.join(b) or '()'}")

    def comp_name(self, a_words: Sequence[Sequence[str]],
                  bs: Sequence[str], c: str) -> str:
        return self._lookup(("comp", tuple(map(tuple, a_words)), tuple(bs), c),
                            lambda: "composition symbol")


def _words(sorts: Sequence[str], max_len: int):
    for k in range(max_len + 1):
        yield from itertools.product(sorts, repeat=k)


def build_sigma(base: Signature, R: ContextStructure,
                max_arity: int) -> SigmaSignature:
    """Generate the extended signature within the arity bound, which also
    bounds the reindexing functions."""
    if max_arity < 1:
        raise UniversalError("bounds must be >= 1")
    S = base.sorts
    hom_of: dict[str, tuple[tuple[str, ...], str]] = {}
    name_of: dict[tuple, str] = {}
    for a in _words(S, max_arity):
        for b in S:
            name = f"[{' '.join(a)}=>{b}]"
            hom_of[name] = (a, b)
            name_of[("hom", a, b)] = name
    ops: dict[str, OpDecl] = {}
    sym_info: dict[str, tuple] = {}

    def hom(a: Sequence[str], b: str) -> str:
        return name_of[("hom", tuple(a), b)]

    def declare(name: str, key: tuple, arity: tuple[str, ...],
                result: str) -> None:
        ops[name] = OpDecl(arity, result)
        sym_info[name] = key
        name_of[key] = name

    for c in S:
        declare(f"id[{c}]", ("id", c), (), hom((c,), c))
    for f, decl in base.ops.items():
        if len(decl.arity) > max_arity:
            raise UniversalError(
                f"op {f} has arity {len(decl.arity)} beyond bound {max_arity}")
        declare(f"op:{f}", ("op", f), (), hom(decl.arity, decl.result))

    thetas = [theta for theta in all_functions(max_arity) if delta_of(R, theta)]
    for theta in thetas:
        tag = ",".join(map(str, theta.images)) + f"->{theta.cod}"
        for b in itertools.product(S, repeat=theta.cod):
            for c in S:
                declare(f"act[{tag}]{{{' '.join(b)}|{c}}}",
                        ("act", theta, b, c), (hom(theta.pull(b), c),),
                        hom(b, c))

    for n in range(max_arity + 1):
        for bs in itertools.product(S, repeat=n):
            for c in S:
                for a_words in _arg_splits(S, n, max_arity):
                    flat = tuple(x for a in a_words for x in a)
                    name = (f"comp{{{'|'.join(' '.join(a) for a in a_words)};"
                            f"{' '.join(bs)};{c}}}")
                    arity = (hom(bs, c),) + tuple(
                        hom(a, b) for a, b in zip(a_words, bs))
                    declare(name, ("comp", a_words, bs, c), arity,
                            hom(flat, c))

    sig = Signature(tuple(hom_of), ops)
    return SigmaSignature(base, R, max_arity, sig, sym_info, hom_of, name_of,
                          tuple(thetas))


def _arg_splits(S: Sequence[str], n: int, max_total: int):
    """All n-tuples of sort words with total length <= max_total."""
    if n == 0:
        yield ()
        return
    for first_len in range(max_total + 1):
        for first in itertools.product(S, repeat=first_len):
            for rest in _arg_splits(S, n - 1, max_total - first_len):
                yield (tuple(first),) + rest


# ---------------------------------------------------------------------------
# Categorization axioms


def _hvar(S: SigmaSignature, name: str, a: Sequence[str], b: str) -> Var:
    return var(Letter(S.hom_sort_name(a, b), name))


def _comp(S: SigmaSignature, head: Term, args: Sequence[Term]) -> Term:
    a_words = [S.hom_of[g.sort][0] for g in args]
    bs = [S.hom_of[g.sort][1] for g in args]
    name = S.comp_name(a_words, bs, S.hom_of[head.sort][1])
    return app(S.signature, name, [head, *args])


def _act(S: SigmaSignature, theta: FinFn, b: Sequence[str], c: str,
         arg: Term) -> Term:
    return app(S.signature, S.act_name(theta, b, c), [arg])


def categorization_axioms(S: SigmaSignature) -> list[Equation]:
    """Every in-bound instance of the seven multicategory schemas.

    Each instance uses pairwise distinct variables; contexts list them in
    written order.  Reindexing along a non-surjective function drops
    variables from the right-hand side, so the extended theory lives under
    the maximal structure, matching plain equational deduction over sets."""
    out: list[Equation] = []
    base_sorts = S.base.sorts
    A = S.max_arity
    # Shapes with several composition slots grow factorially in the arity
    # bound; cap them at three while the identity and unit-action laws keep
    # the full bound (they are what strips the wrappers off internalized
    # equation sides).
    A3 = min(A, 3)
    counter = itertools.count()

    def emit(tag: str, lhs: Term, rhs: Term, ctx: Sequence[Letter]) -> None:
        out.append(equation(f"cat:{tag}:{next(counter)}", lhs, rhs,
                            tuple(ctx)))

    # identity laws and the unit action: a hom word has at most max_arity
    # letters, and every structure admits identities
    for a, d in S.hom_of.values():
        h = _hvar(S, "h", a, d)
        emit("idl", _comp(S, app(S.signature, S.id_name(d)), [h]), h,
             (h.letter,))
        emit("idr", _comp(S, h, [app(S.signature, S.id_name(c)) for c in a]),
             h, (h.letter,))
        emit("actid", _act(S, fn_identity(len(a)), a, d, h), h, (h.letter,))

    # action composition: (phi . theta)* h = phi* (theta* h); phi . theta
    # stays in the family, which is closed under composition
    for phi in S.thetas:
        if phi.cod > A3:
            continue
        for theta in S.thetas:
            if theta.cod != phi.dom or theta.dom > A3:
                continue
            comp_fn = fn_compose(phi, theta)
            for b in itertools.product(base_sorts, repeat=phi.cod):
                b_phi = phi.pull(b)
                dom_word = theta.pull(b_phi)
                for c in base_sorts:
                    h = _hvar(S, "h", dom_word, c)
                    emit("actcomp", _act(S, comp_fn, b, c, h),
                         _act(S, phi, b, c, _act(S, theta, b_phi, c, h)),
                         (h.letter,))

    # interchange of action and composition, outer side:
    #   comp(theta* h, g_1..g_n) = theta'* comp(h, g_theta(1)..g_theta(m))
    for theta in S.thetas:
        n = theta.cod
        if n > A3 or theta.dom > A3:
            continue
        for cs in itertools.product(base_sorts, repeat=n):
            cs_theta = theta.pull(cs)
            for d in base_sorts:
                for b_words in _arg_splits(base_sorts, n, A3):
                    ks = tuple(len(b) for b in b_words)
                    sim = similarity_component(theta, ks)
                    h = _hvar(S, "h", cs_theta, d)
                    gs = [_hvar(S, f"g{i + 1}", b_words[i], cs[i])
                          for i in range(n)]
                    flat = tuple(x for b in b_words for x in b)
                    try:
                        lhs = _comp(S, _act(S, theta, cs, d, h), gs)
                        inner = _comp(S, h, theta.pull(gs))
                        rhs = _act(S, sim, flat, d, inner)
                    except UniversalError:
                        continue
                    emit("actout", lhs, rhs,
                         (h.letter,) + tuple(g.letter for g in gs))

    # interchange, inner side:
    #   comp(h, theta1* g1, .., thetan* gn) = (theta1+..+thetan)* comp(h, g..)
    for n in range(A3 + 1):
        for cs in itertools.product(base_sorts, repeat=n):
            for d in base_sorts:
                for b_words in _arg_splits(base_sorts, n, A3):
                    theta_lists = []
                    for b in b_words:
                        options = [t for t in S.thetas if t.cod == len(b)]
                        theta_lists.append(options)
                    for thetas in itertools.product(*theta_lists):
                        total = coproduct(list(thetas)) if thetas else None
                        h = _hvar(S, "h", cs, d)
                        gs = [_hvar(S, f"g{i + 1}", th.pull(b), cs[i])
                              for i, (b, th) in enumerate(zip(b_words, thetas))]
                        if all(t.is_identity() for t in thetas):
                            continue  # degenerate: both sides identical
                        try:
                            lhs = _comp(S, h, [
                                _act(S, th, b, cs[i], gs[i])
                                for i, (b, th) in enumerate(
                                    zip(b_words, thetas))])
                            inner = _comp(S, h, gs)
                            rhs = (_act(S, total, tuple(
                                x for b in b_words for x in b), d, inner)
                                if total is not None else inner)
                        except UniversalError:
                            continue
                        emit("actin", lhs, rhs,
                             (h.letter,) + tuple(g.letter for g in gs))

    # associativity (bounded shapes): every composition has at most A3
    # slots and A3 letters
    for n in range(1, A3 + 1):
        for cs in itertools.product(base_sorts, repeat=n):
            for d in base_sorts:
                for m_vec in itertools.product(range(A3 + 1), repeat=n):
                    if sum(m_vec) > A3:
                        continue
                    for b_words in _arg_splits(base_sorts, n, A3):
                        if tuple(len(b) for b in b_words) != m_vec:
                            continue
                        for a_words in _arg_splits(base_sorts, sum(m_vec), A3):
                            h = _hvar(S, "h", cs, d)
                            gs = [_hvar(S, f"g{i + 1}", b_words[i], cs[i])
                                  for i in range(n)]
                            flat_bs = [x for b in b_words for x in b]
                            fs = [_hvar(S, f"f{j + 1}", a_words[j], flat_bs[j])
                                  for j in range(sum(m_vec))]
                            lhs = _comp(S, _comp(S, h, gs), fs)
                            pos = 0
                            inners = []
                            for i in range(n):
                                k = m_vec[i]
                                inners.append(_comp(S, gs[i], fs[pos:pos + k]))
                                pos += k
                            rhs = _comp(S, h, inners)
                            emit("assoc", lhs, rhs,
                                 (h.letter,) + tuple(g.letter for g in gs)
                                 + tuple(f.letter for f in fs))
    return out


# ---------------------------------------------------------------------------
# Internalization


def internalize_term(S: SigmaSignature, v: Word, t: Term) -> Term:
    """The closed extended-signature term denoting t as a multimorphism on
    the sorts of v."""
    v_sorts = tuple(x.sort for x in v)
    if isinstance(t, Var):
        w: Word = (t.letter,)
        inner = app(S.signature, S.id_name(t.sort))
    elif not t.args:
        w = ()
        inner = app(S.signature, S.op_name(t.op))
    else:
        ws = arg_contexts(S.structure, t.args)
        if ws is None:
            raise UniversalError(f"an argument of {term_str(t)} has no context")
        w = sum(ws, ())
        head = app(S.signature, S.op_name(t.op))
        inner = _comp(S, head, [internalize_term(S, w_i, child)
                                for w_i, child in zip(ws, t.args)])
    try:
        theta = embedding(v, w)
    except KeyError:
        raise UniversalError(
            f"context does not cover {term_str(t)}") from None
    if not delta_of(S.structure, theta):
        raise UniversalError(
            f"embedding of {term_str(t)} not admitted by {S.structure}")
    return _act(S, theta, v_sorts, t.sort, inner)


def internalize(E: Theory, S: SigmaSignature) -> list[Equation]:
    """One closed equation per axiom, relating the internalized sides."""
    out = []
    for ax in E.equations:
        try:
            lhs = internalize_term(S, ax.ctx, ax.lhs)
            rhs = internalize_term(S, ax.ctx, ax.rhs)
        except UniversalError as exc:
            raise UniversalError(f"axiom {ax.name}: {exc}") from exc
        out.append(equation(f"int:{ax.name}", lhs, rhs, ()))
    return out


def sigma_theory(S: SigmaSignature, E: Theory) -> Theory:
    """The extended theory, under the maximal structure; `Theory` validates
    each axiom's context once."""
    eqs = tuple(categorization_axioms(S)) + tuple(internalize(E, S))
    return Theory(f"{E.name}^", S.signature, CARTESIAN, eqs)


# ---------------------------------------------------------------------------
# The bounded initial-model quotient


def enumerate_pure_terms(S: SigmaSignature, depth: int
                         ) -> dict[str, list[Term]]:
    """All closed extended-signature terms up to the given depth, per sort,
    depth by depth."""
    by_depth: dict[str, list[list[Term]]] = {
        s: [[] for _ in range(depth + 1)] for s in S.signature.sorts}
    for name, decl in S.signature.ops.items():
        if not decl.arity:
            by_depth[decl.result][1].append(app(S.signature, name))
    for d in range(2, depth + 1):
        for name, decl in S.signature.ops.items():
            if not decl.arity:
                continue
            pools = [
                [t for dd in range(1, d) for t in by_depth[s][dd]]
                for s in decl.arity]
            for combo in itertools.product(*pools):
                if max(term_depth(t) for t in combo) != d - 1:
                    continue
                by_depth[decl.result][d].append(
                    app(S.signature, name, list(combo)))
    return {s: [t for level in levels[1:] for t in level]
            for s, levels in by_depth.items()}


@dataclass
class HomPartition:
    sigma: SigmaSignature
    classes: list[list[Term]]
    truncated_by: tuple[str, ...]
    _engine: _Saturator = field(repr=False)

    @property
    def truncated(self) -> bool:
        return bool(self.truncated_by)

    def merged(self, a: Term, b: Term) -> bool:
        """Whether the bounded quotient identifies two closed terms; a term
        the quotient never met is still merged with itself."""
        return a is b or self._engine.holds_canonically((), a, b)


def universal_hom(E: Theory, hom: tuple[Sequence[str], str], bounds: Bounds,
                  extra_terms: Sequence[Term] = (),
                  sigma: Optional[SigmaSignature] = None) -> HomPartition:
    """Quotient the enumerated closed terms of one hom sort by the bounded
    ground congruence closure of the categorization and internalized axioms.

    By Birkhoff's completeness restricted to ground terms, two closed terms
    are equal in every model iff that closure joins them, so the engine runs
    ground.  Reindexing towers are skipped as targets (their collapses
    arrive through the action-composition axioms instead).  The enumeration
    frontier is depth 2 (or the depth bound, if smaller), with deeper terms
    entering as axiom subterms and derived conclusions, which keeps the
    congruence universe at desk scale.
    """
    if sigma is None:
        sigma = default_sigma(E, hom)
    universe = enumerate_pure_terms(sigma, min(2, bounds.max_term_depth))
    hom_name = sigma.hom_sort_name(tuple(hom[0]), hom[1])
    seeds = [((), t) for terms in (*universe.values(), extra_terms)
             for t in terms]
    engine = _Saturator(sigma_theory(sigma, E), bounds, extra_terms=seeds,
                        ground=lambda t: sigma.sym_info[t.op][0] != "act")
    engine.run()
    # Every seed is in the closed space; a class is listed from its least
    # member, and the classes in the order of their least members.
    space = engine.spaces[()]
    hom_terms = {t for _, t in seeds if t.sort == hom_name}
    grouped: dict[Term, list[Term]] = {}
    for t in sorted(hom_terms, key=_term_key):
        grouped.setdefault(space.find(t), []).append(t)
    return HomPartition(sigma, list(grouped.values()),
                        truncated_by=tuple(sorted(engine.truncated_by)),
                        _engine=engine)


def default_sigma(E: Theory, hom: tuple[Sequence[str], str]
                  ) -> SigmaSignature:
    max_arity = max(
        [1, len(tuple(hom[0]))]
        + [len(d.arity) for d in E.signature.ops.values()]
        + [len(ax.ctx) for ax in E.equations]
        + [_composition_width(E.structure, side)
           for ax in E.equations for side in (ax.lhs, ax.rhs)])
    return build_sigma(E.signature, E.structure, max_arity)


def _composition_width(R: ContextStructure, t: Term) -> int:
    """The longest word `internalize_term` composes at over t's subterms:
    the concatenation of an application's `arg_contexts`."""
    if not isinstance(t, App):
        return 0
    words = arg_contexts(R, t.args) or ()
    return max([sum(map(len, words))]
               + [_composition_width(R, child) for child in t.args])


# ---------------------------------------------------------------------------
# Interpreting closed extended-signature terms in a finite-set model


def sigma_interpret(S: SigmaSignature, m: FinSetModel, t: Term) -> MultiMap:
    """Evaluate a closed extended-signature term to a concrete table."""
    if isinstance(t, Var):
        raise UniversalError("only closed terms can be interpreted")
    assert isinstance(t, App)
    info = S.sym_info.get(t.op)
    if info is None:
        raise UniversalError(f"unknown symbol {t.op}")
    kind = info[0]
    if kind == "id":
        return identity_map(m.carriers[info[1]])
    if kind == "op":
        return m.op_tables[info[1]]
    if kind == "act":
        _, theta, b, _c = info
        target = tuple(m.carriers[s] for s in b)
        return theta_action(sigma_interpret(S, m, t.args[0]), theta, target)
    if kind == "comp":
        head = sigma_interpret(S, m, t.args[0])
        inner = [sigma_interpret(S, m, g) for g in t.args[1:]]
        return compose_multi(head, inner)
    raise UniversalError(f"unknown symbol kind {kind}")


def sigma_term_str(S: SigmaSignature, t: Term) -> str:
    """Readable rendering: comp(...), id[S], act[images](...), op:<name>."""
    if isinstance(t, Var):
        return t.letter.name
    assert isinstance(t, App)
    info = S.sym_info.get(t.op)
    if info is None:
        raise UniversalError(f"unknown symbol {t.op}")
    args = ", ".join(sigma_term_str(S, a) for a in t.args)
    if info[0] == "comp":
        return f"comp({args})"
    if info[0] == "act":
        return f"act[{','.join(map(str, info[1].images))}]({args})"
    return t.op
