"""The extended signature and the bounded universal-model quotient.

The extended signature has one sort per (argument word, result sort) pair and
four symbol families: composition, identities, reindexing actions for every
admitted finite-ordinal function within bounds, and the original ops as
constants.  Every sort and symbol name is built once, by `build_sigma`, from
a structured key; code that needs a symbol's shape reads the key from the
symbol table and never parses the name.  The categorization axioms make those
symbols behave like a multicategory; internalizing a theory adds one closed
equation per axiom, whose sides are read by `syntax.denote`, the recursion
that also gives a term's table in a finite-set model; `_read` takes a
closed term back over the same four maps, to tables or to printed forms.
The initial model is then the quotient of closed terms by the ground
congruence closure of the closed axiom instances (Birkhoff), which the
shared saturation engine, run ground, computes at bounded depth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from .context import CARTESIAN, ContextStructure, Letter, Word, delta_of
from .finord import (
    FinFn, all_functions, compose as fn_compose, coproduct,
    identity as fn_identity, similarity_component,
)
from .setmodel import FinSetModel, MultiMap, set_multicategory
from .syntax import (
    Equation, EquationContextError, OpDecl, Signature, Term, Theory,
    TheoryError, Var, app, denote, equation, term_str, var,
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
    `name_of` maps every key to its name and `key_of` every name back to its
    key; nothing parses a name."""

    base: Signature
    structure: ContextStructure
    max_arity: int
    signature: Signature = field(compare=False)
    name_of: Mapping[tuple, str] = field(compare=False)
    key_of: Mapping[str, tuple] = field(compare=False)
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
    name_of: dict[tuple, str] = {}
    key_of: dict[str, tuple] = {}
    for a in _words(S, max_arity):
        for b in S:
            name = f"[{' '.join(a)}=>{b}]"
            key_of[name] = ("hom", a, b)
            name_of[("hom", a, b)] = name
    sorts = tuple(key_of)
    ops: dict[str, OpDecl] = {}

    def hom(a: Sequence[str], b: str) -> str:
        return name_of[("hom", tuple(a), b)]

    def declare(name: str, key: tuple, arity: tuple[str, ...],
                result: str) -> None:
        ops[name] = OpDecl(arity, result)
        key_of[name] = key
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

    return SigmaSignature(base, R, max_arity, Signature(sorts, ops), name_of,
                          key_of, tuple(thetas))


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
    homs = [S.key_of[g.sort] for g in args]
    name = S.comp_name([a for _, a, _ in homs], [b for _, _, b in homs],
                       S.key_of[head.sort][2])
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
    return _categorization(S, lambda ctx: True)


def _categorization(S: SigmaSignature,
                    keep: Callable[[Word], bool]) -> list[Equation]:
    """The instances of `categorization_axioms(S)` whose context `keep`
    accepts, under the names they have there.  `keep` sees each in-bound
    instance's context before either side is built, and a rejected instance
    is never built."""
    out: list[Equation] = []
    base_sorts = S.base.sorts
    A = S.max_arity
    # Shapes with several composition slots grow factorially in the arity
    # bound; cap them at three while the identity and unit-action laws keep
    # the full bound (they are what strips the wrappers off internalized
    # equation sides).
    A3 = min(A, 3)
    counter = itertools.count()

    def emit(tag: str, letters: Sequence[Var],
             sides: Callable[[], tuple[Term, Term]]) -> None:
        number = next(counter)
        ctx = tuple(v.letter for v in letters)
        if keep(ctx):
            out.append(equation(f"cat:{tag}:{number}", *sides(), ctx))

    # identity laws and the unit action: a hom word has at most max_arity
    # letters, and every structure admits identities
    for sort in S.signature.sorts:
        _, a, d = S.key_of[sort]
        h = _hvar(S, "h", a, d)
        emit("idl", [h], lambda: (
            _comp(S, app(S.signature, S.id_name(d)), [h]), h))
        emit("idr", [h], lambda: (
            _comp(S, h, [app(S.signature, S.id_name(c)) for c in a]), h))
        emit("actid", [h], lambda: (
            _act(S, fn_identity(len(a)), a, d, h), h))

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
                    emit("actcomp", [h], lambda: (
                        _act(S, comp_fn, b, c, h),
                        _act(S, phi, b, c, _act(S, theta, b_phi, c, h))))

    # The interchange schemas' left sides are in bounds for every shape;
    # their right sides compose and reindex at words that may not be, and
    # an instance whose right-side symbol keys have no name is skipped
    # unnumbered, before `keep` is asked.

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
                    flat = tuple(x for b in b_words for x in b)
                    if (("comp", theta.pull(b_words), cs_theta, d)
                            not in S.name_of
                            or ("act", sim, flat, d) not in S.name_of):
                        continue
                    h = _hvar(S, "h", cs_theta, d)
                    gs = [_hvar(S, f"g{i + 1}", b_words[i], cs[i])
                          for i in range(n)]
                    emit("actout", [h, *gs], lambda: (
                        _comp(S, _act(S, theta, cs, d, h), gs),
                        _act(S, sim, flat, d, _comp(S, h, theta.pull(gs)))))

    # interchange, inner side:
    #   comp(h, theta1* g1, .., thetan* gn) = (theta1+..+thetan)* comp(h, g..)
    for n in range(A3 + 1):
        for cs in itertools.product(base_sorts, repeat=n):
            for d in base_sorts:
                for b_words in _arg_splits(base_sorts, n, A3):
                    theta_lists = [[t for t in S.thetas if t.cod == len(b)]
                                   for b in b_words]
                    for thetas in itertools.product(*theta_lists):
                        # degenerate, both sides identical; this includes
                        # the n = 0 shape, so the coproduct below has a term
                        if all(t.is_identity() for t in thetas):
                            continue
                        total = coproduct(list(thetas))
                        pulled = tuple(th.pull(b)
                                       for b, th in zip(b_words, thetas))
                        flat = tuple(x for b in b_words for x in b)
                        if (("comp", pulled, cs, d) not in S.name_of
                                or ("act", total, flat, d) not in S.name_of):
                            continue
                        h = _hvar(S, "h", cs, d)
                        gs = [_hvar(S, f"g{i + 1}", pulled[i], cs[i])
                              for i in range(n)]
                        emit("actin", [h, *gs], lambda: (
                            _comp(S, h, [
                                _act(S, th, b, cs[i], gs[i])
                                for i, (b, th) in enumerate(
                                    zip(b_words, thetas))]),
                            _act(S, total, flat, d, _comp(S, h, gs))))

    # associativity (bounded shapes): every composition has at most A3
    # slots and A3 letters
    for n in range(1, A3 + 1):
        for cs in itertools.product(base_sorts, repeat=n):
            for d in base_sorts:
                for m_vec in itertools.product(range(A3 + 1), repeat=n):
                    if sum(m_vec) > A3:
                        continue
                    for b_words in itertools.product(*(
                            itertools.product(base_sorts, repeat=k)
                            for k in m_vec)):
                        for a_words in _arg_splits(base_sorts, sum(m_vec), A3):
                            h = _hvar(S, "h", cs, d)
                            gs = [_hvar(S, f"g{i + 1}", b_words[i], cs[i])
                                  for i in range(n)]
                            flat_bs = [x for b in b_words for x in b]
                            fs = [_hvar(S, f"f{j + 1}", a_words[j], flat_bs[j])
                                  for j in range(sum(m_vec))]
                            emit("assoc", [h, *gs, *fs],
                                 lambda: _assoc_sides(S, h, gs, fs, m_vec))
    return out


def _assoc_sides(S: SigmaSignature, h: Term, gs: Sequence[Term],
                 fs: Sequence[Term], m_vec: Sequence[int]
                 ) -> tuple[Term, Term]:
    """comp(comp(h, gs), fs) and comp(h, comp(g_i, its m_vec[i] fs)..)."""
    inners = []
    pos = 0
    for g, k in zip(gs, m_vec):
        inners.append(_comp(S, g, fs[pos:pos + k]))
        pos += k
    return _comp(S, _comp(S, h, gs), fs), _comp(S, h, inners)


# ---------------------------------------------------------------------------
# Internalization


def internalize_term(S: SigmaSignature, v: Word, t: Term) -> Term:
    """The closed extended-signature term denoting t as a multimorphism on
    the sorts of v: `syntax.denote` over id[c], op:f, comp and act.  Only
    the outermost reindexing can fall outside Delta_R, as every inner one
    embeds at an argument's terminal context."""
    R = S.structure

    def act(h: Term, theta: FinFn, b: tuple[str, ...]) -> Term:
        if not delta_of(R, theta):
            raise UniversalError(
                f"embedding of {term_str(t)} not admitted by {R}")
        return _act(S, theta, b, S.key_of[h.sort][2], h)

    try:
        return denote(R, v, t, lambda c: app(S.signature, S.id_name(c)),
                      lambda f: app(S.signature, S.op_name(f)),
                      lambda head, args: _comp(S, head, args), act)
    except EquationContextError as exc:
        raise UniversalError(str(exc)) from None


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
    return _extended_theory(S, E, categorization_axioms(S))


def _extended_theory(S: SigmaSignature, E: Theory,
                     categorization: Sequence[Equation]) -> Theory:
    return Theory(f"{E.name}^", S.signature, CARTESIAN,
                  tuple(categorization) + tuple(internalize(E, S)))


# ---------------------------------------------------------------------------
# The bounded initial-model quotient


def enumerate_pure_terms(S: SigmaSignature, depth: int
                         ) -> dict[str, list[Term]]:
    """All closed extended-signature terms of depth 1 or 2, per sort: the
    constants, then at depth 2 each symbol applied to constants."""
    if depth not in (1, 2):
        raise UniversalError(f"pure terms go to depth 1 or 2, not {depth}")
    sig = S.signature
    consts: dict[str, list[Term]] = {s: [] for s in sig.sorts}
    for name, decl in sig.ops.items():
        if not decl.arity:
            consts[decl.result].append(app(sig, name))
    out = {s: list(terms) for s, terms in consts.items()}
    for name, decl in sig.ops.items():
        if depth == 2 and decl.arity:
            out[decl.result].extend(
                app(sig, name, list(combo)) for combo in
                itertools.product(*(consts[s] for s in decl.arity)))
    return out


@dataclass
class HomPartition:
    sigma: SigmaSignature
    classes: list[list[Term]]
    truncated_by: tuple[str, ...]
    _engine: _Saturator = field(repr=False)

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

    A categorization instance with a letter that has no round-1 target is
    never built.  The engine instantiates seeds in round 1 only, every
    later event is closed, and nothing reads the lettered spaces, so such a
    seed can affect no class.  Round 1's targets are known from the closed
    starting material alone, registered first, and the lookups for a
    skipped instance still flag what they drop.  Skipping never lowers the
    engine's `depth_cap`, which `seed` raises to the depth of the seeds'
    sides: every categorization side has depth at most 3, and the
    action-composition instance along the identity of [1] on [c => c],
    act(act(h)) of depth 3, is always kept, as id[c] is a target for h.
    """
    for sort in (*hom[0], hom[1]):
        if sort not in E.signature.sorts:
            raise UniversalError(f"unknown sort {sort}")
    if sigma is None:
        sigma = default_sigma(E, hom)
    universe = enumerate_pure_terms(sigma, min(2, bounds.max_term_depth))
    hom_name = sigma.hom_sort_name(tuple(hom[0]), hom[1])
    seeds = [((), t) for terms in (*universe.values(), extra_terms)
             for t in terms]
    # The closed starting material fixes round 1's targets; seed only the
    # categorization instances instantiated there (see the docstring).
    engine = _Saturator(_extended_theory(sigma, E, ()), bounds,
                        extra_terms=seeds,
                        ground=lambda t: sigma.key_of[t.op][0] != "act")
    engine.seed(_categorization(sigma, engine.instantiable))
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


# `default_sigma`'s reading of a term: the widest word it composes at.
_WIDTHS = (lambda c: 0, lambda f: 0, lambda head, args: max(args, default=0),
           lambda width, theta, b: max(width, theta.dom))


def default_sigma(E: Theory, hom: tuple[Sequence[str], str]
                  ) -> SigmaSignature:
    """The extended signature wide enough for the hom sort, each op and
    axiom context, and each word an axiom side composes at (a theta.dom)."""
    max_arity = max(
        [1, len(tuple(hom[0]))]
        + [len(d.arity) for d in E.signature.ops.values()]
        + [len(ax.ctx) for ax in E.equations]
        + [denote(E.structure, ax.ctx, side, *_WIDTHS)
           for ax in E.equations for side in (ax.lhs, ax.rhs)])
    return build_sigma(E.signature, E.structure, max_arity)


# ---------------------------------------------------------------------------
# Reading closed extended-signature terms


def _read(S: SigmaSignature, t: Term, ident: Callable, op: Callable,
          compose: Callable, act: Callable):
    """A closed extended-signature term in the multicategory of the maps
    `syntax.denote` takes: id[c] is ident(c), op:f is op(f), an action
    act(arg, theta, b) and a composite compose(head, args)."""
    if isinstance(t, Var):
        raise UniversalError("only closed terms can be interpreted")
    info = S.key_of.get(t.op)
    if info is None or info[0] == "hom":
        raise UniversalError(f"unknown symbol {t.op}")
    if info[0] == "id":
        return ident(info[1])
    if info[0] == "op":
        return op(info[1])
    args = [_read(S, a, ident, op, compose, act) for a in t.args]
    if info[0] == "act":
        return act(args[0], info[1], info[2])
    return compose(args[0], args[1:])


def sigma_interpret(S: SigmaSignature, m: FinSetModel, t: Term) -> MultiMap:
    """Evaluate a closed extended-signature term to a concrete table."""
    return _read(S, t, *set_multicategory(m))


def sigma_term_str(S: SigmaSignature, t: Term) -> str:
    """Readable rendering: comp(...), id[S], act[images](...), op:<name>."""
    return _read(S, t, S.id_name, S.op_name,
                 lambda head, args: f"comp({', '.join((head, *args))})",
                 lambda arg, theta, b:
                     f"act[{','.join(map(str, theta.images))}]({arg})")
