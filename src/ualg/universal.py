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
from typing import Callable, Hashable, Mapping, Optional, Sequence

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


def _hvar(sort: str, name: str) -> Var:
    return var(Letter(sort, name))


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
    return _categorization(S, lambda n, sort: True)


def _schemas(S: SigmaSignature) -> list[tuple]:
    """The seven schemas as loop nests, (tags, step, sides, state, bounded)
    each, in numbering order.

    env holds the (shape, word) pairs chosen so far.  step(env) is None
    past the last level, else the next level's (shape, k) choices, each
    taken with every sort word of length k, and a map from a choice to the
    (letter count, name, word, result) of the letter it fixes, or None;
    the letters are h, g1.. and f1.. in written order.  Shapes and word
    lengths alone fix the choices.  An instance whose right side falls
    outside the bounds (the interchange laws compose and reindex at words
    that may) gets no choices past its last level, so it takes no number.
    sides(env, letters) is one (lhs, rhs) per tag; state(env), if given,
    is what the instances below env depend on; bounded says whether the
    bounds can leave an instance out.  A map is its index in thetas."""
    sig, thetas, A = S.signature, S.thetas, S.max_arity
    # Shapes with several composition slots grow factorially in the arity
    # bound; cap them at three while the identity and unit-action laws keep
    # the full bound (they are what strips the wrappers off internalized
    # equation sides).
    A3 = min(A, 3)
    splits = [[(None, k) for k in range(room + 1)] for room in range(A3 + 1)]
    by_cod = [[(j, 0) for j, t in enumerate(thetas) if t.cod == k]
              for k in range(A + 1)]
    # `build_sigma` composes words of total length at most max_arity, and
    # reindexes along admitted maps
    admitted, out_of_bounds = frozenset(thetas), ([], None)

    def split(env: tuple, start: int) -> list:  # words of total <= A3
        return splits[A3 - sum(len(w) for _, w in env[start:])]

    def ident(c: str) -> Term:
        return app(sig, S.id_name(c))

    # identity laws and the unit action on each hom sort [a => d]: a hom
    # word has at most max_arity letters, and every structure admits
    # identities
    def units(env):
        return None if env else ([(None, k + 1) for k in range(A + 1)],
                                 lambda _, w: (1, "h", w[:-1], w[-1]))

    def unit_sides(env, letters):
        (h,), a, d = letters, env[0][1][:-1], env[0][1][-1]
        return ((_comp(S, ident(d), [h]), h),
                (_comp(S, h, [ident(c) for c in a]), h),
                (_act(S, fn_identity(len(a)), a, d, h), h))

    # action composition: (phi . theta)* h = phi* (theta* h); phi . theta
    # stays in the family, which is closed under composition
    def actcomp(env):
        return None if env else (
            [((i, j), phi.cod + 1) for i, phi in enumerate(thetas)
             if phi.cod <= A3 for j, theta in enumerate(thetas)
             if theta.cod == phi.dom and theta.dom <= A3],
            lambda ij, w: (1, "h", thetas[ij[1]].pull(
                thetas[ij[0]].pull(w[:-1])), w[-1]))

    def actcomp_sides(env, letters):
        ((i, j), w), (h,) = env[0], letters
        phi, theta, b, c = thetas[i], thetas[j], w[:-1], w[-1]
        return ((_act(S, fn_compose(phi, theta), b, c, h),
                 _act(S, phi, b, c, _act(S, theta, phi.pull(b), c, h))),)

    # interchange of action and composition, outer side:
    #   comp(theta* h, g_1..g_n) = theta'* comp(h, g_theta(1)..g_theta(m))
    # g_i : [b_i => c_i]; levels: theta and c_1..c_n d, then each b_i
    def actout(env):
        if not env:
            return ([(i, t.cod + 1) for i, t in enumerate(thetas)
                     if t.cod <= A3 and t.dom <= A3],
                    lambda i, w: (thetas[i].cod + 1, "h",
                                  thetas[i].pull(w[:-1]), w[-1]))
        (i, w), k = env[0], len(env)
        theta = thetas[i]
        if k <= theta.cod:
            return split(env, 1), lambda _, b: (theta.cod + 1, f"g{k}", b,
                                                 w[k - 1])
        ks = [len(b) for _, b in env[1:]]
        if (sum(theta.pull(ks)) <= A
                and similarity_component(theta, ks) in admitted):
            return None
        return out_of_bounds

    def actout_sides(env, letters):
        (i, w), h, gs = env[0], letters[0], letters[1:]
        theta, cs, d, bs = thetas[i], w[:-1], w[-1], [b for _, b in env[1:]]
        sim = similarity_component(theta, [len(b) for b in bs])
        return ((_comp(S, _act(S, theta, cs, d, h), gs),
                 _act(S, sim, sum(bs, ()), d, _comp(S, h, theta.pull(gs)))),)

    # interchange, inner side:
    #   comp(h, theta1* g1, .., thetan* gn) = (theta1+..+thetan)* comp(h, g..)
    # g_i : [theta_i* b_i => c_i]; levels: n and c_1..c_n d, each b_i, then
    # each theta_i : [m_i] -> [len b_i]
    def actin(env):
        if not env:
            return ([(n, n + 1) for n in range(A3 + 1)],
                    lambda n, w: (n + 1, "h", w[:-1], w[-1]))
        (n, w), k = env[0], len(env)
        if k <= n:
            return split(env, 1), None
        if k <= 2 * n:
            b = env[k - n][1]
            return by_cod[len(b)], lambda j, _: (
                n + 1, f"g{k - n}", thetas[j].pull(b), w[k - n - 1])
        ths = [thetas[j] for j, _ in env[n + 1:]]
        # all identities is degenerate, both sides identical; that includes
        # the n = 0 shape, so the coproduct below has a term
        if (not all(t.is_identity() for t in ths)
                and sum(t.dom for t in ths) <= A
                and coproduct(ths) in admitted):
            return None
        return out_of_bounds

    def actin_sides(env, letters):
        (n, w), h, gs = env[0], letters[0], letters[1:]
        cs, d, bs = w[:-1], w[-1], [b for _, b in env[1:n + 1]]
        ths = [thetas[j] for j, _ in env[n + 1:]]
        return ((_comp(S, h, [_act(S, t, b, c, g)
                              for b, t, c, g in zip(bs, ths, cs, gs)]),
                 _act(S, coproduct(ths), sum(bs, ()), d, _comp(S, h, gs))),)

    # associativity (bounded shapes): every composition has at most A3
    # slots and A3 letters.  g_i : [b_i => c_i], f_j : [a_j => (b_1..)_j];
    # levels: n and c_1..c_n d, then m_1..m_n (so the letter count), each
    # b_i of length m_i, then each a_j
    def assoc(env):
        if not env:
            return [(n, n + 1) for n in range(1, A3 + 1)], None
        (n, w), k = env[0], len(env)
        if k == 1:
            return ([(m, 0) for m in itertools.product(range(A3 + 1), repeat=n)
                     if sum(m) <= A3],
                    lambda m, _: (1 + n + sum(m), "h", w[:-1], w[-1]))
        m = env[1][0]
        count = 1 + n + sum(m)
        if k <= n + 1:
            return [(None, m[k - 2])], lambda _, b: (count, f"g{k - 1}", b,
                                                     w[k - 2])
        if k <= count:
            flat = sum((b for _, b in env[2:n + 2]), ())
            return split(env, n + 2), lambda _, a: (
                count, f"f{k - n - 1}", a, flat[k - n - 2])
        return None

    def assoc_state(env):  # the b lengths left, the a slots left, their room
        if len(env) < 2:
            return len(env), env and env[0][0]
        (n, _), m, k = env[0], env[1][0], len(env)
        if k <= n + 1:
            return m[k - 2:], sum(m), A3
        return (), n + 2 + sum(m) - k, A3 - sum(len(a) for _, a in env[n + 2:])

    def assoc_sides(env, letters):
        """comp(comp(h, gs), fs) and comp(h, comp(g_i, its m_i fs)..)."""
        (n, _), m = env[0], env[1][0]
        h, gs, fs = letters[0], letters[1:n + 1], letters[n + 1:]
        starts = [sum(m[:i]) for i in range(n + 1)]
        inners = [_comp(S, g, fs[a:b])
                  for g, a, b in zip(gs, starts, starts[1:])]
        return ((_comp(S, _comp(S, h, gs), fs), _comp(S, h, inners)),)

    return [(("idl", "idr", "actid"), units, unit_sides, None, False),
            (("actcomp",), actcomp, actcomp_sides, None, False),
            (("actout",), actout, actout_sides, None, True),
            (("actin",), actin, actin_sides, None, True),
            (("assoc",), assoc, assoc_sides, assoc_state, False)]


def _instances(schema: tuple, base: Sequence[str],
               counts: dict[Hashable, int], env: tuple) -> int:
    """The instances of a `_schemas` loop nest below env, from the loop
    bounds: a choice of word length k stands for len(base) ** k words, all
    alike below, so the word of base[0] alone stands in for them.
    Memoized on the nest's state, or on that canonical env, on an explicit
    stack that counts a level's choices first."""
    tags, step, _, state, _ = schema
    state = state or (lambda here: here)
    env = tuple((shape, base[:1] * len(w)) for shape, w in env)
    stack = [(env, state(env), None)]
    while stack:
        here, key, below = stack.pop()
        if key in counts:
            continue
        if below is not None:
            counts[key] = sum(counts[kid] * len(base) ** k for kid, k in below)
            continue
        level = step(here)
        if level is None:
            counts[key] = len(tags)
            continue
        kids = [here + ((shape, base[:1] * k),) for shape, k in level[0]]
        below = [(state(kid), k) for kid, (_, k) in zip(kids, level[0])]
        stack.append((here, key, below))
        stack.extend((kid, kid_key, None)
                     for kid, (kid_key, _) in zip(kids, below))
    return counts[state(env)]


def _categorization(S: SigmaSignature,
                    has_target: Callable[[int, str], bool]
                    ) -> list[Equation]:
    """The instances of `categorization_axioms(S)` whose every letter
    `has_target(n, sort)` accepts, n being the instance's letter count,
    under the names they have there.

    Each schema is walked level by level.  A letter is asked about at the
    level that fixes it, after the letters before it, and only where some
    in-bound instance lies below; a no skips the level's whole sub-loop,
    and the numbering advances by the sub-loop's instance count, which the
    loop bounds give.  So a letter is built only once every letter before
    it is accepted, and an instance's sides only once all of its letters
    are."""
    base = S.base.sorts
    out: list[Equation] = []
    number = 0
    for schema in _schemas(S):
        tags, step, sides, _, bounded = schema
        counts: dict[Hashable, int] = {}
        words = lambda level: ((shape, w) for shape, k in level[0]
                               for w in itertools.product(base, repeat=k))
        # each entry: the env so far, its letters, the level's choices left
        # and the map to the letters they fix
        root = step(())
        stack = [((), (), words(root), root[1])]
        while stack:
            env, letters, choices, letter = stack[-1]
            choice = next(choices, None)
            if choice is None:
                stack.pop()
                continue
            env += (choice,)
            level = step(env)
            spec = letter and letter(*choice)
            if spec is not None:
                if bounded and not _instances(schema, base, counts, env):
                    continue  # no instance below takes a number
                n, name, word, result = spec
                sort = S.name_of[("hom", word, result)]
                if not has_target(n, sort):
                    number += len(tags) if level is None else _instances(
                        schema, base, counts, env)
                    continue
                letters += (_hvar(sort, name),)
            if level is not None:
                stack.append((env, letters, words(level), level[1]))
                continue
            ctx = tuple(v.letter for v in letters)
            for tag, pair in zip(tags, sides(env, letters)):
                out.append(equation(f"cat:{tag}:{number}", *pair, ctx))
                number += 1
    return out


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
    never built: `_categorization` asks `instantiable` about each letter
    and skips every instance below the first no.  The engine instantiates
    seeds in round 1 only, every later event is closed, and nothing reads
    the lettered spaces, so such a seed can affect no class.  Round 1's
    targets are known from the closed starting material alone, registered
    first.  The lookups flag every drop: a skipped instance's first letter
    without a target either had its targets dropped, which its lookup
    flags, or has no closed term at all, and then no combo of that
    instance exists to drop.  Skipping never lowers the engine's
    `depth_cap`, which `seed` raises to the depth of the seeds' sides:
    every categorization side has depth at most 3, and the
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
    act(arg, theta, b) and a composite compose(head, args).  On an
    explicit stack: a symbol is checked when first met, in written order,
    and read once its arguments are."""
    values: list = []
    stack: list = [(t, None)]
    while stack:
        u, info = stack.pop()
        if info is not None:  # the arguments' values are on top
            args = values[len(values) - len(u.args):]
            del values[len(values) - len(u.args):]
            values.append(act(args[0], info[1], info[2]) if info[0] == "act"
                          else compose(args[0], args[1:]))
            continue
        if isinstance(u, Var):
            raise UniversalError("only closed terms can be interpreted")
        info = S.key_of.get(u.op)
        if info is None or info[0] == "hom":
            raise UniversalError(f"unknown symbol {u.op}")
        if info[0] == "id":
            values.append(ident(info[1]))
        elif info[0] == "op":
            values.append(op(info[1]))
        else:
            stack.append((u, info))
            stack.extend((a, None) for a in reversed(u.args))
    return values[0]


def sigma_interpret(S: SigmaSignature, m: FinSetModel, t: Term) -> MultiMap:
    """Evaluate a closed extended-signature term to a concrete table."""
    return _read(S, t, *set_multicategory(m))


def sigma_term_str(S: SigmaSignature, t: Term) -> str:
    """Readable rendering: comp(...), id[S], act[images](...), op:<name>."""
    return _read(S, t, S.id_name, S.op_name,
                 lambda head, args: f"comp({', '.join((head, *args))})",
                 lambda arg, theta, b:
                     f"act[{','.join(map(str, theta.images))}]({arg})")
