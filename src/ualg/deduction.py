"""Bounded forward saturation for the context-structure deduction relation.

Derived equations carry replayable proof objects built from five rule nodes:
axiom, reflexivity, symmetry, transitivity, and guarded substitution.  The
engine keeps one union-find per canonical context (context letters renamed to
_v1.._vn in order), so symmetry and transitivity are free, and grows the set
by two rule-5 moves per round:

  * instantiation: substitute universe terms for the context letters of a
    known equation, emitting the result at every context the relation admits
    over the letters of the substituted word;
  * congruence: replace a direct child of a known term by something provably
    equal to it, when per-child contexts exist that the parent context
    governs.

Instantiation targets are bounded by depth (the Herbrand-style truncation):
axioms take every registered term at 1-letter contexts and terms up to
depth 2 at 2-letter contexts; derived equations and longer contexts take
depth-1 terms (variables and constants), with a per-equation budget that
falls back to constants alone.  Anything these bounds or the depth/context
caps skip sets the truncation flag, so a missing goal is reported
inconclusive rather than refuted.  A closed event has no letters to
instantiate, so it drops nothing: terms registered after it was
instantiated, or its depth, flag only a lettered event.  Conclusions are
emitted only at orders of the letters they use, so the engine never weakens
an equation into a context with more letters; `prove` flags that gap too
(`weakening`) when it could matter.

Every registered term is governed by some context: axiom and goal sides
are validated, rule 5 keeps conclusions governed, and a subterm of a
governed term is governed.  So every term has a canonical view (below),
and a child's mate, read from one of its views' spaces, is found there
again, as spaces never split.  The engine relies on both, and raises
rather than drop a candidate unflagged if either ever failed.

A ground engine (`universal_hom`'s) registers closed terms only, so it
instantiates at the closed terms its `ground` predicate accepts and sweeps
closed parents only: every event after the axiom seeds is closed, and the
context caps never cut one.  Seeds are instantiated in round 1 only and
nothing reads the lettered spaces, so a lettered seed that round 1 cannot
instantiate, as some letter has no target (`instantiable`, asked letter
by letter), can affect no class; `universal_hom` seeds the closed axioms
first and then only the categorization instances whose letters all pass.

Proofs are assembled on demand, as in Nieuwenhuis and Oliveras' proof-
producing congruence closure.  A union edge records why it holds as plain
data: an axiom edge its (cheap) proof, a rule-5 edge a `_Rule5`, the
`Subst` node's data: the premise, the images of its letters on each side,
and the target contexts.  Instantiation and congruence differ only in the
premise (an event, or the op's template op(_p1, .., _pk), reflexive) and in
the one side premise that is not reflexive (none, or the swapped argument).
`proof_of` turns the records it needs into proof trees,
once per edge, on an explicit stack.  Union adds an edge only between two
classes, so each space's edges form a spanning forest, and `explain`
returns the one tree path between two joined terms.  Later edges join other
classes and never change that path, so a premise explained on first use
gets the path it had when its conclusion was found, and each proof is the
one an eager build would have made.  The records hold terms, words and
positions, never the engine or a space, so a finished engine is freed by
reference counting alone.

`prove` stops saturating before a round (the first included) once the goal
holds at its first admissible weakening context, the first one
`_weakening_proof` tries.  The stop is exact, so the proof is the one a run
to the round bound gives:

  * the forest path between two terms, and so every proof along it, is
    fixed from the round they meet;
  * `_weakening_proof` takes the first admissible context at which the goal
    holds, and once the first one holds no later round can change that.

A goal that never holds at that context runs to the bound as before, so
an unproved goal keeps its truncation flags.

The congruence sweep walks every parent, in universe order with positions
ascending, and emits the candidates of a walk that swaps each (parent, pos,
mate) once, in the same order:

  * old parents: in a parent walked by an earlier sweep, a child that kept
    its smallest mate is skipped.  A mate starts from the last one and
    never rises, so that (parent, pos, mate) was swapped before;
  * per-sweep memos: candidates are merged only after the round's sweep
    ends, so the spaces cannot change under it, and each child's smallest
    mate and the side premise for swapping it in are computed once per
    sweep, on first use;
  * op images: a congruence's sides are its op applied to the images, so
    no template is substituted.

Further caches keep the engine from recomputing canonical forms; each
leaves every derived equation and proof unchanged:

  * canonical views: a term's (canonical context, canonical term, letter
    order) for each of its governing orders (`context.governing_orders`)
    depends on the term alone, so it is computed once per theory, as is
    each op's congruence template.  The first view is the term at its
    terminal context, so an instantiation target's context and canonical
    form are read off it, and so is the context of each argument a
    congruence leaves in place.  A side premise is looked up in the child's
    views: a mate has only the child's letters, and a space holds only
    terms its context governs;
  * renamed conclusions: a rule-5 conclusion is keyed by its sides
    canonicalized at the first-occurrence order of its governed word, the
    conclusion at that order when that order governs.  holds() and
    positional canonicalization commute with sort-preserving letter
    bijections, and once some order governs the word, its orders depend on
    the sides alone up to such a bijection.  So a conclusion whose key an
    earlier one recorded meets only pairs that one emitted, and is skipped.
    Two combos of one instantiation event that such a bijection maps onto
    each other conclude one key and meet the same early exits, so
    `_instantiate` skips a combo whose key an earlier one had before
    building its sides.  A combo's key is its targets' canonical forms with
    the first-occurrence index of each letter of their concatenated
    contexts: two combos share it iff such a bijection maps one onto the
    other, since the indices match the letters across targets and each
    canonical form fixes its target up to renaming its own context;
  * renaming tables: `_canonicalize` keeps, per context word, its _v word
    and the image of each subterm renamed at it, so an image is built once
    per theory, on an explicit stack that no term depth can overflow.  The
    tables, the views, the memo of each conclusion word's governing orders
    and the templates depend on the structure, the signature and the term
    alone, so they belong to the theory (`Theory._memo`): every goal of
    one theory reuses them, and they are freed with it.  They are never
    iterated.  The terms they hold are kept alive by `syntax._TERMS` in
    any case.  `check_proof` and `canonical_triple` pass fresh tables.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Generator, Iterator, Optional, Sequence

from .context import (
    Letter, Word, _letter_key, delta_of, governing_orders, holds,
    terminal_context,
)
from .finord import FinFn
from .syntax import (
    App, Equation, Term, Theory, TheoryError, TypingError, Var, _app, app,
    apply_renaming, const, ctx_str, equation, is_r_context, is_r_renaming,
    tau, term_depth, term_str, term_vars, validate_equation, var,
)


class DeductionError(TheoryError):
    pass


class ProofError(DeductionError):
    pass


@dataclass(frozen=True)
class Bounds:
    max_term_depth: int
    max_ctx_len: int
    max_rounds: int

    def __post_init__(self) -> None:
        if min(self.max_term_depth, self.max_ctx_len, self.max_rounds) < 1:
            raise DeductionError("all bounds must be >= 1")


# ---------------------------------------------------------------------------
# Proof objects


class Proof:
    __slots__ = ()


@dataclass(frozen=True)
class Axiom(Proof):
    """An axiom of the theory, stated up to a bijective context renaming."""
    name: str
    concluded: Equation


@dataclass(frozen=True)
class Refl(Proof):
    term: Term
    ctx: Word


@dataclass(frozen=True)
class Sym(Proof):
    premise: Proof


@dataclass(frozen=True)
class Trans(Proof):
    left: Proof
    right: Proof


@dataclass(frozen=True)
class Subst(Proof):
    """Rule-5 node: premise t1 ~ t2 in context v, two renamings sharing the
    target context w and per-letter contexts ws, one side premise per letter."""
    s1: tuple[tuple[Letter, Term], ...]
    s2: tuple[tuple[Letter, Term], ...]
    w: Word
    ws: tuple[Word, ...]
    premise: Proof
    sides: tuple[Proof, ...]


def check_proof(E: Theory, p: Proof) -> Equation:
    """Replay a proof against a theory; returns the equation it concludes.
    Every malformed node raises ProofError, with the message of the check
    that rejects it.

    Runs on an explicit stack of node checkers, so the left-nested `Trans`
    chains that `explain` builds never reach Python's recursion limit."""
    stack = [_check_node(E, p)]
    concluded = None
    try:
        while stack:
            try:
                premise = stack[-1].send(concluded)
            except StopIteration as done:
                stack.pop()
                concluded = done.value
            else:
                stack.append(_check_node(E, premise))
                concluded = None
    except ProofError:
        raise
    except TheoryError as exc:
        raise ProofError(str(exc)) from None
    return concluded


def _check_node(E: Theory, p: Proof
                ) -> Generator[Proof, Equation, Equation]:
    """Check one node: yields each premise, receives what it concludes, and
    returns what the node concludes."""
    R = E.structure
    if isinstance(p, Axiom):
        ax = E.axiom(p.name)
        c = p.concluded
        if len(set(c.ctx)) != len(c.ctx):
            raise ProofError(
                f"axiom node {p.name}: stated context repeats a letter")
        if _canonicalize({}, ax.ctx, [ax.lhs, ax.rhs]) != _canonicalize(
                {}, c.ctx, [c.lhs, c.rhs]):
            raise ProofError(
                f"axiom node {p.name}: stated equation is not a context "
                f"renaming of the axiom")
        return p.concluded
    if isinstance(p, Refl):
        if not is_r_context(R, p.ctx, p.term):
            raise ProofError(
                f"refl node: [{ctx_str(p.ctx)}] does not govern "
                f"{term_str(p.term)}")
        return Equation("", p.term, p.term, p.ctx)
    if isinstance(p, Sym):
        e = yield p.premise
        return Equation("", e.rhs, e.lhs, e.ctx)
    if isinstance(p, Trans):
        e1 = yield p.left
        e2 = yield p.right
        if e1.ctx != e2.ctx:
            raise ProofError("trans node: premises use different contexts")
        if e1.rhs is not e2.lhs:
            raise ProofError("trans node: middle terms differ")
        return Equation("", e1.lhs, e2.rhs, e1.ctx)
    if isinstance(p, Subst):
        e = yield p.premise
        v = e.ctx
        s1 = dict(p.s1)
        s2 = dict(p.s2)
        if not is_r_renaming(R, s1, v, p.w, p.ws):
            raise ProofError("subst node: first renaming violates the guard")
        if not is_r_renaming(R, s2, v, p.w, p.ws):
            raise ProofError("subst node: second renaming violates the guard")
        if len(p.sides) != len(v):
            raise ProofError("subst node: need one side premise per letter")
        for x, wi, side in zip(v, p.ws, p.sides):
            se = yield side
            if se.ctx != wi or se.lhs is not s1[x] or se.rhs is not s2[x]:
                raise ProofError(
                    f"subst node: side premise for {x.name} does not conclude "
                    f"s1({x.name}) ~ s2({x.name}) in its stated context")
        return Equation("", apply_renaming(s1, e.lhs),
                        apply_renaming(s2, e.rhs), p.w)
    raise ProofError(f"unknown proof node {type(p).__name__}")


def proof_lines(p: Proof) -> list[str]:
    """Serialize a proof as an indented rule tree, one rule per line."""
    out: list[str] = []
    stack = [(p, 0)]
    while stack:
        node, depth = stack.pop()
        pad = "  " * depth
        if isinstance(node, Axiom):
            out.append(f"{pad}axiom {node.name}: {node.concluded}")
            continue
        if isinstance(node, Refl):
            out.append(
                f"{pad}refl {term_str(node.term)} ctx [{ctx_str(node.ctx)}]")
            continue
        if isinstance(node, Sym):
            out.append(f"{pad}sym")
            premises: tuple[Proof, ...] = (node.premise,)
        elif isinstance(node, Trans):
            out.append(f"{pad}trans")
            premises = (node.left, node.right)
        elif isinstance(node, Subst):
            s1 = ", ".join(f"{x.name}->{term_str(t)}" for x, t in node.s1)
            s2 = ", ".join(f"{x.name}->{term_str(t)}" for x, t in node.s2)
            out.append(
                f"{pad}subst w=[{ctx_str(node.w)}] s1={{{s1}}} s2={{{s2}}}")
            premises = (node.premise,) + node.sides
        else:
            raise ProofError(f"unknown proof node {type(node).__name__}")
        stack.extend((q, depth + 1) for q in reversed(premises))
    return out


# ---------------------------------------------------------------------------
# Canonical form: context letters become _v1.._vn in context order


def _pool_letter(sort: str, i: int) -> Letter:
    """The i-th letter of a canonical context _v1.._vn."""
    return Letter(sort, f"_v{i}")


def _template_letter(sort: str, j: int) -> Letter:
    """The j-th argument letter of a congruence template op(_p1, .., _pk)."""
    return Letter(sort, f"_p{j}")


def _canonicalize(tables: dict[Word, tuple[Word, dict[Term, Term]]],
                  ctx: Word, terms: Sequence[Term]
                  ) -> tuple[Word, list[Term]]:
    """ctx's letters renamed to _v1.._vn in order, and each term's image,
    the term `apply_renaming` gives; `tables` keeps each context's word and
    the images built at it (see "renaming tables")."""
    if not ctx:  # closed terms are their own canonical form
        return ctx, list(terms)
    entry = tables.get(ctx)
    if entry is None:
        canon_ctx = tuple(_pool_letter(x.sort, i)
                          for i, x in enumerate(ctx, start=1))
        entry = tables[ctx] = (
            canon_ctx, {var(x): var(y) for x, y in zip(ctx, canon_ctx)})
    canon_ctx, images = entry
    stack = [t for t in reversed(terms) if tau(t) and t not in images]
    while stack:
        u = stack[-1]
        if u in images:  # pushed again before its first copy was built
            stack.pop()
        elif isinstance(u, Var):
            raise TypingError(f"renaming misses variable {u.letter.name}")
        elif todo := [a for a in u.args if tau(a) and a not in images]:
            stack.extend(reversed(todo))
        else:  # a closed argument is its own image
            images[stack.pop()] = _app(
                u.op, u.sort, tuple(images.get(a, a) for a in u.args))
    return canon_ctx, [images.get(t, t) for t in terms]


def canonical_triple(ctx: Word, a: Term, b: Term):
    canon_ctx, (ca, cb) = _canonicalize({}, ctx, [a, b])
    key_a, key_b = _term_key(ca), _term_key(cb)
    if key_b < key_a:
        ca, cb = cb, ca
    return (canon_ctx, ca, cb)


def _term_key(t: Term) -> tuple[int, str]:
    return (term_depth(t), repr(t))


def _reletter(proof: Proof, ctx: Word, to: Word, w: Word) -> Proof:
    """A proof at ctx with each letter renamed to the one at its position in
    the parallel word `to`, concluded at w, which governs `to`: a renaming
    when w is `to`, a weakening when `to` is ctx."""
    if ctx == to == w:
        return proof
    s = tuple((x, var(y)) for x, y in zip(ctx, to))
    ws = tuple((y,) for y in to)
    sides = tuple(Refl(var(y), (y,)) for y in to)
    return Subst(s, s, w, ws, proof, sides)


# ---------------------------------------------------------------------------
# Saturation state


class _Space:
    """All equalities known at one canonical context, the key under which
    the engine stores the space.

    Each union of two classes adds one edge, numbered in order, so the
    edges form a spanning forest of the classes; `why[i]` says why edge i
    holds: a built proof, or a rule-5 record (`_Rule5`) that the engine
    turns into one on first use.  A union links the root with
    the larger `_term_key` under the smaller, so each class's root is its
    least member."""

    __slots__ = ("parent", "edges", "why")

    def __init__(self):
        self.parent: dict[Term, Term] = {}
        self.edges: dict[Term, list[tuple[Term, int, bool]]] = {}
        self.why: list = []

    def add(self, t: Term) -> None:
        if t not in self.parent:
            self.parent[t] = t
            self.edges[t] = []

    def find(self, t: Term) -> Term:
        root = t
        while self.parent[root] is not root:
            root = self.parent[root]
        while self.parent[t] is not root:
            self.parent[t], t = root, self.parent[t]
        return root

    def union(self, a: Term, b: Term, why) -> bool:
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra is rb:
            return False
        if _term_key(ra) < _term_key(rb):
            self.parent[rb] = ra
        else:
            self.parent[ra] = rb
        edge = len(self.why)
        self.why.append(why)
        self.edges[a].append((b, edge, False))
        self.edges[b].append((a, edge, True))
        return True

    def same(self, a: Term, b: Term) -> bool:
        if a not in self.parent or b not in self.parent:
            return False
        return self.find(a) is self.find(b)

    def explain(self, a: Term, b: Term) -> list[tuple[int, bool]]:
        """The edges (number, walked backwards) of the forest path from a to
        b, which later unions never change."""
        prev: dict[Term, tuple[Term, int, bool]] = {}
        queue = deque([a])
        seen = {a}
        while queue:
            x = queue.popleft()
            if x is b:
                break
            for y, edge, flipped in self.edges[x]:
                if y not in seen:
                    seen.add(y)
                    prev[y] = (x, edge, flipped)
                    queue.append(y)
        if a is not b and b not in prev:
            raise DeductionError("no recorded path between equal terms")
        path: list[tuple[int, bool]] = []
        node = b
        while node is not a:
            node, edge, flipped = prev[node]
            path.append((edge, flipped))
        path.reverse()
        return path


class _Rule5:
    """A rule-5 step as plain data, the `Subst` node it becomes: the
    letters of the premise (ctx, a, b) become images1 in a and images2 in b,
    and the conclusion is stated at w with per-letter contexts ws.  Every
    side premise is reflexive but side pos.

      * instantiation: pos is None and images1 is images2; the premise is an
        event, which ctx's space explains along its forest path;
      * congruence: the premise is the op's template, proved by reflexivity,
        and images2 swaps argument pos of images1; the side premise
        images1[pos] ~ images2[pos] holds at ws[pos], and its canonical
        space explains it."""

    __slots__ = ("premise", "images1", "images2", "w", "ws", "pos")

    def __init__(self, premise: tuple[Word, Term, Term],
                 images1: tuple[Term, ...], images2: tuple[Term, ...],
                 w: Word, ws: tuple[Word, ...], pos: Optional[int]):
        self.premise, self.images1, self.images2 = premise, images1, images2
        self.w, self.ws, self.pos = w, ws, pos


@dataclass
class SaturationResult:
    equations: list[Equation]
    truncated_by: tuple[str, ...]
    rounds_used: int
    _engine: "_Saturator" = field(repr=False)

    def proof_of(self, eq: Equation) -> Proof:
        return self._engine.proof_of(eq)


@dataclass
class ProveResult:
    """A proof of the goal, or None.  The truncation flags qualify only a
    missing proof: they say which bounds cut the search that failed, and
    `weakening` that the search skipped weakenings that might reach the
    goal.  A found proof may end saturation early, so its flags cover only
    the rounds that ran, and a goal-directed stop never raises `rounds`."""

    proof: Optional[Proof]
    truncated_by: tuple[str, ...]

    @property
    def proved(self) -> bool:
        return self.proof is not None


_CONG_TIER_DEPTH = 2  # instantiation target depth for 2-letter contexts
_INST_BUDGET = 20000  # per-equation cap on renaming combinations


class _Saturator:
    """The engine; a ground engine (see above) when `ground` is set."""

    def __init__(self, E: Theory, bounds: Bounds,
                 extra_terms: Sequence[tuple[Word, Term]] = (),
                 ground: Optional[Callable[[Term], bool]] = None):
        self.R = E.structure
        self.sig = E.signature
        self.bounds = bounds
        self.ground = ground
        self.spaces: dict[Word, _Space] = {}
        self.universe: dict[Term, None] = {}  # insertion-ordered
        self.by_sort: dict[str, list[Term]] = {}
        self._tier_cache: dict[tuple[float, str], list[Term]] = {}
        self._swept = 0
        self._mates: dict[Term, Optional[Term]] = {}
        self._sides: dict[Term, Word] = {}
        memo = E._memo  # the theory's own tables (see "renaming tables")
        self._templates: dict[str, tuple[Word, Term, Term]] = \
            memo.setdefault("templates", {})
        self._views: dict[Term, list[tuple[Word, Term, Word]]] = \
            memo.setdefault("views", {})
        self._renamings: dict[Word, tuple[Word, dict[Term, Term]]] = \
            memo.setdefault("renamings", {})
        self._orders: dict[Word, list[Word]] = memo.setdefault("orders", {})
        self._concluded: set[tuple] = set()
        self.truncated_by: set[str] = set()
        self.events: list[tuple[Word, Term, Term]] = []
        self.rounds_used = 0

        for sort in self.sig.sorts:
            for i in range(1, bounds.max_ctx_len + 1):
                self._register(var(_pool_letter(sort, i)))
        for name in self.sig.constants():
            self._register(const(self.sig, name))

        for ctx, t in extra_terms:
            canon_ctx, (ct,) = _canonicalize(self._renamings, ctx, [t])
            self._space(canon_ctx).add(ct)
            self._register(ct)
        self.depth_cap = max([self.bounds.max_term_depth]
                             + [term_depth(t) for _, t in extra_terms])
        self.seed(E.equations)

    def seed(self, axioms: Sequence[Equation]) -> None:
        """Merge each axiom, at its canonical context, as an event of round
        1, and raise `depth_cap` to its sides' depth, so no conclusion is
        cut shallower than the starting material.  Call before `run`."""
        for ax in axioms:
            canon_ctx, (a, b) = _canonicalize(
                self._renamings, ax.ctx, [ax.lhs, ax.rhs])
            proof = _reletter(Axiom(ax.name, ax), ax.ctx, canon_ctx, canon_ctx)
            self._apply_merge(canon_ctx, a, b, proof)
            self.depth_cap = max(self.depth_cap, term_depth(a), term_depth(b))

    def instantiable(self, n: int, sort: str) -> bool:
        """Whether round 1 has a target for a letter of the sort in an
        n-letter axiom; an axiom is instantiated at some combo iff each of
        its letters has one.  The lookup flags what it drops, as
        `_instantiate`'s does.  The answer and the flag are round 1's: a
        ground engine's later seeds register no term, since their sides
        have letters."""
        return bool(self._targets_for(n, sort, True))

    # -- registration ------------------------------------------------------

    def _register(self, t: Term) -> None:
        """Add t and its subterms, each after its arguments, on an explicit
        stack; a ground engine adds closed terms only, whose subterms are
        closed too."""
        universe = self.universe
        if t in universe or (self.ground is not None and tau(t)):
            return
        stack = [t]  # a path down t: each entry an argument of the one before
        while stack:
            u = stack[-1]
            for a in (u.args if isinstance(u, App) else ()):
                if a not in universe:
                    stack.append(a)
                    break
            else:
                universe[stack.pop()] = None
                self.by_sort.setdefault(u.sort, []).append(u)

    def _space(self, canon_ctx: Word) -> _Space:
        sp = self.spaces.get(canon_ctx)
        if sp is None:
            sp = self.spaces[canon_ctx] = _Space()
        return sp

    # -- running the engine and reading it back -----------------------------

    def run(self, stop: Optional[Callable[[], bool]] = None) -> None:
        """Saturate round by round until nothing is pending, the round bound
        is reached (flagged), or `stop()` holds before a round (not flagged:
        the bound cut nothing).  A round instantiates the merges since the
        last one (the first, the axiom seeds'), and sweeps the terms."""
        rounds = merged = registered = 0
        while len(self.events) > merged or len(self.universe) > registered:
            if stop is not None and stop():
                break
            if rounds == self.bounds.max_rounds:
                self.truncated_by.add("rounds")
                break
            rounds += 1
            if rounds > 1 and len(self.universe) > registered and \
                    any(ctx for ctx, _, _ in self.events[:merged]):
                # Equations already instantiated never revisit these targets;
                # a closed one has no letters, so it drops nothing.
                self.truncated_by.add("instantiation")
            frontier = self.events[merged:]
            merged, registered = len(self.events), len(self.universe)
            self._tier_cache = {}
            candidates = self._round_candidates(frontier, rounds == 1)
            for canon_ctx, a, b, why in candidates:
                self._apply_merge(canon_ctx, a, b, why)
        self.rounds_used = rounds

    def proof_of(self, eq: Equation) -> Proof:
        canon_ctx, (a, b) = _canonicalize(
            self._renamings, eq.ctx, [eq.lhs, eq.rhs])
        sp = self.spaces.get(canon_ctx)
        if sp is None or not sp.same(a, b):
            raise DeductionError(f"equation not derived: {eq}")
        path = sp.explain(a, b)
        self._assemble(canon_ctx, [edge for edge, _ in path])
        proof = self._chain(canon_ctx, a, path)
        return _reletter(proof, canon_ctx, eq.ctx, eq.ctx)

    def holds_canonically(self, ctx: Word, a: Term, b: Term) -> bool:
        canon_ctx, (ca, cb) = _canonicalize(self._renamings, ctx, [a, b])
        sp = self.spaces.get(canon_ctx)
        return sp is not None and sp.same(ca, cb)

    # -- proofs, assembled on demand ----------------------------------------

    def _chain(self, ctx: Word, a: Term, path: list[tuple[int, bool]]
               ) -> Proof:
        """The proof along a path of ctx's space whose edges are built."""
        if not path:
            return Refl(a, ctx)
        why = self.spaces[ctx].why
        steps = [Sym(why[edge]) if flipped else why[edge]
                 for edge, flipped in path]
        out = steps[0]
        for step in steps[1:]:
            out = Trans(out, step)
        return out

    def _assemble(self, ctx: Word, edges: list[int]) -> None:
        """Replace the justifications of these edges of ctx's space, and of
        every edge their premises rest on, by built proofs.  A justification
        rests only on edges older than itself, so this terminates; it runs
        on an explicit stack, since premise chains can be deep."""
        stack = [(ctx, edge, None) for edge in reversed(edges)]
        while stack:
            key, edge, premise = stack.pop()
            why = self.spaces[key].why[edge]
            if isinstance(why, Proof):
                continue
            if premise is None:
                side_ctx, a, b = self._premise_of(why)
                path = self.spaces[side_ctx].explain(a, b)
                premise = (side_ctx, a, path)
                side_why = self.spaces[side_ctx].why
                todo = [(side_ctx, e, None) for e, _ in path
                        if not isinstance(side_why[e], Proof)]
                if todo:
                    stack.append((key, edge, premise))
                    stack.extend(todo)
                    continue
            self.spaces[key].why[edge] = self._rule5_proof(
                why, self._chain(*premise))

    def _premise_of(self, why: _Rule5) -> tuple[Word, Term, Term]:
        """The (space, a, b) whose explanation a step needs: its premise, or
        its side pos in canonical form."""
        pos = why.pos
        if pos is None:
            return why.premise
        canon_ctx, (cu, cv) = _canonicalize(
            self._renamings, why.ws[pos],
            [why.images1[pos], why.images2[pos]])
        return canon_ctx, cu, cv

    def _rule5_proof(self, why: _Rule5, explained: Proof) -> Proof:
        """The Subst node of a step, relettered to canonical form;
        `explained` proves what `_premise_of` asked for."""
        ctx, a, _ = why.premise
        pos = why.pos
        sides = [Refl(t, wj) for t, wj in zip(why.images1, why.ws)]
        if pos is None:
            premise = explained
        else:
            premise = Refl(a, ctx)
            w_pos = why.ws[pos]
            canon_ctx, _ = _canonicalize(self._renamings, w_pos, [])
            sides[pos] = _reletter(explained, canon_ctx, w_pos, w_pos)
        s1, s2 = (tuple(sorted(zip(ctx, images),
                               key=lambda item: _letter_key(item[0])))
                  for images in (why.images1, why.images2))
        node = Subst(s1, s2, why.w, why.ws, premise, tuple(sides))
        canon_w, _ = _canonicalize(self._renamings, why.w, [])
        return _reletter(node, why.w, canon_w, canon_w)

    # -- merge bookkeeping -------------------------------------------------

    def _apply_merge(self, canon_ctx: Word, a: Term, b: Term,
                     why: Proof | _Rule5) -> None:
        if a is b:
            return
        sp = self._space(canon_ctx)
        self._register(a)
        self._register(b)
        if sp.union(a, b, why):
            self.events.append((canon_ctx, a, b))

    # -- one round ---------------------------------------------------------

    def _round_candidates(self, frontier, axiom_level: bool):
        """The round's candidates.  `axiom_level` holds in round 1 only,
        whose frontier is exactly the axiom seeds' merges: a later merge
        cannot repeat a seed pair, which is joined from the start."""
        out: list[tuple[Word, Term, Term, _Rule5]] = []
        for event in frontier:
            _, a, b = event
            if axiom_level or max(term_depth(a), term_depth(b)) <= _CONG_TIER_DEPTH:
                self._instantiate(event, axiom_level, out)
            elif event[0]:  # a closed event has no letters to instantiate
                self.truncated_by.add("instantiation")
        self._congruence_sweep(out)
        return out

    # -- rule 5, instantiation flavour --------------------------------------

    def _targets_for(self, n: int, sort: str, axiom_level: bool) -> list[Term]:
        """The registered terms of the sort an n-letter equation is
        instantiated at: all of them for a 1-letter axiom, those up to
        `_CONG_TIER_DEPTH` for a 2-letter one, and otherwise the atoms
        (variables and constants, depth 1); a ground engine keeps only
        those `ground` accepts.  Only that filter drops a 1-letter target."""
        if not axiom_level or n > 2:
            depth = 1
        else:
            depth = math.inf if n == 1 else _CONG_TIER_DEPTH
        cached = self._tier_cache.get((depth, sort))
        if cached is not None:
            return cached
        pool = self.by_sort.get(sort, [])
        chosen = [t for t in pool if term_depth(t) <= depth]
        if self.ground is not None:
            chosen = [t for t in chosen if self.ground(t)]
        if len(chosen) < len(pool):
            self.truncated_by.add("instantiation")
        self._tier_cache[(depth, sort)] = chosen
        return chosen

    def _instantiate(self, event: tuple[Word, Term, Term], axiom_level: bool,
                     out: list) -> None:
        """Conclude rule 5 from `event` at every combo of targets for its
        letters but the letter renamings of an earlier combo (see "renamed
        conclusions").  Each target's terminal context and canonical form
        come from its first canonical view.  An event is instantiated in one
        round, so the keys live for this call; closed combos take none."""
        ctx = event[0]
        n = len(ctx)
        if n == 0:
            return
        target_lists = [self._targets_for(n, x.sort, axiom_level) for x in ctx]
        if any(not lst for lst in target_lists):
            return
        if math.prod(map(len, target_lists)) > _INST_BUDGET:
            # Long contexts over rich pools blow up combinatorially; keep the
            # closed instances (constants only) and flag the rest as skipped.
            self.truncated_by.add("instantiation")
            target_lists = [
                [t for t in lst if isinstance(t, App) and not t.args]
                for lst in target_lists]
            if any(not lst for lst in target_lists) or \
                    math.prod(map(len, target_lists)) > _INST_BUDGET:
                return
        # (target, canonical form, terminal context) off the first view
        view_lists = [[(t, view[1], view[2]) for t in lst
                       for view in [self._canonical_views(t)[0]]]
                      for lst in target_lists]
        keys: set[tuple] = set()
        for picks in itertools.product(*view_lists):
            combo, forms, ws = zip(*picks)
            u_cat = sum(ws, ())
            if u_cat:
                first: dict[Letter, int] = {}
                key = (forms,
                       tuple(first.setdefault(x, len(first)) for x in u_cat))
                if key in keys:
                    continue
                keys.add(key)
            self._conclude(event, combo, combo, ws, u_cat, None, out)

    def _conclude(self, premise: tuple[Word, Term, Term],
                  images1: tuple[Term, ...], images2: tuple[Term, ...],
                  ws: tuple[Word, ...], u_cat: Word, pos: Optional[int],
                  out: list) -> None:
        """Emit the conclusion of a `_Rule5(premise, images1, images2, w, ws,
        pos)` at every admissible target context w.  An instantiation
        renames the premise's sides; a congruence's sides are its op
        applied to each image tuple, so no template is substituted."""
        distinct = tuple(dict.fromkeys(u_cat))
        if len(distinct) > self.bounds.max_ctx_len:
            self.truncated_by.add("ctx")
            return
        ctx, a, b = premise
        if pos is None:
            s = dict(zip(ctx, images1))
            lhs = apply_renaming(s, a)
            rhs = apply_renaming(s, b)
        else:
            lhs = _app(a.op, a.sort, images1)
            rhs = _app(a.op, a.sort, images2)
        if lhs is rhs:
            return
        if max(term_depth(lhs), term_depth(rhs)) > self.depth_cap:
            self.truncated_by.add("depth")
            return
        if len(distinct) <= 4:
            orders = self._orders.get(u_cat)
            if orders is None:
                orders = self._orders[u_cat] = governing_orders(self.R, u_cat)
        else:
            # Beyond four letters the factorial spread of context orders is
            # all twist variants; keep the terminal context only.
            self.truncated_by.add("ctx")
            terminal = terminal_context(self.R, u_cat)
            orders = [] if terminal is None else [terminal]
        if not orders:
            return
        # The key (see "renamed conclusions" above) canonicalizes the sides
        # at the first-occurrence order, which holds every letter of both,
        # and is the conclusion at that order when that order governs.
        canon_ctx, (ca, cb) = _canonicalize(
            self._renamings, distinct, [lhs, rhs])
        orbit = (canon_ctx, ca, cb)
        if orbit in self._concluded:
            return
        self._concluded.add(orbit)
        for w in orders:
            if w == distinct:
                canon_ctx, ca, cb = orbit
            else:
                canon_ctx, (ca, cb) = _canonicalize(
                    self._renamings, w, [lhs, rhs])
            # A pair emitted earlier is joined once its round merges; a repeat
            # within the round finds one class in union and adds nothing.
            sp = self.spaces.get(canon_ctx)
            if sp is not None and sp.same(ca, cb):
                continue
            out.append((canon_ctx, ca, cb,
                        _Rule5(premise, images1, images2, w, ws, pos)))

    # -- rule 5, congruence flavour ------------------------------------------

    def _congruence_sweep(self, out: list) -> None:
        """Rewrite every argument position toward its class's smallest
        member; iterated over rounds this is congruence closure with
        explicit representative terms.

        Every parent is walked, in universe order with positions ascending
        (a ground engine walks closed parents only).  A child's smallest
        mate is computed on first use and kept for the sweep, since the
        spaces stay fixed until the round's candidates merge.  In a parent
        walked before (index below `_swept`), a child that kept its mate is
        skipped: mates never rise, so the pair was swapped toward that mate
        in an earlier sweep.  Each (parent, pos, mate) is swapped once, and
        the swaps, so the candidates and their order, are those of a walk
        that remembers which triples it swapped."""
        swept, self._swept = self._swept, len(self.universe)
        last = self._mates
        mates: dict[Term, Optional[Term]] = {}
        self._sides = {}
        for i, parent in enumerate(self.universe):
            if not isinstance(parent, App):
                continue
            for pos, child in enumerate(parent.args):
                if child in mates:
                    mate = mates[child]
                else:
                    mate = mates[child] = self._smallest_mate(child)
                if mate is None or (i < swept and last.get(child) is mate):
                    continue
                self._swap_child(parent, pos, mate, out)
        self._mates = mates

    def _smallest_mate(self, u: Term) -> Optional[Term]:
        """The least term known equal to u so far, if smaller than u itself.
        It starts from the last sweep's mate, which is still equal to u, so
        a mate never rises."""
        best = self._mates.get(u)
        for canon_ctx, cu, perm in self._canonical_views(u):
            sp = self.spaces.get(canon_ctx)
            if sp is None or cu not in sp.parent:
                continue
            small = sp.find(cu)
            if small is cu:
                continue
            sub = {y: var(x) for y, x in zip(canon_ctx, perm)}
            cand = apply_renaming(sub, small)
            if _term_key(cand) < _term_key(u) and (
                    best is None or _term_key(cand) < _term_key(best)):
                best = cand
        return best

    def _canonical_views(self, u: Term) -> list[tuple[Word, Term, Word]]:
        """(canon_ctx, canonical u, perm) for each governing order perm of
        u's letters, in permutation order; fixed for the theory's life."""
        views = self._views.get(u)
        if views is None:
            views = []
            for perm in governing_orders(self.R, tau(u)):
                canon_ctx, (cu,) = _canonicalize(self._renamings, perm, [u])
                views.append((canon_ctx, cu, perm))
            self._views[u] = views
        return views

    def _swap_child(self, parent: App, pos: int, replacement: Term,
                    out: list) -> None:
        """Emit parent with argument pos swapped for replacement, the
        child's mate in this sweep: a strictly smaller member of its class,
        so the rewrite goes downward only (upward it would pad every parent
        with unit-style wrappers and never end).  The side premise, found
        at a fixed state of the spaces, is memoized per child for the
        sweep; every other argument stays at its terminal context, read off
        its first view."""
        old = parent.args[pos]
        if old in self._sides:
            w_i = self._sides[old]
        else:
            w_i = self._sides[old] = self._known_equal(old, replacement)
        ws = tuple(w_i if j == pos else self._canonical_views(arg)[0][2]
                   for j, arg in enumerate(parent.args))
        images = parent.args[:pos] + (replacement,) + parent.args[pos + 1:]
        self._conclude(self._template(parent), parent.args, images, ws,
                       sum(ws, ()), pos, out)

    def _template(self, parent: App) -> tuple[Word, Term, Term]:
        """The congruence premise op(_p1, .., _pk) ~ op(_p1, .., _pk) for
        parent's op, with its context; built once per op."""
        cached = self._templates.get(parent.op)
        if cached is None:
            template_ctx = tuple(_template_letter(c.sort, j)
                                 for j, c in enumerate(parent.args, start=1))
            template = app(self.sig, parent.op, [var(x) for x in template_ctx])
            cached = self._templates[parent.op] = (
                template_ctx, template, template)
        return cached

    def _known_equal(self, u: Term, v: Term) -> Word:
        """A context at which u ~ v is already derived, for v a mate of u:
        one of u's views, since the mate has only u's letters and a space
        holds only terms its context governs."""
        for _, _, perm in self._canonical_views(u):
            if self.holds_canonically(perm, u, v):
                return perm
        raise DeductionError(
            f"no view of {term_str(u)} holds its mate {term_str(v)}")


# ---------------------------------------------------------------------------
# Public entry points


def saturate(E: Theory, bounds: Bounds) -> SaturationResult:
    """Forward-close a theory under the five deduction rules, within bounds.

    The result lists every non-reflexive derived equation in canonical form
    (context letters _v1.._vn); proofs are recoverable per equation.
    """
    engine = _Saturator(E, bounds)
    engine.run()
    eqs = [equation("", a, b, ctx) for ctx, a, b in engine.events]
    return SaturationResult(
        eqs, truncated_by=tuple(sorted(engine.truncated_by)),
        rounds_used=engine.rounds_used, _engine=engine)


def _weakening_contexts(E: Theory, goal: Equation) -> Iterator[Word]:
    """The contexts a proof of the goal may be weakened from, in the order
    `_weakening_proof` tries them: sizes ascending, letter subsets in
    combinations order, orders in permutations order, each one governed by
    the goal's context."""
    vars_needed = term_vars(goal.lhs) | term_vars(goal.rhs)
    letters = tuple(goal.ctx)
    for size in range(len(vars_needed), len(letters) + 1):
        for subset in itertools.combinations(letters, size):
            if not vars_needed <= set(subset):
                continue
            for perm in itertools.permutations(subset):
                if holds(E.structure, goal.ctx, perm):
                    yield perm


def _weakening_proof(E: Theory, engine: _Saturator,
                     goal: Equation) -> Optional[Proof]:
    """The goal's proof, weakened from the first admissible context at
    which the engine derived it."""
    for perm in _weakening_contexts(E, goal):
        if not engine.holds_canonically(perm, goal.lhs, goal.rhs):
            continue
        inner = engine.proof_of(equation("", goal.lhs, goal.rhs, perm))
        return _reletter(inner, perm, perm, goal.ctx)
    return None


# [0] -> [1]: a context may hold a letter its word does not use.
_DROP_LETTER = FinFn(0, 1, ())


def _truncation_flags(E: Theory, engine: _Saturator, goal: Equation,
                      proved: bool) -> tuple[str, ...]:
    """The engine's truncation flags, plus `weakening` for an unproved goal
    when the structure lets a context drop a letter and a space holds an
    edge whose equation the engine never weakens, though a proof might:
    its context is shorter than the goal's, or the edge's class joins a
    term that leaves out a letter of the context, a member the smallest-
    mate search never reads (it looks only at orders of a term's letters)."""
    flags = set(engine.truncated_by)
    if not proved and delta_of(E.structure, _DROP_LETTER) and any(
            sp.why and (len(ctx) < len(goal.ctx) or any(
                edges and len(set(tau(t))) < len(ctx)
                for t, edges in sp.edges.items()))
            for ctx, sp in engine.spaces.items()):
        flags.add("weakening")
    return tuple(sorted(flags))


def prove(E: Theory, goal: Equation, bounds: Bounds) -> ProveResult:
    """Search for the goal in the bounded closure; absence may be truncated.

    Saturation stops before a round once the goal holds at its first
    admissible context, since no later round can change its proof."""
    validate_equation(E.structure, goal)
    seeds = [(goal.ctx, goal.lhs), (goal.ctx, goal.rhs)]
    engine = _Saturator(E, bounds, extra_terms=seeds)
    # The goal's own context governs its sides, so the generator yields at
    # least that context.
    first = next(_weakening_contexts(E, goal))
    engine.run(stop=lambda: engine.holds_canonically(
        first, goal.lhs, goal.rhs))
    proof = _weakening_proof(E, engine, goal)
    flags = _truncation_flags(E, engine, goal, proof is not None)
    return ProveResult(proof, truncated_by=flags)


# ---------------------------------------------------------------------------
# The refutation invariant for the two substitution-free structures


_INVARIANT_KINDS = ("injective", "strict-increasing")


def _in_invariant_family(eq: Equation) -> bool:
    ctx_vars = set(eq.ctx)
    for side in (eq.lhs, eq.rhs):
        if set(term_vars(side)) == ctx_vars and eq.lhs is not eq.rhs:
            return False
    return True


def refute_by_invariant(E: Theory, goal: Equation) -> bool:
    """Soundly refute derivability under the injective or strictly increasing
    structure: the set of equations whose full-context sides are syntactically
    equal is closed under all five rules, so a goal outside it is underivable
    whenever every axiom is inside it."""
    if E.structure.kind not in _INVARIANT_KINDS:
        raise DeductionError(
            f"invariant refuter needs an injective or strict-increasing "
            f"theory, got {E.structure}")
    for ax in E.equations:
        if not _in_invariant_family(ax):
            raise DeductionError(
                f"axiom {ax.name} lies outside the invariant family; "
                f"the refuter proves nothing for this theory")
    return not _in_invariant_family(goal)
