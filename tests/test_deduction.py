"""The bounded saturation engine, proof replay, and the refutation invariant."""

import gc
import hashlib
import itertools
import weakref
from pathlib import Path

import pytest

from ualg import deduction, universal
from ualg.context import (
    BIJECTIVE, CARTESIAN, INJECTIVE, STRICT_INCREASING, SURJECTIVE, TRIVIAL,
    Letter, holds, terminal_context,
)
from ualg.deduction import (
    Axiom, Bounds, DeductionError, ProofError, Refl, Subst, Sym, Trans,
    canonical_triple, _pool_letter, _Saturator, _truncation_flags,
    _weakening_proof,
    check_proof, proof_lines, prove, refute_by_invariant, saturate,
)
from ualg.selftest import (
    GOAL_LIST, MONOID_TEXT, eckmann_hilton_theory, monoid_theory,
    projection_theory,
)
from ualg.syntax import (
    App, Theory, app, apply_renaming, equation, parse_equation_text,
    parse_theory, tau, term_depth, var,
)
from ualg.universal import default_sigma, internalize_term, universal_hom

X, Y = Letter("M", "x"), Letter("M", "y")
THEORIES = Path(__file__).resolve().parent.parent / "theories"


@pytest.fixture(scope="module")
def monoid():
    return monoid_theory()


def canon(eq):
    return canonical_triple(eq.ctx, eq.lhs, eq.rhs)


def test_bounds_validation():
    with pytest.raises(DeductionError):
        Bounds(0, 1, 1)


def test_empty_theory_derives_only_reflexivity(monoid):
    empty = Theory("Empty", monoid.signature, CARTESIAN, ())
    for structure in (CARTESIAN, BIJECTIVE, TRIVIAL):
        sat = saturate(Theory("E", monoid.signature, structure, ()),
                       Bounds(2, 2, 3))
        assert sat.equations == []
        assert not sat.truncated


def test_axiom_goal_has_axiom_leaf(monoid):
    goal = monoid.axiom("assoc")
    res = prove(monoid, goal, Bounds(3, 3, 2))
    assert res.proved
    concluded = check_proof(monoid, res.proof)
    assert canon(concluded) == canon(goal)
    text = "\n".join(proof_lines(res.proof))
    assert "axiom assoc" in text


def test_padded_context_collapse():
    cart = projection_theory(CARTESIAN)
    goal = parse_equation_text(cart.signature, "f(x,y) ~ x ctx [ x:A y:A ]",
                               structure=CARTESIAN)
    sat = saturate(cart, Bounds(2, 3, 3))
    assert any(canon(eq) == canon(goal) for eq in sat.equations)
    res = prove(cart, goal, Bounds(2, 3, 3))
    assert res.proved
    assert check_proof(cart, res.proof).lhs is goal.lhs


def test_injective_never_derives_collapse():
    goal_text = "f(x,y) ~ x ctx [ x:A y:A ]"
    for structure in (INJECTIVE, STRICT_INCREASING):
        theory = projection_theory(structure)
        goal = parse_equation_text(theory.signature, goal_text,
                                   structure=CARTESIAN)
        for depth in (2, 3, 4):
            sat = saturate(theory, Bounds(depth, 3, 4))
            assert not any(canon(eq) == canon(goal) for eq in sat.equations)
        assert not prove(theory, goal, Bounds(3, 3, 4)).proved
        assert refute_by_invariant(theory, goal)


def test_refute_by_invariant_cases():
    inj = projection_theory(INJECTIVE)
    sig = inj.signature
    x, y, z = (Letter("A", n) for n in "xyz")
    collapse = equation("", app(sig, "f", [var(x), var(y)]), var(x), (x, y))
    assert refute_by_invariant(inj, collapse)
    padded = equation("", app(sig, "f", [var(x), var(y)]), var(x), (x, y, z))
    assert not refute_by_invariant(inj, padded)
    with pytest.raises(DeductionError):
        refute_by_invariant(projection_theory(CARTESIAN), collapse)
    bad_axiom = equation("flat", app(sig, "f", [var(x), var(y)]), var(x),
                         (x, y))
    broken = Theory("Broken", sig, INJECTIVE, (bad_axiom,))
    with pytest.raises(DeductionError):
        refute_by_invariant(broken, collapse)


def test_prove_and_refute_never_both():
    theory = projection_theory(INJECTIVE)
    sig = theory.signature
    x, y, z = (Letter("A", n) for n in "xyz")
    goals = [
        equation("", app(sig, "f", [var(x), var(y)]), var(x), (x, y)),
        equation("", app(sig, "f", [var(x), var(y)]), var(x), (x, y, z)),
        equation("", var(x), var(x), (x, y)),
    ]
    for goal in goals:
        proved = prove(theory, goal, Bounds(3, 3, 4)).proved
        refuted = refute_by_invariant(theory, goal)
        assert not (proved and refuted)


def test_saturation_monotone_in_bounds(monoid):
    small = saturate(monoid, Bounds(2, 3, 3))
    bigger_depth = saturate(monoid, Bounds(3, 3, 3))
    more_rounds = saturate(monoid, Bounds(2, 3, 5))
    small_set = {canon(eq) for eq in small.equations}
    assert small_set <= {canon(eq) for eq in bigger_depth.equations}
    assert small_set <= {canon(eq) for eq in more_rounds.equations}


def test_every_output_replays():
    """Every derived equation of every sample theory, at small bounds, the
    decide bounds and criterion 6's, replays through check_proof to itself."""
    for path in sorted(THEORIES.glob("*.ua")):
        theory = parse_theory(path.read_text())
        for bounds in (Bounds(2, 3, 3), Bounds(3, 3, 4), Bounds(3, 4, 5)):
            sat = saturate(theory, bounds)
            assert sat.equations, (path.name, bounds)
            for eq in sat.equations:
                concluded = check_proof(theory, sat.proof_of(eq))
                assert canon(concluded) == canon(eq), (path.name, bounds, eq)
            if path.name == "eckmann_hilton.ua" and bounds == Bounds(3, 3, 4):
                assert len(sat.equations) == 561
                assert sat.truncated_by == ("ctx", "instantiation", "rounds")


def test_renamed_conclusion_is_skipped_exactly(monoid):
    """_conclude on a letter-renamed copy of an earlier call's (lhs, rhs,
    u_cat) emits nothing and flags nothing; on a fresh engine the copy
    emits exactly the canonical equations the earlier call emitted."""
    sig = monoid.signature
    v = tuple(_pool_letter("M", i) for i in (1, 2, 3))
    _, a, b = canon(monoid.axiom("assoc"))
    x, y, z, w = (Letter("M", n) for n in "xyzw")

    def call(engine, images):
        out: list = []
        ws = tuple(terminal_context(monoid.structure, tau(t)) for t in images)
        u_cat = tuple(q for wi in ws for q in wi)
        engine._conclude((v, a, b), images, images, ws, u_cat, None, out)
        return {c[:3] for c in out}

    original = (app(sig, "mul", [var(x), var(y)]), var(z), var(w))
    renamed = (app(sig, "mul", [var(w), var(x)]), var(y), var(z))
    engine = _Saturator(monoid, Bounds(4, 4, 4))
    emitted = call(engine, original)
    assert emitted
    flags = set(engine.truncated_by)
    assert call(engine, renamed) == set()
    assert engine.truncated_by == flags
    assert call(_Saturator(monoid, Bounds(4, 4, 4)), renamed) == emitted
    # a call that is no renaming of the first still concludes
    assert call(engine, (app(sig, "mul", [var(x), var(x)]), var(z), var(w)))


def test_deep_proofs_do_not_recurse(monoid):
    t = app(monoid.signature, "mul", [var(X), var(Y)])
    step = Refl(t, (X, Y))
    proof = step
    for _ in range(5000):
        proof = Trans(proof, step)
    assert check_proof(monoid, proof) == equation("", t, t, (X, Y))
    lines = proof_lines(proof)
    assert len(lines) == 10001
    assert lines[0] == "trans" and lines[-1].startswith("  refl")


def test_canonical_identification(monoid):
    a = parse_equation_text(monoid.signature,
                            "mul(e,x) ~ x ctx [ x:M ]")
    b = parse_equation_text(monoid.signature,
                            "mul(e,q) ~ q ctx [ q:M ]")
    assert canon(a) == canon(b)
    # an axiom leaf may state any letter-renamed form of the axiom
    renamed = check_proof(monoid, Axiom("lunit", b))
    assert renamed == b


def test_check_proof_rejects_bad_nodes(monoid):
    sig = monoid.signature
    ax = monoid.axiom("lunit")
    assert check_proof(monoid, Axiom("lunit", ax)) == ax
    flipped = check_proof(monoid, Sym(Axiom("lunit", ax)))
    assert flipped.lhs is ax.rhs and flipped.rhs is ax.lhs
    with pytest.raises(ProofError):
        check_proof(monoid, Axiom("lunit", monoid.axiom("runit")))
    with pytest.raises(ProofError):
        check_proof(monoid, Refl(app(sig, "mul", [var(X), var(X)]), (Y,)))
    # the per-letter context fails to govern the substituted word
    bad_subst = Subst(
        s1=((X, app(sig, "mul", [var(X), var(X)])),),
        s2=((X, app(sig, "mul", [var(X), var(X)])),),
        w=(X,), ws=((Y,),),
        premise=Axiom("lunit", ax),
        sides=(Refl(app(sig, "mul", [var(X), var(X)]), (Y,)),))
    with pytest.raises(ProofError):
        check_proof(monoid, bad_subst)
    with pytest.raises(ProofError):
        check_proof(monoid, Trans(Axiom("lunit", ax), Axiom("runit",
                                                            monoid.axiom("runit"))))


def test_structure_ordering_on_projection_theory():
    goal_free = None
    derived = {}
    for structure in (STRICT_INCREASING, INJECTIVE, CARTESIAN):
        theory = projection_theory(structure)
        sat = saturate(theory, Bounds(2, 3, 3))
        derived[structure.kind] = {canon(eq) for eq in sat.equations}
    assert derived["strict-increasing"] <= derived["injective"]
    assert derived["injective"] <= derived["cartesian"]


def test_structure_ordering_on_monoid():
    base = parse_theory(MONOID_TEXT)
    derived = {}
    for structure in (TRIVIAL, BIJECTIVE, SURJECTIVE, CARTESIAN):
        theory = Theory(base.name, base.signature, structure, base.equations)
        sat = saturate(theory, Bounds(2, 3, 3))
        derived[structure.kind] = {canon(eq) for eq in sat.equations}
    assert derived["trivial"] <= derived["bijective"]
    assert derived["bijective"] <= derived["surjective"]
    assert derived["surjective"] <= derived["cartesian"]


def test_truncation_is_flagged(monoid):
    goal = parse_equation_text(monoid.signature,
                               "mul(x,y) ~ mul(y,x) ctx [ x:M y:M ]",
                               structure=monoid.structure)
    res = prove(monoid, goal, Bounds(3, 3, 4))
    assert not res.proved
    assert res.truncated and res.truncated_by


def test_instantiation_budget_keeps_the_closed_instances(monoid, monkeypatch):
    """Past the budget an equation is instantiated at constants only: the
    rest is flagged as skipped, the closed instances are still derived,
    and every event replays."""
    monkeypatch.setattr(deduction, "_INST_BUDGET", 2)
    engine = _Saturator(monoid, Bounds(2, 2, 2))
    engine.run()
    assert "instantiation" in engine.truncated_by
    sig = monoid.signature
    e = app(sig, "e")
    assert engine.holds_canonically((), app(sig, "mul", [e, e]), e)
    for ctx, a, b in engine.events:
        concluded = check_proof(monoid,
                                engine.proof_of(equation("", a, b, ctx)))
        assert canon(concluded) == canonical_triple(ctx, a, b)


WEAKENING_TEXT = """theory W
structure {}
sort A B
op f : A -> B
op a : -> A
eq k : f(x) ~ f(a) ctx [ x:A ]
"""


@pytest.mark.parametrize("kind",
                         ["cartesian", "injective", "strict-increasing"])
def test_unseen_weakening_is_flagged(kind):
    """f(x) ~ f(y) at [x y] is k weakened to [x y] at x -> x, then back at
    x -> y.  The engine never weakens into more letters, so prove() misses
    it, and must say its search was cut rather than saturated."""
    E = parse_theory(WEAKENING_TEXT.format(kind))
    goal = parse_equation_text(E.signature, "f(x) ~ f(y) ctx [ x:A y:A ]",
                               structure=E.structure)
    k = E.axiom("k")

    def weakened(z):
        s = ((k.ctx[0], var(z)),)
        return Subst(s, s, goal.ctx, ((z,),), Axiom("k", k),
                     (Refl(var(z), (z,)),))

    x, y = goal.ctx
    got = check_proof(E, Trans(weakened(x), Sym(weakened(y))))
    assert (got.lhs, got.rhs, got.ctx) == (goal.lhs, goal.rhs, goal.ctx)
    for bounds in (Bounds(3, 3, 8), Bounds(4, 4, 8)):
        res = prove(E, goal, bounds)
        assert not res.proved
        assert res.truncated_by == ("weakening",)


def test_weakening_flag_needs_a_smaller_edge():
    """With no axioms no space holds an edge, so nothing could be weakened:
    the free magma's commutativity stays saturated."""
    free = parse_theory("theory Free\nstructure cartesian\nsort A\n"
                        "op f : A A -> A\n")
    goal = parse_equation_text(free.signature,
                               "f(x,y) ~ f(y,x) ctx [ x:A y:A ]",
                               structure=free.structure)
    res = prove(free, goal, Bounds(3, 3, 4))
    assert not res.proved and res.truncated_by == ()


def test_eh_units_coincide():
    EH = eckmann_hilton_theory()
    goal = parse_equation_text(EH.signature, "e ~ u ctx [ ]",
                               structure=EH.structure)
    res = prove(EH, goal, Bounds(4, 4, 6))
    assert res.proved
    assert check_proof(EH, res.proof).ctx == ()


def test_engines_are_freed_by_reference_counting(monoid, monkeypatch):
    """Justifications hold terms and numbers, never the engine or a space,
    so a finished engine goes as soon as its result does, without the
    cycle collector."""
    engines = []

    class Tracked(_Saturator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(weakref.ref(self))

    monkeypatch.setattr(deduction, "_Saturator", Tracked)
    monkeypatch.setattr(universal, "_Saturator", Tracked)
    goal = parse_equation_text(monoid.signature,
                               "mul(e,mul(x,e)) ~ x ctx [ x:M ]",
                               structure=monoid.structure)
    gc.collect()
    gc.disable()
    try:
        sat = saturate(monoid, Bounds(2, 3, 3))
        proofs = [sat.proof_of(eq) for eq in sat.equations]
        del sat
        res = prove(monoid, goal, Bounds(3, 3, 4))
        assert res.proved
        del res
        part = universal_hom(projection_theory(INJECTIVE), (("A", "A"), "A"),
                             Bounds(2, 3, 6))
        assert part.classes
        del part
        assert len(engines) == 3
        assert [ref() for ref in engines] == [None, None, None]
    finally:
        gc.enable()
    assert proofs


def test_eh_commutativity_proof_sizes():
    """The proofs that the derive benchmark replays keep their size: 246 and
    232 lines, as when every proof was built eagerly."""
    EH = eckmann_hilton_theory()
    for text, lines in (("o(x,y) ~ o(y,x) ctx [ x:M y:M ]", 246),
                        ("star(x,y) ~ star(y,x) ctx [ x:M y:M ]", 232)):
        goal = parse_equation_text(EH.signature, text, structure=EH.structure)
        res = prove(EH, goal, Bounds(4, 4, 8))
        assert res.proved
        assert len(proof_lines(res.proof)) == lines
        concluded = check_proof(EH, res.proof)
        assert (concluded.lhs, concluded.rhs) == (goal.lhs, goal.rhs)


def _prove_and_run_to_bound(E, goal, bounds, monkeypatch):
    """prove()'s result and its engine, next to an engine with the same
    seeds run to its bound with no stop, and the proof that one gives."""
    engines = []

    class Tracked(_Saturator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    with monkeypatch.context() as m:
        m.setattr(deduction, "_Saturator", Tracked)
        res = prove(E, goal, bounds)
    full = _Saturator(E, bounds, extra_terms=[(goal.ctx, goal.lhs),
                                              (goal.ctx, goal.rhs)])
    full.run()
    return res, engines[0], full, _weakening_proof(E, full, goal)


def _proj(path, text):
    theory = parse_theory((THEORIES / path).read_text())
    return theory, parse_equation_text(theory.signature, text,
                                       structure=theory.structure)


def test_goal_directed_stop_is_exact(monoid, monkeypatch):
    """prove() stops once the goal holds at its first admissible context;
    its proof, or for an unproved goal its truncation flags, are what an
    engine run to its bound gives."""
    EH = eckmann_hilton_theory()
    eh_goals = [(EH, parse_equation_text(EH.signature, text,
                                         structure=EH.structure))
                for text in ("o(x,y) ~ o(y,x) ctx [ x:M y:M ]",
                             "star(x,y) ~ star(y,x) ctx [ x:M y:M ]")]
    for E, goal in eh_goals:
        res, engine, full, want = _prove_and_run_to_bound(
            E, goal, Bounds(4, 4, 8), monkeypatch)
        assert res.proved and want is not None
        assert proof_lines(res.proof) == proof_lines(want)
        assert engine.rounds_used < full.rounds_used  # the stop saved work

    # [x y p] holds from the axiom before round 1, but the proof a full run
    # gives is weakened from [x y], which holds only later.
    E, goal = _proj("first_projection.ua", "f(x,y) ~ x ctx [ x:A y:A p:A ]")
    res, engine, full, want = _prove_and_run_to_bound(
        E, goal, Bounds(3, 3, 4), monkeypatch)
    assert res.proved
    assert proof_lines(res.proof) == proof_lines(want)
    assert check_proof(E, want.premise).ctx == goal.ctx[:2]

    # The first admissible context, [x y], never holds under the injective
    # structure, so prove() runs to its bound and proves the goal at a
    # later context.
    E, goal = _proj("first_projection_injective.ua",
                    "f(x,y) ~ x ctx [ p:A x:A y:A ]")
    res, engine, full, want = _prove_and_run_to_bound(
        E, goal, Bounds(3, 3, 4), monkeypatch)
    assert res.proved
    assert proof_lines(res.proof) == proof_lines(want)
    assert engine.rounds_used == full.rounds_used
    assert res.truncated_by == _truncation_flags(E, full, goal, True)

    goal = parse_equation_text(monoid.signature,
                               "mul(x,y) ~ mul(y,x) ctx [ x:M y:M ]",
                               structure=monoid.structure)
    res, engine, full, want = _prove_and_run_to_bound(
        monoid, goal, Bounds(3, 3, 4), monkeypatch)
    assert not res.proved and want is None
    assert res.truncated_by == _truncation_flags(E, full, goal, False)
    assert res.truncated_by


def test_union_edges_form_a_spanning_forest(monkeypatch):
    """union() adds an edge only between two classes, so each space's edges
    form a spanning forest: one edge fewer than terms per class.  A path
    between two terms is then unique, and later edges never change it, so
    a proof assembled on first use is the one its edge was found with, and
    the goal-directed stop is exact.  Checked on the sweep workloads and on
    one prove() engine."""
    def check(name, engine):
        assert any(sp.why for sp in engine.spaces.values()), name
        for ctx, sp in engine.spaces.items():
            roots = sum(1 for t in sp.parent if sp.find(t) is t)
            assert len(sp.why) == len(sp.parent) - roots, (name, ctx)

    for name, make in _sweep_workloads():
        check(name, make())

    engines = []

    class Tracked(_Saturator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    EH = eckmann_hilton_theory()
    goal = parse_equation_text(EH.signature, "o(x,y) ~ o(y,x) ctx [ x:M y:M ]",
                               structure=EH.structure)
    with monkeypatch.context() as m:
        m.setattr(deduction, "_Saturator", Tracked)
        assert prove(EH, goal, Bounds(4, 4, 8)).proved
    check("prove o-commutativity", engines[0])


# -- the incremental congruence sweep ------------------------------------------
#
# The full walk below is the reference for the engine's sweep.  Both walk
# every parent in universe order; the reference differs only in keeping the
# set of (parent, pos, mate) triples it swapped, where the engine skips a
# child of an old parent that kept its mate, and in finding each mate from
# the least member of each class by scanning the space, where the engine
# reads it off `find`.  Its swap and conclusion steps, monkeypatched in with
# it, keep no side memo, take no shortcut for closed sides, and remember the
# canonical pairs they emitted.


def _least_members(sp):
    """Each class's least member by `_term_key`, keyed by its root."""
    least = {}
    for t in sp.parent:
        root = sp.find(t)
        if root not in least or \
                deduction._term_key(t) < deduction._term_key(least[root]):
            least[root] = t
    return least


def _raw_smallest_mate(self, u, least):
    key = deduction._term_key
    best = None
    for canon_ctx, cu, perm in self._canonical_views(u):
        sp = self.spaces.get(canon_ctx)
        if sp is None or cu not in sp.parent:
            continue
        if canon_ctx not in least:
            least[canon_ctx] = _least_members(sp)
        small = least[canon_ctx][sp.find(cu)]
        if small is cu:
            continue
        cand = apply_renaming({y: var(x) for y, x in zip(canon_ctx, perm)},
                              small)
        if key(cand) < key(u) and (best is None or key(cand) < key(best)):
            best = cand
    return best


def _full_walk_sweep(self, out):
    sweep_seen = self.__dict__.setdefault("_sweep_seen", set())
    mates, least = {}, {}
    for parent in list(self.universe):
        if not isinstance(parent, App) or not parent.args:
            continue
        if self.ground is not None and tau(parent):
            continue  # a ground engine walks closed parents only
        for pos, child in enumerate(parent.args):
            if child in mates:
                mate = mates[child]
            else:
                mate = mates[child] = _raw_smallest_mate(self, child, least)
            if mate is None:
                continue
            memo_key = (parent, pos, mate)
            if memo_key in sweep_seen:
                continue
            sweep_seen.add(memo_key)
            self._swap_child(parent, pos, mate, out)


def _full_walk_swap_child(self, parent, pos, replacement, out):
    old = parent.args[pos]
    if old is replacement or old.sort != replacement.sort:
        return
    if not deduction._term_key(replacement) < deduction._term_key(old):
        return
    w_i = self._known_equal(old, replacement)
    if w_i is None:
        return
    ws = []
    for j, child in enumerate(parent.args):
        if j == pos:
            ws.append(w_i)
        else:
            w_j = terminal_context(self.R, tau(child))
            if w_j is None:
                return
            ws.append(w_j)
    u_cat = tuple(y for w_j in ws for y in w_j)
    template_ctx = tuple(deduction._template_letter(c.sort, j)
                         for j, c in enumerate(parent.args, start=1))
    template = app(self.sig, parent.op, [var(x) for x in template_ctx])
    images = list(parent.args)
    images[pos] = replacement
    self._conclude((template_ctx, template, template), parent.args,
                   tuple(images), tuple(ws), u_cat, pos, out)


def _full_walk_conclude(self, premise, images1, images2, ws, u_cat, pos,
                        out):
    ctx, a, b = premise
    s1, s2 = dict(zip(ctx, images1)), dict(zip(ctx, images2))
    distinct = tuple(dict.fromkeys(u_cat))
    if len(distinct) > self.bounds.max_ctx_len:
        self.truncated_by.add("ctx")
        return
    lhs = apply_renaming(s1, a)
    rhs = apply_renaming(s2, b)
    if lhs is rhs:
        return
    if max(term_depth(lhs), term_depth(rhs)) > self.depth_cap:
        self.truncated_by.add("depth")
        return
    orbit = deduction._first_occurrence_form(lhs, rhs, u_cat)
    if orbit in self._concluded:
        return
    self._concluded.add(orbit)
    if len(distinct) <= 4:
        orders = itertools.permutations(distinct)
    else:
        self.truncated_by.add("ctx")
        orders = [distinct]
    for w in orders:
        if not holds(self.R, w, u_cat):
            continue
        canon_ctx, (ca, cb), _ = deduction._canonicalize(w, [lhs, rhs])
        key = (canon_ctx, ca, cb) \
            if deduction._term_key(ca) <= deduction._term_key(cb) \
            else (canon_ctx, cb, ca)
        seen_merges = self.__dict__.setdefault("seen_merges", set())
        if key in seen_merges:
            continue
        seen_merges.add(key)
        sp = self.spaces.get(canon_ctx)
        if sp is not None and sp.same(ca, cb):
            continue
        why = deduction._Rule5(premise, images1, images2, w, ws, pos)
        out.append((canon_ctx, ca, cb, why))


def _why_record(why):
    if isinstance(why, deduction._Rule5):
        return ("rule5", why.premise, why.images1, why.images2, why.w,
                why.ws, why.pos)
    return ("proof", tuple(proof_lines(why)))


def _engine_record(engine):
    return (engine.events, sorted(engine.truncated_by), engine.rounds_used,
            [(ctx, [_why_record(w) for w in sp.why])
             for ctx, sp in engine.spaces.items()])


def _sweep_workloads():
    """(name, engine factory) for the four sample theories at two bounds and
    the Eckmann-Hilton quotient with criterion 10's goal sides."""
    runs = []
    for path in sorted(THEORIES.glob("*.ua")):
        theory = parse_theory(path.read_text())
        for bounds in (Bounds(2, 3, 3), Bounds(3, 3, 4)):
            runs.append((f"{path.name} {bounds}",
                         lambda E=theory, b=bounds: saturate(E, b)._engine))

    def eh_quotient():
        EH = eckmann_hilton_theory()
        hom = (("M", "M"), "M")
        sigma = default_sigma(EH, hom)
        extra = []
        for key, text, _ in GOAL_LIST:
            if key == "eh":
                goal = parse_equation_text(EH.signature, text,
                                           structure=EH.structure)
                extra += [internalize_term(sigma, goal.ctx, goal.lhs),
                          internalize_term(sigma, goal.ctx, goal.rhs)]
        return universal_hom(EH, hom, Bounds(2, 3, 8), extra_terms=extra,
                             sigma=sigma)._engine

    runs.append(("eckmann_hilton universal_hom", eh_quotient))
    return runs


def test_incremental_sweep_matches_the_full_walk(monkeypatch):
    """Skipping the children of old parents that kept their mates,
    per-sweep mate and side memos, the closed-term path, and reading the
    mates off the union-find change no candidate and no candidate order:
    events, flags, rounds and every union edge's justification equal the
    full walk's."""
    runs = _sweep_workloads()
    got = [_engine_record(make()) for _, make in runs]
    monkeypatch.setattr(_Saturator, "_congruence_sweep", _full_walk_sweep)
    monkeypatch.setattr(_Saturator, "_swap_child", _full_walk_swap_child)
    monkeypatch.setattr(_Saturator, "_conclude", _full_walk_conclude)
    for (name, make), record in zip(runs, got):
        assert record == _engine_record(make()), name


def test_roots_are_least_and_swaps_never_repeat(monkeypatch):
    """Every class's root is its least member, which `_smallest_mate` reads
    through `find`; and since mates never rise, no (parent, pos, mate)
    reaches `_swap_child` twice, which is what lets the sweep skip without
    remembering the triples."""
    calls = []
    swap_child = _Saturator._swap_child

    def recording(self, parent, pos, replacement, out):
        # the mate is a strictly smaller member of the child's class
        old = parent.args[pos]
        assert replacement.sort == old.sort
        assert deduction._term_key(replacement) < deduction._term_key(old)
        calls.append((parent, pos, replacement))
        swap_child(self, parent, pos, replacement, out)

    monkeypatch.setattr(_Saturator, "_swap_child", recording)
    swaps = 0
    for name, make in _sweep_workloads():
        calls.clear()
        engine = make()
        swaps += len(calls)
        assert len(set(calls)) == len(calls), name
        for ctx, sp in engine.spaces.items():
            for t in sp.parent:
                assert deduction._term_key(sp.find(t)) <= \
                    deduction._term_key(t), (name, ctx, t)
    assert swaps


def test_saturation_digest():
    """A sha256 over the events, flags, rounds and every equation's proof
    of `saturate` on the sample theories at two bounds; an engine change
    that keeps outputs exact keeps it."""
    h = hashlib.sha256()
    for path in sorted(THEORIES.glob("*.ua")):
        theory = parse_theory(path.read_text())
        for bounds in (Bounds(2, 3, 3), Bounds(3, 3, 4)):
            sat = saturate(theory, bounds)
            h.update(f"{path.name} {bounds} {sat.truncated_by} "
                     f"{sat.rounds_used}\n".encode())
            for eq in sat.equations:
                h.update(f"{eq}\n".encode())
                for line in proof_lines(sat.proof_of(eq)):
                    h.update(f"  {line}\n".encode())
    assert h.hexdigest() == (
        "3d0459cb62d2eaa80475269faf9500d95ee38cf63f09b4e2d2bbc0757ac111fb")


def test_space_terms_stay_inside_their_context():
    """Every term of a space has its letters in that space's context, so a
    class's smallest member can always be renamed back through a view."""
    for name, make in _sweep_workloads():
        for ctx, sp in make().spaces.items():
            letters = set(ctx)
            for t in sp.parent:
                assert set(tau(t)) <= letters, (name, ctx, t)
