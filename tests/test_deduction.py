"""The bounded saturation engine, proof replay, and the refutation invariant."""

import collections
import copy
import gc
import hashlib
import itertools
import math
import pickle
import weakref
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from ualg import context, deduction, syntax, universal
from ualg.context import (
    BIJECTIVE, CARTESIAN, INJECTIVE, STRICT_INCREASING, STRUCTURES, SURJECTIVE,
    TRIVIAL, Letter, holds, terminal_context,
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
from ualg.setmodel import find_model, format_model, iter_models, satisfies
from ualg.syntax import (
    App, Theory, TheoryError, TypingError, app, apply_renaming, equation,
    parse_equation_text, parse_theory, tau, term_depth, var,
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
        assert not sat.truncated_by


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


def test_check_proof_rejects_an_ill_sorted_substitution():
    """A renaming must keep each letter's sort, even for a letter neither
    side uses: mapping the unused x:A to a B-constant would drop x from the
    context, and the conclusion fails in a model whose A is empty."""
    E = parse_theory("theory T\nstructure cartesian\nsort A B\n"
                     "op a : -> B\nop b : -> B\n"
                     "eq k : a ~ b ctx [ x:A ]\n")
    x = Letter("A", "x")
    a = app(E.signature, "a")
    forged = Subst(s1=((x, a),), s2=((x, a),), w=(), ws=((),),
                   premise=Axiom("k", E.axiom("k")), sides=(Refl(a, ()),))
    closed = equation("", a, app(E.signature, "b"), ())
    assert find_model(E, 2, avoid=closed) is not None
    with pytest.raises(ProofError):
        check_proof(E, forged)


def test_check_proof_rejects_an_axiom_stated_at_a_repeated_letter():
    """An axiom node's stated context must not repeat a letter, though its
    canonical form may match the axiom's: [x x] renames like [a b]."""
    E = parse_theory("theory T\nstructure injective\nsort A\n"
                     "op g : A -> A\nop h : A -> A\n"
                     "eq k : g(b) ~ h(b) ctx [ a:A b:A ]\n")
    x = var(Letter("A", "x"))
    stated = syntax.Equation("", app(E.signature, "g", [x]),
                             app(E.signature, "h", [x]),
                             (x.letter, x.letter))
    with pytest.raises(ProofError):
        check_proof(E, Axiom("k", stated))


def test_check_proof_rejects_every_malformed_node_with_a_proof_error(monoid):
    """A node naming no axiom, and a substitution whose renamings miss the
    premise's context or whose target contexts do not match its letters,
    raise ProofError with the message of the check that rejects them."""
    sig = monoid.signature
    ax = monoid.axiom("lunit")
    e = app(sig, "e")
    with pytest.raises(ProofError, match="no axiom named 'nope'"):
        check_proof(monoid, Axiom("nope", ax))
    with pytest.raises(ProofError, match="renaming domain must equal"):
        check_proof(monoid, Subst(s1=((Y, e),), s2=((Y, e),), w=(), ws=((),),
                                  premise=Axiom("lunit", ax),
                                  sides=(Refl(e, ()),)))
    with pytest.raises(ProofError, match="need one target context per"):
        check_proof(monoid, Subst(s1=((X, e),), s2=((X, e),), w=(),
                                  ws=((), ()), premise=Axiom("lunit", ax),
                                  sides=(Refl(e, ()),)))


def test_replay_rejects_each_single_fault_node(monoid):
    """One fault per node, each caught by its own check: the premises of a
    transitivity step at different contexts, a second renaming outside its
    guard, too few side premises, a side premise concluding the wrong
    equation, and a node of no proof rule, which the printer rejects too."""
    ax = Axiom("lunit", monoid.axiom("lunit"))
    e = app(monoid.signature, "e")

    def subst(s2, sides):
        return Subst(s1=((X, var(Y)),), s2=((X, s2),), w=(Y,), ws=((Y,),),
                     premise=ax, sides=sides)

    forged = [
        (Trans(ax, Refl(var(Y), (Y,))), "premises use different contexts"),
        (subst(var(X), (Refl(var(Y), (Y,)),)),
         "second renaming violates the guard"),
        (subst(var(Y), ()), "need one side premise per letter"),
        (subst(var(Y), (Refl(e, ()),)),
         "side premise for x does not conclude"),
        (Sym(deduction.Proof()), "unknown proof node Proof"),
    ]
    for node, message in forged:
        with pytest.raises(ProofError, match=message):
            check_proof(monoid, node)
    with pytest.raises(ProofError, match="unknown proof node Proof"):
        proof_lines(Sym(deduction.Proof()))


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
    assert res.truncated_by


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


CLOSED_AXIOM_TEXT = """theory Closed
structure trivial
sort A
op f : A -> A
op {a} : -> A
op {c} : -> A
eq k : {a} ~ {c} ctx [ ]
"""


@pytest.mark.parametrize("a, c", [("a", "c"), ("qz", "qy")])
def test_closed_events_flag_no_instantiation(a, c):
    """A closed event has no letters, so instantiating it drops nothing.
    Under the naming qz ~ qy the swap toward qy registers new terms after
    round 1 and a closed event too deep to instantiate, which flagged
    `instantiation` although every event was closed; the goal is
    saturated under both namings, and a size-2 model refutes it."""
    E = parse_theory(CLOSED_AXIOM_TEXT.format(a=a, c=c))
    goal = parse_equation_text(E.signature, f"f(f({a})) ~ f({a}) ctx [ ]",
                               structure=E.structure)
    for bounds in (Bounds(3, 3, 4), Bounds(3, 3, 8), Bounds(5, 3, 8)):
        res = prove(E, goal, bounds)
        assert not res.proved and res.truncated_by == (), bounds
    model = find_model(E, 2, goal)
    assert model is not None and model.carriers == {"A": 2}


MATE_TEXT = """theory Mates
structure {}
sort A B
op f : A -> B
op g : B -> B
op h : B B -> B
op a : -> A
eq k : f(x) ~ f(a) ctx [ x:A ]
"""

MATE_GOALS = {
    "cartesian": ("g(f(x)) ~ g(f(a))", "g(g(f(x))) ~ g(g(f(a)))",
                  "h(f(x),f(x)) ~ h(f(a),f(a))",
                  "h(f(x),f(a)) ~ h(f(a),f(x))"),
    "injective": ("g(f(x)) ~ g(f(a))", "g(g(f(x))) ~ g(g(f(a)))",
                  "h(f(x),f(a)) ~ h(f(a),f(x))"),
    "strict-increasing": ("g(f(x)) ~ g(f(a))", "g(g(f(x))) ~ g(g(f(a)))",
                          "h(f(x),f(a)) ~ h(f(a),f(x))"),
}


@pytest.mark.parametrize("kind", sorted(MATE_GOALS))
def test_a_mate_in_a_wider_space_is_never_saturated(kind):
    """In the [_v1] space the class of f(_v1) holds f(a), with root f(_v1)
    since '_' < 'a'.  The smallest-mate search reads f(a)'s class only in
    the closed space, so g(f(a)) is never swapped and these derivable goals
    go unproved.  Each must be proved by a proof that replays, or carry a
    truncation flag, never read as saturated.  The first goal's one-step
    congruence proof is replayed by hand."""
    E = parse_theory(MATE_TEXT.format(kind))
    goals = [parse_equation_text(E.signature, f"{text} ctx [ x:A ]",
                                 structure=E.structure)
             for text in MATE_GOALS[kind]]
    k = E.axiom("k")
    (x,) = goals[0].ctx
    p = Letter("B", "p")
    hand = Subst(((p, k.lhs),), ((p, k.rhs),), (x,), ((x,),),
                 Refl(app(E.signature, "g", [var(p)]), (p,)), (Axiom("k", k),))
    got = check_proof(E, hand)
    assert (got.lhs, got.rhs, got.ctx) == (goals[0].lhs, goals[0].rhs, (x,))
    for goal in goals:
        res = prove(E, goal, Bounds(4, 4, 8))
        if res.proved:
            got = check_proof(E, res.proof)
            assert (got.lhs, got.rhs, got.ctx) == (
                goal.lhs, goal.rhs, goal.ctx), str(goal)
        else:
            assert res.truncated_by, str(goal)


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
# reads it off `find`.  Its instantiation, swap and conclusion steps,
# monkeypatched in with it, keep no side memo, remember the canonical pairs
# they emitted, and share no helper with the engine's: instantiation takes
# the engine's targets and budget but keys no combo, so every combo reaches
# the conclusion step; that step finds the governing orders by filtering
# every permutation through `holds`, canonicalizes on its own, and keys a
# conclusion by its first-occurrence form.


def _ref_canonicalize(ctx, terms):
    sub = {x: var(Letter(x.sort, f"_v{i}")) for i, x in enumerate(ctx, 1)}
    return (tuple(sub[x].letter for x in ctx),
            [apply_renaming(sub, t) for t in terms])


def _ref_orders(R, distinct, *words):
    """The orders of `distinct` that govern every word, in permutation
    order."""
    return [p for p in itertools.permutations(distinct)
            if all(holds(R, p, v) for v in words)]


def _ref_first_occurrence_key(lhs, rhs, word):
    """The triple with its letters relabelled by first occurrence: two
    triples share it iff a sort-preserving letter bijection maps one onto
    the other."""
    sub = {}
    for x in itertools.chain(tau(lhs), tau(rhs), word):
        sub.setdefault(x, var(Letter(x.sort, f"_v{len(sub) + 1}")))
    return (apply_renaming(sub, lhs), apply_renaming(sub, rhs),
            tuple(sub[x] for x in word))


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
    for perm in _ref_orders(self.R, tuple(dict.fromkeys(tau(u))), tau(u)):
        canon_ctx, (cu,) = _ref_canonicalize(perm, [u])
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


def _full_walk_instantiate(self, event, axiom_level, out):
    ctx = event[0]
    if not ctx:
        return
    target_lists = [self._targets_for(len(ctx), x.sort, axiom_level)
                    for x in ctx]
    if math.prod(map(len, target_lists)) > deduction._INST_BUDGET:
        self.truncated_by.add("instantiation")
        target_lists = [[t for t in lst if isinstance(t, App) and not t.args]
                        for lst in target_lists]
        if math.prod(map(len, target_lists)) > deduction._INST_BUDGET:
            return
    for combo in itertools.product(*target_lists):
        ws = tuple(terminal_context(self.R, tau(t)) for t in combo)
        if None not in ws:
            u_cat = tuple(y for w in ws for y in w)
            self._conclude(event, combo, combo, ws, u_cat, None, out)


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
    distinct = tuple(dict.fromkeys(tau(old) + tau(replacement)))
    for w_i in _ref_orders(self.R, distinct, tau(old), tau(replacement)):
        canon_ctx, (cu, cv) = _ref_canonicalize(w_i, [old, replacement])
        sp = self.spaces.get(canon_ctx)
        if sp is not None and sp.same(cu, cv):
            break
    else:
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
    orbit = _ref_first_occurrence_key(lhs, rhs, u_cat)
    if orbit in self._concluded:
        return
    self._concluded.add(orbit)
    orders = _ref_orders(self.R, distinct, u_cat)
    if len(distinct) > 4:
        # beyond four letters only the first governing order, the terminal
        # context, is kept
        self.truncated_by.add("ctx")
        orders = orders[:1]
    for w in orders:
        canon_ctx, (ca, cb) = _ref_canonicalize(w, [lhs, rhs])
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
    per-sweep mate and side memos, governing orders in place of filtering
    permutations, the canonical conclusion key, skipping renamed
    instantiation combos by their image keys, and reading the mates off
    the union-find change no candidate and no candidate order:
    events, flags, rounds and every union edge's justification equal the
    full walk's."""
    runs = _sweep_workloads()
    got = [_engine_record(make()) for _, make in runs]
    monkeypatch.setattr(_Saturator, "_instantiate", _full_walk_instantiate)
    monkeypatch.setattr(_Saturator, "_congruence_sweep", _full_walk_sweep)
    monkeypatch.setattr(_Saturator, "_swap_child", _full_walk_swap_child)
    monkeypatch.setattr(_Saturator, "_conclude", _full_walk_conclude)
    for (name, make), record in zip(runs, got):
        assert record == _engine_record(make()), name


def test_renamed_instantiations_are_keyed_once(monkeypatch, monoid):
    """`assoc` at the four depth-1 targets of Monoid has 64 combos, which
    fall into 15 classes under letter renaming: `_instantiate` concludes
    once per class and emits the candidates and flags of a conclusion at
    every combo."""
    calls = []
    conclude = _Saturator._conclude

    def counting(self, *args):
        calls.append(args[1])
        conclude(self, *args)

    monkeypatch.setattr(_Saturator, "_conclude", counting)
    runs = []
    for instantiate in (_Saturator._instantiate, _full_walk_instantiate):
        engine = _Saturator(monoid, Bounds(3, 3, 4))
        event = engine.events[0]
        assert set(event[1:]) == set(canon(monoid.axiom("assoc"))[1:])
        assert len(engine._targets_for(3, "M", True)) == 4
        calls.clear()
        out: list = []
        instantiate(engine, event, True, out)
        runs.append((len(calls), [c[:3] + (_why_record(c[3]),) for c in out],
                     set(engine.truncated_by)))
    (keyed, out, flags), (walked, full_out, full_flags) = runs
    assert (keyed, walked) == (15, 64)
    assert out == full_out and flags == full_flags
    assert len(out) == 25


VIEWS_TEXT = """theory Views
structure {}
sort A
op h : A A -> A
op g : A A A -> A
op a : -> A
"""


@pytest.mark.parametrize("R", STRUCTURES, ids=str)
def test_first_view_is_the_terminal_context(R):
    """`_instantiate` reads each target's terminal context and canonical
    form off its first view: on every word of up to three letters, repeats
    included, the first view is the term canonicalized at its terminal
    context, with that context, and a word with no terminal context has
    no views."""
    E = parse_theory(VIEWS_TEXT.format(R.kind))
    engine = _Saturator(E, Bounds(3, 3, 1))
    letters = [Letter("A", name) for name in "xyz"]
    heads = {0: "a", 2: "h", 3: "g"}  # the op applied to a word's letters
    seen = set()
    for n in range(4):
        for word in itertools.product(letters, repeat=n):
            t = var(word[0]) if n == 1 else \
                app(E.signature, heads[n], [var(x) for x in word])
            assert tau(t) == word
            views = engine._canonical_views(t)
            c = terminal_context(R, word)
            seen.add(c is None)
            if c is None:
                assert views == [], word
                continue
            canon_ctx, (ct,) = _ref_canonicalize(c, [t])
            assert views[0] == (canon_ctx, ct, c), word
    assert False in seen
    assert (True in seen) == (
        R in (TRIVIAL, BIJECTIVE, STRICT_INCREASING, INJECTIVE))


def test_instantiation_reads_targets_off_their_views(monkeypatch):
    """One `_instantiate` of `assoc` at its four depth-1 targets concludes
    the same 15 combos as keying by images canonicalized at the
    first-occurrence order, and reaches `terminal_context` and
    `_canonicalize` only through `_canonical_views`, at most once per
    target it had no views for: never once per combo.  Every
    `_canonicalize` call renames through the tables the engine holds, its
    theory's.  A freshly parsed theory has no views yet."""
    calls = []
    monkeypatch.setattr(_Saturator, "_conclude",
                        lambda self, *args: calls.append(args[1]))
    monoid = monoid_theory()
    engine = _Saturator(monoid, Bounds(3, 3, 4))
    event = engine.events[0]
    targets = engine._targets_for(3, "M", True)
    new = [t for t in targets if t not in engine._views]
    assert len(targets) == 4 and new

    counts = {"outside": 0, "terminal_context": 0, "_canonicalize": 0}
    inside = []
    canonical_views = _Saturator._canonical_views

    def viewing(self, u):
        inside.append(u)
        try:
            return canonical_views(self, u)
        finally:
            inside.pop()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            if not inside:
                counts["outside"] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(_Saturator, "_canonical_views", viewing)
    for module in (context, syntax, deduction):
        monkeypatch.setattr(module, "terminal_context",
                            counted("terminal_context",
                                    context.terminal_context))
    tables = []
    canonicalize = counted("_canonicalize", deduction._canonicalize)

    def renaming(*args):
        tables.append(args[0])
        return canonicalize(*args)

    monkeypatch.setattr(deduction, "_canonicalize", renaming)
    engine._instantiate(event, True, [])
    assert all(t is engine._renamings for t in tables)
    assert counts["outside"] == 0
    assert 0 < counts["terminal_context"] <= len(new)
    assert 0 < counts["_canonicalize"] <= len(new)

    keys, expected = set(), []
    for combo in itertools.product(targets, repeat=3):
        ws = [terminal_context(monoid.structure, tau(t)) for t in combo]
        u_cat = tuple(x for w in ws for x in w)
        if u_cat:  # closed combos take no key
            _, key = _ref_canonicalize(tuple(dict.fromkeys(u_cat)), combo)
            if tuple(key) in keys:
                continue
            keys.add(tuple(key))
        expected.append(combo)
    assert calls == expected and len(calls) == 15

    calls.clear()
    counts.update(dict.fromkeys(counts, 0))
    engine._instantiate(event, True, [])
    assert len(calls) == 15 and not any(counts.values())


CANON_LETTERS = [_pool_letter("M", 1), _pool_letter("M", 2),
                 _pool_letter("M", 3), X, Y]
MONOID_SIG = monoid_theory().signature
CANON_TERMS = st.recursive(
    st.sampled_from([var(x) for x in CANON_LETTERS] + [app(MONOID_SIG, "e")]),
    lambda kids: st.tuples(kids, kids).map(
        lambda pair: app(MONOID_SIG, "mul", pair)),
    max_leaves=12)


@pytest.fixture(scope="module")
def warm_engine(monoid):
    return saturate(monoid, Bounds(3, 3, 2))._engine


@seed(1)
@settings(derandomize=False, database=None, max_examples=200,
          deadline=None)
@given(requests=st.lists(st.tuples(
    st.lists(st.sampled_from(CANON_LETTERS), min_size=1, max_size=4,
             unique=True),
    st.lists(CANON_TERMS, max_size=3)), min_size=1, max_size=6))
def test_warm_tables_agree_with_the_reference(warm_engine, requests):
    """An engine's tables, warm from a saturation and from the examples
    before, asked for interleaved contexts (the `_v` letters among them, in
    any order), give what the reference and fresh tables give; a term with
    a letter outside the context still raises, and leaves the tables
    right."""
    engine = warm_engine
    for ctx, terms in requests:
        ctx = tuple(ctx)
        if all(set(tau(t)) <= set(ctx) for t in terms):
            got = deduction._canonicalize(engine._renamings, ctx, terms)
            assert got == _ref_canonicalize(ctx, terms)
            assert got == deduction._canonicalize({}, ctx, terms)
        else:
            with pytest.raises(TypingError, match="renaming misses variable"):
                deduction._canonicalize(engine._renamings, ctx, terms)
            with pytest.raises(TypingError):
                _ref_canonicalize(ctx, terms)


def test_each_image_is_built_once_per_theory(monkeypatch):
    """On both derive goals of one theory, every `_canonicalize` call
    renames through the theory's one set of tables, and no (context word,
    subterm) image is built twice, in one goal or across the two, though
    the engines ask for many a term's image again."""
    canonicalize = deduction._canonicalize
    tables, built = set(), collections.Counter()
    asked = collections.Counter()

    def counting(renamings, ctx, terms):
        tables.add(id(renamings))
        images = renamings[ctx][1] if ctx in renamings else {}
        asked.update(t in images for t in terms if tau(t))
        before = len(images) if ctx in renamings else len(set(ctx))
        out = canonicalize(renamings, ctx, terms)
        images = renamings[ctx][1] if ctx else {}
        # the images this call built are the last keys inserted
        built.update((ctx, u) for u in itertools.islice(
            reversed(images), len(images) - before))
        return out

    monkeypatch.setattr(deduction, "_canonicalize", counting)
    EH = eckmann_hilton_theory()
    for op in ("o", "star"):
        goal = parse_equation_text(EH.signature,
                                   f"{op}(x,y) ~ {op}(y,x) ctx [ x:M y:M ]",
                                   structure=EH.structure)
        assert prove(EH, goal, Bounds(4, 4, 8)).proved
    assert len(tables) == 1
    assert built and max(built.values()) == 1
    assert asked[True] > 0


def test_theory_memo_is_freed_with_the_theory():
    """The tables a theory's goals share live on the theory: once `prove`
    and `find_model` have filled them, dropping the theory frees them by
    reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        E = monoid_theory()
        goal = parse_equation_text(E.signature,
                                   "mul(x,y) ~ mul(y,x) ctx [ x:M y:M ]",
                                   structure=E.structure)
        assert not prove(E, goal, Bounds(3, 3, 4)).proved
        assert find_model(E, 2, avoid=goal) is None
        memo = E._memo
        assert set(memo) == {"templates", "views", "renamings", "orders",
                             "instances"}
        (evaluate, _), *_ = memo["instances"][(2,)]
        refs = [weakref.ref(E), weakref.ref(memo), weakref.ref(evaluate)]
        del E, memo, evaluate
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_a_theory_with_a_full_memo_still_pickles():
    """The compiled instances are closures, so a pickled or deep-copied
    theory leaves its memo behind and starts with an empty one."""
    E = monoid_theory()
    assert find_model(E, 2) is not None
    assert E._memo
    for copied in (pickle.loads(pickle.dumps(E)), copy.deepcopy(E)):
        assert copied == E and not copied._memo


def _answer(E, text, max_size):
    """What decide says about a goal: its proof's lines or None, its
    truncation flags, and the countermodel `find_model` gives an unproved
    goal."""
    goal = parse_equation_text(E.signature, text, structure=E.structure)
    res = prove(E, goal, Bounds(3, 3, 4))
    if res.proved:
        return proof_lines(res.proof), res.truncated_by, None
    model = find_model(E, max_size, avoid=goal)
    return None, res.truncated_by, model and format_model(model)


def test_no_memo_is_shared_across_structures():
    """A theory rebuilt under another structure starts with its own, empty
    memo, and a goal proved on the base first gets the answer a fresh
    theory gives under each structure."""
    text = "f(x,y) ~ x ctx [ x:A y:A ]"
    base = projection_theory()
    other = Theory(base.name, base.signature, INJECTIVE, base.equations)
    assert base._memo is not other._memo
    got = [_answer(base, text, 2)]
    assert not other._memo
    got.append(_answer(other, text, 2))
    assert got == [_answer(projection_theory(), text, 2),
                   _answer(projection_theory(INJECTIVE), text, 2)]
    assert got[0][0] and not got[1][0]


DECIDE_GOALS = {
    "monoid": (2, (
        "mul(e,mul(x,y)) ~ mul(x,y) ctx [ x:M y:M ]",
        "mul(mul(x,e),mul(y,z)) ~ mul(x,mul(y,mul(z,e))) "
        "ctx [ x:M y:M z:M ]",
        "mul(e,e) ~ e ctx [ ]",
        "mul(x,y) ~ mul(y,x) ctx [ x:M y:M ]",
        "mul(x,mul(y,x)) ~ mul(x,y) ctx [ x:M y:M ]",
    )),
    "projection": (3, (
        "f(f(x,y),z) ~ x ctx [ x:A y:A z:A ]",
        "f(x,f(y,x)) ~ f(x,z) ctx [ x:A y:A z:A ]",
        "f(x,y) ~ f(y,x) ctx [ x:A y:A ]",
        "f(f(y,x),x) ~ x ctx [ x:A y:A ]",
    )),
    "magma": (3, (
        "f(x,f(y,z)) ~ f(x,f(y,z)) ctx [ x:A y:A z:A ]",
        "f(f(x,y),z) ~ f(x,f(y,z)) ctx [ x:A y:A z:A ]",
        "f(x,y) ~ f(y,x) ctx [ x:A y:A ]",
    )),
}
DECIDE_THEORIES = {
    "monoid": monoid_theory,
    "projection": projection_theory,
    "magma": lambda: parse_theory(
        "theory FreeMagma\nstructure cartesian\nsort A\nop f : A A -> A\n"),
}


@pytest.mark.parametrize("key", sorted(DECIDE_GOALS))
def test_answers_do_not_depend_on_the_goals_asked_before(key):
    """On one theory, each goal asked first in order and then in reverse
    order gets the proof, the flags and the countermodel a freshly parsed
    theory gives it: the memo changes no answer."""
    max_size, texts = DECIDE_GOALS[key]
    fresh = [_answer(DECIDE_THEORIES[key](), text, max_size) for text in texts]
    E = DECIDE_THEORIES[key]()
    forward = [_answer(E, text, max_size) for text in texts]
    backward = [_answer(E, text, max_size) for text in reversed(texts)]
    assert forward == fresh and backward[::-1] == fresh
    assert any(lines for lines, _, _ in fresh)
    assert any(model for _, _, model in fresh)


def test_prove_reads_term_contexts_off_their_views(monkeypatch, monoid):
    """During one `prove`, `terminal_context` is reached only through
    `_canonical_views`, at most once per term it had no views for, and
    through `_conclude`, at most once per call, for the conclusion's own
    word: by `governing_orders`, or directly past four letters.  The proof
    swaps mul(e,x) for x under a parent of five letters, so the sweep meets
    a congruence whose other argument holds four, and `_conclude` takes
    the branch past four letters."""
    terminal = context.terminal_context
    canonical_views, conclude = _Saturator._canonical_views, _Saturator._conclude
    owners: list[str] = []
    counts = dict.fromkeys(
        ("outside", "views", "conclude", "new", "wide"), 0)

    def counted(*args):
        counts[owners[-1] if owners else "outside"] += 1
        return terminal(*args)

    def viewing(self, u):
        counts["new"] += u not in self._views
        owners.append("views")
        try:
            return canonical_views(self, u)
        finally:
            owners.pop()

    def concluding(self, premise, images1, images2, ws, u_cat, pos, out):
        before = counts["conclude"]
        owners.append("conclude")
        try:
            conclude(self, premise, images1, images2, ws, u_cat, pos, out)
        finally:
            owners.pop()
        assert counts["conclude"] - before <= 1
        if len(set(u_cat)) > 4:
            counts["wide"] += counts["conclude"] - before

    for module in (context, syntax, deduction):
        monkeypatch.setattr(module, "terminal_context", counted)
    monkeypatch.setattr(_Saturator, "_canonical_views", viewing)
    monkeypatch.setattr(_Saturator, "_conclude", concluding)
    goal = parse_equation_text(
        monoid.signature,
        "mul(mul(e,x),mul(y,mul(z,mul(w,v)))) ~ mul(x,mul(y,mul(z,mul(w,v))))"
        " ctx [ x:M y:M z:M w:M v:M ]", structure=monoid.structure)
    result = prove(monoid, goal, Bounds(3, 5, 3))
    assert result.proved
    assert counts["outside"] == 0
    assert 0 < counts["views"] <= counts["new"]
    assert counts["wide"] > 0


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


def _sample_theories_under_every_admitted_structure():
    """(name, engine factory) for `saturate` on each sample theory under
    every structure whose context guard its axioms meet."""
    runs = []
    for path in sorted(THEORIES.glob("*.ua")):
        base = parse_theory(path.read_text())
        for R in STRUCTURES:
            try:
                E = Theory(base.name, base.signature, R, base.equations)
            except TheoryError:
                continue
            runs.append((f"{path.name} {R}",
                         lambda E=E: saturate(E, Bounds(3, 3, 4))._engine))
    return runs


def test_space_terms_stay_inside_their_context():
    """Every term of a space has its letters in that space's context, so a
    class's smallest member can always be renamed back through a view; and
    the context governs it, which lets `_known_equal` read a mate's
    contexts off the child's views.  Every registered term has a view,
    which `_instantiate` and `_swap_child` read without a check."""
    runs = _sweep_workloads() + _sample_theories_under_every_admitted_structure()
    terms = 0
    for name, make in runs:
        engine = make()
        for t in engine.universe:
            assert engine._canonical_views(t), (name, t)
        for ctx, sp in engine.spaces.items():
            letters = set(ctx)
            for t in sp.parent:
                assert set(tau(t)) <= letters, (name, ctx, t)
                assert holds(engine.R, ctx, tau(t)), (name, ctx, t)
            terms += len(sp.parent)
    assert terms


RIGHT_SURJECTIVE_TEXT = """theory RS
structure right-surjective
sort A
op p : A A A A A -> A
op g : A A -> A
op h : A -> A
eq k : h(x) ~ x ctx [ x:A ]
"""


def test_right_surjective_keeps_its_terminal_context_beyond_four_letters():
    """Past four letters a conclusion is stated at its terminal context
    only.  Under right-surjective that is the last-occurrence order, which
    the first-occurrence order of g(p(a,b,c,d,e),a)'s letters is not, so
    keeping first-occurrence order dropped the only order that governs."""
    E = parse_theory(RIGHT_SURJECTIVE_TEXT)
    goal = parse_equation_text(
        E.signature,
        "g(h(p(a,b,c,d,e)),a) ~ g(p(a,b,c,d,e),a) "
        "ctx [ b:A c:A d:A e:A a:A ]", structure=E.structure)
    res = prove(E, goal, Bounds(4, 5, 8))
    assert res.proved
    concluded = check_proof(E, res.proof)
    assert (concluded.lhs, concluded.rhs, concluded.ctx) == (
        goal.lhs, goal.rhs, goal.ctx)


ORACLE_SIG = syntax.signature(["A", "B"], {
    "f": (["A"], "B"), "g": (["B"], "B"), "h": (["B", "B"], "B"),
    "a": ([], "A"), "b": ([], "B")})
AXIOM_LETTERS = (Letter("A", "x"), Letter("A", "y"), Letter("B", "u"),
                 Letter("B", "v"))
GOAL_LETTERS = (Letter("A", "p"), Letter("A", "q"), Letter("B", "r"),
                Letter("B", "s"))


def _draw_term(draw, sort, letters, depth):
    """A term of the sort over the letters, at most `depth` ops deep."""
    leaves = [var(x) for x in letters if x.sort == sort]
    leaves.append(app(ORACLE_SIG, sort.lower()))
    if sort == "A" or depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(leaves))
    op = draw(st.sampled_from(["f", "g", "h"]))
    return app(ORACLE_SIG, op, [_draw_term(draw, s, letters, depth - 1)
                                for s in ORACLE_SIG.ops[op].arity])


@seed(2)
@settings(derandomize=False, database=None, max_examples=300,
          deadline=None)
@given(data=st.data())
def test_wrapped_substitution_instances_are_proved_or_truncated(data):
    """Every goal derivable from a one-axiom cartesian theory by one
    substitution and 0-2 congruence steps in one context is, at the decide
    bounds, proved with a proof that replays to it, or left with a
    truncation flag: saturation never calls such a goal underivable."""
    draw = data.draw
    ctx = tuple(draw(st.lists(st.sampled_from(AXIOM_LETTERS), min_size=1,
                              max_size=3, unique=True)))
    sort = draw(st.sampled_from(["A", "B"]))
    axiom = equation("ax", _draw_term(draw, sort, ctx, 2),
                     _draw_term(draw, sort, ctx, 2), ctx)
    E = Theory("Oracle", ORACLE_SIG, CARTESIAN, (axiom,))
    images = {x: _draw_term(draw, x.sort, GOAL_LETTERS, 2) for x in ctx}
    sides = [apply_renaming(images, axiom.lhs),
             apply_renaming(images, axiom.rhs)]
    for _ in range(draw(st.integers(0, 2))):
        if sides[0].sort == "A":
            sides = [app(ORACLE_SIG, "f", [t]) for t in sides]
            continue
        op = draw(st.sampled_from(["g", "h-left", "h-right"]))
        if op == "g":
            sides = [app(ORACLE_SIG, "g", [t]) for t in sides]
        else:
            other = _draw_term(draw, "B", GOAL_LETTERS, 1)
            sides = [app(ORACLE_SIG, "h", [t, other] if op == "h-left"
                         else [other, t]) for t in sides]
    used = set(tau(sides[0])) | set(tau(sides[1]))
    goal = equation("", sides[0], sides[1],
                    [x for x in GOAL_LETTERS if x in used], CARTESIAN)
    res = prove(E, goal, Bounds(3, 3, 4))
    if res.proved:
        concluded = check_proof(E, res.proof)
        assert (concluded.lhs, concluded.rhs, concluded.ctx) == (
            goal.lhs, goal.rhs, goal.ctx)
    else:
        assert res.truncated_by, (str(axiom), str(goal))


SOUND_SIG = syntax.signature(["A"], {
    "f": (["A"], "A"), "g": (["A", "A"], "A"), "a": ([], "A"), "c": ([], "A")})
SOUND_LETTERS = tuple(Letter("A", n) for n in "xyz")


def _draw_one_sort_term(draw, letters, depth):
    """A term over the letters, `a` and `c`, of depth at most `depth`."""
    if depth == 1 or draw(st.booleans()):
        return draw(st.sampled_from(
            [var(x) for x in letters] + [app(SOUND_SIG, "a"),
                                         app(SOUND_SIG, "c")]))
    op = draw(st.sampled_from(["f", "g"]))
    return app(SOUND_SIG, op, [_draw_one_sort_term(draw, letters, depth - 1)
                               for _ in SOUND_SIG.ops[op].arity])


def _draw_governed_equation(draw, R, name):
    """An equation over 1-3 letters with sides of depth at most 3, stated at
    the terminal context of the letters it uses; None when that context
    does not govern both sides."""
    letters = draw(st.lists(st.sampled_from(SOUND_LETTERS), min_size=1,
                            max_size=3, unique=True))
    lhs = _draw_one_sort_term(draw, letters, 3)
    rhs = _draw_one_sort_term(draw, letters, 3)
    ctx = terminal_context(R, tau(lhs) + tau(rhs))
    if ctx is None or not all(holds(R, ctx, tau(t)) for t in (lhs, rhs)):
        return None
    return equation(name, lhs, rhs, ctx)


def _draw_sound_theory(draw):
    """A one-sort theory under a drawn structure with the 1-2 drawn axioms
    whose context governs both sides, or None when none does."""
    R = draw(st.sampled_from(STRUCTURES))
    axioms = [eq for eq in (_draw_governed_equation(draw, R, f"k{i}")
                            for i in range(draw(st.integers(1, 2))))
              if eq is not None]
    return Theory("Sound", SOUND_SIG, R, tuple(axioms)) if axioms else None


@seed(3)
@settings(derandomize=False, database=None, max_examples=150,
          deadline=None)
@given(data=st.data())
def test_derived_equations_are_sound(data):
    """Under each of the eight structures, every equation saturation derives
    from 1-2 drawn axioms has a proof that replays to it and holds in every
    model of size at most 2, and a drawn goal that `prove` proves has no
    countermodel of size at most 2.  (A saturated goal may still need a
    larger countermodel, so no claim is made about those.)  A goal that is
    one axiom with its letters permuted, wrapped 0-1 times in f, is
    derivable by construction: it is proved, by a proof that replays to it
    and with no such countermodel, or it carries a truncation flag; it is
    never saturated."""
    draw = data.draw
    E = _draw_sound_theory(draw)
    if E is None:
        return
    R = E.structure
    sat = saturate(E, Bounds(3, 3, 4))
    models = list(iter_models(E, 2))
    for eq in sat.equations:
        concluded = check_proof(E, sat.proof_of(eq))
        assert (concluded.lhs, concluded.rhs, concluded.ctx) == (
            eq.lhs, eq.rhs, eq.ctx)
        assert all(satisfies(m, eq) for m in models), (str(R), str(eq))
    goal = _draw_governed_equation(draw, R, "")
    if goal is not None and prove(E, goal, Bounds(3, 3, 4)).proved:
        assert find_model(E, 2, avoid=goal) is None, (str(R), str(goal))
    axiom = draw(st.sampled_from(E.equations))
    images = dict(zip(SOUND_LETTERS,
                      map(var, draw(st.permutations(SOUND_LETTERS)))))
    sides = [apply_renaming(images, t) for t in (axiom.lhs, axiom.rhs)]
    if draw(st.booleans()):
        sides = [app(SOUND_SIG, "f", [t]) for t in sides]
    goal = equation("", *sides, [images[x].letter for x in axiom.ctx])
    res = prove(E, goal, Bounds(3, 3, 4))
    if res.proved:
        concluded = check_proof(E, res.proof)
        assert (concluded.lhs, concluded.rhs, concluded.ctx) == (
            goal.lhs, goal.rhs, goal.ctx)
        assert find_model(E, 2, avoid=goal) is None, (str(R), str(goal))
    else:
        assert res.truncated_by, (str(R), str(goal))


SMALL, LARGE = Bounds(3, 3, 4), Bounds(4, 4, 6)


def _verdict(E, goal, bounds):
    """`prove`'s verdict: proved, inconclusive (flagged) or saturated."""
    res = prove(E, goal, bounds)
    return "proved" if res.proved else (
        "inconclusive" if res.truncated_by else "saturated")


def _renamed(E, goal, ops, letters):
    """E and the goal under a renaming of ops and letters, each op declared
    in its old place."""
    sig = syntax.signature(E.signature.sorts, {
        ops[f]: (d.arity, d.result) for f, d in E.signature.ops.items()})

    def term(t):
        if isinstance(t, App):
            return app(sig, ops[t.op], [term(a) for a in t.args])
        return var(letters.get(t.letter, t.letter))

    def eq(e):
        return equation(e.name, term(e.lhs), term(e.rhs),
                        [letters.get(x, x) for x in e.ctx])

    return (Theory(E.name, sig, E.structure, tuple(map(eq, E.equations))),
            eq(goal))


def _verdict_under_renaming(E, goal, ops, letters, bounds):
    """The goal's verdict, after checking that the renamed goal in the
    renamed theory does not get the opposite definite verdict."""
    verdict = _verdict(E, goal, bounds)
    renamed = _verdict(*_renamed(E, goal, ops, letters), bounds)
    assert {verdict, renamed} != {"proved", "saturated"}, (
        str(E.structure), str(goal), str(bounds))
    return verdict


# Each reverses the `repr` order of the ops, the constants and the letters.
SOUND_RENAMING = ({"f": "q", "g": "p", "a": "c", "c": "a"},
                  {Letter("A", "x"): Letter("A", "z"),
                   Letter("A", "z"): Letter("A", "x")})
MATE_RENAMING = ({"f": "r", "g": "q", "h": "p", "a": "z"},
                 {Letter("A", "x"): Letter("A", "w")})


@seed(4)
@settings(derandomize=False, database=None, max_examples=150,
          deadline=None)
@given(data=st.data())
def test_definite_verdicts_survive_renaming_and_larger_bounds(data):
    """A drawn goal is never proved on one side of a renaming that reverses
    the `repr` order and saturated on the other, and a goal saturated at
    the decide bounds stays unproved at larger ones.  (A truncation flag
    may still fire on one side only, so an inconclusive verdict may face a
    definite one.)"""
    draw = data.draw
    E = _draw_sound_theory(draw)
    goal = _draw_governed_equation(draw, E.structure, "") if E else None
    if goal is None:
        return
    if _verdict_under_renaming(E, goal, *SOUND_RENAMING, SMALL) == "saturated":
        assert not prove(E, goal, LARGE).proved, (str(E.structure), str(goal))


@pytest.mark.parametrize("kind", sorted(MATE_GOALS))
def test_mate_verdicts_survive_renaming_and_larger_bounds(kind):
    """The same property on the `Mates` goals, at both bounds."""
    E = parse_theory(MATE_TEXT.format(kind))
    for text in MATE_GOALS[kind]:
        goal = parse_equation_text(E.signature, f"{text} ctx [ x:A ]",
                                   structure=E.structure)
        verdicts = [_verdict_under_renaming(E, goal, *MATE_RENAMING, bounds)
                    for bounds in (SMALL, LARGE)]
        assert verdicts != ["saturated", "proved"], (kind, text)
