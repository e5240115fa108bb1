"""The extended signature and the bounded initial model."""

import hashlib

import pytest

from ualg.context import CARTESIAN, INJECTIVE, TRIVIAL, Letter
from ualg.deduction import Bounds, _canonicalize, check_proof, proof_lines
from ualg.finord import fn, identity
from ualg.selftest import (
    GOAL_LIST, eckmann_hilton_theory, monoid_theory, projection_theory,
)
from ualg.setmodel import FinSetModel, MultiMap, iter_models, table_from
from ualg.syntax import Theory, app, equation, parse_equation_text, \
    parse_theory, signature, var
from ualg.universal import (
    UniversalError, build_sigma, categorization_axioms, default_sigma,
    enumerate_pure_terms, internalize, internalize_term, sigma_interpret,
    sigma_term_str, sigma_theory, universal_hom,
)

X, Y = Letter("M", "x"), Letter("M", "y")


@pytest.fixture(scope="module")
def monoid():
    return monoid_theory()


def test_build_sigma_counts(monoid):
    sig1 = signature(["M"], {"mul": (("M", "M"), "M")})
    S = build_sigma(sig1, CARTESIAN, 2)
    assert len(S.hom_of) == 3  # words of length 0,1,2 paired with M
    assert {a for a, _ in S.hom_of.values()} == {
        (), ("M",), ("M", "M")}
    assert len(S.thetas) == 11  # functions [m]->[n] with m,n <= 2

    S_triv = build_sigma(sig1, TRIVIAL, 3)
    assert all(t.is_identity() for t in S_triv.thetas)


@pytest.mark.parametrize("make", [monoid_theory, eckmann_hilton_theory])
def test_sigma_names_round_trip(make):
    """Every symbol name comes back from its accessor called on its key, and
    every hom-sort name from its (arity, result) pair."""
    S = default_sigma(make(), (("M", "M"), "M"))
    accessors = {"id": S.id_name, "op": S.op_name, "act": S.act_name,
                 "comp": S.comp_name}
    assert set(S.sym_info) == set(S.signature.ops)
    for name, (kind, *key) in S.sym_info.items():
        assert accessors[kind](*key) == name
    assert set(S.hom_of) == set(S.signature.sorts)
    for s in S.signature.sorts:
        assert S.hom_sort_name(*S.hom_of[s]) == s

    # at the arity bound, and one step beyond it
    top = ("M",) * S.max_arity
    S.hom_sort_name(top, "M")
    S.act_name(identity(S.max_arity), top, "M")
    with pytest.raises(UniversalError):
        S.hom_sort_name(top + ("M",), "M")
    with pytest.raises(UniversalError):
        S.act_name(identity(S.max_arity + 1), top + ("M",), "M")


def test_sigma_action_outside_structure():
    S = default_sigma(eckmann_hilton_theory(), (("M", "M"), "M"))
    S.act_name(fn([2, 1], 2), ("M", "M"), "M")
    with pytest.raises(UniversalError):
        S.act_name(fn([1, 1], 1), ("M",), "M")  # not a bijection


def test_categorization_contains_named_schemas(monoid):
    S = build_sigma(monoid.signature, CARTESIAN, 2)
    cat = categorization_axioms(S)
    families = {eq.name.split(":")[1] for eq in cat}
    assert {"idl", "idr", "actid", "actcomp", "actout", "actin",
            "assoc"} <= families
    idl = [eq for eq in cat if eq.name.startswith("cat:idl")]
    for eq in idl:
        assert eq.rhs.sort == eq.lhs.sort
        assert len(eq.ctx) == 1


def test_internalize_shapes(monoid):
    S = default_sigma(monoid, (("M", "M"), "M"))
    ints = internalize(monoid, S)
    names = {eq.name for eq in ints}
    assert names == {"int:assoc", "int:lunit", "int:runit"}
    for eq in ints:
        assert eq.ctx == ()
        assert eq.lhs.sort == eq.rhs.sort
    lun = next(eq for eq in ints if eq.name == "int:lunit")
    assert sigma_term_str(S, lun.lhs) == \
        "act[1](comp(op:mul, act[](op:e), act[1](id[M])))"
    assert sigma_term_str(S, lun.rhs) == "act[1](id[M])"


def test_internalize_is_deterministic(monoid):
    S = default_sigma(monoid, (("M", "M"), "M"))
    once = internalize(monoid, S)
    twice = internalize(monoid, S)
    assert once == twice


def test_internalize_bound_overflow(monoid):
    S = build_sigma(monoid.signature, CARTESIAN, 2)
    with pytest.raises(UniversalError) as err:
        internalize(monoid, S)  # assoc needs three-letter hom sorts
    assert "assoc" in str(err.value)


def test_enumerate_pure_terms(monoid):
    sig1 = signature(["M"], {})
    S = build_sigma(sig1, CARTESIAN, 2)
    universe = enumerate_pure_terms(S, 2)
    hom_mm = S.hom_sort_name(("M",), "M")
    terms = {sigma_term_str(S, t) for t in universe[hom_mm]}
    assert "id[M]" in terms
    assert "act[1](id[M])" in terms
    assert any(name.startswith("comp(id[M]") for name in terms)


def test_universal_hom_unit_class():
    sig1 = signature(["M"], {})
    E0 = Theory("E0", sig1, CARTESIAN, ())
    part = universal_hom(E0, (("M",), "M"), Bounds(2, 3, 6))
    assert len(part.classes) == 1
    names = {sigma_term_str(part.sigma, t) for t in part.classes[0]}
    assert {"id[M]", "act[1](id[M])", "comp(id[M], id[M])"} <= names


def test_universal_hom_projection_split():
    inj = projection_theory(INJECTIVE)
    a, b = Letter("A", "x"), Letter("A", "y")
    S = default_sigma(inj, (("A", "A"), "A"))
    n1 = internalize_term(S, (a, b), app(inj.signature, "f", [var(a), var(b)]))
    n2 = internalize_term(S, (a, b), var(a))
    part = universal_hom(inj, (("A", "A"), "A"), Bounds(2, 3, 6), sigma=S,
                         extra_terms=[n1, n2])
    assert not part.merged(n1, n2)
    assert len(part.classes) >= 2


def test_universal_hom_order_independence():
    sig1 = signature(["M"], {})
    E0 = Theory("E0", sig1, CARTESIAN, ())
    S = build_sigma(sig1, CARTESIAN, 2)
    universe = enumerate_pure_terms(S, 2)
    hom_mm = S.hom_sort_name(("M",), "M")
    extra = list(universe[hom_mm])
    p1 = universal_hom(E0, (("M",), "M"), Bounds(2, 3, 6), sigma=S,
                       extra_terms=extra)
    p2 = universal_hom(E0, (("M",), "M"), Bounds(2, 3, 6), sigma=S,
                       extra_terms=list(reversed(extra)))
    sets1 = {frozenset(sigma_term_str(S, t) for t in c) for c in p1.classes}
    sets2 = {frozenset(sigma_term_str(S, t) for t in c) for c in p2.classes}
    assert sets1 == sets2


NON_LINEAR = {
    "cartesian": ("theory NonLinear\nstructure cartesian\nsort M\n"
                  "op mul : M M -> M\n"
                  "eq k : mul(x,mul(x,y)) ~ mul(x,y) ctx [ x:M y:M ]\n",
                  "M"),
    "left-surjective": ("theory NonLinearLS\nstructure left-surjective\n"
                        "sort A\nop f : A A -> A\n"
                        "eq k : f(x,f(x,y)) ~ f(x,y) ctx [ x:A y:A ]\n",
                        "A"),
}


SAMPLE_HOMS = {
    "monoid": (monoid_theory(), (("M", "M"), "M")),
    "eh": (eckmann_hilton_theory(), (("M", "M"), "M")),
    "projection": (projection_theory(CARTESIAN), (("A", "A"), "A")),
}


def _criterion_10_quotient(key):
    """Criterion 10's quotient: the sample hom at Bounds(3,3,8), with the
    internalized sides of the theory's goals as extra terms."""
    E, hom = SAMPLE_HOMS[key]
    sigma = default_sigma(E, hom)
    extra = []
    for goal_key, text, _ in GOAL_LIST:
        if goal_key == key:
            goal = parse_equation_text(E.signature, text,
                                       structure=E.structure)
            extra += [internalize_term(sigma, goal.ctx, side)
                      for side in (goal.lhs, goal.rhs)]
    return E, universal_hom(E, hom, Bounds(3, 3, 8), extra_terms=extra,
                            sigma=sigma)


@pytest.fixture(scope="module")
def quotients():
    """(theory, quotient) by name: the sample quotients at Bounds(2,3,8),
    the non-linear ones at Bounds(2,3,2) and criterion 10's three, built
    once for the module."""
    out = {key: (E, universal_hom(E, hom, Bounds(2, 3, 8)))
           for key, (E, hom) in SAMPLE_HOMS.items()}
    for kind, (text, sort) in NON_LINEAR.items():
        E = parse_theory(text)
        out[kind] = (E, universal_hom(E, ((sort, sort), sort),
                                      Bounds(2, 3, 2)))
    for key in SAMPLE_HOMS:
        out[f"criterion 10 {key}"] = _criterion_10_quotient(key)
    return out


def test_sigma_interpret_transport(quotients):
    """The quotient is certified, criterion 10's goal-side quotients
    included.  Each merge's proof replays against the sigma theory to
    exactly cls[0] ~ u at (), and every member of a class has one table in
    every model up to size 2: the quotient maps to each Set model, as the
    universal-model construction says."""
    merges = classes = 0
    for key, (E, part) in quotients.items():
        S = part.sigma
        theory = sigma_theory(S, E)
        models = list(iter_models(E, 2))
        assert models, key
        for cls in part.classes:
            for u in cls[1:]:
                proof = part._engine.proof_of(equation("", cls[0], u, ()))
                got = check_proof(theory, proof)
                assert (got.lhs, got.rhs, got.ctx) == (cls[0], u, ()), key
                merges += 1
            for m in models:
                assert len({sigma_interpret(S, m, t) for t in cls}) == 1, (
                    key, sigma_term_str(S, cls[0]))
                classes += 1
    assert merges >= 61 and classes >= 279


def test_quotient_is_ground(quotients):
    """The engine derives closed equations only.  Every event with a
    non-empty context is an axiom seed, so an open space holds the sides of
    the canonicalized axioms at its context and nothing else; and no
    conclusion meets the context cap, so `ctx` never truncates a
    quotient."""
    for key in ("monoid", "eh"):
        E, part = quotients[key]
        seeds = {(ctx, a, b) for ctx, (a, b), _ in (
            _canonicalize(ax.ctx, [ax.lhs, ax.rhs])
            for ax in sigma_theory(part.sigma, E).equations) if ctx}
        engine = part._engine
        assert {event for event in engine.events if event[0]} <= seeds, key
        for ctx, sp in engine.spaces.items():
            if ctx:
                sides = {t for c, a, b in seeds if c == ctx for t in (a, b)}
                assert set(sp.parent) <= sides, (key, ctx)
    for key, (_, part) in quotients.items():
        assert "ctx" not in part.truncated_by, key


def test_quotient_ignores_the_context_bound(monoid):
    """A ground engine registers no pool letters, which only open targets
    would use, so the context bound leaves its universe as it is."""
    hom = (("M", "M"), "M")
    sigma = default_sigma(monoid, hom)
    short, long = (universal_hom(monoid, hom, Bounds(2, n, 8), sigma=sigma)
                   for n in (1, 6))
    assert short._engine.universe == long._engine.universe


def test_quotient_proof_digest(quotients):
    """A sha256 over the classes, the flags and the proof of every 7th event
    of the three sample quotients (the open spaces hold only the axiom
    seeds); an engine change that keeps outputs exact keeps it."""
    h = hashlib.sha256()
    for key in SAMPLE_HOMS:
        _, part = quotients[key]
        h.update(f"{key} {part.truncated_by}\n".encode())
        for cls in part.classes:
            h.update(f"{cls}\n".encode())
        engine = part._engine
        for ctx, a, b in engine.events[::7]:
            for line in proof_lines(engine.proof_of(equation("", a, b, ctx))):
                h.update(f"  {line}\n".encode())
    assert h.hexdigest() == (
        "66848a0e46dbc6709c57825f8e87b0a1a2ae07675a63fc0cb2c0de1a0d732c3d")


def test_sigma_interpret_examples(monoid):
    S = default_sigma(monoid, (("M", "M"), "M"))
    xor = FinSetModel(monoid.signature, monoid.structure, {"M": 2},
                      {"mul": table_from((2, 2), 2, lambda a, b: a ^ b),
                       "e": MultiMap((), 2, (0,))})
    ints = {eq.name: eq for eq in internalize(monoid, S)}
    lhs = sigma_interpret(S, xor, ints["int:lunit"].lhs)
    rhs = sigma_interpret(S, xor, ints["int:lunit"].rhs)
    assert lhs == rhs == MultiMap((2,), 2, (0, 1))


@pytest.mark.parametrize("kind", sorted(NON_LINEAR))
def test_default_sigma_covers_non_linear_axioms(kind, quotients):
    """mul(x,mul(x,y)) composes at (x)+(x,y), three letters, one more than
    any op arity or axiom context: the extended signature must reach it."""
    E, part = quotients[kind]
    assert part.sigma.max_arity == 3
    assert len(internalize(E, part.sigma)) == 1
    assert part.classes


def test_merged_is_reflexive_outside_the_universe(monoid):
    """A closed term the bounded quotient never met is merged with itself."""
    eq = parse_equation_text(monoid.signature,
                             "mul(mul(x,e),mul(y,e)) ~ mul(x,y) "
                             "ctx [ x:M y:M ]", structure=monoid.structure)
    part = universal_hom(monoid, (("M", "M"), "M"), Bounds(2, 3, 3))
    t = internalize_term(part.sigma, eq.ctx, eq.lhs)
    assert t not in part._engine.in_universe
    assert part.merged(t, t)
