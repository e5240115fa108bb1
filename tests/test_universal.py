"""Term algebras, the extended signature, and the bounded initial model."""

import pytest

from ualg.context import CARTESIAN, INJECTIVE, SURJECTIVE, TRIVIAL, Letter
from ualg.deduction import Bounds
from ualg.finord import fn, identity
from ualg.selftest import (
    eckmann_hilton_theory, monoid_theory, projection_theory,
)
from ualg.setmodel import FinSetModel, MultiMap, find_model, table_from
from ualg.syntax import Theory, app, const, equation, parse_equation_text, \
    parse_theory, signature, var
from ualg.universal import (
    BALANCED_E, BALANCED_R, PLAIN_E, PLAIN_R, UniversalError, build_sigma,
    categorization_axioms, default_sigma, enumerate_pure_terms, internalize,
    internalize_term, sigma_interpret, sigma_term_str, term_algebra_eval,
    term_model_satisfies, universal_hom,
)

X, Y = Letter("M", "x"), Letter("M", "y")


@pytest.fixture(scope="module")
def monoid():
    return monoid_theory()


def test_term_algebra_plain(monoid):
    sig = monoid.signature
    u1 = app(sig, "mul", [var(X), const(sig, "e")])
    u2 = var(Y)
    assert term_algebra_eval(PLAIN_R, monoid, var(X), (X,), [u1]) is u1
    t = app(sig, "mul", [var(X), var(Y)])
    got = term_algebra_eval(PLAIN_R, monoid, t, (X, Y), [u1, u2])
    assert got == app(sig, "mul", [u1, u2])
    with pytest.raises(UniversalError):
        term_algebra_eval(PLAIN_R, monoid, t, (X,), [u1])


def test_term_algebra_plain_matches_substitution(monoid):
    from ualg.syntax import apply_renaming

    sig = monoid.signature
    e = const(sig, "e")
    pool = [var(X), var(Y), e, app(sig, "mul", [var(X), var(Y)]),
            app(sig, "mul", [e, var(X)])]
    terms = [var(X), app(sig, "mul", [var(X), var(Y)]),
             app(sig, "mul", [var(X), var(X)]),
             app(sig, "mul", [e, var(Y)])]
    for t in terms:
        for u1 in pool:
            for u2 in pool:
                got = term_algebra_eval(PLAIN_R, monoid, t, (X, Y), [u1, u2])
                assert got == apply_renaming({X: u1, Y: u2}, t)


def test_term_algebra_balanced(monoid):
    sig = monoid.signature
    t = app(sig, "mul", [var(X), var(Y)])
    w1, u1 = (X, X), var(X)
    w2, u2 = (Y,), app(sig, "mul", [var(Y), const(sig, "e")])
    word, inner = term_algebra_eval(BALANCED_R, monoid, t, (X, Y),
                                    [(w1, u1), (w2, u2)])
    assert word == (X, X, Y)
    assert inner == app(sig, "mul", [u1, u2])
    word2, inner2 = term_algebra_eval(BALANCED_R, monoid, const(sig, "e"),
                                      (X,), [((X,), var(X))])
    assert word2 == () and inner2 is const(sig, "e")


def test_term_model_satisfies(monoid):
    bounds = Bounds(3, 3, 5)
    lunit = monoid.axiom("lunit")
    res = term_model_satisfies(PLAIN_E, monoid, lunit, bounds)
    assert res.value

    sig = signature(["A"], {"f": (("A", "A"), "A")})
    free = Theory("Free", sig, CARTESIAN, ())
    comm = parse_equation_text(sig, "f(x,y) ~ f(y,x) ctx [ x:A y:A ]")
    assert not term_model_satisfies(PLAIN_E, free, comm, bounds).value

    surj = Theory("F", sig, SURJECTIVE, ())
    a, b = Letter("A", "x"), Letter("A", "y")
    eq = equation("", app(sig, "f", [var(a), var(b)]), var(a), (a, b))
    res = term_model_satisfies(BALANCED_E, surj, eq, bounds)
    assert not res.value  # terminal contexts of the sides differ
    with pytest.raises(UniversalError):
        term_model_satisfies(PLAIN_R, monoid, lunit, bounds)


def test_plain_e_agrees_with_cartesian_prove(monoid):
    from ualg.deduction import prove

    bounds = Bounds(3, 3, 5)
    goals = [
        ("mul(e,e) ~ e ctx [ ]", True),
        ("mul(x,e) ~ x ctx [ x:M ]", True),
        ("mul(x,y) ~ mul(y,x) ctx [ x:M y:M ]", False),
    ]
    for text, expect in goals:
        goal = parse_equation_text(monoid.signature, text,
                                   structure=monoid.structure)
        sat = term_model_satisfies(PLAIN_E, monoid, goal, bounds)
        proved = prove(monoid, goal, bounds).proved
        assert sat.value == proved == expect


def test_build_sigma_counts(monoid):
    sig1 = signature(["M"], {"mul": (("M", "M"), "M")})
    S = build_sigma(sig1, CARTESIAN, 2, 2)
    assert len(S.hom_sorts) == 3  # words of length 0,1,2 paired with M
    assert {a for a, _ in S.hom_sorts} == {
        (), ("M",), ("M", "M")}
    assert len(S.thetas) == 11  # functions [m]->[n] with m,n <= 2

    S_triv = build_sigma(sig1, TRIVIAL, 3, 3)
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
    S = build_sigma(monoid.signature, CARTESIAN, 2, 2)
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
    S = build_sigma(monoid.signature, CARTESIAN, 2, 2)
    with pytest.raises(UniversalError) as err:
        internalize(monoid, S)  # assoc needs three-letter hom sorts
    assert "assoc" in str(err.value)


def test_enumerate_pure_terms(monoid):
    sig1 = signature(["M"], {})
    S = build_sigma(sig1, CARTESIAN, 2, 2)
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
    S = build_sigma(sig1, CARTESIAN, 2, 2)
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


def test_sigma_interpret_transport(monoid):
    """Members of a merged class evaluate to the same table in a model."""
    S = default_sigma(monoid, (("M", "M"), "M"))
    model = find_model(monoid, 2)
    assert model is not None
    part = universal_hom(monoid, (("M", "M"), "M"), Bounds(2, 3, 6), sigma=S)
    checked = 0
    for cls in part.classes:
        tables = {sigma_interpret(S, model, t).table for t in cls[:4]}
        assert len(tables) == 1
        checked += 1
    assert checked >= 2


def test_sigma_interpret_examples(monoid):
    S = default_sigma(monoid, (("M", "M"), "M"))
    xor = FinSetModel(monoid.signature, monoid.structure, {"M": 2},
                      {"mul": table_from((2, 2), 2, lambda a, b: a ^ b),
                       "e": MultiMap((), 2, (0,))})
    ints = {eq.name: eq for eq in internalize(monoid, S)}
    lhs = sigma_interpret(S, xor, ints["int:lunit"].lhs)
    rhs = sigma_interpret(S, xor, ints["int:lunit"].rhs)
    assert lhs == rhs == MultiMap((2,), 2, (0, 1))


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


@pytest.mark.parametrize("kind", sorted(NON_LINEAR))
def test_default_sigma_covers_non_linear_axioms(kind):
    """mul(x,mul(x,y)) composes at (x)+(x,y), three letters, one more than
    any op arity or axiom context: the extended signature must reach it."""
    text, sort = NON_LINEAR[kind]
    E = parse_theory(text)
    hom = ((sort, sort), sort)
    S = default_sigma(E, hom)
    assert S.max_arity == 3
    assert len(internalize(E, S)) == 1
    part = universal_hom(E, hom, Bounds(2, 3, 2), sigma=S)
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
