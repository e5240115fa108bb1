"""Tables, term evaluation, and the backtracking model search."""

import itertools
import math
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from ualg import setmodel
from ualg.context import CARTESIAN, Letter
from ualg.finord import fn, identity as fn_identity
from ualg.selftest import eckmann_hilton_theory, monoid_theory
from ualg.setmodel import (
    FinSetModel, ModelError, MultiMap, compose_multi, eval_term, find_model,
    format_model, identity_map, iter_models, satisfies, satisfies_theory,
    table_from, theta_action,
)
from ualg.syntax import (
    Theory, TheoryError, app, const, equation, parse_equation_text,
    parse_theory, signature, var,
)

X, Y, Z = (Letter("M", n) for n in "xyz")
THEORIES = Path(__file__).resolve().parent.parent / "theories"


@pytest.fixture(scope="module")
def monoid():
    return monoid_theory()


@pytest.fixture(scope="module")
def xor_model(monoid):
    return FinSetModel(monoid.signature, monoid.structure, {"M": 2},
                       {"mul": MultiMap((2, 2), 2, (0, 1, 1, 0)),
                        "e": MultiMap((), 2, (0,))})


def test_multimap_invariants():
    with pytest.raises(ModelError):
        MultiMap((2,), 2, (0,))  # wrong length
    with pytest.raises(ModelError):
        MultiMap((2,), 2, (0, 2))  # entry out of range
    empty_dom = MultiMap((0, 3), 2, ())
    assert empty_dom.table == ()
    point = MultiMap((), 5, (3,))
    assert point() == 3


def test_theta_action_examples():
    f = table_from((2, 3), 2, lambda a, b: (a + b) % 2)
    assert theta_action(f, fn_identity(2), (2, 3)) == f
    diag = theta_action(table_from((2, 2), 2, lambda a, b: a & b),
                        fn((1, 1), 1), (2,))
    assert diag.table == (0, 1)  # f(x, x) on the and-table is x
    proj1 = table_from((2, 2), 2, lambda a, b: a)
    swapped = theta_action(proj1, fn((2, 1), 2), (2, 2))
    assert swapped == table_from((2, 2), 2, lambda a, b: b)
    with pytest.raises(ModelError):
        theta_action(proj1, fn((1,), 2), (2, 2))


def test_compose_multi_examples():
    f = table_from((2, 2), 2, lambda a, b: a ^ b)
    assert compose_multi(f, [identity_map(2), identity_map(2)]) == f
    assert compose_multi(identity_map(2), [f]) == f
    AND = MultiMap((2, 2), 2, (0, 0, 0, 1))
    NOT = MultiMap((2,), 2, (1, 0))
    assert compose_multi(AND, [NOT, NOT]).table == (1, 0, 0, 0)
    with pytest.raises(ModelError):
        compose_multi(AND, [NOT])


@st.composite
def multimaps(draw, doms, cod=None):
    """A map on these domain sizes; a drawn codomain is empty only when
    the domain is."""
    if cod is None:
        cod = draw(st.integers(0 if 0 in doms else 1, 3))
    table = draw(st.lists(st.integers(0, max(cod - 1, 0)),
                          min_size=math.prod(doms), max_size=math.prod(doms)))
    return MultiMap(tuple(doms), cod, tuple(table))


SIZES = st.lists(st.integers(0, 3), max_size=3)


@seed(5)
@settings(derandomize=False, database=None, max_examples=300,
          deadline=None)
@given(st.data())
def test_theta_action_matches_per_cell_definition(data):
    target = tuple(data.draw(SIZES))
    images = data.draw(st.lists(st.integers(1, len(target)), max_size=4)
                       if target else st.just([]))
    theta = fn(images, len(target))  # any map, so repeats and misses too
    f = data.draw(multimaps(theta.pull(target)))
    assert theta_action(f, theta, target) == table_from(
        target, f.cod, lambda *xs: f(*theta.pull(xs)))


@seed(6)
@settings(derandomize=False, database=None, max_examples=300,
          deadline=None)
@given(st.data())
def test_compose_multi_matches_per_cell_definition(data):
    g = data.draw(multimaps(data.draw(SIZES)))
    fs = []
    for d in g.doms:  # an empty carrier d needs an empty inner domain
        doms = data.draw(SIZES) + ([0] if d == 0 else [])
        fs.append(data.draw(multimaps(doms, d)))

    def per_cell(*xs):
        vals, pos = [], 0
        for f in fs:
            vals.append(f(*xs[pos:pos + len(f.doms)]))
            pos += len(f.doms)
        return g(*vals)

    doms = tuple(d for f in fs for d in f.doms)
    assert compose_multi(g, fs) == table_from(doms, g.cod, per_cell)


def test_eval_term_examples(monoid, xor_model):
    sig = monoid.signature
    assert eval_term(xor_model, (X,), var(X)) == identity_map(2)
    t = app(sig, "mul", [var(X), var(Y)])
    assert eval_term(xor_model, (X, Y), t).table == (0, 1, 1, 0)
    sq = app(sig, "mul", [var(X), var(X)])
    assert eval_term(xor_model, (X,), sq).table == (0, 0)
    with pytest.raises(ModelError):
        eval_term(xor_model, (X,), t)  # y is not covered


def test_eval_respects_context_weakening(monoid, xor_model):
    sig = monoid.signature
    t = app(sig, "mul", [var(X), var(X)])
    wide = eval_term(xor_model, (X, Y), t)
    assert wide.doms == (2, 2)
    assert wide.table == (0, 0, 0, 0)


def test_satisfies(monoid, xor_model):
    assert satisfies_theory(xor_model, monoid)
    sig = monoid.signature
    comm = parse_equation_text(sig, "mul(x,y) ~ mul(y,x) ctx [ x:M y:M ]")
    assert satisfies(xor_model, comm)

    proj_sig = signature(["A"], {"f": (("A", "A"), "A")})
    proj = FinSetModel(proj_sig, CARTESIAN, {"A": 2},
                       {"f": table_from((2, 2), 2, lambda a, b: a)})
    a, b, c = (Letter("A", n) for n in "abc")
    axiom = equation("absorb", app(proj_sig, "f", [var(a), var(b)]), var(a),
                     (a, b, c))
    assert satisfies(proj, axiom)
    comm2 = equation("", app(proj_sig, "f", [var(a), var(b)]),
                     app(proj_sig, "f", [var(b), var(a)]), (a, b))
    assert not satisfies(proj, comm2)


def test_eval_factors_through_terminal_context(monoid, xor_model):
    """Evaluating at a terminal context then reindexing equals evaluating
    at the wide context directly, for terms of depth <= 2."""
    from ualg.context import holds, terminal_context
    from ualg.syntax import tau

    sig = monoid.signature
    e = const(sig, "e")
    terms = [var(X), e, app(sig, "mul", [var(X), var(Y)]),
             app(sig, "mul", [var(X), var(X)]), app(sig, "mul", [e, var(X)])]
    contexts = [(X,), (X, Y), (Y, X), (X, Y, Z)]
    for t in terms:
        w = terminal_context(CARTESIAN, tau(t))
        narrow = eval_term(xor_model, w, t)
        for v in contexts:
            if not holds(CARTESIAN, v, tau(t)) or not holds(
                    CARTESIAN, v, w):
                continue
            pos = {letter: i for i, letter in enumerate(v, start=1)}
            theta = fn(tuple(pos[q] for q in w), len(v))
            target = tuple(2 for _ in v)
            assert theta_action(narrow, theta, target) == eval_term(
                xor_model, v, t)


def test_substitution_identity_tables(monoid, xor_model):
    """Tables of substituted terms factor through the substituted argument
    tables, on a sampled renaming."""
    sig = monoid.signature
    t = app(sig, "mul", [var(X), var(Y)])
    s = {X: app(sig, "mul", [var(X), var(X)]), Y: var(Y)}
    from ualg.syntax import apply_renaming

    st = apply_renaming(s, t)
    direct = eval_term(xor_model, (X, Y), st)
    inner = compose_multi(
        eval_term(xor_model, (X, Y), t),
        [eval_term(xor_model, (X,), s[X]), eval_term(xor_model, (Y,), s[Y])])
    assert direct == inner


def test_term_naturality(monoid):
    z4 = FinSetModel(monoid.signature, monoid.structure, {"M": 4},
                     {"mul": table_from((4, 4), 4, lambda a, b: (a + b) % 4),
                      "e": MultiMap((), 4, (0,))})
    z2 = FinSetModel(monoid.signature, monoid.structure, {"M": 2},
                     {"mul": table_from((2, 2), 2, lambda a, b: (a + b) % 2),
                      "e": MultiMap((), 2, (0,))})
    h = (0, 1, 0, 1)
    sig = monoid.signature
    terms = [var(X), const(sig, "e"),
             app(sig, "mul", [var(X), var(Y)]),
             app(sig, "mul", [var(X), var(X)]),
             app(sig, "mul", [const(sig, "e"), var(Y)])]
    for t in terms:
        top = eval_term(z4, (X, Y), t)
        bottom = eval_term(z2, (X, Y), t)
        for a, b in itertools.product(range(4), range(4)):
            assert h[top(a, b)] == bottom(h[a], h[b])


def test_find_model_monoid_trivial(monoid):
    m = find_model(monoid, 1)
    assert m is not None and m.carriers["M"] == 1


def test_find_model_countermodel_order():
    sig = signature(["A"], {"f": (("A", "A"), "A")})
    E = Theory("Free", sig, CARTESIAN, ())
    goal = parse_equation_text(sig, "f(x,y) ~ f(y,x) ctx [ x:A y:A ]")
    first = find_model(E, 2, avoid=goal)
    assert first is not None
    assert first.carriers == {"A": 2}
    assert first.op_tables["f"].table == (0, 0, 1, 0)
    assert not satisfies(first, goal)
    assert find_model(E, 2, avoid=goal) == first  # deterministic rerun


def test_find_model_avoid_unsatisfiable(monoid):
    sig = monoid.signature
    square = parse_equation_text(sig, "x ~ mul(x,x) ctx [ x:M ]")
    E = Theory("Sq", sig, CARTESIAN,
               (equation("sq", square.lhs, square.rhs, square.ctx),))
    lunit = parse_equation_text(sig, "mul(e,x) ~ x ctx [ x:M ]")
    first = find_model(E, 2, avoid=lunit)
    again = find_model(E, 2, avoid=lunit)
    assert first == again
    if first is not None:
        assert satisfies_theory(first, E) and not satisfies(first, lunit)


def test_iter_models_order_and_count(monoid):
    models = list(itertools.islice(iter_models(monoid, 2), 4))
    assert len(models) == 4
    assert models[0].carriers["M"] == 1
    sizes = [m.carriers["M"] for m in models]
    assert sizes == sorted(sizes)
    for m in models:
        assert satisfies_theory(m, monoid)


def test_size_whose_axiom_fails_before_any_cell_gives_no_tables():
    """At two points `x ~ y` fails on a ground instance with no op cell in
    it, so the search stops that size before filling a table."""
    T = parse_theory("theory T\nstructure cartesian\nsort A\n"
                     "op f : A A -> A\neq k : x ~ y ctx [ x:A y:A ]\n")
    assert [m.carriers["A"] for m in iter_models(T, 2)] == [0, 1]


def test_eh_has_enough_models():
    EH = eckmann_hilton_theory()
    models = list(itertools.islice(iter_models(EH, 2), 3))
    assert len(models) == 3
    for m in models:
        assert satisfies_theory(m, EH)


def test_format_model(monoid, xor_model):
    text = format_model(xor_model)
    assert "carrier M = 2" in text
    assert "table mul : 0 1 1 0" in text
    assert "table e : 0" in text


def test_empty_carrier_vacuous_model():
    sig = signature(["A", "B"], {"f": (("A",), "B")})
    m = FinSetModel(sig, CARTESIAN, {"A": 0, "B": 2},
                    {"f": MultiMap((0,), 2, ())})
    a = Letter("A", "a")
    t = app(sig, "f", [var(a)])
    assert eval_term(m, (a,), t).table == ()
    eq = equation("", t, t, (a,))
    assert satisfies(m, eq)


# ---------------------------------------------------------------------------
# The backtracking search against a brute-force reference


def brute_force_models(E, max_size, avoid=None):
    """Every table of every op on every size vector, in product order, kept
    when `satisfies_theory` accepts it and it fails `avoid`."""
    sig = E.signature
    for vec in itertools.product(range(max_size + 1), repeat=len(sig.sorts)):
        sizes = dict(zip(sig.sorts, vec))
        spaces = []
        for decl in sig.ops.values():
            doms = tuple(sizes[s] for s in decl.arity)
            cod = sizes[decl.result]
            spaces.append([MultiMap(doms, cod, t) for t in itertools.product(
                range(cod), repeat=math.prod(doms))])
        for combo in itertools.product(*spaces):
            m = FinSetModel(sig, E.structure, sizes, dict(zip(sig.ops, combo)))
            if satisfies_theory(m, E) and (
                    avoid is None or not satisfies(m, avoid)):
                yield m


def sample_theory(stem):
    return parse_theory((THEORIES / f"{stem}.ua").read_text())


FREE_MAGMA = Theory("Free", signature(["A"], {"f": (("A", "A"), "A")}),
                    CARTESIAN, ())

# Two sorts and a constant in B only: size vectors with A empty have models,
# those with B empty have none, and an axiom over A holds vacuously when A
# is empty.  `fix` carries a padding letter of sort A.
TWO_SORTED = parse_theory("""
theory Action
structure cartesian
sort A B
op act : A B -> B
op c : -> B
op q : A -> A
eq fix : act(a,c) ~ c ctx [ a:A ]
eq idem : act(a,act(a,b)) ~ act(a,b) ctx [ a:A b:B z:A ]
eq qq : q(q(a)) ~ a ctx [ a:A ]
""")


BRUTE_FORCE_THEORIES = [
    *(sample_theory(p.stem) for p in sorted(THEORIES.glob("*.ua"))),
    FREE_MAGMA, TWO_SORTED]


@pytest.mark.parametrize("E", BRUTE_FORCE_THEORIES, ids=lambda E: E.name)
def test_iter_models_matches_brute_force(E):
    assert list(iter_models(E, 2)) == list(brute_force_models(E, 2))


def test_two_sorted_models_cover_empty_carriers():
    vectors = {tuple(m.carriers.values()) for m in iter_models(TWO_SORTED, 2)}
    assert (0, 1) in vectors and (2, 2) in vectors
    assert not any(b == 0 for _, b in vectors)


WITNESS_GOALS = [
    # the README goals
    ("monoid", "mul(e,mul(x,y)) ~ mul(x,y) ctx [ x:M y:M ]"),
    ("first_projection_injective", "f(x,y) ~ x ctx [ x:A y:A ]"),
    ("first_projection", "f(x,y) ~ f(y,x) ctx [ x:A y:A ]"),
    # goals like the benchmark's decide goals
    ("monoid", "mul(x,y) ~ mul(x,mul(y,y)) ctx [ x:M y:M ]"),
    ("monoid", "mul(mul(x,e),y) ~ mul(y,x) ctx [ x:M y:M ]"),
    ("monoid", "mul(x,mul(y,z)) ~ mul(mul(x,y),z) ctx [ x:M y:M z:M ]"),
    ("first_projection", "f(f(x,y),x) ~ f(x,f(y,y)) ctx [ x:A y:A ]"),
    ("first_projection", "f(f(x,y),y) ~ y ctx [ x:A y:A ]"),
    ("magma", "f(f(x,y),z) ~ f(x,f(y,z)) ctx [ x:A y:A z:A ]"),
    ("magma", "f(x,x) ~ x ctx [ x:A ]"),
    ("magma", "f(x,f(x,y)) ~ f(x,f(x,y)) ctx [ x:A y:A ]"),
]


@pytest.mark.parametrize("stem,text", WITNESS_GOALS)
def test_find_model_matches_brute_force(stem, text):
    E = FREE_MAGMA if stem == "magma" else sample_theory(stem)
    goal = parse_equation_text(E.signature, text, structure=E.structure)
    want = next(brute_force_models(E, 2, goal), None)
    assert find_model(E, 2, avoid=goal) == want


def test_exhaustive_size_3_projection_search():
    E = sample_theory("first_projection")
    goal = parse_equation_text(
        E.signature, "f(f(f(f(f(x,x),y),x),y),x) ~ x ctx [ x:A y:A ]",
        structure=E.structure)
    assert find_model(E, 3, avoid=goal) is None


def test_monoid_size_4_countermodel_is_the_first_at_size_3():
    E = sample_theory("monoid")
    goal = parse_equation_text(E.signature, "mul(x,y) ~ mul(y,x) ctx [ x:M y:M ]",
                               structure=E.structure)
    m = find_model(E, 4, avoid=goal)
    assert m is not None and m.carriers == {"M": 3}
    assert m.op_tables["mul"].table == (0, 0, 0, 0, 1, 2, 2, 2, 2)
    assert m.op_tables["e"].table == (1,)


def test_every_leaf_reached_is_a_model(monkeypatch):
    """Pruning checks every ground axiom instance, so leaf confirmation by
    `satisfies_theory` never rejects a table."""
    from ualg import setmodel
    verdicts = []

    def counting(m, E):
        verdicts.append(satisfies_theory(m, E))
        return verdicts[-1]

    monkeypatch.setattr(setmodel, "satisfies_theory", counting)
    for E, size in ((sample_theory("monoid"), 3),
                    (sample_theory("eckmann_hilton"), 2), (TWO_SORTED, 2)):
        verdicts.clear()
        models = list(iter_models(E, size))
        assert verdicts == [True] * len(models)


# Goals for the two-sorted theory, which no witness goal fits: one fails
# in some models and one holds vacuously when A is empty.
ACTION_GOALS = ["act(a,b) ~ b ctx [ a:A b:B ]", "q(a) ~ a ctx [ a:A ]"]


def goals_on(E):
    """E's own axioms, then every witness or action goal that is well
    formed on E's signature under E's structure."""
    goals = list(E.equations)
    for text in [t for _, t in WITNESS_GOALS] + ACTION_GOALS:
        try:
            goals.append(parse_equation_text(E.signature, text,
                                             structure=E.structure))
        except TheoryError:
            pass
    return goals


@pytest.mark.parametrize("E", BRUTE_FORCE_THEORIES, ids=lambda E: E.name)
def test_compiled_goal_check_agrees_with_satisfies(E):
    """`_op_tables` given a goal keeps exactly the models of E on which its
    compiled ground instances say the goal fails; that is the set on which
    `satisfies` rejects it."""
    models = list(brute_force_models(E, 2))
    vectors = itertools.product(range(3), repeat=len(E.signature.sorts))
    sizes_list = [dict(zip(E.signature.sorts, v)) for v in vectors]
    outcomes = set()
    for goal in goals_on(E):
        kept = [FinSetModel(E.signature, E.structure, sizes, tables)
                for sizes in sizes_list
                for tables in setmodel._op_tables(E, sizes, goal)]
        assert kept == [m for m in models if not satisfies(m, goal)], goal
        outcomes.update(satisfies(m, goal) for m in models)
    assert outcomes == ({True} if E.name == "EckmannHilton" else {True, False})


def test_reference_checks_run_once_per_yielded_model(monkeypatch):
    """A table on which every goal instance holds never reaches
    `satisfies_theory` or `satisfies`; each yielded model passes both."""
    theory_calls, goal_calls = [], []

    def counting_theory(m, E):
        theory_calls.append((m, satisfies_theory(m, E)))
        return theory_calls[-1][1]

    def counting_satisfies(m, eq):
        if eq is goal:
            goal_calls.append((m, satisfies(m, eq)))
            return goal_calls[-1][1]
        return satisfies(m, eq)

    monkeypatch.setattr(setmodel, "satisfies_theory", counting_theory)
    monkeypatch.setattr(setmodel, "satisfies", counting_satisfies)
    skipped = 0
    for stem, text in WITNESS_GOALS:
        E = FREE_MAGMA if stem == "magma" else sample_theory(stem)
        goal = parse_equation_text(E.signature, text, structure=E.structure)
        theory_calls.clear()
        goal_calls.clear()
        models = list(iter_models(E, 2, goal))
        assert theory_calls == [(m, True) for m in models]
        assert goal_calls == [(m, False) for m in models]
        skipped += len(list(iter_models(E, 2))) - len(models)
    assert skipped > 0


def test_ill_formed_avoid_raises_before_any_search():
    x, y = Letter("A", "x"), Letter("A", "y")
    injective = sample_theory("first_projection_injective")
    cartesian = sample_theory("first_projection")
    sig = cartesian.signature
    a = Letter("A", "a")
    cases = [
        # f(x,x) reads x twice, which an injective context cannot
        (injective, parse_equation_text(sig, "f(x,x) ~ x ctx [ x:A ]")),
        # the context misses a letter of a side
        (cartesian, equation("", app(sig, "f", [var(x), var(y)]), var(x),
                             (x,))),
        # at size 0 there is no model, so no table would reach `satisfies`
        (TWO_SORTED, equation("", app(TWO_SORTED.signature, "q", [var(a)]),
                              var(a), ())),
    ]
    for E, goal in cases:
        for size in range(3):
            with pytest.raises(ModelError, match="is not a context for"):
                iter_models(E, size, avoid=goal)
            with pytest.raises(ModelError, match="is not a context for"):
                find_model(E, size, avoid=goal)


def test_negative_max_size_raises():
    sort_free = Theory("Empty", signature([], {}), CARTESIAN, ())
    for E in (sample_theory("monoid"), sort_free):
        with pytest.raises(ModelError, match="max_size"):
            iter_models(E, -1)
        with pytest.raises(ModelError, match="max_size"):
            find_model(E, -1)
