"""The extended signature and the bounded initial model."""

import hashlib
import sys
from pathlib import Path

import pytest

from ualg.context import (
    CARTESIAN, INJECTIVE, STRICT_INCREASING, TRIVIAL, Letter,
)
from ualg.deduction import (
    Bounds, _canonicalize, _Saturator, check_proof, proof_lines,
)
from ualg.finord import fn, identity
from ualg.selftest import (
    GOAL_LIST, eckmann_hilton_theory, monoid_theory, projection_theory,
)
from ualg.setmodel import (
    FinSetModel, MultiMap, eval_term, iter_models, table_from,
)
from ualg.syntax import Theory, app, denote, equation, \
    parse_equation_text, parse_theory, signature, var
from ualg.universal import (
    _WIDTHS, UniversalError, _act, _categorization, _comp, _extended_theory,
    _read, build_sigma, categorization_axioms, default_sigma,
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
    homs = [S.key_of[s] for s in S.signature.sorts]
    assert len(homs) == 3  # words of length 0,1,2 paired with M
    assert {a for _, a, _ in homs} == {(), ("M",), ("M", "M")}
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
    assert set(S.key_of) == set(S.signature.sorts) | set(S.signature.ops)
    for name in S.signature.ops:
        kind, *key = S.key_of[name]
        assert accessors[kind](*key) == name
    for s in S.signature.sorts:
        kind, *key = S.key_of[s]
        assert kind == "hom" and S.hom_sort_name(*key) == s
    assert len(S.name_of) == len(S.key_of)
    assert all(S.name_of[key] == name for name, key in S.key_of.items())

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


@pytest.mark.parametrize("structure, ctx, nested, message", [
    (STRICT_INCREASING, "yx", False,
     "embedding of f(x, y) not admitted by strict-increasing"),
    (STRICT_INCREASING, "x", False, "context does not cover f(x, y)"),
    (INJECTIVE, "xy", True, "an argument of f(f(x, x), y) has no context"),
])
def test_internalize_term_rejections(structure, ctx, nested, message):
    """An embedding outside Delta_R, an uncovered letter and an argument
    with no terminal context each raise UniversalError."""
    E = projection_theory(structure)
    S = default_sigma(E, (("A", "A"), "A"))
    x, y = (var(Letter("A", n)) for n in "xy")
    t = app(E.signature, "f", [app(E.signature, "f", [x, x]) if nested
                               else x, y])
    with pytest.raises(UniversalError) as err:
        internalize_term(S, tuple(Letter("A", n) for n in ctx), t)
    assert str(err.value) == message


def test_enumerate_pure_terms(monoid):
    sig1 = signature(["M"], {})
    S = build_sigma(sig1, CARTESIAN, 2)
    universe = enumerate_pure_terms(S, 2)
    hom_mm = S.hom_sort_name(("M",), "M")
    terms = {sigma_term_str(S, t) for t in universe[hom_mm]}
    assert "id[M]" in terms
    assert "act[1](id[M])" in terms
    assert any(name.startswith("comp(id[M]") for name in terms)


def test_enumerate_pure_terms_seeds_depths_one_and_two_only(monoid):
    """Depth 1 is the constants, depth 2 adds each symbol applied to
    constants after them; no caller asks for more, so any other depth is
    an error."""
    S = default_sigma(monoid, (("M", "M"), "M"))
    one, two = enumerate_pure_terms(S, 1), enumerate_pure_terms(S, 2)
    for sort, terms in one.items():
        assert all(not t.args for t in terms)
        assert two[sort][:len(terms)] == terms
        assert all(t.args and not any(a.args for a in t.args)
                   for t in two[sort][len(terms):])
    for depth in (0, 3):
        with pytest.raises(UniversalError, match="depth 1 or 2"):
            enumerate_pure_terms(S, depth)


def test_universal_hom_unit_class():
    sig1 = signature(["M"], {})
    E0 = Theory("E0", sig1, CARTESIAN, ())
    part = universal_hom(E0, (("M",), "M"), Bounds(2, 3, 6))
    assert len(part.classes) == 1
    names = {sigma_term_str(part.sigma, t) for t in part.classes[0]}
    assert {"id[M]", "act[1](id[M])", "comp(id[M], id[M])"} <= names


def test_universal_hom_rejects_an_unknown_sort_and_a_narrow_sigma(monoid):
    """A sort the theory does not declare is named before any signature is
    built; a declared hom sort wider than a given extended signature is
    outside its bounds."""
    with pytest.raises(UniversalError, match=r"^unknown sort N$"):
        universal_hom(monoid, (("M",), "N"), Bounds(1, 1, 1))
    narrow = build_sigma(monoid.signature, monoid.structure, 2)
    with pytest.raises(UniversalError,
                       match=r"^hom sort M M M -> M outside bounds$"):
        universal_hom(monoid, (("M", "M", "M"), "M"), Bounds(1, 1, 1),
                      sigma=narrow)


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


def _criterion_10_inputs(key):
    """Criterion 10's quotient inputs: the sample hom at Bounds(3,3,8), with
    the internalized sides of the theory's goals as extra terms."""
    E, hom = SAMPLE_HOMS[key]
    sigma = default_sigma(E, hom)
    extra = []
    for goal_key, text, _ in GOAL_LIST:
        if goal_key == key:
            goal = parse_equation_text(E.signature, text,
                                       structure=E.structure)
            extra += [internalize_term(sigma, goal.ctx, side)
                      for side in (goal.lhs, goal.rhs)]
    return E, hom, Bounds(3, 3, 8), extra


@pytest.fixture(scope="module")
def quotient_inputs():
    """(theory, hom, bounds, extra terms) by name: the sample quotients at
    Bounds(2,3,8), the non-linear ones at Bounds(2,3,2) and criterion 10's
    three."""
    out = {key: (E, hom, Bounds(2, 3, 8), [])
           for key, (E, hom) in SAMPLE_HOMS.items()}
    for kind, (text, sort) in NON_LINEAR.items():
        out[kind] = (parse_theory(text), ((sort, sort), sort),
                     Bounds(2, 3, 2), [])
    for key in SAMPLE_HOMS:
        out[f"criterion 10 {key}"] = _criterion_10_inputs(key)
    return out


@pytest.fixture(scope="module")
def quotients(quotient_inputs):
    """(theory, quotient) by name, built once for the module."""
    return {key: (E, universal_hom(E, hom, bounds, extra_terms=extra))
            for key, (E, hom, bounds, extra) in quotient_inputs.items()}


def _unfiltered_engine(E, part, bounds, extra):
    """The engine `universal_hom` builds for `part` when it seeds every
    axiom of the whole sigma theory, not yet run."""
    sigma = part.sigma
    universe = enumerate_pure_terms(sigma, min(2, bounds.max_term_depth))
    seeds = [((), t) for terms in (*universe.values(), extra) for t in terms]
    return _Saturator(sigma_theory(sigma, E), bounds, extra_terms=seeds,
                      ground=lambda t: sigma.key_of[t.op][0] != "act")


def _round_one_targets(engine, ctx):
    """Each letter's round-1 target list in an engine not yet run; the
    lookups leave its flags as they were."""
    flags = set(engine.truncated_by)
    targets = [engine._targets_for(len(ctx), x.sort, True) for x in ctx]
    engine.truncated_by = flags
    return targets


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


def test_quotient_is_ground(quotient_inputs, quotients):
    """The engine derives closed equations only.  Every event with a
    non-empty context is an axiom seed, and the seeds are the
    categorization instances that round 1 instantiates: an open space holds
    the sides of those at its context and nothing else.  No conclusion
    meets the context cap, so `ctx` never truncates a quotient."""
    for key in ("monoid", "eh", "projection"):
        E, hom, bounds, extra = quotient_inputs[key]
        _, part = quotients[key]
        reference = _unfiltered_engine(E, part, bounds, extra)
        seeds = {(ctx, a, b) for ctx, (a, b) in (
            _canonicalize({}, ax.ctx, [ax.lhs, ax.rhs])
            for ax in sigma_theory(part.sigma, E).equations) if ctx}
        live = {seed for seed in seeds
                if all(_round_one_targets(reference, seed[0]))}
        assert len(live) < len(seeds), key
        engine = part._engine
        assert {event for event in engine.events if event[0]} == live, key
        for ctx, sp in engine.spaces.items():
            if ctx:
                sides = {t for c, a, b in live if c == ctx for t in (a, b)}
                assert set(sp.parent) == sides, (key, ctx)
    for key, (_, part) in quotients.items():
        assert "ctx" not in part.truncated_by, key


def test_dropped_seeds_change_nothing(quotient_inputs, quotients):
    """Differential check against the engine seeded with the whole sigma
    theory, on every quotient of the module and on a theory with no axioms
    (whose only sides of depth 3 are categorization sides): the same
    classes, flags, depth cap and closed events in order, and every
    seed left out has a letter with no round-1 target."""
    E0 = Theory("E0", signature(["M"], {}), CARTESIAN, ())
    cases = dict(quotient_inputs)
    cases["E0"] = (E0, (("M",), "M"), Bounds(2, 3, 6), [])
    dropped = 0
    for key, (E, hom, bounds, extra) in cases.items():
        part = quotients[key][1] if key in quotients else universal_hom(
            E, hom, bounds, extra_terms=extra)
        reference = _unfiltered_engine(E, part, bounds, extra)
        kept = {event for event in part._engine.events if event[0]}
        for event in reference.events:
            if event[0] and event not in kept:
                assert not all(_round_one_targets(reference, event[0])), (
                    key, event)
                dropped += 1
        reference.run()
        engine = part._engine
        assert engine.depth_cap == reference.depth_cap, key
        assert tuple(sorted(reference.truncated_by)) == part.truncated_by, key
        assert [e for e in engine.events if not e[0]] == [
            e for e in reference.events if not e[0]], key
        space = reference.spaces[()]
        classes = {}
        for t in (t for cls in part.classes for t in cls):
            classes.setdefault(space.find(t), []).append(t)
        assert list(classes.values()) == part.classes, key
    assert dropped >= 9500


def test_kept_instances_keep_their_names(quotient_inputs, quotients):
    """Filtering the categorization instances by their contexts leaves each
    kept one as it is in the full list, name and equation; an instance
    whose symbols fall outside the bounds takes no number either way."""
    S = quotients["monoid"][1].sigma
    full = categorization_axioms(S)
    assert [eq.name for eq in full] == [
        f"cat:{eq.name.split(':')[1]}:{i}" for i, eq in enumerate(full)]
    E, hom, bounds, extra = quotient_inputs["monoid"]
    reference = _unfiltered_engine(E, quotients["monoid"][1], bounds, extra)
    for keep in (lambda n, sort: bool(reference._targets_for(n, sort, True)),
                 lambda n, sort: n == 2,
                 lambda n, sort: False):
        assert _categorization(S, keep) == [
            eq for eq in full
            if all(keep(len(eq.ctx), x.sort) for x in eq.ctx)]


THEORIES = Path(__file__).resolve().parent.parent / "theories"

# Two sorts at arity 2: the full categorization walk numbers 4,242
# instances, and the quotient keeps 127.  Without the axiom, a depth-1
# quotient drops no target, so no lookup may flag `instantiation`.
FREE_TWO_SORTS = """\
theory TwoSorts
structure cartesian
sort A
sort B
op f : B -> A
"""
TWO_SORTS = FREE_TWO_SORTS + "eq e : f(z) ~ f(x) ctx [ x:B z:B ]\n"


def _ground_engine(E, sigma, bounds):
    """A fresh engine as `universal_hom` builds it, before any seed."""
    universe = enumerate_pure_terms(sigma, min(2, bounds.max_term_depth))
    seeds = [((), t) for terms in universe.values() for t in terms]
    return _Saturator(_extended_theory(sigma, E, ()), bounds,
                      extra_terms=seeds,
                      ground=lambda t: sigma.key_of[t.op][0] != "act")


@pytest.mark.parametrize("source, hom", [
    ("monoid.ua", (("M", "M"), "M")),
    ("eckmann_hilton.ua", (("M", "M"), "M")),
    ("first_projection.ua", (("A", "A"), "A")),
    ("first_projection_injective.ua", (("A", "A"), "A")),
    (TWO_SORTS, (("B",), "A")),
    (FREE_TWO_SORTS, (("B", "B"), "A")),
])
@pytest.mark.parametrize("bounds", [Bounds(2, 3, 8), Bounds(1, 3, 4)])
def test_pruned_walk_is_the_filtered_full_walk(source, hom, bounds):
    """Differential check of the pruned categorization walk: it keeps the
    instances of the full walk whose letters all have round-1 targets,
    with their names, sides and contexts; it looks up what a filter that
    stops at an instance's first letter without one looks up; and the
    quotient equals that of an engine seeded with the filtered full list,
    classes and flags."""
    E = parse_theory(source if "\n" in source
                     else (THEORIES / source).read_text())
    sigma = default_sigma(E, hom)
    full = categorization_axioms(sigma)
    pruned, reference = (_ground_engine(E, sigma, bounds) for _ in "ab")
    kept = _categorization(sigma, pruned.instantiable)
    filtered = [eq for eq in full if all(
        reference.instantiable(len(eq.ctx), x.sort) for x in eq.ctx)]
    assert 0 < len(kept) < len(full)
    assert kept == filtered
    assert pruned.truncated_by == reference.truncated_by
    reference.seed(filtered)
    reference.run()
    part = universal_hom(E, hom, bounds, sigma=sigma)
    assert part.truncated_by == tuple(sorted(reference.truncated_by))
    space = reference.spaces[()]
    classes = {}
    for t in (t for cls in part.classes for t in cls):
        classes.setdefault(space.find(t), []).append(t)
    assert list(classes.values()) == part.classes


def test_sigma_terms_read_on_an_explicit_stack(monoid):
    """`_read` walks a closed term 2,000 deep, past the default recursion
    limit, to a printed form and to a table."""
    S = default_sigma(monoid, (("M", "M"), "M"))
    unit = app(S.signature, S.id_name("M"))
    t = unit
    for i in range(2000):
        t = (_comp(S, unit, [t]) if i % 2
             else _act(S, identity(1), ("M",), "M", t))
    assert 2000 > sys.getrecursionlimit()
    printed = sigma_term_str(S, t)
    assert printed == "comp(id[M], act[1](" * 1000 + "id[M]" + "))" * 1000
    xor = FinSetModel(monoid.signature, monoid.structure, {"M": 2},
                      {"mul": table_from((2, 2), 2, lambda a, b: a ^ b),
                       "e": MultiMap((), 2, (0,))})
    assert sigma_interpret(S, xor, t) == MultiMap((2,), 2, (0, 1))


def test_quotient_ignores_the_context_bound(monoid):
    """A ground engine registers no pool letters, which only open targets
    would use, so the context bound leaves its universe as it is."""
    hom = (("M", "M"), "M")
    sigma = default_sigma(monoid, hom)
    short, long = (universal_hom(monoid, hom, Bounds(2, n, 8), sigma=sigma)
                   for n in (1, 6))
    assert list(short._engine.universe) == list(long._engine.universe)


def test_quotient_proof_digest(quotients):
    """A sha256 over the classes, the flags and the proof of every 7th
    closed event of the three sample quotients; an engine change that keeps
    outputs exact keeps it.  The lettered events are left out: they are the
    axiom seeds, and which seeds the quotient needs is not an output."""
    h = hashlib.sha256()
    for key in SAMPLE_HOMS:
        _, part = quotients[key]
        h.update(f"{key} {part.truncated_by}\n".encode())
        for cls in part.classes:
            h.update(f"{cls}\n".encode())
        engine = part._engine
        closed = [(a, b) for ctx, a, b in engine.events if not ctx]
        for a, b in closed[::7]:
            for line in proof_lines(engine.proof_of(equation("", a, b, ()))):
                h.update(f"  {line}\n".encode())
    assert h.hexdigest() == (
        "9ebbd8674d3d4b86e6cc81ab2f42d4565cf7f1ce087f7f4ea763daad159b66c8")


def test_sigma_interpret_examples(monoid):
    S = default_sigma(monoid, (("M", "M"), "M"))
    xor = FinSetModel(monoid.signature, monoid.structure, {"M": 2},
                      {"mul": table_from((2, 2), 2, lambda a, b: a ^ b),
                       "e": MultiMap((), 2, (0,))})
    ints = {eq.name: eq for eq in internalize(monoid, S)}
    lhs = sigma_interpret(S, xor, ints["int:lunit"].lhs)
    rhs = sigma_interpret(S, xor, ints["int:lunit"].rhs)
    assert lhs == rhs == MultiMap((2,), 2, (0, 1))


def test_internalized_terms_denote_their_tables():
    """`internalize_term` and `eval_term` are one recursion, `denote`, over
    two multicategories, and `_read` maps the first to any other: in every
    model up to size 2, an axiom or goal side's internalized term
    interprets to the side's table, and read over the printed forms or
    `default_sigma`'s widths it gives what `denote` gives the side."""
    pairs = 0
    for key, E in (("monoid", monoid_theory()),
                   ("eh", eckmann_hilton_theory()),
                   ("projection", projection_theory(CARTESIAN)),
                   ("projection", projection_theory(INJECTIVE))):
        S = default_sigma(E, SAMPLE_HOMS[key][1])
        printed = (S.id_name, S.op_name,
                   lambda head, args: f"comp({', '.join((head, *args))})",
                   lambda arg, theta, b:
                       f"act[{','.join(map(str, theta.images))}]({arg})")
        goals = [parse_equation_text(E.signature, text,
                                     structure=E.structure)
                 for goal_key, text, _ in GOAL_LIST if goal_key == key]
        sides = [(eq.ctx, t) for eq in (*E.equations, *goals)
                 for t in (eq.lhs, eq.rhs)]
        models = list(iter_models(E, 2))
        assert models, (key, E.structure)
        for ctx, t in sides:
            internal = internalize_term(S, ctx, t)
            for m in models:
                assert sigma_interpret(S, m, internal) == eval_term(
                    m, ctx, t), (key, E.structure, t)
                pairs += 1
            for maps in (printed, _WIDTHS):
                assert _read(S, internal, *maps) == denote(
                    E.structure, ctx, t, *maps), (key, E.structure, t)
            assert sigma_term_str(S, internal) == denote(
                E.structure, ctx, t, *printed)
    assert pairs >= 154


def test_reading_an_open_term_or_unknown_symbol_fails(monoid):
    """Only closed extended-signature terms have a table or a printed form;
    a letter, at the top or under an action, and a symbol outside the
    extended signature both raise."""
    S = default_sigma(monoid, (("M", "M"), "M"))
    h = var(Letter(S.hom_sort_name(("M",), "M"), "h"))
    m = next(iter_models(monoid, 1))
    for t in (h, _act(S, identity(1), ("M",), "M", h)):
        with pytest.raises(UniversalError, match="only closed terms"):
            sigma_interpret(S, m, t)
        with pytest.raises(UniversalError, match="only closed terms"):
            sigma_term_str(S, t)
    base = app(monoid.signature, "e")
    with pytest.raises(UniversalError, match="unknown symbol e"):
        sigma_interpret(S, m, base)
    with pytest.raises(UniversalError, match="unknown symbol e"):
        sigma_term_str(S, base)


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
    assert t not in part._engine.universe
    assert part.merged(t, t)
