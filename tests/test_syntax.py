"""Signatures, terms, the DSL, and renaming validation."""

import copy
import gc
import itertools
import pickle
from pathlib import Path

import pytest

from ualg.context import (
    BIJECTIVE, CARTESIAN, INJECTIVE, STRUCTURES, SURJECTIVE, Letter,
)
from ualg import syntax
from ualg.deduction import Bounds
from ualg.selftest import MONOID_TEXT
from ualg.syntax import (
    EquationContextError, ParseError, Term, TheoryError, TypingError, app,
    apply_renaming, arg_contexts, const, equation, is_r_context,
    is_r_renaming, parse_equation_text, parse_theory, signature, tau,
    term_depth, var,
)
from ualg.universal import universal_hom

THEORIES = Path(__file__).resolve().parent.parent / "theories"
X, Y = Letter("M", "x"), Letter("M", "y")
A, B = Letter("M", "a"), Letter("M", "b")


@pytest.fixture()
def monoid():
    return parse_theory(MONOID_TEXT)


def test_parse_monoid(monoid):
    assert monoid.name == "Monoid"
    assert monoid.structure is CARTESIAN
    assert set(monoid.signature.ops) == {"mul", "e"}
    assert len(monoid.equations) == 3
    assert monoid.axiom("lunit").lhs.op == "mul"


def test_parse_errors_carry_location():
    bad = MONOID_TEXT.replace("mul(e,x)", "mul(x)")
    with pytest.raises(ParseError) as err:
        parse_theory(bad)
    assert "expects 2 arguments" in str(err.value)

    with pytest.raises(ParseError):
        parse_theory("theory T\nstructure nonsense\nsort M")


@pytest.mark.parametrize("text, col, message", [
    ("@ ~ x ctx [ x:M ]", 0, "unexpected character '@'"),
    ("x ~ mul(x,@) ctx [ x:M ]", 10, "unexpected character '@'"),
    ("x ~ mul(x,x) y ctx [ x:M ]", 13, "trailing input 'y'"),
    ("x ~  ctx [ x:M ]", 4, "unexpected end of term"),
    ("x ~ mul(x, ctx [ x:M ]", 10, "unexpected end of term"),
    ("x' ~ x ctx [ x:M ]", 1, "unexpected character \"'\""),
    ("mul(x,y.z) ~ x ctx [ x:M y:M z:M ]", 7, "unexpected character '.'"),
])
def test_parse_error_column_counts_from_equation_start(monoid, text, col,
                                                       message):
    """Both sides report columns from the start of the equation text."""
    with pytest.raises(ParseError) as err:
        parse_equation_text(monoid.signature, text)
    assert err.value.col == col
    assert message in str(err.value)


def test_empty_application_is_read_like_a_bare_name(monoid):
    """`e()` is the constant `e`; `mul()` applies `mul` to no arguments and
    is rejected at its column."""
    eq = parse_equation_text(monoid.signature, "e() ~ e ctx [ ]")
    assert eq.lhs is eq.rhs is const(monoid.signature, "e")
    with pytest.raises(ParseError) as err:
        parse_equation_text(monoid.signature, "mul() ~ e ctx [ ]")
    assert err.value.col == 0
    assert "op mul expects 2 arguments, got 0" in str(err.value)


HEAD = "theory T\nstructure cartesian\nsort M\nop mul : M M -> M\nop e : -> M\n"


@pytest.mark.parametrize("text, cls, line, message", [
    # parse_theory
    ("theory\nstructure cartesian\n", ParseError, 1, "theory needs a name"),
    (HEAD + "sort\n", ParseError, 6, "sort needs at least one name"),
    (HEAD + "sort N M\n", ParseError, 6, "duplicate sort 'M'"),
    (HEAD + "op f M -> M\n", ParseError, 6, "op syntax"),
    (HEAD + "op mul : M -> M\n", ParseError, 6, "duplicate op 'mul'"),
    (HEAD + "op f : M M\n", ParseError, 6, "op typing needs '->'"),
    (HEAD + "op f : N -> M\n", ParseError, 6, "undeclared sort 'N'"),
    (HEAD + "eq : x ~ x ctx [ x:M ]\n", ParseError, 6, "eq syntax"),
    (HEAD + "axiom a : x ~ x ctx [ x:M ]\n", ParseError, 6,
     "unknown directive 'axiom'"),
    ("theory T\nsort M\n", ParseError, 1, "missing a 'structure' line"),
    # _parse_ctx_block
    (HEAD + "eq a : x ~ x ctx x:M\n", ParseError, 6,
     "context must be bracketed"),
    (HEAD + "eq a : x ~ x ctx [ x ]\n", ParseError, 6,
     "bad context entry 'x'"),
    (HEAD + "eq a : x ~ x ctx [ x:N ]\n", ParseError, 6,
     "undeclared sort 'N' in context"),
    # parse_equation_text
    (HEAD + "eq a : x ~ x\n", ParseError, 6, "needs a 'ctx [ ... ]' part"),
    (HEAD + "eq a : x ctx [ x:M ]\n", ParseError, 6, "needs '~'"),
    # _parse_term
    (HEAD + "eq a : mul(,x) ~ x ctx [ x:M ]\n", ParseError, 6,
     "expected a name, got ','"),
    (HEAD + "eq a : mul(x x) ~ x ctx [ x:M ]\n", ParseError, 6,
     "expected ',' or ')', got 'x'"),
    (HEAD + "eq a : mul ~ x ctx [ x:M ]\n", ParseError, 6,
     "op mul expects 2 arguments, got 0"),
    (HEAD + "eq a : q ~ x ctx [ x:M ]\n", ParseError, 6,
     "'q' is neither a declared constant nor a context variable"),
    (HEAD + "eq a : x ~ x ctx [ x:M ]\neq a : e ~ e ctx [ ]\n", ParseError,
     7, "duplicate equation name 'a'"),
])
def test_parse_theory_rejections(text, cls, line, message):
    """Each rejection of the DSL raises its own class at the line it
    names."""
    with pytest.raises(TheoryError) as err:
        parse_theory(text)
    assert type(err.value) is cls
    assert getattr(err.value, "line", None) == line
    assert message in str(err.value)


def test_theory_built_in_code_rejects_a_duplicate_equation_name(monoid):
    """`parse_theory` names the repeat's line; a theory built in code has
    no lines, and `Theory` itself still rejects the repeat."""
    lunit = monoid.axiom("lunit")
    with pytest.raises(TheoryError, match="duplicate equation name 'lunit'"):
        syntax.Theory("T", monoid.signature, monoid.structure,
                      (lunit, lunit))


@pytest.mark.parametrize("name", ["A=>B", "[M]", "M,N", "1M"])
def test_non_identifier_sort_rejected(name):
    text = (f"theory T\nstructure cartesian\nsort {name}\n"
            f"op m : {name} {name} -> {name}\n")
    with pytest.raises(ParseError) as err:
        parse_theory(text)
    assert "not an identifier" in str(err.value)
    assert err.value.line == 3


@pytest.mark.parametrize("decl", ["op m(x : M M -> M", "op 1m : M M -> M",
                                  "op m-n : M M -> M", "op m' : -> M"])
def test_non_identifier_op_rejected(decl):
    text = f"theory T\nstructure cartesian\nsort M\n{decl}\n"
    with pytest.raises(ParseError) as err:
        parse_theory(text)
    assert "not an identifier" in str(err.value)
    assert err.value.line == 4


@pytest.mark.parametrize("ctx", ["[ e:M x:M ]", "[ x:M y:M z],:M ]",
                                 "[ x:M 1y:M ]", "[ mul:M x:M ]"])
def test_bad_context_letter_rejected(monoid, ctx):
    with pytest.raises(ParseError) as err:
        parse_equation_text(monoid.signature, f"mul(e,x) ~ x ctx {ctx}")
    assert "context letter" in str(err.value)


def test_context_error_under_injective():
    text = """
theory Bad
structure injective
sort M
op f : M M -> M
eq dup : f(x,x) ~ x ctx [ x:M ]
"""
    with pytest.raises(EquationContextError) as err:
        parse_theory(text)
    assert "dup" in str(err.value)


def test_duplicate_context_letter_rejected(monoid):
    with pytest.raises(ParseError):
        parse_equation_text(monoid.signature,
                            "mul(x,y) ~ x ctx [ x:M x:M ]")


def test_tau(monoid):
    sig = monoid.signature
    assert tau(var(X)) == (X,)
    assert tau(const(sig, "e")) == ()
    assert tau(app(sig, "mul", [const(sig, "e"), var(X)])) == (X,)
    t = app(sig, "mul", [app(sig, "mul", [var(X), var(Y)]), var(X)])
    assert tau(t) == (X, Y, X)


def test_terms_are_interned(monoid):
    sig = monoid.signature
    t1 = app(sig, "mul", [var(X), var(Y)])
    t2 = app(sig, "mul", [var(X), var(Y)])
    assert t1 is t2


def test_copied_and_unpickled_terms_stay_interned(monoid):
    """Copies and unpickled terms are rebuilt through the intern table, so
    equations and theories holding them still compare equal."""
    eq = monoid.axiom("assoc")
    t = eq.lhs
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t
    assert copy.deepcopy(t.args[1]) is t.args[1]  # a variable
    assert copy.deepcopy(eq) == eq
    assert pickle.loads(pickle.dumps(monoid)) == monoid


def test_terms_and_letters_hash_by_identity():
    """Interned values need no Python-level hash: both inherit object's."""
    assert Term.__hash__ is object.__hash__
    assert Letter.__hash__ is object.__hash__


def test_parsed_letters_are_the_hand_built_ones(monoid):
    eq = parse_equation_text(monoid.signature, "mul(x,y) ~ x ctx [ x:M y:M ]")
    assert eq.ctx[0] is X and eq.ctx[1] is Y
    assert eq.lhs is app(monoid.signature, "mul", [var(X), var(Y)])


def test_repeated_universal_hom_builds_no_new_terms_or_letters():
    """A second identical quotient reuses every interned term and letter."""
    theory = parse_theory((THEORIES / "monoid.ua").read_text())
    bounds = Bounds(2, 3, 8)
    universal_hom(theory, (("M", "M"), "M"), bounds)
    gc.collect()
    sizes = (len(syntax._TERMS), len(Letter._table))
    universal_hom(theory, (("M", "M"), "M"), bounds)
    gc.collect()
    assert (len(syntax._TERMS), len(Letter._table)) == sizes


def test_interning_keeps_result_sorts_apart():
    """Same-named ops of different result sorts in two theories of one
    process build distinct terms, through app and through renaming."""
    first = parse_theory("theory T1\nstructure cartesian\nsort A\n"
                         "op c_sorted : -> A\nop g_sorted : A -> A\n"
                         "eq k : g_sorted(c_sorted) ~ c_sorted ctx [ ]\n")
    second = parse_theory("theory T2\nstructure cartesian\nsort A\nsort B\n"
                          "op c_sorted : -> B\nop f_sorted : B -> A\n"
                          "eq k : f_sorted(c_sorted) ~ f_sorted(c_sorted) "
                          "ctx [ ]\n")
    assert first.axiom("k").rhs.sort == "A"
    assert second.axiom("k").lhs.args[0].sort == "B"

    x = Letter("A", "x")
    sig_aa = signature(["A"], {"a0_sorted": ((), "A"),
                               "h_sorted": (("A",), "A")})
    sig_ab = signature(["A", "B"], {"a0_sorted": ((), "A"),
                                    "h_sorted": (("A",), "B")})
    a0 = const(sig_aa, "a0_sorted")
    for sig, sort in ((sig_aa, "A"), (sig_ab, "B")):
        renamed = apply_renaming({x: a0}, app(sig, "h_sorted", [var(x)]))
        assert renamed.sort == sort


def test_arg_contexts(monoid):
    sig = monoid.signature
    e = const(sig, "e")
    xy = app(sig, "mul", [var(X), var(Y)])
    xx = app(sig, "mul", [var(X), var(X)])
    assert arg_contexts(CARTESIAN, (xy, e, var(Y))) == ((X, Y), (), (Y,))
    assert arg_contexts(CARTESIAN, (xx,)) == ((X,),)
    assert arg_contexts(INJECTIVE, (xy, xx)) is None
    assert arg_contexts(INJECTIVE, ()) == ()


def test_is_r_context(monoid):
    sig = monoid.signature
    t = app(sig, "mul", [var(X), var(X)])
    assert is_r_context(CARTESIAN, (X, Y), t)
    assert not is_r_context(BIJECTIVE, (X, Y), t)
    assert is_r_context(SURJECTIVE, (X,), t)


def test_apply_renaming(monoid):
    sig = monoid.signature
    e = const(sig, "e")
    t = app(sig, "mul", [var(X), var(Y)])
    assert apply_renaming({X: e, Y: var(Y)}, t) == app(sig, "mul", [e, var(Y)])
    assert apply_renaming({X: var(X), Y: var(Y)}, t) is t
    sq = app(sig, "mul", [var(X), var(X)])
    big = apply_renaming({X: t}, sq)
    assert big == app(sig, "mul", [t, t])
    with pytest.raises(TypingError):
        apply_renaming({X: e}, t)  # y unmapped
    with pytest.raises(TypingError):
        apply_renaming({X: var(Letter("N", "x"))}, var(X))


def test_is_r_renaming(monoid):
    sig = monoid.signature
    e = const(sig, "e")
    ident = {A: var(A), B: var(B)}
    assert is_r_renaming(BIJECTIVE, ident, (A, B), (A, B), [(A,), (B,)])
    s = {A: var(A), B: e}
    assert is_r_renaming(BIJECTIVE, s, (A, B), (A,), [(A,), ()])
    bad = {A: app(sig, "mul", [var(X), var(X)]), B: var(B)}
    assert not is_r_renaming(INJECTIVE, bad, (A, B), (X, B), [(X,), (B,)])
    with pytest.raises(TypingError):
        is_r_renaming(BIJECTIVE, ident, (A, B), (A,), [(A,)])


def test_renaming_preserves_contexts(monoid):
    """A guarded substitution sends governed terms to governed terms."""
    sig = monoid.signature
    e = const(sig, "e")
    depth2 = [var(A), var(B), e,
              app(sig, "mul", [var(A), var(B)]),
              app(sig, "mul", [var(A), var(A)]),
              app(sig, "mul", [e, var(A)])]
    images = [var(X), var(Y), e, app(sig, "mul", [var(X), var(Y)])]
    from ualg.context import terminal_context

    for R in STRUCTURES:
        for t in depth2:
            if not is_r_context(R, (A, B), t):
                continue
            for image_a, image_b in itertools.product(images, repeat=2):
                s = {A: image_a, B: image_b}
                ws = []
                ok = True
                for letter in (A, B):
                    w = terminal_context(R, tau(s[letter]))
                    if w is None:
                        ok = False
                        break
                    ws.append(w)
                if not ok:
                    continue
                flat = tuple(x for w in ws for x in w)
                w_full = terminal_context(R, flat)
                if w_full is None or not is_r_renaming(
                        R, s, (A, B), w_full, ws):
                    continue
                renamed = apply_renaming(s, t)
                assert is_r_context(R, w_full, renamed), (R.kind, t, s)
                # the variable word is the reindexed concatenation
                expected = tuple(x for letter in tau(t) for x in tau(s[letter]))
                assert tau(renamed) == expected


def test_equation_sort_check(monoid):
    sig2 = signature(["M", "N"], {"f": (("M",), "N")})
    with pytest.raises(TypingError):
        equation("bad", var(Letter("M", "x")),
                 app(sig2, "f", [var(Letter("M", "x"))]),
                 (Letter("M", "x"),))


def test_term_depth(monoid):
    sig = monoid.signature
    assert term_depth(var(X)) == 1
    assert term_depth(const(sig, "e")) == 1
    t = app(sig, "mul", [app(sig, "mul", [var(X), var(Y)]), var(X)])
    assert term_depth(t) == 3
