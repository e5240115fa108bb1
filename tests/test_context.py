"""The eight context structures and their terminal contexts."""

import copy
import itertools
import pickle

import pytest

from ualg.context import (
    BIJECTIVE, CARTESIAN, INJECTIVE, LEFT_SURJECTIVE, RIGHT_SURJECTIVE,
    STRICT_INCREASING, STRUCTURES, SURJECTIVE, TRIVIAL, ContextError, Letter,
    delta_of, embedding, governing_orders, holds, parse_structure,
    terminal_context,
)
from ualg.finord import all_functions, fn, in_family

X, Y, Z = (Letter("s", n) for n in "xyz")


def words(letters, max_len):
    for k in range(max_len + 1):
        yield from itertools.product(letters, repeat=k)


def contexts(letters, max_len):
    for k in range(min(len(letters), max_len) + 1):
        yield from itertools.permutations(letters, k)


def test_letters_are_interned():
    assert Letter("M", "x") is Letter("M", "x")
    assert Letter("M", "x") is not Letter("N", "x")
    assert Letter("M", "x") != Letter("M", "y")


def test_copied_and_unpickled_letters_stay_interned():
    x = Letter("M", "x")
    assert copy.copy(x) is x
    assert copy.deepcopy(x) is x
    assert pickle.loads(pickle.dumps(x)) is x
    assert copy.deepcopy((x, [x]))[1][0] is x


def test_holds_examples_per_structure():
    assert holds(TRIVIAL, (X, Y), (X, Y))
    assert not holds(TRIVIAL, (X, Y), (Y, X))
    assert holds(BIJECTIVE, (X, Y, Z), (Y, Z, X))
    assert not holds(BIJECTIVE, (X, Y), (X, X))
    assert holds(STRICT_INCREASING, (X, Y, Z), (X, Z))
    assert not holds(STRICT_INCREASING, (X, Y, Z), (Z, X))
    assert holds(INJECTIVE, (X, Y, Z), (X, Z))
    assert not holds(INJECTIVE, (X, Y, Z), (X, X))
    assert holds(SURJECTIVE, (X, Y, Z), (X, Y, Y, Z, X))
    assert not holds(SURJECTIVE, (X, Y, Z), (X, Y))
    assert holds(LEFT_SURJECTIVE, (X, Y), (X, X, Y, Y, Y, X))
    assert not holds(LEFT_SURJECTIVE, (X, Y), (Y, X, Y))
    assert holds(RIGHT_SURJECTIVE, (Y, X), (X, Y, X))
    assert not holds(RIGHT_SURJECTIVE, (X, Y), (X, Y, X))
    assert holds(CARTESIAN, (X, Y, Z), (Y, X, Y, X, X))
    assert not holds(CARTESIAN, (X,), (Y,))


def test_holds_rejects_bad_context():
    with pytest.raises(ContextError):
        holds(CARTESIAN, (X, X), (X,))


def test_terminal_context_examples():
    assert terminal_context(LEFT_SURJECTIVE, (X, Y, X)) == (X, Y)
    assert terminal_context(INJECTIVE, (X, X)) is None
    assert terminal_context(CARTESIAN, (Y, X, Y, X, X)) == (Y, X)
    assert terminal_context(RIGHT_SURJECTIVE, (X, Y, X)) == (Y, X)
    assert terminal_context(TRIVIAL, (X, Y)) == (X, Y)


def test_terminal_context_defining_property():
    letters = (X, Y, Z)
    ctx_pool = list(contexts(letters, 3))
    for R in STRUCTURES:
        for v in words(letters, 3):
            c = terminal_context(R, v)
            if c is None:
                assert not any(holds(R, w, v) for w in ctx_pool)
                continue
            for w in ctx_pool:
                assert holds(R, w, c) == holds(R, w, v)


def test_modelable_decompose_components_governed():
    """The decomposition lemma that evaluation and internalization rely on:
    when c governs v1+v2, each v_i has a terminal context t_i, t_i governs
    v_i, and c governs t1+t2."""
    letters = (X, Y)
    for R in STRUCTURES:
        for v1 in words(letters, 2):
            for v2 in words(letters, 2):
                for c in contexts((X, Y, Z), 3):
                    if not holds(R, c, v1 + v2):
                        continue
                    t1 = terminal_context(R, v1)
                    t2 = terminal_context(R, v2)
                    assert t1 is not None and t2 is not None
                    assert holds(R, c, t1 + t2)
                    assert holds(R, t1, v1) and holds(R, t2, v2)


def test_delta_of_examples():
    assert delta_of(BIJECTIVE, fn((2, 1), 2))
    assert not delta_of(STRICT_INCREASING, fn((1, 1), 1))
    assert delta_of(LEFT_SURJECTIVE, fn((1, 1, 2), 2))
    assert delta_of(CARTESIAN, fn((), 0))


def test_embedding_inverts_pull():
    """For a repetition-free v, theta is the embedding of v into the word
    theta pulls v back to."""
    for theta in all_functions(3):
        v = (X, Y, Z)[:theta.cod]
        assert embedding(v, theta.pull(v)) == theta


def test_delta_of_matches_family_at_three():
    for theta in all_functions(3):
        for structure in STRUCTURES:
            family = structure.family
            assert delta_of(structure, theta) == in_family(family, theta), (
                structure.kind, theta)


def test_context_sets_corollary():
    """Concatenation-reindexing along a surjective admitted function leaves
    the set of governing contexts unchanged."""
    from ualg.finord import all_functions, fiber_sizes

    letters = (X, Y)
    word_pool = list(words(letters, 2))
    ctx_pool = list(contexts((X, Y, Z), 4))
    for R in STRUCTURES:
        thetas = [t for t in all_functions(3)
                  if delta_of(R, t) and all(s >= 1 for s in fiber_sizes(t))]
        for theta in thetas:
            for vs in itertools.product(word_pool, repeat=theta.cod):
                flat = tuple(x for v in vs for x in v)
                reindexed = tuple(
                    x for i in range(1, theta.dom + 1)
                    for x in vs[theta(i) - 1])
                set_a = {c for c in ctx_pool if holds(R, c, flat)}
                set_b = {c for c in ctx_pool if holds(R, c, reindexed)}
                assert set_a == set_b, (R.kind, theta, vs)


def test_governing_orders_are_the_orders_that_hold():
    """governing_orders lists, in permutation order, exactly the orders of
    a word's letters that govern it: every word up to length 5 over four
    letters of one sort and one of another, under all eight structures."""
    letters = (*(Letter("s", n) for n in "xyzw"), Letter("t", "u"))
    pairs = 0
    for R in STRUCTURES:
        for v in words(letters, 5):
            want = [p for p in itertools.permutations(dict.fromkeys(v))
                    if holds(R, p, v)]
            assert governing_orders(R, v) == want, (R.kind, v)
            pairs += 1
    assert pairs == 8 * 3906


def test_parse_structure():
    assert parse_structure("left-surjective") is LEFT_SURJECTIVE
    with pytest.raises(ContextError):
        parse_structure("increasing")
