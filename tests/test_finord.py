"""Finite-ordinal arithmetic and the closure checks behind it."""

import itertools

import pytest

from ualg.finord import (
    FinFn, FinOrdError, StructureMonoid, all_functions, compose,
    coproduct, fiber_sizes, fn, functions, identity, in_family, monoid,
    monoid_contains, parse_family, similarity_component,
    verify_structure_category,
)


def test_finfn_validation():
    with pytest.raises(FinOrdError):
        fn((3,), 2)
    with pytest.raises(FinOrdError):
        FinFn(2, 2, (1,))
    assert fn((), 5).dom == 0  # empty function into [5] is legal


def test_compose_examples():
    f = fn((2, 1), 3)
    assert compose(identity(3), f) == f
    assert compose(fn((2,), 2), fn((1, 1), 1)) == fn((2, 2), 2)
    swap = fn((2, 1), 2)
    assert compose(swap, swap) == identity(2)
    with pytest.raises(FinOrdError):
        compose(fn((1,), 1), fn((1,), 2))


def test_pull_reindexes_a_word():
    assert fn((2, 2, 1), 3).pull("abc") == ("b", "b", "a")
    assert fn((), 2).pull("ab") == ()
    for f in all_functions(3):
        assert f.pull(range(1, f.cod + 1)) == f.images


def test_pull_is_contravariant_in_composition():
    """Pulling along g.f is pulling along g, then along f."""
    fns3 = list(all_functions(3))
    for f in fns3:
        for g in (g for g in fns3 if g.dom == f.cod):
            xs = tuple(f"x{i}" for i in range(1, g.cod + 1))
            assert compose(g, f).pull(xs) == f.pull(g.pull(xs))


def test_functions_enumerates_every_map_in_lexicographic_order():
    for m in range(4):
        for n in range(4):
            maps = list(functions(m, n))
            assert len(maps) == n ** m
            assert [f.images for f in maps] == sorted(f.images for f in maps)
            assert len(set(maps)) == len(maps)
    assert list(all_functions(3)) == [
        f for n in range(4) for m in range(4) for f in functions(m, n)]


def test_compose_associativity_small():
    fns3 = list(all_functions(3))
    by_dom = {}
    for g in fns3:
        by_dom.setdefault(g.dom, []).append(g)
    for f in fns3:
        for g in by_dom.get(f.cod, ()):
            for h in by_dom.get(g.cod, ()):
                assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_compose_associativity_sampled_at_four():
    fns4 = [f for f in all_functions(4) if f.dom == 4 or f.cod == 4]
    sample = fns4[::7]
    by_dom = {}
    for g in all_functions(4):
        by_dom.setdefault(g.dom, []).append(g)
    for f in sample:
        for g in by_dom.get(f.cod, ())[::5]:
            for h in by_dom.get(g.cod, ())[::5]:
                assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_coproduct_examples():
    assert coproduct([identity(1), identity(1)]) == identity(2)
    assert coproduct([fn((1, 1), 1), fn((1,), 1)]) == fn((1, 1, 2), 2)
    assert coproduct([]) == fn((), 0)


def test_coproduct_fibers_merge():
    pool = list(all_functions(3))
    for f in pool[::3]:
        for g in pool[::5]:
            merged = sorted(fiber_sizes(coproduct([f, g])))
            assert merged == sorted(fiber_sizes(f) + fiber_sizes(g))


def test_similarity_component_examples():
    assert similarity_component(fn((2, 1), 2), (1, 2)) == fn((2, 3, 1), 3)
    assert similarity_component(fn((1, 1), 1), (2,)) == fn((1, 2, 1, 2), 2)
    # all-ones blocks recover the original function
    for theta in all_functions(3):
        assert similarity_component(theta, (1,) * theta.cod) == theta
    with pytest.raises(FinOrdError):
        similarity_component(fn((1,), 1), (1, 1))


def test_similarity_identity_law():
    for n in range(4):
        for ks in itertools.product(range(3), repeat=n):
            assert similarity_component(identity(n), ks) == identity(sum(ks))


def test_similarity_functoriality():
    fns = list(all_functions(3))
    by_dom = {}
    for g in fns:
        by_dom.setdefault(g.dom, []).append(g)
    for sigma in fns:
        for tau in by_dom.get(sigma.cod, ()):
            for ks in itertools.product(range(3), repeat=tau.cod):
                lhs = similarity_component(compose(tau, sigma), ks)
                ks_tau = tuple(ks[tau(i) - 1] for i in range(1, tau.dom + 1))
                rhs = compose(similarity_component(tau, ks),
                              similarity_component(sigma, ks_tau))
                assert lhs == rhs


def test_fiber_sizes():
    assert fiber_sizes(identity(3)) == (1, 1, 1)
    assert fiber_sizes(fn((1, 1), 1)) == (2,)
    assert fiber_sizes(fn((2, 2, 1), 3)) == (1, 2, 0)
    for f in all_functions(3):
        assert sum(fiber_sizes(f)) == f.dom


def _closure_oracle(generators, bound):
    """Independent brute-force closure under k-fold sums of members."""
    members = set(generators) | {1}
    while True:
        new = set()
        for k in list(members):
            if k <= 1:
                continue
            for combo in itertools.combinations_with_replacement(
                    sorted(members), k):
                s = sum(combo)
                if s <= bound and s not in members:
                    new.add(s)
        if not new:
            return members
        members |= new


@pytest.mark.parametrize("gens", [(), (0, 3), (2,), (0, 1), (3,), (1, 4)])
def test_monoid_contains_matches_oracle(gens):
    bound = 10
    m = monoid(*gens)
    want = _closure_oracle(gens, bound)
    got = {n for n in range(bound + 1) if monoid_contains(m, n)}
    assert got == {n for n in want if n <= bound}


def test_monoid_examples():
    m_empty = monoid()
    assert monoid_contains(m_empty, 1)
    assert not monoid_contains(m_empty, 0)
    assert not monoid_contains(m_empty, 2)
    # once 0 and 3 are members, 2 = 0+1+1 follows, and then everything
    m03 = monoid(0, 3)
    assert all(monoid_contains(m03, n) for n in range(11))
    m2 = monoid(2)
    assert not monoid_contains(m2, 0)
    assert all(monoid_contains(m2, n) for n in range(1, 11))
    assert monoid_contains(m2, 11)


def test_in_family_examples():
    swap = fn((2, 1), 2)
    assert in_family(parse_family("bijections"), swap)
    assert not in_family(parse_family("strict-increasing"), swap)
    assert in_family(parse_family("left-surjections"), fn((1, 1, 2), 2))
    assert not in_family(parse_family("left-surjections"), fn((2, 1, 1), 2))
    assert in_family(parse_family("delta-upper:0,1"), fn((1, 3), 3))
    assert not in_family(parse_family("delta-upper:0,1"), fn((1, 1), 1))


def test_fiber_order_families_read_each_fibers_end():
    """Left-surjections and psi-lower ask that each fiber's least point
    rises with the fiber, right-surjections and psi-upper its greatest;
    checked against the fibers themselves for every map up to [4]."""
    def ends(f, pick):
        fibers = [[i for i in range(1, f.dom + 1) if f(i) == j]
                  for j in range(1, f.cod + 1)]
        points = [pick(fb, default=0) for fb in fibers]
        return all(a <= b for a, b in zip(points, points[1:]))

    for f in all_functions(4):
        onto = all(fiber_sizes(f))
        assert in_family(parse_family("left-surjections"), f) == (
            onto and ends(f, min))
        assert in_family(parse_family("right-surjections"), f) == (
            onto and ends(f, max))
        assert in_family(parse_family("psi-lower:2"), f) == (
            onto and ends(f, min))
        assert in_family(parse_family("psi-upper:2"), f) == (
            onto and ends(f, max))


def test_family_parse_and_invariants():
    with pytest.raises(FinOrdError):
        parse_family("nonsense")
    with pytest.raises(FinOrdError):
        parse_family("psi-lower:0,2")  # 0 in the monoid is not allowed
    with pytest.raises(FinOrdError, match="^psi-lower requires a monoid$"):
        parse_family("psi-lower")
    d = parse_family("psi-lower:2")
    assert in_family(d, fn((1, 1, 2), 2))


def test_member_fibers_lie_in_induced_monoid():
    for token in ("identities", "bijections", "strict-increasing",
                  "injections", "surjections", "left-surjections",
                  "right-surjections", "all"):
        family = parse_family(token)
        members = [f for f in all_functions(4) if in_family(family, f)]
        observed = sorted({s for f in members for s in fiber_sizes(f)})
        induced = StructureMonoid(frozenset(observed))
        for f in members:
            assert all(monoid_contains(induced, s) for s in fiber_sizes(f))


def test_verify_structure_category():
    assert verify_structure_category(parse_family("bijections"), 3).passed
    assert verify_structure_category(parse_family("left-surjections"), 3).passed
    report = verify_structure_category(parse_family("increasing"), 3)
    assert not report.passed
    sim = next(c for c in report.checks if c.name == "similarity")
    assert not sim.ok and "not in family" in sim.detail[-1]
    for check in report.checks:
        if check.name != "similarity":
            assert check.ok
