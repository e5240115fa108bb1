"""The acceptance suite: one check per criterion, shared by pytest and the
command line.  `ALL_CHECKS` is the one table of criteria: entry n is
criterion n, with the name its report line prints.  A check returns only
whether it passed and its detail lines; `run_selftest` builds each
`CheckResult` from the table.  Every check is deterministic and a report
never contains wall-clock output, so two runs (in one process or in two,
under any string hash seed) produce byte-identical text.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .finord import (
    all_functions, compose, coproduct, functions, identity, in_family,
    parse_family, similarity_component, verify_structure_category,
)
from .context import (
    CARTESIAN, INJECTIVE, STRICT_INCREASING, STRUCTURES, ContextStructure,
    Letter, Word, delta_of, embedding, holds, terminal_context,
)
from .syntax import (
    Equation, Theory, parse_equation_text, parse_theory, signature,
)
from .deduction import (
    Bounds, canonical_triple, check_proof, prove, refute_by_invariant,
    saturate,
)
from .setmodel import (
    MultiMap, compose_multi, find_model, iter_models, satisfies, table_from,
    theta_action,
)
from .universal import default_sigma, internalize_term, universal_hom


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{status}] {self.name}"


# What a check returns: whether it passed, and the report lines under it.
Outcome = tuple[bool, list[str]]


MONOID_TEXT = """
theory Monoid
structure cartesian
sort M
op mul : M M -> M
op e : -> M
eq assoc : mul(mul(x,y),z) ~ mul(x,mul(y,z)) ctx [ x:M y:M z:M ]
eq lunit : mul(e,x) ~ x ctx [ x:M ]
eq runit : mul(x,e) ~ x ctx [ x:M ]
"""

EH_TEXT = """
theory EckmannHilton
structure bijective
sort M
op o : M M -> M
op star : M M -> M
op e : -> M
op u : -> M
eq o_lunit : o(e,x) ~ x ctx [ x:M ]
eq o_runit : o(x,e) ~ x ctx [ x:M ]
eq star_lunit : star(u,x) ~ x ctx [ x:M ]
eq star_runit : star(x,u) ~ x ctx [ x:M ]
eq interchange : star(o(a,b),o(c,d)) ~ o(star(a,c),star(b,d)) ctx [ a:M b:M c:M d:M ]
"""

PROJECTION_TEXT = """
theory FirstProjection
structure cartesian
sort A
op f : A A -> A
eq absorb : f(x,y) ~ x ctx [ x:A y:A z:A ]
"""


def monoid_theory() -> Theory:
    return parse_theory(MONOID_TEXT)


def eckmann_hilton_theory() -> Theory:
    return parse_theory(EH_TEXT)


def projection_theory(structure: ContextStructure = CARTESIAN) -> Theory:
    base = parse_theory(PROJECTION_TEXT)
    if structure is CARTESIAN:
        return base
    return Theory(base.name, base.signature, structure, base.equations)


# ---------------------------------------------------------------------------
# structure-category closure suite


def check_structure_categories() -> Outcome:
    details: list[str] = []
    ok = True
    for R in STRUCTURES:
        report = verify_structure_category(R.family, 4)
        if not report.passed:
            ok = False
            details.extend(report.lines())
        else:
            details.append(f"{R.family}: pass ({report.member_count} members)")
    inc = verify_structure_category(parse_family("increasing"), 3)
    sim = next(c for c in inc.checks if c.name == "similarity")
    if inc.passed or sim.ok:
        ok = False
        details.append("increasing: expected a similarity failure, got pass")
    else:
        details.append("increasing: fails similarity as required")
        details.extend("  " + line for line in sim.detail)
    return ok, details


# ---------------------------------------------------------------------------
# the correspondence between relations and function families


def check_family_correspondence() -> Outcome:
    checked = 0
    for theta in all_functions(4):
        for R in STRUCTURES:
            if delta_of(R, theta) != in_family(R.family, theta):
                return False, [f"mismatch at {R.kind} for theta = "
                               f"{theta}"]
            checked += 1
    return True, [f"{checked} structure/function pairs agree"]


# ---------------------------------------------------------------------------
# the four context-structure conditions


def _letters(n: int) -> tuple[Letter, ...]:
    return tuple(Letter("s", c) for c in "xyz"[:n])


def _all_words(letters: Sequence[Letter], max_len: int) -> list[Word]:
    out: list[Word] = []
    for k in range(max_len + 1):
        out.extend(itertools.product(letters, repeat=k))
    return out


def _all_contexts(letters: Sequence[Letter], max_len: int) -> list[Word]:
    out: list[Word] = []
    for k in range(min(len(letters), max_len) + 1):
        out.extend(itertools.permutations(letters, k))
    return out


def check_context_conditions() -> Outcome:
    letters = _letters(3)
    words4 = _all_words(letters, 4)
    ctxs = _all_contexts(letters, 4)
    small_ctxs = [c for c in ctxs if len(c) <= 2]
    small_words = _all_words(letters[:2], 2)
    details = []
    for R in STRUCTURES:
        for c in ctxs:
            if not holds(R, c, c):
                return False, [f"{R}: reflexivity fails at {c}"]
        for c in ctxs:
            for v in words4:
                if holds(R, c, v) and not set(v) <= set(c):
                    return False, [f"{R}: coverage fails at c={c} v={v}"]
        for c in ctxs:
            for v1 in small_ctxs:
                for v2 in small_ctxs:
                    if not holds(R, c, v1 + v2):
                        continue
                    for w1 in small_words:
                        if not holds(R, v1, w1):
                            continue
                        for w2 in small_words:
                            if holds(R, v2, w2) and not holds(R, c, w1 + w2):
                                return False, [
                                    f"{R}: vertical composition fails at "
                                    f"c={c} v=({v1},{v2}) w=({w1},{w2})"]
        for c in small_ctxs:
            if not c:
                continue
            for images in itertools.product(small_words, repeat=len(c)):
                s = dict(zip(c, images))
                sc = tuple(x for y in c for x in s[y])
                for d in ctxs:
                    if not holds(R, d, sc):
                        continue
                    for v in _all_words(c, 3):
                        if not holds(R, c, v):
                            continue
                        sv = tuple(x for y in v for x in s[y])
                        if not holds(R, d, sv):
                            return False, [f"{R}: renaming stability fails "
                                           f"at c={c} v={v} d={d}"]
        details.append(f"{R.kind}: conditions 1-4 hold")
    return True, details


# ---------------------------------------------------------------------------
# terminal contexts


def check_terminal_contexts() -> Outcome:
    letters = _letters(3)
    words = _all_words(letters, 4)
    ctxs = _all_contexts(letters, 4)
    count = 0
    for R in STRUCTURES:
        for v in words:
            c = terminal_context(R, v)
            if c is None:
                for w in ctxs:
                    if holds(R, w, v):
                        return False, [f"{R}: no terminal context for "
                                       f"governed word {v}"]
                continue
            count += 1
            for w in ctxs:
                if holds(R, w, c) != holds(R, w, v):
                    return False, [f"{R}: terminal context {c} of {v} "
                                   f"fails at w={w}"]
    return True, [f"{count} word/structure pairs verified"]


# ---------------------------------------------------------------------------
# the action axioms and canonical-morphism identities in finite sets


def _table_family(doms: tuple[int, ...], cod: int) -> list[MultiMap]:
    """A small deterministic mix of tables for one shape."""
    out = []
    if cod > 0:
        out.append(table_from(doms, cod, lambda *xs: sum(xs) % cod))
        out.append(table_from(doms, cod,
                              lambda *xs: (sum((i + 1) * x for i, x in
                                           enumerate(xs)) + 1) % cod))
        for i in range(len(doms)):
            if doms[i] <= cod:
                out.append(table_from(doms, cod, lambda *xs, i=i: xs[i] % cod))
    return out


def check_action_axioms() -> Outcome:
    sizes = (1, 2, 3)
    fails: list[str] = []

    # axiom 1: the identity reindexing changes nothing
    for n in range(4):
        for target in itertools.product(sizes, repeat=n):
            for f in _table_family(tuple(target), 2):
                if theta_action(f, identity(n), target) != f:
                    fails.append(f"axiom 1 fails at target {target}")

    # axiom 2: reindexing along a composite equals composed reindexings
    for k in range(3):
        for m in range(3):
            for n in range(3):
                for sigma in functions(k, m):
                    for tau_fn in functions(m, n):
                        for target in itertools.product((1, 2), repeat=n):
                            mid = tau_fn.pull(target)
                            for f in _table_family(sigma.pull(mid), 2):
                                lhs = theta_action(
                                    f, compose(tau_fn, sigma), target)
                                rhs = theta_action(
                                    theta_action(f, sigma, mid), tau_fn, target)
                                if lhs != rhs:
                                    fails.append(
                                        f"axiom 2 fails at sigma={sigma} "
                                        f"tau={tau_fn} target={target}")

    # axiom 3: g . (reindexed f_i) = coproduct-reindexed (g . f)
    for n in (1, 2):
        for sigmas in itertools.product(
                [f for m in range(3) for c in range(1, 3)
                 for f in functions(m, c)],
                repeat=n):
            targets = [tuple((1, 2)[(i + j) % 2] for j in range(s.cod))
                       for i, s in enumerate(sigmas)]
            for carriers in itertools.product((1, 2), repeat=n):
                fs = [_table_family(s.pull(a_i), c)[0]
                      for s, a_i, c in zip(sigmas, targets, carriers)]
                for g in _table_family(carriers, 2)[:2]:
                    lhs = compose_multi(
                        g, [theta_action(f, s, t)
                            for f, s, t in zip(fs, sigmas, targets)])
                    total = coproduct(list(sigmas))
                    rhs = theta_action(
                        compose_multi(g, fs), total,
                        tuple(x for t in targets for x in t))
                    if lhs != rhs:
                        fails.append(f"axiom 3 fails at sigmas={sigmas}")

    # axiom 4: reindexed head composed equals similarity-reindexed composite
    for m in range(3):
        for n in range(1, 3):
            for tau_fn in functions(m, n):
                for ks in itertools.product((1, 2), repeat=n):
                    a_words = [tuple((1, 2)[(i + j) % 2] for j in range(k))
                               for i, k in enumerate(ks)]
                    carriers = tuple((2, 1)[i % 2] for i in range(n))
                    fs = [_table_family(a, c)[0]
                          for a, c in zip(a_words, carriers)]
                    for g in _table_family(tau_fn.pull(carriers), 2)[:2]:
                        lhs = compose_multi(
                            theta_action(g, tau_fn, carriers), fs)
                        sim = similarity_component(tau_fn, ks)
                        inner = compose_multi(g, tau_fn.pull(fs))
                        rhs = theta_action(
                            inner, sim, tuple(x for a in a_words for x in a))
                        if lhs != rhs:
                            fails.append(f"axiom 4 fails at tau={tau_fn} ks={ks}")

    fails.extend(_canonical_morphism_fails())
    return not fails, fails[:8] or [
        "action axioms 1-4 and canonical-morphism identities 1-4 hold"]


def _canonical_morphism_fails() -> list[str]:
    """The four canonical-morphism identities, phrased over concrete contexts
    with carriers of size <= 2."""
    fails: list[str] = []
    R = CARTESIAN
    letters = _letters(3)
    carrier = {x: (i % 2) + 1 for i, x in enumerate(letters)}
    ctxs = [c for c in _all_contexts(letters, 3) if c]

    def act(f: MultiMap, v: Word, w: Word) -> MultiMap:
        return theta_action(f, embedding(v, w), tuple(carrier[x] for x in v))

    for v in ctxs:
        doms = tuple(carrier[x] for x in v)
        for f in _table_family(doms, 2)[:2]:
            if act(f, v, v) != f:  # identity 1
                fails.append(f"canonical morphism 1 fails at v={v}")
    for c in ctxs:
        for v in _all_words(c, 2):
            if not holds(R, c, v) or len(set(v)) != len(v):
                continue
            for w in _all_words(v, 2):
                if not holds(R, v, w):
                    continue
                doms = tuple(carrier[x] for x in w)
                for f in _table_family(doms, 2)[:1]:
                    lhs = act(act(f, v, w), c, v)  # identity 2
                    rhs = act(f, c, w)
                    if lhs != rhs:
                        fails.append(
                            f"canonical morphism 2 fails at c={c} v={v} w={w}")
    # identities 3 and 4 are the table forms of action axioms 3 and 4,
    # re-checked here through context embeddings on one concrete shape
    x, y = letters[:2]
    c = (x, y)
    v1, w1 = (x,), (x, x)
    v2, w2 = (y,), ()
    f1 = _table_family((carrier[x], carrier[x]), carrier[x])[0]
    f2 = _table_family((), carrier[y])[0]
    g = _table_family((carrier[x], carrier[y]), 2)[0]
    lhs = act(compose_multi(g, [act(f1, v1, w1), act(f2, v2, w2)]),
              c, v1 + v2)
    rhs = act(compose_multi(g, [f1, f2]), c, w1 + w2)
    if lhs != rhs:
        fails.append("canonical morphism 3 fails on the concrete shape")
    v = (x, y)
    w = (y, x, y)
    g2 = _table_family(tuple(carrier[q] for q in w), 2)[0]
    f_x = _table_family((carrier[x],), carrier[x])[0]
    f_y = _table_family((carrier[y], carrier[x]), carrier[y])[0]
    per_letter = {x: ((x,), f_x), y: ((y, x), f_y)}
    lhs = act(compose_multi(act(g2, v, w), [f_x, f_y]), (x, y),
              per_letter[x][0] + per_letter[y][0])
    rhs = act(compose_multi(g2, [per_letter[q][1] for q in w]), (x, y),
              tuple(t for q in w for t in per_letter[q][0]))
    if lhs != rhs:
        fails.append("canonical morphism 4 fails on the concrete shape")
    return fails


# ---------------------------------------------------------------------------
# soundness of saturation against enumerated models


def check_soundness() -> Outcome:
    details = []
    for theory in (monoid_theory(), eckmann_hilton_theory()):
        sat = saturate(theory, Bounds(3, 4, 5))
        models = list(itertools.islice(iter_models(theory, 3), 3))
        if len(models) < 3:
            return False, [f"{theory.name}: fewer than 3 models found"]
        fails = [f"{theory.name}: {eq} fails in a model" for eq in sat.equations
                 for m in models if not satisfies(m, eq)]
        if fails:
            return False, details + fails[:3]
        details.append(
            f"{theory.name}: {len(sat.equations)} derived equations hold in "
            f"{len(models)} models")
    return True, details


# ---------------------------------------------------------------------------
# the two-operation commutativity derivation


def check_eh_derivation() -> Outcome:
    EH = eckmann_hilton_theory()
    bounds = Bounds(6, 4, 8)
    details = []
    for text in ("o(x,y) ~ o(y,x) ctx [ x:M y:M ]",
                 "o(x,y) ~ star(x,y) ctx [ x:M y:M ]"):
        goal = parse_equation_text(EH.signature, text, structure=EH.structure)
        res = prove(EH, goal, bounds)
        if not res.proved:
            return False, [f"not derived: {text}"]
        concluded = check_proof(EH, res.proof)
        if (concluded.lhs, concluded.rhs, concluded.ctx) != (
                goal.lhs, goal.rhs, goal.ctx):
            return False, [f"replay mismatch for {text}"]
        details.append(f"derived and replayed: {text}")
    return True, details


# ---------------------------------------------------------------------------
# the padded-context counterexample


def check_counterexample() -> Outcome:
    details = []
    cart = projection_theory(CARTESIAN)
    goal = parse_equation_text(cart.signature,
                               "f(x,y) ~ x ctx [ x:A y:A ]",
                               structure=CARTESIAN)
    if not prove(cart, goal, Bounds(2, 3, 4)).proved:
        return False, ["cartesian derivation failed at depth 2"]
    details.append("cartesian: f(x,y) ~ x derived at depth 2")
    want = canonical_triple(goal.ctx, goal.lhs, goal.rhs)
    for structure in (INJECTIVE, STRICT_INCREASING):
        theory = projection_theory(structure)
        if not refute_by_invariant(theory, goal):
            return False, [f"{structure.kind}: invariant did not refute"]
        for depth in range(1, 5):
            sat = saturate(theory, Bounds(depth, 3, 4))
            if any(canonical_triple(e.ctx, e.lhs, e.rhs) == want
                   for e in sat.equations):
                return False, [f"{structure.kind}: goal appeared at depth "
                               f"{depth}"]
        details.append(f"{structure.kind}: refuted, never derived to depth 4")
    return True, details


# ---------------------------------------------------------------------------
# countermodel search agrees with non-derivability


def check_set_completeness() -> Outcome:
    sig = signature(["A"], {"f": (("A", "A"), "A")})
    E = Theory("Free", sig, CARTESIAN, ())
    goal = parse_equation_text(sig, "f(x,y) ~ f(y,x) ctx [ x:A y:A ]",
                               structure=CARTESIAN)
    witness = find_model(E, 2, avoid=goal)
    if witness is None:
        return False, ["no countermodel found at size 2"]
    if prove(E, goal, Bounds(3, 3, 4)).proved:
        return False, ["commutativity derived from nothing"]
    return True, [f"countermodel table {witness.op_tables['f'].table}; "
                  f"derivation fails at depth 3"]


# ---------------------------------------------------------------------------
# bounded initial-model agreement on the fixed goal list


GOAL_LIST: tuple[tuple[str, str, bool], ...] = (
    ("monoid", "mul(e,e) ~ e ctx [ ]", True),
    ("monoid", "mul(x,e) ~ x ctx [ x:M ]", True),
    ("monoid", "mul(x,y) ~ mul(y,x) ctx [ x:M y:M ]", False),
    ("eh", "o(x,e) ~ x ctx [ x:M ]", True),
    ("eh", "star(o(a,b),o(c,d)) ~ o(star(a,c),star(b,d)) "
           "ctx [ a:M b:M c:M d:M ]", True),
    ("projection", "f(x,y) ~ x ctx [ x:A y:A ]", True),
)


def check_universal_agreement() -> Outcome:
    theories = {
        "monoid": monoid_theory(),
        "eh": eckmann_hilton_theory(),
        "projection": projection_theory(CARTESIAN),
    }
    hom_for = {"monoid": (("M", "M"), "M"), "eh": (("M", "M"), "M"),
               "projection": (("A", "A"), "A")}
    bounds = Bounds(3, 4, 8)
    details = []
    goals_by_theory: dict[str, list[tuple[Equation, bool, str]]] = {}
    for key, text, expect in GOAL_LIST:
        theory = theories[key]
        goal = parse_equation_text(theory.signature, text,
                                   structure=theory.structure)
        goals_by_theory.setdefault(key, []).append((goal, expect, text))

    for key, goals in goals_by_theory.items():
        theory = theories[key]
        sigma = default_sigma(theory, hom_for[key])
        sides = [(internalize_term(sigma, goal.ctx, goal.lhs),
                  internalize_term(sigma, goal.ctx, goal.rhs))
                 for goal, _, _ in goals]
        part = universal_hom(theory, hom_for[key], Bounds(3, 3, 8),
                             extra_terms=[t for pair in sides for t in pair],
                             sigma=sigma)
        for (goal, expect, text), (lhs, rhs) in zip(goals, sides):
            proved = prove(theory, goal, bounds).proved
            merged = part.merged(lhs, rhs)
            if proved != merged or proved != expect:
                return False, [f"{key}: {text}: proved={proved} "
                               f"merged={merged} expected={expect}"]
            details.append(f"{key}: {text}: proved = merged = {proved}")
    return True, details


# ---------------------------------------------------------------------------
# runner


ALL_CHECKS: tuple[tuple[str, Callable[[], Outcome]], ...] = (
    ("structure-category closure at max_n=4", check_structure_categories),
    ("relation/family correspondence on [m],[n] <= 4",
     check_family_correspondence),
    ("context-structure conditions on 3 letters", check_context_conditions),
    ("terminal contexts govern exactly the governed", check_terminal_contexts),
    ("finite-set action axioms and canonical morphisms", check_action_axioms),
    ("soundness against found models", check_soundness),
    ("two-unital-ops commutativity at depth 6", check_eh_derivation),
    ("padded-context counterexample", check_counterexample),
    ("countermodel vs derivability agree", check_set_completeness),
    ("initial-model agreement on 6 goals", check_universal_agreement),
)


def run_selftest(only: Optional[Sequence[int]] = None) -> list[CheckResult]:
    return [CheckResult(number, name, *check())
            for number, (name, check) in enumerate(ALL_CHECKS, start=1)
            if only is None or number in only]


def render_report(results: Sequence[CheckResult]) -> str:
    lines = []
    for r in results:
        lines.append(r.line())
        lines.extend("    " + d for d in r.details)
    status = "all checks passed" if all(r.passed for r in results) \
        else "FAILURES PRESENT"
    lines.append(status)
    return "\n".join(lines) + "\n"
