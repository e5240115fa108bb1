"""Command-line surface: exit codes, output formats, parse failures."""

import hashlib
import json
import re
import shlex
import subprocess
import sys

import pytest

from conftest import REPO, child_env
from ualg import universal
from ualg.deduction import Bounds
from ualg.syntax import parse_theory, term_str

MONOID = str(REPO / "theories" / "monoid.ua")
PROJ_INJ = str(REPO / "theories" / "first_projection_injective.ua")
PROJ = str(REPO / "theories" / "first_projection.ua")


def ualg(*args, env=None):
    """Run `python -m ualg` on this checkout, from its root; `env` adds or
    overrides environment variables."""
    return subprocess.run([sys.executable, "-m", "ualg", *args],
                          capture_output=True, text=True, cwd=REPO,
                          env=child_env(**(env or {})))


def readme_commands():
    """(argv after `ualg`, comment) for each command in README's
    `## Command line` block, continuation lines joined."""
    readme = (REPO / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S)
    commands: list[tuple[str, str]] = []
    continued = False
    for line in block.group(1).splitlines():
        code, _, comment = line.partition("#")
        code = code.strip()
        if continued or not code:  # a continuation or a comment-only line
            commands[-1] = (commands[-1][0] + " " + code,
                            commands[-1][1] + comment)
        else:
            commands.append((code, comment))
        continued = code.endswith("\\")
        if continued:
            commands[-1] = (commands[-1][0][:-1], commands[-1][1])
    return [(shlex.split(code)[1:], comment) for code, comment in commands]


def test_readme_commands_run():
    """Every README command but `selftest` runs without a traceback and
    exits 0, except the `increasing` check (2) and the refuted goal (1)."""
    commands = [(argv, comment) for argv, comment in readme_commands()
                if argv[0] != "selftest"]
    assert len(commands) == 8
    for argv, comment in commands:
        if "exits 2" in comment:
            want = 2
        elif "refuted-by-invariant" in comment:
            want = 1
        else:
            want = 0
        p = ualg(*argv)
        assert p.returncode == want, (argv, p.stdout, p.stderr)
        assert "Traceback" not in p.stdout + p.stderr, argv


def test_delta_check_pass():
    p = ualg("delta", "check", "--family", "bijections", "--max", "4")
    assert p.returncode == 0
    assert "pass" in p.stdout


def test_delta_check_failure_exit_code():
    p = ualg("delta", "check", "--family", "increasing", "--max", "3")
    assert p.returncode == 2
    assert "similarity: FAIL" in p.stdout
    assert "component" in p.stdout


def test_delta_check_identities():
    p = ualg("delta", "check", "--family", "identities", "--max", "5")
    assert p.returncode == 0


def test_delta_check_json_lines():
    p = ualg("--format", "json-lines", "delta", "check",
             "--family", "bijections", "--max", "3")
    assert p.returncode == 0
    records = [json.loads(line) for line in p.stdout.splitlines()]
    assert {r["check"] for r in records} == {
        "identities", "composition", "coproduct", "similarity"}
    assert all(r["ok"] for r in records)


def test_ctx_rel():
    p = ualg("ctx", "rel", "--structure", "cartesian", "x y z", "y x y x x")
    assert p.returncode == 0 and p.stdout.strip() == "true"
    p = ualg("ctx", "rel", "--structure", "bijective", "x y z", "y z x")
    assert p.returncode == 0 and p.stdout.strip() == "true"
    p = ualg("ctx", "rel", "--structure", "trivial", "x y", "y x")
    assert p.returncode == 0 and p.stdout.strip() == "false"


def test_ctx_terminal():
    p = ualg("ctx", "terminal", "--structure", "left-surjective", "x y x")
    assert p.returncode == 0 and p.stdout.strip() == "x y"
    p = ualg("ctx", "terminal", "--structure", "injective", "x x")
    assert p.returncode == 1 and p.stdout.strip() == "none"


def test_prove_success_and_trace():
    p = ualg("prove", MONOID, "--goal",
             "mul(e,mul(x,y)) ~ mul(x,y) ctx [ x:M y:M ]",
             "--depth", "3", "--ctx", "3", "--rounds", "5")
    assert p.returncode == 0
    assert p.stdout.splitlines()[0] == "proved"
    assert "axiom lunit" in p.stdout


def test_prove_trace_is_stable():
    args = ("prove", MONOID, "--goal",
            "mul(e,mul(x,y)) ~ mul(x,y) ctx [ x:M y:M ]",
            "--depth", "3", "--ctx", "3", "--rounds", "5")
    assert ualg(*args).stdout == ualg(*args).stdout


README_PROVE = """\
proved
subst w=[x:M y:M] s1={_v1->x, _v2->y} s2={_v1->x, _v2->y}
  subst w=[_v1:M _v2:M] s1={_v1->mul(_v1, _v2)} s2={_v1->mul(_v1, _v2)}
    subst w=[_v1:M] s1={x->_v1} s2={x->_v1}
      axiom lunit: mul(e, x) ~ x ctx [x:M]
      refl _v1 ctx [_v1:M]
    refl mul(_v1, _v2) ctx [_v1:M _v2:M]
  refl x ctx [x:M]
  refl y ctx [y:M]
"""


def test_prove_readme_output():
    """The README's prove command, its proof tree pinned line by line."""
    p = ualg("prove", MONOID, "--goal",
             "mul(e,mul(x,y)) ~ mul(x,y) ctx [ x:M y:M ]", "--depth", "3")
    assert p.returncode == 0
    assert p.stdout == README_PROVE


def test_prove_refuted_by_invariant():
    p = ualg("prove", PROJ_INJ, "--goal", "f(x,y) ~ x ctx [ x:A y:A ]",
             "--depth", "3")
    assert p.returncode == 1
    assert p.stdout.strip() == "refuted-by-invariant"


def test_prove_inconclusive():
    p = ualg("prove", MONOID, "--goal",
             "mul(x,y) ~ mul(y,x) ctx [ x:M y:M ]", "--depth", "3")
    assert p.returncode == 1
    assert p.stdout == (
        "inconclusive (truncated: depth,instantiation,weakening)\n")


def test_countermodel_found_and_none():
    p = ualg("countermodel", PROJ, "--goal",
             "f(x,y) ~ f(y,x) ctx [ x:A y:A ]", "--max-size", "2")
    assert p.returncode == 0
    assert "carrier A = 2" in p.stdout
    assert "table f :" in p.stdout
    p = ualg("countermodel", MONOID, "--goal",
             "mul(x,y) ~ mul(y,x) ctx [ x:M y:M ]", "--max-size", "2")
    assert p.returncode == 1 and p.stdout.strip() == "none"


def test_universal_classes():
    p = ualg("universal", PROJ_INJ, "--hom", "A A -> A", "--depth", "2")
    assert p.returncode == 0
    head = p.stdout.splitlines()[0]
    count = int(head.split()[0])
    assert count >= 2


MONOID_HOM_D2 = """\
7 classes
class 0 (6 terms): op:mul
class 1 (1 terms): act[](op:e)
class 2 (1 terms): act[1,1](op:mul)
class 3 (1 terms): act[1](id[M])
class 4 (1 terms): act[2,1](op:mul)
class 5 (1 terms): act[2,2](op:mul)
class 6 (1 terms): act[2](id[M])
truncated: depth,instantiation
"""


def test_universal_monoid_rendering():
    """The README's universal command, text and json-lines, pinned."""
    args = ("universal", MONOID, "--hom", "M M -> M", "--depth", "2")
    p = ualg(*args)
    assert p.returncode == 0
    assert p.stdout == MONOID_HOM_D2
    p = ualg("--format", "json-lines", *args)
    assert p.returncode == 0
    *classes, last = [json.loads(line) for line in p.stdout.splitlines()]
    assert [r["representative"] for r in classes] == [
        "op:mul", "act[](op:e)", "act[1,1](op:mul)", "act[1](id[M])",
        "act[2,1](op:mul)", "act[2,2](op:mul)", "act[2](id[M])"]
    assert [r["size"] for r in classes] == [6, 1, 1, 1, 1, 1, 1]
    assert last == {"truncated_by": ["depth", "instantiation"]}


EH_HOM_D2 = """\
12 classes
class 0 (8 terms): op:o
class 1 (8 terms): op:star
class 2 (1 terms): act[2,1](op:o)
class 3 (1 terms): act[2,1](op:star)
class 4 (1 terms): comp(op:o, op:o, op:u)
class 5 (1 terms): comp(op:o, op:star, op:u)
class 6 (1 terms): comp(op:star, op:o, op:e)
class 7 (1 terms): comp(op:star, op:star, op:e)
class 8 (1 terms): comp(op:o, op:u, op:o)
class 9 (1 terms): comp(op:o, op:u, op:star)
class 10 (1 terms): comp(op:star, op:e, op:o)
class 11 (1 terms): comp(op:star, op:e, op:star)
truncated: instantiation
"""


def test_universal_eh_is_hash_seed_independent():
    """The Eckmann-Hilton quotient prints the same classes whatever the
    string hash seed: no set or dict order leaks into the sweep."""
    for seed in ("0", "12345"):
        p = ualg("universal", str(REPO / "theories" / "eckmann_hilton.ua"),
                 "--hom", "M M -> M", "--depth", "2",
                 env={"PYTHONHASHSEED": seed})
        assert p.returncode == 0, seed
        assert p.stdout == EH_HOM_D2, seed


@pytest.mark.parametrize("family, members", [
    ("delta-upper:0,1", 24), ("psi-upper:2,3", 9)])
def test_delta_check_monoid_family(family, members):
    """A monoid family prints with its generators and passes every
    closure check."""
    p = ualg("delta", "check", "--family", family, "--max", "3")
    assert p.returncode == 0, p.stderr
    assert p.stdout.splitlines() == [
        f"family {family} max 3: pass",
        f"  members (dom,cod <= 3): {members}",
        "  identities: ok", "  composition: ok", "  coproduct: ok",
        "  similarity: ok"]


@pytest.mark.parametrize("family, max_n, message", [
    ("bogus", "3", "unknown family token 'bogus'"),
    ("delta-upper:x", "3", "bad generator list in 'delta-upper:x'"),
    ("psi-upper:0", "3", "psi-upper requires 0 outside the monoid"),
    ("psi-lower", "3", "psi-lower requires a monoid"),
    ("bijections", "0", "max_n must be >= 1"),
])
def test_delta_check_rejections_exit_code(family, max_n, message):
    p = ualg("delta", "check", "--family", family, "--max", max_n)
    assert p.returncode == 3
    assert p.stdout == ""
    assert p.stderr == f"error: {message}\n"


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ua"
    bad.write_text("theory X\nstructure nonsense\n")
    p = ualg("prove", str(bad), "--goal", "x ~ x ctx [ x:M ]")
    assert p.returncode == 3
    assert "error:" in p.stderr
    p = ualg("prove", str(tmp_path / "missing.ua"), "--goal", "x ~ x ctx []")
    assert p.returncode == 3
    bad.write_text("theory X\nstructure cartesian\nsort M\naxiom a : M\n")
    p = ualg("prove", str(bad), "--goal", "x ~ x ctx [ x:M ]")
    assert p.returncode == 3
    assert p.stderr == "error: line 4, col 0: unknown directive 'axiom'\n"


def test_duplicate_equation_name_exit_code(tmp_path):
    bad = tmp_path / "dup.ua"
    bad.write_text("theory Dup\nstructure cartesian\nsort M\nop e : -> M\n"
                   "eq a : e ~ e ctx [ ]\neq a : x ~ x ctx [ x:M ]\n")
    p = ualg("prove", str(bad), "--goal", "x ~ x ctx [ x:M ]")
    assert p.returncode == 3
    assert p.stderr == "error: line 6, col 0: duplicate equation name 'a'\n"


def test_deep_goal_gets_a_verdict():
    """A goal nested 900 deep, which the parser accepts at the default
    recursion limit, is canonicalized on an explicit stack: a verdict, not
    a RecursionError."""
    lhs = "x"
    for _ in range(900):
        lhs = f"f({lhs},y)"
    p = ualg("prove", PROJ, "--goal", f"{lhs} ~ x ctx [ x:A y:A ]")
    assert p.returncode == 1
    assert p.stdout.startswith("inconclusive (")
    assert "Traceback" not in p.stderr


def _deep_goal_lhs(depth: int) -> str:
    lhs = "x"
    for _ in range(depth):
        lhs = f"f({lhs},y)"
    return lhs


def test_goal_past_the_recursion_limit_gets_a_verdict():
    """The parser and the saturator's term registration run on explicit
    stacks, so a goal nested 2000 deep, past the default recursion limit,
    gets a verdict, not a RecursionError."""
    p = ualg("prove", PROJ, "--goal",
             f"{_deep_goal_lhs(2000)} ~ x ctx [ x:A y:A ]")
    assert p.returncode == 1
    assert p.stdout.startswith("inconclusive (")
    assert "Traceback" not in p.stderr


def test_deep_malformed_goal_is_a_parse_error():
    """A malformed goal past the recursion limit is a ParseError at its
    column (exit 3), whether the deep side parses or not."""
    lhs = _deep_goal_lhs(2000)
    for goal, col in ((f"{lhs} ~ f(x ctx [ x:A y:A ]", 10007),
                      (f"{lhs[:-1]} ~ x ctx [ x:A y:A ]", 10001)):
        p = ualg("prove", PROJ, "--goal", goal)
        assert p.returncode == 3
        assert p.stdout == ""
        assert p.stderr == f"error: line 1, col {col}: unexpected end of term\n"


def test_non_identifier_sort_exit_code(tmp_path):
    bad = tmp_path / "arrow.ua"
    bad.write_text("theory Arrow\nstructure cartesian\nsort A=>B\n"
                   "op m : A=>B A=>B -> A=>B\n"
                   "eq idem : m(x,x) ~ x ctx [ x:A=>B ]\n")
    p = ualg("universal", str(bad), "--hom", "A=>B A=>B -> A=>B",
             "--depth", "2")
    assert p.returncode == 3
    assert "not an identifier" in p.stderr


def test_non_identifier_op_exit_code(tmp_path):
    bad = tmp_path / "paren.ua"
    bad.write_text("theory Paren\nstructure cartesian\nsort M\n"
                   "op m(x : M M -> M\n")
    p = ualg("prove", str(bad), "--goal", "x ~ x ctx [ x:M ]")
    assert p.returncode == 3
    assert "not an identifier" in p.stderr


def test_bad_context_letter_exit_code():
    for ctx in ("[ e:M x:M ]", "[ x:M y:M z],:M ]"):
        p = ualg("prove", MONOID, "--goal", f"mul(e,x) ~ x ctx {ctx}")
        assert p.returncode == 3
        assert "context letter" in p.stderr


def test_package_runs_as_a_module():
    p = ualg("selftest", "--only", "2")
    assert p.returncode == 0
    assert "criterion  2 [pass]" in p.stdout


def test_bad_goal_exit_code():
    p = ualg("prove", MONOID, "--goal", "mul(x) ~ x ctx [ x:M ]")
    assert p.returncode == 3


def test_selftest_subset():
    p = ualg("selftest", "--only", "2,4")
    assert p.returncode == 0
    assert "criterion  2 [pass]" in p.stdout
    assert "criterion  4 [pass]" in p.stdout
    assert "all checks passed" in p.stdout


def test_selftest_only_rejects_bad_criteria():
    """A criterion number that is not an integer or not in 1-10 is a usage
    error (exit 3, message on stderr), not a traceback or an empty pass."""
    for fmt in ((), ("--format", "json-lines")):
        for only in ("x", ",", "99", "0", "2,11"):
            p = ualg(*fmt, "selftest", "--only", only)
            assert p.returncode == 3, (fmt, only)
            assert p.stdout == ""
            assert "--only" in p.stderr and "Traceback" not in p.stderr


def test_dropped_options_are_usage_errors():
    """`countermodel --workers`, `selftest --workers` and `universal --ctx`
    changed nothing and are gone: each is now a usage error that names the
    option and prints nothing.  UALG_WORKERS, which nothing reads, still
    changes nothing."""
    subset = ("selftest", "--only", "2,4,8,9")
    plain = ualg(*subset)
    assert plain.returncode == 0
    assert "all checks passed" in plain.stdout
    p = ualg(*subset, env={"UALG_WORKERS": "4"})
    assert p.returncode == 0
    assert p.stdout == plain.stdout
    goal = ("countermodel", PROJ, "--goal", "f(x,y) ~ f(y,x) ctx [ x:A y:A ]")
    hom = ("universal", MONOID, "--hom", "M M -> M", "--depth", "2")
    for args, option, value in ((goal, "--workers", "4"),
                                (subset, "--workers", "4"),
                                (hom, "--ctx", "3")):
        p = ualg(*args, option, value)
        assert p.returncode == 3, args
        assert p.stdout == "" and option in p.stderr, args


def test_universal_accepts_a_non_linear_theory(tmp_path):
    """An axiom that composes at a word longer than every op arity and
    axiom context, (x)+(x,y) in mul(x,mul(x,y)), is in bounds."""
    src = tmp_path / "nonlinear.ua"
    src.write_text("theory NonLinear\nstructure cartesian\nsort M\n"
                   "op mul : M M -> M\n"
                   "eq k : mul(x,mul(x,y)) ~ mul(x,y) ctx [ x:M y:M ]\n")
    p = ualg("universal", str(src), "--hom", "M M -> M", "--depth", "2",
             "--rounds", "2")
    assert p.returncode == 0, p.stderr
    assert "classes" in p.stdout


# A two-sort theory whose quotient numbers 337,818 categorization instances
# and keeps 1,660, and the same with a third sort, where it numbers
# 10,939,731 and keeps 4,572.
TWO_SORT_THEORY = ("theory T\nstructure cartesian\nsort A\nsort B\n"
                   "op f0 : B -> A\n"
                   "eq e0 : z ~ x ctx [ x:B y:A z:B ]\n")
THREE_SORT_THEORY = TWO_SORT_THEORY.replace(
    "sort B\n", "sort B\nsort C\n").replace(
    "op f0 : B -> A\n", "op f0 : B -> A\nop g : C -> C\n")
FLAGS = "truncated: depth,instantiation,rounds\n"


@pytest.mark.parametrize("text, hom, stdout", [
    (TWO_SORT_THEORY, "A -> A", "1 classes\nclass 0 (3 terms): id[A]\n"),
    (TWO_SORT_THEORY, "B -> B", "1 classes\nclass 0 (3 terms): id[B]\n"),
    (TWO_SORT_THEORY, "B B -> A", "2 classes\n"
     "class 0 (1 terms): act[1](op:f0)\nclass 1 (1 terms): act[2](op:f0)\n"),
    (THREE_SORT_THEORY, "A -> A", "1 classes\nclass 0 (3 terms): id[A]\n"),
])
def test_universal_on_several_sorts(tmp_path, text, hom, stdout):
    """The quotients of a two- and a three-sort theory, byte for byte."""
    src = tmp_path / "T.ua"
    src.write_text(text)
    p = ualg("universal", str(src), "--hom", hom, "--depth", "2",
             "--rounds", "2")
    assert (p.returncode, p.stdout, p.stderr) == (0, stdout + FLAGS, "")


def test_three_sort_quotient_builds_few_letters(monkeypatch):
    """The three-sort quotient keeps the categorization instances the full
    walk filtered by round-1 targets keeps (a sha256 over their names,
    sides and contexts), and builds letters for under 1% of the 10,939,731
    instances it numbers: work bounded by a count, not a clock."""
    built, kept = [], []
    hvar, walk = universal._hvar, universal._categorization
    monkeypatch.setattr(universal, "_hvar", lambda sort, name: (
        built.append(sort), hvar(sort, name))[1])
    monkeypatch.setattr(universal, "_categorization", lambda S, test: (
        kept.extend(walk(S, test)), kept)[1])
    part = universal.universal_hom(parse_theory(THREE_SORT_THEORY),
                                   (("A",), "A"), Bounds(2, 1, 2))
    assert len(part.classes) == 1
    S = part.sigma
    numbered = sum(universal._instances(schema, S.base.sorts, {}, ())
                   for schema in universal._schemas(S))
    assert numbered == 10_939_731
    assert len(built) < numbered // 100
    h = hashlib.sha256()
    for eq in kept:
        ctx = " ".join(f"{x.name}:{x.sort}" for x in eq.ctx)
        h.update(f"{eq.name}: {term_str(eq.lhs)} ~ {term_str(eq.rhs)} "
                 f"ctx [{ctx}]\n".encode())
    assert (len(kept), h.hexdigest()) == (4572, (
        "7602f82e767f36f3420b1b0a17d9bac706988dae2978413115ac4f32c0482d0c"))


def _records(p):
    return [json.loads(line) for line in p.stdout.splitlines()]


def test_prove_json_lines():
    """One record per goal: proved, or unproved with the text status, and
    with the truncation flags as a list exactly when it is inconclusive."""
    goal = "mul(e,mul(x,y)) ~ mul(x,y) ctx [ x:M y:M ]"
    p = ualg("--format", "json-lines", "prove", MONOID, "--goal", goal,
             "--depth", "3")
    assert p.returncode == 0
    assert _records(p) == [{"goal": goal, "proved": True}]
    goal = "f(x,y) ~ x ctx [ x:A y:A ]"
    p = ualg("--format", "json-lines", "prove", PROJ_INJ, "--goal", goal)
    assert p.returncode == 1
    assert _records(p) == [{"goal": goal, "proved": False,
                            "status": "refuted-by-invariant"}]
    goal = "mul(x,y) ~ mul(y,x) ctx [ x:M y:M ]"
    p = ualg("--format", "json-lines", "prove", MONOID, "--goal", goal,
             "--depth", "3")
    assert p.returncode == 1
    assert p.stdout == (
        '{"goal": "mul(x,y) ~ mul(y,x) ctx [ x:M y:M ]", "proved": false, '
        '"status": "inconclusive (truncated: '
        'depth,instantiation,weakening)", '
        '"truncated_by": ["depth", "instantiation", "weakening"]}\n')


def test_prove_not_derivable_when_saturated(tmp_path):
    """The free magma saturates with no truncation, so a goal it never
    derives is reported not derivable, not inconclusive."""
    src = tmp_path / "magma.ua"
    src.write_text("theory FreeMagma\nstructure cartesian\nsort A\n"
                   "op f : A A -> A\n")
    goal = "f(x,y) ~ f(y,x) ctx [ x:A y:A ]"
    p = ualg("prove", str(src), "--goal", goal)
    assert p.returncode == 1
    assert p.stdout == "not-derivable (saturated)\n"
    p = ualg("--format", "json-lines", "prove", str(src), "--goal", goal)
    assert p.returncode == 1
    assert _records(p) == [{"goal": goal, "proved": False,
                            "status": "not-derivable (saturated)"}]


def test_countermodel_json_lines():
    p = ualg("--format", "json-lines", "countermodel", PROJ, "--goal",
             "f(x,y) ~ f(y,x) ctx [ x:A y:A ]", "--max-size", "2")
    assert p.returncode == 0
    assert _records(p) == [{"carriers": {"A": 2},
                            "tables": {"f": [0, 0, 1, 1]}}]


def test_ctx_json_lines():
    """One record per query, with no text-mode key in it."""
    p = ualg("--format", "json-lines", "ctx", "rel",
             "--structure", "cartesian", "x y z", "y x y x x")
    assert p.returncode == 0
    assert _records(p) == [{"holds": True, "structure": "cartesian"}]
    p = ualg("--format", "json-lines", "ctx", "terminal",
             "--structure", "left-surjective", "x y x")
    assert p.returncode == 0
    assert _records(p) == [{"terminal": ["x", "y"]}]
    p = ualg("--format", "json-lines", "ctx", "terminal",
             "--structure", "injective", "x x")
    assert p.returncode == 1
    assert _records(p) == [{"terminal": None}]


def test_countermodel_none_json_lines():
    p = ualg("--format", "json-lines", "countermodel", MONOID, "--goal",
             "mul(x,y) ~ mul(y,x) ctx [ x:M y:M ]", "--max-size", "2")
    assert p.returncode == 1
    assert _records(p) == [{"model": None}]


def test_selftest_json_lines():
    p = ualg("--format", "json-lines", "selftest", "--only", "2")
    assert p.returncode == 0
    assert _records(p) == [{
        "criterion": 2, "details": ["3992 structure/function pairs agree"],
        "name": "relation/family correspondence on [m],[n] <= 4",
        "passed": True}]


def test_universal_hom_without_arrow_exit_code():
    p = ualg("universal", MONOID, "--hom", "M M M")
    assert p.returncode == 3
    assert p.stdout == ""
    assert p.stderr == "error: hom must look like '<S> <S> -> <S>'\n"


def test_universal_hom_sort_errors_exit_code():
    """An undeclared sort is named as unknown; a missing or doubled result
    sort is a malformed hom."""
    for hom, message in (("M -> N", "unknown sort N"),
                         ("N M -> M", "unknown sort N"),
                         ("M ->", "hom must look like '<S> <S> -> <S>'"),
                         ("M -> M M", "hom must look like '<S> <S> -> <S>'")):
        p = ualg("universal", MONOID, "--hom", hom)
        assert (p.returncode, p.stdout, p.stderr) == (
            3, "", f"error: {message}\n"), hom
