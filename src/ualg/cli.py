"""Command-line front end.

Each command returns its exit code and its output, built once as a list of
`(text, record)` items; `main` hands the items to `_emit`, the one place
that reads `--format`.  It prints each item's text, or each item's record
as one JSON line; a `None` side prints nothing in its format.

Exit codes: 0 success/proved, 1 inconclusive or refuted (the report says
which), 2 a verification check failed, 3 usage, file, or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .context import (
    ContextError, Letter, holds, parse_structure, terminal_context,
)
from .finord import FinOrdError, parse_family, verify_structure_category
from .syntax import (
    Equation, TheoryError, Theory, parse_equation_text, parse_theory,
)
from .deduction import Bounds, DeductionError, proof_lines, prove, \
    refute_by_invariant
from .setmodel import find_model, format_model
from .universal import sigma_term_str, universal_hom
from .selftest import ALL_CHECKS, render_report, run_selftest


def _emit(args, items) -> None:
    """Print each `(text, record)` item: its text in text mode, its record
    as one JSON line under `--format json-lines`."""
    as_json = args.format == "json-lines"
    for text, record in items:
        if (record if as_json else text) is not None:
            print(json.dumps(record, sort_keys=True) if as_json else text)


def _parse_word(text: str) -> tuple[Letter, ...]:
    return tuple(Letter("s", name) for name in text.split())


def _load_theory(path: str) -> Theory:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_theory(handle.read())


def _parse_goal(theory: Theory, text: str) -> Equation:
    return parse_equation_text(theory.signature, text,
                               structure=theory.structure)


Output = tuple[int, list[tuple[Optional[str], Optional[dict]]]]


def cmd_delta_check(args) -> Output:
    family = parse_family(args.family)
    report = verify_structure_category(family, args.max)
    items = [("\n".join(report.lines()), None)] + [
        (None, {"family": str(report.family), "max": report.max_n,
                "check": check.name, "ok": check.ok,
                "detail": "\n".join(check.detail)})
        for check in report.checks]
    return (0 if report.passed else 2), items


def cmd_ctx_rel(args) -> Output:
    structure = parse_structure(args.structure)
    value = holds(structure, _parse_word(args.context), _parse_word(args.word))
    return 0, [("true" if value else "false",
                {"structure": args.structure, "holds": value})]


def cmd_ctx_terminal(args) -> Output:
    c = terminal_context(parse_structure(args.structure),
                         _parse_word(args.word))
    if c is None:
        return 1, [("none", {"terminal": None})]
    names = [x.name for x in c]
    return 0, [(" ".join(names), {"terminal": names})]


def cmd_prove(args) -> Output:
    theory = _load_theory(args.file)
    goal = _parse_goal(theory, args.goal)
    result = prove(theory, goal, Bounds(args.depth, args.ctx, args.rounds))
    if result.proved:
        return 0, [("proved", {"proved": True, "goal": args.goal}),
                   ("\n".join(proof_lines(result.proof)), None)]
    try:
        refuted = refute_by_invariant(theory, goal)
    except DeductionError:
        refuted = False
    record = {"proved": False, "goal": args.goal}
    if refuted:
        message = "refuted-by-invariant"
    elif result.truncated_by:
        message = f"inconclusive (truncated: {','.join(result.truncated_by)})"
        record["truncated_by"] = list(result.truncated_by)
    else:
        message = "not-derivable (saturated)"
    return 1, [(message, {**record, "status": message})]


def cmd_countermodel(args) -> Output:
    theory = _load_theory(args.file)
    goal = _parse_goal(theory, args.goal)
    model = find_model(theory, args.max_size, avoid=goal)
    if model is None:
        return 1, [("none", {"model": None})]
    return 0, [(format_model(model), {
        "carriers": dict(model.carriers),
        "tables": {k: list(v.table) for k, v in model.op_tables.items()}})]


def cmd_universal(args) -> Output:
    theory = _load_theory(args.file)
    doms_text, sep, result_sort = args.hom.partition("->")
    if not sep or len(result_sort.split()) != 1:
        raise TheoryError("hom must look like '<S> <S> -> <S>'")
    hom = (tuple(doms_text.split()), result_sort.strip())
    # The ground engine derives closed equations only, which no context
    # bound cuts, so any value gives the same quotient.
    part = universal_hom(theory, hom, Bounds(args.depth, 1, args.rounds))
    items = [(f"{len(part.classes)} classes", None)]
    for i, cls in enumerate(part.classes):
        rep = sigma_term_str(part.sigma, cls[0])
        items.append((f"class {i} ({len(cls)} terms): {rep}",
                      {"class": i, "size": len(cls), "representative": rep}))
    if part.truncated_by:
        items.append((f"truncated: {','.join(part.truncated_by)}",
                      {"truncated_by": list(part.truncated_by)}))
    return 0, items


def _criteria(text: str) -> list[int]:
    """The --only value: comma-separated criterion numbers, 1 to the number
    of checks."""
    try:
        numbers = [int(piece) for piece in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated criterion numbers, got {text!r}"
        ) from None
    for n in numbers:
        if not 1 <= n <= len(ALL_CHECKS):
            raise argparse.ArgumentTypeError(
                f"no criterion {n}; criteria are 1-{len(ALL_CHECKS)}")
    return numbers


def cmd_selftest(args) -> Output:
    results = run_selftest(only=args.only)
    code = 0 if all(r.passed for r in results) else 2
    return code, [(render_report(results).removesuffix("\n"), None)] + [
        (None, {"criterion": r.number, "name": r.name, "passed": r.passed,
                "details": r.details}) for r in results]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ualg",
        description="Equational deduction over context structures, with "
                    "finite-set models and a bounded universal model.")
    parser.add_argument("--format", choices=("text", "json-lines"),
                        default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    delta = sub.add_parser("delta", help="structure-category checks")
    delta_sub = delta.add_subparsers(dest="delta_command", required=True)
    check = delta_sub.add_parser("check")
    check.add_argument("--family", required=True)
    check.add_argument("--max", type=int, default=4)
    check.set_defaults(handler=cmd_delta_check)

    ctx = sub.add_parser("ctx", help="context-structure queries")
    ctx_sub = ctx.add_subparsers(dest="ctx_command", required=True)
    rel = ctx_sub.add_parser("rel")
    rel.add_argument("--structure", required=True)
    rel.add_argument("context")
    rel.add_argument("word")
    rel.set_defaults(handler=cmd_ctx_rel)
    term = ctx_sub.add_parser("terminal")
    term.add_argument("--structure", required=True)
    term.add_argument("word")
    term.set_defaults(handler=cmd_ctx_terminal)

    prove_p = sub.add_parser("prove", help="bounded derivation search")
    prove_p.add_argument("file")
    prove_p.add_argument("--goal", required=True)
    prove_p.add_argument("--depth", type=int, default=4)
    prove_p.add_argument("--ctx", type=int, default=4)
    prove_p.add_argument("--rounds", type=int, default=8)
    prove_p.set_defaults(handler=cmd_prove)

    cm = sub.add_parser("countermodel",
                        help="sequential backtracking model search")
    cm.add_argument("file")
    cm.add_argument("--goal", required=True)
    cm.add_argument("--max-size", type=int, default=2)
    cm.set_defaults(handler=cmd_countermodel)

    uni = sub.add_parser("universal", help="bounded initial-model classes")
    uni.add_argument("file")
    uni.add_argument("--hom", required=True)
    uni.add_argument("--depth", type=int, default=3)
    uni.add_argument("--rounds", type=int, default=8)
    uni.set_defaults(handler=cmd_universal)

    st = sub.add_parser("selftest", help="run the acceptance suite")
    st.add_argument("--only", type=_criteria,
                    help="comma-separated criterion numbers")
    st.set_defaults(handler=cmd_selftest)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    try:
        code, items = args.handler(args)
    except (TheoryError, ContextError, FinOrdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit(args, items)
    return code


if __name__ == "__main__":
    sys.exit(main())
