"""Command-line interface.

Subcommands: dims, bracket, table1, table2, center, verify, classify, ngl,
decompose.  Global flags: --format {text,json,csv}, --seed N, --max-degree N,
--output PATH.  All output is deterministic for fixed flags and seed; exact
rationals are serialized as strings "p/q".

Each cmd_* returns (text lines, JSON payload, csv lines or None, verdict);
main writes the output and sets the exit status: 0 when every check passes,
1 when a check fails, 2 for a usage or input error, reported as one line on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import sl2
from .brackets import (
    BracketRule,
    center_check,
    center_element,
    check_grading,
    kontsevich_bracket,
    necklace_bracket,
    verify_double_jacobi,
    verify_loday_properties,
)
from .counting import enumerate_necklaces, necklace_count_by_enumeration, necklace_dimension
from .elements import (
    Necklace,
    NecklaceElement,
    _check_digits,
    _excerpt,
    _signed_sum,
    format_element,
    parse_element,
    parse_rational,
    project_to_necklace,
)
from .linear_rules import (
    StructureConstants,
    check_degree1_commutator,
    gl_constants,
    linear_rule,
    matrix_unit_names,
    ngl,
)
from .poisson import casimir_check, change_coordinates
from .report import CheckReport
from .sampling import random_word, rng
from .sl2 import decompose_bruteforce, decompose_by_formula, table1
from .traces import center_witness, classify_point, table2, verify_cayley_hamilton
from .words import Word, format_word, letters, unstarred


def _necklace_element_json(e: NecklaceElement, names=None):
    """The element's sorted terms as [coefficient, necklace] strings and its
    format_element text, from one sorted pass over the terms."""
    terms = [(c, format_word(n, names)) for n, c in e]
    return {
        "terms": [[str(c), body] for c, body in terms],
        "text": _signed_sum(terms),
    }


def _error(args, message) -> int:
    sys.stderr.write(f"necklaces {args.command}: error: {message}\n")
    return 2


def _emit(args, text_lines, payload, csv_lines):
    if args.format == "json":
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        if csv_lines is None:
            raise SystemExit(_error(args, "csv output is not defined for this command"))
        body = "\n".join(csv_lines) + "\n"
    else:
        body = "\n".join(text_lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _report_payload(report: CheckReport):
    return {
        "title": report.title,
        "ok": report.ok,
        "checks": [
            {"label": e.label, "ok": e.ok, **({"detail": e.detail} if e.detail else {})}
            for e in report.entries
        ],
    }


# --- subcommands ------------------------------------------------------------


def cmd_dims(args):
    d, kmax = args.d, args.kmax
    rows = []
    for k in range(0, kmax + 1):
        formula = necklace_dimension(d, k)
        enumerated = necklace_count_by_enumeration(d, k)
        rows.append((k, formula, enumerated, formula == enumerated))
    ok = all(r[3] for r in rows)
    text = [f"necklace dimensions, d={d}"] + [
        f"  k={k}: formula={f} enumerated={e} {'ok' if good else 'MISMATCH'}"
        for k, f, e, good in rows
    ]
    csv = ["k,formula,enumerated,ok"] + [
        f"{k},{f},{e},{'ok' if good else 'MISMATCH'}" for k, f, e, good in rows
    ]
    payload = {
        "d": d,
        "rows": [
            {"k": k, "formula": f, "enumerated": e, "ok": good}
            for k, f, e, good in rows
        ],
        "ok": ok,
    }
    return text, payload, csv, ok


def cmd_bracket(args):
    canonical = args.rule == "canonical"
    if args.rule.startswith("ngl:"):
        n = args.rule[4:]
        _check_digits(args.rule, "--rule")
        if not (n.isdecimal() and int(n) >= 1):
            raise ValueError(f"--rule {_excerpt(args.rule)!r} is not ngl:N with an integer N >= 1")
        rule = ngl(int(n))
    elif not canonical:
        with open(args.rule) as fh:
            rule = linear_rule(StructureConstants.from_json(fh.read()))
    names = None if canonical else rule.names
    alphabet = {v: k for k, v in names.items()} if names else None
    e1, e2 = (project_to_necklace(parse_element(w, alphabet)) for w in (args.w1, args.w2))
    if canonical:
        # the canonical bracket of elements in x1..xk is the same for every d >= k
        d = max((n.max_index() for e in (e1, e2) for n in e.terms), default=1)
        rule = BracketRule.canonical(d)
    result = necklace_bracket(rule, e1, e2)
    payload = {"bracket": _necklace_element_json(result, names)}
    text = [f"bracket: {payload['bracket']['text']}"]
    if not canonical:
        return text, payload, None, True
    oracle = kontsevich_bracket(e1, e2, d)
    agree = oracle == result
    payload.update(oracle=_necklace_element_json(oracle), agree=agree)
    text += [f"splice oracle: {payload['oracle']['text']}", "agree" if agree else "DISAGREE"]
    return text, payload, None, agree


def cmd_table1(args):
    nmax = args.nmax or args.max_degree or 8
    rows = table1(nmax)
    agree = {}
    for row in rows:
        if row.degree <= sl2.DEFAULT_DEGREE_BOUND:
            agree[row.degree] = row == decompose_bruteforce(row.degree)
    ok = all(agree.values())
    weights = list(range(nmax, -1, -1))
    header = "," + ",".join(str(w) for w in weights)
    csv = [header]
    text = [f"multiplicities of highest weight modules, degrees 1..{nmax}"]
    text.append("degree | " + " ".join(f"{w:>3}" for w in weights))
    for row in rows:
        cells = [row.multiplicity(w) for w in weights]
        csv.append(f"{row.degree}," + ",".join(str(c) for c in cells))
        flag = "" if agree.get(row.degree, True) else "  ORACLE MISMATCH"
        text.append(
            f"{row.degree:>6} | " + " ".join(f"{c:>3}" for c in cells) + flag
        )
    payload = {
        "max_degree": nmax,
        "rows": [
            {
                "degree": row.degree,
                "multiplicities": {str(w): m for w, m in sorted(row.multiplicities.items())},
                "oracle_agrees": agree.get(row.degree),
            }
            for row in rows
        ],
        "ok": ok,
    }
    return text, payload, csv, ok


AUDITED_CELL_NOTE = (
    "cell (tr((x*)^2), tr(x)) is pinned to -2*tr(x*) by antisymmetry "
    "with the (tr(x), tr((x*)^2)) entry 2*tr(x*)"
)


def cmd_table2(args):
    t = table2()  # a table failing antisymmetry or Jacobi raises ValueError
    strings = [[repr(e) for e in row] for row in t.table]
    width = max(len(s) for row in strings for s in row)
    text = ["poisson brackets of the trace generators (n = 2)"]
    text.append(
        " " * 14 + "  ".join(f"{g:>{width}}" for g in t.generators)
    )
    for g, row in zip(t.generators, strings):
        text.append(f"{g:>13} " + "  ".join(f"{s:>{width}}" for s in row))
    text.append("antisymmetric: True")
    text.append(f"audit: {AUDITED_CELL_NOTE}")
    csv = ["," + ",".join(t.generators)]
    for g, row in zip(t.generators, strings):
        csv.append(g + "," + ",".join(row))
    payload = {
        "generators": list(t.generators),
        "entries": strings,
        "antisymmetric": True,
        "audited_cell": {
            "row": "tr((x*)^2)",
            "col": "tr(x)",
            "value": strings[3][0],
            "note": AUDITED_CELL_NOTE,
        },
    }
    return text, payload, csv, True


def _printed(value, what: str) -> str:
    """str(value), or a ValueError naming `what` past Python's digit limit."""
    try:
        return str(value)
    except ValueError:
        raise ValueError(f"{what} is too long to print") from None


def cmd_center(args):
    d, n, bound = args.d, args.n, args.bound
    lam = parse_rational(args.witness_lambda)
    report = center_check(d, n, bound)
    checked, violations = len(report.entries), len(report.failures())
    element = center_element(d, n)
    element_json = _necklace_element_json(element)
    text = [
        f"central element c_{n} for d={d}: {element_json['text']}",
        f"brackets checked against necklaces of degree <= {bound}: "
        f"{checked}, violations: {violations}",
    ]
    payload = {
        "d": d,
        "n": n,
        "degree_bound": bound,
        "element": element_json,
        "is_zero": element.is_zero,
        "checked": checked,
        "violations": violations,
    }
    if d == 1:
        where = f"witness value of c_{n} at lambda={_excerpt(args.witness_lambda)}"
        value = _printed(center_witness(n, lam), where)
        text.append(f"witness value at lambda={lam}: {value}")
        payload["witness"] = {"lambda": str(lam), "value": value}
    ok = report.ok
    text.append("pass" if ok else "FAIL")
    payload["ok"] = ok
    return text, payload, None, ok


def _summary(report, label, witnesses, count, noun):
    """Add one entry for `count` sampled `noun`, of which `witnesses` (text)
    fail; a failure names how many fail and the first of them."""
    detail = f"{len(witnesses)} of {count} {noun} fail, first {witnesses[0]}" if witnesses else ""
    report.add(label, not witnesses, detail)


def _sampled(report, label, r, alphabet, top, holds, count):
    """Check `holds` on `count` random word triples of length 0..top and add
    one entry through _summary; a failing triple reads (a, b, c)."""
    triples = ([random_word(r, alphabet, 0, top) for _ in range(3)] for _ in range(count))
    failed = [f"({', '.join(map(format_word, t))})" for t in triples if not holds(*t)]
    _summary(report, label, failed, count, "triples")


def _suite_jacobi(seed: int, max_degree: int) -> CheckReport:
    report = CheckReport("double Jacobi identity")
    r = rng(seed)
    length = max(1, max_degree // 3)
    for label, rule, alphabet, top in (
        ("canonical rule, d=1, 120 sampled triples", BracketRule.canonical(1), letters(1), length),
        ("canonical rule, d=2, 120 sampled triples", BracketRule.canonical(2), letters(2), length),
        ("matrix-algebra linear rule, 120 sampled triples", ngl(2), unstarred(4), 2),
    ):
        holds = lambda a, b, c: verify_double_jacobi(rule, a, b, c).is_zero
        _sampled(report, label, r, alphabet, top, holds, 120)
    return report


def _suite_loday(seed: int, max_degree: int) -> CheckReport:
    report = CheckReport("Loday identity and commutator triviality")
    rule = BracketRule.canonical(1)
    holds = lambda a, b, c: verify_loday_properties(rule, a, b, c) == (True, True)
    label = "canonical rule d=1, 100 sampled triples"
    _sampled(report, label, rng(seed), letters(1), max(1, max_degree // 3), holds, 100)
    return report


def _suite_grading(seed: int, max_degree: int) -> CheckReport:
    report = CheckReport("bracket grading")
    r = rng(seed)
    necks = [n for k in range(max_degree + 1) for n in enumerate_necklaces(1, k)]
    canonical_pairs = [(r.choice(necks), r.choice(necks)) for _ in range(150)]
    bead = lambda: Necklace.of(random_word(r, unstarred(4), 1, 3))
    linear_pairs = [(bead(), bead()) for _ in range(150)]
    for name, rule, pairs in (
        ("canonical", BracketRule.canonical(1), canonical_pairs),
        ("linear", ngl(2), linear_pairs),
    ):
        label = f"{name} rule has degree {rule.degree_shift}"
        failed = [f"{e.label}: {e.detail}" for e in check_grading(rule, pairs).failures()]
        _summary(report, label, failed, len(pairs), "pairs")
    return report


SUITES = {
    "jacobi": _suite_jacobi,
    "loday": _suite_loday,
    "grading": _suite_grading,
    "casimir": lambda seed, max_degree: casimir_check(),
    "cayley-hamilton": lambda seed, max_degree: verify_cayley_hamilton(),
    "decoupling": lambda seed, max_degree: change_coordinates(),
}


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = [SUITES[name](args.seed, args.max_degree or 6) for name in names]
    ok = all(r.ok for r in reports)
    text = []
    for r in reports:
        text.extend(str(r).splitlines())
    payload = {"suites": [_report_payload(r) for r in reports], "ok": ok}
    return text, payload, None, ok


def cmd_classify(args):
    literals = (args.X, args.Y, args.E, args.F, args.H)
    got = classify_point([parse_rational(v) for v in literals])
    point = ", ".join(_excerpt(v) for v in literals)
    casimir = _printed(got.casimir, f"Casimir value at ({point})")
    primed = [_printed(v, f"{g} at ({point})") for g, v in zip(("E'", "F'", "H'"), got.primed)]
    payload = {"leaf": got.leaf, "luna_type": got.luna_type, "casimir": casimir, "primed": primed}
    return [str(got)], payload, None, True  # str(got) prints the Casimir checked above


def cmd_ngl(args):
    n = args.n
    rule = ngl(n)
    names = matrix_unit_names(n)
    sc = gl_constants(n)
    report = check_degree1_commutator(sc, rule)
    text = [f"degree-1 brackets of the {n}x{n} matrix-algebra rule"]
    pairs = []
    units = sorted(names)
    for a in units:
        for b in units:
            got = format_element(necklace_bracket(rule, Word([a]), Word([b])), names)
            pairs.append({"a": names[a], "b": names[b], "bracket": got})
            text.append(f"  {{{names[a]}, {names[b]}}} = {got}")
    text.append(f"matches matrix commutators: {report.ok}")
    payload = {"n": n, "pairs": pairs, "matches_commutators": report.ok}
    return text, payload, None, report.ok


def cmd_decompose(args):
    n = args.n
    oracle = decompose_bruteforce(n)  # refuses a degree above its bound first
    formula = decompose_by_formula(n)
    agree = formula == oracle
    text = [f"degree {n} decomposes into highest weight modules:"]
    for w in sorted(formula.multiplicities, reverse=True):
        text.append(f"  weight {w}: multiplicity {formula.multiplicities[w]}")
    text.append(f"dimension: {formula.dimension()}")
    text.append(f"formula agrees with weight-space oracle: {agree}")
    payload = {
        "degree": n,
        "multiplicities": {str(w): m for w, m in sorted(formula.multiplicities.items())},
        "dimension": formula.dimension(),
        "oracle_agrees": agree,
    }
    return text, payload, None, agree


def _int_at_least(low: int | None = None):
    """The reader of every integer argument: at most 1000 digits, checked
    before int() meets its digit limit, and at least `low` when it is given;
    a refusal names the literal by its first 24 characters."""
    def parse(text: str) -> int:
        try:
            _check_digits(text, "integer")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        digits = text[1:] if text[:1] in ("+", "-") else text
        value = int(text) if digits.isdecimal() else None
        if value is None or low is not None and value < low:
            at_least = "" if low is None else f" >= {low}"
            raise argparse.ArgumentTypeError(f"expected an integer{at_least}, got {_excerpt(text)!r}")
        return value

    return parse


_integer, _positive_int = _int_at_least(), _int_at_least(1)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line, like main's input errors; -h still prints the usage
        self.exit(2, f"{self.prog}: error: {message}\n")


def _global_flags(**defaults) -> argparse.ArgumentParser:
    """The global flags, which set only the given defaults."""
    flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    flags.add_argument("--format", choices=("text", "json", "csv"))
    flags.add_argument("--seed", type=_integer, help="seed for sampled checks")
    flags.add_argument("--max-degree", type=_positive_int)
    flags.add_argument("--output", help="write output to this path")
    flags.set_defaults(**defaults)
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="necklaces",
        description="Exact computations in necklace Lie algebras of free algebras.",
        parents=[_global_flags(format="text", seed=0, max_degree=None, output=None)],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags again after the command, without defaults: a command's copy
    # with defaults would reset a flag given before the command
    after = _global_flags()

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[after], **kwargs)

    p = add_parser("dims", help="necklace dimensions: formula vs enumeration")
    p.add_argument("d", type=_positive_int)
    p.add_argument("kmax", type=_int_at_least(0))
    p.set_defaults(func=cmd_dims)

    p = add_parser("bracket", help="necklace bracket of two elements")
    p.add_argument("w1")
    p.add_argument("w2")
    p.add_argument("--rule", default="canonical", help="canonical, ngl:N, or a JSON file")
    p.set_defaults(func=cmd_bracket)

    p = add_parser("table1", help="highest weight multiplicities by degree")
    p.add_argument("nmax", type=_positive_int, nargs="?", default=None)
    p.set_defaults(func=cmd_table1)

    p = add_parser("table2", help="bracket table of the five trace generators")
    p.set_defaults(func=cmd_table2)

    p = add_parser("center", help="centrality check and witness values")
    p.add_argument("d", type=_integer)
    p.add_argument("n", type=_integer)
    p.add_argument("bound", type=_integer, nargs="?", default=6)
    p.add_argument("--witness-lambda", default="1")
    p.set_defaults(func=cmd_center)

    p = add_parser("verify", help="run a named invariant suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.set_defaults(func=cmd_verify)

    p = add_parser("classify", help="classify a point of the 5-dim quotient")
    for name in ("X", "Y", "E", "F", "H"):
        p.add_argument(name)
    p.set_defaults(func=cmd_classify)

    p = add_parser("ngl", help="matrix-algebra rule: degree-1 bracket table")
    p.add_argument("n", type=_integer)
    p.set_defaults(func=cmd_ngl)

    p = add_parser("decompose", help="weight decomposition of one degree")
    p.add_argument("n", type=_integer)
    p.set_defaults(func=cmd_decompose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, payload, csv_lines, ok = args.func(args)
        _emit(args, text, payload, csv_lines)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        return _error(args, exc)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
