"""Command-line interface.

Subcommands: dims, bracket, table1, table2, center, verify, classify, ngl,
decompose.  Global flags: --format {text,json,csv}, --seed N, --max-degree N,
--output PATH.  All output is deterministic for fixed flags and seed; exact
rationals are serialized as strings "p/q".

Each cmd_* formats what the library computes, verify's suites included, as
(text lines, JSON payload, csv lines or None, verdict).  main refuses csv
for a command without it before the command runs, and exits 0 when every
check passes, 1 when one fails, 2 on a usage or input error (one stderr line).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

# each module runs on first use (see the package docstring), so a command
# loads only the modules it calls into
from . import brackets, counting, elements, linear_rules, poisson, report, sampling, sl2, traces
from . import words


def _necklace_element_json(e: elements.NecklaceElement, names=None):
    """The element's sorted terms as [coefficient, necklace] strings and its
    format_element text, from one sorted pass over the terms."""
    terms = [(c, words.format_word(n, names)) for n, c in e]
    return {
        "terms": [[str(c), body] for c, body in terms],
        "text": elements._signed_sum(terms),
    }


def _error(args, message) -> int:
    sys.stderr.write(f"necklaces {args.command}: error: {message}\n")
    return 2


_string = json.encoder.encode_basestring_ascii


def _json(out: list, value, pad="\n") -> None:
    """Append json.dumps(value, indent=2, sort_keys=True) to out, in pieces
    for _emit to join a chunk at a time.  With indent set the standard
    library encodes in pure Python; here a list of strings, as each term of
    a necklace element is, is one piece, joined over the C string encoder."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        sep = "{" + inner
        for k, v in sorted(value.items()):
            out.append(sep + _string(k if isinstance(k, str) else json.dumps(k)) + ": ")
            _json(out, v, inner)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)) and value:
        # a list of lists of strings, as an element's terms are, takes no
        # call per item
        deeper = inner + "  "
        head, inside, tail = "[" + deeper, "," + deeper, inner + "]"
        sep = "[" + inner
        for v in value:
            try:
                if v and type(v) is list:
                    out.append(sep + head + inside.join(map(_string, v)) + tail)
                    sep = "," + inner
                    continue
            except TypeError:
                pass
            out.append(sep)
            _json(out, v, inner)
            sep = "," + inner
        out.append(pad + "]")
    else:  # a scalar, {} or []
        out.append(_string(value) if isinstance(value, str) else json.dumps(value))


# Pieces per write.  One join of the whole document would be held beside the
# pieces, and encoded into one more copy; a write per piece is a write(2)
# each when stdout is unbuffered.
_CHUNK = 256


def _emit(args, text_lines, payload, csv_lines):
    if args.format == "json":
        pieces = []
        _json(pieces, payload)
        pieces.append("\n")
    else:
        lines = csv_lines if args.format == "csv" else text_lines
        pieces = ["\n"] * (2 * len(lines))
        pieces[::2] = lines
    with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as out:
        for i in range(0, len(pieces), _CHUNK):
            out.write("".join(pieces[i : i + _CHUNK]))


def _report_payload(r: report.CheckReport):
    return {
        "title": r.title,
        "ok": r.ok,
        "checks": [
            {"label": e.label, "ok": e.ok, **({"detail": e.detail} if e.detail else {})}
            for e in r.entries
        ],
    }


def _first_failure(r: report.CheckReport, text, payload):
    """A failed report's first failing entry, as a text line and a JSON key."""
    for e in r.failures()[:1]:
        text.append(f"first failure: {e.label}  {e.detail}")
        payload["first_failure"] = {"label": e.label, "detail": e.detail}


# --- subcommands ------------------------------------------------------------


def cmd_dims(args):
    d, kmax = args.d, args.kmax
    rows = []
    for k in range(0, kmax + 1):
        formula = counting.necklace_dimension(d, k)
        enumerated = counting.necklace_count_by_enumeration(d, k)
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
        words._check_digits(args.rule, "--rule")
        if not (n.isdecimal() and int(n) >= 1):
            given = words._excerpt(args.rule)
            raise ValueError(f"--rule {given!r} is not ngl:N with an integer N >= 1")
        rule = linear_rules.ngl(int(n))
    elif not canonical:
        with open(args.rule) as fh:
            rule = linear_rules.linear_rule(linear_rules.StructureConstants.from_json(fh.read()))
    names = None if canonical else rule.names
    alphabet = {v: k for k, v in names.items()} if names else None
    read = lambda w: elements.project_to_necklace(elements.parse_element(w, alphabet))
    e1, e2 = read(args.w1), read(args.w2)
    if canonical:
        # the canonical bracket of two elements reads only the letter pairs
        # they use, so the rule holds those alone, whatever their indices
        used = {a.index for e in (e1, e2) for n in e.terms for a in n}
        rule = brackets.BracketRule.canonical_on(used)
    result = brackets.necklace_bracket(rule, e1, e2)
    payload = {"bracket": _necklace_element_json(result, names)}
    text = [f"bracket: {payload['bracket']['text']}"]
    if not canonical:
        return text, payload, None, True
    oracle = brackets.kontsevich_bracket(e1, e2)
    agree = oracle == result
    # equal elements print alike, so an agreeing oracle shares the bracket's
    # JSON rather than holding a second copy of it
    oracle_json = payload["bracket"] if agree else _necklace_element_json(oracle)
    payload.update(oracle=oracle_json, agree=agree)
    text += [f"splice oracle: {payload['oracle']['text']}", "agree" if agree else "DISAGREE"]
    return text, payload, None, agree


def cmd_table1(args):
    nmax = args.nmax or args.max_degree or 8
    rows = sl2.table1(nmax)
    agree = {}
    for row in rows:
        if row.degree <= sl2.DEFAULT_DEGREE_BOUND:
            agree[row.degree] = row == sl2.decompose_bruteforce(row.degree)
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
    t = traces.table2()  # a table failing antisymmetry or Jacobi raises ValueError
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
    lam = elements.parse_rational(args.witness_lambda)
    report = brackets.center_check(d, n, bound)
    checked, violations = len(report.entries), len(report.failures())
    element = brackets.center_element(d, n)
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
        where = f"witness value of c_{n} at lambda={words._excerpt(args.witness_lambda)}"
        value = _printed(traces.center_witness(n, lam), where)
        text.append(f"witness value at lambda={lam}: {value}")
        payload["witness"] = {"lambda": str(lam), "value": value}
    ok = report.ok
    _first_failure(report, text, payload)
    text.append("pass" if ok else "FAIL")
    payload["ok"] = ok
    return text, payload, None, ok


# a lambda reads its suite's module when the suite runs, not at import
SUITES = {
    "jacobi": lambda seed, max_degree: sampling.jacobi_suite(seed, max_degree),
    "loday": lambda seed, max_degree: sampling.loday_suite(seed, max_degree),
    "grading": lambda seed, max_degree: sampling.grading_suite(seed, max_degree),
    "casimir": lambda seed, max_degree: poisson.casimir_check(),
    "cayley-hamilton": lambda seed, max_degree: traces.verify_cayley_hamilton(),
    "decoupling": lambda seed, max_degree: poisson.change_coordinates(),
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
    got = poisson.classify_point([elements.parse_rational(v) for v in literals])
    point = ", ".join(words._excerpt(v) for v in literals)
    casimir = _printed(got.casimir, f"Casimir value at ({point})")
    primed = [_printed(v, f"{g} at ({point})") for g, v in zip(("E'", "F'", "H'"), got.primed)]
    payload = {"leaf": got.leaf, "luna_type": got.luna_type, "casimir": casimir, "primed": primed}
    return [str(got)], payload, None, True  # str(got) prints the Casimir checked above


def cmd_ngl(args):
    n = args.n
    sc = linear_rules.gl_constants(n)
    rule = linear_rules.linear_rule(sc, names=linear_rules.matrix_unit_names(n))
    names = rule.names
    report, table = linear_rules._degree1_brackets(sc, rule)
    text = [f"degree-1 brackets of the {n}x{n} matrix-algebra rule"]
    pairs = []
    for a, b, got in table:
        got = elements.format_element(got, names)
        pairs.append({"a": names[a], "b": names[b], "bracket": got})
        text.append(f"  {{{names[a]}, {names[b]}}} = {got}")
    text.append(f"matches matrix commutators: {report.ok}")
    payload = {"n": n, "pairs": pairs, "matches_commutators": report.ok}
    _first_failure(report, text, payload)
    return text, payload, None, report.ok


def cmd_decompose(args):
    n = args.n
    oracle = sl2.decompose_bruteforce(n)  # refuses a degree above its bound first
    formula = sl2.decompose_by_formula(n)
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
            words._check_digits(text, "integer")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        digits = text[1:] if text[:1] in ("+", "-") else text
        value = int(text) if digits.isdecimal() else None
        if value is None or low is not None and value < low:
            at_least = "" if low is None else f" >= {low}"
            got = words._excerpt(text)
            raise argparse.ArgumentTypeError(f"expected an integer{at_least}, got {got!r}")
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
    p.add_argument("d", type=_positive_int)
    p.add_argument("n", type=_int_at_least(0))
    p.add_argument("bound", type=_positive_int, nargs="?", default=6)
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
    p.add_argument("n", type=_positive_int)
    p.set_defaults(func=cmd_ngl)

    p = add_parser("decompose", help="weight decomposition of one degree")
    p.add_argument("n", type=_integer)
    p.set_defaults(func=cmd_decompose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.format == "csv" and args.command not in ("dims", "table1", "table2"):
        raise SystemExit(_error(args, "csv output is not defined for this command"))
    try:
        text, payload, csv_lines, ok = args.func(args)
        _emit(args, text, payload, csv_lines)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        return _error(args, exc)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
