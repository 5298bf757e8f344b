import itertools
import json
import sys

import pytest

from necklaces import brackets, cli, linear_rules, sl2
from necklaces.brackets import kontsevich_bracket
from necklaces.cli import main
from necklaces.elements import Necklace, NecklaceElement, TensorElement
from necklaces.words import Word, word


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dims_text_and_exit(capsys):
    code, out = run(capsys, "dims", "1", "6")
    assert code == 0
    assert "k=6: formula=14 enumerated=14 ok" in out
    code, out = run(capsys, "dims", "1", "0")
    assert code == 0
    assert "k=0: formula=1 enumerated=1 ok" in out


def test_dims_csv(capsys):
    code, out = run(capsys, "dims", "2", "2", "--format", "csv")
    assert code == 0
    assert "2,10,10,ok" in out.splitlines()


def test_bracket_canonical_with_oracle(capsys):
    code, out = run(capsys, "bracket", "x", "x*")
    assert code == 0
    assert "bracket: 1" in out and "agree" in out
    code, out = run(capsys, "bracket", "xx*", "x", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert data["bracket"]["terms"] == [["-1", "x1"]]


def test_bracket_elements_and_d2(capsys):
    code, out = run(capsys, "bracket", "2*x1 + x2", "x1*", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["bracket"]["terms"] == [["2", "1"]]


def test_bracket_rule_holds_only_the_letters_used(capsys, monkeypatch):
    """The canonical rule of a bracket is built over the letter pairs its
    elements use, not over x1..xk for k their largest index."""
    seen = []
    real = brackets.necklace_bracket
    monkeypatch.setattr(brackets, "necklace_bracket", lambda rule, a, b: seen.append(rule) or real(rule, a, b))
    code, out = run(capsys, "bracket", "x100000", "x100000*", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True and data["bracket"]["terms"] == [["1", "1"]]
    assert [rule.generators for rule in seen] == [word("x100000x100000*")]
    assert len(seen[0].table) == 2
    code, out = run(capsys, "bracket", "x3x3* + x1", "x7*", "--format", "json")
    assert code == 0 and json.loads(out)["agree"] is True
    assert seen[1].generators == word("x1x1*x3x3*x7x7*")


def test_bracket_ngl_rule(capsys):
    code, out = run(capsys, "bracket", "e12", "e21", "--rule", "ngl:2")
    assert code == 0
    assert "e11 - e22" in out


def test_bracket_names_an_unknown_bead(capsys):
    assert main(["bracket", "e13", "e21", "--rule", "ngl:2"]) == 2
    assert capsys.readouterr().err == "necklaces bracket: error: cannot parse word at 'e13'\n"


# 5,001 digits: past Python's 4,300-digit limit for int() and str()
LONG = "1" + "0" * 5000
# 995 nines times 10^1000: within the reader's bounds, but the Casimir of five
# of them has more than 4,300 digits
HUGE = "9" * 995 + "e1000"
# letter indices of 5,000 and of 900 digits, and a rule whose one generator is x1
LONG_LETTER, WIDE_LETTER = "x" + "9" * 5000, "x" + "9" * 900
X1_RULE = '{"dim": 1, "a": [[1, 1, 1, "1"]]}'


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bracket", "x", "y", "--rule", "ngl:abc"], "--rule 'ngl:abc' is not ngl:N with an integer N >= 1"),
        (["bracket", "x", "y", "--rule", "ngl:0"], "--rule 'ngl:0' is not ngl:N with an integer N >= 1"),
        (["classify", "1", "2", "3", "4", "1e5000"], "exponent of '1e5000' is above 1000"),
        (["center", "1", "2", "--witness-lambda=1e5000"], "exponent of '1e5000' is above 1000"),
        (["classify", "1", "2", "3", "4", LONG], f"number '{LONG[:24]}...' has more than 1000 digits"),
        (["bracket", f"{LONG}*x", "x*"], f"number '{LONG[:24]}...' has more than 1000 digits"),
        (["center", "1", "2", f"--witness-lambda={LONG}"], f"number '{LONG[:24]}...' has more than 1000 digits"),
        (["bracket", "x", "y", "--rule", f"ngl:{LONG}"], f"--rule 'ngl:{LONG[:20]}...' has more than 1000 digits"),
        (["center", "1", "8", "--witness-lambda=1e1000"], "witness value of c_8 at lambda=1e1000 is too long to print"),
        (["classify", *[HUGE] * 5], f"Casimir value at ({', '.join([HUGE[:24] + '...'] * 5)}) is too long to print"),
        (["classify", "1", "2", "3", "4", "1e" + "9" * 5000], f"exponent of '1e{'9' * 22}...' is above 1000"),
        (["classify", "1", "2", "3", "4", "x" * 5000], f"invalid number '{'x' * 24}...'"),
        (["dims", "1", LONG], f"argument kmax: integer '{LONG[:24]}...' has more than 1000 digits"),
        (["center", LONG, "2"], f"argument d: integer '{LONG[:24]}...' has more than 1000 digits"),
        (["ngl", "x" * 30], f"argument n: expected an integer >= 1, got '{'x' * 24}...'"),
        (["decompose", "+-5"], "argument n: expected an integer, got '+-5'"),
        (["verify", "jacobi", "--seed", LONG], f"argument --seed: integer '{LONG[:24]}...' has more than 1000 digits"),
        (["center", "0", "2"], "argument d: expected an integer >= 1, got '0'"),
        (["center", "-1", "2"], "argument d: expected an integer >= 1, got '-1'"),
        (["center", "1", "-1"], "argument n: expected an integer >= 0, got '-1'"),
        (["ngl", "0"], "argument n: expected an integer >= 1, got '0'"),
        (["decompose", LONG], f"argument n: integer '{LONG[:24]}...' has more than 1000 digits"),
        (["center", "1", "2", "0"], "argument bound: expected an integer >= 1, got '0'"),
        (["center", "1", "2", "-1"], "argument bound: expected an integer >= 1, got '-1'"),
        (["bracket", LONG_LETTER, "x"], f"letter '{LONG_LETTER[:24]}...' has more than 1000 digits"),
        (["bracket", WIDE_LETTER, "x"], f"letter {WIDE_LETTER[:24]}... is past x557056, the last with a code point"),
        (
            ["bracket", WIDE_LETTER, "x1", "--rule", "{tmp}/x1.json"],
            f"letter {WIDE_LETTER[:24]}... is not a generator of this rule",
        ),
    ],
)
def test_bad_number_and_rule_name_the_input(tmp_path, capsys, argv, message):
    (tmp_path / "x1.json").write_text(X1_RULE)
    argv = [a.format(tmp=tmp_path) for a in argv]
    try:
        code = main(argv)
    except SystemExit as e:  # argparse refuses an argument
        code = e.code
    assert code == 2
    assert capsys.readouterr().err == f"necklaces {argv[0]}: error: {message}\n"


def test_bracket_rule_from_json_file(tmp_path, capsys):
    table = {"dim": 1, "a": [[1, 1, 1, "1"]]}
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(table))
    code, out = run(capsys, "bracket", "x1", "x1", "--rule", str(path))
    assert code == 0
    assert "bracket: 0" in out


def test_table1_csv_layout(capsys):
    code, out = run(capsys, "table1", "8", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",8,7,6,5,4,3,2,1,0"
    assert lines[1] == "1,0,0,0,0,0,0,0,1,0"
    assert lines[6] == "6,0,0,1,0,0,0,2,0,1"
    assert lines[8] == "8,1,0,0,0,3,0,3,0,3"


def test_table1_json_oracle_flags(capsys):
    code, out = run(capsys, "table1", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert all(row["oracle_agrees"] for row in data["rows"])


def test_table2_json(capsys):
    code, out = run(capsys, "table2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["antisymmetric"] is True
    assert data["entries"][0][1] == "2"
    assert data["entries"][3][0] == "-2*tr(x*)"
    assert data["audited_cell"]["value"] == "-2*tr(x*)"


def test_table2_refusal_is_one_line_exit_2(capsys, monkeypatch):
    real = brackets.necklace_bracket
    skewed = lambda rule, a, b: (3 if (a, b) == ("x1", "x1*") else 1) * real(rule, a, b)
    monkeypatch.setattr(brackets, "necklace_bracket", skewed)
    assert main(["table2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "necklaces table2: error: table is not antisymmetric at (tr(x), tr(x*))\n"
    )


def test_center_command(capsys):
    code, out = run(capsys, "center", "1", "2", "6")
    assert code == 0
    assert "violations: 0" in out
    assert "witness value at lambda=1: 6" in out
    code, out = run(capsys, "center", "1", "1", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["is_zero"] is True and data["ok"] is True


def test_center_command_unit_witness(capsys):
    # c_0 is the unit necklace: its trace on the 3 x 3 witness pair is 3
    code, out = run(capsys, "center", "1", "0", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["element"]["text"] == "1"
    assert data["witness"] == {"lambda": "1", "value": "3"}
    code, out = run(capsys, "center", "1", "0", "3", "--witness-lambda=3/4")
    assert code == 0
    assert "witness value at lambda=3/4: 3" in out


def test_verify_suites_exit_zero(capsys):
    for suite in ("jacobi", "loday", "grading", "casimir", "cayley-hamilton", "decoupling"):
        code, out = run(capsys, "verify", suite)
        assert code == 0, suite
        assert "pass" in out


def test_classify_command(capsys):
    code, out = run(capsys, "classify", "0", "0", "1", "1", "0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["leaf"] == "S_lambda" and data["casimir"] == "4"
    code, out = run(capsys, "classify", "0", "0", "0", "0", "0")
    assert code == 0
    assert "S_0''" in out


def test_ngl_command(capsys):
    code, out = run(capsys, "ngl", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["matches_commutators"] is True
    assert len(data["pairs"]) == 16


def test_ngl_brackets_each_pair_of_beads_once(capsys, monkeypatch):
    calls = []
    real = brackets.necklace_bracket
    counted = lambda *a: calls.append(a) or real(*a)
    monkeypatch.setattr(brackets, "necklace_bracket", counted)
    monkeypatch.setattr(linear_rules, "necklace_bracket", counted)
    code, out = run(capsys, "ngl", "3")
    assert code == 0 and out.endswith("matches matrix commutators: True\n")
    assert len(calls) == 81


def test_decompose_checks_the_bound_before_the_formula(capsys, monkeypatch):
    def formula(n):
        raise AssertionError(f"decompose_by_formula({n}) ran before the bound was checked")

    monkeypatch.setattr(sl2, "decompose_by_formula", formula)
    assert main(["decompose", "20000"]) == 2
    err = capsys.readouterr().err
    assert err == "necklaces decompose: error: degree 20000 outside the supported range 1..16\n"


def test_decompose_command(capsys):
    code, out = run(capsys, "decompose", "8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["multiplicities"] == {"8": 1, "4": 3, "2": 3, "0": 3}
    assert data["oracle_agrees"] is True


def test_json_output_is_byte_stable(capsys):
    _, out1 = run(capsys, "verify", "jacobi", "--format", "json", "--seed", "7")
    _, out2 = run(capsys, "verify", "jacobi", "--format", "json", "--seed", "7")
    assert out1 == out2


@pytest.mark.parametrize(
    "value",
    [
        {}, [], "s", 7, None, {"b": {}, "a": [1, 2.5, None, True, False, "é\n\"x"]},
        {3: "x", 1: [["a", "b"], ["c"]], 2: 1.5}, {True: [], False: "n"},
        [[], [[]], {"z": [{"y": "ü"}]}, ("d",), [["e"]], ["f", 1], [1, "f"]],
        {"t": ("a", "b"), "k": (1, ["a"]), "inf": float("inf")},
    ],
)
def test_json_writer_matches_the_indented_standard_encoder(value):
    pieces = []
    cli._json(pieces, value)
    assert "".join(pieces) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "argv",
    [
        ["bracket", "2*x1x1*x2 - 1/3*x2*x2x1", "x1*x2x2*x2 + 5*x1x2*"],
        ["verify", "grading"],
        ["center", "1", "2", "3"],
        ["table2"],
        ["ngl", "2"],
        ["decompose", "6"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_json_output_is_the_indented_standard_encoding(capsys, monkeypatch, argv):
    payloads = []
    real = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda args, *rest: payloads.append(rest[1]) or real(args, *rest))
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0 and len(payloads) == 1
    assert out == json.dumps(payloads[0], indent=2, sort_keys=True) + "\n"


class _Writes(list):
    """A stdout that records each write."""

    def write(self, text):
        self.append(text)
        return len(text)


def _combination(length, terms, skip):
    letters = ("x1", "x1*", "x2", "x2*")
    words = list(itertools.product(letters, repeat=length))[skip::7][:terms]
    return " + ".join(f"{k}/{k % 3 + 2}*{''.join(w)}" for k, w in enumerate(words, 1))


# a bracket of 309 terms; bracket's text is three lines, and csv is defined
# only for dims, table1 and table2, so text reads ngl 5 (627 lines) and csv
# reads dims at a chunk short enough to split its 14 lines
@pytest.mark.parametrize(
    "fmt, argv, chunk",
    [
        ("json", ["bracket", "--", _combination(3, 12, 1), _combination(6, 12, 3)], None),
        ("text", ["ngl", "5"], None),
        ("csv", ["dims", "1", "12"], 8),
    ],
    ids=["json", "text", "csv"],
)
def test_output_is_written_in_chunks_alike_to_stdout_and_to_a_file(tmp_path, monkeypatch, fmt, argv, chunk):
    docs = []
    real = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda args, *rest: docs.append(rest) or real(args, *rest))
    if chunk:
        monkeypatch.setattr(cli, "_CHUNK", chunk)
    writes = _Writes()
    monkeypatch.setattr(sys, "stdout", writes)
    path = tmp_path / "out"
    assert main(["--format", fmt, *argv]) == 0
    assert main(["--format", fmt, "--output", str(path), *argv]) == 0
    text, payload, csv_lines = docs[0]
    if fmt == "json":
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        expected = "\n".join(text if fmt == "text" else csv_lines) + "\n"
    assert path.read_bytes() == "".join(writes).encode() == expected.encode()
    assert len(writes) > 1 and max(map(len, writes)) < len(expected)


def test_output_to_file(tmp_path, capsys):
    path = tmp_path / "dims.csv"
    code, _ = run(capsys, "dims", "1", "3", "--format", "csv", "--output", str(path))
    assert code == 0
    assert path.read_text().startswith("k,formula,enumerated,ok")


def test_csv_not_defined_everywhere(capsys):
    with pytest.raises(SystemExit) as e:
        run(capsys, "classify", "0", "0", "0", "0", "0", "--format", "csv")
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err == "necklaces classify: error: csv output is not defined for this command\n"


def test_csv_is_refused_before_the_command_runs(capsys, monkeypatch):
    def center_check(d, n, bound):
        raise AssertionError("center_check ran before csv was refused")

    monkeypatch.setattr(brackets, "center_check", center_check)
    with pytest.raises(SystemExit) as e:
        main(["center", "1", "2", "--format", "csv"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err == "necklaces center: error: csv output is not defined for this command\n"


BAD_RULE_FILES = {
    "no_dim.json": '{"a": []}',
    "not_an_object.json": "[1]",
    "short_entry.json": '{"dim": 1, "a": [[1, 1, 1]]}',
    "fractional_index.json": '{"dim": 1, "a": [[1.5, 1, 1, "1"]]}',
    "infinite_value.json": '{"dim": 1, "a": [[1, 1, 1, Infinity]]}',
    "boolean_value.json": '{"dim": 1, "a": [[1, 1, 1, true]]}',
    "huge_exponent.json": '{"dim": 1, "a": [[1, 1, 1, 1e5000]]}',
    "long_integer.json": '{"dim": 1, "a": [[1, 1, 1, %s]]}' % LONG,
    # a "dim" and entries of 2,000 items, each error must name only their start
    "long_dim.json": '{"dim": [%s], "a": []}' % ", ".join(["1"] * 2000),
    "long_entry.json": '{"dim": 1, "a": [[%s]]}' % ", ".join(["1"] * 2000),
    "long_index.json": '{"dim": 1, "a": [[[%s], 1, 1, "1"]]}' % ", ".join(["1"] * 2000),
    "long_value.json": '{"dim": 1, "a": [[1, 1, 1, [%s]]]}' % ", ".join(["1"] * 2000),
}


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "17"],
        ["bracket", "1/0*x", "x"],
        ["classify", "a", "0", "0", "0", "0"],
        ["bracket", "x", "x*", "--rule", "{tmp}/missing.json"],
        ["bracket", "x", "x*", "--rule", "ngl:x"],
        ["center", "1", "2", "0"],
        ["table1", "--max-degree", "0"],
        ["table1", "--max-degree", "-1"],
        ["verify", "grading", "--max-degree", "-1"],
        ["dims", "1", "3", "--output", "{tmp}/missing/dims.txt"],
        ["dims", "1", "-1"],
        ["dims", "0", "3"],
        ["bracket", "x", "x*", "--rule", "{tmp}/no_dim.json"],
        ["bracket", "x", "x*", "--rule", "{tmp}/not_an_object.json"],
        ["bracket", "x", "x*", "--rule", "{tmp}/short_entry.json"],
        ["bracket", "x", "x*", "--rule", "{tmp}/fractional_index.json"],
        ["bracket", "x", "x*", "--rule", "{tmp}/infinite_value.json"],
        ["bracket", "x1", "x1", "--rule", "{tmp}/boolean_value.json"],
        ["classify", "1", "2", "3", "4", "1/0"],
        ["center", "1", "2", "3", "--witness-lambda=1/0"],
        ["center", "2", "2", "3", "--witness-lambda=abc"],
        ["bracket", "x +", "x*"],
        ["bracket", "2*", "x"],
        ["bracket", "x", "y", "--rule", "ngl:abc"],
        ["classify", "1", "2", "3", "4", "1e5000"],
        ["center", "1", "2", "--witness-lambda=1e5000"],
        ["bracket", "x1", "x1", "--rule", "{tmp}/huge_exponent.json"],
        ["classify", "1", "2", "3", "4", LONG],
        ["bracket", f"{LONG}*x", "x*"],
        ["center", "1", "2", f"--witness-lambda={LONG}"],
        ["bracket", "x", "y", "--rule", f"ngl:{LONG}"],
        ["center", "1", "8", "--witness-lambda=1e1000"],
        ["bracket", "x1", "x1", "--rule", "{tmp}/long_integer.json"],
        ["dims", "1", LONG],
        ["dims", LONG, "2"],
        ["center", LONG, "2"],
        ["ngl", LONG],
        ["decompose", LONG],
        ["table1", "--max-degree", LONG],
        ["verify", "jacobi", "--seed", LONG],
        ["classify", "1", "2", "3", "4", "1e" + "9" * 5000],
        ["classify", *[HUGE] * 5],
        ["classify", "x" * 5000, "0", "0", "0", "0"],
        ["bracket", "x" * 5000 + " +", "x"],
        ["bracket", "x" + "q" * 3000, "x"],
        ["bracket", "x1", "x1", "--rule", "{tmp}/long_dim.json"],
        ["bracket", "x1", "x1", "--rule", "{tmp}/long_entry.json"],
        ["bracket", "x1", "x1", "--rule", "{tmp}/long_index.json"],
        ["bracket", "x1", "x1", "--rule", "{tmp}/long_value.json"],
        ["center", "0", "2"],
        ["center", "-1", "2"],
        ["center", "1", "-1"],
        ["ngl", "0"],
        ["center", "1", "2", "-1"],
        ["bracket", LONG_LETTER, "x"],
        ["bracket", WIDE_LETTER, "x"],
        ["bracket", WIDE_LETTER, "x1", "--rule", "{tmp}/x1.json"],
    ],
)
def test_input_errors_exit_2_with_one_line(tmp_path, capsys, argv):
    for name, text in {**BAD_RULE_FILES, "x1.json": X1_RULE}.items():
        (tmp_path / name).write_text(text)
    argv = [a.format(tmp=tmp_path) for a in argv]
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.endswith("\n") and len(err) <= 300
    assert err.startswith(f"necklaces {argv[0]}: error: ")
    assert "Traceback" not in err


def test_bracket_has_no_d_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["bracket", "x", "x*", "--d", "2"])
    assert e.value.code == 2
    assert capsys.readouterr().err == "necklaces: error: unrecognized arguments: --d 2\n"


def test_bracket_of_x2_agrees_with_its_oracle(capsys):
    code, out = run(capsys, "bracket", "x2x2*", "x2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True and data["bracket"]["terms"] == [["-1", "x2"]]


def test_bracket_prints_the_oracle_own_terms_when_they_differ(capsys, monkeypatch):
    code, out = run(capsys, "bracket", "x1x1*", "x1", "--format", "json")
    assert code == 0
    agreeing = json.loads(out)
    assert agreeing["agree"] is True and agreeing["oracle"] == agreeing["bracket"]
    tripled = lambda e1, e2: 3 * kontsevich_bracket(e1, e2)
    monkeypatch.setattr(brackets, "kontsevich_bracket", tripled)
    code, out = run(capsys, "bracket", "x1x1*", "x1", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["agree"] is False and data["bracket"] == agreeing["bracket"]
    assert data["oracle"] == {"terms": [["-3", "x1"]], "text": "-3*x1"}
    code, out = run(capsys, "bracket", "x1x1*", "x1")
    assert code == 1
    assert out.splitlines() == ["bracket: -x1", "splice oracle: -3*x1", "DISAGREE"]


def test_failed_check_exits_1_and_names_a_triple(capsys, monkeypatch):
    broken = TensorElement({(word("x"), word("x"), word("x")): 1})
    monkeypatch.setattr(brackets, "verify_double_jacobi", lambda rule, a, b, c: broken)
    code, out = run(capsys, "verify", "jacobi", "--format", "json")
    assert code == 1
    checks = json.loads(out)["suites"][0]["checks"]
    assert checks and not any(c["ok"] for c in checks)
    for check in checks:
        head, witness = check["detail"].split(" first ")
        assert head == "120 of 120 triples fail,"
        assert witness.startswith("(") and len(witness.split(", ")) == 3


def test_failed_center_check_exits_1_and_counts_the_failing_entries(capsys, monkeypatch):
    code, out = run(capsys, "center", "1", "1", "2", "--format", "json")
    assert code == 0
    checked = json.loads(out)["checked"]
    monkeypatch.setattr(brackets, "center_element", lambda d, n: NecklaceElement.of("xx*"))
    failing = brackets.center_check(1, 1, 2).failures()
    code, out = run(capsys, "center", "1", "1", "2", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False and data["violations"] == len(failing) > 0
    assert data["checked"] == checked
    # the first failing necklace and its nonzero bracket are the witness
    first = {"label": failing[0].label, "detail": failing[0].detail}
    assert data["first_failure"] == first and first["detail"]
    code, out = run(capsys, "center", "1", "1", "2")
    assert code == 1
    assert out.splitlines()[-2:] == [f"first failure: {first['label']}  {first['detail']}", "FAIL"]


def test_failed_ngl_exits_1_and_names_the_first_pair(capsys, monkeypatch):
    real = linear_rules.necklace_bracket
    monkeypatch.setattr(linear_rules, "necklace_bracket", lambda rule, a, b: -real(rule, a, b))
    code, out = run(capsys, "ngl", "2", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["matches_commutators"] is False
    # {e11, e11} = 0 passes with either sign; {e11, e12} = e12 is the first to fail
    assert data["first_failure"] == {"label": "{x1, x2}", "detail": "got -e12, expected e12"}
    code, out = run(capsys, "ngl", "2")
    assert code == 1
    assert out.splitlines()[-2:] == [
        "matches matrix commutators: False",
        "first failure: {x1, x2}  got -e12, expected e12",
    ]


def test_failed_grading_exits_1_and_names_the_pair(capsys, monkeypatch):
    # a bracket of degree deg w1 + deg w2, off the expected shift
    calls = []

    def concatenating(rule, a, b):
        calls.append((a, b))
        return NecklaceElement.of(Necklace.of(Word(a + b)))

    monkeypatch.setattr(brackets, "necklace_bracket", concatenating)
    code, out = run(capsys, "verify", "grading", "--format", "json")
    assert code == 1
    checks = json.loads(out)["suites"][0]["checks"]
    assert [c["ok"] for c in checks] == [False, False]
    a, b = calls[0]
    head, witness = checks[0]["detail"].split(" first ")
    assert head == "150 of 150 pairs fail,"
    got, want = Necklace.of(Word(a + b)), a.degree + b.degree - 2
    assert witness == f"{{{a!r}, {b!r}}}: {got!r} has degree {got.degree}, expected {want}"


@pytest.mark.parametrize("nmax", ["0", "-1"])
def test_table1_rejects_nmax_below_one(capsys, nmax):
    with pytest.raises(SystemExit) as e:
        main(["table1", nmax])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f"expected an integer >= 1, got '{nmax}'")


def test_table1_validates_rows_up_to_the_sl2_bound(capsys, monkeypatch):
    monkeypatch.setattr("necklaces.sl2.DEFAULT_DEGREE_BOUND", 3)
    code, out = run(capsys, "table1", "5", "--format", "json")
    assert code == 0
    agrees = [row["oracle_agrees"] for row in json.loads(out)["rows"]]
    assert agrees == [True, True, True, None, None]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "1", "2", "3", "4", "1/0"],
        ["bracket", "1/0*x1", "x1*"],
        ["center", "1", "2", "3", "--witness-lambda=1/0"],
    ],
)
def test_zero_denominator_names_the_input(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"necklaces {argv[0]}: error: zero denominator in '1/0'\n"


@pytest.mark.parametrize(
    "flag",
    [["--format", "json"], ["--seed", "7"], ["--max-degree", "3"], ["--output", "out.txt"]],
    ids=lambda flag: flag[0],
)
def test_global_flags_parse_the_same_before_and_after_the_command(flag):
    parse = cli.build_parser().parse_args
    before = vars(parse([*flag, "verify", "jacobi"]))
    after = vars(parse(["verify", "jacobi", *flag]))
    assert before == after != vars(parse(["verify", "jacobi"]))


def test_global_flags_before_the_command_take_effect(capsys):
    before = run(capsys, "--seed", "7", "verify", "jacobi", "--format", "json")
    after = run(capsys, "verify", "jacobi", "--seed", "7", "--format", "json")
    assert before == after and before[0] == 0
    code, out = run(capsys, "--format", "json", "dims", "1", "2")
    assert code == 0 and json.loads(out)["ok"] is True


def test_output_flag_before_the_command(tmp_path, capsys):
    path = tmp_path / "dims.csv"
    code, out = run(capsys, "--output", str(path), "--format", "csv", "dims", "1", "3")
    assert code == 0 and out == ""
    assert path.read_text().startswith("k,formula,enumerated,ok")
