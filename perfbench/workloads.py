"""Command lists of the benchmark workloads, and the checks on their output.

A command is an argv list.  One that ends in ``.py`` names a demo script run
with the interpreter; any other is the argument list of
``python -m necklaces.cli``.  Every list is a pure function of the seed: the
seed chooses only argument values, never the mix of commands, the term
counts or the word lengths, so that seeds differ in data and not in work.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

DEMO = "demos/05_trace_poisson.py"
JSON = ["--format", "json"]

# Bound of the necklace degrees that `center 2 3 B` brackets against.
CENTER_BOUND = 6

# (terms per side, word length of side a, word length of side b) of the three
# large canonical-rule brackets in `session`.  Each side is homogeneous, so
# every term of the bracket must have degree la + lb - 2.
BIG_BRACKETS = ((10, 3, 7), (20, 4, 6), (30, 5, 5))
D2_LETTERS = ("x1", "x1*", "x2", "x2*")
CLASSIFY_CALLS = 5


def center_commands(seed: int) -> list[list[str]]:
    lam = _rational(random.Random(seed))
    return [
        ["center", "2", "3", str(CENTER_BOUND)] + JSON,
        ["center", "1", "6", "8", f"--witness-lambda={lam}"] + JSON,
    ]


def decompose_commands(seed: int) -> list[list[str]]:
    return [["decompose", "12"] + JSON, ["decompose", "13"] + JSON]


def session_commands(seed: int) -> list[list[str]]:
    """A seeded stream of interactive use, in a seeded order."""
    r = random.Random(seed)
    cmds = []
    for n, la, lb in BIG_BRACKETS:
        a = _combination(r, D2_LETTERS, n, la)
        b = _combination(r, D2_LETTERS, n, lb)
        cmds.append(["bracket"] + JSON + ["--", a, b])
    for k in (2, 3):
        units = [f"e{i}{j}" for i in range(1, k + 1) for j in range(1, k + 1)]
        a = _combination(r, units, 3, 2)
        b = _combination(r, units, 3, 2)
        cmds.append(["bracket", f"--rule=ngl:{k}"] + JSON + ["--", a, b])
    for suite in ("jacobi", "loday", "grading"):
        cmds.append(["verify", suite, f"--seed={r.randrange(10**6)}"] + JSON)
    for suite in ("casimir", "cayley-hamilton", "decoupling"):
        cmds.append(["verify", suite] + JSON)
    cmds.append(["table2"] + JSON)
    for _ in range(CLASSIFY_CALLS):
        point = [_rational(r, allow_zero=True) for _ in range(5)]
        cmds.append(["classify"] + JSON + ["--"] + point)
    cmds.append(["dims", "2", "8"] + JSON)
    cmds.append(["ngl", "2"] + JSON)
    cmds.append([DEMO])
    r.shuffle(cmds)
    return cmds


WORKLOADS = {
    "center": center_commands,
    "decompose": decompose_commands,
    "session": session_commands,
}


def _rational(r: random.Random, allow_zero: bool = False) -> str:
    while True:
        value = Fraction(r.randint(-9, 9), r.randint(1, 9))
        if value or allow_zero:
            return str(value)


def _combination(r: random.Random, letters, terms: int, length: int) -> str:
    """`terms` distinct necklaces of one length with nonzero rational
    coefficients, in the CLI's element grammar."""
    seen = set()
    chunks = []
    while len(chunks) < terms:
        word = tuple(r.randrange(len(letters)) for _ in range(length))
        necklace = min(word[i:] + word[:i] for i in range(length))
        if necklace in seen:
            continue
        seen.add(necklace)
        c = Fraction(r.choice((-1, 1)) * r.randint(1, 9), r.randint(1, 9))
        body = "".join(letters[i] for i in word)
        chunks.append(f"{c}*{body}" if not chunks else f"{'-' if c < 0 else '+'} {abs(c)}*{body}")
    return " ".join(chunks)


# --- output checks -----------------------------------------------------------


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(argv: list[str], code: int, stdout: bytes, golden: dict[str, str]) -> list[str]:
    """Reasons why a finished command counts as failed; empty when it passed."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    want = golden.get(command_key(argv))
    if want is not None and digest(stdout) != want:
        problems.append("stdout differs from the golden output")
    if argv[0].endswith(".py"):
        return problems
    try:
        doc = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON"]
    problems.extend(_flag_problems(doc))
    if argv[0] == "bracket":
        problems.extend(_grading_problems(argv, doc))
    if argv[0] == "center" and "witness" in doc:
        problems.extend(_witness_problems(doc))
    return problems


def _flag_problems(doc) -> list[str]:
    """False `ok`, `agree` or `oracle_agrees` fields and nonzero `violations`,
    at any depth of the JSON document."""
    out = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key in ("ok", "agree", "oracle_agrees") and value is False:
                out.append(f"{key} is false")
            elif key == "violations" and value:
                out.append(f"{value} violations")
            else:
                out.extend(_flag_problems(value))
    elif isinstance(doc, list):
        for value in doc:
            out.extend(_flag_problems(value))
    return out


def _word_degree(word: str, bead: str) -> int:
    return 0 if word == "1" else word.count(bead)


def _grading_problems(argv: list[str], doc) -> list[str]:
    """Independent invariant: a bracket of homogeneous elements of degrees
    la and lb has all terms in degree la + lb - 2 (canonical rule) or
    la + lb - 1 (matrix-algebra rule)."""
    linear = any(a.startswith("--rule=ngl:") for a in argv)
    bead, shift = ("e", -1) if linear else ("x", -2)
    # arguments are "c*word" chunks joined by " + " / " - "
    da, db = (
        {_word_degree(chunk.split("*", 1)[1], bead) for chunk in side.split(" ") if "*" in chunk}
        for side in argv[-2:]
    )
    if len(da) != 1 or len(db) != 1:
        return ["bracket arguments are not homogeneous"]
    expected = da.pop() + db.pop() + shift
    bad = [w for _, w in doc["bracket"]["terms"] if _word_degree(w, bead) != expected]
    return [f"bracket term {bad[0]} is not of degree {expected}"] if bad else []


def _witness_problems(doc) -> list[str]:
    """The witness pair has commutator diag(l, -2l, l), so the trace of the
    n-th central element is l^n (2 + (-2)^n)."""
    n = doc["n"]
    lam = Fraction(doc["witness"]["lambda"])
    expected = lam**n * (2 + (-2) ** n)
    if Fraction(doc["witness"]["value"]) != expected:
        return [f"witness value is not {expected}"]
    return []
