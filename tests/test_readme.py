"""The README's Library block runs as written, and each commented line
returns what its comment says.  A name the block imports or calls that the
package no longer has fails here."""

import re
from pathlib import Path

from necklaces import NecklaceElement, parse_element, project_to_necklace

README = Path(__file__).resolve().parent.parent / "README.md"

# each commented line's comment, as the README writes it, and the check of
# the value that line returns
CLAIMS = {
    "2E": lambda ns, got: got == 2 * ns["E"],
    "4*(xx*), by pure splicing": lambda ns, got: got == NecklaceElement.of("xx*", 4),
    "2(xx*xx*) - 2(xxx*x*)": lambda ns, got: (
        got == project_to_necklace(parse_element("2*xx*xx* - 2*xxx*x*"))
    ),
    "{8: 1, 4: 3, 2: 3, 0: 3}": lambda ns, got: got == {8: 1, 4: 3, 2: 3, 0: 3},
    "S_lambda, lambda = 4, Luna [(2,1)]": lambda ns, got: (
        (got.leaf, got.casimir, got.luna_type) == ("S_lambda", 4, "[(2,1)]")
    ),
}


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_runs_and_returns_its_comments():
    ns: dict = {}
    lines = _library_block().splitlines()
    # join the continuation lines of the import statement
    statements, pending = [], ""
    for line in lines:
        pending += line + "\n"
        if pending.count("(") == pending.count(")"):
            statements.append(pending)
            pending = ""
    checked = []
    for statement in statements:
        code, _, comment = statement.partition("#")
        comment = comment.strip()
        if not comment:
            exec(code, ns)
            continue
        assert comment in CLAIMS, f"no check for the README comment {comment!r}"
        got = eval(code, ns)
        assert CLAIMS[comment](ns, got), (code.strip(), comment, got)
        checked.append(comment)
    assert checked == list(CLAIMS)
