"""The README's Library block runs as written, and each commented line
returns what its comment says; every command of its Command line block
exits 0.  A name or a command that the package no longer has fails here."""

import json
import re
import shlex
from pathlib import Path

from necklaces import NecklaceElement, parse_element, project_to_necklace
from necklaces.cli import main

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


def _command_line_section() -> tuple[str, str]:
    """The Command line section's prose before its block, and the block."""
    text = README.read_text()
    section = text[text.index("\n## Command line\n"):]
    prose, block = re.search(r"(.*?)```\n(.*?)```", section, re.S).groups()
    return prose, block


def _run(capsys, command: str) -> tuple[int, str]:
    argv = shlex.split(command)
    assert argv[0] == "necklaces", command
    code = main(argv[1:])
    return code, capsys.readouterr().out


def test_readme_command_line_block_exits_0(tmp_path, monkeypatch, capsys):
    # the block's rule file, as a valid one-dimensional table: x1 x1 = x1
    (tmp_path / "constants.json").write_text(json.dumps({"dim": 1, "a": [[1, 1, 1, "1"]]}))
    monkeypatch.chdir(tmp_path)
    prose, block = _command_line_section()
    commands = []
    for line in block.splitlines():
        command = line.partition("#")[0].strip()
        if command:  # not the comment-only continuation line
            commands.append(command)
    assert len(commands) == 11
    for command in commands:
        assert _run(capsys, command)[0] == 0, command
    # the prose names one call with the global flag on either side
    before, after = re.findall(r"`(necklaces [^`]*)`", prose)
    assert before == "necklaces --format json dims 1 6"
    assert after == "necklaces dims 1 6 --format json"
    assert _run(capsys, before) == _run(capsys, after)
