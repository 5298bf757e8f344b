"""The CLI's stdout stays byte-identical on the benchmark's golden commands.

perfbench/workloads.py (the seed-0 command lists) and perfbench/golden.json
(the sha256 of each command's stdout) are only read, by path.  Each command
runs in-process through cli.main.  The demo script is left to the
benchmark, as it runs as a script rather than a subcommand.
"""

import hashlib
import importlib.util
import json
from itertools import takewhile
from pathlib import Path

import pytest

from necklaces import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SKIPPED = ("demos/",)


def _golden_commands():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    out = []
    for commands in workloads.WORKLOADS.values():
        for argv in commands(0):
            key = workloads.command_key(argv)
            if key in golden and not argv[0].startswith(SKIPPED):
                name = " ".join(takewhile(lambda a: not a.startswith("-"), argv))
                out.append(pytest.param(argv, golden[key], id=name))
    return out


@pytest.mark.parametrize("argv, want", _golden_commands())
def test_cli_stdout_matches_golden_digest(capsys, argv, want):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == want
