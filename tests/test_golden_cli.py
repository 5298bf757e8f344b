"""The CLI's stdout stays byte-identical on the benchmark's golden commands.

perfbench/workloads.py (the seed-0 command lists) and perfbench/golden.json
(the sha256 of each command's stdout) are only read, by path.  Each command
runs in-process: a subcommand through cli.main, the demo script through
runpy as __main__.
"""

import hashlib
import importlib.util
import json
import runpy
from itertools import takewhile
from pathlib import Path

import pytest

from necklaces import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _golden_commands():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    out = []
    for commands in workloads.WORKLOADS.values():
        for argv in commands(0):
            key = workloads.command_key(argv)
            if key in golden:
                name = " ".join(takewhile(lambda a: not a.startswith("-"), argv))
                out.append(pytest.param(argv, golden[key], id=name))
    return out


@pytest.mark.parametrize("argv, want", _golden_commands())
def test_cli_stdout_matches_golden_digest(capsys, argv, want):
    if argv[0].endswith(".py"):
        runpy.run_path(str(ROOT / argv[0]), run_name="__main__")
    else:
        assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == want
