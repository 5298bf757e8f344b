"""The CLI's stdout stays byte-identical on the benchmark's golden commands
and on the text and csv outputs listed in TEXT_AND_CSV.

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


# sha256 of stdout for outputs the benchmark's JSON commands do not cover
TEXT_AND_CSV = [
    (["dims", "2", "6"], "8182289e6266a88a603f2b59cf8913584f9c8c80fea2b3d9a5d34b2c82afd2df"),
    (["dims", "2", "6", "--format", "csv"], "83b755e7eac78cb86c7e2a3b8fb4af0c94c0310bb0a86193b01c46a41e11f0cb"),
    (["table1", "10"], "5db8bba763e5bc478b73fafb6f585c26daceb7606050dbd85e467f8d5937173c"),
    (["table1", "10", "--format", "csv"], "d7f6bba13fed9fea015daa0a557a7af28772af84828b1dc8fe3c4a99fd18e854"),
    (["table2"], "674a5eaded716003bf626242f52d7af8c87ad3adc493382630c786f935c246f5"),
    (["table2", "--format", "csv"], "4d5bb7bcf5cda44038e3d13ce8414613c4258c9ad057a0d7ed0c9d8db97c38b8"),
    (["verify", "all"], "974846743ce6f585c3a3a0307a9b9cd77d3e13cd147fc9aa8c182904a56e6683"),
    (["center", "2", "2", "4"], "e872dd938990238ee239a4cfa540493a8e536a60a10a5402155d8fdfc6a1bc6d"),
    (["classify", "0", "0", "1", "1", "0"], "60ad9a8431e6aaf07ce801f72333de250455cdfb5e3ab7e7e20cf8f864a93d36"),
    (["ngl", "2"], "680d356aaf1e11c348031481802dbfbddf0c0e866d8384d25372903c0582e755"),
    (["decompose", "10"], "90a0186d35ae2e1424239feb2bc747bc6947a34fc82e88378196858c1ec24c1e"),
    (["bracket", "xx*", "x"], "26b3f4354391109eb58d37a1410f3ebcf62b2aae0d450c8729ee0942de03a9ec"),
]


@pytest.mark.parametrize("argv, want", [pytest.param(*p, id=" ".join(p[0])) for p in TEXT_AND_CSV])
def test_text_and_csv_stdout_matches_its_digest(capsys, argv, want):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == want
