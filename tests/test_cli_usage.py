"""Byte-level pins of the CLI's help text and usage errors.

Each case runs ``cli.main`` on one argv with an 80-column terminal and
compares its exit code, stdout and stderr with
``tests/golden/cli/usage/<name>.json``: the top-level ``--help``, every
group's and every command's ``--help``, a bare group, an empty argv, an
unknown group and command, a missing required flag, a bad ``--method``
choice, a bad integer and an unrecognized argument after a valid command.
The files were written by the code that built the whole parser for every
command, before ``main`` built only the named command's parser.

The data is never rewritten by the test.  To write it on purpose, run

    PYTHONPATH=src python tests/test_cli_usage.py --write tests/golden/cli/usage

and say in the change log which commit wrote it.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli" / "usage"
COLUMNS = "80"

GROUPS = {
    "chern": ("invariants", "classify", "enumerate"),
    "nev": ("T", "Tscalar", "N", "order", "fmt", "smt"),
    "borel": ("analyze", "refute"),
    "cover": ("pushdown", "check"),
    "plane": ("intersect", "nc", "engine", "exclusion"),
    "expfun": ("eval", "diff", "iszero", "combine"),
}

# name -> argv
CASES = {"help": ["--help"], "no_arguments": [],
         "bare_group": ["chern"],
         "unknown_group": ["nosuch"],
         "unknown_command": ["chern", "nosuch"],
         "missing_required_flag": ["chern", "invariants"],
         "bad_method_choice": ["nev", "N", "--method", "bogus"],
         "bad_integer": ["plane", "engine", "--degrees", "2,2,3",
                         "--d0max", "ten"],
         "unrecognized_argument": ["chern", "invariants", "--b", "2,2,2",
                                   "--bogus"]}
for _group, _commands in GROUPS.items():
    CASES[f"help_{_group}"] = [_group, "--help"]
    for _command in _commands:
        CASES[f"help_{_group}_{_command}"] = [_group, _command, "-h"]


def run_case(name: str) -> dict:
    """Exit code, stdout and stderr of one argv run through cli.main."""
    from curvecomp.cli import main
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(CASES[name]))
        except SystemExit as exc:
            code = exc.code
    return {"argv": CASES[name], "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_help_and_usage_unchanged(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert run_case(name) == want


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"] or len(sys.argv) != 3:
        sys.exit("usage: test_cli_usage.py --write DIR")
    os.environ["COLUMNS"] = COLUMNS
    out_dir = Path(sys.argv[2])
    out_dir.mkdir(parents=True, exist_ok=True)
    for case in sorted(CASES):
        path = out_dir / f"{case}.json"
        path.write_text(json.dumps(run_case(case), indent=2) + "\n",
                        encoding="utf-8")
        print("wrote", path)
