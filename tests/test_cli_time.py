"""The command construction of ``tools/cli_time.py``."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "cli_time",
    Path(__file__).resolve().parent.parent / "tools" / "cli_time.py")
cli_time = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_time)

ARGS = ["run-campaign", "--seed", "4", "--set", "noise.kind=random_walk"]


def test_command_runs_the_trees_cli_into_its_out_dir(tmp_path):
    environ = {"PYTHONPATH": "elsewhere", "OPENBLAS_NUM_THREADS": "1"}
    argv, env = cli_time.command(tmp_path / "rev", ARGS, tmp_path / "out-0",
                                 environ)
    assert argv == [sys.executable, "-m", "ddquad.cli", *ARGS,
                    "--out", str(tmp_path / "out-0")]
    # the tree's package comes first; the caller's environment is kept
    assert env == {"PYTHONPATH": os.pathsep.join(
        [str(tmp_path / "rev" / "src"), "elsewhere"]),
        "OPENBLAS_NUM_THREADS": "1"}
    assert environ["PYTHONPATH"] == "elsewhere"


def test_command_without_a_pythonpath(tmp_path):
    _, env = cli_time.command(tmp_path, ARGS, tmp_path / "out", {})
    assert env == {"PYTHONPATH": str(tmp_path / "src")}


@pytest.mark.parametrize("argv", [
    ["--rev", "HEAD", *ARGS],                         # no --
    ["--rev", "HEAD", "--"],                          # no command
    ["--rev", "HEAD", "--", *ARGS, "--out", "x"],     # the tool's --out
    ["--rev", "HEAD", "--runs", "1", "--", *ARGS],
], ids=["no_separator", "no_command", "own_out", "one_run"])
def test_bad_arguments_exit_before_any_run(argv):
    with pytest.raises(SystemExit):
        cli_time.main(argv)
