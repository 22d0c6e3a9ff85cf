"""The comparison of ``tools/identity.py``, the golden-digest gate; no
command is run."""

import copy
import importlib.util
import platform
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "identity",
    Path(__file__).resolve().parent.parent / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)

RECORD = {"host": {}, "commands": {
    "a": {"argv": ["simulate-rabi", "--seed", "2"], "exit_code": 0,
          "stdout": "s1", "stderr": "e1",
          "files": {"rabi.csv": "f1", "resolved_config.ini": "f2"}},
    "b": {"argv": ["fit", "--data", "a/campaign.csv"], "exit_code": 2,
          "stdout": "s2", "stderr": "e2", "files": {}},
}}


def edited(edit):
    doc = copy.deepcopy(RECORD)
    edit(doc["commands"])
    return doc


def test_identical_runs_differ_nowhere():
    assert identity.differences(RECORD, copy.deepcopy(RECORD)) == []


@pytest.mark.parametrize("edit, lines", [
    (lambda c: c.pop("b"), ["b: only in the recorded run"]),
    (lambda c: c.update(c=c["a"]), ["c: only in the new run"]),
    (lambda c: c["a"]["argv"].append("--n-areas"), ["a: argv"]),
    (lambda c: c["b"].update(exit_code=0), ["b: exit_code"]),
    (lambda c: c["a"].update(stdout="x"), ["a: stdout"]),
    (lambda c: c["b"].update(stderr="x"), ["b: stderr"]),
    (lambda c: c["b"]["files"].update({"fit.json": "f3"}), ["b: fit.json"]),
    (lambda c: c["a"]["files"].pop("rabi.csv"), ["a: rabi.csv"]),
    (lambda c: c["a"]["files"].update({"rabi.csv": "x"}), ["a: rabi.csv"]),
    (lambda c: (c["a"].update(exit_code=1), c["a"]["files"].clear()),
     ["a: exit_code", "a: rabi.csv", "a: resolved_config.ini"]),
], ids=["command_removed", "command_added", "argv", "exit_code", "stdout",
        "stderr", "file_added", "file_removed", "file_changed",
        "several_in_one_command"])
def test_each_difference_is_one_line(edit, lines):
    assert identity.differences(RECORD, edited(edit)) == lines


def test_host_records_differing_only_in_kernel_build_are_equal(monkeypatch):
    here = identity.host()
    uname = platform.uname()
    other = uname._replace(release=uname.release + "-other",
                           version="#2 SMP other build")
    monkeypatch.setattr(platform, "uname", lambda: other)
    monkeypatch.setattr(platform, "release", lambda: other.release)
    monkeypatch.setattr(platform, "version", lambda: other.version)
    monkeypatch.setattr(platform, "platform", lambda *args, **kwargs:
                        f"{other.system}-{other.release}-{other.machine}")
    assert identity.host() == here
