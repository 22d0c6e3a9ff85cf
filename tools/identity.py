"""Golden digests of ddquad's seeded outputs.

Runs one fixed list of CLI commands in-process, in a fresh temporary
directory, and records for each its exit code and the sha256 of its
stdout, of its stderr and of every file it writes, together with the
Python, numpy and platform strings of the host.

    python3 tools/identity.py --update   # rewrite IDENTITY.json
    python3 tools/identity.py --check    # list every digest that differs

``--check`` exits 1 and prints one ``<command>: <what>`` line per
differing exit code, stream or file.  Float output may differ across
CPUs and BLAS builds, so a host whose strings differ from the recorded
ones is reported first, and its differing files are still listed.  Run
it from a checkout with ``src`` on the path (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from ddquad.cli import main

RECORD = Path(__file__).resolve().parent.parent / "IDENTITY.json"

DRIFT_FRINGE = ["--tau-total", "4e-3", "--set", "noise.kind=random_walk",
                "--set", "noise.step_dt=1e-5",
                "--set", "noise.drift_rate_sigma=2e-6",
                "--set", "plan.n_echo=32", "--set", "plan.n_phases=8",
                "--set", "plan.shots_per_point=2000"]

# name -> arguments; each command writes to --out <name>, and a later
# command may read an earlier one's files
COMMANDS = {
    "paper-11": ["reproduce-paper", "--seed", "11"],
    "paper-no-noise-11": ["reproduce-paper", "--no-noise", "--seed", "11"],
    "drift-fringe-4": ["simulate-fringe", "--seed", "4"] + DRIFT_FRINGE,
    "random-walk-campaign-4": ["run-campaign", "--seed", "4",
                               "--set", "noise.kind=random_walk"],
    "bootstrap-7": ["run-campaign", "--seed", "7",
                    "--set", "plan.beta_list=0,0.75,1.5",
                    "--set", "plan.gradient_list=0.5e8,1e8",
                    "--set", "plan.tau_total_list=1e-3,2e-3",
                    "--set", "plan.shots_per_point=100",
                    "--set", "fit.bootstrap_resamples=100",
                    "--set", "fit.float_epsilon1=true",
                    "--set", "trap.alpha=0.3"],
    "fit-paper-11": ["fit", "--data", "paper-11/campaign.csv"],
    "two-angles-free-epsilon1": ["run-campaign", "--seed", "11",
                                 "--set", "plan.beta_list=0.0,0.8",
                                 "--set", "fit.float_epsilon1=true",
                                 "--set", "trap.alpha=0.3"],
    "rabi-2": ["simulate-rabi", "--seed", "2", "--n-areas", "41"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def host() -> dict:
    return {"python": sys.version, "numpy": np.__version__,
            "platform": platform.platform()}


def digests() -> dict:
    """Run every command and digest what it gives."""
    runner = CliRunner()
    record = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, args in COMMANDS.items():
                res = runner.invoke(main, args + ["--out", name])
                out = Path(name)
                record[name] = {
                    "argv": args, "exit_code": res.exit_code,
                    "stdout": _sha(res.stdout_bytes),
                    "stderr": _sha(res.stderr_bytes),
                    "files": {p.relative_to(out).as_posix():
                              _sha(p.read_bytes())
                              for p in sorted(out.rglob("*")) if p.is_file()},
                }
        finally:
            os.chdir(cwd)
    return {"host": host(), "commands": record}


def differences(old: dict, new: dict) -> list:
    """``<command>: <what>`` for every entry that differs."""
    lines = []
    for name in sorted(old["commands"].keys() | new["commands"].keys()):
        a, b = old["commands"].get(name), new["commands"].get(name)
        if a is None or b is None:
            lines.append(f"{name}: only in the {'new' if a is None else 'recorded'} run")
            continue
        for key in ("argv", "exit_code", "stdout", "stderr"):
            if a[key] != b[key]:
                lines.append(f"{name}: {key}")
        for path in sorted(a["files"].keys() | b["files"].keys()):
            if a["files"].get(path) != b["files"].get(path):
                lines.append(f"{name}: {path}")
    return lines


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare with IDENTITY.json and list differences")
    mode.add_argument("--update", action="store_true",
                      help="rewrite IDENTITY.json")
    args = parser.parse_args(argv)
    new = digests()
    if args.update:
        RECORD.write_text(_dump(new))
        print(f"wrote {RECORD.name}: {len(new['commands'])} commands")
        return 0
    old = json.loads(RECORD.read_text())
    if old["host"] != new["host"]:
        print("host differs: recorded "
              + json.dumps(old["host"], sort_keys=True)
              + ", here " + json.dumps(new["host"], sort_keys=True))
    lines = differences(old, new)
    for line in lines:
        print(line)
    print(f"{len(lines)} differing entries in {len(new['commands'])} commands")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(run())
