"""Alternating fresh-process timings of one ddquad command: a git revision
against the working tree.

    python3 tools/cli_time.py --rev REV [--runs 7] -- <ddquad args>

Exports REV with ``tools/pairs.py``'s ``export`` and runs
``python -m ddquad.cli <ddquad args> --out DIR`` in a new process per
run, with ``PYTHONPATH`` led by REV's ``src`` or the working tree's, and
a new ``--out`` directory each time.  Run i runs REV first when i is
even and second when it is odd.  Each run's wall and CPU seconds (the
child's user plus system time) are printed as it completes; then, for
each, both sides' medians and quartiles, the runs the change wins and
the verdict of ``pairs.py``'s ``summarize``, against the bound of
``op_p50_s`` in ``BENCHMARK.json``.

Unlike ``bench/run.py``, the command runs under the caller's environment,
with no BLAS thread pin, and each run pays a cold start: imports, the
first call's caches and the malloc pin included.  A nonzero exit stops
the tool.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def command(tree: Path, args: list, out: Path, environ=os.environ) -> tuple:
    """The argv and environment of one run of ``ddquad args`` from
    ``tree``'s ``src``, writing to ``out``."""
    path = environ.get("PYTHONPATH")
    env = {**environ, "PYTHONPATH": os.pathsep.join(
        [str(tree / "src")] + ([path] if path else []))}
    return [sys.executable, "-m", "ddquad.cli", *args, "--out", str(out)], env


def timed(argv: list, env: dict) -> tuple:
    """Wall and CPU seconds of one run of ``argv``."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return wall, (after.ru_utime + after.ru_stime
                  - before.ru_utime - before.ru_stime)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--" not in argv:
        sys.exit("usage: cli_time.py --rev REV [--runs N] -- <ddquad args>")
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rev", required=True)
    parser.add_argument("--runs", type=int, default=7)
    args = parser.parse_args(argv[:split])
    ddquad_args = argv[split + 1:]
    if args.runs < 2:
        parser.error("--runs must be >= 2")
    if not ddquad_args or "--out" in ddquad_args:
        parser.error("give a ddquad command after --, without --out")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    bound = next(m["bound"] for m in spec if m["name"] == "op_p50_s")
    runs = {"rev": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="cli-time-") as tmp:
        trees = {"rev": Path(tmp) / "rev", "change": ROOT}
        trees["rev"].mkdir()
        pairs.export(args.rev, trees["rev"])
        for i in range(args.runs):
            order = ("rev", "change") if i % 2 == 0 else ("change", "rev")
            for side in order:
                runs[side].append(timed(*command(
                    trees[side], ddquad_args, Path(tmp) / f"out-{side}-{i}")))
            print(f"run {i} ({order[0]} first): " + ", ".join(
                f"{name} {runs['rev'][-1][j]:.3f} -> "
                f"{runs['change'][-1][j]:.3f}"
                for j, name in enumerate(("wall_s", "cpu_s"))), flush=True)
    print(f"ddquad {' '.join(ddquad_args)}: {args.rev} (rev) against the "
          f"working tree (change), {args.runs} fresh processes each")
    for j, name in enumerate(("wall_s", "cpu_s")):
        s = pairs.summarize([r[j] for r in runs["rev"]],
                            [c[j] for c in runs["change"]], "lower", bound)
        print("{name}: rev {r[0]:.3f} ({r[1]:.3f}-{r[2]:.3f}), change "
              "{c[0]:.3f} ({c[1]:.3f}-{c[2]:.3f}), change faster in "
              "{wins}/{pairs}, median gap {gap:.3f} against rev IQR "
              "{iqr:.3f}: {verdict}".format(
                  name=name, r=s["rev"], c=s["change"], wins=s["wins"],
                  pairs=s["pairs"], gap=s["gap"], iqr=s["rev_iqr"],
                  verdict=s["verdict"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
