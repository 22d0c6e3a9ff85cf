"""Alternating benchmark pairs: a git revision against the working tree.

    python3 tools/pairs.py --rev REV --workload W [--pairs 10] [--seed 13]
                           [--seconds 30]

Exports REV with ``git archive`` into a temporary directory, so no
worktree metadata is written, and runs ``bench/run.py --trace 0`` there
and in the working tree, once each per pair.  Pair i gives both sides
seed + i; REV runs first in even pairs and second in odd ones.  Each
pair's end-to-end metrics are printed as it completes.  Then, for each
end-to-end metric of ``BENCHMARK.json``, the tool prints each side's
median and quartiles, the pairs the change wins (ties count for
neither), and a verdict:

- ``gain``: the change wins at least nine tenths of the pairs, and its
  median is better than REV's by more than REV's interquartile range;
- ``regression``: the change's median is worse than REV's by more than
  the metric's bound (a fraction of REV's median);
- ``unresolved``: neither, and REV's interquartile range is wider than
  the bound, while not every run of the change beats every run of REV;
- ``within bound``: otherwise.

Quartiles are ``statistics.quantiles(..., method="inclusive")``.  The
tool edits nothing under ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(rev: list, change: list, better: str, bound: float) -> dict:
    """The pairs' statistics for one metric: ``rev[i]`` and ``change[i]``
    are pair i's readings, ``better`` is "lower" or "higher", and
    ``bound`` the fraction of REV's median by which the change may be
    worse."""
    if len(rev) != len(change) or len(rev) < 2:
        raise ValueError("need two or more pairs, one reading per side each")
    sign = 1.0 if better == "lower" else -1.0
    n = len(rev)
    q_rev = statistics.quantiles(rev, n=4, method="inclusive")
    q_change = statistics.quantiles(change, n=4, method="inclusive")
    med_rev, med_change = statistics.median(rev), statistics.median(change)
    iqr = q_rev[2] - q_rev[0]
    gap = sign * (med_rev - med_change) + 0.0    # > 0: the change is better
    wins = sum(sign * (r - c) > 0 for r, c in zip(rev, change))
    worse = -gap / abs(med_rev) if med_rev else -gap
    every_run_better = (max(change) < min(rev) if better == "lower"
                        else min(change) > max(rev))
    if 10 * wins >= 9 * n and gap > iqr:
        verdict = "gain"
    elif worse > bound:
        verdict = "regression"
    elif iqr > bound * abs(med_rev) and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"rev": (med_rev, q_rev[0], q_rev[2]),
            "change": (med_change, q_change[0], q_change[2]),
            "wins": wins, "pairs": n, "gap": gap, "rev_iqr": iqr,
            "worse_fraction": worse, "verdict": verdict}


def export(rev: str, dest: Path) -> None:
    """The tree of ``rev`` under ``dest``, by ``git archive``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``: its end-to-end metrics."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rev", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"rev": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {"rev": Path(tmp), "change": ROOT}
        export(args.rev, trees["rev"])
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("rev", "change") if i % 2 == 0 else ("change", "rev")
            for side in order:
                runs[side].append(run_bench(trees[side], args.workload, seed,
                                            args.seconds))
            print(f"pair {i} (seed {seed}, {order[0]} first): " + ", ".join(
                f"{m['name']} {runs['rev'][-1][m['name']]:.4g} -> "
                f"{runs['change'][-1][m['name']]:.4g}" for m in spec),
                flush=True)
    print(f"{args.workload}: {args.rev} (rev) against the working tree "
          f"(change), {args.pairs} pairs of {args.seconds:g} s, seeds "
          f"{args.seed}..{args.seed + args.pairs - 1}")
    for m in spec:
        s = summarize([r[m["name"]] for r in runs["rev"]],
                      [r[m["name"]] for r in runs["change"]],
                      m["better"], m["bound"])
        print("{name} ({unit}, {better} is better, bound {bound:.0%}): "
              "rev {r[0]:.4g} ({r[1]:.4g}-{r[2]:.4g}), change {c[0]:.4g} "
              "({c[1]:.4g}-{c[2]:.4g}), change better in {wins}/{pairs}, "
              "median gap {gap:.4g} against rev IQR {iqr:.4g}: {verdict}"
              .format(**m, r=s["rev"], c=s["change"], wins=s["wins"],
                      pairs=s["pairs"], gap=s["gap"], iqr=s["rev_iqr"],
                      verdict=s["verdict"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
