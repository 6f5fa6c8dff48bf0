#!/usr/bin/env python3
"""Same-host A/B of two commits on one perfbench workload.

    python3 tools/ab.py PARENT CHANGE --workload serve_journal --seed 2 \\
        --pairs 10 [--seconds 20] [--claim wall_s] [--work-dir .ab_work]

Checks out each commit with `git worktree add --detach` under the work
directory and runs the benchmark command of BENCHMARK.json
(perfbench/run.py) in each checkout, with a CARGO_TARGET_DIR of its
own so the two builds never mix.  One discarded warm-up run per side
builds it; then N pairs run, alternating which side goes first.

For every end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles and how many pairs each side won, then a verdict:

  - a claimed metric (--claim) is a gain when the change wins at least
    9 of every 10 pairs (ties count for neither side) and the medians
    differ by more than the parent's interquartile range;
  - any metric regresses when the change's median is worse than the
    parent's by more than the metric's `bound` (a fraction);
  - the change may not fail a larger share of checked outputs.

Exit status: 0 when no metric regresses and every claim is a gain, 1
otherwise, 2 when a commit cannot be checked out, built or run.
Worktrees and builds stay in the work directory for the next
comparison; delete it and run `git worktree prune` to clean up.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Share of pairs the change must win for a gain.
WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) of the samples, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def improvement(parent, change, better):
    """How much better `change` is than `parent`; > 0 is better."""
    return parent - change if better == "lower" else change - parent


def pair_wins(parent, change, better):
    """(change wins, parent wins, ties) over the pairs in run order."""
    change_wins = parent_wins = ties = 0
    for p, c in zip(parent, change):
        delta = improvement(p, c, better)
        if delta > 0:
            change_wins += 1
        elif delta < 0:
            parent_wins += 1
        else:
            ties += 1
    return change_wins, parent_wins, ties


def is_gain(parent, change, better):
    """The pair rule: >= WIN_SHARE of all pairs won, and a median gap
    wider than the parent's interquartile range."""
    if not parent or len(parent) != len(change):
        return False
    wins, _, _ = pair_wins(parent, change, better)
    q1, parent_median, q3 = quartiles(parent)
    gap = improvement(parent_median, quartiles(change)[1], better)
    return wins >= math.ceil(WIN_SHARE * len(parent)) and gap > q3 - q1


def worsening(parent_median, change_median, better):
    """Relative worsening of the change's median (0 when not worse)."""
    worse = -improvement(parent_median, change_median, better)
    if worse <= 0:
        return 0.0
    if parent_median == 0:
        return math.inf
    return worse / abs(parent_median)


def evaluate(metrics, parent_runs, change_runs, claims):
    """Judge the runs of each side.

    `metrics` is BENCHMARK.json's end_to_end list; each run is the
    result object perfbench prints last ({"correct", "attempted",
    "failed", "metrics": {name: {"value", "unit"}}}).  Returns
    (rows, notes, ok): one row dict per metric, verdict lines, and
    whether the change passes.
    """
    rows, notes, ok = [], [], True
    for m in metrics:
        name, better = m["name"], m["better"]
        parent = [r["metrics"][name]["value"] for r in parent_runs
                  if name in r.get("metrics", {})]
        change = [r["metrics"][name]["value"] for r in change_runs
                  if name in r.get("metrics", {})]
        if len(parent) != len(parent_runs) or len(change) != len(change_runs):
            notes.append(f"{name}: missing from some runs")
            ok = False
            continue
        wins = pair_wins(parent, change, better)
        p_q, c_q = quartiles(parent), quartiles(change)
        worse = worsening(p_q[1], c_q[1], better)
        gain = is_gain(parent, change, better)
        regressed = worse > m["bound"]
        rows.append({"name": name, "unit": m.get("unit", ""),
                     "parent": p_q, "change": c_q, "wins": wins,
                     "gain": gain, "regressed": regressed,
                     "change_pct": 100.0 * (c_q[1] - p_q[1]) / p_q[1]
                     if p_q[1] else 0.0})
        if regressed:
            ok = False
            notes.append(f"{name}: median worse by {100 * worse:.1f}%, "
                         f"past its bound of {100 * m['bound']:.0f}%")
        if name in claims and not gain:
            ok = False
            notes.append(f"{name}: claimed gain not shown "
                         f"({wins[0]}/{len(parent)} pairs won)")
    unknown = sorted(set(claims) - {m["name"] for m in metrics})
    if unknown:
        ok = False
        notes.append("claimed metrics not in BENCHMARK.json: " +
                     ", ".join(unknown))

    def failures(runs):
        return (sum(r.get("failed", 0) for r in runs),
                sum(r.get("attempted", 0) for r in runs))

    pf, pa = failures(parent_runs)
    cf, ca = failures(change_runs)
    notes.append(f"failed outputs: parent {pf} of {pa}, change {cf} of {ca}")
    if (cf / ca if ca else 0.0) > (pf / pa if pa else 0.0):
        ok = False
        notes.append("the change fails a larger share of outputs")
    if not all(r.get("correct", False) for r in change_runs):
        ok = False
        notes.append("a change run reported incorrect output")
    return rows, notes, ok


def format_table(rows):
    lines = [f"{'metric':14s} {'parent median [q1, q3]':>34s} "
             f"{'change median [q1, q3]':>34s} {'wins c/p/tie':>12s} "
             f"{'change':>8s}  verdict"]
    for r in rows:
        def side(q):
            return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {r['unit']}"
        verdict = ("gain" if r["gain"] else
                   "REGRESSED" if r["regressed"] else "within bound")
        lines.append(f"{r['name']:14s} {side(r['parent']):>34s} "
                     f"{side(r['change']):>34s} "
                     f"{'/'.join(map(str, r['wins'])):>12s} "
                     f"{r['change_pct']:+7.1f}%  {verdict}")
    return lines


def fail(message):
    print(f"ab: {message}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    out = subprocess.run(["git", "-C", str(ROOT), *args],
                         capture_output=True, text=True)
    if out.returncode != 0:
        fail(f"git {' '.join(args)}: {out.stderr.strip()}")
    return out.stdout.strip()


def checkout(commit, work_dir, side):
    """A detached worktree of `commit` under the work directory."""
    sha = git("rev-parse", "--verify", f"{commit}^{{commit}}")
    tree = work_dir / f"{side}-{sha[:12]}"
    if not (tree / ".git").exists():
        git("worktree", "add", "--detach", str(tree), sha)
    return sha, tree


def run_side(bench, tree, target, args):
    cmd = list(bench["command"]) + [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds)]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                         text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if out.returncode not in (0, 1) or not isinstance(result, dict):
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        fail(f"benchmark run in {tree} failed (exit {out.returncode})")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--claim", action="append", default=[],
                    help="end-to-end metric the change claims to improve")
    ap.add_argument("--work-dir", default=str(ROOT / ".ab_work"))
    args = ap.parse_args()
    if args.pairs < 1:
        fail("--pairs must be >= 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload '{args.workload}'")
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    work_dir = Path(args.work_dir).resolve()
    work_dir.mkdir(parents=True, exist_ok=True)

    sides = {}
    for side, commit in (("parent", args.parent), ("change", args.change)):
        sha, tree = checkout(commit, work_dir, side)
        target = work_dir / f"{side}-{sha[:12]}-target"
        sides[side] = (sha, tree, target)
        run_side(bench, tree, target, args)  # build and warm up

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            _, tree, target = sides[side]
            runs[side].append(run_side(bench, tree, target, args))
        print(f"ab: pair {i + 1}/{args.pairs} done", file=sys.stderr)

    rows, notes, ok = evaluate(bench["end_to_end"], runs["parent"],
                               runs["change"], args.claim)
    print(f"ab: {args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s, parent {sides['parent'][0][:10]} vs "
          f"change {sides['change'][0][:10]}")
    for line in format_table(rows) + notes:
        print(line)
    print("verdict: " + ("PASS" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
