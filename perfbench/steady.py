"""Steadiness self-check: two sets of seeded runs against the bounds in BENCHMARK.json.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 --sets 2 [--workloads search certify frontend]

For every workload it makes ``--sets`` sets of ``--runs`` untraced runs,
each run of a set with its own seed and every set with the same seeds, at
``run_seconds`` from BENCHMARK.json.  For each end-to-end metric it reports
the spread of every set (distance between the first and third quartile as a
share of the median) and how far each later set's median moved from the
first set's in the worse direction.  A spread or a move above the bound
fails the check; a spread above a third of the bound is flagged.  A run
whose attempted or failed count differs from the same seed's run in the
first set fails it too: the same code on the same inputs must give the same
outcomes.  The last line of stdout is a JSON summary with the quartiles of
every metric run.py reports; ``--out`` also writes it to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    summary = json.loads((HERE / "_runs" / f"{workload}-s{seed}-t0" / "summary.json").read_text())
    return {"contract": line, "end_to_end": summary["end_to_end"]}


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3, "values": values}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first if first else 0.0
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("quartiles need at least 4 runs")

    ok = True
    summary = {"run_seconds": args.seconds, "runs": args.runs, "sets": args.sets, "workloads": {}}
    for w_index, workload in enumerate(args.workloads):
        seeds = [args.first_seed + 1000 * w_index + i for i in range(args.runs)]
        sets = [[one_run(workload, seed, args.seconds) for seed in seeds] for _ in range(args.sets)]
        report = {}
        counts = [[(run["contract"]["attempted"], run["contract"]["failed"]) for run in runs]
                  for runs in sets]
        for s, later in enumerate(counts[1:], start=1):
            for seed, want, got in zip(seeds, counts[0], later):
                if got != want:
                    ok = False
                    print(f"{workload:9s} seed {seed}: attempted/failed {got} in set {s + 1}, "
                          f"{want} in set 1 FAIL")
        totals = [[sum(c[k] for c in per_set) for k in (0, 1)] for per_set in counts]
        print(f"{workload:9s} attempted/failed per set: {totals}")
        report["attempted_failed"] = {"seeds": seeds, "per_set": counts}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[run["contract"]["metrics"][name]["value"] for run in runs] for runs in sets]
            spreads = [spread(values) for values in per_set]
            medians = [statistics.median(values) for values in per_set]
            moves = [worse_by(medians[0], m, metric["better"]) for m in medians[1:]]
            failed = any(m > bound for m in moves) or any(s > bound for s in spreads)
            loose = any(s > bound / 3 for s in spreads)
            ok = ok and not failed
            verdict = "FAIL" if failed else ("loose" if loose else "ok")
            print(f"{workload:9s} {name:16s} bound={bound:<5} spreads="
                  + ",".join(f"{s:.3f}" for s in spreads)
                  + " medians=" + ",".join(f"{m:.6g}" for m in medians)
                  + " worse_by=" + ",".join(f"{m:+.3f}" for m in moves)
                  + f" {verdict}")
            report[name] = {"spreads": spreads, "medians": medians, "worse_by": moves,
                            "verdict": verdict}
        every = [run for runs in sets for run in runs]
        full = {}
        for name in every[0]["end_to_end"]:
            values = [run["end_to_end"][name] for run in every]
            if all(isinstance(v, (int, float)) for v in values):
                full[name] = quartiles(values)
            else:
                full[name] = {"values": values}
        summary["workloads"][workload] = {"checks": report, "end_to_end": full}
    text = json.dumps(summary)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
