"""Repeat the benchmark over seeds and summarise its spread, or compare two checkouts.

    python3 perfbench/steady.py measure --out base.json
    python3 perfbench/steady.py pair PARENT CHANGE --out pair.json

``measure`` runs this checkout's ``run.py`` once per (workload, seed),
seeds 1..10, one run at a time, with ``run_seconds`` and every workload
of ``BENCHMARK.json``.  For every end-to-end metric it records the median,
quartiles and spread (interquartile range over the median) next to the
metric's bound.

``pair`` does the same for two checkouts that hold the same benchmark
files, alternating between them seed by seed (parent first on odd seeds,
change first on even ones), so that slow phases of the machine hit both
sides alike.  Per seed it takes how far the change is worse than the parent
in that pair, and judges the median of those shares against the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEVERITY = ["ok", "unresolved", "REGRESSION", "FAILED"]
RUNS = 10


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(values):
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def run_once(root, workload, seed):
    """One benchmark run of the checkout at ``root``; returns its metric
    values, failed operations, environment and pass wall times."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(ln for ln in lines if ln.startswith("environment: "))
    walls = next(ln for ln in lines if "wall_s of each pass:" in ln)
    return {
        "values": {name: result["metrics"][name]["value"] for name in METRICS},
        "failed": result["failed"],
        "environment": {k: v for k, v in json.loads(env.split(": ", 1)[1]).items()
                        if k not in ("workload", "seed")},
        "pass_wall_s": [float(x) for x in walls.split(":", 1)[1].split()],
    }


def side_summary(runs):
    return {
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: dict(summarise([r["values"][name] for r in runs]),
                               bound=METRICS[name]["bound"]) for name in METRICS},
        "pass_wall_s": [r["pass_wall_s"] for r in runs],
    }


def worse_share(name, parent, change):
    """How far ``change`` is worse than ``parent``, as a share of ``parent``'s
    value in the lower-is-better case; negative when it is better."""
    if METRICS[name]["better"] == "lower":
        return change / parent - 1.0
    return parent / change - 1.0


def paired_verdict(name, shares):
    bound = METRICS[name]["bound"]
    q1, median, q3 = quartiles(shares)
    if median > bound:
        verdict = "REGRESSION"
    elif q3 - q1 > bound:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"median": median, "q1": q1, "q3": q3, "bound": bound,
            "wins": sum(s < 0 for s in shares), "verdict": verdict, "values": shares}


def measure(args):
    out = {"run_seconds": SPEC["run_seconds"], "runs": RUNS, "workloads": {}}
    for workload in WORKLOADS:
        runs = [run_once(HERE.parent, workload, seed) for seed in range(1, RUNS + 1)]
        out["environment"] = runs[-1]["environment"]
        summary = out["workloads"][workload] = side_summary(runs)
        for name, s in summary["metrics"].items():
            print(f"{workload:9s} {name:16s} median {s['median']:12.6g} "
                  f"spread {s['spread']:.4f} (bound {s['bound']})", flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 1 if any(w["failed"] for w in out["workloads"].values()) else 0


def pair(args):
    roots = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for side, root in roots.items():
        if (root / "BENCHMARK.json").read_bytes() != SPEC_PATH.read_bytes():
            sys.exit(f"{side} checkout {root} has other benchmark settings than {SPEC_PATH}")
    out = {"run_seconds": SPEC["run_seconds"], "runs": RUNS, "workloads": {}}
    worst = "ok"
    for workload in WORKLOADS:
        runs = {"parent": [], "change": []}
        for seed in range(1, RUNS + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(roots[side], workload, seed))
        out["environment"] = runs["parent"][-1]["environment"]
        data = out["workloads"][workload] = {side: side_summary(r) for side, r in runs.items()}
        data["paired"] = {}
        for name in METRICS:
            shares = [worse_share(name, p["values"][name], c["values"][name])
                      for p, c in zip(runs["parent"], runs["change"])]
            v = data["paired"][name] = paired_verdict(name, shares)
            print(f"{workload:9s} {name:16s} {data['parent']['metrics'][name]['median']:12.6g} "
                  f"-> {data['change']['metrics'][name]['median']:12.6g}  paired worse by "
                  f"{v['median']:+.4f} (quartiles {v['q1']:+.4f} .. {v['q3']:+.4f}, bound "
                  f"{v['bound']}), change better in {v['wins']}/{RUNS}: {v['verdict']}",
                  flush=True)
            worst = max(worst, v["verdict"], key=SEVERITY.index)
        if data["parent"]["failed"] or data["change"]["failed"]:
            worst = "FAILED"
    out["overall"] = worst
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"overall: {worst}")
    return 1 if worst in ("REGRESSION", "FAILED") else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    m = sub.add_parser("measure", help="ten-seed spread of this checkout")
    m.add_argument("--out", required=True)
    c = sub.add_parser("pair", help="alternate two checkouts seed by seed and compare")
    c.add_argument("parent")
    c.add_argument("change")
    c.add_argument("--out", required=True)
    args = p.parse_args(argv)
    return measure(args) if args.cmd == "measure" else pair(args)


if __name__ == "__main__":
    sys.exit(main())
