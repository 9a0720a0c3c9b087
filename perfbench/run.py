"""zczseq benchmark: one client runs a workload's CLI commands in a loop.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 36 --trace 0

Each pass over the workload is a fresh child process (``child.py``), one at
a time, that imports zczseq and calls ``zczseq.cli.main`` for every command
in order.  The loop repeats passes until ``--seconds`` have elapsed; it
reports set-up time and memory as medians and command times as means over
the passes (see ``end_to_end``).  Before every pass, one more child only
imports zczseq, so set-up time has many samples spread over the run.
Every pass's outputs are checked.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics of the median traced pass.  The
last stdout line is the JSON result; the lines before it give the same
numbers under per-workload names, and the environment.

``--inject seq|csv|ber`` corrupts one output after each pass (a negative
control): the run must then report failed operations.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = Path(__file__).with_name("child.py")
# Import-only children before the loop; one more runs before every pass.
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
BLAS_THREADS = 1

# Metric names and units are those of BENCHMARK.json; the code below must
# produce exactly these names.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
LAYERS = ("gbf", "construction", "correlation", "qscdma", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(checks.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject", choices=sorted(checks.INJECTIONS), default=None)
    args = p.parse_args(argv)
    if args.inject and args.workload not in checks.INJECTIONS[args.inject]:
        p.error(f"--inject {args.inject} applies to {checks.INJECTIONS[args.inject]}")
    return args


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["ZCZSEQ_WORKERS"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(spec, cwd, env):
    """Run one child to completion; returns (result dict or None, setup seconds)."""
    cwd.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, result=str(cwd / "result.json"))
    spec_path = cwd / "spec.json"
    spec_path.write_text(json.dumps(spec))
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), str(spec_path)], cwd=cwd, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"child timed out after {CHILD_TIMEOUT_S} s\n")
        return None, None
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(proc.stderr[-2000:])
        return None, None
    result = json.loads(result_path.read_text())
    return result, result["t_imported"] - start


class Ledger:
    """Operations attempted and failed: every command and every output check."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def check(self, fn, *args):
        try:
            results = fn(*args)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            results = [(f"{fn.__name__} readable", False, repr(exc))]
        for name, ok, detail in results:
            self.record(name, ok, detail)


def run_pass(workload, args, directory, env, traced, ledger):
    checks.prepare(workload, directory, args.seed)
    spec = {"commands": [argv for _, argv in workload.commands], "trace": traced,
            "run_id": f"{workload.name}-seed{args.seed}-{directory.name}"}
    result, setup = spawn(spec, directory, env)
    if result is None:
        for label, _ in workload.commands:
            ledger.record(label, False, "child process failed")
        return None, None
    for (label, _), cmd in zip(workload.commands, result["commands"]):
        ledger.record(label, cmd["rc"] == 0, f"exit code {cmd['rc']}")
    if args.inject:
        checks.inject(workload, directory, args.inject)
    ledger.check(checks.check_outputs, workload, directory)
    try:
        counts = checks.output_counts(workload, directory)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        ledger.record("output counts", False, repr(exc))
        return None, setup
    times = {label: cmd["seconds"]
             for (label, _), cmd in zip(workload.commands, result["commands"])}
    sample = {
        "times": times,
        "wall_s": sum(times.values()),
        "peak_rss_mib": result["peak_rss_mib"],
        "stdout_bytes": sum(cmd["stdout_bytes"] for cmd in result["commands"]),
        "counts": counts,
        "spans": result.get("spans"),
        "psi_chips": result.get("psi_chips", 0),
    }
    return sample, setup


def span_totals(spans):
    """Per span name: calls, inclusive seconds, self seconds (duration minus
    the time its child spans cover)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for idx, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        incl[name] += end - start
        self_s[name] += end - start - covered[idx]
    return calls, incl, self_s


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(workload, sample):
    calls, incl, self_s = span_totals(sample["spans"])
    c = sample["counts"]
    layer_self = {layer: sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
                  for layer in LAYERS}
    verify_s = incl["correlation.verify_zcz"] + incl["correlation.verify_inter_zccz"]
    return {
        "gbf.psi_calls": calls["gbf.psi"],
        "gbf.psi_s": incl["gbf.psi"],
        "gbf.truth_table_calls": calls["gbf.truth_table"],
        "gbf.truth_table_s": incl["gbf.truth_table"],
        "gbf.chips_per_s": _rate(sample["psi_chips"], incl["gbf.psi"]),
        "gbf.self_s": layer_self["gbf"],
        "construction.build_s": incl["construction.build_multiple_zcz"],
        "construction.export_s": incl["construction.export_family"],
        "construction.export_bytes": c["family_bytes"] * calls["construction.export_family"],
        "construction.load_s": incl["construction.load_family"],
        "construction.load_bytes": c["family_bytes"] * workload.reads_family,
        "construction.ccc_build_s": incl["construction.build_ccc_family"],
        "construction.chunk_checks": c["chunk_checks"],
        "construction.chunk_check_self_s": self_s["construction.check_chunk_decomposition"],
        "construction.self_s": layer_self["construction"],
        "correlation.verify_zcz_calls": calls["correlation.verify_zcz"],
        "correlation.verify_zcz_s": incl["correlation.verify_zcz"],
        "correlation.verify_inter_calls": calls["correlation.verify_inter_zccz"],
        "correlation.verify_inter_s": incl["correlation.verify_inter_zccz"],
        "correlation.cells": c["cells"],
        "correlation.cells_per_s": _rate(c["cells"], verify_s),
        "correlation.window_bytes_max": c["window_bytes_max"],
        "correlation.violations": c["violations"],
        "correlation.accf_calls": calls["correlation.accf"],
        "correlation.accf_s": incl["correlation.accf"],
        "correlation.pccf_calls": calls["correlation.pccf"],
        "correlation.spectrum_s": incl["correlation.correlation_spectrum"],
        "correlation.csv_rows": c["csv_rows"],
        "correlation.csv_write_s": incl["correlation.write_csv"],
        "correlation.self_s": layer_self["correlation"],
        "qscdma.simulate_ber_s": incl["qscdma.simulate_ber"],
        "qscdma.iterations": c["sim_iterations"],
        "qscdma.iteration_s": incl["qscdma.simulate_ber"] / c["sim_iterations"]
        if c["sim_iterations"] else 0.0,
        "qscdma.bits_per_s": _rate(c["sim_bits_all"], incl["qscdma.simulate_ber"]),
        "qscdma.self_s": layer_self["qscdma"],
        "cli.self_s": layer_self["cli"],
        "cli.report_bytes": sample["stdout_bytes"] + c["report_bytes"],
        "trace.wall_s": sample["wall_s"],
        "trace.spans": len(sample["spans"]),
    }


def median_sample(samples):
    """The pass whose wall time is the (lower) median, so its layer
    metrics add up as measured."""
    ordered = sorted(samples, key=lambda s: s["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def end_to_end(workload, samples, setups):
    """Set-up and memory as medians; command times as means over the passes.

    On a shared machine pass times are bimodal (quiet and contended
    moments), so the median pass jumps between the modes from run to run,
    while the mean, which is the closed loop's time per pass, moves with
    the share of contended passes only.
    """
    main_times = [s["times"][workload.main] for s in samples]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(s["wall_s"] for s in samples),
        "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in samples),
        "main_s": statistics.fmean(main_times),
        "second_s": statistics.fmean(s["times"][workload.second] for s in samples),
        "main_rate_per_s": sum(s["counts"][workload.work] for s in samples) / sum(main_times),
    }


def commit_id():
    """HEAD commit when the checkout is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(args, child_env_info):
    digest = hashlib.sha256()
    for path in sorted((SRC / "zczseq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return dict(
        commit=commit_id(),
        src_sha256=digest.hexdigest(),
        nproc=os.cpu_count(),
        cpu=cpu_model(),
        blas_threads=BLAS_THREADS,
        workload=args.workload,
        seed=args.seed,
        **(child_env_info or {}),
    )


def bench(workload, args, run_dir):
    env = child_env()
    ledger = Ledger()
    setups, samples, traced_samples = [], [], []

    def probe(name, with_environment=False):
        result, setup = spawn({"environment": with_environment}, run_dir / name, env)
        ledger.record("setup probe", result is not None, "child process failed")
        if result is not None:
            setups.append(setup)
            return result.get("environment")
        return None

    env_info = probe("probe-env", with_environment=True)
    for i in range(1, SETUP_PROBES):
        probe(f"probe{i}")
    deadline = time.monotonic() + args.seconds
    i = 0
    while True:
        probe(f"probe-pass{i}")
        traced = bool(args.trace) and i % 2 == 1
        directory = run_dir / f"pass{i}"
        sample, setup = run_pass(workload, args, directory, env, traced, ledger)
        shutil.rmtree(directory, ignore_errors=True)
        if setup is not None:
            setups.append(setup)
        if sample is not None:
            (traced_samples if traced else samples).append(sample)
        i += 1
        if time.monotonic() >= deadline and (not args.trace or i >= 2):
            break

    lines = []
    if args.trace:
        units = PER_LAYER_UNITS
        metrics = dict.fromkeys(units, 0.0)
        if samples and traced_samples:
            rep = median_sample(traced_samples)
            metrics.update(layer_metrics(workload, rep))
            metrics["trace.overhead_s"] = (
                statistics.median(s["wall_s"] for s in traced_samples)
                - statistics.median(s["wall_s"] for s in samples))
            closure = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
            ledger.record("layer self times add up to traced wall_s",
                          abs(closure - rep["wall_s"]) <= 0.01 * rep["wall_s"] + 1e-3,
                          f"{closure:.6f} vs {rep['wall_s']:.6f}")
        lines.append(f"per-layer metrics of the median traced pass "
                     f"({len(traced_samples)} traced, {len(samples)} untraced passes):")
    else:
        units = END_TO_END_UNITS
        metrics = dict.fromkeys(units, 0.0)
        if samples and setups:
            metrics.update(end_to_end(workload, samples, setups))
            lines.extend(paper_terms(workload, samples, setups, ledger))
        lines.append("end-to-end metrics (setup_s, peak_rss_mib: median; times: mean):")
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics not in BENCHMARK.json: {sorted(metrics.keys() - units)}")
    for name, value in metrics.items():
        lines.append(f"  {name:36s} {value:14.6g} {units[name]}")
    for failure in ledger.failures[:20]:
        lines.append(f"FAILED {failure}")
    lines.append("environment: " + json.dumps(environment(args, env_info), sort_keys=True))
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }
    return lines, result


def paper_terms(workload, samples, setups, ledger):
    """The end-to-end numbers under their per-workload names, as best, median
    and mean pass (set-up: over the children), with the sample counts."""
    series = [("setup_s", setups, "s"),
              ("wall_s", [s["wall_s"] for s in samples], "s"),
              ("peak_rss_mib", [s["peak_rss_mib"] for s in samples], "MiB")]
    series += [(f"{label}_s", [s["times"][label] for s in samples], "s")
               for label, _ in workload.commands]
    rates = [_rate(s["counts"][workload.work], s["times"][workload.main]) for s in samples]
    series.append((workload.rate_name, rates, "1/s"))
    out = [f"{workload.name}: {len(samples)} passes, {len(setups)} set-ups "
           f"(main_s = {workload.main}_s, second_s = {workload.second}_s, "
           f"main_rate_per_s = {workload.rate_name})",
           f"  {'':24s} {'best':>12s} {'median':>12s} {'mean':>12s}"]
    for name, v, unit in series:
        best = max(v) if unit == "1/s" else min(v)
        out.append(f"  {name:24s} {best:12.6g} {statistics.median(v):12.6g} "
                   f"{statistics.fmean(v):12.6g} {unit}")
    out.append(f"  {'fail_ratio':24s} {len(ledger.failures) / max(ledger.attempted, 1):12.6g}")
    out.append("  wall_s of each pass: " + " ".join(f"{s['wall_s']:.4f}" for s in samples))
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "zczseq" / "cli.py").is_file():
        print(f"error: no zczseq sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workload = checks.WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        lines, result = bench(workload, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
