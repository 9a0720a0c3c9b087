"""Workloads of the zczseq benchmark and the checks on their outputs.

Each workload is a fixed list of CLI commands run in order by one client.
Every check returns ``(name, ok, detail)`` and counts as one operation in
the run's fail ratio, as does every command (ok when it exits with 0).
"""

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

PINNED = json.loads(Path(__file__).with_name("pinned.json").read_text())

# Largest |z| a (user, point) BER may have against Q(sqrt(2 Eb/N0)).  The
# check is statistical on purpose, so that a simulator drawing different
# random streams from the same model still passes.
BER_Z_LIMIT = 4.5
# The exact-integer batch kernel holds int64 windows (see correlation._windows).
WINDOW_ITEMSIZE = 8


@dataclass(frozen=True)
class Family:
    """Declared shape of a certified family and its expected verdicts."""

    directory: str
    sets: int
    K: int
    Z: int
    L: int
    Zc: int
    set_rho: tuple
    set_class: str
    union_rho: tuple
    union_class: str
    pinned: str  # key of the .seq digests in pinned.json


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple  # (label, argv) in run order
    main: str  # label of the command reported as main_s
    second: str  # label of the command reported as second_s
    rate_name: str  # what main_rate_per_s is called in the paper's terms
    work: str  # key of output_counts() that main_rate_per_s divides by main_s
    family: Family | None = None
    reads_family: int = 0  # commands that load the family directory


CERTIFY_FAMILY = Family("fam", 4, 16, 128, 4096, 31, (1, 1), "optimal", (31, 32), "near-optimal",
                        "certify_seq")
EXAMPLE_FAMILY = Family("ex", 2, 8, 16, 256, 7, (1, 1), "optimal", (7, 8), "near-optimal",
                        "example_seq")
EXAMPLE_DEEP_CHECKS = 4352

SIM_SYSTEM = {
    "construction": {"q": 2, "m": 4, "k": 2, "s": 2},
    "clusters": 4,
    "users_per_cluster": 8,
    "max_delay_chips": 3,
}
SIM_NOISY = {"snr_db": [0.0, 2.0, 4.0], "iterations": 10, "bits_per_iteration": 10_000,
             "observed_per_cluster": 1}
# Large enough (about 0.3 s) that second_s on simulate is not dominated by
# per-command overhead.
SIM_NOISELESS = {"noiseless": True, "iterations": 1, "bits_per_iteration": 16_000,
                 "observed_per_cluster": 8}
SIM_ROWS = SIM_SYSTEM["clusters"] * SIM_NOISY["observed_per_cluster"] * len(SIM_NOISY["snr_db"])

WORKLOADS = {
    "certify": Workload(
        "certify",
        (("construct", ["construct", "-q", "2", "-m", "7", "-k", "3", "-s", "2", "-o", "fam"]),
         ("verify", ["verify", "fam"])),
        main="verify", second="construct", rate_name="cells_per_s", work="main_cells",
        family=CERTIFY_FAMILY, reads_family=1),
    "example": Workload(
        "example",
        (("construct", ["construct", "--example1", "-o", "ex"]),
         ("deep", ["verify", "ex", "--deep"]),
         ("spectrum", ["spectrum", "ex", "-o", "spectrum.csv"])),
        main="deep", second="spectrum", rate_name="deep_checks_per_s", work="chunk_checks",
        family=EXAMPLE_FAMILY, reads_family=2),
    "simulate": Workload(
        "simulate",
        (("simulate", ["simulate", "sim.json", "-o", "sim"]),
         ("noiseless", ["simulate", "noiseless.json", "-o", "noiseless"])),
        main="simulate", second="noiseless", rate_name="sim_bits_per_s", work="sim_bits"),
}

INJECTIONS = {"seq": ("certify", "example"), "csv": ("example",), "ber": ("simulate",)}


def prepare(workload, directory, seed):
    """Write the workload's inputs; only simulate takes the seed."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if workload.name == "simulate":
        for name, extra in (("sim.json", SIM_NOISY), ("noiseless.json", SIM_NOISELESS)):
            config = dict(SIM_SYSTEM, seed=seed, **extra)
            (directory / name).write_text(json.dumps(config, indent=2) + "\n")


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _reports(workload, directory):
    """Certificate reports of a workload: construct's (in the manifest), verify's."""
    fam = Path(directory) / workload.family.directory
    manifest = json.loads((fam / "manifest.json").read_text())
    return {"construct": manifest["certificates"],
            "verify": json.loads((fam / "certificates.json").read_text())}


def _certificates_pass(report):
    certs = report["sets"] + report["inter"] + [report["union"]]
    bad = [c.get("pair", c["parameters"]) for c in certs if not c["pass"] or c["witnesses"]]
    return (report["pass"] and not bad), f"{len(certs)} certificates, failing: {bad}"


def _declared(report, fam):
    problems = []
    if len(report["sets"]) != fam.sets:
        problems.append(f"{len(report['sets'])} sets")
    for cert in report["sets"]:
        got = (cert["parameters"]["K"], cert["parameters"]["Z"], cert["parameters"]["L"],
               tuple(cert["rho"]), cert["classification"])
        if got != (fam.K, fam.Z, fam.L, fam.set_rho, fam.set_class):
            problems.append(f"set {got}")
    if len(report["inter"]) != fam.sets * (fam.sets - 1) // 2:
        problems.append(f"{len(report['inter'])} inter-set reports")
    for cert in report["inter"]:
        if (cert["parameters"]["Zc"], cert["parameters"]["L"]) != (fam.Zc, fam.L):
            problems.append(f"inter {cert['pair']} {cert['parameters']}")
    u = report["union"]
    got = (u["parameters"]["K"], u["parameters"]["Z"], u["parameters"]["L"], tuple(u["rho"]),
           u["classification"])
    if got != (fam.sets * fam.K, fam.Zc, fam.L, fam.union_rho, fam.union_class):
        problems.append(f"union {got}")
    return not problems, "; ".join(problems) or "as declared"


def check_family_digests(directory, fam):
    root = Path(directory) / fam.directory
    pinned = PINNED[fam.pinned]
    got = {str(p.relative_to(root)): _sha256(p) for p in root.glob("*/*.seq")}
    differ = sorted(k for k in pinned.keys() | got.keys() if pinned.get(k) != got.get(k))
    return not differ, f"{len(pinned)} pinned .seq files, differing: {differ[:8]}"


def check_spectrum_csv(path):
    digest = _sha256(path)
    return digest == PINNED["example_spectrum_csv"], f"sha256 {digest}"


def read_ber_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def theoretical_ber(ebn0_db):
    """Q(sqrt(2 Eb/N0)) for BPSK on AWGN."""
    return 0.5 * math.erfc(math.sqrt(10.0 ** (ebn0_db / 10.0)))


def check_ber_rows(rows, expected_rows=SIM_ROWS, z_limit=BER_Z_LIMIT):
    worst = 0.0
    for row in rows:
        p, n = theoretical_ber(float(row["snr_db"])), int(row["bits"])
        z = (float(row["ber"]) - p) / math.sqrt(p * (1.0 - p) / n)
        worst = max(worst, abs(z))
    ok = len(rows) == expected_rows and worst <= z_limit
    return ok, f"{len(rows)} rows, worst |z| {worst:.3f} (limit {z_limit})"


def check_noiseless(rows):
    errors = sum(round(float(r["ber"]) * int(r["bits"])) for r in rows)
    expected = SIM_SYSTEM["clusters"] * SIM_NOISELESS["observed_per_cluster"]
    return bool(rows) and len(rows) == expected and errors == 0, \
        f"{len(rows)} users, {errors} errors"


def check_outputs(workload, directory):
    """Checks on the outputs of one pass over the workload's timed commands."""
    directory = Path(directory)
    out = []
    if workload.family is not None:
        reports = _reports(workload, directory)
        for source, report in reports.items():
            out.append((f"{source} certificates pass", *_certificates_pass(report)))
            out.append((f"{source} declared parameters", *_declared(report, workload.family)))
        out.append(("seq digests", *check_family_digests(directory, workload.family)))
    if workload.name == "example":
        deep = reports["verify"]["deep"]
        checked = deep["chunk_decomposition"]["checked"]
        out.append(("deep checks", deep["pass"] and checked == EXAMPLE_DEEP_CHECKS,
                    f"pass={deep['pass']} checked={checked}"))
        out.append(("spectrum csv digest", *check_spectrum_csv(directory / "spectrum.csv")))
    if workload.name == "simulate":
        out.append(("ber bound", *check_ber_rows(read_ber_csv(directory / "sim" / "ber.csv"))))
        out.append(("noiseless zero errors",
                    *check_noiseless(read_ber_csv(directory / "noiseless" / "ber.csv"))))
    return out


def inject(workload, directory, kind):
    """Corrupt one output after the commands ran (negative controls)."""
    directory = Path(directory)
    if kind == "seq":
        path = directory / workload.family.directory / "0" / "0.seq"
        lines = path.read_text().splitlines()
        lines[4] = str(1 - int(lines[4]))  # first chip after the 4-line header (q = 2)
        path.write_text("\n".join(lines) + "\n")
    elif kind == "csv":
        path = directory / "spectrum.csv"
        lines = path.read_text().splitlines()
        i, j, u, re, im = lines[1].split(",")
        lines[1] = ",".join([i, j, u, str(int(re) - 1), im])
        path.write_text("\n".join(lines) + "\n")
    elif kind == "ber":
        path = directory / "sim" / "ber.csv"
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[2] = "0.5"
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")


def output_counts(workload, directory):
    """Work counts read from the program's own output files."""
    directory = Path(directory)
    counts = {"cells": 0, "main_cells": 0, "window_bytes_max": 0, "violations": 0,
              "chunk_checks": 0, "csv_rows": 0, "family_bytes": 0, "report_bytes": 0,
              "sim_bits": 0, "sim_bits_all": 0, "sim_iterations": 0}
    if workload.family is not None:
        fam_dir = directory / workload.family.directory
        for source, report in _reports(workload, directory).items():
            cells, window, violations = _certificate_work(report)
            counts["cells"] += cells
            counts["window_bytes_max"] = max(counts["window_bytes_max"], window)
            counts["violations"] += violations
            if source == "verify":
                counts["main_cells"] = cells
                if report.get("deep"):
                    counts["chunk_checks"] = report["deep"]["chunk_decomposition"]["checked"]
        counts["family_bytes"] = sum(p.stat().st_size for p in fam_dir.glob("*/*.seq")) + \
            (fam_dir / "manifest.json").stat().st_size
        counts["report_bytes"] += (fam_dir / "certificates.json").stat().st_size
    spectrum = directory / "spectrum.csv"
    if spectrum.exists():
        with open(spectrum, newline="") as fh:
            rows = list(csv.DictReader(fh))
        counts["csv_rows"] = len(rows)
        # correlation_spectrum takes all L shifts of a K-sequence block.
        K = 1 + max(int(r["pair_i"]) for r in rows)
        L = 1 + max(int(r["shift"]) for r in rows)
        counts["window_bytes_max"] = max(counts["window_bytes_max"],
                                         K * L * L * WINDOW_ITEMSIZE)
    if workload.name == "simulate":
        # The noisy run's bits are main_rate_per_s's work; the qscdma layer
        # counts covers both runs, as its spans do.
        for name, config in (("sim", SIM_NOISY), ("noiseless", SIM_NOISELESS)):
            rows = read_ber_csv(directory / name / "ber.csv")
            bits = sum(int(r["bits"]) for r in rows)
            points = len({r["snr_db"] for r in rows})
            per_point = int(rows[0]["bits"]) if rows else 0
            counts["sim_iterations"] += points * per_point // config["bits_per_iteration"]
            counts["sim_bits_all"] += bits
            if name == "sim":
                counts["sim_bits"] = bits
            counts["report_bytes"] += sum(p.stat().st_size for p in (directory / name).iterdir())
    return counts


def _certificate_work(report):
    """(periodic-correlation values checked, largest window tensor in bytes
    as computed from the shapes, witnesses) for one certificate report."""
    sizes = [c["parameters"]["K"] for c in report["sets"]]
    cells = window = 0
    for cert in report["sets"] + [report["union"]]:
        p = cert["parameters"]
        cells += p["K"] * p["K"] * (p["Z"] + 1)
        window = max(window, p["K"] * (p["Z"] + 1) * p["L"] * WINDOW_ITEMSIZE)
    for cert in report["inter"]:
        a, b = (sizes[t] for t in cert["pair"])
        p = cert["parameters"]
        cells += 2 * a * b * (p["Zc"] + 1)
        window = max(window, max(a, b) * (p["Zc"] + 1) * p["L"] * WINDOW_ITEMSIZE)
    violations = sum(len(c["witnesses"]) for c in report["sets"] + report["inter"] +
                     [report["union"]])
    return cells, window, violations
