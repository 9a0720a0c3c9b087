"""Command-line front end: construct, verify, spectrum, simulate.

Exit codes: 0 success, 1 usage or I/O error, 2 certificate failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__, construction, correlation, qscdma
from .gbf import parse_gbf_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERT_FAIL = 2


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; 2 is reserved for
    # certificate failures here, so route usage problems through code 1.
    def error(self, message):
        raise CliUsageError(message)


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: expected comma-separated integers such as 0,2"
        ) from None


def _pair_list(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        a, _, b = tok.partition("-")
        try:
            pairs.append((int(a), int(b)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid value {text!r}: expected pairs such as 1-2,2-3"
            ) from None
    return tuple(pairs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zczseq", description=__doc__)
    parser.add_argument("--version", action="version", version=f"zczseq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build a family and write it to disk")
    con.add_argument("--example1", action="store_true", help="use the bundled worked example")
    con.add_argument("-q", type=int, help="even modulus")
    con.add_argument("-m", type=int, help="base variable count")
    con.add_argument("-k", type=int, help="coupling order")
    con.add_argument("-s", type=int, help="family-splitting order (number of sets = 2^s)")
    con.add_argument("--J", type=_int_list, default=None, help="comma list, ordered removable vertices")
    con.add_argument("--pi", type=_int_list, default=None, help="comma list, path order permutation")
    con.add_argument("--f", dest="f_path", default=None, help="path to a base function in GBF text format")
    con.add_argument("--h-c", type=_int_list, default=None, help="comma bits c_1..c_{k+1}")
    con.add_argument("--h-d", type=_pair_list, default=None, help="cross-term pairs like 1-2,2-3")
    con.add_argument("--h-e", type=_int_list, default=None, help="comma bits e_0..e_{k+1}")
    con.add_argument("--h-ep", type=int, default=None, help="constant bit of the seed function")
    con.add_argument("--no-certify", action="store_true", help="skip certificates (just build and write)")
    con.add_argument("-o", "--out", required=True, help="output directory")
    con.set_defaults(func=cmd_construct)

    ver = sub.add_parser("verify", help="re-certify a family directory")
    ver.add_argument("directory")
    ver.add_argument("--zcz", type=int, default=None, help="claimed per-set zone width (default: header)")
    ver.add_argument("--zccz", type=int, default=None, help="claimed inter-set zone width (default: header)")
    ver.add_argument("--deep", action="store_true",
                     help="also run the seed-cancellation and chunk-decomposition checks")
    ver.add_argument("--report", default=None, help="certificate JSON path (default: DIR/certificates.json)")
    ver.set_defaults(func=cmd_verify)

    spec = sub.add_parser("spectrum", help="dump the all-pairs periodic correlation table as CSV")
    spec.add_argument("directory")
    spec.add_argument("-o", "--out", required=True, help="CSV output path")
    spec.add_argument("--max-cells", type=int, default=correlation.DEFAULT_SPECTRUM_CELL_CAP)
    spec.set_defaults(func=cmd_spectrum)

    sim = sub.add_parser("simulate", help="run the multi-cluster uplink Monte-Carlo")
    sim.add_argument("config", help="JSON simulation config")
    sim.add_argument("-o", "--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)
    return parser


def _params_from_args(args) -> construction.ConstructionParams:
    if args.example1:
        return construction.example1_params()
    if None in (args.q, args.m, args.k, args.s):
        raise CliUsageError("construct needs --example1 or all of -q, -m, -k, -s")
    f = None
    if args.f_path:
        f = parse_gbf_text(Path(args.f_path).read_text())
    h = None
    if any(v is not None for v in (args.h_c, args.h_d, args.h_e, args.h_ep)):
        if args.h_c is None:
            raise CliUsageError("--h-d/--h-e/--h-ep need --h-c as well")
        construction._check_seed_k(args.h_c, args.k)
        h = construction.HCoeffs(
            c=args.h_c,
            d_pairs=args.h_d or (),
            e=args.h_e or (),
            e_prime=args.h_ep or 0,
        )
    return construction.default_params(
        args.q, args.m, args.k, args.s, J=args.J, pi=args.pi, f=f, h=h
    )


def _certify(family: construction.MultipleZczFamily, deep: bool = False) -> dict:
    """Run every certificate for a family; returns a JSON-ready summary."""
    set_certs, inter, union_cert = correlation.certify_family(
        family.union, family.sizes, family.Z, family.Zc)
    report: dict = {
        "sets": [cert.to_json_dict() for cert in set_certs],
        "inter": [{**rep.to_json_dict(), "pair": [a, b]} for (a, b), rep in inter.items()],
        "union": union_cert.to_json_dict(),
        "deep": None,
    }
    ok = all(c.passed for c in (*set_certs, *inter.values(), union_cert))
    if deep:
        report["deep"] = _deep_checks(family)
        ok &= report["deep"]["pass"]
    report["pass"] = bool(ok)
    return report


def _deep_checks(family: construction.MultipleZczFamily) -> dict:
    if family.params is None:
        raise CliUsageError("--deep needs construction parameters in the manifest")
    try:
        params = family._params
    except ValueError as exc:
        raise CliUsageError(f"--deep: the manifest {exc}") from None
    cancel = construction.check_seed_cancellation(construction.seed_polynomial(params.h))
    codes = construction.build_ccc_family(params)
    sets, seqs = range(len(family.sizes)), range(family.sizes[0])
    checked, mismatches = 0, []
    for cell in itertools.product(sets, sets, seqs, seqs):
        reports = construction.check_chunk_decomposition(family, *cell, codes=codes)
        checked += len(reports)
        mismatches += ([*cell, tau] for tau, rep in enumerate(reports) if not rep.passed)
    return {
        "pass": cancel.passed and not mismatches,
        "seed_cancellation": {"pass": cancel.passed, "failures": list(cancel.failures)},
        "chunk_decomposition": {"pass": not mismatches, "checked": checked,
                                "mismatches": mismatches[:16]},
    }


def _rho_str(rho: Fraction) -> str:
    return str(rho.numerator) if rho.denominator == 1 else f"{rho.numerator}/{rho.denominator}"


def _print_family_summary(family):
    K, union, binary = family.sizes[0], family.union, family.union.binary
    print(f"sets: {len(family.sizes)}  sequences/set: {K}  length: {family.L}")
    print(f"zone width Z: {family.Z}  inter-set zone Zc: {family.Zc}")
    rho, cls = correlation.performance_parameter(K, family.Z, family.L, binary=binary)
    print(f"per-set rho ({'binary' if binary else 'general'}): {_rho_str(rho)} ({cls})")
    urho, ucls = correlation.performance_parameter(union.K, family.Zc, family.L, binary=binary)
    print(f"union: ({union.K},{family.Zc},{family.L})  rho: {_rho_str(urho)} ({ucls})")


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def cmd_construct(args) -> int:
    params = _params_from_args(args)
    _refuse_output_dir(args.out)
    # refuse a directory export_family would refuse before building anything
    construction._refuse_stale_files(Path(args.out), [params.set_size] * params.num_sets)
    family = construction.build_multiple_zcz(params)
    certificates = None if args.no_certify else _certify(family)
    construction.export_family(
        family,
        args.out,
        certificates=certificates,
        command="construct",
        extra={"created_utc": _utc_now(), "argv": sys.argv[1:]},
    )
    _print_family_summary(family)
    if certificates is not None:
        print(f"certificates: {'PASS' if certificates['pass'] else 'FAIL'}")
    print(f"wrote: {args.out}")
    if certificates is not None and not certificates["pass"]:
        return EXIT_CERT_FAIL
    return EXIT_OK


def _digest_failures(digests: dict) -> str:
    """The failing files of a digest report, by kind."""
    return "; ".join(
        f"{kind}: {', '.join(digests[kind])}"
        for kind in ("mismatched", "missing", "extra")
        if digests[kind]
    )


def _load_matching_family(directory):
    """The family in ``directory``, or None after reporting on stderr that
    its files disagree with the digests of its manifest."""
    loaded = construction.load_family(directory)
    digests = loaded.digest_report()
    if digests is not None and not digests["pass"]:
        print(f"error: family files disagree with manifest.json ({_digest_failures(digests)})",
              file=sys.stderr)
        return None
    return loaded


def _refuse_output_dir(out) -> None:
    """Refuse, before any work, an output directory that exists as a file or
    lies below one."""
    existing = next(p for p in (Path(out), *Path(out).parents) if p.exists())
    if not existing.is_dir():
        raise CliUsageError(f"cannot write into {out}: {existing} is not a directory")


def _refuse_family_output(directory, out) -> None:
    """Refuse, before any work, an output path outside an existing directory
    or naming one, or one that resolves to the family's manifest, to one of
    its sequence files or to a new one in a set directory."""
    root, target = Path(directory), Path(out).resolve()
    if not target.parent.is_dir():
        raise CliUsageError(f"cannot write {out}: {Path(out).parent} is not a directory")
    if target.is_dir():
        raise CliUsageError(f"cannot write {out}: it is a directory")
    sets = construction._family_files(root) if target.suffix == ".seq" and root.is_dir() else []
    if target == (root / "manifest.json").resolve() or any(
            target.parent == sub.resolve() or target in map(Path.resolve, seqs) for sub, seqs in sets):
        raise CliUsageError(f"{out} would overwrite or join the family in {directory}")


def cmd_verify(args) -> int:
    report_path = Path(args.report) if args.report else Path(args.directory) / "certificates.json"
    if args.report:  # the default, DIR/certificates.json, is not a family file
        _refuse_family_output(args.directory, args.report)
    elif report_path.is_dir():
        raise CliUsageError(f"cannot write {report_path}: it is a directory")
    loaded = construction.load_family(args.directory)
    Z = args.zcz if args.zcz is not None else loaded.family.Z
    Zc = args.zccz if args.zccz is not None else loaded.family.Zc
    family = dataclasses.replace(loaded.family, Z=Z, Zc=Zc)
    report = _certify(family, deep=args.deep)
    digests = report["digests"] = loaded.digest_report()
    if digests is not None and not digests["pass"]:
        report["pass"] = False
    report["claimed"] = {"Z": Z, "Zc": Zc}
    report["verified_utc"] = _utc_now()

    for t1, cert in enumerate(report["sets"]):
        par = cert["parameters"]
        rho = Fraction(*cert["rho"])
        print(
            f"set {t1}: ({par['K']},{par['Z']},{par['L']}) "
            f"{'PASS' if cert['pass'] else 'FAIL'} rho={_rho_str(rho)} {cert['classification']}"
        )
        if not cert["pass"]:
            w = cert["witnesses"][0]
            print(f"  witness: pair ({w['i']},{w['j']}) shift {w['shift']} value {w['re']}+{w['im']}j")
    for entry in report["inter"]:
        a, b = entry["pair"]
        print(f"inter {a}x{b} @ Zc={entry['parameters']['Zc']}: {'PASS' if entry['pass'] else 'FAIL'}")
        if not entry["pass"]:
            w = entry["witnesses"][0]
            print(f"  witness: pair ({w['i']},{w['j']}) shift {w['shift']} value {w['re']}+{w['im']}j")
    u = report["union"]
    upar = u["parameters"]
    print(
        f"union: ({upar['K']},{upar['Z']},{upar['L']}) "
        f"{'PASS' if u['pass'] else 'FAIL'} rho={_rho_str(Fraction(*u['rho']))} {u['classification']}"
    )
    if args.deep:
        deep = report["deep"]
        print(
            f"deep: seed-cancellation {'PASS' if deep['seed_cancellation']['pass'] else 'FAIL'}; "
            f"chunk-decomposition {'PASS' if deep['chunk_decomposition']['pass'] else 'FAIL'} "
            f"({deep['chunk_decomposition']['checked']} checks)"
        )
    if digests is not None:
        if digests["pass"]:
            print(f"files: PASS ({digests['checked']} manifest digests)")
        else:
            print(f"files: FAIL ({_digest_failures(digests)})")
    print(f"overall: {'PASS' if report['pass'] else 'FAIL'}")

    construction._write_output(report_path, report)
    return EXIT_OK if report["pass"] else EXIT_CERT_FAIL


def cmd_spectrum(args) -> int:
    _refuse_family_output(args.directory, args.out)
    loaded = _load_matching_family(args.directory)
    if loaded is None:
        return EXIT_CERT_FAIL
    family = loaded.family
    try:
        table = correlation.correlation_spectrum(family.union, family.sizes, args.max_cells)
    except correlation.SpectrumCapError as exc:
        raise CliUsageError(f"{exc}; raise --max-cells to override") from None
    table.write_csv(args.out)
    print(f"wrote: {args.out} ({table.K * table.K * table.L} rows)")
    return EXIT_OK


def _construction_params(con) -> construction.ConstructionParams:
    """Parameters from a simulate config's ``construction`` block:
    q, m, k, s (ints) and optionally J, pi (lists of ints)."""
    if not isinstance(con, dict):
        raise ValueError(f"simulation config key 'construction' must be an object, got {con!r}")
    unknown = set(con) - {"q", "m", "k", "s", "J", "pi"}
    if unknown:
        raise ValueError(f"unknown construction keys: {sorted(unknown)}")
    missing = {"q", "m", "k", "s"} - set(con)
    if missing:
        raise ValueError(f"construction block lacks required keys: {sorted(missing)}")
    for key, value in con.items():
        if key in ("J", "pi"):
            if not isinstance(value, list) or any(type(v) is not int for v in value):
                raise ValueError(f"construction key {key!r} must be a list of ints, got {value!r}")
        elif type(value) is not int:
            raise ValueError(f"construction key {key!r} must be an int, got {value!r}")
    return construction.default_params(
        con["q"], con["m"], con["k"], con["s"], J=con.get("J"), pi=con.get("pi")
    )


def cmd_simulate(args) -> int:
    _refuse_output_dir(args.out)
    config_path = Path(args.config)
    # parsed, copied into summary.json and hashed for the manifest: one read
    config_bytes = config_path.read_bytes()
    try:
        raw = json.loads(config_bytes)
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"{config_path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise CliUsageError("simulation config must be a JSON object")
    inputs = {str(config_path): construction._sha256(config_bytes)}
    if "family_dir" in raw:
        family_dir = raw.pop("family_dir")
        if not isinstance(family_dir, str):
            raise CliUsageError(
                f"simulation config key 'family_dir' must be a path string, got {family_dir!r}"
            )
        family_dir = Path(family_dir)
        loaded = _load_matching_family(family_dir)
        if loaded is None:
            return EXIT_CERT_FAIL
        family = loaded.family
        inputs.update((str(family_dir / name), d) for name, d in loaded.digests.items())
    elif "construction" in raw:
        family = construction.build_multiple_zcz(_construction_params(raw.pop("construction")))
    else:
        raise CliUsageError("simulation config needs 'family_dir' or 'construction'")
    config = qscdma.SimulationConfig.from_json_dict(raw)
    result = qscdma.simulate_ber(family, config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "ber.csv"
    lines = ["snr_db,user_id,ber,ci_halfwidth,bits"]
    for curve in result.curves:
        uid = curve.cluster * config.users_per_cluster + curve.user
        for pt in curve.points:
            lines.append(f"{pt.snr_db!r},{uid},{pt.ber!r},{pt.ci_halfwidth!r},{pt.bits}")
    # the manifest lists the digest of each output as written, not read back
    outputs = {csv_path.name: construction._write_output(csv_path, ("\n".join(lines) + "\n").encode())}

    summary = {
        "config": json.loads(config_bytes),
        "delays": result.delays.tolist(),
        "ebn0_db": list(result.ebn0_db),
        "curves": [
            {
                "cluster": c.cluster,
                "user": c.user,
                "points": [
                    {"snr_db": None if math.isinf(p.snr_db) else p.snr_db,
                     "errors": p.errors, "bits": p.bits,
                     "ber": p.ber, "ci_halfwidth": p.ci_halfwidth}
                    for p in c.points
                ],
            }
            for c in result.curves
        ],
    }
    outputs["summary.json"] = construction._write_output(out / "summary.json", summary)

    manifest = {
        "tool": "zczseq",
        "version": __version__,
        "command": "simulate",
        "created_utc": _utc_now(),
        "inputs": inputs,
        "outputs": outputs,
        "telemetry": {
            "users": config.clusters * config.users_per_cluster,
            "interfering_users": list(result.interfering_users),
        },
    }
    construction._write_output(out / "manifest.json", manifest)
    print(f"wrote: {csv_path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliUsageError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(
            f"error: out of memory{detail}; retry with smaller parameters"
            " (m, k, s) or on a machine with more free memory",
            file=sys.stderr,
        )
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
