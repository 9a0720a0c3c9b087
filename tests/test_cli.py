"""Command-line surface: exit codes, file outputs, reproducibility."""

import hashlib
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zczseq import cli, construction, correlation, format_gbf_text, qscdma
from zczseq.cli import EXIT_CERT_FAIL, EXIT_OK, EXIT_USAGE
from zczseq.construction import path_gbf
from zczseq.gbf import GeneralizedBooleanFunction


def run_cli(*argv):
    return cli.main(list(argv))


def test_construct_example_and_verify(tmp_path, capsys):
    out = tmp_path / "fam"
    assert run_cli("construct", "--example1", "-o", str(out)) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "sets: 2  sequences/set: 8  length: 256" in stdout
    assert "per-set rho (binary): 1 (optimal)" in stdout
    assert "union: (16,7,256)  rho: 7/8 (near-optimal)" in stdout
    assert (out / "manifest.json").exists()
    assert (out / "0" / "0.seq").exists() and (out / "1" / "7.seq").exists()

    assert run_cli("verify", str(out)) == EXIT_OK
    report = json.loads((out / "certificates.json").read_text())
    assert report["pass"]
    assert [c["pass"] for c in report["sets"]] == [True, True]
    assert report["union"]["parameters"] == {"K": 16, "Z": 7, "L": 256, "q": 2}


def test_construct_system_model_topology(tmp_path, capsys):
    out = tmp_path / "fam"
    assert run_cli("construct", "-q", "2", "-m", "4", "-k", "2", "-s", "2",
                   "-o", str(out)) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "sets: 4  sequences/set: 8  length: 256" in stdout
    assert "inter-set zone Zc: 3" in stdout


def test_construct_constraint_violation(tmp_path, capsys):
    code = run_cli("construct", "-q", "2", "-m", "3", "-k", "2", "-s", "3",
                   "-o", str(tmp_path / "x"))
    assert code == EXIT_USAGE
    assert "0 <= s <= k <= m-2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, form",
    [("--J", "a", "comma-separated integers such as 0,2"),
     ("--h-d", "1", "pairs such as 1-2,2-3")],
)
def test_construct_names_the_form_of_a_bad_list_flag(tmp_path, capsys, flag, value, form):
    code = run_cli("construct", "-q", "2", "-m", "4", "-k", "2", "-s", "1", flag, value,
                   "-o", str(tmp_path / "x"))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: argument {flag}: invalid value {value!r}: expected {form}" in err
    assert "_list" not in err and not (tmp_path / "x").exists()


@pytest.mark.parametrize("seed_flags", [(), ("--h-d", "0-5"), ("--h-e", "1,1,1,1")],
                         ids=["c-alone", "with-d", "with-e"])
def test_construct_reports_a_short_h_c_before_its_other_seed_flags(tmp_path, capsys, seed_flags):
    # --h-c 1 describes k = 0; the cross terms and linear bits are not read against it
    code = run_cli("construct", "-q", "2", "-m", "4", "-k", "2", "-s", "1", "--h-c", "1",
                   *seed_flags, "-o", str(tmp_path / "x"))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: seed coefficients are for k=0, expected 2\n"
    assert not (tmp_path / "x").exists()


def test_construct_rebuild_from_manifest_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("construct", "--example1", "-o", str(a), "--no-certify") == EXIT_OK
    params = json.loads((a / "manifest.json").read_text())["params"]
    f_file = tmp_path / "f.gbf"
    from zczseq import ConstructionParams

    f_file.write_text(format_gbf_text(ConstructionParams.from_json_dict(params).f))
    assert run_cli(
        "construct", "-q", str(params["q"]), "-m", str(params["m"]),
        "-k", str(params["k"]), "-s", str(params["s"]),
        "--J", ",".join(map(str, params["J"])),
        "--pi", ",".join(map(str, params["pi"])),
        "--f", str(f_file),
        "--h-c", ",".join(map(str, params["h"]["c"])),
        "--h-e", ",".join(map(str, params["h"]["e"])),
        "-o", str(b), "--no-certify",
    ) == EXIT_OK
    for rel in ("0/0.seq", "0/7.seq", "1/0.seq", "1/7.seq"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_construct_verify_round_trip_over_grid(tmp_path):
    # every default build up to m=4 certifies against its own declared zones
    case = 0
    for m in (3, 4):
        for k in range(1, m - 1):
            for s in range(0, k + 1):
                out = tmp_path / f"fam{case}"
                assert run_cli("construct", "-q", "2", "-m", str(m), "-k", str(k),
                               "-s", str(s), "-o", str(out), "--no-certify") == EXIT_OK
                assert run_cli("verify", str(out)) == EXIT_OK
                case += 1
    assert case == 7


def test_verify_detects_corruption(tmp_path, capsys):
    out = tmp_path / "fam"
    run_cli("construct", "--example1", "-o", str(out), "--no-certify")
    target = out / "0" / "0.seq"
    lines = target.read_text().splitlines()
    lines[4] = "1" if lines[4] == "0" else "0"  # flip the first chip
    target.write_text("\n".join(lines) + "\n")
    assert run_cli("verify", str(out)) == EXIT_CERT_FAIL
    assert "witness" in capsys.readouterr().out
    report = json.loads((out / "certificates.json").read_text())
    assert not report["pass"]
    assert report["sets"][0]["witnesses"]


def _swap(a, b):
    data = a.read_bytes()
    a.write_bytes(b.read_bytes())
    b.write_bytes(data)


@pytest.mark.parametrize("edit, kind, files", [
    (lambda out: _swap(out / "0" / "0.seq", out / "0" / "1.seq"),
     "mismatched", ["0/0.seq", "0/1.seq"]),
    (lambda out: (out / "1" / "7.seq").unlink(), "missing", ["1/7.seq"]),
    (lambda out: (out / "1" / "8.seq").write_bytes((out / "1" / "7.seq").read_bytes()),
     "extra", ["1/8.seq"]),
], ids=["swapped", "missing", "extra"])
def test_verify_checks_the_manifest_digests(tmp_path, capsys, edit, kind, files):
    out = tmp_path / "fam"
    run_cli("construct", "--example1", "-o", str(out), "--no-certify")
    assert run_cli("verify", str(out)) == EXIT_OK
    assert "files: PASS (16 manifest digests)" in capsys.readouterr().out
    edit(out)
    assert run_cli("verify", str(out)) == EXIT_CERT_FAIL
    stdout = capsys.readouterr().out
    assert f"files: FAIL ({kind}: {', '.join(files)})" in stdout
    assert "overall: FAIL" in stdout
    report = json.loads((out / "certificates.json").read_text())
    assert not report["pass"]
    assert report["digests"] == {
        "pass": False, "checked": 16, "mismatched": [], "missing": [], "extra": [], kind: files
    }


def test_verify_without_a_manifest_checks_no_digests(tmp_path, capsys):
    out = tmp_path / "fam"
    run_cli("construct", "--example1", "-o", str(out), "--no-certify")
    (out / "manifest.json").unlink()
    assert run_cli("verify", str(out)) == EXIT_OK
    assert "files:" not in capsys.readouterr().out
    assert json.loads((out / "certificates.json").read_text())["digests"] is None


def test_simulate_refuses_a_family_that_disagrees_with_its_manifest(tmp_path, capsys):
    fam_dir = tmp_path / "fam"
    run_cli("construct", "--example1", "-o", str(fam_dir), "--no-certify")
    _swap(fam_dir / "0" / "0.seq", fam_dir / "0" / "1.seq")
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({
        "family_dir": str(fam_dir), "clusters": 2, "users_per_cluster": 8,
        "max_delay_chips": 3, "noiseless": True, "bits_per_iteration": 100, "iterations": 1,
    }))
    capsys.readouterr()
    assert run_cli("simulate", str(cfg_path), "-o", str(tmp_path / "run")) == EXIT_CERT_FAIL
    assert "mismatched: 0/0.seq, 0/1.seq" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _tree_digests(root):
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.mark.parametrize(
    "first, second, stale",
    [(("-k", "2", "-s", "2"), ("-k", "2", "-s", "1"), "2"),
     (("-k", "2", "-s", "0"), ("-k", "1", "-s", "0"), "0/4.seq")],
    ids=["fewer-sets", "fewer-sequences"],
)
def test_construct_refuses_a_directory_with_stale_family_files(
    tmp_path, capsys, monkeypatch, first, second, stale
):
    out = tmp_path / "fam"
    assert run_cli("construct", "-q", "2", "-m", "4", *first, "-o", str(out)) == EXIT_OK
    before = _tree_digests(out)
    capsys.readouterr()
    calls = []
    for module, name in ((construction, "build_multiple_zcz"), (correlation, "certify_family")):
        def spy(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    assert run_cli("construct", "-q", "2", "-m", "4", *second, "-o", str(out)) == EXIT_USAGE
    assert calls == []  # refused before building or certifying anything
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / stale} is left from another family")
    assert _tree_digests(out) == before  # nothing deleted, nothing written
    assert run_cli("verify", str(out)) == EXIT_OK


def test_construct_overwrites_a_family_of_the_same_shape(tmp_path):
    out = tmp_path / "fam"
    argv = ("construct", "-q", "2", "-m", "4", "-k", "2", "-s", "1", "-o", str(out))
    assert run_cli(*argv) == EXIT_OK
    seq_files = {k: v for k, v in _tree_digests(out).items() if k.endswith(".seq")}
    (out / "notes.txt").write_text("kept\n")
    assert run_cli(*argv) == EXIT_OK
    after = _tree_digests(out)
    assert {k: v for k, v in after.items() if k.endswith(".seq")} == seq_files
    assert (out / "notes.txt").read_text() == "kept\n"
    assert run_cli("verify", str(out)) == EXIT_OK


def test_verify_claim_overrides(tmp_path):
    out = tmp_path / "fam"
    run_cli("construct", "--example1", "-o", str(out), "--no-certify")
    assert run_cli("verify", str(out), "--zcz", "16", "--zccz", "7") == EXIT_OK
    assert run_cli("verify", str(out), "--zccz", "8") == EXIT_CERT_FAIL
    assert run_cli("verify", str(out), "--zcz", "17") == EXIT_CERT_FAIL


def test_verify_deep(tmp_path, capsys):
    out = tmp_path / "fam"
    run_cli("construct", "--example1", "-o", str(out), "--no-certify")
    assert run_cli("verify", str(out), "--deep") == EXIT_OK
    stdout = capsys.readouterr().out
    assert "seed-cancellation PASS" in stdout
    assert "chunk-decomposition PASS" in stdout
    report = json.loads((out / "certificates.json").read_text())
    assert report["deep"]["chunk_decomposition"]["checked"] == 2 * 2 * 8 * 8 * 17


def test_verify_deep_reports_a_flipped_chip(tmp_path, capsys):
    # negative control: the chunk check fails once the family's chips no
    # longer match the codes and seed its manifest names
    out = tmp_path / "fam"
    run_cli("construct", "--example1", "-o", str(out), "--no-certify")
    target = out / "0" / "1.seq"
    lines = target.read_text().splitlines()
    lines[4 + 9] = "1" if lines[4 + 9] == "0" else "0"  # chip 9; manifest kept
    target.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("verify", str(out), "--deep") == EXIT_CERT_FAIL
    assert "chunk-decomposition FAIL (4352 checks)" in capsys.readouterr().out
    chunk = json.loads((out / "certificates.json").read_text())["deep"]["chunk_decomposition"]
    assert not chunk["pass"] and chunk["checked"] == 4352
    assert chunk["mismatches"] == [[0, 0, 0, 1, tau] for tau in range(16)]


def test_verify_deep_reports_a_flipped_last_chip(tmp_path, capsys):
    # negative control at the top edge of a sign mask: chip L - 1 = 255
    out = tmp_path / "fam"
    run_cli("construct", "--example1", "-o", str(out), "--no-certify")
    target = out / "0" / "1.seq"
    lines = target.read_text().splitlines()
    assert len(lines) == 4 + 256
    lines[-1] = "1" if lines[-1] == "0" else "0"
    target.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("verify", str(out), "--deep") == EXIT_CERT_FAIL
    assert "chunk-decomposition FAIL (4352 checks)" in capsys.readouterr().out
    chunk = json.loads((out / "certificates.json").read_text())["deep"]["chunk_decomposition"]
    assert not chunk["pass"] and chunk["checked"] == 4352
    assert chunk["mismatches"] == [[0, 0, 0, 1, tau] for tau in range(16)]


def test_verify_deep_reports_a_chip_moved_off_a_binary_q8_family(tmp_path, capsys):
    # negative control for the binary path: chip 10 of sequence (0, 1) moves
    # from 0 to 1; the checks that read it take the dot and both conjugates,
    # and the cells listed are those listed when every check took them
    out = tmp_path / "fam"
    run_cli("construct", "-q", "8", "-m", "4", "-k", "2", "-s", "1", "-o", str(out), "--no-certify")
    target = out / "0" / "1.seq"
    lines = target.read_text().splitlines()
    assert lines[4 + 10] == "0" and set(lines[4:]) == {"0", "4"}
    lines[4 + 10] = "1"
    target.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("verify", str(out), "--deep") == EXIT_CERT_FAIL
    assert "chunk-decomposition FAIL (4352 checks)" in capsys.readouterr().out
    chunk = json.loads((out / "certificates.json").read_text())["deep"]["chunk_decomposition"]
    assert not chunk["pass"] and chunk["checked"] == 4352
    assert chunk["mismatches"] == [[0, 0, 0, 1, tau] for tau in range(16)]


def test_verify_missing_directory(tmp_path, capsys):
    assert run_cli("verify", str(tmp_path / "nope")) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_out_of_memory_exits_one(tmp_path, capsys, monkeypatch):
    out = tmp_path / "fam"
    assert run_cli("construct", "--example1", "--no-certify", "-o", str(out)) == EXIT_OK
    fired = []

    def exhausted(name):
        def table(*args, **kwargs):
            fired.append(name)
            raise MemoryError("Unable to allocate 16.0 GiB")

        return table

    # the kernels' table allocations are where an oversized family fails
    for name in ("_folded_table", "_periodic_table"):
        monkeypatch.setattr(correlation, name, exhausted(name))

    def verify_runs_out_of_memory_in(kernel):
        fired.clear()
        capsys.readouterr()
        assert run_cli("verify", str(out)) == EXIT_USAGE
        assert fired == [kernel]
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory (Unable to allocate 16.0 GiB);")
        assert "smaller parameters" in err and "Traceback" not in err

    # a clean family splits into chunks; one flipped chip breaks the split
    verify_runs_out_of_memory_in("_folded_table")
    target = out / "0" / "3.seq"
    lines = target.read_text().splitlines()
    lines[9] = "1" if lines[9] == "0" else "0"
    target.write_text("\n".join(lines) + "\n")
    verify_runs_out_of_memory_in("_periodic_table")


def test_spectrum_outputs_and_cap(tmp_path, capsys):
    out = tmp_path / "fam"
    run_cli("construct", "--example1", "-o", str(out), "--no-certify")
    csv_path = tmp_path / "spec.csv"
    assert run_cli("spectrum", str(out), "-o", str(csv_path)) == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "pair_i,pair_j,shift,re,im"
    assert len(lines) == 1 + 16 * 16 * 256
    # in-zone rows are all zero: shift 1..16 of the (0,0) pair
    for ln in lines[2:18]:
        assert ln.endswith(",0,0")
    assert run_cli("spectrum", str(out), "-o", str(csv_path), "--max-cells", "10") == EXIT_USAGE
    err = capsys.readouterr().err
    assert "cap is 10" in err and "raise --max-cells to override" in err
    assert "max_cells" not in err  # the library argument is not the CLI's to name


# SHA-256 of each default family's spectrum CSV, recorded from the GEMM
# path before the fold served spectra; q = 4 and 8 default families are
# binary, so (4,5,2,1) writes the bytes of (2,5,2,1)
SPECTRUM_CSV_DIGESTS = {
    (2, 5, 2, 1): "332a7099467b88a26979c1dd2b2b89c6bb72b74afb70c8178cf2db510bb4c3b6",
    (4, 5, 2, 1): "332a7099467b88a26979c1dd2b2b89c6bb72b74afb70c8178cf2db510bb4c3b6",
    (8, 5, 2, 2): "93d82695d2728d9d7ed4cd7c7cb47f294e93e0224d511e1e2a9dcb559a6249fe",
}


@pytest.mark.parametrize("point", list(SPECTRUM_CSV_DIGESTS))
def test_spectrum_csv_bytes_are_pinned(point, tmp_path):
    fam_dir, csv_path = tmp_path / "fam", tmp_path / "spec.csv"
    q, m, k, s = map(str, point)
    assert run_cli("construct", "-q", q, "-m", m, "-k", k, "-s", s, "-o", str(fam_dir),
                   "--no-certify") == EXIT_OK
    assert run_cli("spectrum", str(fam_dir), "-o", str(csv_path)) == EXIT_OK
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == SPECTRUM_CSV_DIGESTS[point]


def test_simulate_round_trip_and_determinism(tmp_path):
    cfg = {
        "construction": {"q": 2, "m": 4, "k": 2, "s": 2},
        "clusters": 4,
        "users_per_cluster": 8,
        "max_delay_chips": 3,
        "snr_db": [0.0],
        "bits_per_iteration": 1000,
        "iterations": 3,
        "seed": 99,
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("simulate", str(cfg_path), "-o", str(out1)) == EXIT_OK
    assert run_cli("simulate", str(cfg_path), "-o", str(out2)) == EXIT_OK
    assert (out1 / "ber.csv").read_bytes() == (out2 / "ber.csv").read_bytes()
    lines = (out1 / "ber.csv").read_text().strip().splitlines()
    assert lines[0] == "snr_db,user_id,ber,ci_halfwidth,bits"
    assert len(lines) == 1 + 4  # one observed user per cluster, one SNR point
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert set(manifest["outputs"]) == {"ber.csv", "summary.json"}


def test_simulate_noiseless_and_family_dir(tmp_path):
    fam_dir = tmp_path / "fam"
    run_cli("construct", "-q", "2", "-m", "4", "-k", "2", "-s", "2",
            "-o", str(fam_dir), "--no-certify")
    cfg = {
        "family_dir": str(fam_dir),
        "clusters": 4,
        "users_per_cluster": 8,
        "max_delay_chips": 3,
        "noiseless": True,
        "bits_per_iteration": 1000,
        "iterations": 2,
        "seed": 7,
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run_cli("simulate", str(cfg_path), "-o", str(out)) == EXIT_OK
    for ln in (out / "ber.csv").read_text().strip().splitlines()[1:]:
        assert ln.split(",")[2] == "0.0"
    summary = json.loads((out / "summary.json").read_text())
    assert all(p["errors"] == 0 for c in summary["curves"] for p in c["points"])
    # the manifest lists the family's .seq files with their digests
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert inputs.pop(str(cfg_path)) == hashlib.sha256(cfg_path.read_bytes()).hexdigest()
    files = json.loads((fam_dir / "manifest.json").read_text())["files"]
    assert inputs == {str(fam_dir / name): digest for name, digest in files.items()}


def test_simulate_config_schema_violation(tmp_path, capsys):
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({"clusters": 1}))
    assert run_cli("simulate", str(cfg_path), "-o", str(tmp_path / "o")) == EXIT_USAGE
    cfg_path.write_text("{not json")
    assert run_cli("simulate", str(cfg_path), "-o", str(tmp_path / "o")) == EXIT_USAGE


SMALL_SIM = {
    "construction": {"q": 2, "m": 4, "k": 2, "s": 2},
    "clusters": 1,
    "users_per_cluster": 1,
    "max_delay_chips": 0,
    "snr_db": [0.0],
    "bits_per_iteration": 10,
    "iterations": 1,
    "seed": 1,
}


@pytest.mark.parametrize(
    "config, needles",
    [
        (dict(SMALL_SIM, snr_db=0), ["'snr_db'"]),
        (dict(SMALL_SIM, snr_db=[0, "2"]), ["'snr_db'", "finite numbers"]),
        (dict(SMALL_SIM, snr_db=[float("nan")]), ["'snr_db'", "finite numbers"]),
        (dict(SMALL_SIM, clusters="1"), ["'clusters'", "int"]),
        (dict(SMALL_SIM, iterations=True), ["'iterations'", "int"]),
        (dict(SMALL_SIM, construction={"q": 2, "m": 4, "k": 2, "s": 2, "typo": 1}),
         ["construction", "'typo'"]),
        (dict(SMALL_SIM, construction={"q": 2, "m": 4, "k": 2}), ["construction", "'s'"]),
        (dict(SMALL_SIM, construction={"q": 2, "m": 4, "k": 2, "s": 2, "J": 0}),
         ["construction", "'J'"]),
        (5, ["JSON object"]),
        (dict(SMALL_SIM, family_dir=5), ["'family_dir'", "path string"]),
        (dict(SMALL_SIM, snr_db=[4000]), ["snr_db", "out of range"]),
        (dict(SMALL_SIM, snr_db=[-4000]), ["snr_db", "out of range"]),
        (dict(SMALL_SIM, snr_db=[4000], snr_axis="chip"), ["snr_db", "out of range"]),
        (dict(SMALL_SIM, snr_db=[-4000], snr_axis="chip"), ["snr_db", "out of range"]),
    ],
    ids=["snr-scalar", "snr-string", "snr-nan", "count-string", "count-bool", "construction-typo",
         "construction-missing", "construction-J-scalar", "not-an-object", "family-dir-int",
         "snr-overflow",
         "snr-underflow", "snr-chip-overflow", "snr-chip-underflow"],
)
def test_simulate_config_errors_name_the_key(tmp_path, capsys, config, needles):
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("simulate", str(cfg_path), "-o", str(tmp_path / "o")) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for needle in needles:
        assert needle in err


def test_simulate_has_no_workers_option(tmp_path, capsys):
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(SMALL_SIM))
    argv = ("simulate", str(cfg_path), "--workers", "2", "-o", str(tmp_path / "o"))
    assert run_cli(*argv) == EXIT_USAGE
    assert "--workers" in capsys.readouterr().err


def test_simulate_noiseless_outputs_are_byte_stable(tmp_path):
    """A noiseless run with delays up to 40 chips, where interference
    causes some errors, reproduces the bytes the chip-level simulator
    wrote before the statistics were drawn directly."""
    cfg = dict(SMALL_SIM, clusters=4, users_per_cluster=8, observed_per_cluster=8,
               max_delay_chips=40, noiseless=True, bits_per_iteration=2000,
               iterations=2, seed=34)
    del cfg["snr_db"]
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run_cli("simulate", str(cfg_path), "-o", str(out)) == EXIT_OK
    assert any(ln.split(",")[2] != "0.0" for ln in (out / "ber.csv").read_text().splitlines()[1:])
    digest = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              for name in ("ber.csv", "summary.json")}
    assert digest == {
        "ber.csv": "2a62c3006262130eafa78a49cc6a90a34b1fd312bcad23c6214fbf02a3684afd",
        "summary.json": "a8fce5acf8cfffb8e2700e633a56939095141c426d2381a80c17ef6b346ecaf8",
    }


BENCH_SIM = dict(SMALL_SIM, clusters=4, users_per_cluster=8, max_delay_chips=3,
                 snr_db=[0.0, 2.0, 4.0], iterations=10, bits_per_iteration=10_000,
                 observed_per_cluster=1)


def _quaternary_family_dir(path):
    """A q = 4 family with complex chips, built by ``construct --f``."""
    f = path_gbf(4, 4, 2, 2, (), (0, 1)) + GeneralizedBooleanFunction(4, 4, {(0,): 1, (1,): 3})
    (path.parent / "f.gbf").write_text(format_gbf_text(f))
    assert run_cli("construct", "-q", "4", "-m", "4", "-k", "2", "-s", "2",
                   "--f", str(path.parent / "f.gbf"), "-o", str(path), "--no-certify") == EXIT_OK


@pytest.mark.parametrize(
    "config, digest",
    [
        (BENCH_SIM, {
            "ber.csv": "421ba2b63d6667dd1307c1c6d01815fd006cf479966a0e61955660c4ae20a098",
            "summary.json": "86f5dbfc29907938c9f0e8346404b1af27367ffb11041b327b1639ed8c5d02ee",
        }),
        ({"family_dir": "fam", "clusters": 4, "users_per_cluster": 8, "observed_per_cluster": 2,
          "max_delay_chips": 40, "snr_db": [0.0, 6.0], "bits_per_iteration": 3001,
          "iterations": 3, "seed": 41}, {
            "ber.csv": "104f66b5ad9615460d57751a0df9fc4670c1592cf6a0cfa8e05b917bb4b0375e",
            "summary.json": "ea74807387eb787b7a57c9018a0f3122059c4ba5f4fc6c497924007b017457d4",
        }),
    ],
    ids=["bench-2422", "q4-delays-40"],
)
def test_simulate_noisy_outputs_are_byte_stable(tmp_path, monkeypatch, config, digest):
    """Seeded noisy runs reproduce the bytes of the simulator that drew
    int64 bits with ``rng.integers`` and formed ``bits.T @ G`` at once."""
    monkeypatch.chdir(tmp_path)
    if "family_dir" in config:
        _quaternary_family_dir(tmp_path / config["family_dir"])
    Path("sim.json").write_text(json.dumps(config))
    assert run_cli("simulate", "sim.json", "-o", "run") == EXIT_OK
    assert {name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
            for name in digest} == digest


@pytest.mark.parametrize(
    "config, interfering",
    [(BENCH_SIM, [0, 8, 16, 24]),
     (dict(BENCH_SIM, max_delay_chips=40, observed_per_cluster=8, snr_db=[0.0], iterations=1,
           bits_per_iteration=100), list(range(32)))],
    ids=["bench-2422", "delays-40"],
)
def test_simulate_manifest_reports_the_interfering_users(tmp_path, config, interfering):
    """The users whose bits the run drew: within Zc the observed ones only.
    The record stays out of summary.json, whose bytes are pinned."""
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert run_cli("simulate", str(cfg_path), "-o", str(out)) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["telemetry"] == {"users": 32, "interfering_users": interfering}
    assert "interfering_users" not in (out / "summary.json").read_text()


def test_simulate_manifest_hashes_the_config_bytes_it_parsed(tmp_path, monkeypatch):
    cfg_path = tmp_path / "sim.json"
    parsed = json.dumps(SMALL_SIM).encode()
    cfg_path.write_bytes(parsed)
    simulate_ber = qscdma.simulate_ber

    def edit_config_mid_run(family, config):
        cfg_path.write_text(json.dumps(dict(SMALL_SIM, seed=2)))
        return simulate_ber(family, config)

    monkeypatch.setattr(qscdma, "simulate_ber", edit_config_mid_run)
    out = tmp_path / "run"
    assert run_cli("simulate", str(cfg_path), "-o", str(out)) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {str(cfg_path): hashlib.sha256(parsed).hexdigest()}
    assert json.loads((out / "summary.json").read_text())["config"] == SMALL_SIM

@pytest.mark.parametrize("q", [2**40, 3])
def test_verify_refuses_a_modulus_no_family_has(tmp_path, capsys, q):
    out = tmp_path / "fam"
    assert run_cli("construct", "--example1", "-o", str(out), "--no-certify") == EXIT_OK
    for path in out.glob("*/*.seq"):
        path.write_bytes(path.read_bytes().replace(b"q=2\n", b"q=%d\n" % q, 1))
    capsys.readouterr()
    assert run_cli("verify", str(out)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{out / '0' / '0.seq'}: q={q} is not a family modulus" in err
    assert "out of memory" not in err


def test_usage_errors_exit_one(capsys):
    assert run_cli("construct", "-q", "2", "-m", "4") == EXIT_USAGE
    assert "error" in capsys.readouterr().err.lower()
    assert run_cli("bogus") == EXIT_USAGE


def test_console_entry_point_smoke(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "zczseq.cli", "construct", "--example1",
         "-o", str(tmp_path / "fam"), "--no-certify"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "wrote:" in result.stdout


@pytest.mark.parametrize("key, value, message", [
    ("pi", [0, 1, 5], "pi must permute 0..1, got (0, 1, 5)"),
    ("J", [0, 1], "J must hold 1 distinct indices, got (0, 1)"),
], ids=["pi", "J"])
def test_a_bad_vertex_layout_is_an_error_line(tmp_path, capsys, key, value, message):
    con = {"q": 2, "m": 4, "k": 2, "s": 1, key: value}
    argv = ("construct", "-q", "2", "-m", "4", "-k", "2", "-s", "1",
            f"--{key}", ",".join(map(str, value)), "-o", str(tmp_path / "fam"))
    assert run_cli(*argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(dict(SMALL_SIM, construction=con)))
    assert run_cli("simulate", str(cfg_path), "-o", str(tmp_path / "o")) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "fam").exists() and not (tmp_path / "o").exists()


def _family_commands(tmp_path, fam_dir):
    """argv of each command that reads a family directory."""
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({
        "family_dir": str(fam_dir), "clusters": 2, "users_per_cluster": 8,
        "max_delay_chips": 3, "noiseless": True, "bits_per_iteration": 100, "iterations": 1,
    }))
    return {
        "verify": ("verify", str(fam_dir)),
        "spectrum": ("spectrum", str(fam_dir), "-o", str(tmp_path / "spec.csv")),
        "simulate": ("simulate", str(cfg_path), "-o", str(tmp_path / "run")),
    }


@pytest.mark.parametrize("command", ["verify", "spectrum", "simulate"])
@pytest.mark.parametrize("edit, detail", [
    (lambda m: [1], "expected a JSON object"),
    (lambda m: {**m, "params": {**m["params"], "q": "x"}}, "malformed 'params'"),
    (lambda m: {**m, "params": {**m["params"], "f_terms": 5}}, "malformed 'params'"),
    (lambda m: {**m, "params": {**m["params"], "h": {**m["params"]["h"], "c": [1]}}},
     "malformed 'params' (seed coefficients are for k=0, expected 2)"),
], ids=["not-an-object", "q-string", "f-terms-int", "short-seed-c"])
def test_a_malformed_manifest_is_an_error_line(tmp_path, capsys, edit, detail, command):
    fam_dir = tmp_path / "fam"
    run_cli("construct", "--example1", "-o", str(fam_dir), "--no-certify")
    manifest = fam_dir / "manifest.json"
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
    capsys.readouterr()
    assert run_cli(*_family_commands(tmp_path, fam_dir)[command]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: {detail}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "spectrum", "simulate"])
def test_a_manifest_that_is_not_json_is_named(tmp_path, capsys, command):
    fam_dir = tmp_path / "fam"
    run_cli("construct", "--example1", "-o", str(fam_dir), "--no-certify")
    manifest = fam_dir / "manifest.json"
    manifest.write_text("{bad")
    capsys.readouterr()
    assert run_cli(*_family_commands(tmp_path, fam_dir)[command]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: not valid JSON (") and err.count("\n") == 1


def test_a_simulate_config_that_is_not_json_is_named(tmp_path, capsys):
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text("{bad")
    assert run_cli("simulate", str(cfg_path), "-o", str(tmp_path / "o")) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {cfg_path}: not valid JSON (")
    assert not (tmp_path / "o").exists()


def _drop_sets(root):
    for sub in ("0", "1"):
        shutil.rmtree(root / sub)


def _empty_set_one(root):
    for path in (root / "1").glob("*.seq"):
        path.unlink()


def _other_zone_in_one_header(root):
    path = root / "1" / "3.seq"
    path.write_bytes(path.read_bytes().replace(b"\nZ=16\n", b"\nZ=15\n", 1))


def _files_as_a_list(root):
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["files"] = sorted(manifest["files"])
    (root / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("edit, message", [
    (_drop_sets, "{root} holds no sequence-set subdirectories"),
    (_empty_set_one, "{root}/1 holds no .seq files"),
    (_other_zone_in_one_header, "{root}/1/3.seq: header disagrees with the rest of the family"),
    (_files_as_a_list, "manifest.json: 'files' must map sequence files to SHA-256 digests"),
], ids=["no-sets", "empty-set", "header", "files-not-a-mapping"])
def test_an_inconsistent_family_directory_is_refused(tmp_path, capsys, edit, message):
    root = tmp_path / "fam"
    run_cli("construct", "--example1", "-o", str(root), "--no-certify")
    assert construction.load_family(root).digest_report()["pass"]  # control
    edit(root)
    message = message.format(root=root)
    with pytest.raises(ValueError) as info:
        construction.load_family(root).digest_report()
    assert str(info.value) == message
    capsys.readouterr()
    assert run_cli("verify", str(root)) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_q16_families_certify_beyond_length_128(tmp_path):
    out = tmp_path / "fam"
    assert run_cli("construct", "-q", "16", "-m", "5", "-k", "2", "-s", "1", "-o", str(out)) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["declared"]["length"] == 512
    assert run_cli("verify", str(out)) == EXIT_OK


def test_a_modulus_over_the_conjugate_budget_exits_one(tmp_path, capsys):
    """The budget binds families that are not binary: an odd linear
    coefficient in f needs the 9 conjugates of q = 38.  The default q = 38
    family is binary, reads unit 1 alone and certifies."""
    f_odd = tmp_path / "f.gbf"
    f = construction.default_params(38, 3, 1, 1).f
    f_odd.write_text(format_gbf_text(GeneralizedBooleanFunction(38, 3, {**f.terms, (0,): 1})))
    args = ("construct", "-q", "38", "-m", "3", "-k", "1", "-s", "1", "-o")
    out = tmp_path / "fam"
    assert run_cli(*args, str(out), "--f", str(f_odd)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: q=38 ") and "budget of 8" in err
    assert not out.exists()
    assert run_cli(*args, str(out)) == EXIT_OK
    assert "certificates: PASS" in capsys.readouterr().out
    assert run_cli("verify", str(out), "--deep") == EXIT_OK


def test_verify_deep_refuses_params_that_describe_other_files(tmp_path, capsys):
    fam_dir, other = tmp_path / "fam", tmp_path / "other"
    run_cli("construct", "--example1", "-o", str(fam_dir), "--no-certify")
    run_cli("construct", "-q", "2", "-m", "4", "-k", "1", "-s", "1", "-o", str(other),
            "--no-certify")
    manifest = json.loads((fam_dir / "manifest.json").read_text())
    manifest["params"] = json.loads((other / "manifest.json").read_text())["params"]
    (fam_dir / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("verify", str(fam_dir), "--deep") == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: --deep: the manifest params describe")
    assert "([4, 4], 128, 2)" in err and "([8, 8], 256, 2)" in err
    assert run_cli("verify", str(fam_dir)) == EXIT_OK  # only --deep reads the params


def test_spectrum_refuses_a_family_that_disagrees_with_its_manifest(tmp_path, capsys):
    fam_dir = tmp_path / "fam"
    run_cli("construct", "--example1", "-o", str(fam_dir), "--no-certify")
    _swap(fam_dir / "0" / "0.seq", fam_dir / "0" / "1.seq")
    capsys.readouterr()
    assert run_cli(*_family_commands(tmp_path, fam_dir)["spectrum"]) == EXIT_CERT_FAIL
    assert capsys.readouterr().err == (
        "error: family files disagree with manifest.json (mismatched: 0/0.seq, 0/1.seq)\n"
    )
    assert not (tmp_path / "spec.csv").exists()


@pytest.mark.parametrize("target", ["0/0.seq", "manifest.json", "1/../1/7.seq", "0/8.seq", "link"])
def test_outputs_never_overwrite_the_family_they_read(tmp_path, capsys, monkeypatch, target):
    # a family file, the manifest, a path through "..", a new sequence file
    # that the next load would read, and a symlink to a family file
    fam_dir = tmp_path / "fam"
    run_cli("construct", "--example1", "-o", str(fam_dir), "--no-certify")
    out = fam_dir / target
    if target == "link":
        out = tmp_path / "spec.csv"
        out.symlink_to(fam_dir / "1" / "3.seq")
    before = {p: p.read_bytes() for p in fam_dir.rglob("*") if p.is_file()}
    capsys.readouterr()
    with monkeypatch.context() as m:  # refused before any work
        m.setattr(construction, "load_family", lambda directory: pytest.fail("family read"))
        for argv in (("spectrum", str(fam_dir), "-o", str(out)),
                     ("verify", str(fam_dir), "--report", str(out))):
            assert run_cli(*argv) == EXIT_USAGE
            assert capsys.readouterr().err == (
                f"error: {out} would overwrite or join the family in {fam_dir}\n"
            )
    assert {p: p.read_bytes() for p in fam_dir.rglob("*") if p.is_file()} == before
    # the default report, and outputs beside the sequence files, are written
    assert run_cli("verify", str(fam_dir)) == EXIT_OK
    assert (fam_dir / "certificates.json").exists()
    assert run_cli("verify", str(fam_dir), "--report", str(fam_dir / "0" / "report.json")) == EXIT_OK
    assert run_cli("spectrum", str(fam_dir), "-o", str(fam_dir / "spec.csv")) == EXIT_OK
    assert run_cli("verify", str(fam_dir)) == EXIT_OK


def test_certificates_rate_the_alphabet_the_sequences_use(tmp_path, capsys):
    """(4,5,2,1) with the default f has exponents in {0, 2} only: its
    sequences are those of (2,5,2,1), with every exponent doubled, and they
    are rated by the binary bound alike.  An odd linear coefficient in f makes
    the family quaternary, rated by the general bound."""
    f_odd = tmp_path / "f.gbf"
    f = construction.default_params(4, 5, 2, 1).f
    f_odd.write_text(format_gbf_text(GeneralizedBooleanFunction(4, 5, {**f.terms, (0,): 1})))
    runs = {}
    for name, q, extra in (("q2", "2", ()), ("q4", "4", ()), ("q4-odd", "4", ("--f", str(f_odd)))):
        out = tmp_path / name
        assert run_cli("construct", "-q", q, "-m", "5", "-k", "2", "-s", "1", *extra,
                       "-o", str(out)) == EXIT_OK
        certs = json.loads((out / "manifest.json").read_text())["certificates"]
        runs[name] = capsys.readouterr().out, certs, construction.load_family(out).family
    for name in ("q2", "q4"):
        stdout, certs, _ = runs[name]
        assert "per-set rho (binary): 1 (optimal)" in stdout
        assert "union: (16,15,512)  rho: 15/16 (near-optimal)" in stdout
        assert [(c["formula"], c["rho"], c["classification"]) for c in certs["sets"]] == [
            ("binary", [1, 1], "optimal")] * 2
        union = certs["union"]
        assert (union["formula"], union["rho"], union["classification"]) == (
            "binary", [15, 16], "near-optimal")
    for z2, z4 in zip(*(itertools.chain(*runs[name][2].sets) for name in ("q2", "q4"))):
        assert np.array_equal(2 * z2.exponents, z4.exponents)
    stdout, certs, family = runs["q4-odd"]
    assert any((z.exponents % 2).any() for z in family.sets[0])
    assert "per-set rho (general): 33/64 (neither)" in stdout
    assert "union: (16,15,512)  rho: 1/2 (neither)" in stdout
    assert {c["formula"] for c in (*certs["sets"], certs["union"])} == {"general"}
    assert certs["pass"]
    assert run_cli("verify", str(tmp_path / "q4")) == EXIT_OK
    assert "set 0: (8,32,512) PASS rho=1 optimal" in capsys.readouterr().out


def test_simulate_names_a_set_too_short_for_its_cluster(tmp_path, capsys):
    # set 1 loses its last sequence, and the manifest that lists it
    fam_dir = tmp_path / "fam"
    run_cli("construct", "--example1", "-o", str(fam_dir), "--no-certify")
    (fam_dir / "1" / "7.seq").unlink()
    (fam_dir / "manifest.json").unlink()
    cfg_path = tmp_path / "sim.json"
    config = {key: v for key, v in SMALL_SIM.items() if key != "construction"}
    cfg_path.write_text(json.dumps(dict(config, family_dir=str(fam_dir), clusters=2,
                                        users_per_cluster=8)))
    capsys.readouterr()
    assert run_cli("simulate", str(cfg_path), "-o", str(tmp_path / "run")) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: 8 users per cluster requested but set 1 holds 7 sequences\n"
    )
    assert not (tmp_path / "run").exists()


def test_outputs_in_a_missing_directory_are_refused_before_any_work(tmp_path, capsys, monkeypatch):
    fam_dir, cfg_path, file = tmp_path / "fam", tmp_path / "sim.json", tmp_path / "file"
    run_cli("construct", "--example1", "-o", str(fam_dir), "--no-certify")
    cfg_path.write_text(json.dumps(SMALL_SIM))
    file.write_text("")
    capsys.readouterr()
    with monkeypatch.context() as m:
        for module, name in ((construction, "load_family"), (correlation, "certify_family"),
                             (correlation, "correlation_spectrum"),
                             (construction, "build_multiple_zcz"), (qscdma, "simulate_ber")):
            m.setattr(module, name, lambda *a, name=name, **k: pytest.fail(f"{name} called"))
        for parent in (tmp_path / "nodir", file):
            for argv in (("spectrum", str(fam_dir), "-o", str(parent / "x.csv")),
                         ("verify", str(fam_dir), "--report", str(parent / "r.json"))):
                assert run_cli(*argv) == EXIT_USAGE
                out = argv[-1]
                assert capsys.readouterr().err == (
                    f"error: cannot write {out}: {parent} is not a directory\n"
                )
        # an output file that names a directory, the default report's
        # included, and an output directory that is a file or lies below one
        (fam_dir / "certificates.json").mkdir()
        for argv, out in ((("spectrum", str(fam_dir), "-o", str(fam_dir)), fam_dir),
                          (("verify", str(fam_dir), "--report", str(tmp_path)), tmp_path),
                          (("verify", str(fam_dir)), fam_dir / "certificates.json")):
            assert run_cli(*argv) == EXIT_USAGE
            assert capsys.readouterr().err == f"error: cannot write {out}: it is a directory\n"
        for out in (file, file / "sub"):
            for argv in (("construct", "--example1", "-o", str(out)),
                         ("simulate", str(cfg_path), "-o", str(out))):
                assert run_cli(*argv) == EXIT_USAGE
                assert capsys.readouterr().err == (
                    f"error: cannot write into {out}: {file} is not a directory\n"
                )
    assert not (tmp_path / "nodir").exists() and file.read_text() == ""


def test_a_single_set_family_declares_its_own_zone_for_the_union(tmp_path, capsys):
    # s = 0: no inter-set pair, so the union is the set, zone Z = 2^m
    out = tmp_path / "fam"
    assert run_cli("construct", "-q", "2", "-m", "4", "-k", "2", "-s", "0", "-o", str(out)) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "zone width Z: 16  inter-set zone Zc: 16" in stdout
    assert "union: (8,16,256)  rho: 1 (optimal)" in stdout
    assert (out / "0" / "0.seq").read_text().splitlines()[2:4] == ["Z=16", "Zc=16"]
    assert run_cli("verify", str(out)) == EXIT_OK
    assert "union: (8,16,256) PASS rho=1 optimal" in capsys.readouterr().out
    assert run_cli("verify", str(out), "--zccz", "17") == EXIT_CERT_FAIL


def test_json_artefacts_are_hashed_as_written(tmp_path, monkeypatch):
    """Every JSON file is indented by 2, keys sorted and newline-ended, and
    each manifest digest is that of the bytes written: ``simulate`` hashes
    its outputs without reading them back."""
    fam_dir, run = tmp_path / "fam", tmp_path / "run"
    assert run_cli("construct", "--example1", "-o", str(fam_dir)) == EXIT_OK
    assert run_cli("verify", str(fam_dir)) == EXIT_OK
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(SMALL_SIM))
    read_bytes = Path.read_bytes

    def read_no_output(path):
        assert run not in path.parents, f"{path} read back"
        return read_bytes(path)

    with monkeypatch.context() as m:
        m.setattr(Path, "read_bytes", read_no_output)
        assert run_cli("simulate", str(cfg_path), "-o", str(run)) == EXIT_OK
    for path in (fam_dir / "manifest.json", fam_dir / "certificates.json",
                 run / "summary.json", run / "manifest.json"):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    for root, key in ((fam_dir, "files"), (run, "outputs")):
        listed = json.loads((root / "manifest.json").read_text())[key]
        assert listed == {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
                          for name in listed}
