"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Every numeric claim here is either exact integer
arithmetic or carries its tolerance inline.
"""

import json
import math
import time

import numpy as np

from conftest import (
    code_accf,
    find_interference_witness,
    naive_accf,
    naive_circular,
    random_sequence,
    random_valid_params,
    theoretical_bpsk_ber,
    two_proportion_z,
)
from zczseq import (
    accf,
    build_ccc_family,
    build_multiple_zcz,
    check_chunk_decomposition,
    check_seed_cancellation,
    cli,
    default_params,
    example1_params,
    pccf,
    performance_parameter,
    seed_polynomial,
    verify_ccc,
    verify_inter_zccz,
    verify_zcz,
)
from zczseq.gbf import GeneralizedBooleanFunction
from zczseq.qscdma import SimulationConfig, simulate_ber

SIM_SEED = 20260810


def _report(name, detail=""):
    print(f"PASS  {name}" + (f"  [{detail}]" if detail else ""))


def test_acceptance_bundled_example_reproduction(tmp_path):
    """construct --example1 + verify certify two optimal (8,16,256) sets,
    inter-set zone >= 7, near-optimal (16,7,256) union; exact; < 5 s."""
    t0 = time.monotonic()
    out = tmp_path / "fam"
    assert cli.main(["construct", "--example1", "-o", str(out)]) == 0
    assert cli.main(["verify", str(out)]) == 0
    report = json.loads((out / "certificates.json").read_text())
    assert report["pass"]
    for cert in report["sets"]:
        assert cert["parameters"] == {"K": 8, "Z": 16, "L": 256, "q": 2}
        assert cert["pass"] and not cert["witnesses"]
        assert cert["rho"] == [1, 1] and cert["classification"] == "optimal"
    assert report["inter"][0]["parameters"]["Zc"] == 7 and report["inter"][0]["pass"]
    union = report["union"]
    assert union["parameters"] == {"K": 16, "Z": 7, "L": 256, "q": 2}
    assert union["pass"]
    # binary near-optimality identity 2K(Z+1)/L = 1, exactly
    assert 2 * 16 * (7 + 1) == 256
    rho, cls = performance_parameter(16, 7, 256, binary=True)
    assert cls == "near-optimal"
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report("bundled example reproduction", f"{elapsed:.2f}s")


def test_acceptance_four_cluster_parameters():
    """(q,m,k,s) = (2,4,2,2): 4 sets x 8 sequences x 256 chips, per-set
    zone 16 and inter-set zone >= 3 (the system delay tolerance); exact;
    < 5 s."""
    t0 = time.monotonic()
    family = build_multiple_zcz(default_params(2, 4, 2, 2))
    assert len(family.sets) == 4
    assert all(len(st) == 8 and all(len(z) == 256 for z in st) for st in family.sets)
    for st in family.sets:
        cert = verify_zcz(st, 16)
        assert cert.passed and not cert.violations
    for a in range(4):
        for b in range(a + 1, 4):
            rep = verify_inter_zccz(family.sets[a], family.sets[b], 3)
            assert rep.passed and not rep.violations
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report("four-cluster parameter family", f"{elapsed:.2f}s")


def test_acceptance_parameter_sweep():
    """All (m,k,s) with 3 <= m <= 5, 1 <= k <= m-2, 0 <= s <= k and
    q in {2,4}; default coefficients plus 20 randomized valid variants
    each; every certificate exact with zero violations; < 5 min."""
    t0 = time.monotonic()
    rng = np.random.default_rng(SIM_SEED)
    families = 0
    violations = 0
    for m in range(3, 6):
        for k in range(1, m - 1):
            for s in range(0, k + 1):
                for q in (2, 4):
                    cases = [default_params(q, m, k, s)]
                    cases += [random_valid_params(rng, q, m, k, s) for _ in range(20)]
                    for params in cases:
                        family = build_multiple_zcz(params)
                        for st in family.sets:
                            cert = verify_zcz(st, family.Z)
                            violations += len(cert.violations)
                            assert cert.passed
                            if q == 2:
                                assert cert.rho == 1  # binary optimality, exact
                        n = len(family.sets)
                        for a in range(n):
                            for b in range(a + 1, n):
                                rep = verify_inter_zccz(
                                    family.sets[a], family.sets[b], family.Zc
                                )
                                violations += len(rep.violations)
                                assert rep.passed
                        families += 1
    assert violations == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report("parameter sweep", f"{families} families, {elapsed:.1f}s")


def test_acceptance_ccc_collection():
    """(m,k,s) = (4,2,1): both code families satisfy the complete
    complementary conditions exactly, and cross-family code correlations
    vanish for all |u| < 8."""
    t0 = time.monotonic()
    fams = build_ccc_family(example1_params())
    assert len(fams) == 2
    for codes in fams:
        rep = verify_ccc(codes)
        assert rep.passed and rep.is_complete and not rep.violations
    for a in fams[0]:
        for b in fams[1]:
            for u in range(-7, 8):
                assert code_accf(a, b, u) == 0
    _report("complete complementary collection", f"{time.monotonic() - t0:.2f}s")


def test_acceptance_seed_cancellation():
    """The half-shift sign identity holds exhaustively for >= 100 random
    valid seed functions with k <= 4, and fails for the zero function."""
    rng = np.random.default_rng(SIM_SEED + 1)
    checked = 0
    while checked < 120:
        k = int(rng.integers(0, 5))
        params = random_valid_params(rng, 2, k + 2, k, 0)
        rep = check_seed_cancellation(seed_polynomial(params.h))
        assert rep.passed and not rep.failures
        checked += 1
    zero = check_seed_cancellation(GeneralizedBooleanFunction(2, 4))
    assert not zero.passed and len(zero.failures) == 8
    _report("seed cancellation identity", f"{checked} samples + negative control")


def test_acceptance_chunk_decomposition():
    """Direct periodic correlation equals the chunk-level assembly on the
    bundled example for every (t1, t1', i, j) and every 0 <= tau <= 16,
    exactly."""
    t0 = time.monotonic()
    params = example1_params()
    family = build_multiple_zcz(params)
    codes = build_ccc_family(params)
    checked = 0
    for t1 in range(2):
        for t1b in range(2):
            for i in range(8):
                for j in range(8):
                    reports = check_chunk_decomposition(family, t1, t1b, i, j, codes=codes)
                    assert len(reports) == 17
                    for rep in reports:
                        assert rep.passed and rep.lhs == rep.rhs
                        checked += 1
    _report("chunk decomposition identity", f"{checked} checks, {time.monotonic() - t0:.1f}s")


def test_acceptance_correlation_oracle_equivalence():
    """Library accf/pccf match a naive doubly-indexed oracle on 1,000
    random pairs with L <= 64: exactly for q in {2,4}, within 1e-9*L for
    other moduli."""
    rng = np.random.default_rng(SIM_SEED + 2)
    pairs = 0
    while pairs < 1000:
        q = int(rng.choice([2, 4, 6]))
        L = int(rng.integers(1, 65))
        a = random_sequence(rng, q, L)
        b = random_sequence(rng, q, L)
        shifts = {0, 1 % L, L - 1, L, -L}
        shifts.update(int(x) for x in rng.integers(-L, L + 1, size=8))
        for u in shifts:
            got = accf(a, b, u)
            want = naive_accf(a, b, u)
            if q in (2, 4):
                assert got == want
            else:
                assert abs(got - want) <= 1e-9 * L
        for u in {0, L // 2, L - 1} | {int(x) for x in rng.integers(0, L, size=4)}:
            got = pccf(a, b, u)
            want = naive_circular(a, b, u)
            if q in (2, 4):
                assert got == want
            else:
                assert abs(got - want) <= 1e-9 * L
        pairs += 1
    _report("correlation oracle equivalence", "1000 pairs")


def test_acceptance_simulation_properties():
    """(a) noiseless 4x8-user run with delays <= 3 chips: exactly 0 bit
    errors over >= 1e5 bits; (b) single-user BER at {0,2,4} dB within 3
    binomial sigma of Q(sqrt(2 Eb/N0)); (c) the 4x8-user run is
    statistically indistinguishable from single-user (two-proportion z,
    alpha = 0.01) at every point.  Desk scale 1e4 bits x 1e2 iterations
    per point; < 10 min."""
    t0 = time.monotonic()
    family = build_multiple_zcz(default_params(2, 4, 2, 2))

    noiseless = simulate_ber(
        family,
        SimulationConfig(
            clusters=4, users_per_cluster=8, max_delay_chips=3, snr_db=(),
            seed=SIM_SEED, noiseless=True, bits_per_iteration=10_000, iterations=12,
        ),
    )
    for curve in noiseless.curves:
        assert curve.points[0].bits >= 100_000
        assert curve.points[0].errors == 0

    snrs = (0.0, 2.0, 4.0)
    single = simulate_ber(
        family,
        SimulationConfig(
            clusters=1, users_per_cluster=1, max_delay_chips=0, snr_db=snrs,
            seed=SIM_SEED, bits_per_iteration=10_000, iterations=100,
        ),
    )
    for pt in single.curves[0].points:
        theory = theoretical_bpsk_ber(pt.snr_db)
        sigma = math.sqrt(theory * (1 - theory) / pt.bits)
        assert abs(pt.ber - theory) < 3 * sigma

    multi = simulate_ber(
        family,
        SimulationConfig(
            clusters=4, users_per_cluster=8, max_delay_chips=3, snr_db=snrs,
            seed=SIM_SEED, bits_per_iteration=10_000, iterations=100,
        ),
    )
    for curve in multi.curves:
        for idx in range(len(snrs)):
            s_pt = single.curves[0].points[idx]
            m_pt = curve.points[idx]
            z = two_proportion_z(s_pt.errors, s_pt.bits, m_pt.errors, m_pt.bits)
            assert abs(z) < 2.576  # alpha = 0.01, two-sided
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _report("simulation properties", f"{elapsed:.0f}s")


def test_acceptance_negative_controls():
    """Flipping any single chip of the bundled example breaks at least
    one in-zone condition (all 4096 flips checked; sampled flips re-run
    through the full certifiers), and a delay beyond the inter-set zone
    yields a concrete interference witness."""
    t0 = time.monotonic()
    params = example1_params()
    family = build_multiple_zcz(params)
    L, Zw, Zc, K_set = family.L, family.Z, family.Zc, len(family.sets[0])
    union = [z for st in family.sets for z in st]
    A = np.stack([z.values().real.astype(np.int64) for z in union])
    K = len(union)

    shifts = np.r_[np.arange(0, Zw + 1), np.arange(L - Zw, L)]
    signed = np.where(shifts <= Zw, shifts, shifts - L)
    ext = np.concatenate([A, A], axis=1)
    windows = np.lib.stride_tricks.sliding_window_view(ext, L, axis=1)[:, shifts, :]
    auto_zone = (np.abs(signed) >= 1) & (np.abs(signed) <= Zw)

    unbroken = []
    for idx in range(K):
        own_set = idx // K_set
        cross_zone = np.array(
            [
                np.abs(signed) <= (Zw if j // K_set == own_set else Zc)
                for j in range(K)
            ]
        )
        cross_zone[idx] = False
        for pos in range(L):
            v = A[idx].copy()
            v[pos] = -v[pos]
            cross = np.einsum("t,jut->ju", v, windows)
            auto = np.lib.stride_tricks.sliding_window_view(np.r_[v, v], L)[shifts] @ v
            if np.any(auto[auto_zone] != 0):
                continue
            if np.any(cross[cross_zone] != 0):
                continue
            unbroken.append((idx, pos))
    assert not unbroken, f"flips that broke nothing: {unbroken[:5]}"

    # tie the fast scan to the actual certifiers on a sample of flips
    rng = np.random.default_rng(SIM_SEED + 3)
    for _ in range(12):
        t1 = int(rng.integers(2))
        i = int(rng.integers(K_set))
        pos = int(rng.integers(L))
        seqs = list(family.sets[t1])
        exps = seqs[i].exponents.copy()
        exps[pos] ^= 1
        seqs[i] = type(seqs[i])(2, exps)
        other = family.sets[1 - t1]
        broken = (
            not verify_zcz(seqs, Zw).passed
            or not verify_inter_zccz(seqs, other, Zc).passed
        )
        assert broken

    witness = find_interference_witness(
        build_multiple_zcz(default_params(2, 4, 2, 2)), 4
    )
    assert witness is not None and abs(witness.shift) == 4 and abs(witness.value) > 0
    _report("negative controls", f"4096 flips + witness, {time.monotonic() - t0:.1f}s")
