"""Correlation values, oracle cross-checks, and zone certificates."""

import dataclasses
import hashlib
import itertools
import json
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    code_accf,
    csv_module_spectrum,
    dot_accf,
    exactly_zero,
    naive_circular,
    random_sequence,
    random_valid_params,
    spectrum_value,
    undecidable_q8_pair,
    union_of,
    used_roots_real,
    with_sets,
)
from zczseq import (
    GeneralizedBooleanFunction,
    HCoeffs,
    SpectrumCapError,
    UnimodularSequence,
    accf,
    build_ccc_family,
    build_multiple_zcz,
    certify_family,
    check_chunk_decomposition,
    correlation,
    correlation_spectrum,
    default_params,
    example1_params,
    path_gbf,
    pccf,
    performance_parameter,
    verify_ccc,
    verify_inter_zccz,
    verify_zcz,
)


def binary(*chips):
    # chips written as +1/-1
    return UnimodularSequence(2, np.array([(1 - c) // 2 for c in chips]))


PERFECT4 = binary(1, 1, 1, -1)

# float moduli: how far two summation orders of one correlation may differ
FLOAT_AGREEMENT_PER_CHIP = 1e-9


def test_accf_all_ones():
    ones = binary(1, 1, 1, 1)
    assert accf(ones, ones, 1) == 3
    assert accf(ones, ones, 0) == 4


def test_accf_hand_values():
    assert accf(PERFECT4, PERFECT4, 2) == 0
    assert accf(PERFECT4, PERFECT4, 3) == -1
    assert accf(PERFECT4, PERFECT4, 4) == 0  # empty sum at |u| = L
    assert accf(PERFECT4, PERFECT4, -4) == 0


def test_accf_peak_is_length_without_mask():
    rng = np.random.default_rng(0)
    for q in (2, 4, 6):
        seq = random_sequence(rng, q, 17)
        assert abs(accf(seq, seq, 0) - 17) <= FLOAT_AGREEMENT_PER_CHIP * 17


def test_accf_errors():
    # every check keeps its message, on sign-bit and on dot operands alike:
    # q = 2, binary q = 8 (exponents 0 and 4) and complex q = 8
    rng = np.random.default_rng(37)
    for q, scale in ((2, 1), (8, 4), (8, 1)):
        a, c, b = (UnimodularSequence(q, scale * rng.integers(0, q // scale, n)) for n in (5, 5, 6))
        assert {type(z._root_vectors[2]) for z in (a, b, c)} == {int if scale * 2 == q else tuple}
        same_roots = UnimodularSequence(2 * q, 2 * a.exponents)
        for x, y, message in [(a, b, "length mismatch: 5 vs 6"), (b, a, "length mismatch: 6 vs 5"),
                              (a, same_roots, f"modulus mismatch: q={q} vs q={2 * q}"),
                              (same_roots, a, f"modulus mismatch: q={2 * q} vs q={q}")]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                accf(x, y, 0)
        for x, y, u in itertools.product((a, c), (a, c), (6, -6)):
            with pytest.raises(ValueError, match=rf"^shift {u} outside \[-5, 5\]$"):
                accf(x, y, u)


def _same_value(got, want, exact):
    """``got`` is a Python complex equal to ``want``: as integers for exact
    moduli (up to the sign of a zero), in every bit otherwise."""
    assert type(got) is complex
    if exact:
        return got == want and got.real.is_integer() and got.imag.is_integer()
    return np.array_equal(np.array([got.real, got.imag]).view(np.int64),
                          np.array([want.real, want.imag]).view(np.int64))


def _accf_mismatches(a, b):
    """Shifts -L..L at which ``accf`` differs from np.dot(a, conj(b)) over
    the overlapping chips, both taken from ``values()``."""
    L = len(a)
    return [u for u in range(-L, L + 1)
            if not _same_value(accf(a, b, u), dot_accf(a, b, u), a.q in (1, 2, 4))]


def _pccf_mismatches(a, b):
    """Shifts 0..L-1 at which ``pccf`` differs from the forward dot plus
    the conjugated backward one, as Python complex."""
    L = len(a)
    va, vb = a.values(), b.values()
    bad = []
    for u in range(L):
        fwd = np.dot(va[: L - u], np.conj(vb[u:]))
        bwd = np.dot(vb[: u], np.conj(va[L - u :]))
        if not _same_value(pccf(a, b, u), complex(fwd) + complex(bwd).conjugate(), a.q in (1, 2, 4)):
            bad.append(u)
    return bad


@pytest.mark.parametrize("q", [1, 2, 3, 4, 6, 8, 16])
def test_accf_equals_dot_with_conjugate_bit_for_bit(q):
    rng = np.random.default_rng(30 + q)
    a, b = random_sequence(rng, q, 37), random_sequence(rng, q, 37)
    assert _accf_mismatches(a, b) == [] and _accf_mismatches(b, a) == []


@pytest.mark.parametrize("q", [1, 2, 3, 4, 6, 8, 16])
def test_pccf_equals_two_dots_bit_for_bit(q):
    rng = np.random.default_rng(40 + q)
    a, b = random_sequence(rng, q, 37), random_sequence(rng, q, 37)
    assert _pccf_mismatches(a, b) == [] and _pccf_mismatches(b, a) == []


@pytest.mark.parametrize("L", [1, 7, 8, 9, 63, 64, 65, 256])
@pytest.mark.parametrize("q", [1, 2])
def test_sign_bit_accf_and_pccf_equal_the_dot_oracle_at_byte_and_word_edges(q, L):
    rng = np.random.default_rng(60 + L)
    a, b = random_sequence(rng, q, L), random_sequence(rng, q, L)
    if q == 2:  # a's first and last chips are -1: bits 0 and L - 1 are set
        a = UnimodularSequence(2, np.r_[1, a.exponents[1:-1], 1][:L])
    for x, y in ((a, b), (b, a), (a, a)):
        assert _pccf_mismatches(x, y) == []
        # every bit of the dot's real part, and a +0.0 imaginary part
        assert all(_same_value(accf(x, y, u), complex(dot_accf(x, y, u).real), exact=False)
                   for u in range(-L, L + 1))


@pytest.mark.parametrize("q", [2, 4])
def test_accf_takes_numpy_integer_shifts(q):
    rng = np.random.default_rng(36)
    a, b = random_sequence(rng, q, 200), random_sequence(rng, q, 200)
    for u in (-200, -3, 0, 100, 200):
        assert _same_value(accf(a, b, np.int64(u)), accf(a, b, u), exact=False)
    with pytest.raises(TypeError):
        accf(a, b, 3.0)


@pytest.mark.parametrize("chip", [0, 7, 8, 63, 64])
def test_the_dot_oracle_catches_one_flipped_bit_of_a_cached_sign_mask(chip):
    # negative control: the mask accf reads, not the exponents, is what it sums
    rng = np.random.default_rng(35)
    a, b = random_sequence(rng, 2, 65), random_sequence(rng, 2, 65)
    assert _accf_mismatches(a, b) == []
    L, q, signs = b._root_vectors
    b.__dict__["_root_vectors"] = L, q, signs ^ (1 << chip)
    assert _accf_mismatches(a, b)


def test_a_conjugated_q8_pair_correlates_bit_for_bit():
    # sigma_3 sequences, as --deep builds them for q = 8, keep vectors of their own
    rng = np.random.default_rng(48)
    pair = random_sequence(rng, 8, 37), random_sequence(rng, 8, 37)
    a, b = correlation._conjugate(pair, 3)
    assert a._root_vectors[2][0] is not pair[0]._root_vectors[2][0]
    assert _accf_mismatches(a, b) == [] and _pccf_mismatches(a, b) == []


def test_conjugate_widens_exponents_before_multiplying():
    # negative control: sigma_15 of exponent 33 at q = 34 is 495 mod 34 = 19;
    # multiplied in the stored uint8, 495 would wrap to 239 and give 1
    seq = UnimodularSequence(34, np.arange(34))
    assert seq.exponents.dtype == np.uint8
    conj = correlation._conjugate(seq, 15)
    assert conj.exponents.tolist() == (np.arange(34, dtype=np.int64) * 15 % 34).tolist()


def test_the_dot_oracle_catches_an_accf_that_skips_the_conjugate():
    # negative control: b's "conjugates" slot holding its values must not pass
    rng = np.random.default_rng(34)
    a, b = random_sequence(rng, 4, 37), random_sequence(rng, 4, 37)
    assert _accf_mismatches(a, b) == []
    L, q, (values, _) = b._root_vectors
    b.__dict__["_root_vectors"] = L, q, (values, values)
    assert _accf_mismatches(a, b)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 8])
def test_a_sequence_keeps_read_only_root_vectors(q):
    seq = random_sequence(np.random.default_rng(50 + q), q, 29)
    record = seq._root_vectors
    assert seq._root_vectors is record  # built once, kept
    assert record[:2] == (29, q) and type(record[0]) is int
    vectors, want = record[2], seq.values()
    if q <= 2:  # one int, bit i set where chip i is -1
        assert type(vectors) is int and not want.imag.any()
        assert [vectors >> i & 1 for i in range(len(seq))] == (want.real < 0).tolist()
        assert vectors >> len(seq) == 0
        return
    values, conj = vectors
    assert values.dtype == conj.dtype == np.complex128
    assert np.array_equal(values.view(np.int64), want.view(np.int64))
    assert np.array_equal(conj.view(np.int64), np.conj(want).view(np.int64))
    for vector in (values, conj):
        with pytest.raises(ValueError):
            vector[0] = 0
    assert not np.shares_memory(seq.values(), values)  # values() stays a fresh copy


def test_accf_conjugate_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(40):
        q = int(rng.choice([2, 4]))
        L = int(rng.integers(2, 33))
        a = random_sequence(rng, q, L)
        b = random_sequence(rng, q, L)
        u = int(rng.integers(-L, L + 1))
        assert accf(a, b, u) == accf(b, a, -u).conjugate()


def test_pccf_perfect_sequence():
    for u in (1, 2, 3):
        assert pccf(PERFECT4, PERFECT4, u) == 0
    assert pccf(PERFECT4, PERFECT4, 0) == 4


def test_pccf_symmetry_and_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        q = int(rng.choice([2, 4, 6]))
        L = int(rng.integers(2, 65))
        a = random_sequence(rng, q, L)
        b = random_sequence(rng, q, L)
        tol = FLOAT_AGREEMENT_PER_CHIP * L
        for u in sorted(set(int(x) for x in rng.integers(0, L, size=4))):
            v = pccf(a, b, u)
            w = pccf(b, a, (L - u) % L).conjugate()
            assert abs(v - w) <= tol + 1e-12
            assert abs(v - naive_circular(a, b, u)) <= tol + 1e-9


def test_pccf_auto_matches_circular_oracle_exhaustively():
    rng = np.random.default_rng(3)
    for L in (1, 2, 5, 16, 64):
        a = random_sequence(rng, 2, L)
        for u in range(L):
            assert pccf(a, a, u) == naive_circular(a, a, u)


def test_pccf_power_identity_against_fft():
    # sum_u |phi(u)|^2 == (1/L) sum_k |FFT(a)_k|^4, floating mode
    rng = np.random.default_rng(4)
    for _ in range(10):
        L = int(rng.integers(4, 64))
        a = random_sequence(rng, 8, L)
        power = sum(abs(pccf(a, a, u)) ** 2 for u in range(L))
        spec = np.abs(np.fft.fft(a.values())) ** 4
        assert abs(power - spec.sum() / L) <= 1e-6 * L * L


def test_code_accf_goldens():
    ones = binary(1, 1, 1, 1)
    assert code_accf([ones], [ones], 0) == 4
    pair = [binary(1, 1, 1, -1), binary(1, 1, -1, 1)]
    for u in range(-3, 4):
        assert code_accf(pair, pair, u) == (8 if u == 0 else 0)
    assert code_accf(pair, pair, 0) == 4 * 2  # L * M at the peak


def test_verify_ccc_smallest_construction():
    fams = build_ccc_family(default_params(2, 2, 0, 0))
    assert len(fams) == 1
    codes = fams[0]
    # frozen from the pinned row ordering
    assert [list(r.exponents) for r in codes[0]] == [[0, 0, 0, 1], [0, 1, 0, 0]]
    assert [list(r.exponents) for r in codes[1]] == [[0, 0, 1, 0], [0, 1, 1, 1]]
    rep = verify_ccc(codes)
    assert rep.passed and rep.is_complete and rep.P == rep.M == 2


def test_verify_ccc_repeated_code_fails_at_zero_shift():
    for q in (2, 4):
        fams = build_ccc_family(default_params(q, 2, 0, 0))
        rep = verify_ccc([fams[0][0], fams[0][0]])
        assert not rep.passed
        assert rep.witness.shift == 0 and rep.witness.i != rep.witness.j


def test_verify_ccc_incomplete_collection_flagged():
    fams = build_ccc_family(default_params(2, 2, 0, 0))
    rep = verify_ccc([fams[0][0]])
    assert not rep.is_complete and not rep.passed and not rep.violations
    # P < M: the codes of a complete collection still pass every row-sum test
    rep = verify_ccc(build_ccc_family(example1_params())[0][:3])
    assert (rep.P, rep.M, rep.L) == (3, 8, 16)
    assert not rep.is_complete and not rep.passed and not rep.violations


def test_verify_ccc_rejects_mixed_shapes():
    rng = np.random.default_rng(40)
    code = [random_sequence(rng, 2, 8) for _ in range(2)]
    for other in (
        [random_sequence(rng, 4, 8) for _ in range(2)],  # modulus
        [random_sequence(rng, 2, 9) for _ in range(2)],  # length
        [random_sequence(rng, 2, 8) for _ in range(3)],  # row count
    ):
        with pytest.raises(ValueError):
            verify_ccc([code, other])
    with pytest.raises(ValueError):
        verify_ccc([])


def _ccc_oracle(codes):
    """Every violation by direct row sums through code_accf, in (e1, e2, u)
    order, and the worst violation per pair (the first wins ties)."""
    M, L = len(codes[0]), len(codes[0][0])
    tol = FLOAT_AGREEMENT_PER_CHIP * L
    found, worst = [], {}
    for e1, code1 in enumerate(codes):
        for e2, code2 in enumerate(codes):
            for u in range(L):
                val = code_accf(code1, code2, u)
                want = L * M if e1 == e2 and u == 0 else 0
                if abs(val - want) > tol:
                    v = (e1, e2, u, val.real, val.imag)
                    found.append(v)
                    prev = worst.get((e1, e2))
                    if prev is None or abs(val) > abs(complex(*prev[3:])):
                        worst[e1, e2] = v
    return found, [worst[k] for k in sorted(worst)]


@pytest.mark.parametrize("q", [2, 4, 8])
@pytest.mark.parametrize("P,M,L", [(3, 3, 8), (2, 4, 5), (4, 2, 6), (5, 1, 7)])
def test_verify_ccc_matches_code_accf_oracle(q, P, M, L):
    rng = np.random.default_rng(100 * q + 10 * P + M)
    codes = [[random_sequence(rng, q, L) for _ in range(M)] for _ in range(P)]
    rep = verify_ccc(codes)
    found, worst = _ccc_oracle(codes)
    # the witness is the first violation in (e1, e2, u) order, not in shift order
    assert found[0] != min(found, key=lambda v: (v[2], v[0], v[1]))
    got = _tuples(rep.violations)
    assert len(got) == len(worst)
    for g, w in zip(got + _tuples([rep.witness]), worst + found[:1]):
        assert g[:3] == w[:3]
        if q == 8:
            assert abs(complex(*g[3:]) - complex(*w[3:])) <= 1e-9 * L
        else:
            assert g == w and all(type(x) is int for x in g)
    assert (rep.P, rep.M, rep.L, rep.passed) == (P, M, L, False)


def test_verify_ccc_flipped_chip_report_is_pinned():
    # pinned from the per-(e1, e2, u) code_accf loop this kernel replaced
    codes = list(build_ccc_family(example1_params())[0])
    rows = list(codes[0])
    exps = rows[0].exponents.copy()
    exps[0] ^= 1
    rows[0] = UnimodularSequence(2, exps)
    codes[0] = rows
    rep = verify_ccc(codes)
    assert rep.is_complete and not rep.passed
    assert _tuples(rep.violations) == [(0, 0, 1, -2, 0)] + [
        (0, j, 0, -2, 0) for j in range(1, 8)
    ] + [(i, 0, 0, -2, 0) for i in range(1, 8)]
    # pair-major order: shift-major would report (0, 1, 0) first
    assert _tuples([rep.witness]) == [(0, 0, 1, -2, 0)]


def test_verify_zcz_singleton_trivial():
    cert = verify_zcz([binary(1, -1, 1, 1)], 0)
    assert cert.passed and cert.K == 1 and cert.Z == 0


def test_verify_zcz_rejects_bad_zone():
    with pytest.raises(ValueError):
        verify_zcz([PERFECT4], 4)


def test_verify_zcz_monotone_in_zone_width():
    family = build_multiple_zcz(default_params(2, 3, 1, 0))
    seqs = family.sets[0]
    passes = [verify_zcz(seqs, Z).passed for Z in range(family.L - 1)]
    # pass flags must be a True-prefix: once a zone fails, wider zones fail
    first_fail = passes.index(False) if False in passes else len(passes)
    assert all(passes[:first_fail]) and not any(passes[first_fail:])
    assert first_fail > family.Z  # declared zone certainly holds


def test_verify_inter_zccz_same_set_fails_at_zero():
    rep = verify_inter_zccz([PERFECT4], [PERFECT4], 0)
    assert not rep.passed
    assert rep.witness.shift == 0 and rep.witness.re == 4


def test_performance_parameter_goldens():
    assert performance_parameter(8, 16, 256, binary=True) == (Fraction(1), "optimal")
    rho, cls = performance_parameter(16, 7, 256, binary=True)
    assert rho == Fraction(7, 8) and cls == "near-optimal"
    assert performance_parameter(1, 0, 1) == (Fraction(1), "optimal")
    assert performance_parameter(4, 4, 8)[1] == "bound-violation"
    with pytest.raises(ValueError):
        performance_parameter(0, 1, 4)


def test_spectrum_goldens_and_oracle():
    ones = binary(1, 1, 1, 1)
    table = correlation_spectrum([ones])
    assert [spectrum_value(table, 0, 0, u) for u in range(4)] == [4, 4, 4, 4]
    table = correlation_spectrum([PERFECT4])
    assert [spectrum_value(table, 0, 0, u) for u in range(4)] == [4, 0, 0, 0]

    rng = np.random.default_rng(5)
    seqs = [random_sequence(rng, 4, 12) for _ in range(3)]
    table = correlation_spectrum(seqs)
    for i in range(3):
        for j in range(3):
            for u in range(12):
                assert spectrum_value(table, i, j, u) == naive_circular(seqs[i], seqs[j], u)


def test_spectrum_cap():
    rng = np.random.default_rng(6)
    seqs = [random_sequence(rng, 2, 64) for _ in range(4)]
    with pytest.raises(SpectrumCapError):
        correlation_spectrum(seqs, max_cells=100)


def _spectrum_and_peak(monkeypatch, seqs, sizes=None):
    """``correlation_spectrum`` of ``seqs`` in sets of ``sizes`` and its
    tracemalloc peak, with 64 KiB shift blocks."""
    monkeypatch.setattr(correlation, "_SHIFT_BLOCK_BYTES", 1 << 16)
    correlation_spectrum(seqs, sizes)  # warm up lazy imports outside the trace
    tracemalloc.start()
    try:
        table = correlation_spectrum(seqs, sizes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return table, peak


def _random_sequences(q, seed):
    """32 random sequences of 1,024 chips: no split, so the GEMM path."""
    rng = np.random.default_rng(seed)
    return [random_sequence(rng, q, 1024) for _ in range(32)]


def test_real_spectrum_allocates_no_second_table(monkeypatch):
    # the table is the kernel's float32 one; the stack, its matrix, the
    # extended rows and one shift block's temporaries add about 0.17 x its size
    table, peak = _spectrum_and_peak(monkeypatch, _random_sequences(2, 50))
    assert table.phi.dtype == np.float32 and table.exact
    # a K x K x L int64 copy would bring the peak to 3 x phi.nbytes
    assert peak < 1.25 * table.phi.nbytes


def test_split_spectrum_allocates_no_second_table(monkeypatch):
    # the fold path at the same shape, 32 sequences of 1,024 chips: the
    # split's factors, their roots and one shift block's temporaries
    fam = build_multiple_zcz(default_params(2, 6, 2, 2))
    assert (fam.union.K, fam.L) == (32, 1024)
    calls = _spy_kernels(monkeypatch)
    table, peak = _spectrum_and_peak(monkeypatch, fam.union, fam.sizes)
    assert set(calls) == {"_folded_table"}
    assert table.phi.dtype == np.float32 and table.exact
    assert peak < 1.25 * table.phi.nbytes


def test_complex_spectrum_allocates_no_second_table(monkeypatch):
    table, peak = _spectrum_and_peak(monkeypatch, _random_sequences(4, 51))
    assert table.phi.dtype == np.complex64 and table.exact
    # int64 copies of re and im would bring the peak to 3 x phi.nbytes
    assert peak < 1.25 * table.phi.nbytes


def test_spectrum_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    seqs = [random_sequence(rng, 2, 8) for _ in range(2)]
    table = correlation_spectrum(seqs)
    path = tmp_path / "spec.csv"
    table.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "pair_i,pair_j,shift,re,im"
    assert len(lines) == 1 + 2 * 2 * 8
    i, j, u, re, im = lines[1 + 8].split(",")
    assert (int(i), int(j), int(u)) == (0, 1, 0)
    assert complex(int(re), int(im)) == spectrum_value(table, 0, 1, 0)
    # the row format: ints for exact tables, repr() of every float otherwise
    for q in (2, 6):
        table = correlation_spectrum([random_sequence(rng, q, 8) for _ in range(2)])
        table.write_csv(path)
        fmt = int if table.exact else (lambda x: repr(float(x)))
        re, im = table.phi.real, table.phi.imag
        assert path.read_text().splitlines()[1:] == [
            f"{i},{j},{u},{fmt(re[u, i, j])},{fmt(im[u, i, j])}"
            for i in range(2) for j in range(2) for u in range(8)
        ]


def _complex_table(re, im):
    """One complex table with parts ``re`` and ``im``, signed zeros kept."""
    phi = re.astype(np.result_type(re, np.complex64))
    phi.imag = im
    return phi


@pytest.mark.parametrize("q", [2, 4, 6, 8])
def test_spectrum_csv_bytes_match_the_csv_module(q, tmp_path):
    # for q = 6 and 8 odd linear coefficients in f make the family not
    # binary, so that its table is not exact and takes the repr-float branch
    f = path_gbf(q, 3, 1, 1, (), (0, 1)) + GeneralizedBooleanFunction(q, 3, {(0,): 1, (2,): 3})
    fam = build_multiple_zcz(default_params(q, 3, 1, 1, f=f if q > 4 else None))
    table = correlation_spectrum(fam.sets[0])
    # the kernel's table, unconverted: single precision for exact sets
    assert table.phi.real.dtype == (np.float32 if q in (2, 4) else np.float64)
    tables = [table]
    if not table.exact:
        # signed zeros and floats whose shortest repr needs 17 digits
        re = table.phi.real.copy()
        re[::2, 0, 0], re[1::2, 0, 0] = -0.0, 0.1 + 0.2
        tables.append(dataclasses.replace(table, phi=_complex_table(re, -re)))
    for t in tables:
        t.write_csv(tmp_path / "fast.csv")
        csv_module_spectrum(t, tmp_path / "slow.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


@pytest.mark.parametrize("q", [2, 4, 8])
def test_spectrum_csv_bytes_match_the_csv_module_at_the_bench_shape(q, tmp_path):
    # 16 sequences of 256 chips, the shape of the bundled example's union:
    # i and j reach two digits and u three, over 16 pair_i blocks
    rng = np.random.default_rng(60 + q)
    L = 256
    table = correlation_spectrum([random_sequence(rng, q, L) for _ in range(16)])
    tables = [table]
    re, im = table.phi.real.copy(), table.phi.imag.copy()
    if table.exact:
        assert (re < 0).any() and (q == 2 or (im < 0).any())
        # one-sided ranges reaching -L, and a constant nonzero column
        tables.append(dataclasses.replace(table, phi=_complex_table(-abs(re), np.full_like(re, -L))))
    else:
        # -0.0 next to 0.0 and 17-digit reprs, in the first, a middle and the last block
        for i in (0, 7, 15):
            re[0::3, i, 1], re[1::3, i, 1], re[2::3, i, 1] = -0.0, 0.0, 0.1 + 0.2
            im[0::3, i, 2], im[1::3, i, 2], im[2::3, i, 2] = 0.0, -0.0, -(0.1 + 0.2)
        tables.append(dataclasses.replace(table, phi=_complex_table(re, im)))
    for t in tables:
        t.write_csv(tmp_path / "fast.csv")
        csv_module_spectrum(t, tmp_path / "slow.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


def test_spectrum_csv_refuses_exact_entries_beyond_the_length(tmp_path):
    # an exact entry has magnitude at most L; the writer formats [min, max] densely
    table = correlation_spectrum([PERFECT4])
    phi = table.phi.copy()
    phi[0, 0, 0] = 5
    with pytest.raises(ValueError, match=r"exact table entries \[0, 5\] outside \[-4, 4\]"):
        dataclasses.replace(table, phi=phi).write_csv(tmp_path / "spec.csv")


@pytest.mark.parametrize("q", [2, 8])
def test_spectrum_csv_memory_is_one_block_whatever_the_block_count(q, tmp_path):
    """The writer's tracemalloc peak stays below a fixed multiple of one
    pair_i block (K * L rows at the longest row's width) plus the text
    tables, and 32 blocks of 2,048 rows peak no higher than 16 do: no
    temporary is proportional to the whole table."""
    rng = np.random.default_rng(70 + q)
    path = tmp_path / "spec.csv"
    peaks = []
    for K, L in ((16, 128), (32, 64)):
        table = correlation_spectrum([random_sequence(rng, q, L) for _ in range(K)])
        table.write_csv(path)  # warm up lazy imports outside the trace
        width = max(map(len, path.read_bytes().split(b"\r\n")[1:])) + 2
        tracemalloc.start()
        try:
            table.write_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        texts = (2 * L + 1 + K + L) * 64  # the int texts and the pair_j and shift ones
        assert peak < 6 * K * L * width + texts
        peaks.append(peak)
    assert peaks[1] < 1.25 * peaks[0]


def test_certificate_json_shapes():
    cert = verify_zcz([PERFECT4], 0)
    data = cert.to_json_dict()
    assert data["pass"] and data["parameters"]["K"] == 1
    rep = verify_inter_zccz([PERFECT4], [binary(1, 1, 1, 1)], 0)
    assert "witnesses" in rep.to_json_dict()


def _assert_table_matches_pccf(set_a, set_b, shifts):
    A, B = correlation._stack(set_a).matrix(), correlation._stack(set_b).matrix()
    phi = correlation._periodic_table(A, B, shifts)
    # one array in the kernel's dtype: real when both matrices are real
    assert phi.dtype == np.result_type(A, B)
    assert (phi.dtype.kind == "f") == (A.dtype.kind == B.dtype.kind == "f")
    assert phi.shape == (len(shifts), len(set_a), len(set_b))
    exact = set_a[0].q in (1, 2, 4)
    for n, u in enumerate(shifts):
        for i, a in enumerate(set_a):
            for j, b in enumerate(set_b):
                got, want = complex(phi[n, i, j]), pccf(a, b, u)
                if exact:
                    assert got == want
                else:
                    assert abs(got - want) <= FLOAT_AGREEMENT_PER_CHIP * len(a)


@pytest.mark.parametrize("q", [1, 2, 4, 8])
def test_periodic_table_matches_scalar_pccf(q):
    rng = np.random.default_rng(20 + q)
    L = 48
    set_a = [random_sequence(rng, q, L) for _ in range(3)]
    set_b = [random_sequence(rng, q, L) for _ in range(5)]
    _assert_table_matches_pccf(set_a, set_b, list(range(L)))
    _assert_table_matches_pccf(set_b, set_a, [7, 0, L - 1, 3])


@pytest.mark.parametrize("q", [2, 4, 8])
def test_periodic_table_crosses_block_boundaries(q, monkeypatch):
    rng = np.random.default_rng(30 + q)
    L = 40
    set_a = [random_sequence(rng, q, L) for _ in range(2)]
    set_b = [random_sequence(rng, q, L) for _ in range(3)]
    # 3 complex128 (q = 8), 6 complex64 (q = 4) or 12 float32 (q = 2) shifts
    # per block: 13 shifts cross block boundaries
    monkeypatch.setattr(correlation, "_SHIFT_BLOCK_BYTES", 3 * 3 * L * 16 + 1)
    _assert_table_matches_pccf(set_a, set_b, list(range(13)))
    monkeypatch.undo()
    # the default block size: 4 x 2048 float32 rows give 15 shifts per block
    set_a = [random_sequence(rng, 2, 2048) for _ in range(2)]
    set_b = [random_sequence(rng, 2, 2048) for _ in range(4)]
    shifts = list(range(0, 2048, 11))
    mat = correlation._stack(set_b).matrix()
    assert len(shifts) > correlation._SHIFT_BLOCK_BYTES // mat.nbytes
    _assert_table_matches_pccf(set_a, set_b, shifts)


def _flipped_example_set():
    fam = build_multiple_zcz(example1_params())
    seqs = list(fam.sets[0])
    exps = seqs[3].exponents.copy()
    exps[5] ^= 1
    seqs[3] = UnimodularSequence(2, exps)
    return fam, seqs


def _tuples(vios):
    return [(v.i, v.j, v.shift, v.re, v.im) for v in vios]


def test_flipped_chip_witnesses_are_pinned():
    # pinned from the int64 einsum kernel this one replaced
    fam, seqs = _flipped_example_set()
    cert = verify_zcz(seqs, fam.Z)
    assert _tuples(cert.violations) == [
        (0, 3, 0, 2, 0), (1, 3, 0, -2, 0), (2, 3, 0, 2, 0), (3, 0, 0, 2, 0),
        (3, 1, 0, -2, 0), (3, 2, 0, 2, 0), (3, 3, 1, -4, 0), (3, 4, 0, 2, 0),
        (3, 5, 0, -2, 0), (3, 6, 0, 2, 0), (3, 7, 0, -2, 0), (4, 3, 0, 2, 0),
        (5, 3, 0, -2, 0), (6, 3, 0, 2, 0), (7, 3, 0, -2, 0),
    ]
    assert _tuples([cert.witness]) == [(0, 3, 0, 2, 0)]
    rep = verify_inter_zccz(seqs, fam.sets[1], fam.Zc)
    assert _tuples(rep.violations) == [(3, j, 0, 2 * (-1) ** j, 0) for j in range(8)]
    assert _tuples([rep.witness]) == [(3, 0, 0, 2, 0)]


def test_quaternary_witnesses_are_pinned():
    # pinned from the int64 einsum kernel this one replaced
    def digest(vios):
        blob = json.dumps([v.to_json_dict() for v in vios]).encode()
        return hashlib.sha256(blob).hexdigest()

    rng = np.random.default_rng(12)
    set_a = [UnimodularSequence(4, rng.integers(0, 4, 32)) for _ in range(5)]
    set_b = [UnimodularSequence(4, rng.integers(0, 4, 32)) for _ in range(3)]
    cert = verify_zcz(set_a, 6)
    assert len(cert.violations) == 25
    assert _tuples([cert.witness]) == [(0, 1, 0, -3, -7)]
    assert digest(cert.violations) == (
        "08c43ff96767bcfa072fb549930bfb57c5c6e9aadf0e690ef51061e70ca88ee6"
    )
    rep = verify_inter_zccz(set_a, set_b, 6)
    assert len(rep.violations) == 28
    assert _tuples([rep.witness]) == [(0, 0, 2, -8, 2)]
    assert digest(rep.violations) == (
        "cca6262a142725daf14599fe5f59cd07e01f28303d2babcd8fb58094d1c7927a"
    )


@pytest.mark.parametrize("q", [2, 4, 6, 8])
def test_the_binary_bound_follows_the_exponents_not_the_modulus(q):
    # exponents in {0, q/2} make +-1 entries, whatever q: omega^3 for q = 6
    # is -1, though not exactly real in float64
    rng = np.random.default_rng(90 + q)
    signs = [UnimodularSequence(q, q // 2 * rng.integers(0, 2, 64)) for _ in range(2)]
    other = [UnimodularSequence(q, rng.integers(0, q, 64)) for _ in range(2)]
    sets, _, union = certify_family(*union_of([signs, other]), 0, 0)
    mixed = "binary" if q == 2 else "general"
    assert [c.formula for c in (*sets, union)] == ["binary", mixed, mixed]
    # each set is rated by its own sequences, as the separate calls rate it
    certs = (*sets, verify_zcz(signs, 0), verify_zcz(other, 0))
    labels = [(c.formula, c.rho, c.classification) for c in certs]
    assert labels[:2] == labels[2:]
    # rho is 2KZ/L for a +-1 set and K(Z+1)/L otherwise
    assert [c.rho for c in sets] == [0, 0 if q == 2 else Fraction(1, 32)]


def _without_q(report):
    """A certificate's JSON dict without its ``q`` fields."""
    if isinstance(report, dict):
        return {k: _without_q(v) for k, v in report.items() if k != "q"}
    return [_without_q(v) for v in report] if isinstance(report, list) else report


@pytest.mark.parametrize("q", [4, 6, 8])
def test_a_binary_family_certifies_as_its_q2_family(q, tmp_path):
    """The default family for q = 4, 6 and 8 has every exponent in {0, q/2}:
    it is the q = 2 family with every exponent times q/2, and it takes the
    q = 2 path, so its certificates, at its zones and one past each, and
    its spectrum CSV equal those of the q = 2 family but for q."""
    fams = [build_multiple_zcz(default_params(p, 4, 2, 1)) for p in (2, q)]
    assert np.array_equal(fams[0].union.exps * (q // 2), fams[1].union.exps)
    assert fams[1].union.real and fams[1].union.exact
    Z, Zc = fams[0].Z, fams[0].Zc
    for zones in ((Z, Zc), (Z + 1, Zc), (Z, Zc + 1)):
        reports = []
        for fam in fams:
            set_certs, inter, union_cert = certify_family(fam.union, fam.sizes, *zones)
            reports.append([c.to_json_dict() for c in (*set_certs, *inter.values(), union_cert)])
        assert _without_q(reports[1]) == _without_q(reports[0]), zones
        assert all(c["parameters"]["q"] == q for c in reports[1])
    # an over-claim's witnesses are exact integers, as for q = 2
    witnesses = [w for c in reports[1] for w in c["witnesses"]]
    assert witnesses and all(type(w["re"]) is type(w["im"]) is int for w in witnesses)
    for p, fam in zip((2, q), fams):
        correlation_spectrum(fam.union).write_csv(tmp_path / f"{p}.csv")
    assert (tmp_path / "2.csv").read_bytes() == (tmp_path / f"{q}.csv").read_bytes()


def test_a_binary_set_meets_a_non_binary_set_on_the_complex_path():
    """A binary q = 8 set against one that is not: both sets compute on the
    complex path, as a stack of the binary set marked complex does, bit for
    bit, with inexact float witnesses.  Negative control: with each stack on
    its own path, the binary one's exactness would truncate the witnesses to
    int64."""
    rng = np.random.default_rng(95)
    signs = [UnimodularSequence(8, 4 * rng.integers(0, 2, 64)) for _ in range(3)]
    other = [UnimodularSequence(8, rng.integers(0, 8, 64)) for _ in range(2)]
    stack = correlation._stack(signs)
    assert stack.real and not correlation._stack(other).real
    complex_signs = stack._replace(real=False)
    pairs = [((signs, other), (complex_signs, other)), ((other, signs), (other, complex_signs))]
    for (a, b), (a_was, b_was) in pairs:
        got, want = verify_inter_zccz(a, b, 5), verify_inter_zccz(a_was, b_was, 5)
        assert got == want and not got.passed
        values = [x for v in got.violations for x in (v.re, v.im)]
        assert all(type(x) is float for x in values)
        assert not all(x.is_integer() for x in values)


def test_a_binary_sequence_meets_a_non_binary_one_on_the_dot():
    """``accf`` and ``pccf`` of a binary q = 8 sequence against one that is
    not binary equal the dot oracle bit for bit; two binary q = 8 sequences
    correlate by sign bits as their q = 2 images do, in exact integers."""
    rng = np.random.default_rng(96)
    signs = [UnimodularSequence(8, 4 * rng.integers(0, 2, 37)) for _ in range(2)]
    other = random_sequence(rng, 8, 37)
    assert [type(z._root_vectors[2]) for z in (*signs, other)] == [int, int, tuple]
    for a, b in ((signs[0], other), (other, signs[0])):
        assert _accf_mismatches(a, b) == [] and _pccf_mismatches(a, b) == []
    images = [UnimodularSequence(2, z.exponents // 4) for z in signs]
    for u in range(-37, 38):
        assert _same_value(accf(*signs, u), accf(*images, u), exact=False)
    for u in range(37):
        assert _same_value(pccf(*signs, u), pccf(*images, u), exact=False)


def _corrupted_sets(params, t1, t2, chip):
    """The family's sets with one chip of sequence (t1, t2) moved by q/2;
    returns (sets, Z, Zc)."""
    fam = build_multiple_zcz(params)
    sets = [list(st) for st in fam.sets]
    seq = sets[t1][t2]
    exps = seq.exponents.copy()
    exps[chip] = (exps[chip] + seq.q // 2) % seq.q
    sets[t1][t2] = UnimodularSequence(seq.q, exps)
    return sets, fam.Z, fam.Zc


def _rounded(report):
    """A report with values rounded to 9 places.  Non-exact values come
    from GEMMs of other shapes, whose summation order BLAS may pick
    differently; exact values still have to match bit for bit."""
    def r(v):
        return v if v is None else dataclasses.replace(v, re=round(v.re, 9), im=round(v.im, 9))

    return dataclasses.replace(
        report, violations=tuple(map(r, report.violations)), witness=r(report.witness)
    )


@pytest.mark.parametrize("q, zones, covers", [
    pytest.param(2, None, "", id="flipped-example"),
    pytest.param(4, None, "", id="q4"),
    pytest.param(6, None, "", id="q6"),
    pytest.param(4, (24, 3), "extension", id="q4-Zc<Z"),
    pytest.param(4, (5, 11), "reversed", id="q4-Zc>Z"),
    pytest.param(6, (11, 11), "reversed", id="q6-Zc=Z"),
])
def test_certify_family_matches_separate_certificates(q, zones, covers):
    # one chip corrupted in every case, at the family's zones or overrides
    if q == 2:
        fam, seqs = _flipped_example_set()
        sets, Z, Zc = [seqs, list(fam.sets[1])], fam.Z, fam.Zc
    else:
        params = default_params(4, 4, 2, 2) if q == 4 else default_params(6, 3, 1, 1)
        sets, Z, Zc = _corrupted_sets(params, 1, 2, 9)
    Z, Zc = zones or (Z, Zc)
    set_certs, inter, union_cert = certify_family(*union_of(sets), Z, Zc)
    assert [_rounded(c) for c in set_certs] == [_rounded(verify_zcz(st, Z)) for st in sets]
    pairs = [(a, b) for a in range(len(sets)) for b in range(a + 1, len(sets))]
    assert list(inter) == pairs
    for a, b in pairs:
        assert _rounded(inter[a, b]) == _rounded(verify_inter_zccz(sets[a], sets[b], Zc))
    union = [z for st in sets for z in st]
    assert _rounded(union_cert) == _rounded(verify_zcz(union, Zc))
    assert not union_cert.passed
    if covers == "reversed":
        # some worst inter-set values lie in the reversed orientation only
        assert any(v.shift < 0 for rep in inter.values() for v in rep.violations)
    if covers == "extension":
        # worst per-set values past the union's zone come from the extra kernel call
        assert any(v.shift > Zc for c in set_certs for v in c.violations)


def test_certify_family_rejects_zones_like_the_separate_calls():
    fam = build_multiple_zcz(example1_params())
    sets = fam.sets
    with pytest.raises(ValueError, match=r"zone width 256 outside \[0, 256\)"):
        certify_family(*union_of(sets), 256, 7)
    with pytest.raises(ValueError, match=r"zone width -1 outside \[0, 256\)"):
        certify_family(*union_of(sets), 16, -1)


@pytest.mark.parametrize("sizes", [(8,), (8, 8, 8), (), (16, 0), (17, -1)])
def test_certify_family_refuses_sizes_that_do_not_describe_the_union(sizes):
    # each once failed inside the kernels, with numpy's reshape error, an
    # IndexError or a ZeroDivisionError from the GEMM's block size
    union = build_multiple_zcz(example1_params()).union
    message = (rf"^set sizes {re.escape(str(sizes))} are not positive counts"
               r" that add up to the union's K = 16$")
    with pytest.raises(ValueError, match=message):
        certify_family(union, sizes, 16, 7)
    with pytest.raises(ValueError, match=message):
        correlation_spectrum(union, sizes)


def test_exact_blocks_are_single_precision_below_two_to_the_24():
    # every partial sum of a length-N row is an integer of magnitude <= 2N
    limit = 2**23  # 2N = 2**24
    for is_complex, single, double in ((False, np.float32, np.float64),
                                       (True, np.complex64, np.complex128)):
        assert correlation._kernel_dtype(is_complex, True, limit - 1) == single
        assert correlation._kernel_dtype(is_complex, True, limit) == double
        assert correlation._kernel_dtype(is_complex, False, 8) == double
    # binary rows (exponents in {0, q/2}) are real and exact for every q;
    # other rows are complex, exact for q = 4 only
    for q, exps, dtype in ((1, [0, 0], np.float32), (2, [0, 1], np.float32),
                           (4, [0, 2], np.float32), (4, [0, 1], np.complex64),
                           (6, [0, 3], np.float32), (6, [0, 1], np.complex128),
                           (8, [0, 0], np.float32), (8, [0, 4], np.float32),
                           (8, [0, 2], np.complex128)):
        seqs = [UnimodularSequence(q, exps), UnimodularSequence(q, exps[::-1])]
        assert correlation._stack(seqs).matrix().dtype == dtype, (q, exps)


def _real_rule_misses(rule):
    """The (q, exponents used) cases where ``rule(seqs)`` disagrees with
    the used-roots oracle: random exponent subsets for every q, and
    {0, q/2} for each."""
    rng = np.random.default_rng(18)
    misses = []
    for q in (1, 2, 4, 6, 8, 12):
        subsets = [[0, q // 2]] + [
            rng.choice(q, size=rng.integers(1, q + 1), replace=False).tolist() for _ in range(12)
        ]
        for used in map(sorted, subsets):
            exps = rng.choice(used, size=(3, 16))
            exps[0, : len(used)] = used  # every exponent of the subset occurs
            seqs = [UnimodularSequence(q, row) for row in exps]
            if rule(seqs) != used_roots_real(seqs):
                misses.append((q, tuple(used)))
    return misses


def test_stack_is_real_exactly_when_every_used_root_is():
    """``_stack`` decides ``real`` once from the stacked exponents; the
    oracle marks the roots sequence by sequence, and counts omega^(q/2) =
    -1 + 1.2e-16j as real for every q.  Negative control: the per-q rule
    that took only roots whose float imaginary part is exactly 0 as real
    (all for q <= 2, even exponents for q = 4, omega^0 otherwise) misses
    {0, q/2} for q = 6 and 8."""
    assert _real_rule_misses(lambda seqs: correlation._stack(seqs).real) == []

    def per_q_rule(seqs):
        exps, q = correlation._stack(seqs).exps, seqs[0].q
        return q <= 2 or not (exps & 1 if q == 4 else exps).any()

    misses = _real_rule_misses(per_q_rule)
    assert (6, (0, 3)) in misses and (8, (0, 4)) in misses


def test_the_binary_rule_reads_a_stack_in_shift_blocks():
    """``_as_stack`` decides ``real`` for q > 2 a block of rows at a time:
    its temporaries stay within ``_SHIFT_BLOCK_BYTES``, not 2 x K x L bytes
    (8 MiB here), and one exponent off {0, q/2} in the last row is found."""
    exps = np.zeros((64, 1 << 16), dtype=np.uint8)
    exps[::3, ::5] = 4
    tracemalloc.start()
    try:
        stack = correlation._as_stack(exps, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stack.real and peak < 1.25 * correlation._SHIFT_BLOCK_BYTES
    other = exps.copy()
    other[-1, -1] = 2
    assert not correlation._as_stack(other, 8).real


def test_scan_block_exits_early_only_on_a_clean_table(monkeypatch):
    """A clean table costs one reduction and no scan; a table whose only
    nonzero cell comes last in scan order still yields exactly that cell."""
    K, peak = 3, 8
    shifts = np.arange(4, dtype=np.int64)
    clean = np.zeros((shifts.size, K, K), dtype=np.float32)
    clean[0, np.arange(K), np.arange(K)] = peak
    dirty = clean.copy()
    dirty[-1, -1, -1] = 2  # last in shift-major and in pair-major order
    last = correlation.Violation(K - 1, K - 1, 3, 2, 0)
    for pair_major in (False, True):
        scan = correlation._scan_block([dirty], shifts, True, peak, pair_major)
        assert scan == ((last,), last)

    def refuse(*args, **kwargs):
        raise AssertionError("argwhere scanned a table")

    monkeypatch.setattr(correlation.np, "argwhere", refuse)
    assert correlation._scan_block([clean], shifts, True, peak) == ((), None)
    with pytest.raises(AssertionError, match="argwhere scanned"):  # control: a dirty table scans
        correlation._scan_block([dirty], shifts, True, peak)


def test_verify_zcz_memory_is_bounded_by_the_shift_block():
    fam = build_multiple_zcz(default_params(2, 7, 3, 2))
    seqs = fam.sets[0]
    assert (len(seqs), fam.Z, fam.L) == (16, 128, 4096)
    verify_zcz(seqs[:2], 3)  # warm up lazy imports outside the trace
    tracemalloc.start()
    try:
        cert = verify_zcz(seqs, fam.Z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.passed
    # a K x (Z+1) x L int64 window tensor alone would take 65 MiB
    assert peak < 24 * 2**20


def _certify_family_peak(fam, restack=False):
    """tracemalloc's peak over one ``certify_family`` call, and its verdicts;
    with ``restack``, the call first stacks the sets into a new union."""
    certify_family(*union_of([st[:2] for st in fam.sets]), 3, 1)  # warm up lazy imports outside the trace
    tracemalloc.start()
    try:
        store = union_of(fam.sets) if restack else (fam.union, fam.sizes)
        set_certs, inter, union_cert = certify_family(*store, fam.Z, fam.Zc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, all(c.passed for c in (*set_certs, *inter.values(), union_cert))


def test_certify_family_memory_peaks_at_the_tables_plus_one_block(monkeypatch):
    """The tables stay in the kernel's dtype and every kernel's and
    verdict's temporaries fit one ``_SHIFT_BLOCK_BYTES`` block, and the
    family's union stack is read, not copied, so the peak is the float32
    union table (shifts 0..Zc), the diagonal table (shifts Zc+1..Z of every
    set), one set's table with its verdict, and one block.  Negative
    controls: a union stacked again from the sets, and the former 4 MiB
    block budget, each exceed that bound."""
    fam = build_multiple_zcz(default_params(2, 8, 4, 2))
    S, K = len(fam.sets), len(fam.sets[0])
    K_u = S * K
    assert (K_u, fam.Z, fam.Zc, fam.L) == (128, 256, 63, 16384)
    union = (fam.Zc + 1) * K_u * K_u * 4
    diagonal = (fam.Z - fam.Zc) * S * K * K * 4
    own_set = (fam.Z + 1) * K * K * (4 + 1)
    bound = union + diagonal + own_set + correlation._SHIFT_BLOCK_BYTES + 2**19
    peak, passed = _certify_family_peak(fam)
    assert passed and peak <= bound
    peak, passed = _certify_family_peak(fam, restack=True)
    assert passed and peak > bound
    monkeypatch.setattr(correlation, "_SHIFT_BLOCK_BYTES", 4 << 20)
    peak, passed = _certify_family_peak(fam)
    assert passed and peak > bound


def test_is_zero_decides_a_table_in_blocks(monkeypatch):
    """``is_zero`` holds one bool result and one block of temporaries, not a
    float copy of the table; its verdicts do not depend on the blocks.
    Negative control: with one block for the whole table, the peak exceeds
    the bound."""
    rng = np.random.default_rng(70)
    table = rng.integers(-1, 2, (64, 128, 128)).astype(np.complex64)
    conjugate = table.conj()
    want = (np.abs(table.real) + np.abs(table.imag) < 0.5)
    bound = want.nbytes + 3 * correlation._SHIFT_BLOCK_BYTES

    def decide():
        tracemalloc.start()
        try:
            zero = correlation.is_zero([table, conjugate])
            return zero, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    zero, peak = decide()
    assert np.array_equal(zero, want) and peak <= bound
    monkeypatch.setattr(correlation, "_SHIFT_BLOCK_BYTES", 1)  # one row per block
    assert np.array_equal(correlation.is_zero([table, conjugate]), want)
    monkeypatch.setattr(correlation, "_SHIFT_BLOCK_BYTES", table.nbytes)
    zero, peak = decide()
    assert np.array_equal(zero, want) and peak > bound
    # numbers: Python complex, numpy scalars
    assert correlation.is_zero([0.25j, 0.2]) is True
    assert correlation.is_zero([complex(0.3, 0.3)]) is False
    assert bool(correlation.is_zero([np.complex64(0.4), np.float32(-0.1)]))


def test_deep_checks_conjugate_each_sequence_once_per_unit(monkeypatch):
    """Over every chunk check of a q = 8 family that is not binary (odd
    linear coefficients in f), sigma_3 is built once per family sequence
    and code row, not 2 + 2K times per check.  The default family is
    binary: its checks read unit 1 alone and build no conjugate."""
    f = path_gbf(8, 3, 1, 1, (), (0, 1)) + GeneralizedBooleanFunction(8, 3, {(0,): 1, (2,): 3})
    init = UnimodularSequence.__post_init__
    for binary in (False, True):
        fam = build_multiple_zcz(default_params(8, 3, 1, 1, f=None if binary else f))
        assert fam.union.real == binary
        codes = build_ccc_family(fam.params)
        n_rows = sum(len(code) for family_codes in codes for code in family_codes)
        made = []

        def counted(self):
            made.append(self)
            init(self)

        sets, seqs = range(len(fam.sets)), range(len(fam.sets[0]))  # the views, built before counting
        monkeypatch.setattr(UnimodularSequence, "__post_init__", counted)
        cells = list(itertools.product(sets, sets, seqs, seqs))
        assert all(rep.passed for cell in cells
                   for rep in check_chunk_decomposition(fam, *cell, codes=codes))
        monkeypatch.setattr(UnimodularSequence, "__post_init__", init)
        if binary:
            assert made == []
        else:
            assert correlation.conjugates(8) == (1, 3)
            assert len(made) == len(fam.sets) * len(fam.sets[0]) + n_rows == 8 + 32
    seq = fam.sets[1][2]
    assert correlation._conjugate(seq, 3) is correlation._conjugate(seq, 3)
    assert correlation._conjugate(seq, 3) == UnimodularSequence(8, seq.exponents * 3 % 8)



@pytest.mark.parametrize("q", [2, 4, 6, 8])
def test_one_zero_rule_flags_a_flipped_chip_in_scans_and_chunk_checks(q):
    """Negative control for ``is_zero``: a chip moved by one root of unity
    fails both the zone scan of its set and the chunk decomposition of its
    sequence, while the clean family passes both."""
    f = path_gbf(q, 3, 1, 1, (), (0, 1)) + GeneralizedBooleanFunction(
        q, 3, {(0,): 1, (2,): q - 1}
    )
    p = default_params(q, 3, 1, 1, f=f)
    fam, codes = build_multiple_zcz(p), build_ccc_family(p)
    exps = fam.sets[0][1].exponents.copy()
    exps[9] = (exps[9] + 1) % q
    flipped = fam.sets[0][:1] + (UnimodularSequence(q, exps),) + fam.sets[0][2:]
    bad = with_sets(fam, (flipped, *fam.sets[1:]))
    assert verify_zcz(fam.sets[0], fam.Z).passed
    assert all(rep.passed for rep in check_chunk_decomposition(fam, 0, 0, 1, 0, codes=codes))
    cert = verify_zcz(flipped, fam.Z)
    assert not cert.passed
    assert not all(rep.passed for rep in check_chunk_decomposition(bad, 0, 0, 1, 0, codes=codes))
    # witness values are Python ints when exact, floats otherwise
    kind = int if q in (2, 4) else float
    assert all(type(v.re) is kind and type(v.im) is kind for v in cert.violations)


# ---------------------------------------------------------------------------
# the chunk-folded kernel of certify_family


def _complex_q4_params():
    f = path_gbf(4, 4, 2, 2, (), (0, 1)) + GeneralizedBooleanFunction(4, 4, {(0,): 1, (1,): 3})
    return default_params(4, 4, 2, 2, f=f)


def _spy_kernels(monkeypatch):
    """Record, in call order, which kernel each table comes from."""
    calls = []
    for name in ("_folded_table", "_periodic_table"):
        def spy(*args, _name=name, _kernel=getattr(correlation, name), **kwargs):
            calls.append(_name)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(correlation, name, spy)
    return calls


def _assert_fold_matches_gemm(sets, union_shifts, set_shifts):
    """The folded union and per-set tables, the latter both from a one-set
    fold and from the diagonal call over all sets, equal
    ``_periodic_table``'s bit for bit and in the same dtype, real tables
    for real blocks on both paths."""
    stack = correlation._stack(z for st in sets for z in st)
    split = correlation._split(stack, [len(st) for st in sets])
    assert split is not None
    fold, union = split.gather(stack.roots()), stack.matrix()
    cases = [(correlation._folded_table(fold, union_shifts), union, union_shifts)]
    diag = correlation._folded_table(fold, set_shifts, diagonal=True)
    assert diag.shape == (len(set_shifts), len(sets), len(sets[0]), len(sets[0]))
    lo = 0
    for n, st in enumerate(sets):
        block = union[lo : lo + len(st)]
        own = correlation._folded_table(fold._replace(X=fold.X[n : n + 1]), set_shifts)
        cases += [(own, block, set_shifts), (diag[:, n], block, set_shifts)]
        lo += len(st)
    for got, block, shifts in cases:
        want = correlation._periodic_table(block, block, shifts)
        assert got.dtype == want.dtype == block.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("block_bytes", [None, 1])
@pytest.mark.parametrize("params", [example1_params, _complex_q4_params])
def test_folded_table_matches_gemm_at_every_shift(params, block_bytes, monkeypatch):
    # every chunk offset and carry, in one block or one shift per block
    if block_bytes:
        monkeypatch.setattr(correlation, "_SHIFT_BLOCK_BYTES", block_bytes)
    fam = build_multiple_zcz(params())
    sets = fam.sets
    every = np.arange(fam.L)
    _assert_fold_matches_gemm(sets, every, every[::-1])


@st.composite
def _layouts(draw):
    """Valid vertex layouts (J, path order) of length at most 2^9 over q in
    {2, 4, 6, 8}, with the default f and seed."""
    q = draw(st.sampled_from([2, 4, 6, 8]))
    k = draw(st.integers(0, 2))
    s = draw(st.integers(0, k))
    m = draw(st.integers(k + 2, 7 - k))
    J = tuple(draw(st.permutations(range(m - s)))[: k - s])
    pi = tuple(draw(st.permutations(range(m - k))))
    return default_params(q, m, k, s, J, pi)


def _assert_binned_fold_matches_union(stack, fold_exps, union_shifts, set_shifts, exact):
    """Every conjugate's folded union and diagonal tables against
    ``_periodic_table`` on the gathered union: equal arrays when ``exact``,
    equal ``is_zero`` verdicts otherwise."""
    K = fold_exps.Y.shape[0]
    for unit in correlation.conjugates(stack.q):
        fold, union = fold_exps.gather(stack.roots(unit)), stack.matrix(unit)
        diag = correlation._folded_table(fold, set_shifts, diagonal=True)
        cases = [(correlation._folded_table(fold, union_shifts), union, union_shifts)]
        cases += [(diag[:, n], union[n * K : (n + 1) * K], set_shifts)
                  for n in range(diag.shape[1])]
        for got, rows, shifts in cases:
            want = correlation._periodic_table(rows, rows, shifts)
            assert got.dtype == want.dtype
            if exact:
                assert np.array_equal(got, want)
            else:
                assert np.array_equal(correlation.is_zero([got]), correlation.is_zero([want]))
                # initial=0: at s = 0 the set shifts Zc+1..Z are none (Zc = Z)
                assert np.abs(got - want).max(initial=0) <= FLOAT_AGREEMENT_PER_CHIP * stack.L


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_layouts())
def test_binned_fold_matches_the_gemm_on_every_layout(params):
    """A constructed family's Y rows are Walsh characters of k + 1 position
    bits, so its P positions fall into K equal bins."""
    fam = build_multiple_zcz(params)
    stack = correlation._stack(z for st in fam.sets for z in st)
    fold = correlation._split(stack, [len(st) for st in fam.sets])
    K, P = fold.Y.shape
    assert fold.H.shape == (K, K)
    bins = fold.order.reshape(K, P // K)
    assert all(np.unique(fold.Y[:, b], axis=1).shape[1] == 1 for b in bins)
    _assert_binned_fold_matches_union(
        stack, fold, np.arange(fam.Zc + 1), np.arange(fam.Zc + 1, fam.Z + 1), stack.exact
    )


@pytest.mark.parametrize("q", [2, 4, 8])
def test_unequal_column_classes_take_single_position_bins(q):
    """A hand-made split family: S = 2 sets of K = 2 sequences, chunks of
    P = 4, and Y's columns in classes of 3 and 1, so every position is its
    own bin, and the fold still equals the GEMM."""
    rng = np.random.default_rng(q)
    K, P = 2, 4
    z0 = rng.integers(0, q, (2 * K, P))
    X = np.vstack([np.zeros(2 * K, np.int64), rng.integers(0, q, 2 * K)])
    Y = np.array([[0, 0, 0, 0], [0, 0, 0, q // 2]])
    sets = [[UnimodularSequence(q, ((z0 + X[t1][:, None] + Y[t2]) % q).ravel())
             for t2 in range(K)] for t1 in range(2)]
    stack = correlation._stack(z for st in sets for z in st)
    fold = correlation._split(stack, [K, K])
    assert np.array_equal(fold.order, np.arange(P)) and np.array_equal(fold.H, fold.Y)
    every = np.arange(stack.L)
    _assert_binned_fold_matches_union(stack, fold, every, every, stack.exact)
    set_certs, inter, union_cert = certify_family(*union_of(sets), 3, 1)
    wants = [verify_zcz(st, 3) for st in sets] + [verify_zcz(sets[0] + sets[1], 1)]
    for got, want in zip([*set_certs, union_cert], wants):
        # q = 8 witness floats may move in their last bits with the summation order
        assert [(v.i, v.j, v.shift) for v in got.violations] == [
            (v.i, v.j, v.shift) for v in want.violations
        ]
        assert got == want or not stack.exact


def test_a_permuted_bin_order_breaks_the_fold():
    """Negative control: positions moved to another bin meet the wrong
    column of H."""
    fam = build_multiple_zcz(default_params(2, 5, 2, 1))
    stack = correlation._stack(z for st in fam.sets for z in st)
    fold = correlation._split(stack, [len(st) for st in fam.sets])
    shifts = np.arange(fam.Zc + 1)
    union = stack.matrix()
    want = correlation._periodic_table(union, union, shifts)
    roots = stack.roots()
    assert np.array_equal(correlation._folded_table(fold.gather(roots), shifts), want)
    wrong = fold._replace(order=np.roll(fold.order, 1))
    assert not np.array_equal(correlation._folded_table(wrong.gather(roots), shifts), want)


def test_one_chip_corruption_takes_the_gemm_path(monkeypatch):
    fam, seqs = _flipped_example_set()
    sets = [seqs, list(fam.sets[1])]
    union = correlation._stack(z for st in sets for z in st)
    assert correlation._split(union, [8, 8]) is None
    calls = _spy_kernels(monkeypatch)
    set_certs, inter, union_cert = certify_family(*union_of(sets), fam.Z, fam.Zc)
    assert set(calls) == {"_periodic_table"}
    assert union_cert == verify_zcz(seqs + sets[1], fam.Zc) and not union_cert.passed
    assert set_certs[0] == verify_zcz(seqs, fam.Z) and not set_certs[0].passed


def _gemm_spectrum(union):
    """The all-shift union table as the GEMM computes it: the oracle of the
    fold-served spectrum."""
    mat = union.matrix()
    return correlation._periodic_table(mat, mat, np.arange(union.L))


def _odd_linear_params(q, m, k, s):
    """The default family but for odd linear terms in f: not binary."""
    J, pi = tuple(range(k - s)), tuple(range(m - k))
    f = path_gbf(q, m, k, s, J, pi) + GeneralizedBooleanFunction(q, m, {(0,): 1, (2,): 3})
    return default_params(q, m, k, s, J, pi, f=f)


@pytest.mark.parametrize("params", [
    pytest.param(example1_params, id="example"),
    pytest.param(lambda: default_params(4, 5, 2, 1), id="q4-binary"),
    pytest.param(lambda: default_params(8, 5, 2, 2), id="q8-binary"),
    pytest.param(lambda: default_params(2, 4, 1, 0), id="s=0"),
    pytest.param(lambda: _odd_linear_params(4, 4, 2, 1), id="q4-odd-linear"),
])
def test_split_spectrum_equals_the_gemm_table(params, monkeypatch):
    """Exact tables: the fold-served spectrum is the GEMM's table, bit for
    bit and in its dtype, and the GEMM is never reached."""
    fam = build_multiple_zcz(params())
    assert fam.union.exact
    want = _gemm_spectrum(fam.union)
    calls = _spy_kernels(monkeypatch)
    table = correlation_spectrum(fam.union, fam.sizes)
    assert calls == ["_folded_table"]
    assert table.phi.dtype == want.dtype and np.array_equal(table.phi, want)


@pytest.mark.parametrize("q", [6, 8])
def test_inexact_split_spectrum_agrees_with_the_gemm_to_rounding(q, monkeypatch):
    """Non-binary q = 6 and 8 tables are float64 sums of L products of
    roots in another order on each path.  Each sum is within about
    L**2 * 2**-53 of the true value (``is_zero``), so the two agree within
    twice that: 1.5e-11 at L = 256, where at most 1.7e-13 is measured."""
    fam = build_multiple_zcz(_odd_linear_params(q, 4, 2, 1))
    assert not fam.union.exact and fam.L == 256
    want = _gemm_spectrum(fam.union)
    calls = _spy_kernels(monkeypatch)
    table = correlation_spectrum(fam.union, fam.sizes)
    assert calls == ["_folded_table"]
    assert table.phi.dtype == want.dtype == np.complex128
    assert np.abs(table.phi - want).max() <= 2 * fam.L**2 * 2**-53


def test_a_split_spectrum_never_reaches_the_gemm(monkeypatch):
    """With ``_periodic_table`` made to fail, a split family's spectrum
    still equals the GEMM's table.  Negative control: a flipped chip breaks
    the split, so that family's spectrum reaches the GEMM, and with the GEMM
    back it matches the GEMM's table."""
    fam, seqs = _flipped_example_set()
    flipped, sizes = union_of([seqs, fam.sets[1]])
    wants = [_gemm_spectrum(u) for u in (fam.union, flipped)]

    def refuse(*args, **kwargs):
        raise AssertionError("the GEMM was reached")

    monkeypatch.setattr(correlation, "_periodic_table", refuse)
    assert np.array_equal(correlation_spectrum(fam.union, fam.sizes).phi, wants[0])
    with pytest.raises(AssertionError, match="the GEMM was reached"):
        correlation_spectrum(flipped, sizes)
    monkeypatch.undo()
    assert np.array_equal(correlation_spectrum(flipped, sizes).phi, wants[1])


@pytest.mark.parametrize("params", [example1_params, _complex_q4_params])
def test_separable_corruption_takes_the_folded_path(params, monkeypatch):
    fam = build_multiple_zcz(params())
    q = fam.q
    # chip 37 of every sequence moves by the same root: a family that still
    # splits, but whose zones break
    sets = []
    for st in fam.sets:
        sets.append([])
        for z in st:
            exps = z.exponents.copy()
            exps[37] = (exps[37] + 1) % q
            sets[-1].append(UnimodularSequence(q, exps))
    calls = _spy_kernels(monkeypatch)
    folded = certify_family(*union_of(sets), fam.Z, fam.Zc)
    assert set(calls) == {"_folded_table"}
    monkeypatch.setattr(correlation, "_split", lambda union, sizes: None)
    calls.clear()
    gemm = certify_family(*union_of(sets), fam.Z, fam.Zc)
    assert set(calls) == {"_periodic_table"}
    assert folded == gemm
    set_certs, inter, union_cert = folded
    assert not union_cert.passed and not any(c.passed for c in set_certs)
    assert not all(rep.passed for rep in inter.values())


@st.composite
def _constructions(draw):
    """Valid construction inputs of length at most 2^9 over q in {2, 4}:
    random J, path order, linear terms of f and seed coefficients."""
    q = draw(st.sampled_from([2, 4]))
    k = draw(st.integers(0, 2))
    s = draw(st.integers(0, k))
    m = draw(st.integers(k + 2, 7 - k))
    J = tuple(draw(st.permutations(range(m - s)))[: k - s])
    pi = tuple(draw(st.permutations(range(m - k))))
    bits = st.integers(0, 1)
    linear = draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m))
    f = path_gbf(q, m, k, s, J, pi) + GeneralizedBooleanFunction(
        q, m, {(v,): c for v, c in enumerate(linear) if c}
    )
    h = HCoeffs(
        c=tuple(draw(st.lists(bits, min_size=k, max_size=k))) + (1,),
        e=tuple(draw(st.lists(bits, min_size=k + 2, max_size=k + 2))),
        e_prime=draw(bits),
    )
    return default_params(q, m, k, s, J, pi, f=f, h=h)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_constructions())
def test_constructions_split_fold_exactly_and_certify(params):
    fam = build_multiple_zcz(params)
    sets = fam.sets
    _assert_fold_matches_gemm(
        sets, np.arange(fam.Zc + 1), np.arange(fam.Zc + 1, fam.Z + 1)
    )
    set_certs, inter, union_cert = certify_family(fam.union, fam.sizes, fam.Z, fam.Zc)
    assert all(c.passed for c in (*set_certs, *inter.values(), union_cert))


@st.composite
def _complex_constructions(draw):
    """``random_valid_params`` draws of length at most 2^9 over q in {6, 8}:
    random J, path order, quadratic terms of f on the J vertices, linear
    terms, constant and seed coefficients."""
    q = draw(st.sampled_from([6, 8]))
    k = draw(st.integers(0, 2))
    s = draw(st.integers(0, k))
    m = draw(st.integers(k + 2, 7 - k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_valid_params(rng, q, m, k, s, randomize_structure=True)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_complex_constructions())
def test_q6_q8_constructions_certify_like_the_separate_calls(params):
    fam = build_multiple_zcz(params)
    sets = fam.sets
    set_certs, inter, union_cert = certify_family(fam.union, fam.sizes, fam.Z, fam.Zc)
    assert all(c.passed for c in (*set_certs, *inter.values(), union_cert))
    assert set_certs == [verify_zcz(st, fam.Z) for st in sets]
    assert inter == {
        (a, b): verify_inter_zccz(sets[a], sets[b], fam.Zc)
        for a in range(len(sets)) for b in range(a + 1, len(sets))
    }
    assert union_cert == verify_zcz([z for st in sets for z in st], fam.Zc)


# ---------------------------------------------------------------------------
# exact zero tests for every even q: Galois conjugates


def test_conjugates_hold_one_unit_per_pair_up_to_the_budget():
    assert [len(correlation.conjugates(q)) for q in (1, 2, 4, 6, 8, 10, 12, 16)] == [
        1, 1, 1, 1, 2, 2, 2, 4
    ]
    assert correlation.conjugates(16) == (1, 3, 5, 7)
    with pytest.raises(ValueError, match=r"^q=38 needs 9 conjugate tables .* budget of 8$"):
        correlation.conjugates(38)


def test_verdicts_fail_a_nonzero_value_below_a_float_tolerance(monkeypatch):
    """The pair's shift-0 correlation alpha is nonzero but below 1e-9 * L;
    its conjugate under w -> w^3 is not small, so every verdict fails with
    a shift-0 witness whose value is the computed alpha.  Negative control: with the
    conjugate set forced to [1], the same pair passes."""
    a, b = undecidable_q8_pair()
    alpha = accf(a, b, 0)
    assert 0 < abs(alpha) < 1e-9 * len(a)
    conjugate = accf(UnimodularSequence(8, 3 * a.exponents % 8), b, 0)
    assert abs(conjugate) > 30_000
    assert correlation.is_zero([alpha]) and not correlation.is_zero([alpha, conjugate])

    def verdicts():
        set_certs, inter, union_cert = certify_family(*union_of([[a], [b]]), 0, 0)
        return [verify_zcz([a, b], 0), verify_inter_zccz([a], [b], 0), inter[0, 1], union_cert]

    reports = verdicts()
    assert not any(r.passed for r in reports)
    assert [r.witness.shift for r in reports] == [0] * 4
    # two summation orders of 2^16 roots agree to about L**2 * 2**-53
    assert all(abs(complex(r.witness.re, r.witness.im) - alpha) < 5e-7 for r in reports)
    monkeypatch.setattr(correlation, "conjugates", lambda q: (1,))
    assert all(r.passed for r in verdicts())


@pytest.mark.parametrize("q, L", [(6, 2**15), (8, 2**14), (8, 2**15), (12, 2**15),
                                  (16, 128), (16, 256)])
def test_verdicts_decide_where_a_tolerance_could_hide_a_nonzero_value(q, L):
    """b is a with its first half moved by q/2, so the shift-0 cross value
    is exactly zero; moving one more root makes it nonzero."""
    a = random_sequence(np.random.default_rng(q + L), q, L)
    exps = a.exponents.copy()
    exps[: L // 2] = (exps[: L // 2] + q // 2) % q
    assert verify_zcz([a, UnimodularSequence(q, exps)], 0).passed
    exps[0] = (exps[0] + 1) % q
    cert = verify_zcz([a, UnimodularSequence(q, exps)], 0)
    assert not cert.passed and (cert.witness.i, cert.witness.j, cert.witness.shift) == (0, 1, 0)


def test_code_and_chunk_verdicts_decide_where_a_float_tolerance_refused():
    """verify_ccc sums M * L roots per value and the chunk check 3L, where
    a tolerance of 1e-9 * L could no longer tell every nonzero value."""
    rng = np.random.default_rng(3)
    rows = [random_sequence(rng, 8, 4096) for _ in range(64)]
    rep = verify_ccc([rows])
    w = rep.witness
    assert not rep.passed and (w.i, w.j, w.shift) == (0, 0, 1)
    assert abs(complex(w.re, w.im) - code_accf(rows, rows, 1)) <= 1e-9 * 4096
    p = random_valid_params(rng, 16, 4, 1, 0)
    fam, codes = build_multiple_zcz(p), build_ccc_family(p)
    assert fam.L == 128
    set_certs, inter, union_cert = certify_family(fam.union, fam.sizes, fam.Z, fam.Zc)
    assert all(c.passed for c in (*set_certs, *inter.values(), union_cert))
    assert all(rep.passed for rep in check_chunk_decomposition(fam, 0, 0, 0, 1, codes=codes))


def _periodic_counts(a, b, u, q):
    """The multiplicity of each q-th root in pccf(a, b)(u); the stored
    exponents are unsigned, so they are widened before subtracting."""
    ea, eb = a.exponents.astype(np.int64), b.exponents.astype(np.int64)
    return np.bincount((ea - np.roll(eb, -u)) % q, minlength=q)


def _aperiodic_counts(a, b, u, q):
    """The multiplicity of each q-th root in accf(a, b)(u), 0 <= u <= L."""
    L = len(a)
    ea, eb = a.exponents.astype(np.int64), b.exponents.astype(np.int64)
    return np.bincount((ea[: L - u] - eb[u:]) % q, minlength=q)


def _chunk_check_counts(p, fam, codes, t1, t1b, i, j, tau):
    """The multiplicity of each q-th root in lhs - rhs of one chunk check;
    a conjugated sum takes the negated exponents."""
    q, L = p.q, fam.L
    a, b = fam.sets[t1][i], fam.sets[t1b][j]
    rows_a, rows_b = codes[t1][i], codes[t1b][j]
    neg = (-np.arange(q)) % q
    counts = _aperiodic_counts(a, b, tau, q)
    counts += _aperiodic_counts(b, a, L - tau, q)[neg]
    for ra, rb in zip(rows_a, rows_b):
        counts -= 2 * _aperiodic_counts(ra, rb, tau, q)
    shift = (1 << p.m) - tau
    for nu, weight in p._boundary_weights:
        row_b = rows_b[(nu + 1) % len(rows_a)]
        counts -= weight * _aperiodic_counts(row_b, rows_a[nu], shift, q)[neg]
    return counts


@st.composite
def _root_sums(draw):
    """A modulus and the exponents of a sum of its roots of unity: exact
    zeros built from e, e + q/2 pairs and full cosets of subgroups, with
    one root moved half of the time."""
    q = draw(st.sampled_from([6, 8, 10, 12, 16]))
    exps = []
    for _ in range(draw(st.integers(1, 6))):
        d = draw(st.sampled_from([d for d in range(2, q + 1) if q % d == 0]))
        e = draw(st.integers(0, q - 1))
        exps += [(e + n * q // d) % q for n in range(d)]
    if draw(st.booleans()):
        n = draw(st.integers(0, len(exps) - 1))
        exps[n] = (exps[n] + draw(st.integers(1, q - 1))) % q
    return q, draw(st.permutations(exps))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_root_sums(), st.integers(0, 2**32 - 1))
def test_is_zero_on_kernel_cells_matches_the_cyclotomic_oracle(sums, seed):
    q, exps = sums
    L = len(exps)
    seqs = [UnimodularSequence(q, exps), UnimodularSequence(q, np.zeros(L, np.int64)),
            random_sequence(np.random.default_rng(seed), q, L)]
    stack = correlation._stack(seqs)
    shifts = np.arange(L)
    mats = map(stack.matrix, correlation.conjugates(q))
    zero = correlation.is_zero([correlation._periodic_table(m, m, shifts) for m in mats])
    for i, a in enumerate(seqs):
        for j, b in enumerate(seqs):
            for u in shifts:
                assert zero[u, i, j] == exactly_zero(_periodic_counts(a, b, u, q)), (i, j, u)
    # the second sequence is all ones: the cross value at shift 0 is the sum
    assert verify_zcz(seqs[:2], 0).passed == exactly_zero(np.bincount(exps, minlength=q))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([6, 8, 10, 12, 16]), st.integers(0, 2**32 - 1), st.booleans())
def test_is_zero_on_chunk_checks_matches_the_cyclotomic_oracle(q, seed, flip):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, 2))
    p = random_valid_params(rng, q, k + 2, k, int(rng.integers(0, k + 1)),
                            randomize_structure=True)
    fam, codes = build_multiple_zcz(p), build_ccc_family(p)
    if flip:  # one root moved: a chip of sequence (0, 0)
        exps = fam.sets[0][0].exponents.copy()
        n = int(rng.integers(len(exps)))
        exps[n] = (exps[n] + int(rng.integers(1, q))) % q
        sets = ((UnimodularSequence(q, exps),) + fam.sets[0][1:],) + fam.sets[1:]
        fam = with_sets(fam, sets)
    S, K = len(fam.sets), len(fam.sets[0])
    for _ in range(6):
        t1, t1b = (int(t) for t in rng.integers(0, S, 2))
        i, j = (int(t) for t in rng.integers(0, K, 2))
        for tau, rep in enumerate(check_chunk_decomposition(fam, t1, t1b, i, j, codes=codes)):
            want = exactly_zero(_chunk_check_counts(p, fam, codes, t1, t1b, i, j, tau))
            assert rep.passed == want, (t1, t1b, i, j, tau)


@pytest.mark.parametrize("q", [6, 8, 10, 12])
def test_every_even_q_takes_the_fold_and_a_flipped_chip_the_gemm(q, monkeypatch):
    p = random_valid_params(np.random.default_rng(q), q, 4, 1, 1, randomize_structure=True)
    fam = build_multiple_zcz(p)
    sets = [list(st) for st in fam.sets]
    calls = _spy_kernels(monkeypatch)
    set_certs, inter, union_cert = certify_family(*union_of(sets), fam.Z, fam.Zc)
    assert set(calls) == {"_folded_table"}
    assert all(c.passed for c in (*set_certs, *inter.values(), union_cert))
    exps = sets[0][1].exponents.copy()
    exps[9] = (exps[9] + 1) % q
    sets[0][1] = UnimodularSequence(q, exps)
    calls.clear()
    set_certs, inter, union_cert = certify_family(*union_of(sets), fam.Z, fam.Zc)
    assert set(calls) == {"_periodic_table"}
    want = verify_zcz(sets[0], fam.Z)
    assert not set_certs[0].passed and not want.passed
    cells = [(v.i, v.j, v.shift) for v in (set_certs[0].witness, want.witness)]
    assert cells[0] == cells[1]


@pytest.mark.parametrize("q", [6, 8])
def test_q6_q8_families_up_to_length_512_still_certify(q):
    p = random_valid_params(np.random.default_rng(q), q, 5, 2, 1, randomize_structure=True)
    fam, codes = build_multiple_zcz(p), build_ccc_family(p)
    assert fam.L == 512
    set_certs, inter, union_cert = certify_family(fam.union, fam.sizes, fam.Z, fam.Zc)
    assert all(c.passed for c in (*set_certs, *inter.values(), union_cert))
    assert all(rep.passed for rep in check_chunk_decomposition(fam, 0, 1, 2, 5, codes=codes))
