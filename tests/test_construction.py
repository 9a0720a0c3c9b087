"""Family construction, seed identities, and the on-disk format."""

import collections
import dataclasses
import hashlib
import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    build_seed_function,
    certify_family,
    check_chunk_at_shift,
    code_accf,
    degree,
    oracle_ccc_family,
    oracle_multiple_zcz,
    quadratic_graph,
    random_valid_params,
    with_sets,
)
from zczseq import (
    UnimodularSequence,
    ConstructionParams,
    accf,
    GeneralizedBooleanFunction,
    HCoeffs,
    build_ccc_family,
    build_multiple_zcz,
    check_chunk_decomposition,
    check_seed_cancellation,
    default_params,
    example1_params,
    export_family,
    load_family,
    path_gbf,
    psi,
    seed_polynomial,
    verify_ccc,
    verify_inter_zccz,
    verify_zcz,
)
from zczseq import construction, correlation

G = GeneralizedBooleanFunction

EXAMPLE1_SEQ00_SHA256 = "0222b2268b6673001101bc54a80e395437f181853d2890f18f17f48d9598d2a6"


def test_hcoeffs_validation():
    with pytest.raises(ValueError):
        HCoeffs(c=(1, 0))  # top coupling bit must be 1
    with pytest.raises(ValueError):
        HCoeffs(c=(1, 1), d_pairs=((0, 1),))
    with pytest.raises(ValueError):
        HCoeffs(c=(1,), e=(1,))
    assert HCoeffs.default(2).c == (0, 0, 1)


def test_build_seed_function_bundled():
    h = build_seed_function(example1_params().h, 4, 2)
    assert h.terms == {(4, 5): 1, (4, 6): 1, (4, 7): 1, (4,): 1}
    assert h.m == 8


def test_build_seed_function_k0_and_scaling():
    h = build_seed_function(HCoeffs.default(0), 3, 2)
    assert h.terms == {(3, 4): 1}
    h4 = build_seed_function(HCoeffs.default(0), 3, 4)
    assert h4.terms == {(3, 4): 2}  # q/2 scaling keeps values in {0, q/2}


def test_seed_graph_always_couples_ends():
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = int(rng.integers(0, 5))
        m = k + 2 + int(rng.integers(0, 3))
        p = random_valid_params(rng, 2, m, k, 0)
        g = quadratic_graph(build_seed_function(p.h, m, 2))
        assert (m, m + k + 1) in g.edges


def test_seed_cancellation_bundled_and_zero():
    assert check_seed_cancellation(seed_polynomial(example1_params().h)).passed
    rep = check_seed_cancellation(G(2, 4))
    assert not rep.passed
    assert len(rep.failures) == 8 and all(v == 2 for _, v in rep.failures)
    with pytest.raises(ValueError):
        check_seed_cancellation(G(4, 4))


def test_seed_cancellation_random_samples():
    rng = np.random.default_rng(9)
    for _ in range(25):
        k = int(rng.integers(0, 5))
        p = random_valid_params(rng, 2, k + 2, k, 0)
        assert check_seed_cancellation(seed_polynomial(p.h)).passed


def test_params_constraint_errors():
    with pytest.raises(ValueError, match=r"q must be even and in \[2, 65536\], got 65538"):
        default_params(2**16 + 2, 4, 1, 0)  # above the shared modulus bound
    with pytest.raises(ValueError):
        default_params(2, 3, 2, 3)  # s > k
    with pytest.raises(ValueError):
        default_params(2, 3, 2, 0)  # k > m - 2
    with pytest.raises(ValueError):
        default_params(3, 4, 1, 0)  # odd modulus
    with pytest.raises(ValueError):
        ConstructionParams(
            q=2, m=4, k=2, s=1, J=(0,), pi=(0, 1),
            f=G(2, 4, {(0, 1): 1}), h=HCoeffs.default(2),
        )  # f fails the restricted-path form


def test_example1_parameter_block():
    p = example1_params()
    assert (p.q, p.m, p.k, p.s) == (2, 4, 2, 1)
    assert p.J == (0,) and p.isolated == (3,) and p.free_vertices == (1, 2)
    assert p.j_order == (0, 3)
    assert (p.gamma1, p.gamma2) == (2, 1)
    assert (p.set_size, p.zcz_width, p.seq_length) == (8, 16, 256)
    assert (p.num_sets, p.inter_zccz_width, p.union_size) == (2, 7, 16)


def test_ccc_family_shapes_and_goldens():
    p = example1_params()
    fams = build_ccc_family(p)
    assert len(fams) == 2
    assert all(len(codes) == 8 for codes in fams)
    assert len(fams[0][0]) == 8 and len(fams[0][0][0]) == 16
    # row 0 of code (0, 0) is psi(f) itself
    assert np.array_equal(fams[0][0][0].exponents, psi(p.f).exponents)
    for codes in fams:
        assert verify_ccc(codes).passed


def test_ccc_cross_family_zone():
    fams = build_ccc_family(example1_params())
    width = 8  # 2^(m-s)
    for a in fams[0]:
        for b in fams[1]:
            for u in range(-width + 1, width):
                assert code_accf(a, b, u) == 0


def test_single_family_when_no_split():
    fams = build_ccc_family(default_params(2, 4, 1, 0))
    assert len(fams) == 1
    assert verify_ccc(fams[0]).passed


def test_build_family_matches_expanded_formula():
    """The assembled coupling terms reproduce the expanded form
    f + h + x0x4 + x2x6 + x3x5 + b0*x0 + b1*x3 + b2*x1 + t1*x5."""
    p = example1_params()
    fam = build_multiple_zcz(p)
    base = (
        p.f.with_variables(8)
        + build_seed_function(p.h, 4, 2)
        + G(2, 8, {(0, 4): 1, (2, 6): 1, (3, 5): 1})
    )
    for t1 in range(2):
        for t2 in range(8):
            b0, b1, b2 = t2 & 1, (t2 >> 1) & 1, (t2 >> 2) & 1
            expect = base + G(2, 8, {(0,): b0, (3,): b1, (1,): b2, (5,): t1})
            assert fam.sets[t1][t2] == psi(expect)


def test_family_shapes_and_degree():
    p = example1_params()
    fam = build_multiple_zcz(p)
    assert len(fam.sets) == 2
    assert all(len(st) == 8 and all(len(z) == 256 for z in st) for st in fam.sets)
    assert (fam.Z, fam.Zc) == (16, 7)


@pytest.mark.parametrize("sizes", [(3,), (1,), (3, -1), (1, 1, 1), (2, 0)])
def test_a_family_refuses_sizes_that_do_not_count_its_union(sizes):
    # (3,) once ended in "generator raised StopIteration" when sets was
    # read, and (1,) silently dropped the second row; (2, 0) was accepted,
    # and export_family then wrote an empty set directory that load_family
    # refuses
    union = correlation._as_stack(np.zeros((2, 4), dtype=np.uint8), 2)
    with pytest.raises(ValueError, match=rf"set sizes \({sizes[0]},.*K = 2"):
        construction.MultipleZczFamily(None, union, sizes, Z=0, Zc=0)
    fam = construction.MultipleZczFamily(None, union, (1, 1), Z=0, Zc=0)  # control
    assert [len(st) for st in fam.sets] == [1, 1]


def test_constructed_functions_stay_quadratic():
    rng = np.random.default_rng(10)
    for _ in range(10):
        m = int(rng.integers(3, 6))
        k = int(rng.integers(1, m - 1))
        s = int(rng.integers(0, k + 1))
        p = random_valid_params(rng, 2, m, k, s, randomize_structure=True)
        fam = build_ccc_family(p)
        # every row's generating function came out of degree <= 2 algebra;
        # the sequences themselves certify the zone claims elsewhere
        assert degree(p.f) <= 2
        assert degree(seed_polynomial(p.h)) <= 2
        assert len(fam) == 1 << s


@st.composite
def _random_structures(draw):
    """``random_valid_params`` draws of length at most 2^10 over q in
    {2, 4, 6, 8}: random J, path order, quadratic terms of f on the J
    vertices, linear terms, constant and seed coefficients."""
    q = draw(st.sampled_from([2, 4, 6, 8]))
    k = draw(st.integers(0, 3))
    s = draw(st.integers(0, k))
    m = draw(st.integers(k + 2, 8 - k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_valid_params(rng, q, m, k, s, randomize_structure=True)


def _odd_linear(q, m, k, s, **kw):
    """default_params with f given odd linear terms and an odd constant, so
    that its sequences are not binary."""
    f = path_gbf(q, m, k, s, tuple(range(k - s)), tuple(range(m - k)))
    return default_params(q, m, k, s, f=f + G(q, m, {(0,): 1, (m - 1,): 3, (): q - 1}), **kw)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_random_structures())
@example(example1_params())
# a seed with every term: all c bits, every d-pair, every e bit and e' = 1
@example(default_params(4, 5, 3, 1, h=HCoeffs(c=(1, 1, 1, 1), d_pairs=((1, 2), (1, 3), (2, 3)),
                                             e=(1,) * 5, e_prime=1)))
@example(_odd_linear(16, 5, 2, 1, h=HCoeffs(c=(0, 1, 1), e=(0, 1, 0, 1))))
@example(_odd_linear(130, 4, 1, 0))  # exponents in uint16
def test_builders_equal_the_per_sequence_oracles(params):
    fam = build_multiple_zcz(params)
    assert fam.union.exps.dtype == np.min_scalar_type(2 * params.q - 1)
    assert [list(zs) for zs in fam.sets] == oracle_multiple_zcz(params)
    codes = build_ccc_family(params)
    assert [[list(code) for code in fam_codes] for fam_codes in codes] == (
        oracle_ccc_family(params)
    )


@pytest.mark.parametrize("build", [build_multiple_zcz, build_ccc_family])
def test_builders_evaluate_one_truth_table(build, monkeypatch):
    """One truth table per function of a layer, however many sequences or
    rows: f over m variables for the code table, and the seed over k + 2
    for the weld; no table spans the m + k + 2 variables of a sequence."""
    calls = []
    truth_table = GeneralizedBooleanFunction.truth_table

    def counted(self):
        calls.append(self.m)
        return truth_table(self)

    monkeypatch.setattr(GeneralizedBooleanFunction, "truth_table", counted)
    for q, m, k, s in [(2, 6, 3, 2), (2, 8, 4, 2)]:
        calls.clear()
        build(default_params(q, m, k, s))
        expected = [m, k + 2] if build is build_multiple_zcz else [m]
        assert sorted(calls) == sorted(expected)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_random_structures())
@example(example1_params())
def test_chunk_identity(params):
    """Chunk c of sequence (t1, t2) is row c mod 2^{k+1} of code (t1, t2)
    offset by (q/2) h_c."""
    fam = build_multiple_zcz(params)
    codes = build_ccc_family(params)
    hv = seed_polynomial(params.h).truth_table()
    half, l = params.q // 2, 1 << (params.k + 1)
    for t1, zs in enumerate(fam.sets):
        for t2, z in enumerate(zs):
            chunks = z.exponents.reshape(len(hv), 1 << params.m)
            rows = np.stack([r.exponents for r in codes[t1][t2]])
            want = (rows[np.arange(len(hv)) % l] + half * hv[:, None]) % params.q
            assert np.array_equal(chunks, want)


def test_chunk_decomposition_peak_and_cross():
    p = example1_params()
    fam = build_multiple_zcz(p)
    codes = build_ccc_family(p)
    rep = check_chunk_decomposition(fam, 0, 0, 0, 0, codes=codes)[0]
    assert rep.passed and rep.lhs == rep.rhs == 256
    rng = np.random.default_rng(11)
    for _ in range(20):
        t1, t1b = int(rng.integers(2)), int(rng.integers(2))
        i, j = int(rng.integers(8)), int(rng.integers(8))
        reports = check_chunk_decomposition(fam, t1, t1b, i, j, codes=codes)
        assert len(reports) == 17
        for tau, rep in enumerate(reports):
            assert rep.passed
            if t1 != t1b and tau <= 7:
                assert rep.lhs == rep.rhs == 0


def _rhs_by_value_arithmetic(params, codes, t1, t1b, i, j, tau, sign):
    """check_chunk_decomposition's right-hand side in complex arithmetic,
    every boundary weight derived from ``sign`` on the spot."""
    l, n, chunk = 1 << (params.k + 1), 1 << (params.k + 2), 1 << params.m
    rows_a, rows_b = codes[t1][i], codes[t1b][j]
    rhs = 0j
    for nu in range(l):
        rhs += 2 * accf(rows_a[nu], rows_b[nu], tau)
    for nu in range(l):
        w = int(sign[nu] * sign[(nu + 1) % n] + sign[(nu + l) % n] * sign[(nu + 1 + l) % n])
        if w:
            rhs += w * accf(rows_b[(nu + 1) % l], rows_a[nu], chunk - tau).conjugate()
    return rhs


def _complex_params(q):
    """A two-set (q, 3, 1, 1) family with odd linear terms, so complex."""
    f = path_gbf(q, 3, 1, 1, (), (0, 1)) + GeneralizedBooleanFunction(q, 3, {(0,): 1, (2,): 3})
    return default_params(q, 3, 1, 1, f=f)


@pytest.mark.parametrize("params", [example1_params, lambda: _complex_params(4),
                                    lambda: _complex_params(8)], ids=["example", "q4", "q8"])
def test_nonzero_boundary_weights_enter_conjugated(params, monkeypatch):
    # every valid seed cancels, so every boundary weight is 0 on a real
    # family; non-cancelling signs make the boundary terms run
    p = params()
    sign = np.random.default_rng(2).choice([-1, 1], 1 << (p.k + 2))
    # p is fresh, so its weights are first formed from these signs
    monkeypatch.setattr(construction, "_seed_signs", lambda coeffs: sign)
    assert {w for _, w in p._boundary_weights} == {-2, 2}
    fam, codes = build_multiple_zcz(p), build_ccc_family(p)
    K = len(fam.sets[0])
    for t1 in range(len(fam.sets)):
        for t1b in range(len(fam.sets)):
            for i in range(min(K, 3)):
                for j in range(min(K, 3)):
                    reports = check_chunk_decomposition(fam, t1, t1b, i, j, codes=codes)
                    for tau, rep in enumerate(reports):
                        want = _rhs_by_value_arithmetic(p, codes, t1, t1b, i, j, tau, sign)
                        assert rep.rhs == want


def test_chunk_decomposition_float_compare_fails_on_a_flipped_chip():
    # negative control for the q = 8 compare: a chip moved by one root of
    # unity shifts the direct side by |1 - omega| < 1, which must not pass
    p = _complex_params(8)
    fam, codes = build_multiple_zcz(p), build_ccc_family(p)
    exps = fam.sets[0][1].exponents.copy()
    exps[9] = (exps[9] + 1) % 8
    flipped = fam.sets[0][:1] + (UnimodularSequence(8, exps),) + fam.sets[0][2:]
    bad = with_sets(fam, (flipped, *fam.sets[1:]))
    assert all(rep.passed for rep in check_chunk_decomposition(fam, 0, 0, 1, 0, codes=codes))
    rep = check_chunk_decomposition(bad, 0, 0, 1, 0, codes=codes)[1]
    assert not rep.passed
    assert 0 < abs(rep.lhs - rep.rhs) < 1


@pytest.mark.parametrize("params, weighted", [
    (example1_params, False),
    (lambda: _complex_params(4), True),
    (lambda: _complex_params(8), True),
], ids=["example", "q4", "q8"])
def test_one_check_calls_accf_once_per_term(params, weighted, monkeypatch):
    """At each shift of a cell, 2 calls through pccf, one per code row and
    one per nonzero boundary weight, every one through ``correlation.accf``,
    once per conjugate: the count a tracer of ``correlation.accf`` sees."""
    p = params()
    if weighted:  # non-cancelling signs, as in the test above
        sign = np.random.default_rng(2).choice([-1, 1], 1 << (p.k + 2))
        monkeypatch.setattr(construction, "_seed_signs", lambda coeffs: sign)
    n_weights = len(p._boundary_weights)
    assert (n_weights > 0) == weighted
    fam, codes = build_multiple_zcz(p), build_ccc_family(p)
    calls = []
    inner = correlation.accf

    def spy(a, b, u):
        calls.append(u)
        return inner(a, b, u)

    periodic = []
    inner_pccf = correlation.pccf

    def pccf_spy(a, b, u):
        periodic.append(u)
        return inner_pccf(a, b, u)

    monkeypatch.setattr(correlation, "accf", spy)
    monkeypatch.setattr(correlation, "pccf", pccf_spy)
    reports = check_chunk_decomposition(fam, 0, len(fam.sets) - 1, 1, 0, codes=codes)
    per_conjugate = 2 + (1 << (p.k + 1)) + n_weights
    n_conjugates = len(correlation.conjugates(p.q))
    assert len(reports) == (1 << p.m) + 1
    assert len(calls) == len(reports) * n_conjugates * per_conjugate
    assert sorted(periodic) == sorted([*range(len(reports))] * n_conjugates)


def _report_bits(rep):
    """A report as exact data: every bit of lhs and rhs, and the verdict."""
    assert type(rep.passed) is bool
    return (*(x.hex() for z in (rep.lhs, rep.rhs) for x in (z.real, z.imag)), rep.passed)


def _oracle_mismatches(fam, codes, check=check_chunk_decomposition, cells=None):
    """The cells whose reports from ``check`` are not those of the
    single-shift oracle at tau = 0..2^m, bit for bit."""
    S, K = len(fam.sets), len(fam.sets[0])
    taus = range((1 << fam.params.m) + 1)
    bad = []
    for cell in cells or itertools.product(range(S), range(S), range(K), range(K)):
        got = [_report_bits(rep) for rep in check(fam, *cell, codes=codes)]
        if got != [_report_bits(check_chunk_at_shift(fam, *cell, tau, codes)) for tau in taus]:
            bad.append(cell)
    return bad


def _flipped(fam, chip):
    """``fam`` with one chip of sequence (0, 0) moved by one root of unity."""
    exps = fam.sets[0][0].exponents.astype(np.int64)
    exps[chip] = (exps[chip] + 1) % fam.q
    return with_sets(fam, ((UnimodularSequence(fam.q, exps), *fam.sets[0][1:]), *fam.sets[1:]))


@pytest.mark.parametrize("q, weighted, chip", [
    (2, False, None), (2, False, 5), (2, False, -1), (4, True, None), (8, True, None), (6, False, None),
], ids=["example", "chip5", "last-chip", "q4-weighted", "q8-weighted", "q6-complex"])
def test_per_cell_reports_equal_the_single_shift_oracle(q, weighted, chip, monkeypatch):
    """Every cell's reports equal the single-shift check at each shift, bit
    for bit: on the example, clean and with a flipped chip; on non-binary
    q = 4 and q = 8 families whose non-cancelling seeds give boundary
    weights of +-2; and on a non-binary q = 6 family."""
    p = example1_params() if q == 2 else _complex_params(q)
    if weighted:
        sign = np.random.default_rng(2).choice([-1, 1], 1 << (p.k + 2))
        monkeypatch.setattr(construction, "_seed_signs", lambda coeffs: sign)
    assert {w for _, w in p._boundary_weights} == ({-2, 2} if weighted else set())
    fam, codes = build_multiple_zcz(p), build_ccc_family(p)
    assert fam.union.real == (q == 2)
    if chip is not None:
        fam = _flipped(fam, chip % fam.L)
        taus = range((1 << p.m) + 1)
        assert not all(check_chunk_at_shift(fam, 0, 0, 0, 0, tau, codes).passed for tau in taus)
    assert _oracle_mismatches(fam, codes) == []
    # negative controls: a loop that stops at tau = 2^m - 1, and a check
    # that drops the boundary term, each differ from the oracle
    stops_early = lambda *args, **kwargs: check_chunk_decomposition(*args, **kwargs)[:-1]
    assert _oracle_mismatches(fam, codes, stops_early, cells=[(0, 0, 1, 0)]) == [(0, 0, 1, 0)]
    if weighted:
        no_boundary = dataclasses.replace(p)
        no_boundary.__dict__["_boundary_weights"] = ()
        drops_boundary = lambda fam, *cell, codes: check_chunk_decomposition(
            dataclasses.replace(fam, params=no_boundary), *cell, codes=codes)
        assert _oracle_mismatches(fam, codes, drops_boundary)


def test_chunk_decomposition_refuses_params_of_another_shape():
    fam = dataclasses.replace(build_multiple_zcz(example1_params()), params=default_params(2, 4, 1, 1))
    with pytest.raises(ValueError, match=r"^params describe .* = \(\[4, 4\], 128, 2\), "
                                         r"but the family holds \(\[8, 8\], 256, 2\)$"):
        check_chunk_decomposition(fam, 0, 1, 7, 7)


def test_chunk_decomposition_refuses_codes_of_unequal_row_counts():
    p = example1_params()
    codes = [list(family) for family in build_ccc_family(p)]
    codes[1][7] = codes[1][7][:-1]
    with pytest.raises(ValueError, match=r"^row count mismatch: 8 vs 7$"):
        check_chunk_decomposition(build_multiple_zcz(p), 0, 1, 7, 7, codes=codes)


def test_chunk_decomposition_needs_params():
    fam = build_multiple_zcz(example1_params())
    stripped = fam.__class__(None, fam.union, fam.sizes, Z=fam.Z, Zc=fam.Zc)
    with pytest.raises(ValueError):
        check_chunk_decomposition(stripped, 0, 0, 0, 0)


def test_single_set_reduction():
    fam = build_multiple_zcz(default_params(2, 3, 1, 0))
    assert len(fam.sets) == 1
    assert verify_zcz(fam.sets[0], fam.Z).passed
    union = [z for st in fam.sets for z in st]
    # one set has no inter-set pair: the union is the set, and its zone is Z = 2^m
    assert (len(union), fam.Zc, fam.L) == (4, 8, 64)
    assert verify_zcz(union, fam.Zc).passed


def test_four_cluster_family():
    fam = build_multiple_zcz(default_params(2, 4, 2, 2))
    assert len(fam.sets) == 4
    assert all(len(st) == 8 and all(len(z) == 256 for z in st) for st in fam.sets)
    assert fam.Zc == 3
    union = [z for st in fam.sets for z in st]
    assert len(union) == 32
    assert verify_zcz(union, fam.Zc).passed


def test_randomized_structures_certify():
    rng = np.random.default_rng(12)
    for m in range(3, 5):
        for k in range(1, m - 1):
            for s in range(0, k + 1):
                for q in (2, 4):
                    p = random_valid_params(rng, q, m, k, s, randomize_structure=True)
                    ok, violations = certify_family(build_multiple_zcz(p))
                    assert ok and violations == 0


def test_export_load_round_trip(tmp_path):
    p = example1_params()
    fam = build_multiple_zcz(p)
    manifest = export_family(fam, tmp_path / "fam", command="construct")
    assert manifest["files"]["0/0.seq"] == EXAMPLE1_SEQ00_SHA256
    digest = hashlib.sha256((tmp_path / "fam" / "0" / "0.seq").read_bytes()).hexdigest()
    assert digest == EXAMPLE1_SEQ00_SHA256

    loaded = load_family(tmp_path / "fam").family
    assert (loaded.q, loaded.L, loaded.Z, loaded.Zc) == (2, 256, 16, 7)
    assert loaded.sets == fam.sets
    assert loaded.params is not None
    # parameters survive the JSON round trip exactly
    assert loaded.params == p
    assert build_multiple_zcz(loaded.params).sets == fam.sets


def test_export_is_reproducible(tmp_path):
    fam = build_multiple_zcz(example1_params())
    export_family(fam, tmp_path / "a")
    export_family(fam, tmp_path / "b")
    for rel in ("0/0.seq", "1/7.seq"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def _traced(make):
    """``make()`` and the memory tracemalloc still counts when it returns."""
    tracemalloc.start()
    try:
        made = make()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return made, held


def test_built_and_loaded_sequences_hold_one_byte_per_chip(tmp_path):
    # 128 sequences of 16,384 chips: int64 exponents would hold 8 B per chip
    fam, built = _traced(lambda: build_multiple_zcz(default_params(2, 8, 4, 2)))
    export_family(fam, tmp_path)
    loaded, read = _traced(lambda: load_family(tmp_path).family)
    chips = 128 * 16384
    assert built < 1.5 * chips and read < 1.5 * chips
    for family in (fam, loaded):
        assert all(z.exponents.nbytes == len(z) == 16384 for st in family.sets for z in st)
        # one store: every sequence is a view of its row of the union
        assert all(np.shares_memory(z.exponents, family.union.exps) for st in family.sets for z in st)
    # negative control: a writable union is copied row by row
    copied = dataclasses.replace(fam, union=fam.union._replace(exps=fam.union.exps.copy()))
    assert not any(np.shares_memory(z.exponents, copied.union.exps) for st in copied.sets for z in st)


@pytest.mark.parametrize("q", [2, 8, 128, 130])
def test_sequences_store_the_narrowest_unsigned_dtype_for_2q_minus_1(tmp_path, q):
    fam = build_multiple_zcz(default_params(q, 4, 2, 1))
    export_family(fam, tmp_path)
    loaded = load_family(tmp_path).family
    assert loaded.sets == fam.sets
    dtype = np.uint8 if q <= 128 else np.uint16
    codes = [row for family in build_ccc_family(fam.params) for code in family for row in code]
    stored = [z for family in (fam, loaded) for st in family.sets for z in st] + codes
    assert all(z.exponents.dtype == dtype and not z.exponents.flags.writeable for z in stored)


def test_load_rejects_malformed(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_family(tmp_path / "missing")
    fam_dir = tmp_path / "fam"
    export_family(build_multiple_zcz(default_params(2, 3, 1, 0)), fam_dir)
    target = fam_dir / "0" / "0.seq"
    text = target.read_text().splitlines()
    target.write_text("\n".join([text[0], "L=9999"] + text[2:]) + "\n")
    with pytest.raises(ValueError):
        load_family(fam_dir)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:3], "truncated sequence file"),
        (lambda lines: ["Q=2"] + lines[1:], "expected header 'q='"),
        (lambda lines: lines[:-1], "header says L=64 but 63 entries"),
        (lambda lines: lines[:6] + ["x"] + lines[7:], "could not convert string 'x'"),
        (lambda lines: lines[:6] + ["0.5"] + lines[7:], "could not convert string '0.5'"),
        (lambda lines: lines[:4] + [" ".join(lines[4:])], "one exponent per line"),
        (lambda lines: lines[:6] + ["0 1"] + lines[7:], "number of columns changed"),
        (lambda lines: lines[:6] + ["2"] + lines[7:], "exponents must lie in [0, 2)"),
        # 2L bytes with a digit at every even offset, but a space where an LF belongs
        (lambda lines: [lines[0], "L=2", *lines[2:4], "0 1"], "expected one exponent per line, got 2"),
    ],
    ids=["truncated", "header-key", "length", "word", "float", "one-line", "two-columns",
         "range", "digit-pairs"],
)
def test_load_names_the_malformed_file(tmp_path, edit, message):
    fam_dir = tmp_path / "fam"
    export_family(build_multiple_zcz(default_params(2, 3, 1, 0)), fam_dir)
    target = fam_dir / "0" / "1.seq"
    target.write_text("\n".join(edit(target.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError) as info:
        load_family(fam_dir)
    assert str(info.value).startswith(f"{target}: ")
    assert message in str(info.value)


def test_load_tolerates_blank_lines_and_crlf(tmp_path):
    fam_dir = tmp_path / "fam"
    fam = build_multiple_zcz(default_params(2, 3, 1, 0))
    export_family(fam, fam_dir)
    target = fam_dir / "0" / "1.seq"
    lines = target.read_text().splitlines()
    target.write_text("\n" + "\r\n".join(lines[:6] + ["", " "] + lines[6:]) + "\r\n")
    loaded = load_family(fam_dir)
    assert loaded.family.sets[0][1] == fam.sets[0][1]


@pytest.mark.parametrize("q", [1, 2, 3, 4, 8, 10, 11, 16, 257, 2**16, 2**16 + 2])
def test_sequence_file_bytes_match_the_line_by_line_format(q):
    rng = np.random.default_rng(q)
    exps = rng.integers(0, q, size=600)
    seq = UnimodularSequence(q, exps)
    data = construction._format_sequence_file(seq, 16, 7)
    lines = [f"q={q}", "L=600", "Z=16", "Zc=7", *map(str, exps.tolist())]
    assert data == ("\n".join(lines) + "\n").encode()
    if q % 2 or q > construction.MAX_MODULUS:  # no family has this modulus
        with pytest.raises(ValueError, match=f"x.seq: q={q} is not a family modulus"):
            construction._parse_sequence_file(data, "x.seq")
        return
    assert construction._parse_sequence_file(data, "x.seq") == (
        seq, {"q": q, "L": 600, "Z": 16, "Zc": 7}
    )


def test_export_builds_the_record_table_once_per_modulus(tmp_path):
    fam = build_multiple_zcz(default_params(2**16, 3, 1, 1))
    construction._exponent_records.cache_clear()
    export_family(fam, tmp_path / "fam")
    info = construction._exponent_records.cache_info()
    assert (info.misses, info.hits) == (1, 7)  # 8 files, one q
    loaded = load_family(tmp_path / "fam")
    assert loaded.family.sets == fam.sets


@pytest.mark.parametrize(
    "rewrite",
    [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\r"),
        lambda text: text.replace("\n", "\n\n") + "\n \n",
    ],
    ids=["crlf", "cr", "blank-lines"],
)
def test_rewritten_line_ends_load_to_equal_sequences(tmp_path, rewrite):
    fam_dir = tmp_path / "fam"
    fam = build_multiple_zcz(default_params(2, 3, 1, 1))
    export_family(fam, fam_dir)
    for path in (fam_dir / "0" / "1.seq", fam_dir / "1" / "3.seq"):
        path.write_bytes(rewrite(path.read_text()).encode())
    loaded = load_family(fam_dir)
    assert loaded.family.sets == fam.sets


def _two_digit_q16_params():
    f = G(16, 3, {(1, 2): 8, (0,): 11, (2,): 5})  # the path x1x2 and odd linear terms
    return default_params(16, 3, 1, 0, f=f)


@pytest.mark.parametrize(
    "params, parsed_as_text",
    [(example1_params, False), (_two_digit_q16_params, True)],
    ids=["one-digit", "two-digit"],
)
def test_written_bodies_decode_directly_unless_exponents_have_two_digits(
    tmp_path, monkeypatch, params, parsed_as_text
):
    fam = build_multiple_zcz(params())
    export_family(fam, tmp_path / "fam")
    body = (tmp_path / "fam" / "0" / "0.seq").read_text().split("\n")[4:]
    assert any(len(ln) == 2 for ln in body) == parsed_as_text
    calls = []

    def loadtxt(*args, **kwargs):
        calls.append(1)
        return real_loadtxt(*args, **kwargs)

    real_loadtxt = np.loadtxt
    monkeypatch.setattr(construction.np, "loadtxt", loadtxt)
    loaded = load_family(tmp_path / "fam")
    assert loaded.family.sets == fam.sets
    n_files = sum(len(st) for st in fam.sets)
    assert len(calls) == (n_files if parsed_as_text else 0)


def test_direct_decode_takes_exactly_the_digit_lf_records(monkeypatch):
    """The direct path reads each 2-byte record as one uint16; it must take
    b"<digit>\\n" and hand every other byte pair to the text parser."""

    class TextParsed(Exception):
        pass

    def loadtxt(*args, **kwargs):
        raise TextParsed

    monkeypatch.setattr(construction.np, "loadtxt", loadtxt)
    for b0 in range(256):
        for b1 in range(256):
            body = b"7\n" * 3 + bytes([b0, b1])
            try:
                exps = construction._decode_exponents(body, 4)
            except (TextParsed, UnicodeDecodeError):
                exps = None
            if b1 == ord("\n") and ord("0") <= b0 <= ord("9"):
                assert exps.tolist() == [7, 7, 7, b0 - ord("0")]
            else:
                assert exps is None, (b0, b1)


def test_inter_zone_reports_on_bundled_family():
    fam = build_multiple_zcz(example1_params())
    assert verify_inter_zccz(fam.sets[0], fam.sets[1], 7).passed
    rep = verify_inter_zccz(fam.sets[0], fam.sets[1], 8)
    assert not rep.passed
    assert rep.witness.shift == 8 and abs(complex(rep.witness.re, rep.witness.im)) == 128


def test_manifest_json_is_loadable(tmp_path):
    fam = build_multiple_zcz(example1_params())
    export_family(fam, tmp_path / "fam", certificates={"pass": True})
    data = json.loads((tmp_path / "fam" / "manifest.json").read_text())
    assert data["declared"]["zcz"] == 16
    assert data["certificates"] == {"pass": True}
    assert data["params"]["J"] == [0]


@pytest.mark.parametrize("q, m, k, s", [
    (2, 4, 2, 1), (2, 4, 2, 2), (2, 5, 2, 1), (2, 5, 3, 1), (2, 6, 3, 2),
    (4, 5, 2, 1), (8, 5, 2, 1), (2, 6, 2, 0),
])
def test_declared_zones_are_certified_and_tight(q, m, k, s):
    """The paper's claims at the declared zones: each set an optimal
    (2^(k+1), 2^m, 2^(m+k+2)) set, and the union of the 2^s sets a
    near-optimal one at Zc = 2^(m-s) - 1 (rho = 1 - 2^(s-m)), or, with one
    set, the set itself at Zc = Z.  Every zone is tight: one shift more
    fails, and the witness sits at that shift."""
    params = default_params(q, m, k, s)
    fam = build_multiple_zcz(params)
    K, Z, L = 1 << (k + 1), 1 << m, 1 << (m + k + 2)
    Zc = Z if s == 0 else (1 << (m - s)) - 1
    union = ((K << s, Zc, L, 1, "optimal") if s == 0
             else (K << s, Zc, L, 1 - Fraction(1, 1 << (m - s)), "near-optimal"))
    assert (fam.Z, fam.Zc) == (Z, Zc)

    def summary(cert):
        return cert.K, cert.Z, cert.L, cert.rho, cert.classification

    set_certs, inter, union_cert = correlation.certify_family(fam.union, fam.sizes, Z, Zc)
    assert [summary(c) for c in set_certs] == [(K, Z, L, 1, "optimal")] * (1 << s)
    assert summary(union_cert) == union
    assert all(c.passed and c.formula == "binary" for c in (*set_certs, union_cert))
    assert len(inter) == (1 << s) * ((1 << s) - 1) // 2
    assert all(rep.passed for rep in inter.values())

    set_certs, _, _ = correlation.certify_family(fam.union, fam.sizes, Z + 1, Zc)
    assert not all(c.passed for c in set_certs)
    assert {c.witness.shift for c in set_certs if not c.passed} == {Z + 1}
    _, inter, union_cert = correlation.certify_family(fam.union, fam.sizes, Z, Zc + 1)
    assert not union_cert.passed and union_cert.witness.shift == Zc + 1
    if s:
        failed = [rep for rep in inter.values() if not rep.passed]
        assert failed and {abs(rep.witness.shift) for rep in failed} == {Zc + 1}


def _seeds(k: int):
    """Every seed for k, as (seed, admissible): the admissible ones, with
    c_{k+1} = 1 and any cross terms, linear bits and constant, then the 2^k
    with c_{k+1} = 0, which ``HCoeffs`` refuses and so are set past it."""
    pairs = list(itertools.combinations(range(1, k + 1), 2))
    for c, used, e, e_prime in itertools.product(
            itertools.product((0, 1), repeat=k), itertools.product((0, 1), repeat=len(pairs)),
            itertools.product((0, 1), repeat=k + 2), (0, 1)):
        d_pairs = tuple(p for p, b in zip(pairs, used) if b)
        yield HCoeffs(c=c + (1,), d_pairs=d_pairs, e=e, e_prime=e_prime), True
    for c in itertools.product((0, 1), repeat=k):
        seed = HCoeffs.default(k)
        object.__setattr__(seed, "c", c + (0,))
        yield seed, False


def test_certificates_pass_exactly_when_the_seed_cancels():
    """Every seed for k <= 2 at six points: the family's certificates pass
    exactly when ``check_seed_cancellation`` does.  Every admissible seed
    passes both; the negative controls, every seed without the top coupling
    c_{k+1}, fail both."""
    outcomes = collections.Counter()
    for q, m, k, s in ((2, 4, 2, 1), (4, 4, 2, 1), (8, 4, 2, 1), (2, 3, 1, 1), (2, 3, 1, 0),
                       (2, 4, 0, 0)):
        for seed, admissible in _seeds(k):
            fam = build_multiple_zcz(default_params(q, m, k, s, h=seed))
            set_certs, inter, union_cert = correlation.certify_family(
                fam.union, fam.sizes, fam.Z, fam.Zc)
            certified = all(c.passed for c in (*set_certs, *inter.values(), union_cert))
            cancels = check_seed_cancellation(seed_polynomial(seed)).passed
            assert certified == cancels, (q, m, k, s, seed)
            outcomes[admissible, certified] += 1
    assert outcomes == {(True, True): 840, (False, False): 17}
