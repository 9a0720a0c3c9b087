"""Function representation, evaluation, restriction, and graph checks."""

import itertools
import re

import numpy as np
import pytest

from conftest import binvec, build_seed_function, evaluate, quadratic_graph, random_gbf
from zczseq import (
    GeneralizedBooleanFunction,
    UnimodularSequence,
    default_params,
    example1_params,
    format_gbf_text,
    parse_gbf_text,
    path_gbf,
    psi,
    validate_restricted_path_form,
)
from zczseq.gbf import _is_binary, roots_of_unity

G = GeneralizedBooleanFunction


def example1_f():
    return G(2, 4, {(0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1,): 1, (2,): 1})


def test_evaluate_zero_function():
    f = G(2, 3)
    for j in range(8):
        assert evaluate(f, binvec(j, 3)) == 0


def test_evaluate_mod_reduction():
    f = G(2, 2, {(0, 1): 1, (): 1})
    assert evaluate(f, (1, 1)) == 0  # 1 + 1 mod 2


def test_evaluate_bundled_example_all_ones():
    assert evaluate(example1_f(), (1, 1, 1, 1)) == 0  # six terms, each 1, mod 2


def test_constructor_rejects_bad_modulus_and_indices():
    with pytest.raises(ValueError):
        G(3, 2, {})
    with pytest.raises(ValueError):
        G(2, 2, {(2,): 1})
    with pytest.raises(ValueError):
        f = G(2, 2, {})
        evaluate(f, (1,))


def test_terms_are_canonical():
    f = G(4, 3, {(2, 0): 3, (1,): 4, (): 5})
    assert f.terms == {(0, 2): 3, (): 1}  # (1,) coeff 4 mod 4 drops out


def test_psi_constant_and_single_variable():
    assert list(psi(G(2, 1)).exponents) == [0, 0]
    assert list(psi(G(2, 1, {(0,): 1})).exponents) == [0, 1]  # x0 toggles with the LSB


def test_psi_product_term_hand_enumeration():
    f = G(2, 2, {(0, 1): 1})
    # by hand over (j0, j1) in 00,10,01,11: 0,0,0,1
    assert list(psi(f).exponents) == [0, 0, 0, 1]


def test_psi_matches_pointwise_evaluation_exhaustively():
    rng = np.random.default_rng(7)
    for q, m in ((2, 6), (4, 5), (2, 12)):
        f = random_gbf(rng, q, m)
        table = psi(f).exponents
        for j in range(1 << m):
            assert table[j] == evaluate(f, binvec(j, m))


def test_restrict_basic():
    f = G(2, 2, {(0, 1): 1})
    assert f.restrict([0], [0]).terms == {}
    assert f.restrict([0], [1]).terms == {(1,): 1}


def test_restrict_bundled_example():
    # substituting x0 = 1 collapses six terms down to x1x2 + x3
    g = example1_f().restrict([0], [1])
    assert g.terms == {(1, 2): 1, (3,): 1}
    assert g.m == 4


def test_restrict_errors():
    f = G(2, 3, {(0, 1): 1})
    with pytest.raises(ValueError):
        f.restrict([0, 0], [1, 1])
    with pytest.raises(ValueError):
        f.restrict([3], [1])
    with pytest.raises(ValueError):
        f.restrict([0], [1, 0])
    with pytest.raises(ValueError):
        f.restrict([0], [2])


def test_restrict_is_additive():
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = int(rng.choice([2, 4, 6]))
        m = int(rng.integers(2, 6))
        f, g = random_gbf(rng, q, m), random_gbf(rng, q, m)
        n_j = int(rng.integers(1, m))
        J = tuple(int(x) for x in rng.choice(m, size=n_j, replace=False))
        e = tuple(int(x) for x in rng.integers(0, 2, size=n_j))
        assert (f + g).restrict(J, e) == f.restrict(J, e) + g.restrict(J, e)


def test_quadratic_graph_linear_and_example():
    assert quadratic_graph(G(2, 3, {(0,): 1, (): 1})).edges == frozenset()
    g = quadratic_graph(example1_f())
    assert g.vertices == frozenset(range(4))
    assert g.edges == frozenset({(0, 1), (0, 2), (0, 3), (1, 2)})


def test_quadratic_graph_seed_star():
    h = build_seed_function(example1_params().h, 4, 2)
    g = quadratic_graph(h)
    assert g.edges == frozenset({(4, 5), (4, 6), (4, 7)})
    assert g.degree(4) == 3
    assert g.adjacency()[4] == (5, 6, 7)


def test_quadratic_graph_rejects_cubic():
    with pytest.raises(ValueError):
        quadratic_graph(G(2, 3, {(0, 1, 2): 1}))


def test_path_form_identity_order():
    rep = validate_restricted_path_form(example1_f(), k=2, s=1, J=(0,), pi=(0, 1))
    assert rep.passed
    assert rep.path == (1, 2)
    assert (rep.gamma1, rep.gamma2) == (1, 2)


def test_path_form_reversed_order():
    rep = validate_restricted_path_form(example1_f(), k=2, s=1, J=(0,), pi=(1, 0))
    assert rep.passed
    assert (rep.gamma1, rep.gamma2) == (2, 1)


def test_path_form_rejects_bare_product():
    rep = validate_restricted_path_form(G(2, 4, {(0, 1): 1}), k=2, s=1, J=(0,), pi=(0, 1))
    assert not rep.passed
    assert any("missing" in reason for _, reason in rep.violations)


def test_path_form_two_vertex_path_checks_both_restrictions():
    # m=4, k=2, s=0: J={0,1}, free path on {2,3} is the single edge (2,3)
    f = G(2, 4, {(2, 3): 1, (0, 2): 1, (1,): 1})
    rep = validate_restricted_path_form(f, k=2, s=0, J=(0, 1), pi=(0, 1))
    assert rep.passed and rep.path == (2, 3)
    # a cubic through x1 cancels the path edge in exactly the e_1 = 1 restrictions
    rep_bad = validate_restricted_path_form(f + G(2, 4, {(1, 2, 3): 1}), 2, 0, (0, 1), (0, 1))
    assert not rep_bad.passed
    assert all(e[1] == 1 for e, _ in rep_bad.violations)


@pytest.mark.parametrize("extra, reason", [
    ({(2, 3, 4): 1}, "degree-3 term (2, 3, 4) survives restriction"),
    ({(2, 4): 2}, "quadratic term (2, 4) is not a path edge"),
    ({(2, 3): 1}, "path edge (2, 3) has coefficient 3, expected 2"),
])
def test_path_form_reports_each_defect_of_f(extra, reason):
    # m=5, k=2, s=0: J={0,1}, the path 2-3-4 on the free vertices, q = 4
    J, pi = (0, 1), (0, 1, 2)
    f = path_gbf(4, 5, 2, 0, J, pi)
    assert validate_restricted_path_form(f, 2, 0, J, pi).passed  # control
    rep = validate_restricted_path_form(f + G(4, 5, extra), 2, 0, J, pi)
    assert not rep.passed
    # the defect avoids the J variables, so every restriction keeps it
    assert [e for e, r in rep.violations if r == reason] == list(itertools.product((0, 1), repeat=2))
    message = rf"^f does not restrict to the required path form: at e=\(0, 0\): {re.escape(reason)}$"
    with pytest.raises(ValueError, match=message):
        default_params(4, 5, 2, 0, f=f + G(4, 5, extra))


def test_path_form_structural_misuse_raises():
    with pytest.raises(ValueError):
        validate_restricted_path_form(example1_f(), k=3, s=1, J=(0,), pi=(0,))
    with pytest.raises(ValueError):
        validate_restricted_path_form(example1_f(), k=2, s=1, J=(3,), pi=(0, 1))
    with pytest.raises(ValueError):
        validate_restricted_path_form(example1_f(), k=2, s=1, J=(0,), pi=(0, 2))


def test_text_format_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(25):
        q = int(rng.choice([2, 4, 8]))
        f = random_gbf(rng, q, int(rng.integers(1, 7)))
        text = format_gbf_text(f)
        assert parse_gbf_text(text) == f
        assert format_gbf_text(parse_gbf_text(text)) == text


def test_text_format_example_rendering():
    f = G(2, 2, {(0, 1): 1, (): 1})
    assert format_gbf_text(f) == "q=2 m=2\n1\n1 * x0*x1\n"


def test_text_format_malformed():
    for bad in ("", "q=2\n", "q=2 m=2\nfoo", "q=2 m=2\n1 * y0", "q=2 m=2\n1\n1"):
        with pytest.raises(ValueError):
            parse_gbf_text(bad)


def test_sequence_invariants():
    with pytest.raises(ValueError):
        UnimodularSequence(2, np.array([0, 2]))
    assert not _is_binary(6, UnimodularSequence(6, np.array([0, 1])).exponents)


def test_sequence_owns_a_read_only_copy_of_its_exponents():
    exps = np.array([0, 1, 2, 3], dtype=np.int64)
    seq = UnimodularSequence(4, exps)
    exps[:] = 0
    assert seq.exponents.tolist() == [0, 1, 2, 3]
    table = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)  # a parity table
    row = UnimodularSequence(2, table[0])
    table[:] = 0
    assert row.exponents.tolist() == [1, 0, 1]
    assert not np.shares_memory(row.exponents, table)
    # a read-only row already narrow, as a family's union rows are, is kept as it is
    table.flags.writeable = False
    assert UnimodularSequence(2, table[1]).exponents.base is table
    # negative controls: a read-only row of a wider dtype is still copied
    wide_table = table.astype(np.int64)
    wide_table.flags.writeable = False
    assert not np.shares_memory(UnimodularSequence(2, wide_table[1]).exponents, wide_table)
    # the narrowest unsigned dtype that holds 2q - 1, whatever the input's
    for stored, q in ((seq.exponents, 4), (row.exponents, 2)):
        assert stored.dtype == np.min_scalar_type(2 * q - 1) == np.uint8
    wide = UnimodularSequence(256, np.array([0, 255], dtype=np.int64)).exponents
    assert wide.dtype == np.uint16 and wide.tolist() == [0, 255]
    for stored in (seq.exponents, row.exponents):
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0] = 1
    for bad in ([-1, 0], [0, 4]):
        with pytest.raises(ValueError, match=r"exponents must lie in \[0, 4\)"):
            UnimodularSequence(4, np.array(bad))
    for bad in (np.zeros((2, 2), dtype=np.int64), np.array([], dtype=np.int64)):
        with pytest.raises(ValueError, match="nonempty 1-d vector"):
            UnimodularSequence(4, bad)


def _values_by_formula(q, exps):
    """Reference entries by arithmetic, one formula per modulus."""
    if q == 1:
        return np.ones(len(exps), dtype=np.complex128)
    if q == 2:
        return (1.0 - 2.0 * exps).astype(np.complex128)
    if q == 4:
        re = np.array([1, 0, -1, 0], dtype=np.float64)[exps]
        im = np.array([0, 1, 0, -1], dtype=np.float64)[exps]
        return re + 1j * im
    return np.exp(2j * np.pi * exps / q)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 6, 8, 16])
def test_values_equal_the_formulas_bit_for_bit_and_are_fresh(q):
    rng = np.random.default_rng(q)
    seq = UnimodularSequence(q, rng.integers(0, q, 300))
    want = _values_by_formula(q, seq.exponents)
    got = seq.values()
    assert got.dtype == np.complex128
    # the int64 view compares signs of zero and the last bit of every part
    assert np.array_equal(got.view(np.int64), want.view(np.int64))

    table = roots_of_unity(q)
    assert table is roots_of_unity(q) and not table.flags.writeable
    saved = table.copy()
    got[:] = 7
    assert np.array_equal(seq.values().view(np.int64), want.view(np.int64))
    assert np.array_equal(table.view(np.int64), saved.view(np.int64))
