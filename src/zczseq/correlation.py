"""Exact correlation computation and brute-force zone certification.

Aperiodic correlation follows the sliding-window convention

    accf(a, b)(u) = sum_{i=0}^{L-1-u} a_i * conj(b_{i+u}),   0 <= u <= L,

with the mirrored sum for negative u and accf(.)(+-L) = 0 (empty sum).
Periodic correlation is assembled from two aperiodic terms:

    pccf(a, b)(u) = accf(a, b)(u) + conj(accf(b, a)(L - u)).

For q in {1, 2, 4} every value is a Gaussian integer and all zone tests
are exact; for other moduli values are complex doubles with an absolute
zero tolerance of 1e-9 * L, and a verdict is refused where that tolerance
could hide a nonzero value (``_check_decidable``).  ``is_zero`` is the one
zero rule that every verdict uses, the zone scans and
``check_chunk_decomposition`` alike.

Whole sets go through one batch kernel, ``_periodic_table``.  Each set is
stacked as one matrix, real unless an entry has a nonzero imaginary part,
by gathering from the table of the q roots of unity; the shifts are walked
in blocks of cyclically shifted rows, ``_SHIFT_BLOCK_BYTES`` at a time,
with one BLAS GEMM per block; so working memory is O(K * block * L) beyond
the output table.  Aperiodic code tables are periodic tables too:
``verify_ccc`` lays each code's rows end to end, every row followed by L
zeros, so shifts below L never carry one row into the next.
``certify_family`` serves a whole family from the union's table at shifts
0..Zc, where every inter-set correlation (both orientations) and every
per-set one up to shift min(Z, Zc) is a slice; only each set's shifts
Zc+1..Z take one more call (one call for all sets when folded).

Those calls take a cheaper exact kernel when the family splits into the
construction's two layers.  With S sets of K sequences, C = 2K chunks of
P = L / C positions and t = c * P + p, union row (t1, t2) splits when it
is z0[t] * X[t1][c] * Y[t2][p]: the chunk terms pick the set, the
within-chunk terms the sequence.  ``_split`` checks that on every entry in
O(K_u * L), and ``_folded_table`` then sums over the chunks first and the
positions second: S^2 L + S^2 K^2 P multiply-adds per shift instead of
S^2 K^2 L.  Path rule: q in {1, 2, 4} and the split holds, folded;
anything else (q = 6 or 8, a corrupted chip, any family that does not
split), GEMM.  Both paths feed the same scans.

Every floating-point dot product here, the scalar ``accf`` included, is
exact for q in {1, 2, 4}: every entry and every product is a Gaussian
integer with components in {-1, 0, 1}, and every partial sum (and every
real part the complex products form) is an integer of magnitude at most
twice the row length N.  float32 holds and adds every integer below 2**24
without rounding in any order, float64 every one below 2**53; so exact
blocks are float32/complex64 while 2N < 2**24 and float64/complex128
beyond, and blocks of other moduli are always float64/complex128.  The
fold is exact by the same argument: its factors are roots of unity, so
every partial sum over the chunks has components of magnitude at most C,
and every partial sum over the positions (with every real part its
products form) at most 2L; it runs in the union's dtype, picked with
N = L.  Both kernels return their table as one array in the dtype they
computed it in, real for real blocks; the scans read it as it is, and
witness values become int64 (exact) or float64 only where a witness is
built.  ``accf``, ``pccf`` and ``code_accf``
return Python complex numbers; for q in {1, 2, 4} their components are
exact integers, so ``==`` compares them exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .gbf import UnimodularSequence, roots_of_unity

__all__ = [
    "Violation",
    "ZczCertificate",
    "InterSetReport",
    "CccReport",
    "SpectrumTable",
    "SpectrumCapError",
    "accf",
    "pccf",
    "code_accf",
    "is_zero",
    "verify_ccc",
    "verify_zcz",
    "verify_inter_zccz",
    "certify_family",
    "performance_parameter",
    "correlation_spectrum",
]

FLOAT_ZERO_TOL_PER_CHIP = 1e-9
DEFAULT_SPECTRUM_CELL_CAP = 1 << 24


def accf(a: UnimodularSequence, b: UnimodularSequence, u: int) -> complex:
    """Aperiodic cross-correlation of a against b at shift u (|u| <= L).

    Only the overlapping chips are gathered from the shared table of the
    q roots of unity; no full value vector is built.
    """
    ea, eb = a.exponents, b.exponents
    L = ea.size
    if eb.size != L:
        raise ValueError(f"length mismatch: {L} vs {eb.size}")
    q = a.q
    if b.q != q:
        raise ValueError(f"modulus mismatch: q={q} vs q={b.q}")
    if not -L <= u <= L:
        raise ValueError(f"shift {u} outside [-{L}, {L}]")
    if u >= 0:
        ea, eb = ea[: L - u], eb[u:]
    else:
        ea, eb = ea[-u:], eb[: L + u]
    roots = roots_of_unity(q)
    return complex(np.vdot(roots[eb], roots[ea]))  # vdot conjugates b


def pccf(a: UnimodularSequence, b: UnimodularSequence, u: int) -> complex:
    """Periodic cross-correlation at shift u, 0 <= u < L, from two
    ``accf`` calls."""
    L = a.exponents.size
    if not 0 <= u < L:
        raise ValueError(f"periodic shift {u} outside [0, {L})")
    return accf(a, b, u) + accf(b, a, L - u).conjugate()


def code_accf(code1, code2, u: int) -> complex:
    """Row-wise sum of aperiodic cross-correlations between two codes,
    each a sequence of rows."""
    if len(code1) != len(code2):
        raise ValueError(f"row count mismatch: {len(code1)} vs {len(code2)}")
    return sum((accf(r1, r2, u) for r1, r2 in zip(code1, code2)), 0j)


def is_zero(value, exact: bool, L: int):
    """The zero rule of every verdict: ``value`` (a complex number, or an
    array of correlation values) is zero iff |re| + |im| is at most 0 when
    ``exact`` (q in {1, 2, 4}) and ``FLOAT_ZERO_TOL_PER_CHIP * L``
    otherwise, L the correlation length.  Elementwise for arrays."""
    dev = abs(value.real)
    # the imaginary part of a real array would be a fresh array of zeros
    if isinstance(value, complex) or np.iscomplexobj(value):
        dev += abs(value.imag)
    return dev <= (0 if exact else FLOAT_ZERO_TOL_PER_CHIP * L)


def _check_decidable(q: int, L: int, N: int) -> None:
    """Refuse verdicts that :func:`is_zero` cannot decide at length L for
    values that each sum N q-th roots of unity.

    For q outside {1, 2, 4} a nonzero value has a norm of magnitude at
    least 1, and each of its phi(q)/2 conjugate pairs has magnitude at most
    N, so the value itself has magnitude at least N^-(phi(q)/2 - 1); the
    tolerance ``FLOAT_ZERO_TOL_PER_CHIP * L`` must stay below that bound.
    """
    if q in (1, 2, 4):
        return
    pairs = sum(math.gcd(j, q) == 1 for j in range(1, q)) // 2
    if (pairs - 1) * math.log(N) + math.log(FLOAT_ZERO_TOL_PER_CHIP * L) >= 0:
        raise ValueError(
            f"q={q} at L={L}: the float zero test cannot tell every nonzero correlation"
            " from zero; exact zero tests for this modulus are item 1 of ROADMAP.md"
        )


# ---------------------------------------------------------------------------
# batch engine: stacked periodic correlations for whole sets at once

# Working-set target for one block of cyclically shifted rows.
_SHIFT_BLOCK_BYTES = 4 << 20
# float32 holds every integer of magnitude up to 2**24 exactly.
_SINGLE_EXACT_LIMIT = 1 << 24


def _kernel_dtype(is_complex, exact, N):
    """Storage for rows of length N: single precision when the rows are
    exact and every partial sum (|s| <= 2N) stays below 2**24."""
    single = exact and 2 * N < _SINGLE_EXACT_LIMIT
    if is_complex:
        return np.dtype(np.complex64 if single else np.complex128)
    return np.dtype(np.float32 if single else np.float64)


class _Block:
    """K rows of length L stacked as one matrix: real when every entry is
    real, complex otherwise; see ``_kernel_dtype`` for the precision."""

    __slots__ = ("K", "L", "q", "exact", "mat")

    def __init__(self, mat, q, exact):
        self.K, self.L = mat.shape
        self.q = q
        self.exact = exact
        dtype = _kernel_dtype(np.iscomplexobj(mat), exact, self.L)
        self.mat = np.ascontiguousarray(mat, dtype=dtype)


def _stack(seqs) -> _Block:
    """A sequence set as one block; the sequences must share q and L.

    Entries are gathered from the q roots of unity, so no per-sequence
    complex vector is built; the block is real when every root the set
    uses is real.
    """
    seqs = list(seqs)
    if not seqs:
        raise ValueError("empty sequence set")
    q = seqs[0].q
    L = len(seqs[0])
    for z in seqs:
        if z.q != q:
            raise ValueError("sequences must share one modulus")
        if len(z) != L:
            raise ValueError("sequences must share one length")
    exact = seqs[0].exact
    exps = np.stack([z.exponents for z in seqs])
    roots = roots_of_unity(q)
    if not roots.imag[np.bincount(exps.ravel(), minlength=q) > 0].any():
        roots = roots.real
    roots = roots.astype(_kernel_dtype(np.iscomplexobj(roots), exact, L))
    return _Block(roots[exps], q, exact)


def _periodic_table(A: _Block, B: _Block, shifts) -> np.ndarray:
    """phi[u_idx, i, j] = sum_t A_i[t] * conj(B_j[(t + u) mod L]).

    Shifts are taken in blocks; each block stacks its cyclically shifted B
    rows into one contiguous matrix and costs one GEMM.  The table is one
    array in the blocks' dtype: real when both blocks are real.
    """
    shifts = np.asarray(shifts, dtype=np.int64)
    if shifts.size == 0:
        raise ValueError("no shifts requested")
    if np.any((shifts < 0) | (shifts >= A.L)):
        raise ValueError("periodic shifts must lie in [0, L)")
    L = A.L
    ext = np.concatenate([B.mat, B.mat[:, : int(shifts.max())]], axis=1).conj()
    # rows[u, j] is B_j cyclically shifted left by u (a view, no copy)
    rows = np.lib.stride_tricks.sliding_window_view(ext, L, axis=1).transpose(1, 0, 2)
    phi = np.empty((shifts.size, A.K, B.K), dtype=np.result_type(A.mat, ext))
    step = max(1, _SHIFT_BLOCK_BYTES // (B.K * L * ext.itemsize))
    for lo in range(0, shifts.size, step):
        part = shifts[lo : lo + step]
        W = rows[part].reshape(-1, L)
        phi[lo : lo + part.size] = (A.mat @ W.T).reshape(A.K, part.size, B.K).transpose(1, 0, 2)
    return phi


class _Fold(NamedTuple):
    """A family whose union row (t1, t2) is z0 * X[t1] * Y[t2]: with
    t = c * P + p, z0[c, p] is common to every row, X[t1, c] depends on the
    chunk c only and Y[t2, p] on the position p within the chunk only."""

    z0: np.ndarray
    X: np.ndarray
    Y: np.ndarray


def _split(union: _Block, sizes) -> _Fold | None:
    """The chunk fold of a stacked family when its rows split exactly.

    The chunk length P = L / (2K) follows from the shapes alone: S sets of
    K sequences each.  The split is checked on every entry, in O(K_u * L):
    for q in {1, 2, 4} the roots are exactly +-1 and +-i, distinct, and
    closed under products, so comparing entries compares exponents mod q.
    Returns None for an inexact block (other moduli), unequal set sizes, a
    length that is not a multiple of 2K, or any entry off the split.
    """
    K = sizes[0]
    if not union.exact or any(n != K for n in sizes) or union.L % (2 * K):
        return None
    rows = union.mat.reshape(len(sizes), K, 2 * K, union.L // (2 * K))
    z0 = rows[0, 0]
    # normalised so that X[0] and Y[0] are all ones; conj is the inverse of a root
    Y = rows[0, :, 0, :] * z0[0].conj()
    X = rows[:, 0, :, 0] * z0[:, 0].conj()
    common = z0 * Y[:, None, :]
    if all(np.array_equal(common * X[n][:, None], rows[n]) for n in range(len(sizes))):
        return _Fold(z0, X, Y)
    return None


def _folded_table(fold: _Fold, shifts, diagonal: bool = False) -> np.ndarray:
    """The union table of a split family, as ``_periodic_table`` returns it.

    For a shift u = uc * P + up, with carry(p) = [p + up >= P]:

        V[c, p]       = z0[c, p] * conj(z0 at t + u)
        G[a1, b1, p]  = sum_c X[a1, c] * V[c, p] * conj(X[b1, c + uc + carry(p)])
        phi(u)[(a1, a2), (b1, b2)]
                      = sum_p Y[a2, p] * G[a1, b1, p] * conj(Y[b2, (p + up) mod P])

    G is one small GEMM per carry value, and phi one GEMM of S^2 K x P x K,
    so a shift costs S^2 L + S^2 K^2 P multiply-adds instead of
    S^2 K^2 L.  Shifts are walked in blocks as in ``_periodic_table``.

    With ``diagonal``, only the set pairs a1 = b1 are formed: the tables
    come as (shifts, S, K, K), set n's own table at ``[:, n]``, from one
    V and one rolled Y per shift block for all S sets.
    """
    shifts = np.asarray(shifts, dtype=np.int64)
    z0, X, Y = fold
    S, C = X.shape
    K, P = Y.shape
    L = C * P
    z0 = z0.ravel()
    ext = np.concatenate([z0, z0[: int(shifts.max())]]).conj()
    rows = np.lib.stride_tricks.sliding_window_view(ext, L)  # rows[u] = z0 shifted by u
    # conj(X) over chunk indices c + uc + carry, wrapped, for uc < C
    Xc = np.concatenate([X, X], axis=1).conj()
    a1, b1 = (np.arange(S),) * 2 if diagonal else np.divmod(np.arange(S * S), S)
    Xa, Xb = X[a1], Xc[b1]
    c, p = np.arange(C), np.arange(P)
    shape = (S, K, K) if diagonal else (S * K, S * K)
    phi = np.empty((shifts.size, *shape), dtype=z0.dtype)
    # the largest temporaries of a shift: two rows of V and a1.size K P of Y * G
    step = max(1, _SHIFT_BLOCK_BYTES // (z0.itemsize * (2 * L + a1.size * K * P)))
    for lo in range(0, shifts.size, step):
        part = shifts[lo : lo + step]
        uc, up = np.divmod(part, P)
        V = (z0 * rows[part]).reshape(-1, C, P)
        chunk = c + uc[:, None]
        W0 = Xa * Xb[:, chunk].transpose(1, 0, 2)
        W1 = Xa * Xb[:, chunk + 1].transpose(1, 0, 2)
        G = np.where(p < (P - up)[:, None, None], W0 @ V, W1 @ V)
        M = (G[:, :, None, :] * Y).reshape(part.size, a1.size * K, P)
        Yr = Y.conj()[:, (p + up[:, None]) % P].transpose(1, 2, 0)
        block = (M @ Yr).reshape(-1, a1.size, K, K)
        if not diagonal:
            block = block.reshape(-1, S, S, K, K).transpose(0, 1, 3, 2, 4)
        phi[lo : lo + part.size] = block.reshape(-1, *shape)
    return phi


@dataclass(frozen=True)
class Violation:
    """A single nonzero correlation where the claimed zone demands zero."""

    i: int
    j: int
    shift: int
    re: float
    im: float

    @property
    def magnitude(self) -> float:
        return abs(complex(self.re, self.im))

    def to_json_dict(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "shift": self.shift,
            "re": self.re,
            "im": self.im,
            "magnitude": self.magnitude,
        }


def _scan_block(phi, shifts, block: _Block, peak, pair_major=False):
    """Collect zone violations from one periodic-correlation table, zero
    by :func:`is_zero` at ``block``'s exactness and row length.

    Every entry must be zero except phi(i,i)(0), which must equal ``peak``
    (a ``peak`` of 0 demands zero there too).  Returns the worst violation
    per ordered pair (the first in scan order wins ties), pairs sorted, and
    the first violation in scan order: shift-major, then i, then j; or,
    with ``pair_major``, i, then j, then shift.
    """
    zero = is_zero(phi, block.exact, block.L)
    if peak:
        diag = np.arange(phi.shape[1])
        for u_idx in np.flatnonzero(shifts == 0):
            zero[u_idx, diag, diag] = is_zero(phi[u_idx, diag, diag] - peak, block.exact, block.L)
    bad = np.argwhere(~zero)
    if not bad.size:
        return (), None
    u_idx, i, j = bad.T
    vals = phi[u_idx, i, j]
    dtype = np.int64 if block.exact else np.float64
    vals_re, vals_im = vals.real.astype(dtype), vals.imag.astype(dtype)
    pair = i * phi.shape[2] + j
    order = np.lexsort((-np.hypot(vals_re, vals_im), pair))  # stable: scan order breaks ties
    first = order[np.r_[True, pair[order][1:] != pair[order][:-1]]]

    def violation(n):
        # .item() gives Python ints for exact tables, floats otherwise
        return Violation(
            int(i[n]), int(j[n]), int(shifts[u_idx[n]]), vals_re[n].item(), vals_im[n].item()
        )

    # argwhere is shift-major, so the first entry of the lowest pair has its lowest shift
    return tuple(violation(n) for n in first), violation(np.argmin(pair) if pair_major else 0)


def performance_parameter(K: int, Z: int, L: int, binary: bool = False):
    """Zone quality ratio and its optimality classification.

    Binary sets use rho = 2KZ/L with near-optimality at 2K(Z+1)/L = 1;
    general sets use rho = K(Z+1)/L with near-optimality at K(Z+2)/L = 1.
    Returns (rho as an exact Fraction, classification string).
    """
    if K < 1 or Z < 0 or L < 1:
        raise ValueError(f"need K >= 1, Z >= 0, L >= 1, got ({K}, {Z}, {L})")
    if binary:
        rho = Fraction(2 * K * Z, L)
        near = Fraction(2 * K * (Z + 1), L)
    else:
        rho = Fraction(K * (Z + 1), L)
        near = Fraction(K * (Z + 2), L)
    if rho > 1:
        classification = "bound-violation"
    elif rho == 1:
        classification = "optimal"
    elif near == 1:
        classification = "near-optimal"
    else:
        classification = "neither"
    return rho, classification


@dataclass(frozen=True)
class ZczCertificate:
    """Brute-force certificate that K sequences form a (K, Z, L) zone set."""

    K: int
    Z: int
    L: int
    q: int
    passed: bool
    rho: Fraction
    classification: str
    formula: str
    violations: tuple[Violation, ...]
    witness: Violation | None

    def to_json_dict(self) -> dict:
        return {
            "kind": "zcz",
            "parameters": {"K": self.K, "Z": self.Z, "L": self.L, "q": self.q},
            "pass": self.passed,
            "rho": [self.rho.numerator, self.rho.denominator],
            "classification": self.classification,
            "formula": self.formula,
            "witnesses": [v.to_json_dict() for v in self.violations],
        }


def _check_zone(width: int, L: int) -> None:
    if not 0 <= width < L:
        raise ValueError(f"zone width {width} outside [0, {L})")


def _zcz_certificate(block: _Block, Z: int, phi) -> ZczCertificate:
    """Scan the self table of ``block`` at shifts 0..Z into a certificate."""
    shifts = np.arange(Z + 1, dtype=np.int64)
    violations, witness = _scan_block(phi, shifts, block, peak=block.L)
    rho, classification = performance_parameter(
        block.K, Z, block.L, binary=(block.q == 2)
    )
    return ZczCertificate(
        K=block.K,
        Z=Z,
        L=block.L,
        q=block.q,
        passed=not violations,
        rho=rho,
        classification=classification,
        formula="binary" if block.q == 2 else "general",
        violations=violations,
        witness=witness,
    )


def verify_zcz(seqs, Z: int) -> ZczCertificate:
    """Certify the zone property of Definition-style ZCZ sets by direct
    computation of every in-zone periodic correlation.

    Checks phi(i, i)(0) = L, phi(i, i)(u) = 0 for 1 <= u <= Z and
    phi(i, j)(u) = 0 for i != j, 0 <= u <= Z, over all ordered pairs;
    negative shifts follow from conjugate symmetry.
    """
    block = _stack(seqs)
    _check_zone(Z, block.L)
    _check_decidable(block.q, block.L, block.L)
    shifts = np.arange(Z + 1, dtype=np.int64)
    return _zcz_certificate(block, Z, _periodic_table(block, block, shifts))


@dataclass(frozen=True)
class InterSetReport:
    """Cross-set zone report: phi(a_i, b_j)(u) = 0 for |u| <= Zc."""

    Zc: int
    L: int
    q: int
    passed: bool
    violations: tuple[Violation, ...]
    witness: Violation | None

    def to_json_dict(self) -> dict:
        return {
            "kind": "inter-zccz",
            "parameters": {"Zc": self.Zc, "L": self.L, "q": self.q},
            "pass": self.passed,
            "witnesses": [v.to_json_dict() for v in self.violations],
        }


def _inter_report(block: _Block, Zc: int, forward, reverse) -> InterSetReport:
    """Scan the tables of A against B (``forward``) and of B against A
    (``reverse``) at shifts 0..Zc into one report; ``block`` supplies L, q
    and exactness."""
    shifts = np.arange(Zc + 1, dtype=np.int64)
    collected = []
    for phi, sign in ((forward, 1), (reverse, -1)):
        vio, _ = _scan_block(phi, shifts, block, peak=0)
        if sign < 0:
            # shift-0 entries mirror the forward orientation; drop duplicates
            vio = tuple(
                Violation(v.j, v.i, -v.shift, v.re, -v.im) for v in vio if v.shift != 0
            )
        collected.extend(vio)
    witness = collected[0] if collected else None
    return InterSetReport(
        Zc=Zc,
        L=block.L,
        q=block.q,
        passed=not collected,
        violations=tuple(collected),
        witness=witness,
    )


def verify_inter_zccz(set_a, set_b, Zc: int) -> InterSetReport:
    """Certify a zero cross-correlation zone between two sequence sets.

    Shifts 0..Zc are computed for both orientations; a violation found in
    the reversed orientation is reported with a negative shift (conjugate
    symmetry maps it back to the forward pair).
    """
    A, B = _stack(set_a), _stack(set_b)
    if A.L != B.L or A.q != B.q:
        raise ValueError("sets must share length and modulus")
    _check_zone(Zc, A.L)
    _check_decidable(A.q, A.L, A.L)
    shifts = np.arange(Zc + 1, dtype=np.int64)
    return _inter_report(
        A, Zc, _periodic_table(A, B, shifts), _periodic_table(B, A, shifts)
    )


def certify_family(sets, Z: int, Zc: int):
    """Every certificate of a multiple-ZCZ family from one union table.

    Returns ``(set_certs, inter, union_cert)``: ``verify_zcz(set, Z)`` for
    each set, a dict mapping each pair (a, b) with a < b to
    ``verify_inter_zccz(sets[a], sets[b], Zc)``, and ``verify_zcz`` of all
    sequences at zone Zc, equal to those calls in every field.

    The union's table at shifts 0..Zc holds every inter-set correlation (in
    both orientations) and every per-set one up to shift min(Z, Zc) as a
    slice; only shifts Zc+1..Z of each set need one more kernel call, or
    one diagonal call for all sets when the family splits.
    """
    sets = [list(st) for st in sets]
    union = _stack(z for st in sets for z in st)
    L = union.L
    _check_zone(Z, L)
    _check_zone(Zc, L)
    _check_decidable(union.q, L, L)
    bounds = np.cumsum([0] + [len(st) for st in sets])
    rows = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    blocks = [_Block(union.mat[sl], union.q, union.exact) for sl in rows]
    fold = _split(union, [len(st) for st in sets])

    def own_tables(shifts):
        """Each set's table against itself, in set order."""
        if fold is None:
            return [_periodic_table(block, block, shifts) for block in blocks]
        phi = _folded_table(fold, shifts, diagonal=True)
        return [phi[:, n] for n in range(len(sets))]

    # each set's shifts Zc+1..Z before the union table, so that the table
    # is never held while these calls run: this keeps the peak memory low
    extra = own_tables(np.arange(Zc + 1, Z + 1, dtype=np.int64)) if Z > Zc else []
    low = np.arange(Zc + 1, dtype=np.int64)
    phi = _periodic_table(union, union, low) if fold is None else _folded_table(fold, low)
    set_certs = []
    for n, (sl, block) in enumerate(zip(rows, blocks)):
        own = phi[: min(Z, Zc) + 1, sl, sl]
        if extra:
            own = np.concatenate([own, extra[n]])
        set_certs.append(_zcz_certificate(block, Z, own))
    inter = {}
    for a, b in itertools.combinations(range(len(sets)), 2):
        sa, sb = rows[a], rows[b]
        inter[a, b] = _inter_report(union, Zc, phi[:, sa, sb], phi[:, sb, sa])
    return set_certs, inter, _zcz_certificate(union, Zc, phi)


@dataclass(frozen=True)
class CccReport:
    """Row-sum correlation check over a collection of equal-shape codes."""

    P: int
    M: int
    L: int
    passed: bool
    is_complete: bool
    violations: tuple[Violation, ...]
    witness: Violation | None

    def to_json_dict(self) -> dict:
        return {
            "kind": "ccc",
            "parameters": {"P": self.P, "M": self.M, "L": self.L},
            "pass": self.passed,
            "complete": self.is_complete,
            "witnesses": [v.to_json_dict() for v in self.violations],
        }


def verify_ccc(codes) -> CccReport:
    """Check the complete-complementary conditions over all ordered code
    pairs and all shifts 0 <= u < L: row-summed ACCF equals L*M only for a
    code against itself at zero shift.  Negative shifts follow from
    conjugate symmetry of the row sums.

    Each code becomes one row of length 2ML: its M rows end to end, every
    row followed by L zeros.  No shift below L then carries a row into its
    neighbour or wraps around, so the periodic table at shifts 0..L-1 is
    exactly the row-summed ACCF.  The witness is the first violation in
    (e1, e2, u) order.
    """
    codes = [tuple(c) for c in codes]
    if not codes:
        raise ValueError("empty code collection")
    P, M = len(codes), len(codes[0])
    if any(len(rows) != M for rows in codes):
        raise ValueError("codes must share one row count")
    rows = _stack(r for code in codes for r in code)
    L = rows.L
    _check_decidable(rows.q, L, M * L)
    padded = np.zeros((P * M, 2 * L), dtype=rows.mat.dtype)
    padded[:, :L] = rows.mat
    block = _Block(padded.reshape(P, 2 * M * L), rows.q, rows.exact)
    shifts = np.arange(L, dtype=np.int64)
    phi = _periodic_table(block, block, shifts)
    # the zero rule scales with the code-row length L, not the padded 2ML
    violations, witness = _scan_block(phi, shifts, rows, peak=L * M, pair_major=True)
    return CccReport(
        P=P,
        M=M,
        L=L,
        passed=not violations and P == M,
        is_complete=P == M,
        violations=violations,
        witness=witness,
    )


class SpectrumCapError(ValueError):
    """Requested spectrum exceeds the configured cell cap."""


@dataclass(frozen=True)
class SpectrumTable:
    """Dense periodic-correlation table phi[(u, i, j)] for one sequence set."""

    K: int
    L: int
    q: int
    exact: bool
    re: np.ndarray
    im: np.ndarray

    def value(self, i: int, j: int, u: int) -> complex:
        return complex(self.re[u, i, j], self.im[u, i, j])

    def write_csv(self, path) -> None:
        """One row per (i, j, u), i slowest, CRLF-ended as the ``csv`` module
        writes them: int64 tables write ints and float64 tables ``repr``
        floats (``str(float) == repr(float)``).  Rows are formatted one
        ``pair_i`` block at a time."""
        n = self.K * self.L
        j, u = np.indices((self.K, self.L)).reshape(2, -1)
        pair = np.hstack([_csv_fields(j, b","), _csv_fields(u, b",")])
        with open(path, "wb") as fh:
            fh.write(b"pair_i,pair_j,shift,re,im\r\n")
            for i in range(self.K):
                lead = np.frombuffer(b"%d," % i, np.uint8)
                rows = np.hstack([
                    np.broadcast_to(lead, (n, lead.size)),
                    pair,
                    _csv_fields(self.re[:, i, :].T, b","),
                    _csv_fields(self.im[:, i, :].T, b"\r\n"),
                ])
                fh.write(rows[rows != 0].tobytes())


def _csv_fields(values: np.ndarray, end: bytes) -> np.ndarray:
    """``str(v) + end`` for every entry of ``values`` (in C order) as the
    rows of a NUL-padded uint8 table.  Each distinct bit pattern is
    formatted once, so -0.0 and 0.0 keep their own text."""
    flat = np.ascontiguousarray(values).reshape(-1)
    keys, inverse = np.unique(flat.view(f"u{flat.itemsize}"), return_inverse=True)
    table = np.array([str(v).encode() + end for v in keys.view(flat.dtype).tolist()])
    return table[inverse.reshape(-1)].view(np.uint8).reshape(flat.size, -1)


def correlation_spectrum(seqs, max_cells: int = DEFAULT_SPECTRUM_CELL_CAP) -> SpectrumTable:
    """All-pairs, all-shifts periodic correlation table.

    Refuses to allocate more than ``max_cells`` table entries (K * K * L).
    """
    block = _stack(seqs)
    cells = block.K * block.K * block.L
    if cells > max_cells:
        raise SpectrumCapError(
            f"spectrum needs {cells} cells, cap is {max_cells}; raise max_cells to override"
        )
    shifts = np.arange(block.L, dtype=np.int64)
    phi = _periodic_table(block, block, shifts)
    dtype = np.int64 if block.exact else np.float64
    re = phi.real.astype(dtype, copy=False)
    if np.iscomplexobj(phi):
        im = phi.imag.astype(dtype)
    else:  # a read-only zero view, not a second table
        im = np.broadcast_to(re.dtype.type(0), re.shape)
    return SpectrumTable(K=block.K, L=block.L, q=block.q, exact=block.exact, re=re, im=im)
