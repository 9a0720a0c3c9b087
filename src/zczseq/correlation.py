"""Exact correlation computation and brute-force zone certification.

Aperiodic correlation follows the sliding-window convention

    accf(a, b)(u) = sum_{i=0}^{L-1-u} a_i * conj(b_{i+u}),   0 <= u <= L,

with the mirrored sum for negative u and accf(.)(+-L) = 0 (empty sum).
Periodic correlation is assembled from two aperiodic terms:

    pccf(a, b)(u) = accf(a, b)(u) + conj(accf(b, a)(L - u)).

Zero rule.  A correlation value alpha lies in Z[omega_q], and its Galois
conjugate sigma_j(alpha), j a unit mod q, is the same correlation with
every exponent multiplied by j.  Every verdict, the zone scans and
``check_chunk_decomposition`` (one array over a cell's shifts) alike, reads
one table per unit in ``conjugates(q)`` and decides zero by ``is_zero``,
exactly for every even q; witness values are the sigma_1 values.

Whole sets go through one batch kernel, ``_periodic_table``: a family
holds its union as one stack of exponents (``_Stack``), and any other set
is stacked once; a stack is gathered per conjugate into one matrix from
the roots of unity permuted by j; one GEMM per block of shifts.  Binary
stacks (``gbf._is_binary``) compute as q = 2: real, at unit 1 alone.

Path rule.  ``_family_table`` alone picks the kernel of every table that
``certify_family`` scans and ``spectrum`` writes: a family whose exponents
split into the construction's two layers (``_split``, checked on every
exponent for every q) takes the chunk fold, ``_folded_table``; any other
(a corrupted chip, unequal sets, random sequences) takes the GEMM.  With
S sets of K sequences of length L = C * P (C = 2K chunks of P chips), the
GEMM costs S^2 K^2 L multiply-adds per shift and the fold S^2 L + S^2 K P
+ S^2 K^2 R, R = K bins of the Walsh characters in the fold (R = P when
the positions do not bin evenly); inexact tables differ only by rounding.

Budget rule.  Every kernel walks its shifts in blocks, and ``is_zero``
its tables in blocks along the leading axis; each sizes a block so that
all of its temporaries, counted per shift, fit ``_SHIFT_BLOCK_BYTES``
(512 KiB, a cache-sized block).  The tables themselves are not counted.

Binary rows, and all rows for q = 4, make every float product here exact:
entries and products are Gaussian integers with components in {-1, 0, 1},
and every partial sum is an integer of magnitude at most twice the row
length N (the fold's at most 2L).  So exact matrices are
float32/complex64 while 2N < 2**24 and float64/complex128 beyond, others
always float64/complex128, and each kernel returns its table in that
dtype, real for real matrices.  ``accf`` and ``pccf`` return Python
complex numbers, exact integers in those cases; for two binary sequences
``accf`` counts sign bits.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .gbf import UnimodularSequence, _is_binary, roots_of_unity

__all__ = [
    "Violation",
    "ZczCertificate",
    "InterSetReport",
    "CccReport",
    "SpectrumTable",
    "SpectrumCapError",
    "accf",
    "pccf",
    "conjugates",
    "is_zero",
    "verify_ccc",
    "verify_zcz",
    "verify_inter_zccz",
    "certify_family",
    "performance_parameter",
    "correlation_spectrum",
]

# The most conjugate tables one verdict may compute.
CONJUGATE_BUDGET = 8
DEFAULT_SPECTRUM_CELL_CAP = 1 << 24


def accf(a: UnimodularSequence, b: UnimodularSequence, u: int) -> complex:
    """Aperiodic cross-correlation of a against b at shift u (|u| <= L), from the
    record (L, q, roots) each sequence keeps (``UnimodularSequence._root_vectors``).
    Binary roots are sign bits: the n = L - |u| overlapping chips agree where the
    shifted bits' XOR is 0, so the sum is the exact integer n - 2 * popcount.  Any
    other pair, a mixed one included, is one dot of a's values with b's conjugates."""
    L, q, sa = a._root_vectors
    Lb, qb, sb = b._root_vectors
    if Lb != L:
        raise ValueError(f"length mismatch: {L} vs {Lb}")
    if qb != q:
        raise ValueError(f"modulus mismatch: q={q} vs q={qb}")
    u = operator.index(u)  # a numpy integer would overflow the shifts
    if not -L <= u <= L:
        raise ValueError(f"shift {u} outside [-{L}, {L}]")
    if type(sa) is int and type(sb) is int:
        n = L - abs(u)
        x = sa ^ (sb >> u) if u >= 0 else (sa >> -u) ^ sb
        return n - 2 * (x & ((1 << n) - 1)).bit_count() + 0j  # complex(), one call less
    va = a.values() if type(sa) is int else sa[0]
    cb = b.values().conj() if type(sb) is int else sb[1]
    if u >= 0:
        return complex(va[: L - u].dot(cb[u:]))
    return complex(va[-u:].dot(cb[: L + u]))


def pccf(a: UnimodularSequence, b: UnimodularSequence, u: int) -> complex:
    """Periodic cross-correlation at shift u, 0 <= u < L, from two
    ``accf`` calls."""
    L = a._root_vectors[0]
    if not 0 <= u < L:
        raise ValueError(f"periodic shift {u} outside [0, {L})")
    return accf(a, b, u) + accf(b, a, L - u).conjugate()


@functools.lru_cache(maxsize=16)
def conjugates(q: int) -> tuple[int, ...]:
    """The units j mod q, one per pair {j, -j}, that every verdict reads: (1,)
    for even q <= 6, 2 for q = 8, 10, 12, 4 for q = 16; at most ``CONJUGATE_BUDGET``."""
    units = tuple(j for j in range(1, q // 2 + 1) if math.gcd(j, q) == 1) or (1,)
    if len(units) > CONJUGATE_BUDGET:
        raise ValueError(f"q={q} needs {len(units)} conjugate tables per verdict,"
                         f" over the budget of {CONJUGATE_BUDGET}")
    return units


def is_zero(values):
    """The zero rule of every verdict: alpha is zero iff every conjugate in
    ``values`` (sigma_j(alpha) for each j in ``conjugates(q)``: numbers, or
    equal-shape arrays elementwise) has |re| + |im| < 1/2.  Sound: the norm
    of a nonzero alpha, the product of all its conjugates, is a nonzero
    integer, and sigma_{-j} = conj(sigma_j), so some listed conjugate is at
    least 1.  A zero value that sums N roots of unity computes to within
    about N**2 * 2**-53 of zero (to 0 exactly for exact tables).

    Arrays are decided in blocks along their leading axis, at most
    ``_SHIFT_BLOCK_BYTES`` of each at a time, into one bool array."""
    values = list(values)
    if not isinstance(values[0], np.ndarray) or values[0].ndim == 0:
        return _all_below_half(values)
    zero = np.empty(values[0].shape, dtype=bool)
    step = max(1, _SHIFT_BLOCK_BYTES // max(1, values[0][:1].nbytes))
    for lo in range(0, len(zero), step):
        zero[lo : lo + step] = _all_below_half([v[lo : lo + step] for v in values])
    return zero


def _all_below_half(values):
    """|re| + |im| < 1/2 for every value, elementwise for arrays."""
    zero = None
    for value in values:
        dev = abs(value.real)
        # the imaginary part of a real array would be a fresh array of zeros
        if isinstance(value, complex) or np.iscomplexobj(value):
            dev += abs(value.imag)
        zero = dev < 0.5 if zero is None else zero & (dev < 0.5)
    return zero


def _conjugate(seqs, unit: int):
    """sigma_unit of a sequence, or of each in nested tuples: every exponent
    multiplied by ``unit`` mod q.  A sequence is immutable, so it keeps each
    conjugate once built: ``--deep`` reads each sequence and code row in many cells."""
    if isinstance(seqs, UnimodularSequence):
        built = seqs.__dict__.setdefault("_conjugates", {})
        if unit not in built:
            built[unit] = UnimodularSequence(seqs.q, seqs.exponents.astype(np.int64) * unit % seqs.q)
        return built[unit]
    return tuple(_conjugate(z, unit) for z in seqs)


# ---------------------------------------------------------------------------
# batch engine: stacked periodic correlations for whole sets at once

# Every temporary of one block of shifts (or of table rows in ``is_zero``).
_SHIFT_BLOCK_BYTES = 512 << 10
# float32 holds every integer of magnitude up to 2**24 exactly.
_SINGLE_EXACT_LIMIT = 1 << 24


def _kernel_dtype(is_complex, exact, N):
    """Storage for rows of length N: single precision when the rows are
    exact and every partial sum (|s| <= 2N) stays below 2**24."""
    single = exact and 2 * N < _SINGLE_EXACT_LIMIT
    if is_complex:
        return np.dtype(np.complex64 if single else np.complex128)
    return np.dtype(np.float32 if single else np.float64)


class _Stack(NamedTuple):
    """K rows of q-th roots of unity, held as (K, L) exponents in the
    sequences' dtype, which holds the sum of two; ``real`` when binary, as
    ``_as_stack`` finds it.  Rows taken from it keep its path, not its label."""

    exps: np.ndarray
    q: int
    real: bool

    K = property(lambda self: self.exps.shape[0])
    L = property(lambda self: self.exps.shape[1])
    exact = property(lambda self: self.real or self.q == 4)
    units = property(lambda self: (1,) if self.real else conjugates(self.q))
    binary = property(lambda self: self.real or _as_stack(self.exps, self.q).real)

    def rows(self, sl) -> "_Stack":
        return self._replace(exps=self.exps[sl])

    def roots(self, unit: int = 1) -> np.ndarray:
        """omega^(unit * e) at index e, in these rows' ``_kernel_dtype``."""
        roots = roots_of_unity(self.q)[np.arange(self.q) * unit % self.q]
        if self.real:
            roots = roots.real
        return roots.astype(_kernel_dtype(not self.real, self.exact, self.L))

    def matrix(self, unit: int = 1) -> np.ndarray:
        """sigma_unit of the rows as one matrix for the kernels."""
        return self.roots(unit).take(self.exps)


def _as_stack(exps: np.ndarray, q: int) -> _Stack:
    """(K, L) exponents as a stack, not copied but made read-only, so that
    a ``UnimodularSequence`` of a row is a view of it; real when binary."""
    exps.flags.writeable = False
    # blocks of rows whose two temporaries fit _SHIFT_BLOCK_BYTES
    step = max(1, _SHIFT_BLOCK_BYTES // max(1, 2 * exps[:1].nbytes))
    blocks = (exps[lo : lo + step] for lo in range(0, len(exps), step))
    return _Stack(exps, q, all(_is_binary(q, block) for block in blocks))


def _stack(seqs) -> _Stack:
    """A sequence set as one stack, or a stack as it is; the sequences must
    share q and L."""
    if isinstance(seqs, _Stack):
        return seqs
    seqs = list(seqs)
    if not seqs:
        raise ValueError("empty sequence set")
    q, L = seqs[0].q, len(seqs[0])
    for z in seqs:
        if z.q != q:
            raise ValueError("sequences must share one modulus")
        if len(z) != L:
            raise ValueError("sequences must share one length")
    return _as_stack(np.stack([z.exponents for z in seqs]), q)


def _periodic_table(A: np.ndarray, B: np.ndarray, shifts) -> np.ndarray:
    """phi[u_idx, i, j] = sum_t A_i[t] * conj(B_j[(t + u) mod L]).

    Shifts are taken in blocks; each block stacks its cyclically shifted B
    rows into one contiguous matrix and costs one GEMM, and its temporaries
    (the rows and the product) fit ``_SHIFT_BLOCK_BYTES``.  The table is one
    array in the matrices' dtype: real when both matrices are real.
    """
    shifts = np.asarray(shifts, dtype=np.int64)
    (KA, L), KB = A.shape, B.shape[0]
    if np.any((shifts < 0) | (shifts >= L)):
        raise ValueError("periodic shifts must lie in [0, L)")
    ext = np.concatenate([B, B[:, : int(shifts.max(initial=0))]], axis=1).conj()
    # rows[u, j] is B_j cyclically shifted left by u (a view, no copy)
    rows = np.lib.stride_tricks.sliding_window_view(ext, L, axis=1).transpose(1, 0, 2)
    phi = np.empty((shifts.size, KA, KB), dtype=np.result_type(A, ext))
    # a shift's temporaries: its KB gathered rows and its KA x KB product
    step = max(1, _SHIFT_BLOCK_BYTES // (KB * L * ext.itemsize + KA * KB * phi.itemsize))
    for lo in range(0, shifts.size, step):
        part = shifts[lo : lo + step]
        W = rows[part].reshape(-1, L)
        phi[lo : lo + part.size] = (A @ W.T).reshape(KA, part.size, KB).transpose(1, 0, 2)
    return phi


class _Fold(NamedTuple):
    """A family whose union row (t1, t2) is z0 * X[t1] * Y[t2]: with
    t = c * P + p, z0[c, p] is common to every row, X[t1, c] depends on the
    chunk c only and Y[t2, p] on the position p within the chunk only.
    ``_split`` returns the factors as exponents mod q, with X[0] and Y[0]
    all zero; ``gather`` turns them into roots.

    The positions fall into R bins of P / R positions each, listed bin by
    bin in ``order``; every position of bin r has the column H[:, r] of Y.
    For a constructed family each row of Y is a Walsh character of a few
    position bits, so R = K; otherwise the bins may be the P positions
    themselves (R = P)."""

    z0: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    H: np.ndarray
    order: np.ndarray

    def gather(self, roots) -> "_Fold":
        z0, X, Y, H = (roots.take(f) for f in self[:4])
        return _Fold(z0, X, Y, H, self.order)


def _split(stack: _Stack, sizes) -> _Fold | None:
    """The chunk fold of a stacked family, as exponents, when every exponent
    is z0 + X[t1] + Y[t2] mod q (P = L / (2K) for S sets of K sequences),
    checked in O(K_u * L) in the stack's dtype; None for unequal set sizes,
    a length not a multiple of 2K, or any exponent off the split.  The bins
    are the classes of equal columns of Y when they are all of one size,
    and single positions otherwise."""
    K, q = sizes[0], stack.q
    if any(n != K for n in sizes) or stack.L % (2 * K):
        return None
    def mod_q(x):
        # for 0 <= x < 2q: x - q wraps around to above x unless x >= q
        return np.minimum(x, x - q)

    rows = stack.exps.reshape(len(sizes), K, 2 * K, stack.L // (2 * K))
    z0 = rows[0, 0]
    Y = mod_q(rows[0, :, 0, :] + (q - z0[0]))
    X = mod_q(rows[:, 0, :, 0] + (q - z0[:, 0]))
    common = mod_q(z0 + Y[:, None, :])
    if not all(np.array_equal(mod_q(common + X[n][:, None]), rows[n]) for n in range(len(sizes))):
        return None
    P = Y.shape[1]
    _, inverse = np.unique(Y, axis=1, return_inverse=True)
    inverse = inverse.reshape(-1)
    counts = np.bincount(inverse)
    equal = (counts == counts[0]).all()
    order = np.argsort(inverse, kind="stable") if equal else np.arange(P)
    R = counts.size if equal else P
    return _Fold(z0, X, Y, Y[:, order[:: P // R]], order)


def _folded_table(fold: _Fold, shifts, diagonal: bool = False) -> np.ndarray:
    """The union table of a split family, as ``_periodic_table`` returns it.

    For a shift u = uc * P + up, with carry(p) = [p + up >= P]:

        V[c, p]       = z0[c, p] * conj(z0 at t + u)
        G[a1, b1, p]  = sum_c X[a1, c] * V[c, p] * conj(X[b1, c + uc + carry(p)])
        F[r, a1, b1, b2]
                      = sum_{p in bin r} G[a1, b1, p] * conj(Y[b2, (p + up) mod P])
        phi(u)[(a1, a2), (b1, b2)]
                      = sum_r H[a2, r] * F[r, a1, b1, b2]

    since Y[a2, p] = H[a2, r] for every p in bin r.  G is one small GEMM per
    carry value, F one GEMM per bin and phi one GEMM of K x R by R x S^2 K,
    so a shift costs S^2 L + S^2 K P + S^2 K^2 R multiply-adds (R = K for a
    constructed family) instead of S^2 K^2 L.  Every partial sum has
    components of magnitude at most 2L, as in the GEMM, so exact tables
    stay exact.  Shifts are walked in blocks whose temporaries, all of them
    counted per shift, fit ``_SHIFT_BLOCK_BYTES``.

    With ``diagonal``, only the set pairs a1 = b1 are formed: the tables
    come as (shifts, S, K, K), set n's own table at ``[:, n]``, from one
    V and one rolled Y per shift block for all S sets.
    """
    shifts = np.asarray(shifts, dtype=np.int64)
    z0, X, Y, H, order = fold
    S, C = X.shape
    (K, P), R = Y.shape, H.shape[1]
    L = C * P
    z0 = z0.ravel()
    ext = np.concatenate([z0, z0[: int(shifts.max(initial=0))]]).conj()
    rows = np.lib.stride_tricks.sliding_window_view(ext, L)  # rows[u] = z0 shifted by u
    a1, b1 = (np.arange(S),) * 2 if diagonal else np.divmod(np.arange(S * S), S)
    n = a1.size
    # W[d, (a1, b1), c] = X[a1, c] * conj(X[b1, c + d]), c + d wrapped, for
    # every chunk offset d = uc + carry the shifts reach
    d = np.arange(int(shifts.max(initial=0)) // P + 2)
    Xb = np.concatenate([X, X], axis=1).conj()[b1]
    W = X[a1] * Xb[:, np.arange(C) + d[:, None]].transpose(1, 0, 2)
    # conj(Y) by position, twice over, so that rows order + up are Y rolled by up
    Yc = np.concatenate([Y.T, Y.T]).conj()
    p = np.arange(P)
    shape = (S, K, K) if diagonal else (S, K, S, K)
    phi = np.empty((shifts.size, *shape), dtype=z0.dtype)
    # a shift's temporaries: V and its gather, two W, the two G and G
    # binned, rolled Y, F and the block, plus rolled Y's indices
    items = 2 * L + 2 * n * C + 3 * n * P + K * P + n * K * (R + K)
    step = max(1, _SHIFT_BLOCK_BYTES // (z0.itemsize * items + 8 * P))
    for lo in range(0, shifts.size, step):
        part = shifts[lo : lo + step]
        uc, up = np.divmod(part, P)
        V = (z0 * rows[part]).reshape(-1, C, P)
        G = W[uc] @ V
        np.copyto(G, W[uc + 1] @ V, where=p >= (P - up)[:, None, None])
        G = G[:, :, order].reshape(-1, n, R, P // R).transpose(0, 2, 1, 3)
        F = G @ Yc[order + up[:, None]].reshape(-1, R, P // R, K)
        block = (H @ F.reshape(-1, R, n * K)).reshape(-1, K, n, K)
        if diagonal:
            block = block.transpose(0, 2, 1, 3)
        else:
            block = block.reshape(-1, K, S, S, K).transpose(0, 2, 1, 3, 4)
        phi[lo : lo + part.size] = block
    return phi if diagonal else phi.reshape(shifts.size, S * K, S * K)


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


def _scan_block(phis, shifts, exact: bool, peak, pair_major=False):
    """Collect zone violations from one periodic-correlation table, given
    as its conjugate tables ``phis`` (sigma_1's, first, gives the values).

    Every entry must be zero except phi(i,i)(0), which must equal ``peak``
    (a ``peak`` of 0 demands zero there too).  Returns the worst violation
    per ordered pair (the first in scan order wins ties), pairs sorted, and
    the first violation in scan order: shift-major, then i, then j; or,
    with ``pair_major``, i, then j, then shift.
    """
    zero = is_zero(phis)
    phi = phis[0]
    if peak:
        diag = np.arange(phi.shape[1])
        for u_idx in np.flatnonzero(shifts == 0):
            zero[u_idx, diag, diag] = is_zero([c[u_idx, diag, diag] - peak for c in phis])
    if zero.all():  # the common case: one reduction, no scan
        return (), None
    bad = np.argwhere(np.logical_not(zero, out=zero))  # in place: no second bool table
    u_idx, i, j = bad.T
    vals = phi[u_idx, i, j]
    dtype = np.int64 if exact else np.float64
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


def _zcz_certificate(stack: _Stack, Z: int, phis) -> ZczCertificate:
    """Scan the conjugate self tables of ``stack`` into a certificate."""
    shifts = np.arange(Z + 1, dtype=np.int64)
    violations, witness = _scan_block(phis, shifts, stack.exact, peak=stack.L)
    binary = stack.binary
    rho, classification = performance_parameter(stack.K, Z, stack.L, binary=binary)
    return ZczCertificate(
        K=stack.K,
        Z=Z,
        L=stack.L,
        q=stack.q,
        passed=not violations,
        rho=rho,
        classification=classification,
        formula="binary" if binary else "general",
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
    stack = _stack(seqs)
    _check_zone(Z, stack.L)
    shifts = np.arange(Z + 1, dtype=np.int64)
    mats = map(stack.matrix, stack.units)
    return _zcz_certificate(stack, Z, [_periodic_table(m, m, shifts) for m in mats])


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


def _inter_report(stack: _Stack, Zc: int, forward, reverse) -> InterSetReport:
    """Scan the conjugate tables of A against B (``forward``) and of B against
    A (``reverse``) at shifts 0..Zc into one report; ``stack`` gives L and q."""
    shifts = np.arange(Zc + 1, dtype=np.int64)
    collected = []
    for phis, sign in ((forward, 1), (reverse, -1)):
        vio, _ = _scan_block(phis, shifts, stack.exact, peak=0)
        if sign < 0:
            # shift-0 entries mirror the forward orientation; drop duplicates
            vio = tuple(
                Violation(v.j, v.i, -v.shift, v.re, -v.im) for v in vio if v.shift != 0
            )
        collected.extend(vio)
    witness = collected[0] if collected else None
    return InterSetReport(
        Zc=Zc,
        L=stack.L,
        q=stack.q,
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
    if A.real != B.real:  # one path for both: a binary set meets the other on the complex one
        A, B = A._replace(real=False), B._replace(real=False)
    shifts = np.arange(Zc + 1, dtype=np.int64)
    pairs = [(A.matrix(u), B.matrix(u)) for u in A.units]
    forward = [_periodic_table(a, b, shifts) for a, b in pairs]
    return _inter_report(A, Zc, forward, [_periodic_table(b, a, shifts) for a, b in pairs])


def _check_sizes(sizes, K: int) -> None:
    """The one rule for the set sizes of a union of K rows: positive counts
    that add up to K."""
    if min(sizes, default=0) < 1 or sum(sizes) != K:
        raise ValueError(f"set sizes {tuple(sizes)} are not positive counts"
                         f" that add up to the union's K = {K}")


def _family_table(union: _Stack, sizes):
    """``(table, rows)`` of the sets stacked in ``union``, ``sizes[n]`` rows in
    set n: ``table(unit, shifts)`` is sigma_unit's union table (with ``own``,
    each set's own), ``rows[n]`` slices set n; it alone applies the path rule."""
    _check_sizes(sizes, union.K)
    rows = [slice(lo, lo + n) for lo, n in zip(np.cumsum([0, *sizes]), sizes)]
    fold = _split(union, sizes)

    def table(unit, shifts, own=False):
        if fold is not None:
            phi = _folded_table(fold.gather(union.roots(unit)), shifts, diagonal=own)
            return [phi[:, n] for n in range(len(sizes))] if own else phi
        if own:
            mats = (union.rows(sl).matrix(unit) for sl in rows)
            return [_periodic_table(m, m, shifts) for m in mats]
        mat = union.matrix(unit)
        return _periodic_table(mat, mat, shifts)

    return table, rows


def certify_family(union: _Stack, sizes, Z: int, Zc: int):
    """Every certificate of a multiple-ZCZ family from one union table.

    ``union`` stacks every sequence, set after set, and ``sizes[n]`` is the
    number of sequences in set n, as ``MultipleZczFamily`` holds them.
    Returns ``(set_certs, inter, union_cert)``: ``verify_zcz(set, Z)`` for
    each set, a dict mapping each pair (a, b) with a < b to
    ``verify_inter_zccz(set a, set b, Zc)``, and ``verify_zcz`` of all
    sequences at zone Zc, equal to those calls in every field.

    The union's table at shifts 0..Zc holds every inter-set correlation (in
    both orientations) and every per-set one up to shift min(Z, Zc) as a
    slice; only shifts Zc+1..Z of each set need one more kernel call, or
    one diagonal call for all sets when the family splits.
    """
    _check_zone(Z, union.L)
    _check_zone(Zc, union.L)
    table, rows = _family_table(union, sizes)
    # each set's shifts Zc+1..Z before the union table, so that the table
    # is never held while these calls run: this keeps the peak memory low
    high = np.arange(Zc + 1, Z + 1, dtype=np.int64)
    extra = [table(u, high, own=True) for u in union.units] if Z > Zc else []
    low = np.arange(Zc + 1, dtype=np.int64)
    phis = [table(u, low) for u in union.units]
    set_certs = []
    for n, sl in enumerate(rows):
        own = [phi[: min(Z, Zc) + 1, sl, sl] for phi in phis]
        if extra:
            own = [np.concatenate([o, e[n]]) for o, e in zip(own, extra)]
        set_certs.append(_zcz_certificate(union.rows(sl), Z, own))
    del extra, own  # no set table is held while the union table is scanned
    inter = {}
    for a, b in itertools.combinations(range(len(rows)), 2):
        sa, sb = rows[a], rows[b]
        inter[a, b] = _inter_report(
            union, Zc, [phi[:, sa, sb] for phi in phis], [phi[:, sb, sa] for phi in phis]
        )
    return set_certs, inter, _zcz_certificate(union, Zc, phis)


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
    shifts = np.arange(L, dtype=np.int64)
    dtype = _kernel_dtype(not rows.real, rows.exact, 2 * M * L)  # rows of length 2ML
    phis = []
    for unit in rows.units:
        padded = np.zeros((P * M, 2 * L), dtype=dtype)
        padded[:, :L] = rows.matrix(unit)
        padded = padded.reshape(P, 2 * M * L)
        phis.append(_periodic_table(padded, padded, shifts))
    violations, witness = _scan_block(phis, shifts, rows.exact, peak=L * M, pair_major=True)
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
    """Dense periodic-correlation table phi[u, i, j] of a sequence family, as
    its kernel returns it: exact tables hold integers in floats."""

    phi: np.ndarray
    exact: bool

    L = property(lambda self: self.phi.shape[0])
    K = property(lambda self: self.phi.shape[1])

    def write_csv(self, path) -> None:
        """One row per (i, j, u), i slowest, CRLF-ended as the ``csv`` module
        writes them: ints for exact tables, ``repr`` floats otherwise.  Each
        ``pair_i`` block fills one reused record array of NUL-padded text
        fields (``pair_j`` and ``shift`` filled once), less its NULs."""
        phi, exact = self.phi, self.exact
        # a real table's imaginary part: a read-only zero view, not a second table
        im = phi.imag if np.iscomplexobj(phi) else np.broadcast_to(phi.dtype.type(0), phi.shape)
        cols = {"re": _csv_texts(phi.real, exact, b","), "im": _csv_texts(im, exact, b"\r\n")}
        pairs, shifts = (np.array([b"%d," % v for v in range(n)]) for n in (self.K, self.L))
        fields = [("i", pairs.dtype), ("j", pairs.dtype), ("u", shifts.dtype)]
        rec = np.empty((self.K, self.L), fields + [(n, d) for n, (d, _) in cols.items()])
        rec["j"], rec["u"] = pairs[:, None], shifts
        with open(path, "wb") as fh:
            fh.write(b"pair_i,pair_j,shift,re,im\r\n")
            for i in range(self.K):
                rec["i"] = pairs[i]
                for name, (_, texts) in cols.items():
                    rec[name] = texts(i)
                fh.write(rec.tobytes().translate(None, b"\0"))


def _csv_texts(values: np.ndarray, exact: bool, end: bytes):
    """``(dtype, texts)``: ``texts(i)`` is ``str(v) + end`` of each entry of the
    ``pair_i`` block i of an (L, K, K) table, NUL-padded to ``dtype``.  Exact
    tables format the range [min, max] within [-L, L] once and index it by
    v - min; others format each distinct float64 bit pattern of a block (so
    -0.0 keeps its sign) into fields as wide as the longest float repr, 24 characters."""
    if exact:
        lo, hi, L = int(values.min()), int(values.max()), len(values)
        if lo < -L or hi > L:
            raise ValueError(f"exact table entries [{lo}, {hi}] outside [-{L}, {L}]")
        table = np.array([b"%d%s" % (v, end) for v in range(lo, hi + 1)])
        if lo == hi:  # one value: the same text in every block, assigned without a gather
            return table.dtype, lambda _: table[0]
        return table.dtype, lambda i: table.take((values[:, i].T - lo).astype(np.intp))

    def texts(i):
        bits = values[:, i].T.view(np.uint64)
        keys = np.sort(bits, axis=None)
        keys = keys[np.r_[True, keys[1:] != keys[:-1]]]  # as np.unique, without its hashing
        table = np.array([str(v).encode() + end for v in keys.view(np.float64).tolist()])
        return table.take(np.searchsorted(keys, bits))

    return np.dtype(f"S{24 + len(end)}"), texts


def correlation_spectrum(seqs, sizes=None, max_cells=DEFAULT_SPECTRUM_CELL_CAP) -> SpectrumTable:
    """All-pairs, all-shifts periodic correlation table of ``seqs`` (a stack or
    sequences) in sets of ``sizes`` (one set by default), as ``certify_family``
    computes it.  Refuses to allocate more than ``max_cells`` entries (K * K * L)."""
    stack = _stack(seqs)
    cells = stack.K * stack.K * stack.L
    if cells > max_cells:
        raise SpectrumCapError(f"spectrum needs {cells} cells, cap is {max_cells}")
    table, _ = _family_table(stack, (stack.K,) if sizes is None else sizes)
    return SpectrumTable(table(1, np.arange(stack.L)), stack.exact)
