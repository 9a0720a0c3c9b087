"""Direct construction of multiple ZCZ sequence families from quadratic
generalized Boolean functions.

The machinery has three layers:

* a base function ``f`` over m variables whose restrictions onto the J
  variables collapse to one fixed path (checked by
  :func:`zczseq.gbf.validate_restricted_path_form`);
* complementary-code families: for family index t1 and code index t2 the
  code rows are psi(f + (q/2) * (row-dependent linear terms)), giving 2^s
  mutually orthogonal collections whose cross-family code correlations
  vanish inside a zone;
* a seed function ``h`` over k+2 extra variables that welds the code rows
  into 2^s sequence sets of length 2^{m+k+2}: sequence (t1, t2) is psi of
  f + h + (q/2) * (coupling terms), and its chunk c of length 2^m equals
  row (c mod 2^{k+1}) of code (t1, t2) phased by omega^{(q/2) h_c}.  That
  identity is how :func:`build_multiple_zcz` builds the family: it copies
  the code table of :func:`_code_table` into every chunk and adds q/2
  where the seed's truth table is 1.

Sequence/row orderings are pinned: t2 = sum b_beta 2^beta over the code
bits, t1 over the family bits, and row nu = d * 2^k + sum d_beta 2^beta.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, correlation
from .gbf import (
    GeneralizedBooleanFunction,
    UnimodularSequence,
    _vertex_layout,
    psi,
    validate_restricted_path_form,
)

__all__ = [
    "HCoeffs",
    "seed_polynomial",
    "CancellationReport",
    "check_seed_cancellation",
    "ConstructionParams",
    "default_params",
    "example1_params",
    "path_gbf",
    "build_ccc_family",
    "MultipleZczFamily",
    "build_multiple_zcz",
    "ChunkDecompositionReport",
    "check_chunk_decomposition",
    "export_family",
    "load_family",
    "LoadedFamily",
    "MAX_MODULUS",
]

# The largest modulus a family may use: construct refuses a larger q and
# load_family a sequence file declaring one.
MAX_MODULUS = 1 << 16


@dataclass(frozen=True)
class HCoeffs:
    """Binary coefficients of the seed function for a given k.

    c[r-1] is the coefficient of x_{m+r} x_m for r = 1..k+1 (the last one
    must be 1), ``d_pairs`` lists the (mu, nu) with 1 <= mu < nu <= k whose
    cross term x_{m+mu} x_{m+nu} is present, e[alpha] is the linear
    coefficient of x_{m+alpha} for alpha = 0..k+1, and ``e_prime`` is the
    constant term.
    """

    c: tuple[int, ...]
    d_pairs: tuple[tuple[int, int], ...] = ()
    e: tuple[int, ...] = ()
    e_prime: int = 0

    def __post_init__(self):
        if not self.c:
            raise ValueError("c must hold at least one coefficient")
        k = len(self.c) - 1
        if any(b not in (0, 1) for b in self.c):
            raise ValueError(f"c must be binary, got {self.c}")
        if self.c[-1] != 1:
            raise ValueError("the top coupling coefficient c_{k+1} must be 1")
        pairs = tuple(sorted((int(a), int(b)) for a, b in self.d_pairs))
        if len(set(pairs)) != len(pairs):
            raise ValueError(f"duplicate cross-term pairs in {pairs}")
        for mu, nu in pairs:
            if not 1 <= mu < nu <= k:
                raise ValueError(f"cross-term pair ({mu},{nu}) outside 1 <= mu < nu <= {k}")
        object.__setattr__(self, "d_pairs", pairs)
        e = tuple(int(b) for b in self.e) if self.e else (0,) * (k + 2)
        if len(e) != k + 2 or any(b not in (0, 1) for b in e):
            raise ValueError(f"e must hold {k + 2} bits, got {self.e}")
        object.__setattr__(self, "e", e)
        if self.e_prime not in (0, 1):
            raise ValueError(f"e_prime must be binary, got {self.e_prime}")

    @property
    def k(self) -> int:
        return len(self.c) - 1

    @classmethod
    def default(cls, k: int) -> "HCoeffs":
        if k < 0:
            raise ValueError(f"k must be nonnegative, got {k}")
        return cls(c=(0,) * k + (1,))

    def to_json_dict(self) -> dict:
        return {
            "c": list(self.c),
            "d_pairs": [list(p) for p in self.d_pairs],
            "e": list(self.e),
            "e_prime": self.e_prime,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "HCoeffs":
        return cls(
            c=tuple(data["c"]),
            d_pairs=tuple(tuple(p) for p in data.get("d_pairs", [])),
            e=tuple(data.get("e", [])),
            e_prime=int(data.get("e_prime", 0)),
        )


def _check_seed_k(c, k: int) -> None:
    """A seed for a given k holds k + 1 coefficients c.  Compared before
    ``HCoeffs`` reads its cross terms and linear bits against len(c) - 1,
    so a short c is reported as such, not as a bad d_pairs or e."""
    if len(c) - 1 != k:
        raise ValueError(f"seed coefficients are for k={len(c) - 1}, expected {k}")


def seed_polynomial(coeffs: HCoeffs) -> GeneralizedBooleanFunction:
    """The seed function as a binary GBF over its own k+2 variables."""
    k = coeffs.k
    terms: dict[tuple[int, ...], int] = {}
    for r in range(1, k + 2):
        if coeffs.c[r - 1]:
            terms[(0, r)] = 1
    for mu, nu in coeffs.d_pairs:
        terms[(mu, nu)] = 1
    for alpha, bit in enumerate(coeffs.e):
        if bit:
            terms[(alpha,)] = 1
    if coeffs.e_prime:
        terms[()] = 1
    return GeneralizedBooleanFunction(2, k + 2, terms)


def _seed_signs(coeffs: HCoeffs) -> np.ndarray:
    """(-1)^{h_c} over the 2^{k+2} chunks."""
    return 1 - 2 * seed_polynomial(coeffs).truth_table()


def _half_shift_sums(sign: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The nonzero (nu, w_nu), w_nu = s_nu s_{nu+1} + s_{nu+l} s_{nu+1+l}
    for nu in [0, l), with l = len(sign) / 2 and subscripts mod len(sign):
    the seed cancellation failures and the chunk decomposition's boundary
    weights alike."""
    pair = sign * np.roll(sign, -1)
    l = len(sign) // 2
    return tuple((nu, int(w)) for nu, w in enumerate(pair[:l] + pair[l:]) if w)


@dataclass(frozen=True)
class CancellationReport:
    """Half-shift sign cancellation of a seed function's value vector.

    For every tau in [0, 2^{k+1}) the check requires

        (-1)^{h_tau + h_{tau+1}} + (-1)^{h_{tau+2^{k+1}} + h_{tau+1+2^{k+1}}} = 0

    with subscripts mod 2^{k+2}.  ``failures`` lists (tau, sum) pairs.
    """

    k: int
    passed: bool
    failures: tuple[tuple[int, int], ...]


def check_seed_cancellation(h: GeneralizedBooleanFunction) -> CancellationReport:
    """Exhaustively test the cancellation identity for a binary seed
    function over k+2 variables."""
    if h.q != 2:
        raise ValueError(f"seed cancellation is a binary identity, got q={h.q}")
    if h.m < 2:
        raise ValueError(f"seed function needs at least 2 variables, got {h.m}")
    failures = _half_shift_sums(1 - 2 * h.truth_table())
    return CancellationReport(k=h.m - 2, passed=not failures, failures=failures)


def path_gbf(q: int, m: int, k: int, s: int, J, pi) -> GeneralizedBooleanFunction:
    """Minimal valid base function: q/2 times the path on the free
    vertices in the order given by ``pi``."""
    _, _, path = _vertex_layout(m, k, s, J, pi)
    half = q // 2
    terms = {
        tuple(sorted((path[b], path[b + 1]))): half for b in range(len(path) - 1)
    }
    return GeneralizedBooleanFunction(q, m, terms)


@dataclass(frozen=True)
class ConstructionParams:
    """Validated inputs of the family construction.

    J is the ordered list of removable vertices (a (k-s)-subset of
    [0, m-s)), pi orders the path on the remaining free vertices, f is the
    base function and h the seed coefficients.  Construction raises with
    an actionable message whenever a constraint fails, including when some
    restriction of f does not collapse to the required path form.
    """

    q: int
    m: int
    k: int
    s: int
    J: tuple[int, ...]
    pi: tuple[int, ...]
    f: GeneralizedBooleanFunction
    h: HCoeffs

    def __post_init__(self):
        if self.q < 2 or self.q % 2 or self.q > MAX_MODULUS:
            raise ValueError(f"q must be even and in [2, {MAX_MODULUS}], got {self.q}")
        object.__setattr__(self, "J", tuple(self.J))
        object.__setattr__(self, "pi", tuple(self.pi))
        _check_seed_k(self.h.c, self.k)
        if self.f.q != self.q or self.f.m != self.m:
            raise ValueError(
                f"f must be over Z_{self.q} in {self.m} variables, got q={self.f.q}, m={self.f.m}"
            )
        report = validate_restricted_path_form(self.f, self.k, self.s, self.J, self.pi)
        if not report.passed:
            e, reason = report.violations[0]
            raise ValueError(
                f"f does not restrict to the required path form: at e={e}: {reason}"
            )

    # -- derived quantities -------------------------------------------------

    @functools.cached_property
    def _layout(self) -> tuple[tuple[int, ...], ...]:
        """(isolated, free vertices, path), from :func:`gbf._vertex_layout`."""
        return _vertex_layout(self.m, self.k, self.s, self.J, self.pi)

    @property
    def isolated(self) -> tuple[int, ...]:
        return self._layout[0]

    @property
    def free_vertices(self) -> tuple[int, ...]:
        return self._layout[1]

    @property
    def j_order(self) -> tuple[int, ...]:
        """The k coupling targets: J first, then the isolated vertices."""
        return self.J + self.isolated

    @property
    def path(self) -> tuple[int, ...]:
        return self._layout[2]

    @property
    def gamma1(self) -> int:
        return self.path[0]

    @property
    def gamma2(self) -> int:
        return self.path[-1]

    @property
    def n_vars(self) -> int:
        return self.m + self.k + 2

    @property
    def seq_length(self) -> int:
        return 1 << self.n_vars

    @property
    def set_size(self) -> int:
        return 1 << (self.k + 1)

    @property
    def num_sets(self) -> int:
        return 1 << self.s

    @property
    def zcz_width(self) -> int:
        return 1 << self.m

    @property
    def inter_zccz_width(self) -> int:
        # one set (s = 0) has no inter-set pair: the union is the set itself
        return self.zcz_width if self.s == 0 else (1 << (self.m - self.s)) - 1

    @property
    def union_size(self) -> int:
        return 1 << (self.k + self.s + 1)

    @functools.cached_property
    def _boundary_weights(self) -> tuple[tuple[int, int], ...]:
        """The nonzero boundary weights (nu, w_nu) of the chunk
        decomposition: the half-shift sums of :func:`_seed_signs`, held once
        per params object so that no check hashes the seed."""
        return _half_shift_sums(_seed_signs(self.h))

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "m": self.m,
            "k": self.k,
            "s": self.s,
            "J": list(self.J),
            "pi": list(self.pi),
            "f_terms": [
                [list(idx), coeff]
                for idx, coeff in sorted(self.f.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
            ],
            "h": self.h.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConstructionParams":
        f = GeneralizedBooleanFunction(
            data["q"], data["m"], {tuple(idx): coeff for idx, coeff in data["f_terms"]}
        )
        _check_seed_k(data["h"]["c"], data["k"])
        return cls(
            q=data["q"],
            m=data["m"],
            k=data["k"],
            s=data["s"],
            J=tuple(data["J"]),
            pi=tuple(data["pi"]),
            f=f,
            h=HCoeffs.from_json_dict(data["h"]),
        )


def default_params(
    q: int, m: int, k: int, s: int, J=None, pi=None, f=None, h=None
) -> ConstructionParams:
    """Fill the free choices with deterministic defaults: J is the first
    k-s indices, pi the identity, f the bare path, h the minimal seed."""
    J = tuple(J) if J is not None else tuple(range(k - s))
    pi = tuple(pi) if pi is not None else tuple(range(m - k))
    f = f if f is not None else path_gbf(q, m, k, s, J, pi)
    h = h if h is not None else HCoeffs.default(k)
    return ConstructionParams(q=q, m=m, k=k, s=s, J=J, pi=pi, f=f, h=h)


def example1_params() -> ConstructionParams:
    """The bundled worked example: q=2, m=4, k=2, s=1, J={0}, with
    f = x0x1 + x0x2 + x0x3 + x1x2 + x1 + x2 and seed
    h = x4x5 + x4x6 + x4x7 + x4.  The path order (1, 0) puts gamma1 = x2
    and gamma2 = x1; golden tests pin the resulting sequence ordering."""
    f = GeneralizedBooleanFunction(
        2,
        4,
        {(0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1,): 1, (2,): 1},
    )
    h = HCoeffs(c=(1, 1, 1), e=(1, 0, 0, 0))
    return ConstructionParams(q=2, m=4, k=2, s=1, J=(0,), pi=(1, 0), f=f, h=h)


def _masks(variables, count: int) -> np.ndarray:
    """For r = 0..count-1, the bit mask of the variables whose bit of r is
    set (bit b of r goes with ``variables[b]``); a variable named twice
    cancels, as two (q/2)-weighted terms do mod q."""
    r = np.arange(count, dtype=np.int64)
    masks = np.zeros(count, dtype=np.int64)
    for b, v in enumerate(variables):
        masks ^= ((r >> b) & 1) << v
    return masks


def _parity_offsets(base: np.ndarray, masks, flips, q: int) -> np.ndarray:
    """Row r is (base + (q/2) * (parity(j & masks[r]) ^ flips[r])) mod q for
    j = 0..len(base)-1: the truth table of base's function plus the
    (q/2)-weighted linear terms on the variables in the mask and a
    (q/2)-weighted constant.  len(base) is a power of two, so the parities
    of every row form one table, doubled up one bit of j at a time (index
    j + 2^v is index j XOR bit v of the mask), in base's dtype, the
    sequences' exponent dtype, which holds 2q - 1."""
    masks = np.asarray(masks, dtype=np.int64)[:, None]
    out = np.empty(masks.shape, dtype=base.dtype)
    out[:, 0] = flips
    for v in range(len(base).bit_length() - 1):
        out = np.concatenate([out, out ^ ((masks >> v) & 1).astype(base.dtype)], axis=1)
    out *= q // 2
    out += base
    return np.minimum(out, out - q)  # for 0 <= x < 2q, x - q wraps unless x >= q


def _code_table(params: ConstructionParams) -> np.ndarray:
    """Layer 1 as one read-only (2^s, 2^{k+1}, 2^{k+1}, 2^m) exponent table:
    ``table[t1, t2, nu]`` is row nu of code (t1, t2).  Row nu encodes d =
    bit k of nu and d_beta = bit beta of nu.

    Row nu of code (t1, t2) is psi of

        f + (q/2) * ( sum_beta (d_beta + b_beta) x_{j_beta} + d x_{gamma1}
                      + b_k x_{gamma2} + sum_{beta=k-s}^{k-1} d_beta b_{s+1+beta} )

    so every row is psi(f) plus q/2 times a parity of its index bits: the
    mask is nu's part XOR (t1, t2)'s part, and the constant the parity of
    d_{k-s..k-1} & t1.
    """
    q, k, s = params.q, params.k, params.s
    base = psi(params.f).exponents
    n_codes, n_families = 1 << (k + 1), 1 << s
    by_nu = _masks(params.j_order + (params.gamma1,), n_codes)
    by_t2 = _masks(params.j_order + (params.gamma2,), n_codes)
    masks = np.broadcast_to(by_t2[:, None] ^ by_nu, (n_families, n_codes, n_codes))
    shared = (np.arange(n_codes) >> (k - s)) & np.arange(n_families)[:, None]
    flips = np.zeros_like(shared)
    for b in range(s):
        flips ^= (shared >> b) & 1
    flips = np.broadcast_to(flips[:, None, :], masks.shape)
    table = _parity_offsets(base, masks.ravel(), flips.ravel(), q)
    table.flags.writeable = False  # so that every row is a view, not a copy
    return table.reshape(n_families, n_codes, n_codes, -1)


def build_ccc_family(params: ConstructionParams):
    """All 2^s code families as nested tuples of views of
    :func:`_code_table`: ``codes[t1][t2][nu]`` is row nu of code (t1, t2)."""
    codes = _code_table(params)
    return tuple(tuple(tuple(UnimodularSequence(params.q, row) for row in c) for c in fam) for fam in codes)


@dataclass(frozen=True, eq=False)
class MultipleZczFamily:
    """2^s zone sets with a declared per-set zone Z and inter-set zero
    cross-correlation zone Zc.  The family's one store of exponents is
    ``union``, a read-only ``correlation._Stack`` of every sequence, set
    after set; set t1 holds ``sizes[t1]`` of them."""

    params: ConstructionParams | None
    union: correlation._Stack
    sizes: tuple[int, ...]
    Z: int
    Zc: int

    def __post_init__(self):
        correlation._check_sizes(self.sizes, self.union.K)

    @functools.cached_property
    def sets(self) -> tuple[tuple[UnimodularSequence, ...], ...]:
        """``sets[t1][t2]`` is sequence t2 of set t1, a view of its union row."""
        rows = iter(self.union.exps)
        return tuple(tuple(UnimodularSequence(self.q, next(rows)) for _ in range(n))
                     for n in self.sizes)

    @functools.cached_property
    def _params(self) -> ConstructionParams:
        """``params``, checked once to describe these sets' sizes, length and q."""
        p = self.params
        if p is None:
            raise ValueError("family carries no construction parameters")
        described = ([p.set_size] * p.num_sets, p.seq_length, p.q)
        held = (list(self.sizes), self.L, self.q)
        if described != held:
            raise ValueError(f"params describe (set sizes, length, q) = {described},"
                             f" but the family holds {held}")
        return p

    q = property(lambda self: self.union.q)
    L = property(lambda self: self.union.L)


def build_multiple_zcz(params: ConstructionParams) -> MultipleZczFamily:
    """Assemble the full family of 2^s sets of 2^{k+1} sequences of
    length 2^{m+k+2} by welding the code rows of :func:`_code_table` with
    the seed: chunk c of sequence (t1, t2) is row (c mod 2^{k+1}) of code
    (t1, t2) plus (q/2) * h_c, reduced mod q.  Union row t1 * 2^{k+1} + t2
    is sequence (t1, t2).
    """
    q, codes = params.q, _code_table(params)
    n_families, n_codes, _, chunk_len = codes.shape
    welded = np.empty((n_families, n_codes, 2 * n_codes, chunk_len), codes.dtype)
    welded[:, :, :n_codes] = welded[:, :, n_codes:] = codes
    for c in np.flatnonzero(seed_polynomial(params.h).truth_table()):
        chunk = welded[:, :, c]
        chunk += q // 2
        np.minimum(chunk, chunk - q, out=chunk)  # for 0 <= x < 2q, x - q wraps unless x >= q
    sizes = (params.set_size,) * params.num_sets
    return MultipleZczFamily(params, correlation._as_stack(welded.reshape(params.union_size, -1), q),
                             sizes, Z=params.zcz_width, Zc=params.inter_zccz_width)


class ChunkDecompositionReport(NamedTuple):
    """Direct periodic correlation versus its chunk-level assembly."""

    lhs: complex
    rhs: complex
    passed: bool


def check_chunk_decomposition(
    family: MultipleZczFamily,
    t1: int,
    t1_other: int,
    i: int,
    j: int,
    codes=None,
) -> tuple[ChunkDecompositionReport, ...]:
    """Recompute the periodic correlation of sequence i of set t1 against
    sequence j of set t1_other at each shift 0 <= tau <= 2^m from code-row
    correlations and seed-sign weights; one report per shift, in tau order.

    The right-hand side sums row-aligned aperiodic terms at shift tau plus
    boundary terms at shift L_chunk - tau weighted by
    (-1)^{h_c + h_{c+1}} sign pairs; chunk subscripts wrap mod 2^{k+2} and
    row subscripts mod 2^{k+1}.

    A shift passes when ``correlation.is_zero`` holds for lhs - rhs, the
    direct value less the assembled one (sigma_1 values), at 1 if every term
    is binary, else at each of ``conjugates(q)``.
    """
    params = family._params
    chunk_len = 1 << params.m
    if codes is None:
        codes = build_ccc_family(params)
    terms = (family.sets[t1][i], family.sets[t1_other][j], codes[t1][i], codes[t1_other][j])
    l = len(terms[2])
    if len(terms[3]) != l:
        raise ValueError(f"row count mismatch: {l} vs {len(terms[3])}")
    binary = all(type(z._root_vectors[2]) is int for z in (*terms[:2], *terms[2], *terms[3]))
    taus = range(chunk_len + 1)
    sides = []
    for unit in (1,) if binary else correlation.conjugates(params.q):
        seq_a, seq_b, rows_a, rows_b = terms if unit == 1 else correlation._conjugate(terms, unit)
        lhs = [correlation.pccf(seq_a, seq_b, tau) for tau in taus]
        rhs = [2 * sum(map(correlation.accf, rows_a, rows_b, [tau] * l), 0j) for tau in taus]
        for nu, weight in params._boundary_weights:
            row_b, row_a = rows_b[(nu + 1) % l], rows_a[nu]
            for tau in taus:  # each shift adds its boundary terms in nu order, after its rows
                rhs[tau] += weight * correlation.accf(row_b, row_a, chunk_len - tau).conjugate()
        sides.append((lhs, rhs))
    passed = correlation.is_zero([np.subtract(lhs, rhs) for lhs, rhs in sides])
    return tuple(map(ChunkDecompositionReport, *sides[0], passed.tolist()))


# ---------------------------------------------------------------------------
# on-disk family format: family/<t1>/<t2>.seq plus manifest.json

_HEADER_KEYS = ("q", "L", "Z", "Zc")


@functools.lru_cache(maxsize=16)
def _exponent_records(q: int) -> np.ndarray:
    """The q records ``b"<e>\\n"``, e = 0..q-1, as one fixed-width table;
    built once per q and shared, so the array is read-only."""
    records = np.array([b"%d\n" % e for e in range(q)])
    records.flags.writeable = False
    return records


def _format_sequence_file(seq: UnimodularSequence, Z: int, Zc: int) -> bytes:
    """The file bytes: the header, then one ASCII decimal exponent per
    LF-ended line.  Each exponent indexes the table of
    :func:`_exponent_records`; dropping the NUL padding of the shorter
    records leaves the same bytes as formatting each exponent in turn."""
    header = f"q={seq.q}\nL={len(seq)}\nZ={Z}\nZc={Zc}\n".encode()
    body = _exponent_records(seq.q).take(seq.exponents).view(np.uint8)
    return header + body[body != 0].tobytes()


def _decode_exponents(body: bytes, L: int) -> np.ndarray:
    """The exponents of a sequence-file body, which must hold L of them.

    The body ``_format_sequence_file`` writes for q <= 10, L records of one
    digit and an LF, is decoded directly; every other layout goes to the
    text parser, which alone reports malformed bodies.
    """
    if L > 0 and len(body) == 2 * L:
        # a record b"<d>\n" read as a little-endian uint16, less b"0\n" read
        # so, is d; every other byte pair lands outside 0..9 (below by wrapping)
        digits = np.frombuffer(body, dtype="<u2") - np.uint16(ord("0") + (ord("\n") << 8))
        if digits.max() <= 9:
            return digits  # the sequence makes its own narrow copy
    text = body.decode()
    # one exponent per line: a (lines, 1) table, or a parse error
    exps = np.empty((0, 1), np.int64)
    if text.strip():
        exps = np.loadtxt(io.StringIO(text), dtype=np.int64, comments=None, ndmin=2)
    if exps.shape[1] != 1:
        raise ValueError(f"expected one exponent per line, got {exps.shape[1]}")
    exps = exps[:, 0]
    if exps.size != L:
        raise ValueError(f"header says L={L} but {exps.size} entries")
    return exps


def _parse_sequence_file(data: bytes, path) -> tuple[UnimodularSequence, dict]:
    # line ends as text-mode reading gives them: CRLF and a lone CR become LF
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    head, start = [], 0
    while len(head) < 4 and start < len(data):
        end = data.find(b"\n", start)
        end = len(data) if end < 0 else end
        ln = data[start:end].decode().strip()
        start = end + 1
        if ln:
            head.append(ln)
    body = data[start:]
    if len(head) < 4:
        raise ValueError(f"{path}: truncated sequence file")
    header = {}
    try:
        for key, ln in zip(_HEADER_KEYS, head):
            name, _, value = ln.partition("=")
            if name != key:
                raise ValueError(f"expected header '{key}=', got {ln!r}")
            header[key] = int(value)
        q = header["q"]
        if q < 2 or q % 2 or q > MAX_MODULUS:
            raise ValueError(f"q={q} is not a family modulus (even, 2..{MAX_MODULUS})")
        exps = _decode_exponents(body, header["L"])
        return UnimodularSequence(q, exps), header
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_output(path, content) -> str:
    """Write ``content``, bytes or else a JSON value (indented by 2, keys
    sorted, newline-ended), to ``path``; returns the SHA-256 of the bytes."""
    if not isinstance(content, bytes):
        content = (json.dumps(content, indent=2, sort_keys=True) + "\n").encode()
    Path(path).write_bytes(content)
    return _sha256(content)


def export_family(
    family: MultipleZczFamily,
    directory,
    certificates: dict | None = None,
    command: str | None = None,
    extra: dict | None = None,
) -> dict:
    """Write the family directory and its manifest; returns the manifest.

    Refuses, before writing anything, a directory holding a numbered set
    directory or sequence file that this family would not overwrite:
    :func:`load_family` would read it back as part of the family.
    """
    root = Path(directory)
    _refuse_stale_files(root, family.sizes)
    root.mkdir(parents=True, exist_ok=True)
    digests = {}
    for t1, st in enumerate(family.sets):
        sub = root / str(t1)
        sub.mkdir(exist_ok=True)
        for t2, seq in enumerate(st):
            payload = _format_sequence_file(seq, family.Z, family.Zc)
            digests[f"{t1}/{t2}.seq"] = _write_output(sub / f"{t2}.seq", payload)
    manifest = {
        "tool": "zczseq",
        "version": __version__,
        "command": command,
        "declared": {
            "num_sets": len(family.sizes),
            "set_size": family.sizes[0],
            "length": family.L,
            "zcz": family.Z,
            "inter_zccz": family.Zc,
            "union_size": family.union.K,
        },
        "params": family.params.to_json_dict() if family.params else None,
        "files": digests,
        "certificates": certificates,
    }
    if extra:
        manifest.update(extra)
    _write_output(root / "manifest.json", manifest)
    return manifest


def _family_files(root: Path) -> list[tuple[Path, list[Path]]]:
    """The numbered set directories of ``root``, each with its numbered
    ``.seq`` files, both in numeric order: the files of a family directory
    as :func:`load_family` reads them."""
    set_dirs = sorted(
        (p for p in root.iterdir() if p.is_dir() and p.name.isdecimal()),
        key=lambda p: int(p.name),
    )
    return [
        (sub, sorted((p for p in sub.glob("*.seq") if p.stem.isdecimal()), key=lambda p: int(p.stem)))
        for sub in set_dirs
    ]


def _refuse_stale_files(root: Path, sizes) -> None:
    """Raise if ``root`` holds set directories or ``.seq`` files, as
    :func:`_family_files` lists them, that a family of ``sizes`` (sequences
    per set) would not overwrite."""
    if not root.is_dir():
        return
    sizes = {str(t1): size for t1, size in enumerate(sizes)}
    stale = []
    for sub, files in _family_files(root):
        if sub.name not in sizes:
            stale.append(sub)
        else:
            written = {f"{t2}.seq" for t2 in range(sizes[sub.name])}
            stale.extend(p for p in files if p.name not in written)
    if stale:
        raise ValueError(
            f"{stale[0]} is left from another family and would not be overwritten"
            f" ({len(stale)} such path(s) in {root}); remove them or choose another directory"
        )


@dataclass(frozen=True)
class LoadedFamily:
    """A family read back from disk, with Z and Zc from the sequence-file
    headers and params present when the manifest carried them.
    ``digests`` maps each sequence file read, as ``"<t1>/<t2>.seq"`` in
    load order, to the SHA-256 of its bytes."""

    family: MultipleZczFamily
    manifest: dict | None
    digests: dict[str, str]

    def digest_report(self) -> dict | None:
        """The sequence files that disagree with the manifest's ``files``
        digests, or None when the manifest lists no files.

        ``mismatched`` files were read but hash differently, ``missing``
        ones are listed but were not read, ``extra`` ones were read but are
        not listed; the report passes when all three are empty.
        """
        listed = (self.manifest or {}).get("files")
        if listed is None:
            return None
        if not isinstance(listed, dict):
            raise ValueError("manifest.json: 'files' must map sequence files to SHA-256 digests")
        mismatched = [f for f, d in self.digests.items() if f in listed and listed[f] != d]
        missing = [f for f in listed if f not in self.digests]
        extra = [f for f in self.digests if f not in listed]
        return {
            "pass": not (mismatched or missing or extra),
            "checked": len(listed),
            "mismatched": mismatched,
            "missing": missing,
            "extra": extra,
        }


def load_family(directory) -> LoadedFamily:
    """Read a family directory written by :func:`export_family`."""
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"{root} is not a directory")
    listing = _family_files(root)
    if not listing:
        raise ValueError(f"{root} holds no sequence-set subdirectories")
    sizes, header, digests, n = tuple(len(files) for _, files in listing), None, {}, 0
    for sub, files in listing:
        if not files:
            raise ValueError(f"{sub} holds no .seq files")
        for path in files:
            data = path.read_bytes()
            digests[f"{sub.name}/{path.name}"] = _sha256(data)
            seq, hdr = _parse_sequence_file(data, path)
            if header is None:
                # the family's one exponent array, filled a row at a time:
                # stacking a list of rows at the end would hold each row twice
                header, union = hdr, np.empty((sum(sizes), len(seq)), seq.exponents.dtype)
            elif hdr != header:
                raise ValueError(f"{path}: header disagrees with the rest of the family")
            union[n] = seq.exponents
            n += 1
    manifest = params = None
    manifest_path = root / "manifest.json"
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{manifest_path}: not valid JSON ({exc})") from None
        if not isinstance(manifest, dict):
            raise ValueError(f"{manifest_path}: expected a JSON object")
        if manifest.get("params"):
            try:
                params = ConstructionParams.from_json_dict(manifest["params"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{manifest_path}: malformed 'params' ({exc})") from None
    union = correlation._as_stack(union, header["q"])
    return LoadedFamily(MultipleZczFamily(params, union, sizes, Z=header["Z"], Zc=header["Zc"]),
                        manifest, digests)
