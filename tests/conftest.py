"""Shared oracles and generators for the test suite.

The correlation oracles here are deliberately primitive pure-Python
double loops over independently converted complex entries, so they never
share code paths with the library's vectorized implementations.  The
construction oracles build one generalized Boolean function and one truth
table per sequence and per code row, where the library offsets one shared
truth table by q/2-weighted parities.  The uplink oracle simulates every
chip, where the library draws the matched-filter statistics directly; the
loop oracle draws those statistics from int64 bits in one product per
iteration, where the library reads raw bit words in blocks.  The
exact-zero oracle decides a sum of q-th roots of unity by integer
polynomial division modulo the cyclotomic polynomial, where the library
reads floating-point Galois conjugates.  The real-stack oracle marks the
roots each sequence uses, where the library reads the stacked exponents
once.  The last section holds oracles that no package code calls, moved
out of the package as they were, methods turned into plain functions:
pointwise GBF evaluation and degree, the quadratic graph, the row-summed
code correlation, single spectrum values, noise-free statistics, the
interference-witness search and the AWGN BPSK error rate.
"""

import cmath
import csv
import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from zczseq import (
    ConstructionParams,
    HCoeffs,
    MultipleZczFamily,
    accf,
    build_seed_function,
    correlation,
    psi,
    verify_inter_zccz,
    verify_zcz,
)
from zczseq import qscdma
from zczseq.gbf import GeneralizedBooleanFunction, UnimodularSequence, roots_of_unity


def seq_values_list(seq: UnimodularSequence) -> list[complex]:
    vals = []
    for idx in range(len(seq)):
        e = int(seq.exponents[idx])
        if seq.q == 1:
            vals.append(1 + 0j)
        elif seq.q == 2:
            vals.append(complex(1 - 2 * e))
        elif seq.q == 4:
            vals.append((1 + 0j, 1j, -1 + 0j, -1j)[e])
        else:
            vals.append(cmath.exp(2j * cmath.pi * e / seq.q))
    return vals


def naive_accf(a: UnimodularSequence, b: UnimodularSequence, u: int) -> complex:
    va, vb = seq_values_list(a), seq_values_list(b)
    L = len(va)
    if u >= 0:
        return sum((va[i] * vb[i + u].conjugate() for i in range(L - u)), 0j)
    return sum((va[i - u] * vb[i].conjugate() for i in range(L + u)), 0j)


def naive_circular(a: UnimodularSequence, b: UnimodularSequence, u: int) -> complex:
    va, vb = seq_values_list(a), seq_values_list(b)
    L = len(va)
    return sum((va[i] * vb[(i + u) % L].conjugate() for i in range(L)), 0j)


def csv_module_spectrum(table, path) -> None:
    """The spectrum CSV as the ``csv`` module writes it: one row per
    (i, j, u), i slowest."""
    i, j, u = np.indices((table.K, table.K, table.L)).reshape(3, -1).tolist()
    # ints for exact tables, floats otherwise; a real table's im is all zero
    dtype = np.int64 if table.exact else np.float64
    re, im = (part.transpose(1, 2, 0).ravel().astype(dtype).tolist()
              for part in (table.phi.real, table.phi.imag))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pair_i", "pair_j", "shift", "re", "im"])
        w.writerows(zip(i, j, u, re, im))


def undecidable_q8_pair() -> tuple[UnimodularSequence, UnimodularSequence]:
    """Two q = 8 sequences of length 2^16 whose shift-0 correlation is
    alpha = (1 - w)(sqrt(2) - 1)^11, w = exp(2 pi i / 8): nonzero, but of
    magnitude about 4.7e-5, below a float zero tolerance of 1e-9 * L.  Its
    conjugate under w -> w^3 has magnitude about 30,004.  ``a`` holds the
    exponent counts below and ``b`` is all zeros."""
    counts = {0: 13167, 1: 13860, 4: 27027, 6: 5741, 7: 5741}
    a = UnimodularSequence(8, np.repeat(list(counts), list(counts.values())))
    return a, UnimodularSequence(8, np.zeros(len(a), dtype=np.int64))


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(q: int) -> tuple[int, ...]:
    """Phi_q as integer coefficients, lowest degree first: x^q - 1 divided
    exactly by Phi_d for every proper divisor d of q."""
    poly = [-1] + [0] * (q - 1) + [1]
    for d in range(1, q):
        if q % d == 0:
            poly = _poly_divmod(poly, cyclotomic_polynomial(d))[0]
    return tuple(poly)


def _poly_divmod(num, den):
    """Quotient and remainder of integer polynomials, lowest degree first,
    by a monic ``den``: Python ints throughout, so both are exact."""
    num = [int(c) for c in num]
    quot = [0] * max(len(num) - len(den) + 1, 0)
    for k in reversed(range(len(quot))):
        c = quot[k] = num[k + len(den) - 1]
        for n, d in enumerate(den):
            num[k + n] -= c * d
    return quot, num[: len(den) - 1]


def exactly_zero(counts) -> bool:
    """Whether sum_e counts[e] * omega^e is zero, omega = exp(2 pi i / q)
    with q = len(counts): the oracle reduces sum_e counts[e] x^e modulo the
    minimal polynomial Phi_q of omega, and the sum is zero iff nothing is
    left."""
    return not any(_poly_divmod(counts, cyclotomic_polynomial(len(counts)))[1])


def used_roots_real(seqs) -> bool:
    """Whether a stack of ``seqs`` is real, by the rule ``_stack`` once
    applied sequence by sequence: mark every exponent some sequence uses,
    and the stack is real when no marked root of ``roots_of_unity(q)`` has
    a nonzero imaginary part."""
    q = seqs[0].q
    used = np.zeros(q, dtype=bool)
    for z in seqs:
        used[z.exponents] = True
    return not roots_of_unity(q).imag[used].any()


def random_sequence(rng, q: int, L: int) -> UnimodularSequence:
    return UnimodularSequence(q, rng.integers(0, q, size=L))


def random_gbf(rng, q: int, m: int, n_terms: int = 6) -> GeneralizedBooleanFunction:
    terms = {}
    for _ in range(n_terms):
        size = int(rng.integers(0, min(m, 3) + 1))
        idx = tuple(sorted(rng.choice(m, size=size, replace=False))) if size else ()
        terms[idx] = int(rng.integers(q))
    return GeneralizedBooleanFunction(q, m, terms)


def random_valid_params(
    rng, q: int, m: int, k: int, s: int, randomize_structure: bool = False
) -> ConstructionParams:
    """A construction input with randomized free coefficients: the base
    function keeps its mandatory path but gains random removable-vertex
    quadratics, linear terms, and a constant; the seed coefficients are
    random apart from the mandatory top coupling bit."""
    if randomize_structure:
        J = tuple(int(x) for x in rng.permutation(m - s)[: k - s])
        pi = tuple(int(x) for x in rng.permutation(m - k))
    else:
        J = tuple(range(k - s))
        pi = tuple(range(m - k))
    half = q // 2
    free = sorted(set(range(m - s)) - set(J))
    path = [free[p] for p in pi]
    terms: dict[tuple, int] = {}

    def add(key, coeff):
        coeff = (terms.get(key, 0) + coeff) % q
        if coeff:
            terms[key] = coeff
        else:
            terms.pop(key, None)

    for b in range(len(path) - 1):
        add(tuple(sorted((path[b], path[b + 1]))), half)
    for j in J:
        for w in range(m):
            if w != j and rng.integers(2):
                add(tuple(sorted((j, w))), int(rng.integers(1, q)))
    for v in range(m):
        add((v,), int(rng.integers(q)))
    add((), int(rng.integers(q)))
    f = GeneralizedBooleanFunction(q, m, terms)

    c = tuple(int(rng.integers(2)) for _ in range(k)) + (1,)
    d_pairs = tuple(
        (mu, nu)
        for mu in range(1, k + 1)
        for nu in range(mu + 1, k + 1)
        if rng.integers(2)
    )
    e = tuple(int(rng.integers(2)) for _ in range(k + 2))
    h = HCoeffs(c=c, d_pairs=d_pairs, e=e, e_prime=int(rng.integers(2)))
    return ConstructionParams(q=q, m=m, k=k, s=s, J=J, pi=pi, f=f, h=h)


def _bits(value: int, count: int) -> tuple[int, ...]:
    return tuple((value >> b) & 1 for b in range(count))


def oracle_multiple_zcz(params: ConstructionParams) -> list[list[UnimodularSequence]]:
    """Sequence (t1, t2) as psi of its own function

        f + h + (q/2) * ( sum_beta x_{m+beta} x_{j_beta}
                          + sum_{beta=k-s}^{k-1} x_{m+beta} b_{s+1+beta}
                          + sum_beta b_beta x_{j_beta}
                          + x_{m+k} x_{gamma1} + b_k x_{gamma2} ),

    with b the bits of (t2, t1); returns sets[t1][t2]."""
    q, m, k, s = params.q, params.m, params.k, params.s
    half = q // 2
    n = params.n_vars
    static_terms = {tuple(sorted((m + beta, params.j_order[beta]))): half for beta in range(k)}
    static_terms[tuple(sorted((m + k, params.gamma1)))] = half
    static = (
        params.f.with_variables(n)
        + build_seed_function(params.h, m, q)
        + GeneralizedBooleanFunction(q, n, static_terms)
    )
    sets = []
    for t1 in range(1 << s):
        seqs = []
        for t2 in range(1 << (k + 1)):
            b = _bits(t2, k + 1) + _bits(t1, s)
            terms = [((m + beta,), half * b[s + 1 + beta]) for beta in range(k - s, k)]
            terms += [((params.j_order[beta],), half * b[beta]) for beta in range(k)]
            terms.append(((params.gamma2,), half * b[k]))
            seqs.append(psi(static + _summed(q, n, terms)))
        sets.append(seqs)
    return sets


def oracle_ccc_family(params: ConstructionParams) -> list[list[list[UnimodularSequence]]]:
    """Row nu of code (t1, t2) as psi of its own function

        f + (q/2) * ( sum_beta (d_beta + b_beta) x_{j_beta} + d x_{gamma1}
                      + b_k x_{gamma2} + sum_{beta=k-s}^{k-1} d_beta b_{s+1+beta} ),

    with d_beta = bit beta and d = bit k of nu; returns codes[t1][t2][nu]."""
    q, m, k, s = params.q, params.m, params.k, params.s
    half = q // 2
    n_codes = 1 << (k + 1)
    families = []
    for t1 in range(1 << s):
        codes = []
        for t2 in range(n_codes):
            b = _bits(t2, k + 1) + _bits(t1, s)
            rows = []
            for nu in range(n_codes):
                d_bits, d = _bits(nu, k), (nu >> k) & 1
                terms = [((params.j_order[beta],), half * (d_bits[beta] + b[beta]))
                         for beta in range(k)]
                terms += [((params.gamma1,), half * d), ((params.gamma2,), half * b[k])]
                const = sum(d_bits[beta] * b[s + 1 + beta] for beta in range(k - s, k))
                terms.append(((), half * const))
                rows.append(psi(params.f + _summed(q, m, terms)))
            codes.append(rows)
        families.append(codes)
    return families


def _summed(q: int, m: int, terms) -> GeneralizedBooleanFunction:
    """The sum of (index tuple, coefficient) terms, repeated tuples added."""
    f = GeneralizedBooleanFunction(q, m)
    for idx, coeff in terms:
        f = f + GeneralizedBooleanFunction(q, m, {idx: coeff})
    return f


def union_of(sets) -> tuple:
    """``(union, sizes)`` of nested sequence sets: the read-only stack of
    every sequence, set after set, and the set sizes, as a
    ``MultipleZczFamily`` holds them and ``certify_family`` reads them."""
    sets = [list(st) for st in sets]
    return correlation._stack(z for st in sets for z in st), tuple(len(st) for st in sets)


def with_sets(family, sets):
    """``family`` with ``sets`` in place of its own sequences."""
    union, sizes = union_of(sets)
    return dataclasses.replace(family, union=union, sizes=sizes)


def certify_family(family) -> tuple[bool, int]:
    """Run every per-set and inter-set certificate; returns (all passed,
    total violation count)."""
    ok = True
    violations = 0
    for st in family.sets:
        cert = verify_zcz(st, family.Z)
        ok &= cert.passed
        violations += len(cert.violations)
    n = len(family.sets)
    for a in range(n):
        for b in range(a + 1, n):
            rep = verify_inter_zccz(family.sets[a], family.sets[b], family.Zc)
            ok &= rep.passed
            violations += len(rep.violations)
    return ok, violations


def two_proportion_z(e1, n1, e2, n2):
    p1, p2 = e1 / n1, e2 / n2
    pooled = (e1 + e2) / (n1 + n2)
    return (p1 - p2) / math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))


def chip_signatures(family, config, delays) -> np.ndarray:
    """Every user's cyclically delayed signature, one row per user."""
    return np.stack(
        [
            np.roll(family.sets[c][u].values(), int(delays[c, u]))
            for c in range(config.clusters)
            for u in range(config.users_per_cluster)
        ]
    )


def chip_level_errors(family, config, delays) -> np.ndarray:
    """Reference uplink model: spread every user's bits chip by chip, add
    white noise to each chip (to each component of complex chips), and
    correlate the received chips with the observed users' templates.

    Draws from its own streams (spawn key (2, point, iteration)), so its
    errors are independent of ``simulate_ber``'s.  Returns errors[point,
    observed user] for a noisy config.
    """
    L = family.L
    sig = chip_signatures(family, config, delays)
    if not sig.imag.any():
        sig = sig.real
    rows = [
        c * config.users_per_cluster + u
        for c in range(config.clusters)
        for u in range(config.observed_per_cluster)
    ]
    templates = sig[rows]
    errors = np.zeros((len(config.snr_db), len(rows)), dtype=np.int64)
    for p_idx, snr_db in enumerate(config.snr_db):
        ebn0_db = snr_db if config.snr_axis == "bit" else snr_db + 10 * math.log10(L)
        sigma = math.sqrt(L / (2.0 * 10.0 ** (ebn0_db / 10.0)))
        for it in range(config.iterations):
            rng = np.random.default_rng(
                np.random.SeedSequence(config.seed, spawn_key=(2, p_idx, it))
            )
            bits = rng.integers(0, 2, size=(sig.shape[0], config.bits_per_iteration)) * 2 - 1
            rx = bits.T.astype(sig.dtype) @ sig
            if np.iscomplexobj(sig):
                rx = rx + sigma * (
                    rng.standard_normal(rx.shape) + 1j * rng.standard_normal(rx.shape)
                )
            else:
                rx = rx + sigma * rng.standard_normal(rx.shape)
            stats = (rx @ templates.conj().T).real
            decisions = np.where(stats > 0, 1, -1)
            errors[p_idx] += (decisions != bits[rows].T).sum(axis=0)
    return errors


def oracle_simulation_errors(family, config) -> np.ndarray:
    """errors[point, observed user] of ``simulate_ber``'s loop as first
    written: int64 bits from ``rng.integers``, then ``bits.T @ G`` and the
    noise over the whole iteration.  Shares the set-up (delays, G, F)."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    delays = rng.integers(
        0, config.max_delay_chips + 1, size=(config.clusters, config.users_per_cluster)
    )
    sig = qscdma._signature_matrix(family, config.clusters, config.users_per_cluster, delays)
    rows = np.array(
        [c * config.users_per_cluster + u
         for c in range(config.clusters) for u in range(config.observed_per_cluster)],
        dtype=np.intp,
    )
    G = qscdma._mai_matrix(sig, rows)
    F = qscdma._noise_factor(G[rows])
    if config.noiseless:
        sigmas = [0.0]
    else:
        gain_db = 0.0 if config.snr_axis == "bit" else 10.0 * math.log10(family.L)
        sigmas = [math.sqrt(family.L / (2.0 * 10.0 ** ((db + gain_db) / 10.0)))
                  for db in config.snr_db]
    errors = np.zeros((len(sigmas), len(rows)), dtype=np.int64)
    for p_idx, sigma in enumerate(sigmas):
        for it in range(config.iterations):
            rng = np.random.default_rng(
                np.random.SeedSequence(config.seed, spawn_key=(1, p_idx, it))
            )
            bits = rng.integers(0, 2, size=(sig.shape[0], config.bits_per_iteration)) * 2 - 1
            stats = bits.T @ G
            if sigma > 0.0:
                stats += sigma * (rng.standard_normal(stats.shape) @ F)
            errors[p_idx] += ((stats > 0) != (bits[rows].T > 0)).sum(axis=0)
    return errors


# ---------------------------------------------------------------------------
# oracles that no package code calls


def evaluate(f: GeneralizedBooleanFunction, x) -> int:
    """Value of f at a binary assignment ``x`` of length m."""
    x = tuple(x)
    if len(x) != f.m:
        raise ValueError(f"expected {f.m} inputs, got {len(x)}")
    total = 0
    for idx, coeff in f.terms.items():
        prod = 1
        for i in idx:
            prod *= x[i]
            if not prod:
                break
        total += coeff * prod
    return total % f.q


def degree(f: GeneralizedBooleanFunction) -> int:
    return max((len(t) for t in f.terms), default=0)


def binvec(j: int, m: int) -> tuple[int, ...]:
    """Bit vector (j_0, ..., j_{m-1}) of j, least significant bit first."""
    if not 0 <= j < (1 << m):
        raise ValueError(f"index {j} out of range for {m} variables")
    return tuple((j >> beta) & 1 for beta in range(m))


@dataclass(frozen=True)
class QuadraticGraph:
    """Graph of a quadratic GBF: one vertex per variable, one edge per
    nonzero quadratic coefficient."""

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for a, b in self.edges:
            if a == b or a not in self.vertices or b not in self.vertices:
                raise ValueError(f"edge ({a},{b}) not between distinct known vertices")

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in sorted(self.vertices)}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def degree(self, v: int) -> int:
        return sum(1 for a, b in self.edges if v in (a, b))


def quadratic_graph(f: GeneralizedBooleanFunction) -> QuadraticGraph:
    """Edges of the degree-2 part of f.  Raises if any term has degree > 2."""
    if degree(f) > 2:
        raise ValueError(f"function has degree {degree(f)}; graph needs degree <= 2")
    edges = frozenset(
        (idx[0], idx[1]) for idx in f.terms if len(idx) == 2
    )
    return QuadraticGraph(vertices=frozenset(range(f.m)), edges=edges)


def code_accf(code1, code2, u: int) -> complex:
    """Row-wise sum of aperiodic cross-correlations between two codes,
    each a sequence of rows."""
    if len(code1) != len(code2):
        raise ValueError(f"row count mismatch: {len(code1)} vs {len(code2)}")
    return sum((accf(r1, r2, u) for r1, r2 in zip(code1, code2)), 0j)


def spectrum_value(table, i: int, j: int, u: int) -> complex:
    """phi(i, j)(u) read from a ``SpectrumTable``."""
    return complex(table.phi[u, i, j])


def noiseless_statistics(
    family: MultipleZczFamily,
    clusters: int,
    users_per_cluster: int,
    delays: np.ndarray,
    bits: np.ndarray,
) -> np.ndarray:
    """Noise-free decision statistics bits^T G for every user and bit window.

    ``bits`` has shape (users, n_bits) with entries +-1; the returned
    float64 array has shape (n_bits, users); its entries are exact
    integers for q in {1, 2, 4}, and +-L when nothing interferes.
    """
    sig = qscdma._signature_matrix(family, clusters, users_per_cluster, np.asarray(delays))
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 2 or bits.shape[0] != sig.shape[0]:
        raise ValueError(f"bits must have shape (users={sig.shape[0]}, n_bits)")
    if not np.all(np.abs(bits) == 1):
        raise ValueError("bits must be +-1")
    return bits.T @ qscdma._mai_matrix(sig, np.arange(sig.shape[0]))


@dataclass(frozen=True)
class InterferenceWitness:
    """A cross-cluster pair whose correlation is nonzero at some reachable
    delay difference."""

    cluster_a: int
    user_a: int
    cluster_b: int
    user_b: int
    shift: int
    value: complex


def find_interference_witness(
    family: MultipleZczFamily, max_delay_chips: int
) -> InterferenceWitness | None:
    """The first cross-cluster user pair whose periodic correlation
    (``value``, pccf at ``shift`` mod L) is nonzero at a delay difference
    reachable under ``max_delay_chips``, or None when there is none.

    Every set pair is certified at zone min(max_delay_chips, L - 1).  Only
    shifts beyond the inter-set zone can qualify, so None is returned at
    once whenever max_delay_chips <= Zc.
    """
    if max_delay_chips <= family.Zc:
        return None
    zone = min(max_delay_chips, family.L - 1)
    for a, b in itertools.combinations(range(len(family.sets)), 2):
        w = verify_inter_zccz(family.sets[a], family.sets[b], zone).witness
        if w is not None:
            return InterferenceWitness(a, w.i, b, w.j, w.shift, complex(w.re, w.im))
    return None


def theoretical_bpsk_ber(ebn0_db: float) -> float:
    """Matched-filter BPSK error rate Q(sqrt(2 Eb/N0)) on AWGN."""
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    return 0.5 * math.erfc(math.sqrt(2.0 * ebn0) / math.sqrt(2.0))
