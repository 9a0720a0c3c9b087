"""Shared oracles and generators for the test suite.

The correlation oracles here are deliberately primitive pure-Python
double loops over independently converted complex entries, so they never
share code paths with the library's vectorized implementations.  The
uplink oracle simulates every chip, where the library draws the
matched-filter statistics directly.
"""

import cmath
import math

import numpy as np

from zczseq import ConstructionParams, HCoeffs, verify_inter_zccz, verify_zcz
from zczseq.gbf import GeneralizedBooleanFunction, UnimodularSequence


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


def certify_family(family) -> tuple[bool, int]:
    """Run every per-set and inter-set certificate; returns (all passed,
    total violation count)."""
    ok = True
    violations = 0
    for st in family.sets:
        cert = verify_zcz(st.sequences, family.Z)
        ok &= cert.passed
        violations += len(cert.violations)
    n = len(family.sets)
    for a in range(n):
        for b in range(a + 1, n):
            rep = verify_inter_zccz(
                family.sets[a].sequences, family.sets[b].sequences, family.Zc
            )
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
            np.roll(family.sets[c].sequences[u].values(), int(delays[c, u]))
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
