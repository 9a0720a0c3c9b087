"""Generalized Boolean functions over Z_q and their unimodular sequences.

A generalized Boolean function (GBF) maps {0,1}^m into Z_q and is stored
sparsely as a multilinear polynomial: sorted variable-index tuples mapped
to nonzero coefficients mod q.  Input index j is identified with the bit
vector (j_0, ..., j_{m-1}) where j_0 is the least significant bit, so x0
is the fastest-toggling variable.  This convention is load-bearing: every
sequence layout in the package depends on it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeneralizedBooleanFunction",
    "UnimodularSequence",
    "PathFormReport",
    "psi",
    "roots_of_unity",
    "validate_restricted_path_form",
    "parse_gbf_text",
    "format_gbf_text",
]


def _bit_columns(m: int) -> np.ndarray:
    # rows = inputs 0..2^m-1, columns = variables, LSB-first
    j = np.arange(1 << m, dtype=np.int64)
    return (j[:, None] >> np.arange(m, dtype=np.int64)) & 1


class GeneralizedBooleanFunction:
    """Z_q-valued multilinear polynomial in m binary variables.

    ``terms`` maps tuples of distinct variable indices (sorted ascending;
    the empty tuple is the constant term) to coefficients in [1, q).
    Instances are immutable; arithmetic returns new objects.
    """

    __slots__ = ("q", "m", "_terms")

    def __init__(self, q: int, m: int, terms=None):
        if q < 2 or q % 2:
            raise ValueError(f"modulus q must be even and >= 2, got {q}")
        if m < 0:
            raise ValueError(f"variable count must be nonnegative, got {m}")
        canon: dict[tuple[int, ...], int] = {}
        for idx, coeff in dict(terms or {}).items():
            key = tuple(sorted(set(idx)))
            for i in key:
                if not 0 <= i < m:
                    raise ValueError(f"variable index {i} out of range [0, {m})")
            c = (canon.get(key, 0) + int(coeff)) % q
            if c:
                canon[key] = c
            else:
                canon.pop(key, None)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_terms", canon)

    def __setattr__(self, name, value):
        raise AttributeError("GeneralizedBooleanFunction is immutable")

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        return dict(self._terms)

    def truth_table(self) -> np.ndarray:
        """Values at all 2^m inputs, index j read LSB-first."""
        vals = np.zeros(1 << self.m, dtype=np.int64)
        bits = _bit_columns(self.m)
        for idx, coeff in self._terms.items():
            if idx:
                prod = bits[:, idx[0]].copy()
                for i in idx[1:]:
                    prod &= bits[:, i]
                vals += coeff * prod
            else:
                vals += coeff
        return vals % self.q

    def restrict(self, J, e) -> "GeneralizedBooleanFunction":
        """Substitute x_{J[beta]} = e[beta]; the result keeps m variables."""
        J = tuple(J)
        e = tuple(int(b) for b in e)
        if len(J) != len(e):
            raise ValueError(f"|J| = {len(J)} but |e| = {len(e)}")
        if any(b not in (0, 1) for b in e):
            raise ValueError(f"restriction values must be bits, got {e}")
        if len(set(J)) != len(J):
            raise ValueError(f"duplicate indices in J = {J}")
        for i in J:
            if not 0 <= i < self.m:
                raise ValueError(f"restriction index {i} out of range [0, {self.m})")
        assign = dict(zip(J, e))
        out: dict[tuple[int, ...], int] = {}
        for idx, coeff in self._terms.items():
            mult = 1
            rest = []
            for i in idx:
                if i in assign:
                    mult *= assign[i]
                else:
                    rest.append(i)
            if mult:
                key = tuple(rest)
                out[key] = (out.get(key, 0) + coeff) % self.q
        return GeneralizedBooleanFunction(self.q, self.m, out)

    def with_variables(self, m: int) -> "GeneralizedBooleanFunction":
        """Same polynomial declared over a larger variable set."""
        if m < self.m:
            raise ValueError(f"cannot shrink variable count {self.m} -> {m}")
        return GeneralizedBooleanFunction(self.q, m, self._terms)

    def __add__(self, other):
        if not isinstance(other, GeneralizedBooleanFunction):
            return NotImplemented
        if other.q != self.q or other.m != self.m:
            raise ValueError("operands must share modulus and variable count")
        merged = dict(self._terms)
        for idx, coeff in other._terms.items():
            merged[idx] = merged.get(idx, 0) + coeff
        return GeneralizedBooleanFunction(self.q, self.m, merged)

    def __eq__(self, other):
        if not isinstance(other, GeneralizedBooleanFunction):
            return NotImplemented
        return (self.q, self.m, self._terms) == (other.q, other.m, other._terms)

    def __hash__(self):
        return hash((self.q, self.m, tuple(sorted(self._terms.items()))))

    def __repr__(self):
        body = " + ".join(
            (f"{c}*" + "*".join(f"x{i}" for i in idx) if idx else str(c))
            for idx, c in sorted(self._terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        )
        return f"GBF(q={self.q}, m={self.m}: {body or '0'})"


@dataclass(frozen=True, eq=False)
class UnimodularSequence:
    """Length-L sequence of q-th roots of unity, stored as read-only exponents
    in the narrowest unsigned dtype that holds 2q - 1 (one byte for q <= 128):
    a sum of two is exact, but widen before a difference or product.  An
    array already read-only and narrow, such as a row of a family's union,
    is kept as it is; any other is copied."""

    q: int
    exponents: np.ndarray

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"modulus must be positive, got {self.q}")
        exps = np.asarray(self.exponents)
        if exps.ndim != 1 or exps.size < 1:
            raise ValueError("exponents must be a nonempty 1-d vector")
        if exps.min() < 0 or exps.max() >= self.q:
            raise ValueError(f"exponents must lie in [0, {self.q})")
        narrow = np.min_scalar_type(2 * self.q - 1)
        if exps.flags.writeable or exps.dtype != narrow:
            exps = exps.astype(narrow)  # astype copies: the sequence owns them
            exps.setflags(write=False)
        object.__setattr__(self, "exponents", exps)

    def __len__(self) -> int:
        return int(self.exponents.size)

    def __eq__(self, other):
        if not isinstance(other, UnimodularSequence):
            return NotImplemented
        return self.q == other.q and np.array_equal(self.exponents, other.exponents)

    @property
    def exact(self) -> bool:
        """True when entries are Gaussian integers (q divides 4)."""
        return self.q in (1, 2, 4)

    def values(self) -> np.ndarray:
        """Complex entries, gathered from :func:`roots_of_unity` into a
        fresh array."""
        return roots_of_unity(self.q).take(self.exponents)

    @functools.cached_property
    def _root_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, conjugates), read-only and kept once built, since the
        sequence is immutable.  For q <= 2 every root is real, so one
        float64 vector serves as both (8 B per chip); otherwise they are
        two complex128 vectors (32 B per chip)."""
        roots = roots_of_unity(self.q)
        if self.q <= 2:
            values = conj = roots.real.take(self.exponents)
        else:
            values = roots.take(self.exponents)
            conj = values.conj()
            conj.flags.writeable = False
        values.flags.writeable = False
        return values, conj


@functools.lru_cache(maxsize=16)
def roots_of_unity(q: int) -> np.ndarray:
    """The q-th roots of unity omega^e, e = 0..q-1, as complex128.

    Exact for q in {1, 2, 4} (entries +-1, +-1j); otherwise exp(2 pi i e / q),
    which is exactly 1 for q = 1.
    Built once per q and shared, so the array is read-only.
    """
    e = np.arange(q)
    if q == 2:
        roots = (1.0 - 2.0 * e).astype(np.complex128)
    elif q == 4:
        roots = np.array([1.0, 0.0, -1.0, 0.0]) + 1j * np.array([0.0, 1.0, 0.0, -1.0])
    else:
        roots = np.exp(2j * np.pi * e / q)
    roots.flags.writeable = False
    return roots


def psi(f: GeneralizedBooleanFunction) -> UnimodularSequence:
    """Unimodular sequence of f: entry j carries exponent f(j_0,...,j_{m-1})."""
    return UnimodularSequence(f.q, f.truth_table())


@dataclass(frozen=True)
class PathFormReport:
    """Outcome of the restricted-path structure check.

    ``path`` lists the required path vertices in order; gamma1/gamma2 are
    its end vertices.  ``violations`` holds (restriction bits, reason)
    pairs; the check passes when it is empty.
    """

    passed: bool
    gamma1: int
    gamma2: int
    path: tuple[int, ...]
    violations: tuple[tuple[tuple[int, ...], str], ...]


def _vertex_layout(m: int, k: int, s: int, J, pi):
    """The vertex layout of a quadratic GBF in m variables: the isolated
    vertices m-s..m-1, the free vertices (those of [0, m-s) not in the
    removable set J, ascending) and the path, the free vertices in the
    order ``pi``.  Returns ``(isolated, free, path)``; raises ValueError
    when k, s, J or pi cannot describe a layout."""
    J, pi = tuple(J), tuple(pi)
    if not (0 <= s <= k <= m - 2):
        raise ValueError(f"need 0 <= s <= k <= m-2, got s={s}, k={k}, m={m}")
    if len(J) != k - s or len(set(J)) != len(J):
        raise ValueError(f"J must hold {k - s} distinct indices, got {J}")
    if any(not 0 <= i < m - s for i in J):
        raise ValueError(f"J must be a subset of [0, {m - s}), got {J}")
    if len(pi) != m - k or sorted(pi) != list(range(m - k)):
        raise ValueError(f"pi must permute 0..{m - k - 1}, got {pi}")
    free = tuple(sorted(set(range(m - s)) - set(J)))
    return tuple(range(m - s, m)), free, tuple(free[p] for p in pi)


def validate_restricted_path_form(
    f: GeneralizedBooleanFunction, k: int, s: int, J, pi
) -> PathFormReport:
    """Check that every restriction of f onto the J variables is exactly
    (q/2) * (path on the free vertices, ordered by ``pi``) plus linear
    terms on allowed variables plus a constant.

    Structural misuse (bad k/s/J/pi) raises; defects of f itself are
    reported, not thrown, so near-misses can be observed.
    """
    J = tuple(J)
    isolated, free, path = _vertex_layout(f.m, k, s, J, pi)
    path_edges = {
        tuple(sorted((path[b], path[b + 1]))) for b in range(len(path) - 1)
    }
    allowed_linear = set(free) | set(isolated)
    half = f.q // 2

    violations = []
    for e in itertools.product((0, 1), repeat=len(J)):
        g = f.restrict(J, e)
        seen_edges = set()
        for idx, coeff in g.terms.items():
            if len(idx) > 2:
                violations.append((e, f"degree-{len(idx)} term {idx} survives restriction"))
            elif len(idx) == 2:
                if idx not in path_edges:
                    violations.append((e, f"quadratic term {idx} is not a path edge"))
                elif coeff != half:
                    violations.append((e, f"path edge {idx} has coefficient {coeff}, expected {half}"))
                else:
                    seen_edges.add(idx)
            elif len(idx) == 1:
                if idx[0] not in allowed_linear:
                    violations.append((e, f"linear term on x{idx[0]} is not allowed"))
        for missing in sorted(path_edges - seen_edges):
            violations.append((e, f"path edge {missing} is missing"))

    return PathFormReport(
        passed=not violations,
        gamma1=path[0],
        gamma2=path[-1],
        path=path,
        violations=tuple(violations),
    )


def format_gbf_text(f: GeneralizedBooleanFunction) -> str:
    """Render in the text format: header line then one term per line,
    index sets ascending.  Round-trips bit-exactly through parse."""
    lines = [f"q={f.q} m={f.m}"]
    for idx in sorted(f.terms, key=lambda t: (len(t), t)):
        coeff = f.terms[idx]
        if idx:
            lines.append(f"{coeff} * " + "*".join(f"x{i}" for i in idx))
        else:
            lines.append(f"{coeff}")
    return "\n".join(lines) + "\n"


def parse_gbf_text(text: str) -> GeneralizedBooleanFunction:
    """Parse the text format produced by :func:`format_gbf_text`."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty GBF text")
    header = lines[0].split()
    try:
        fields = dict(part.split("=", 1) for part in header)
        q = int(fields["q"])
        m = int(fields["m"])
    except (ValueError, KeyError) as exc:
        raise ValueError(f"malformed GBF header {lines[0]!r}") from exc
    terms: dict[tuple[int, ...], int] = {}
    for ln in lines[1:]:
        if "*" in ln:
            coeff_part, _, vars_part = ln.partition("*")
            try:
                coeff = int(coeff_part.strip())
                idx = tuple(
                    int(tok.strip()[1:]) for tok in vars_part.split("*") if tok.strip()
                )
                if any(not tok.strip().startswith("x") for tok in vars_part.split("*")):
                    raise ValueError
            except ValueError as exc:
                raise ValueError(f"malformed GBF term {ln!r}") from exc
        else:
            try:
                coeff = int(ln)
            except ValueError as exc:
                raise ValueError(f"malformed GBF term {ln!r}") from exc
            idx = ()
        key = tuple(sorted(idx))
        if key in terms:
            raise ValueError(f"duplicate term {key} in GBF text")
        terms[key] = coeff
    return GeneralizedBooleanFunction(q, m, terms)
