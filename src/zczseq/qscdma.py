"""Monte-Carlo simulation of a multi-cluster quasi-synchronous CDMA
uplink spread with the constructed sequence families.

Model: each cluster is served by one zone set and each user in it by one
sequence.  BPSK data bits are spread chip-by-chip; every user has a fixed
integer chip delay drawn uniformly from [0, max_delay_chips].  Bit
windows wrap cyclically (cyclic-prefix style), so the periodic
correlation properties certified for the family govern all interference.
The receiver correlates each observed user's delayed signature (its
template) over the bit window and decides on the sign of the real part.
Those matched-filter statistics are drawn directly (Verdu, *Multiuser
Detection*, 1998, ch. 2-3).  With the delayed signatures as the rows of
sig and the templates as the rows of T, one bit window yields

    stats = bits^T G + n,   G = Re(sig T^H),   n ~ N(0, sigma^2 Re(T T^H)),

the law of white chip noise of amplitude sigma (per component for complex
chips) seen through the templates, at n_obs normals per bit instead of L.
G is the multi-access-interference (MAI) matrix; for q in {1, 2, 4} it is
integer and float64 forms it exactly (the argument in ``correlation``).

SNR semantics: ``snr_axis="bit"`` treats the axis as Eb/N0 with the
processing gain L absorbed (noise per chip has sigma^2 = L / (2 Eb/N0));
``snr_axis="chip"`` treats it as Ec/N0 = Eb/N0 / L.  Both are exposed
because reported curves in the literature rarely say which one they use.

All randomness is derived from the mandatory seed: delays from spawn key
(0,), iteration streams from spawn key (1, point_index, iteration), so
results depend on the seed alone.  An iteration's stream yields its bits,
users-major, then n_bits x n_obs standard normals.  The bits are the top
bits of the little-endian 32-bit halves (low half first) of
ceil(users n_bits / 2) raw PCG64 words: what ``Generator.integers(0, 2)``
returns, since Lemire's method never rejects for range 2.

Only the interfering users' bits are drawn: those of the observed users
and of every user whose row of G is not exactly zero.  The other rows
add exactly +-0.0 to every statistic; their words are skipped by PCG64
jump-ahead, so every drawn bit and normal sits at the same stream position
as in the full draw.  While all delays stay within Zc, the interfering
users are the observed ones.  An iteration holds 4 bytes per interfering
user-bit of words and 16 per observed-user-bit of noise, and forms the
statistics in blocks of ``_BLOCK_BYTES`` of bit signs.  For q in
{1, 2, 4} the products are exact and the output bytes do not depend on
the blocks; for other q the blocks may change their summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construction import MultipleZczFamily

__all__ = [
    "SimulationConfig",
    "BerPoint",
    "UserBerCurve",
    "SimulationResult",
    "assign_signatures",
    "simulate_ber",
]

# Bytes of one block of float64 bit signs.
_BLOCK_BYTES = 1 << 18

# JSON type of every config key; a bool is not a count
_CONFIG_TYPES = {
    "clusters": int,
    "users_per_cluster": int,
    "max_delay_chips": int,
    "snr_db": list,
    "seed": int,
    "snr_axis": str,
    "bits_per_iteration": int,
    "iterations": int,
    "noiseless": bool,
    "observed_per_cluster": int,
}


@dataclass(frozen=True)
class SimulationConfig:
    clusters: int
    users_per_cluster: int
    max_delay_chips: int
    snr_db: tuple[float, ...]
    seed: int
    snr_axis: str = "bit"
    bits_per_iteration: int = 10_000
    iterations: int = 100
    noiseless: bool = False
    observed_per_cluster: int = 1

    def __post_init__(self):
        if self.clusters < 1 or self.users_per_cluster < 1:
            raise ValueError("need at least one cluster and one user per cluster")
        if self.max_delay_chips < 0:
            raise ValueError("max_delay_chips must be >= 0")
        if self.snr_axis not in ("bit", "chip"):
            raise ValueError(f"snr_axis must be 'bit' or 'chip', got {self.snr_axis!r}")
        if self.bits_per_iteration < 1 or self.iterations < 1:
            raise ValueError("bits_per_iteration and iterations must be positive")
        if not 1 <= self.observed_per_cluster <= self.users_per_cluster:
            raise ValueError("observed_per_cluster must lie in [1, users_per_cluster]")
        object.__setattr__(self, "snr_db", tuple(float(x) for x in self.snr_db))
        if not self.noiseless and not self.snr_db:
            raise ValueError("need at least one SNR point (or noiseless=True)")

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimulationConfig":
        unknown = set(data) - set(_CONFIG_TYPES)
        if unknown:
            raise ValueError(f"unknown simulation config keys: {sorted(unknown)}")
        missing = {"clusters", "users_per_cluster", "max_delay_chips", "seed"} - set(data)
        if missing:
            raise ValueError(f"simulation config lacks required keys: {sorted(missing)}")
        for key, value in data.items():
            if type(value) is not _CONFIG_TYPES[key]:
                raise ValueError(
                    f"simulation config key {key!r} must be of type "
                    f"{_CONFIG_TYPES[key].__name__}, got {value!r}"
                )
        snr = data.get("snr_db", [])
        if not all(type(x) in (int, float) and math.isfinite(x) for x in snr):
            raise ValueError(f"simulation config key 'snr_db' must list finite numbers, got {snr!r}")
        kwargs = dict(data)
        kwargs["snr_db"] = tuple(kwargs.get("snr_db", ()))
        return cls(**kwargs)


@dataclass(frozen=True)
class BerPoint:
    snr_db: float
    errors: int
    bits: int

    @property
    def ber(self) -> float:
        return self.errors / self.bits

    @property
    def ci_halfwidth(self) -> float:
        # 95% normal-approximation binomial interval
        p = self.ber
        return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / self.bits)


@dataclass(frozen=True)
class UserBerCurve:
    cluster: int
    user: int
    points: tuple[BerPoint, ...]


@dataclass(frozen=True)
class SimulationResult:
    config: SimulationConfig
    delays: np.ndarray
    curves: tuple[UserBerCurve, ...]
    ebn0_db: tuple[float, ...]
    # users whose bits reach an observed statistic (G row not all zero),
    # observed users included: the rows each iteration draws
    interfering_users: tuple[int, ...]


def assign_signatures(family: MultipleZczFamily, clusters: int, users_per_cluster: int):
    """Cluster c gets set c; user u in it gets sequence u."""
    if clusters > len(family.sets):
        raise ValueError(
            f"{clusters} clusters requested but the family holds {len(family.sets)} sets"
        )
    for c in range(clusters):
        if users_per_cluster > len(family.sets[c]):
            raise ValueError(
                f"{users_per_cluster} users per cluster requested but set {c} holds "
                f"{len(family.sets[c])} sequences"
            )
    return [family.sets[c][:users_per_cluster] for c in range(clusters)]


def _signature_matrix(family, clusters, users_per_cluster, delays):
    """Stack every user's cyclically delayed signature as matrix rows."""
    assignment = assign_signatures(family, clusters, users_per_cluster)
    return np.stack(
        [
            np.roll(assignment[c][u].values(), int(delays[c, u]))
            for c in range(clusters)
            for u in range(users_per_cluster)
        ]
    )


def _mai_matrix(sig: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """G = Re(sig sig[rows]^H): G[v, o] is what a +1 bit of user v adds to
    the statistic of template o."""
    return np.ascontiguousarray((sig @ sig[rows].conj().T).real)


def _noise_factor(gram: np.ndarray) -> np.ndarray:
    """The symmetric PSD square root F of a Gram matrix: N(0, I) F has
    covariance gram.  Not Cholesky, which fails on the singular Gram
    matrix of linearly dependent templates; not V sqrt(w), whose basis is
    arbitrary inside a degenerate eigenspace, unlike the unique root."""
    w, V = np.linalg.eigh(gram)
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def _halves(bit_generator, start: int, stop: int) -> np.ndarray:
    """int32 halves [start, stop) of the raw stream, drawn from a bit
    generator that stands at raw word start // 2."""
    raw = bit_generator.random_raw(-(-stop // 2) - start // 2)
    return raw.astype("<u8", copy=False).view("<i4")[start % 2 : start % 2 + stop - start]


def _bit_words(
    rng: np.random.Generator, users: int, n_bits: int, live: np.ndarray | None = None
) -> np.ndarray:
    """int32 words, shape (len(live), n_bits), negative where ``rng.integers(0,
    2, (users, n_bits))[live]`` would draw 1: the little-endian 32-bit halves of
    raw PCG64 words, whose top bits Lemire's method takes for range 2.

    ``live`` (sorted user indices, all users when None) selects the rows;
    the words of the other users are skipped by jump-ahead, and ``rng`` is
    left where the full draw leaves it.  One run of consecutive rows is
    returned from its own draw; several are copied in chunks of
    ``_BLOCK_BYTES`` so that no more than the selected words are held."""
    bg = rng.bit_generator
    # [start, stop) in int32 halves of the full draw, one per run of rows;
    # jump-ahead takes Python ints (a numpy int64 overflows)
    if live is None:
        spans = [(0, users * n_bits)]
    else:
        runs = np.split(live, np.flatnonzero(np.diff(live) != 1) + 1)
        spans = [(int(r[0]) * n_bits, (int(r[-1]) + 1) * n_bits) for r in runs]
    if len(spans) == 1:
        (h0, h1), = spans
        bg.advance(h0 // 2)
        words = _halves(bg, h0, h1)
    else:
        words = np.empty(sum(h1 - h0 for h0, h1 in spans), dtype="<i4")
        filled = pos = 0  # halves written; raw words drawn or skipped
        for h0, h1 in spans:
            bg.advance(h0 // 2 - pos)
            for r in range(h0 // 2, -(-h1 // 2), _BLOCK_BYTES // 8):
                lo, hi = max(h0, 2 * r), min(h1, 2 * r + _BLOCK_BYTES // 4)
                words[filled : filled + hi - lo] = _halves(bg, lo, hi)
                filled += hi - lo
            pos = -(-h1 // 2)
    bg.advance(-(-users * n_bits // 2) - -(-spans[-1][1] // 2))
    return words.reshape(-1, n_bits)


def _noise_amplitude(L: int, ebn0_db: float, snr_db: float) -> float:
    """Noise amplitude per chip, sigma^2 = L / (2 Eb/N0); raises when the
    point ``snr_db`` leaves no finite, positive sigma in float64."""
    try:
        sigma = math.sqrt(L / (2.0 * 10.0 ** (ebn0_db / 10.0)))
    except (OverflowError, ZeroDivisionError):
        sigma = math.nan
    if not 0.0 < sigma < math.inf:
        raise ValueError(
            f"snr_db value {snr_db!r} is out of range: Eb/N0 = {ebn0_db!r} dB at L = {L}"
            " gives no finite, positive noise amplitude"
        )
    return sigma


def simulate_ber(family: MultipleZczFamily, config: SimulationConfig) -> SimulationResult:
    """Estimate BER curves for the observed users (the first
    ``observed_per_cluster`` of every cluster) from the config's seed."""
    L = family.L
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    delays = rng.integers(
        0, config.max_delay_chips + 1, size=(config.clusters, config.users_per_cluster)
    )
    sig = _signature_matrix(family, config.clusters, config.users_per_cluster, delays)
    observed = [
        (c, u)
        for c in range(config.clusters)
        for u in range(config.observed_per_cluster)
    ]
    observed_rows = np.array(
        [c * config.users_per_cluster + u for c, u in observed], dtype=np.intp
    )
    G = _mai_matrix(sig, observed_rows)
    F = _noise_factor(G[observed_rows])

    # (noise amplitude per chip, SNR label) per point
    if config.noiseless:
        points = [(0.0, math.inf)]
        ebn0 = ()
    else:
        ebn0 = tuple(
            x if config.snr_axis == "bit" else x + 10.0 * math.log10(L) for x in config.snr_db
        )
        points = [(_noise_amplitude(L, e, db), db) for db, e in zip(config.snr_db, ebn0)]

    # A row of G that is exactly zero adds exactly +-0.0 to every statistic,
    # so only the other users' bits are drawn.
    live = np.any(G != 0.0, axis=1)
    live[observed_rows] = True
    live = np.flatnonzero(live)
    decided = np.searchsorted(live, observed_rows)  # observed rows within live
    users, n_live = sig.shape[0], live.size
    n_obs, n_bits = len(observed), config.bits_per_iteration
    width = max(1, min(n_bits, _BLOCK_BYTES // (8 * n_live)))
    neg_gt = -G[live].T  # a 1 bit sends +1 but is a negative word, whose copysign is -1
    signs, stats = np.empty(n_live * width), np.empty(n_obs * width)
    if not config.noiseless:
        normals, noise = np.empty((n_bits, n_obs)), np.empty((n_bits, n_obs))
    errors = np.zeros((len(points), n_obs), dtype=np.int64)
    for point_idx, (sigma, _) in enumerate(points):
        for iter_idx in range(config.iterations):
            rng = np.random.default_rng(
                np.random.SeedSequence(config.seed, spawn_key=(1, point_idx, iter_idx))
            )
            words = _bit_words(rng, users, n_bits, live)
            if sigma > 0.0:
                np.matmul(rng.standard_normal(out=normals), F, out=noise)
                noise *= sigma
            for j in range(0, n_bits, width):
                w = min(width, n_bits - j)
                block = np.copysign(1.0, words[:, j : j + w], out=signs[: n_live * w].reshape(n_live, w))
                st = np.matmul(neg_gt, block, out=stats[: n_obs * w].reshape(n_obs, w))
                if sigma > 0.0:
                    st += noise[j : j + w].T
                errors[point_idx] += ((st > 0) != (words[decided, j : j + w] < 0)).sum(axis=1)
            del words  # before the next iteration draws its own
    bits_per_point = config.bits_per_iteration * config.iterations

    curves = []
    for o_idx, (c, u) in enumerate(observed):
        pts = tuple(
            BerPoint(snr_db=db, errors=int(errors[p_idx, o_idx]), bits=bits_per_point)
            for p_idx, (_, db) in enumerate(points)
        )
        curves.append(UserBerCurve(cluster=c, user=u, points=pts))
    return SimulationResult(
        config=config, delays=delays, curves=tuple(curves), ebn0_db=ebn0,
        interfering_users=tuple(live.tolist()),
    )

