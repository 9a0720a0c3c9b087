"""Multi-cluster uplink simulation: exactness, baselines, reproducibility."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    chip_level_errors,
    chip_signatures,
    find_interference_witness,
    noiseless_statistics,
    oracle_simulation_errors,
    theoretical_bpsk_ber,
    two_proportion_z,
)
from zczseq import (
    MultipleZczFamily,
    SimulationConfig,
    UnimodularSequence,
    assign_signatures,
    build_multiple_zcz,
    default_params,
    example1_params,
    pccf,
    simulate_ber,
)
from zczseq import qscdma
from zczseq.construction import path_gbf
from zczseq.gbf import GeneralizedBooleanFunction


def four_cluster_family():
    return build_multiple_zcz(default_params(2, 4, 2, 2))


def quaternary_family():
    """A certified q = 4 family whose chips have nonzero imaginary parts."""
    f = path_gbf(4, 4, 2, 2, (), (0, 1)) + GeneralizedBooleanFunction(4, 4, {(0,): 1, (1,): 3})
    return build_multiple_zcz(default_params(4, 4, 2, 2, f=f))


def octal_family():
    """A q = 8 family with odd exponents, so G is not an integer matrix."""
    f = path_gbf(8, 4, 2, 2, (), (0, 1)) + GeneralizedBooleanFunction(8, 4, {(0,): 1, (1,): 3})
    return build_multiple_zcz(default_params(8, 4, 2, 2, f=f))


def constant_family():
    """Four sets of eight all-ones q = 1 sequences: every user interferes."""
    seq = UnimodularSequence(1, np.zeros(256, dtype=np.int64))
    return MultipleZczFamily(params=None, sets=((seq,) * 8,) * 4, Z=0, Zc=0)


def test_assign_signatures_full_topology():
    fam = four_cluster_family()
    assignment = assign_signatures(fam, 4, 8)
    flat = [seq for cluster in assignment for seq in cluster]
    assert len(flat) == 32
    # all distinct signatures
    keys = {tuple(seq.exponents.tolist()) for seq in flat}
    assert len(keys) == 32


def test_assign_signatures_minimal_and_capacity():
    fam = four_cluster_family()
    assert len(assign_signatures(fam, 1, 1)[0]) == 1
    with pytest.raises(ValueError):
        assign_signatures(fam, 5, 8)
    with pytest.raises(ValueError):
        assign_signatures(fam, 4, 9)


def test_assign_signatures_checks_every_set():
    fam = four_cluster_family()
    short = dataclasses.replace(fam, sets=(*fam.sets[:3], fam.sets[3][:7]))
    with pytest.raises(ValueError, match="8 users per cluster requested but set 3 holds 7"):
        assign_signatures(short, 4, 8)
    assert [len(c) for c in assign_signatures(short, 3, 8)] == [8, 8, 8]


def test_theoretical_bpsk_values():
    assert theoretical_bpsk_ber(0.0) == pytest.approx(0.07864960352514257, rel=1e-12)
    assert theoretical_bpsk_ber(9.6) == pytest.approx(9.736176018578632e-06, rel=1e-12)
    assert theoretical_bpsk_ber(-200.0) == pytest.approx(0.5, abs=1e-6)
    xs = [theoretical_bpsk_ber(db) for db in np.linspace(-10, 12, 45)]
    assert all(a > b for a, b in zip(xs, xs[1:]))


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(clusters=0, users_per_cluster=1, max_delay_chips=0,
                         snr_db=(0,), seed=1)
    with pytest.raises(ValueError):
        SimulationConfig(clusters=1, users_per_cluster=1, max_delay_chips=0,
                         snr_db=(0,), seed=1, snr_axis="symbol")
    with pytest.raises(ValueError):
        SimulationConfig(clusters=1, users_per_cluster=1, max_delay_chips=0,
                         snr_db=(), seed=1)
    with pytest.raises(ValueError):
        SimulationConfig.from_json_dict({"clusters": 1})
    with pytest.raises(ValueError):
        SimulationConfig.from_json_dict(
            {"clusters": 1, "users_per_cluster": 1, "max_delay_chips": 0,
             "seed": 1, "snr_db": [0], "typo": 1}
        )


def test_noiseless_statistics_hit_the_peak_exactly():
    fam = four_cluster_family()
    rng = np.random.default_rng(21)
    for _ in range(5):
        delays = rng.integers(0, 4, size=(4, 8))
        bits = rng.integers(0, 2, size=(32, 50)) * 2 - 1
        stats = noiseless_statistics(fam, 4, 8, delays, bits)
        assert np.array_equal(stats, bits.T * 256)


def test_noiseless_simulation_is_error_free():
    fam = four_cluster_family()
    cfg = SimulationConfig(
        clusters=4, users_per_cluster=8, max_delay_chips=3, snr_db=(),
        seed=5, noiseless=True, bits_per_iteration=2000, iterations=3,
    )
    res = simulate_ber(fam, cfg)
    assert all(pt.errors == 0 for curve in res.curves for pt in curve.points)
    assert all(math.isinf(pt.snr_db) for curve in res.curves for pt in curve.points)


def test_delay_beyond_zone_admits_interference():
    fam = four_cluster_family()
    w = find_interference_witness(fam, 4)
    assert w is not None
    assert abs(w.shift) == 4 and abs(w.value) > 0
    assert find_interference_witness(fam, 3) is None


def test_witness_respects_zone_in_two_set_family():
    fam = build_multiple_zcz(example1_params())
    assert find_interference_witness(fam, 7) is None
    assert find_interference_witness(fam, 8) is not None


@pytest.mark.parametrize(
    "make_family, max_delay",
    [(four_cluster_family, 4), (four_cluster_family, 40), (four_cluster_family, 10_000),
     (quaternary_family, 40)],
)
def test_witness_is_an_exact_reachable_correlation(make_family, max_delay):
    fam = make_family()
    w = find_interference_witness(fam, max_delay)
    assert fam.Zc < abs(w.shift) <= max_delay
    assert w.cluster_a != w.cluster_b
    a = fam.sets[w.cluster_a][w.user_a]
    b = fam.sets[w.cluster_b][w.user_b]
    want = pccf(a, b, w.shift % fam.L)
    assert w.value == want != 0


def test_single_user_tracks_theory():
    fam = four_cluster_family()
    cfg = SimulationConfig(
        clusters=1, users_per_cluster=1, max_delay_chips=0, snr_db=(0.0, 4.0),
        seed=9, bits_per_iteration=10_000, iterations=10,
    )
    res = simulate_ber(fam, cfg)
    for pt in res.curves[0].points:
        theory = theoretical_bpsk_ber(pt.snr_db)
        sigma = math.sqrt(theory * (1 - theory) / pt.bits)
        assert abs(pt.ber - theory) < 3 * sigma


def test_chip_axis_shifts_the_curve():
    fam = four_cluster_family()
    base = dict(clusters=1, users_per_cluster=1, max_delay_chips=0, seed=9,
                bits_per_iteration=5000, iterations=4)
    per_bit = simulate_ber(fam, SimulationConfig(snr_db=(0.0,), **base))
    gain_db = 10 * math.log10(fam.L)
    per_chip = simulate_ber(
        fam, SimulationConfig(snr_db=(-gain_db,), snr_axis="chip", **base)
    )
    assert per_bit.ebn0_db[0] == pytest.approx(per_chip.ebn0_db[0])
    assert per_bit.curves[0].points[0].errors == per_chip.curves[0].points[0].errors


def test_seed_reproducibility():
    fam = four_cluster_family()
    cfg = SimulationConfig(
        clusters=2, users_per_cluster=4, max_delay_chips=3, snr_db=(0.0, 2.0),
        seed=13, bits_per_iteration=1000, iterations=6,
    )
    a = simulate_ber(fam, cfg)
    b = simulate_ber(fam, cfg)
    assert a.curves == b.curves
    assert np.array_equal(a.delays, b.delays)


def test_ber_is_monotone_up_to_confidence():
    fam = four_cluster_family()
    cfg = SimulationConfig(
        clusters=1, users_per_cluster=1, max_delay_chips=0,
        snr_db=(0.0, 2.0, 4.0, 6.0), seed=17, bits_per_iteration=5000, iterations=6,
    )
    pts = simulate_ber(fam, cfg).curves[0].points
    for lo, hi in zip(pts, pts[1:]):
        assert hi.ber <= lo.ber + lo.ci_halfwidth + hi.ci_halfwidth


def test_multi_user_matches_single_user_model():
    fam = four_cluster_family()
    common = dict(max_delay_chips=3, snr_db=(2.0,), seed=23,
                  bits_per_iteration=10_000, iterations=10)
    single = simulate_ber(
        fam, SimulationConfig(clusters=1, users_per_cluster=1, **common)
    ).curves[0].points[0]
    multi = simulate_ber(
        fam, SimulationConfig(clusters=4, users_per_cluster=8, **common)
    ).curves[0].points[0]
    # two-proportion z at a generous threshold for the quick test scale
    z = two_proportion_z(single.errors, single.bits, multi.errors, multi.bits)
    assert abs(z) < 3.5


@pytest.mark.parametrize(
    "make_family, seed", [(four_cluster_family, 7727), (quaternary_family, 41)]
)
def test_statistic_model_matches_chip_level_oracle(make_family, seed):
    """All 32 users observed with delays up to 40 chips, well beyond Zc = 3:
    interference is present and, for the binary family at this seed, the
    templates' Gram matrix is singular.  Per (user, point), the statistic
    model and the chip-level oracle agree by a two-proportion z test."""
    fam = make_family()
    cfg = SimulationConfig(
        clusters=4, users_per_cluster=8, observed_per_cluster=8, max_delay_chips=40,
        snr_db=(0.0, 6.0), seed=seed, bits_per_iteration=5000, iterations=4,
    )
    res = simulate_ber(fam, cfg)
    if fam.q == 2:
        assert np.linalg.matrix_rank(chip_signatures(fam, cfg, res.delays)) < 32
    oracle = chip_level_errors(fam, cfg, res.delays)
    for o_idx, curve in enumerate(res.curves):
        for p_idx, pt in enumerate(curve.points):
            z = two_proportion_z(pt.errors, pt.bits, int(oracle[p_idx, o_idx]), pt.bits)
            assert abs(z) < 4, (curve.cluster, curve.user, pt.snr_db, z)


# ---------------------------------------------------------------------------
# the allocation-lean loop: bit stream, oracle, memory


def _bit0_words(rng, users, n_bits):
    """Negative control: the bit read from bit 0 instead of bit 31."""
    return qscdma._bit_words(rng, users, n_bits) << 31


def _swapped_words(rng, users, n_bits):
    """Negative control: the high half of each raw word read first."""
    halves = rng.bit_generator.random_raw(-(-users * n_bits // 2)).view("<i4")
    return halves.reshape(-1, 2)[:, ::-1].ravel()[: users * n_bits].reshape(users, n_bits)


def _stream_mismatches(draw):
    """Cases where ``draw`` disagrees with ``rng.integers(0, 2)`` on the
    bits, or on the normals drawn after them."""
    bad = []
    for users, n_bits in ((1, 1), (3, 3), (5, 7), (32, 10_000)):
        for seed in (0, 13, 2**40 + 3):
            for key in ((1, 0, 0), (1, 2, 5), (7,)):
                want_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
                got_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
                want = want_rng.integers(0, 2, size=(users, n_bits))
                got = draw(got_rng, users, n_bits)
                same_bits = np.array_equal(got < 0, want == 1)
                same_noise = np.array_equal(
                    got_rng.standard_normal((n_bits, 3)), want_rng.standard_normal((n_bits, 3))
                )
                if not (same_bits and same_noise):
                    bad.append((users * n_bits, seed, key))
    return bad


def test_bit_words_draw_the_integers_stream():
    assert _stream_mismatches(qscdma._bit_words) == []
    assert len(_stream_mismatches(_bit0_words)) >= 9
    assert len(_stream_mismatches(_swapped_words)) >= 9


class _DeferredAdvance:
    """Stands for a generator and its bit generator, but applies each
    jump-ahead only at the next draw, so one after the last draw is lost."""

    def __init__(self, rng):
        self.bit_generator, self._bg, self._pending = self, rng.bit_generator, 0

    def advance(self, delta):
        self._pending += delta

    def random_raw(self, size):
        self._bg.advance(self._pending)
        self._pending = 0
        return self._bg.random_raw(size)


def _no_final_advance(rng, users, n_bits, live):
    """Negative control: the stream left after the last drawn row."""
    return qscdma._bit_words(_DeferredAdvance(rng), users, n_bits, live)


def _even_offset_words(rng, users, n_bits, live):
    """Negative control: each run of rows read from the low half of its
    first raw word, whatever half its first bit is."""
    flat = qscdma._bit_words(rng, users, n_bits).ravel()
    runs = np.split(live, np.flatnonzero(np.diff(live) != 1) + 1)
    starts = [int(r[0]) * n_bits // 2 * 2 for r in runs]
    return np.concatenate(
        [flat[h : h + r.size * n_bits] for h, r in zip(starts, runs)]
    ).reshape(-1, n_bits)


def _row_sets(users):
    """First user, last user, all users, adjacent runs, non-adjacent users,
    every other user, and a long run after a gap."""
    sets = ([0], [users - 1], range(users), [1, 2, 4, 5, 6], [0, users // 2 + 1],
            range(0, users, 2), range(1, users, 2), [0, *range(2, users)])
    return sorted({tuple(v for v in rows if v < users) for rows in sets} - {()})


def _live_stream_mismatches(draw):
    """Cases where ``draw`` disagrees with ``rng.integers(0, 2)`` on the
    bits of the selected rows, or on the normals drawn after all bits."""
    bad = []
    for users, n_bits in itertools.product((1, 2, 3, 5, 32), (1, 2, 3, 7, 10_000)):
        for rows in _row_sets(users):
            live = np.array(rows, dtype=np.intp)
            for seed in (0, 13, 2**40 + 3):
                for key in ((1, 0, 0), (1, 2, 5), (7,)):
                    want_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
                    got_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
                    want = want_rng.integers(0, 2, size=(users, n_bits))[live]
                    got = draw(got_rng, users, n_bits, live)
                    same_bits = got.shape == want.shape and np.array_equal(got < 0, want == 1)
                    same_noise = np.array_equal(
                        got_rng.standard_normal((n_bits, 3)),
                        want_rng.standard_normal((n_bits, 3)),
                    )
                    if not (same_bits and same_noise):
                        bad.append((users, n_bits, rows, seed, key))
    return bad


@pytest.mark.parametrize("block_bytes", [qscdma._BLOCK_BYTES, 64], ids=["default", "tiny-chunks"])
def test_bit_words_of_live_rows_skip_the_others_in_the_stream(monkeypatch, block_bytes):
    """Runs of rows drawn with jump-ahead over the rows between them equal
    those rows of the full draw, and leave the stream where it leaves it;
    tiny chunks copy every run in pieces, from odd half-words too."""
    monkeypatch.setattr(qscdma, "_BLOCK_BYTES", block_bytes)
    assert _live_stream_mismatches(qscdma._bit_words) == []
    if block_bytes == 64:
        return
    assert len(_live_stream_mismatches(_no_final_advance)) >= 100
    assert len(_live_stream_mismatches(_even_offset_words)) >= 100


def _width(users):
    return qscdma._BLOCK_BYTES // (8 * users)


def _spy_on_the_draw(monkeypatch):
    """The rows every ``_bit_words`` call of a run returns, as tuples."""
    draw, drawn = qscdma._bit_words, []

    def spy(rng, users, n_bits, live=None):
        words = draw(rng, users, n_bits, live)
        rows = range(users) if live is None else live.tolist()
        assert words.shape == (len(rows), n_bits)
        drawn.append(tuple(rows))
        return words

    monkeypatch.setattr(qscdma, "_bit_words", spy)
    return drawn


@pytest.mark.parametrize(
    "make_family, clusters, users, observed, n_bits, snr_db, max_delay",
    [
        (four_cluster_family, 4, 8, 1, lambda w: 1, (-10.0, 0.0), 40),
        (four_cluster_family, 4, 8, 8, lambda w: w // 3, (2.0,), 40),
        (four_cluster_family, 4, 8, 2, lambda w: 2 * w + 7, (0.0, 6.0), 40),
        (four_cluster_family, 4, 8, 8, lambda w: w, (), 40),
        (constant_family, 1, 3, 3, lambda w: 333, (8.0,), 40),
        (constant_family, 2, 8, 8, lambda w: w + 1, (10.0,), 40),
        (quaternary_family, 4, 8, 8, lambda w: 2 * w + 7, (0.0, 6.0), 40),
        (octal_family, 4, 8, 8, lambda w: 2 * w + 7, (0.0, 6.0), 40),
        (octal_family, 2, 5, 2, lambda w: 1, (-10.0,), 40),
        (four_cluster_family, 3, 5, 1, lambda w: 2 * w + 7, (-10.0, 0.0), 3),
        (quaternary_family, 4, 8, 2, lambda w: 2 * w + 7, (0.0, 6.0), 3),
        (four_cluster_family, 4, 8, 1, lambda w: 2 * w + 7, (0.0, 6.0), 4),
    ],
    ids=["q2-one-bit", "q2-under-a-block", "q2-ragged", "q2-noiseless-one-block",
         "q1-odd-count", "q1-block-plus-one", "q4-ragged", "q8-ragged", "q8-odd-one-bit",
         "q2-within-zc-odd-offsets", "q4-within-zc", "q2-one-beyond-zc"],
)
def test_simulation_loop_matches_the_integers_oracle(
    monkeypatch, make_family, clusters, users, observed, n_bits, snr_db, max_delay
):
    """Equal error counts per (point, user) to the loop that drew every
    user's bits.  With delays up to 40 chips users interfere; up to Zc = 3
    only the observed users are drawn, and at 4 some of the others.  The
    q = 8 statistics may differ in the last place."""
    fam = make_family()
    cfg = SimulationConfig(
        clusters=clusters, users_per_cluster=users, observed_per_cluster=observed,
        max_delay_chips=max_delay, snr_db=snr_db, noiseless=not snr_db,
        seed=61 + clusters * users, bits_per_iteration=n_bits(_width(clusters * users)),
        iterations=3,
    )
    drawn = _spy_on_the_draw(monkeypatch)
    res = simulate_ber(fam, cfg)
    got = np.array([[pt.errors for pt in curve.points] for curve in res.curves]).T
    want = oracle_simulation_errors(fam, cfg)
    assert np.array_equal(got, want), (got, want)
    assert want.any()
    assert drawn == [res.interfering_users] * (3 * max(1, len(snr_db)))
    observed_rows = {c * users + u for c in range(clusters) for u in range(observed)}
    if max_delay <= fam.Zc:
        assert set(res.interfering_users) == observed_rows
    elif max_delay == fam.Zc + 1:
        assert observed_rows < set(res.interfering_users) < set(range(clusters * users))


@pytest.mark.parametrize(
    "max_delay, observed, seed, rows",
    [(3, 1, seed, (0, 8, 16, 24)) for seed in range(1, 11)]
    + [(40, 8, 34, tuple(range(32)))],
    ids=[f"bench-seed-{seed}" for seed in range(1, 11)] + ["delays-40"],
)
def test_simulation_draws_only_the_interfering_users(monkeypatch, max_delay, observed, seed, rows):
    """The four-cluster (2,4,2,2) system of 4 x 8 users: within Zc each
    iteration draws the observed users' rows alone; at delays up to 40
    chips, with every user observed, it draws all 32."""
    cfg = SimulationConfig(
        clusters=4, users_per_cluster=8, observed_per_cluster=observed,
        max_delay_chips=max_delay, snr_db=(0.0, 2.0), seed=seed,
        bits_per_iteration=100, iterations=2,
    )
    drawn = _spy_on_the_draw(monkeypatch)
    res = simulate_ber(four_cluster_family(), cfg)
    assert res.interfering_users == rows
    assert drawn == [rows] * 4


def _traced_peak(fn, *args):
    fn(*args)  # warm up lazy imports and caches outside the trace
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_is_one_iterations_words_plus_noise(monkeypatch):
    """4 bytes per interfering user-bit of words and 16 per observed
    user-bit of noise: within Zc the 4 observed users of 32, at delays up
    to 40 chips with every user observed all 32."""
    fam = four_cluster_family()
    cases = [  # (config, interfering users)
        (SimulationConfig(clusters=4, users_per_cluster=8, max_delay_chips=3, snr_db=(4.0,),
                          seed=3, bits_per_iteration=200_000, iterations=2), 4),
        (SimulationConfig(clusters=4, users_per_cluster=8, observed_per_cluster=8,
                          max_delay_chips=40, snr_db=(4.0,), seed=3,
                          bits_per_iteration=50_000, iterations=2), 32),
    ]
    # negative control: words that outlive their iteration double them
    draw, kept = qscdma._bit_words, []

    def keeping_words(rng, users, n_bits, live):
        kept[:] = [draw(rng, users, n_bits, live)]
        return kept[0]

    for cfg, n_live in cases:
        n_obs, n_bits = 4 * cfg.observed_per_cluster, cfg.bits_per_iteration
        assert len(simulate_ber(fam, cfg).interfering_users) == n_live
        bound = 4 * n_live * n_bits + 16 * n_obs * n_bits + 4 * qscdma._BLOCK_BYTES + 2**20
        assert _traced_peak(simulate_ber, fam, cfg) < bound
        with monkeypatch.context() as patch:
            patch.setattr(qscdma, "_bit_words", keeping_words)
            assert _traced_peak(simulate_ber, fam, cfg) > bound
