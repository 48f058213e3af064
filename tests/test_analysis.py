import hashlib
import json
import math
import os
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racklab import analysis
from racklab import (CheckParameterError, DegreeSplitError, Rack, chernoff_check,
                     conjugation_quandle, dihedral_quandle, find_W, out_degrees, rack_graph,
                     random_subset_check, symmetric_group_table, trivial_rack,
                     zeta_bound_sweep)
from racklab.codec import _zeta, _zeta_rows
from racklab.graph import least_colours

import _reference
from _corpus import commuting_rack, family_racks, pair_swap_rack, random_relabeling
from _reference import zeta_of_exact


def test_zeta_values():
    n = 6
    assert _zeta((n, 0, 0, 0, 0, 0)) == 0.0
    assert _zeta((0, n, 0, 0, 0, 0)) == n * n / 4
    # eta_1 = 1, eta_3 = 3: (1 + 1) * log2(3)
    val = _zeta((1, 0, 3, 0))
    assert abs(val - 2 * math.log2(3)) < 1e-12
    assert val <= 4


def test_zeta_exact():
    assert zeta_of_exact((0, 4, 0, 0)) == Fraction(4)
    assert zeta_of_exact((2, 0, 0, 2)) == Fraction(5, 2)
    assert zeta_of_exact((1, 0, 3, 0)) is None
    eta8 = (0, 4, 0, 4, 0, 0, 0, 0)
    exact = zeta_of_exact(eta8)
    assert exact == Fraction(12)
    assert abs(float(exact) - _zeta(eta8)) < 1e-12


def test_claim_gap_is_a_square_in_exact_coefficients():
    # (x+y)^2/8 - x^2/9 - xy/3 - (x-3y)^2/72 has x^2, xy and y^2 coefficients 0,
    # so (x+y)^2/8 >= x^2/9 + xy/3 with equality exactly at x = 3y
    def square(c, a, b):    # c (ax + by)^2 as its x^2, xy and y^2 coefficients
        return [c * a * a, 2 * c * a * b, c * b * b]

    terms = [square(Fraction(1, 8), 1, 1), [Fraction(-1, 9), 0, 0], [0, Fraction(-1, 3), 0],
             square(Fraction(-1, 72), 1, -3)]
    assert [sum(column) for column in zip(*terms)] == [0, 0, 0]


def test_zeta_sweep_small():
    for n in (1, 2, 4):
        report = zeta_bound_sweep(n)
        assert report["pass"], report
    r4 = zeta_bound_sweep(4)
    assert r4["statistic"]["max_zeta"] == 4.0
    assert r4["statistic"]["argmax"] == [0, 4, 0, 0]
    assert r4["statistic"]["equality_cases"] == [[0, 4, 0, 0]]
    r5 = zeta_bound_sweep(5)
    assert r5["pass"]
    assert r5["statistic"]["equality_cases"] == [[0, 5, 0, 0, 0]]
    report = zeta_bound_sweep(np.int64(5))    # a numpy n: a native report
    assert report == r5
    _assert_native(report)


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _assert_native(value):
    # numpy scalars would break canonical JSON and `report["pass"] is True`
    if isinstance(value, dict):
        for item in value.values():
            _assert_native(item)
    elif isinstance(value, list):
        for item in value:
            _assert_native(item)
    else:
        assert type(value) in (bool, int, float, str), (type(value), value)


def test_zeta_sweep_reports_are_pinned():
    # sha256 of the canonical JSON of the reports of the Fraction-per-row sweep
    exhaustive = [zeta_bound_sweep(n) for n in range(1, 11)]
    assert _digest(exhaustive) == \
        "970f95ac9e9325fd863c27fa175d9d1cd7075158744e4b447ed69f5edc120db2"
    for report in exhaustive:
        _assert_native(report)


def _assert_certificate_steps(eta):
    # the certificate's two steps on the numbers: L1 + L2 <= n, then AM-GM
    l1 = sum(e / q for q, e in enumerate(eta, start=1))
    l2 = sum(e * math.log2(q) / q for q, e in enumerate(eta, start=1))
    assert l1 + l2 <= len(eta) + 1e-9, eta
    assert _zeta_rows(np.array([eta], dtype=np.int64))[0] <= ((l1 + l2) / 2) ** 2 + 1e-9, eta


def test_certificate_steps_hold_on_every_composition():
    for n in range(1, 9):
        for eta in _reference.weak_compositions(n):
            _assert_certificate_steps(eta)


@pytest.mark.parametrize("n", list(range(11, 65)) + [100_000])
def test_zeta_sweep_certifies_above_ten(n):
    report = zeta_bound_sweep(n)
    two_only = [0 if q != 2 else n for q in range(1, n + 1)]
    assert report["pass"] is True
    assert report["params"] == {"n": n, "mode": "certificate", "count": n, "trials": 0}
    assert report["statistic"] == {"max_zeta": n * n / 4, "argmax": two_only,
                                   "equality_cases": [two_only], "tight_q": [1, 2]}
    assert report["bound"] == n * n / 4
    _assert_native(report)


def _assert_scored_like_reference(rows):
    n = len(rows[0])
    eta = np.array(rows, dtype=np.int64)
    exact = np.array([zeta_of_exact(row) is not None for row in rows])
    zeta, equal, over = analysis._score_block(n, _zeta_rows(eta), exact, eta[exact])
    for row, z, is_equal, is_over in zip(rows, zeta.tolist(), equal.tolist(), over.tolist()):
        ref = zeta_of_exact(row)
        if ref is None:
            ref_z = _reference.float_zeta(row)
            assert not is_equal and is_over == (ref_z > n * n / 4 + 1e-9), row
        else:
            bound = Fraction(n * n, 4)
            ref_z = float(ref)
            assert (is_equal, is_over) == (ref == bound, ref > bound), row
        assert z.hex() == ref_z.hex(), row


def test_score_block_matches_the_reference_on_every_composition():
    for n in range(1, 9):
        _assert_scored_like_reference(list(_reference.weak_compositions(n)))


def test_zeta_sweep_does_not_depend_on_the_block_size(monkeypatch):
    reports = [zeta_bound_sweep(n) for n in range(1, 7)]
    monkeypatch.setattr(analysis, "ZETA_BLOCK_ENTRIES", 7)  # one row per block at n >= 4
    assert [zeta_bound_sweep(n) for n in range(1, 7)] == reports


@st.composite
def _compositions(draw):
    n = draw(st.integers(1, 64))
    sizes = range(1, n + 1)
    if draw(st.booleans()):  # the exact path: every active size a power of two
        sizes = [q for q in sizes if q & (q - 1) == 0]
    eta = [0] * n
    for q in draw(st.lists(st.sampled_from(sizes), min_size=n, max_size=n)):
        eta[q - 1] += 1
    return eta


@settings(max_examples=200, deadline=None)
@given(_compositions())
@example([0, 64] + [0] * 62)
@example([0, 0, 0, 16] + [0] * 12)
def test_score_block_matches_the_reference_on_random_compositions(eta):
    _assert_scored_like_reference([eta])
    _assert_certificate_steps(eta)


def test_score_block_decides_equality_past_int64():
    # (nL)^2 = 2^64 here, so 4AB = (nL)^2 is compared in Python ints
    n = 1 << 16
    row = np.zeros((1, n), dtype=np.int64)
    row[0, 1] = n
    zeta, equal, over = analysis._score_block(n, _zeta_rows(row), np.array([True]), row)
    assert equal[0] and not over[0]
    assert zeta[0] == n * n / 4


def _walked(monkeypatch, n, cap):
    """zeta_bound_sweep(n)'s report under a block entry cap, with the walk's rows,
    float zetas (before the sweep overwrites exact rows with AB/L^2), exact
    flags and block lengths."""
    walk, blocks = analysis._walk, []

    def spy(n, size):
        for zeta, exact, rows in walk(n, size):
            blocks.append((rows(np.arange(len(zeta))).tolist(), zeta.tolist(), exact.tolist()))
            yield zeta, exact, rows

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "ZETA_BLOCK_ENTRIES", cap)
        patch.setattr(analysis, "_walk", spy)
        report = zeta_bound_sweep(n)
    rows, zeta, exact = ([x for block in blocks for x in block[i]] for i in range(3))
    return report, rows, zeta, exact, [len(block[0]) for block in blocks]


def test_walk_gives_every_composition_in_bounded_blocks(monkeypatch):
    for n in range(1, 11):
        report, rows, zeta, exact, sizes = _walked(monkeypatch, n, analysis.ZETA_BLOCK_ENTRIES)
        assert rows == [list(eta) for eta in _reference.weak_compositions(n)], n
        assert [z.hex() for z in zeta] == [_reference.float_zeta(row).hex() for row in rows], n
        assert exact == [all(e == 0 or q & (q - 1) == 0 for q, e in enumerate(row, start=1))
                         for row in rows], n
        assert all(1 <= size <= max(1, analysis.ZETA_BLOCK_ENTRIES // n) for size in sizes), n
        # blocks of 50 rows at n = 10, and of one row at n >= 4 (stopped at n = 8:
        # 92,378 one-row blocks take about 7 s)
        for cap in (500, 7) if n <= 8 else (500,):
            capped = _walked(monkeypatch, n, cap)
            assert capped[:4] == (report, rows, zeta, exact), (n, cap)
            assert all(1 <= size <= max(1, cap // n) for size in capped[4]), (n, cap)


def test_zeta_sweep_memory_stays_bounded():
    # the walk holds one block's levels at a time, about 0.5 MB at n = 10
    zeta_bound_sweep(10)
    tracemalloc.start()
    try:
        zeta_bound_sweep(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_zeta_sweep_matches_the_row_by_row_reference():
    for n in range(1, 11):
        assert zeta_bound_sweep(n) == _reference.zeta_sweep(n), n


def _exact_tails(n, p, eps):
    mean = n * p
    return (_reference.binomial_tail(n, p, lambda k: k >= (1 + eps) * mean),
            _reference.binomial_tail(n, p, lambda k: k <= (1 - eps) * mean))


# (n, p, eps): n = 0 and 1; thresholds on an integer ((1+eps)np, (1-eps)np =
# 3 and 1, 4 and 0, 6 and 4, 4 and 2); p next to 0 and 1; n = 2,000
TAIL_GRID = [(0, 0.5, 0.5), (1, 0.5, 0.5), (1, 0.3, 1.0), (4, 0.5, 0.5), (8, 0.25, 1.0),
             (10, 0.5, 0.2), (12, 0.25, 1 / 3), (37, 0.7, 0.3), (100, 1e-9, 1.0),
             (100, 0.999, 0.001), (2000, 1e-9, 0.5), (2000, 1 - 1e-9, 0.5), (2000, 0.3, 0.1)]


@pytest.mark.parametrize("n,p,eps", TAIL_GRID)
def test_tail_cells_match_exact_binomial_tails(n, p, eps):
    upper, lower = _exact_tails(n, p, eps)
    for block in (1 << 16, 7):    # one block, and many with the log carried across
        both, lower_only, upper_only, neither = analysis._tail_cells(n, p, eps, block).tolist()
        assert abs(both + upper_only - upper) <= 1e-12
        assert abs(both + lower_only - lower) <= 1e-12
        assert abs(both + lower_only + upper_only + neither - 1) <= 1e-12
        assert both == (1.0 if n == 0 else 0.0)


def test_chernoff_check_at_n_zero_counts_every_trial_in_both_tails():
    stat = chernoff_check(0, 0.5, 0.5, trials=1_000, seed=2)["statistic"]
    assert stat == {"upper_tail": 1.0, "lower_tail": 1.0}


def test_chernoff_check_at_large_n_is_fast_and_small():
    # the pmf window has about 20 sd = 290,000 terms here, summed in blocks
    start = time.perf_counter()
    report = chernoff_check(10**9, 0.3, 0.001, trials=20_000)
    assert time.perf_counter() - start < 1.0
    assert report["statistic"] == {"upper_tail": 0.0, "lower_tail": 0.0}
    tracemalloc.start()
    try:
        chernoff_check(10**9, 0.3, 0.001, trials=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n,p,eps", [(1000, 0.1, 0.5), (400, 0.2, 0.2), (50, 0.1, 1.0)])
def test_chernoff_tail_counts_follow_the_per_trial_law(n, p, eps):
    # drawn counts and one Binomial draw per trial both land within 4 SE of
    # the exact tails
    trials = 20_000
    exact = _exact_tails(n, p, eps)
    stat = chernoff_check(n, p, eps, trials=trials, seed=7)["statistic"]
    drawn = (stat["upper_tail"], stat["lower_tail"])
    per_trial = _reference.chernoff_trial_tails(n, p, eps, trials, seed=7)
    for estimates in (drawn, per_trial):
        for est, tail in zip(estimates, exact):
            assert abs(est - tail) <= 4 * math.sqrt(tail * (1 - tail) / trials) + 1e-12


def test_chernoff_check():
    report = chernoff_check(400, 0.2, 0.5, trials=20_000, seed=11)
    assert report["pass"], report
    assert report["statistic"]["upper_tail"] <= 1.0
    with pytest.raises(ValueError):
        chernoff_check(10, 0.0, 0.5, trials=10)
    with pytest.raises(ValueError):
        chernoff_check(10, 0.5, 1.5, trials=10)


def test_chernoff_deterministic_in_chunking():
    a = chernoff_check(100, 0.3, 0.5, trials=5_000, seed=3, chunk=1_000)
    b = chernoff_check(100, 0.3, 0.5, trials=5_000, seed=3, chunk=1_000)
    assert a == b


def test_analysis_thread_count_does_not_change_results():
    a = chernoff_check(100, 0.3, 0.5, trials=5_000, seed=3, chunk=500, threads=1)
    b = chernoff_check(100, 0.3, 0.5, trials=5_000, seed=3, chunk=500, threads=4)
    assert a == b
    s3 = conjugation_quandle(symmetric_group_table(3))
    ra = random_subset_check(s3, 0.5, 0.5, trials=2_000, seed=5, chunk=250, threads=1)
    rb = random_subset_check(s3, 0.5, 0.5, trials=2_000, seed=5, chunk=250, threads=3)
    assert ra == rb


def test_thread_pool_is_capped_at_the_cpu_count(monkeypatch):
    sizes = []

    class InlinePool:
        # records the pool size and runs each chunk here; starts no thread
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    serial = chernoff_check(100, 0.3, 0.5, trials=5_000, seed=3, chunk=500)
    monkeypatch.setattr(analysis, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert chernoff_check(100, 0.3, 0.5, trials=5_000, seed=3, chunk=500,
                          threads=100_000) == serial
    assert sizes == [3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert chernoff_check(100, 0.3, 0.5, trials=5_000, seed=3, chunk=500,
                          threads=100_000) == serial
    assert sizes == [3]


def test_random_subset_trivial_rack_vacuous():
    report = random_subset_check(trivial_rack(5), 0.5, 0.5, trials=500, seed=1)
    assert report["pass"]
    assert report["statistic"]["worst_vertex"]["vertex"] is None


def test_random_subset_p_one():
    s3 = conjugation_quandle(symmetric_group_table(3))
    report = random_subset_check(s3, 1.0, 0.5, trials=200, seed=2)
    # X is the whole set every time: the size tail (1+eps)n is never reached
    assert report["statistic"]["size_tail"] == 0.0
    assert report["pass"]


def test_random_subset_s3():
    s3 = conjugation_quandle(symmetric_group_table(3))
    report = random_subset_check(s3, 0.5, 0.5, trials=4_000, seed=7)
    assert report["pass"], report
    assert set(report["params"]) == {"n", "p", "eps", "trials"}


PROPERTY_RACKS = [rack for _, rack in family_racks(8)] + [
    commuting_rack(24, 2), pair_swap_rack(20, 3), dihedral_quandle(15)]


@st.composite
def _racks_with_colours(draw):
    rack = draw(st.sampled_from(PROPERTY_RACKS))
    return rack, draw(st.sets(st.integers(0, rack.n - 1)))


@settings(max_examples=300, deadline=None)
@given(_racks_with_colours())
def test_out_degree_towards_x_is_at_least_the_j_count(case):
    # why random_subset_check tallies only |J_v & X|: the out-degree of v in X's
    # graph is never smaller, so it is at or below the cap in no more trials
    rack, x = case
    j_count = np.isin(least_colours(rack.array), sorted(x)).sum(axis=1)
    assert (out_degrees(rack_graph(rack, x)) >= j_count).all()


def test_random_subset_medium_dihedral():
    report = random_subset_check(dihedral_quandle(30), 0.3, 0.5, trials=3_000, seed=5)
    assert report["pass"], report


def _subset_racks():
    rng = random.Random(17)
    racks = [("dihedral_51", dihedral_quandle(51)), ("dihedral_64", dihedral_quandle(64)),
             ("dihedral_101", dihedral_quandle(101)), ("dihedral_256", dihedral_quandle(256))]
    racks = [(name, random_relabeling(rng, rack)) for name, rack in racks]
    racks += [("commuting_48", commuting_rack(48, 3)), ("commuting_96", commuting_rack(96, 5)),
              ("pair_swap_64", pair_swap_rack(64, 1)),
              ("conj_s5", conjugation_quandle(symmetric_group_table(5)))]
    return [pytest.param(rack, id=name) for name, rack in racks]


# (p, eps, trials, chunk, threads): several chunks, one chunk, one trial per chunk;
# at p = 0.1, eps = 0.8 the cap (1 - eps) d p of d = 50 and 100 lies just below an
# integer, within the 1e-12 slack, and counts meet it on a few trials in a hundred
SUBSET_RUNS = [(0.3, 0.5, 1_400, 700, 1), (0.5, 0.2, 2_000, 2_000, 3), (0.1, 1.0, 5, 1, 1),
               (0.1, 0.8, 2_000, 700, 3)]


@pytest.mark.parametrize("rack", _subset_racks())
def test_random_subset_check_matches_the_row_by_row_tally(rack):
    for p, eps, trials, chunk, threads in SUBSET_RUNS:
        report = random_subset_check(rack, p, eps, trials, seed=9, chunk=chunk, threads=threads)
        assert report == _reference.random_subset_check(rack, p, eps, trials, seed=9,
                                                         chunk=chunk)


def test_random_subset_check_on_family_racks_matches_the_row_by_row_tally():
    cases = [(rack, *run) for _, rack in family_racks(8) for run in SUBSET_RUNS]
    cases += [(trivial_rack(1), 0.5, 0.5, 300, 700, 1),
              (conjugation_quandle(symmetric_group_table(3)), 1.0, 0.5, 300, 2_000, 3),
              (dihedral_quandle(65), 1.0, 0.5, 300, 700, 3)]
    for rack, p, eps, trials, chunk, threads in cases:
        report = random_subset_check(rack, p, eps, trials, seed=4, chunk=chunk, threads=threads)
        assert report == _reference.random_subset_check(rack, p, eps, trials, seed=4,
                                                         chunk=chunk), (rack.n, p, chunk)


def _stream(seed, mask):
    """A seeded raw-word stream for analysis._keep_blocks, masked, and the words
    it has handed out."""
    raw, drawn = np.random.default_rng(seed).bit_generator.random_raw, []

    def words(k):
        drawn.append(raw(k) & np.uint64(mask))
        return drawn[-1]
    return words, drawn


def _keep(n, b, p, seed, masks=(2**64 - 1, 2**64 - 1)):
    """The (trials, n) keep matrix of one chunk, its entries' bytes in trial-major
    order, and the tails drawn for its ties, in order."""
    (words, drawn), (tails, tail_words) = (_stream((seed, 0, s), m) for s, m in enumerate(masks))
    keep = np.concatenate(list(analysis._keep_blocks(n, b, p, words, tails)))
    draw = np.concatenate(drawn).astype("<u8").view(np.uint8)[:b * n].reshape(b, n)
    return keep, draw, np.concatenate(tail_words) >> 19


def test_keep_blocks_at_p_one_keeps_everything():
    keep, _, _ = _keep(37, 300, 1.0, seed=1)
    assert keep.shape == (300, 37) and keep.all()


def test_keep_blocks_at_one_half_keeps_the_bytes_below_128():
    # T = 2^52 = 128 2^45: byte 128 = T >> 45 is never kept, whatever its tail
    keep, draw, _ = _keep(37, 300, 0.5, seed=2)
    assert np.array_equal(keep, draw < 128)
    assert (draw == 128).any() and not keep[draw == 128].any()


def test_keep_blocks_at_two_to_minus_53_keeps_byte_and_tail_zero():
    # T = 1: only k = 0 is kept.  Bytes masked to {0, 1} and tails to {0, 1}
    # make both outcomes of the tie common
    keep, draw, tails = _keep(37, 300, 2.0 ** -53, seed=3,
                              masks=(0x0101010101010101, 1 << 19))
    want = np.zeros(draw.size, dtype=bool)
    ties = np.flatnonzero(draw == 0)
    assert len(tails) == len(ties) and set(np.unique(tails).tolist()) == {0, 1}
    want[ties] = tails == 0
    assert np.array_equal(keep, want.reshape(draw.shape))
    assert 0 < keep.sum() < (draw == 0).sum()
    keep, draw, _ = _keep(37, 300, 2.0 ** -53, seed=3)
    assert not keep.any() and (draw == 0).any()


@pytest.mark.parametrize("p", [0.3, 128.5 / 256])
def test_keep_blocks_frequency_is_ceil_p_2_53_over_2_53(p):
    law = math.ceil(p * 2 ** 53) / 2 ** 53
    keep, draw, _ = _keep(1_000, 1_000, p, seed=4)
    assert abs(keep.mean() - law) <= 4 * math.sqrt(law * (1 - law) / keep.size)
    if p == 128.5 / 256:        # T = 128 2^45 + 2^44: half the ties are kept
        tied = keep[draw == 128]
        assert abs(tied.mean() - 0.5) <= 4 * math.sqrt(0.25 / tied.size)


@pytest.mark.parametrize("rack, chunk", [
    pytest.param(conjugation_quandle(symmetric_group_table(3)), 500, id="conj_s3"),
    pytest.param(dihedral_quandle(64), 500, id="dihedral_64"),
    # 257 * 700 is not a multiple of 8: each chunk's last word is partly used
    pytest.param(dihedral_quandle(257), 700, id="dihedral_257"),
])
def test_random_subset_check_does_not_depend_on_block_or_threads(monkeypatch, rack, chunk):
    reports = []
    for block in (8, 64, 256, 4096):
        monkeypatch.setattr(analysis, "SUBSET_BLOCK", block)
        for threads in (1, 3):
            reports.append(random_subset_check(rack, 0.3, 0.2, 1_500, seed=11, chunk=chunk,
                                               threads=threads))
    assert all(report == reports[0] for report in reports)
    assert reports[0]["statistic"]["worst_vertex"]["estimate"] > 0


@pytest.mark.parametrize("chunk", [0, -5, 2.5])
def test_chunk_below_one_or_fractional_is_typed(chunk):
    s3 = conjugation_quandle(symmetric_group_table(3))
    with pytest.raises(CheckParameterError, match="chunk"):
        chernoff_check(100, 0.3, 0.5, trials=100, chunk=chunk)
    with pytest.raises(CheckParameterError, match="chunk"):
        random_subset_check(s3, 0.5, 0.5, trials=100, chunk=chunk)


def test_find_w_no_high_vertices():
    result = find_W(trivial_rack(6), delta=1, p=0.5, seed=0)
    assert result.certified and result.w == () and result.attempts == 0


def test_find_w_p_one():
    s3 = conjugation_quandle(symmetric_group_table(3))
    result = find_W(s3, delta=1, p=1.0, bad_threshold=1, max_attempts=5, seed=0)
    assert result.certified
    assert result.w == (0, 1, 2, 3, 4, 5)
    assert result.maps_match


def test_find_w_s3():
    s3 = conjugation_quandle(symmetric_group_table(3))
    result = find_W(s3, delta=1, p=0.8, bad_threshold=1, max_attempts=100, seed=42)
    assert result.certified and result.maps_match
    assert result.attempts <= 100
    report = result.to_report()
    assert report["pass"]


@pytest.mark.parametrize("p, threshold, attempts", [
    (0.0, 1, 5), (-1.0, 1, 5), (1.5, 1, 5), (math.nan, 1, 5), (0.5, math.nan, 5),
    (0.5, math.inf, 5), (0.5, -math.inf, 5), (0.5, 1, 0), (0.5, 1, -3), (0.5, 1, 2.5),
])
def test_find_w_parameters_out_of_range_are_typed(p, threshold, attempts):
    s3 = conjugation_quandle(symmetric_group_table(3))
    with pytest.raises(CheckParameterError, match="required"):
        find_W(s3, delta=1, p=p, bad_threshold=threshold, max_attempts=attempts)


@pytest.mark.parametrize("delta", [-1, -5, 1.5, True, False, "1", None])
def test_find_w_delta_not_a_non_negative_integer_is_typed(delta):
    # out-degree <= -1 never holds: every vertex would be high and nothing could certify
    s3 = conjugation_quandle(symmetric_group_table(3))
    with pytest.raises(CheckParameterError, match="delta: an integer >= 0 required"):
        find_W(s3, delta=delta, p=0.5)
    assert find_W(s3, delta=0, p=0.5, max_attempts=3).delta == 0


def test_find_w_unseparated_split_is_typed(monkeypatch):
    # D_5 is one component under all colours: with vertex 0 alone called
    # high, the sampled component of 0 holds low-degree vertices too
    monkeypatch.setattr(analysis, "degree_split",
                        lambda rack, delta: (tuple(range(1, rack.n)), (0,)))
    with pytest.raises(DegreeSplitError, match="not separated"):
        find_W(dihedral_quandle(5), delta=1, p=1.0, bad_threshold=0, seed=0)


# the ids keep the form they had while the sweep also took a trials argument
@pytest.mark.parametrize("n", [pytest.param(n, id=f"{n}-{trials}-n >= 1 required")
                               for n, trials in [(0, 0), (-3, 0), (2.5, 0), (11.5, 10),
                                                 (True, 0), ("3", 0)]])
def test_zeta_sweep_parameters_out_of_range_are_typed(n):
    with pytest.raises(CheckParameterError, match="n >= 1 required"):
        zeta_bound_sweep(n)


@pytest.mark.parametrize("check", [
    lambda trials: chernoff_check(100, 0.3, 0.5, trials),
    lambda trials: random_subset_check(trivial_rack(4), 0.5, 0.5, trials),
    lambda n: chernoff_check(n, 0.3, 0.5, 100),     # its message names n and trials
])
def test_fractional_trials_are_typed(check):
    for value in (2.5, 0.5, True):
        with pytest.raises(CheckParameterError, match="trials >= 1 required"):
            check(value)


@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_seed_not_a_non_negative_integer_is_typed(seed):
    # numpy's seeding raises its own ValueError for -1 and TypeError for 2.5, and takes True as 1
    with pytest.raises(CheckParameterError, match="seed >= 0, n >= 0 and trials >= 1 required"):
        chernoff_check(100, 0.3, 0.5, 100, seed=seed)
    with pytest.raises(CheckParameterError, match="seed >= 0 and trials >= 1 required"):
        random_subset_check(trivial_rack(4), 0.5, 0.5, 100, seed=seed)


def test_reports_from_numpy_integers_are_json_ready():
    s3 = conjugation_quandle(symmetric_group_table(3))
    pairs = [
        (chernoff_check(np.int64(100), 0.3, 0.5, np.int64(100), seed=np.int64(3)),
         chernoff_check(100, 0.3, 0.5, 100, seed=3)),
        (random_subset_check(s3, 0.5, 0.5, trials=np.int64(100), seed=np.uint32(3)),
         random_subset_check(s3, 0.5, 0.5, trials=100, seed=3)),
        (find_W(s3, np.int64(1), 0.8, bad_threshold=1, seed=42).to_report(),
         find_W(s3, 1, 0.8, bad_threshold=1, seed=42).to_report()),
    ]
    for report, native in pairs:
        assert report == native
        _assert_native(report)
        json.dumps(report)


def _outcome(find, *args):
    try:
        return find(*args)
    except DegreeSplitError as exc:
        return str(exc)


def test_find_w_matches_the_per_part_walk():
    # racks, whose conjugates always match, and unchecked permutation
    # families, whose conjugates mostly do not; every seed gives the same result
    rng = np.random.default_rng(5)
    families = [rack for _, rack in family_racks(8)] + [dihedral_quandle(64)]
    for n in (5, 9, 16):
        for _ in range(4):
            maps = np.array([rng.permutation(n) for _ in range(n)], dtype=np.int32)
            maps.flags.writeable = False
            families.append(Rack._unchecked(maps))
    outcomes = set()
    for rack in families:
        for delta, p, threshold, seed in ((1, 0.5, 0, 0), (1, 0.8, 1, 3), (2, 0.3, 0.5, 7)):
            args = (rack, delta, p, threshold, 20, seed)
            result = _outcome(find_W, *args)
            assert result == _outcome(_reference.find_W, *args)
            outcomes.add(result if isinstance(result, str) else result.maps_match)
    assert outcomes == {True, False, "degree split is not separated in the sampled graph"}


def test_find_w_exhausts_honestly():
    # an unreachable threshold can never certify: reported, not raised
    s3 = conjugation_quandle(symmetric_group_table(3))
    result = find_W(s3, delta=1, p=0.8, bad_threshold=10, max_attempts=5, seed=0)
    assert not result.certified
    assert result.attempts == 5
