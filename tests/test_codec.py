import hashlib
import math
import random
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racklab import (CodecParams, CorruptStream, EncodeConsistencyError,
                     InconsistentDecode, OrderTooLargeForHeader, Rack, build_info,
                     conjugation_quandle, decode, degree_split, dihedral_quandle,
                     encode, encode_with_stats, encoding_stats, enumerate_labeled,
                     extract_residual, merge_bound_audit, permutation_rack,
                     rack_graph, symmetric_group_table, trivial_rack)
from racklab import codec, core, perms
from racklab.bits import BitWriter
from racklab.codec import MAGIC, CodecError, CodecParamsError
from racklab.core import dihedral_group_table
from racklab.graph import ColoredDigraph, bfs_forest, part_merges

from _corpus import (broadcast_trivial_rack, commuting_rack, family_racks, from_cycles,
                     is_subrack, pair_swap_rack, param_grid, random_relabeling,
                     unchecked_non_rack)
from _reference import (compose, count_components_with, graph_components, identity, inverse,
                        merged_part_indices, out_degrees)
from _reference import decode as reference_decode

# encode(trivial_rack(3)) with default parameters (delta=4, cap_l=2), frozen
CONFORMANCE_TRIVIAL_3 = bytes.fromhex("524b4531000300040002f0e1c3840000")


def test_codec_params():
    assert CodecParams.default(3) == CodecParams(4, 2)
    assert CodecParams.default(8) == CodecParams(27, 9)
    assert CodecParams.default(1) == CodecParams(1, 0)
    with pytest.raises(CodecParamsError):
        CodecParams(0, 1)
    with pytest.raises(CodecParamsError):
        CodecParams(1, -1)
    with pytest.raises(CodecParamsError):
        CodecParams(1 << 16, 0)


def test_degree_split():
    low, high = degree_split(trivial_rack(4), 1)
    assert low == (0, 1, 2, 3) and high == ()
    low, high = degree_split(dihedral_quandle(3), 1)
    assert low == () and high == (0, 1, 2)
    low, high = degree_split(dihedral_quandle(3), 2)
    assert low == (0, 1, 2) and high == ()
    s3 = conjugation_quandle(symmetric_group_table(3))
    low, high = degree_split(s3, 1)
    assert len(low) + len(high) == 6 and low and high
    assert is_subrack(s3, low) and is_subrack(s3, high)


def test_degree_split_matches_graph_out_degrees():
    rng = random.Random(19)
    racks = [rack for _, rack in family_racks(8)] + [unchecked_non_rack()]
    racks.append(random_relabeling(rng, conjugation_quandle(symmetric_group_table(4))))
    for rack in racks:
        degs = out_degrees(rack_graph(rack))
        for delta in range(rack.n + 1):
            low, high = degree_split(rack, delta)
            assert low == tuple(v for v in range(rack.n) if degs[v] <= delta)
            assert high == tuple(v for v in range(rack.n) if degs[v] > delta)


def test_greedy_t():
    def greedy_t(rack, delta, cap_l):
        return build_info(rack, CodecParams(delta, cap_l)).t_order
    assert greedy_t(dihedral_quandle(3), 1, 5) == ()  # empty low set: all degrees are 2
    assert greedy_t(trivial_rack(5), 1, 2) == (0, 1)  # all ties, label order
    assert greedy_t(trivial_rack(5), 1, 0) == ()
    assert greedy_t(dihedral_quandle(3), 2, 1) == (0,)


def test_build_info_dihedral3():
    # hand expansion: T = {0}, the graph of colour 0 is the double edge 1-2
    # plus the isolated vertex 0; colours 1 and 2 merge both components
    info = build_info(dihedral_quandle(3), CodecParams(2, 1))
    assert info.s_low == (0, 1, 2) and info.s_high == ()
    assert info.t_order == (0,)
    assert info.forest.parts == ((0,), (1, 2))
    assert info.t_plus == (0, 1, 2)
    assert info.t_restrictions.tolist() == [[0], [2], [1]]
    assert info.s_low_minus_t == (1, 2)
    assert info.merge_lists == ((0, 1), (0, 1))
    assert info.merged_vertices(0) == (0, 1, 2)  # colour 1 merges (0,) and (1, 2)
    assert info.merged_images.tolist() == [2, 1, 0, 1, 0, 2]    # f_1, then f_2, on (0, 1, 2)


def test_build_info_trivial():
    info = build_info(trivial_rack(4), CodecParams(1, 2))
    assert info.s_high == () and info.high_maps.shape == (0, 4)
    assert info.t_order == (0, 1)
    assert all(ms == () for ms in info.merge_lists)
    assert info.merged_images.size == 0
    assert info.forest.parts == ((0,), (1,), (2,), (3,))


def test_extract_residual_trivial():
    rack = trivial_rack(4)
    info = build_info(rack, CodecParams(1, 0))
    res = extract_residual(rack, info)
    # T is empty: every singleton is an undetermined representative and every
    # component is unmerged, but a singleton's index takes no bits, so no
    # entry is stored
    assert res.entries == ()
    assert sum(width for _, _, width, _ in res.entries) == 0
    cp = len(info.forest.parts)
    assert len(res.entries) <= cp * cp


def test_residual_nontrivial():
    # all translations equal to (0 1 2)(3 4 5): with T = (0) the second
    # component's representative 3 is undetermined and nothing is merged, so
    # it stores one 2-bit index per component (hand derivation)
    rack = permutation_rack(from_cycles(6, [(0, 1, 2), (3, 4, 5)]))
    params = CodecParams(1, 1)
    info = build_info(rack, params)
    assert info.t_order == (0,)
    assert info.t_plus == (0, 1)
    assert info.forest.parts == ((0, 1, 2), (3, 4, 5))
    res = extract_residual(rack, info)
    assert res.entries == ((3, 0, 2, 1), (3, 1, 2, 1))
    assert sum(width for _, _, width, _ in res.entries) == 4
    data, st = encode_with_stats(rack, params)
    assert st.residual_bits == 4
    assert abs(st.zeta - 4 * math.log2(3)) < 1e-12
    assert decode(data) == rack


def test_corpus_exercises_residual():
    hits = 0
    for _, rack in family_racks(8):
        for params in param_grid(rack.n):
            hits += encoding_stats(rack, params).residual_bits > 0
    assert hits >= 20


def test_extract_residual_mismatch_raises():
    r1 = permutation_rack(from_cycles(4, [(0, 1, 2, 3)]))
    r2 = permutation_rack(from_cycles(4, [(0, 1)]))
    info = build_info(r2, CodecParams(1, 0))
    with pytest.raises(EncodeConsistencyError):
        extract_residual(r1, info)


def test_round_trip_exhaustive_small():
    for n in (1, 2, 3):
        for rack in enumerate_labeled(n):
            for params in param_grid(n):
                assert decode(encode(rack, params)) == rack


def test_round_trip_families():
    rng = random.Random(4)
    for _, rack in family_racks(8):
        for params in param_grid(rack.n):
            assert decode(encode(rack, params)) == rack
        relabeled = random_relabeling(rng, rack)
        assert decode(encode(relabeled)) == relabeled


def test_commuting_rack_round_trips():
    # many 3-vertex components; with seed 4 the greedy needs two picks to merge them
    for seed in (1, 4):
        rack = commuting_rack(48, seed)
        for params in param_grid(rack.n):
            assert decode(encode(rack, params)) == rack


def test_pair_swap_rack_round_trips_at_256():
    # 2^(n^2/4) such racks: a high-entropy rack at the paper's lower bound
    params = CodecParams(1, 4)
    for quandle in (False, True):
        rack = pair_swap_rack(256, 1, quandle)
        data, stats = encode_with_stats(rack, params)
        result = decode(data)
        assert result == rack and result.array.dtype == np.int32
        assert encode(result, params) == data
        assert stats.residual_bits > 0


def test_encode_deterministic():
    s3 = conjugation_quandle(symmetric_group_table(3))
    assert encode(s3) == encode(s3)
    assert encode(s3, CodecParams(1, 1)) == encode(s3, CodecParams(1, 1))


def test_stats_trivial_zeta_zero():
    st = encoding_stats(trivial_rack(8))
    assert st.eta == (8, 0, 0, 0, 0, 0, 0, 0)
    assert st.zeta == 0.0
    assert st.cp == 8
    assert st.residual_bits == 0


def test_stats_equality_case():
    # all components of the T-graph have size two: zeta hits n^2/4 exactly
    rack = permutation_rack(from_cycles(4, [(0, 1), (2, 3)]))
    st = encoding_stats(rack)
    assert st.eta == (0, 4, 0, 0)
    assert st.zeta == 4.0 == st.bound


def test_stats_dihedral3():
    st = encoding_stats(dihedral_quandle(3), CodecParams(2, 1))
    assert st.eta == (1, 2, 0)
    assert st.cp == 2
    assert abs(st.zeta - 2.0) < 1e-12
    assert st.zeta <= st.bound + 1e-9
    assert st.header_bits == 53
    assert st.residual_bits == 0


def test_residual_accounting_over_corpus():
    rng = random.Random(6)
    for _, rack in family_racks(8):
        for params in param_grid(rack.n):
            data, st = encode_with_stats(rack, params)
            assert st.zeta <= st.bound + 1e-9
            assert st.residual_bits <= math.ceil(st.zeta) + st.cp
            assert len(data) == st.total_bytes
        relabeled = random_relabeling(rng, rack)
        st = encoding_stats(relabeled)
        assert st.residual_bits <= math.ceil(st.zeta) + st.cp


def overshoot_rack():
    """n = 30: f_a = id for a < 15, f_b = (0 1 2)(3 4 5)...(12 13 14) for b >= 15."""
    triples = from_cycles(30, [(i, i + 1, i + 2) for i in range(0, 15, 3)])
    return Rack([identity(30)] * 15 + [triples] * 15)


def test_overshoot_rack_round_trips():
    rack = overshoot_rack()
    assert decode(encode(rack, CodecParams(2, 2))) == rack


@pytest.mark.xfail(strict=True, reason="RKE1 rounds every residual entry up to whole bits: "
                   "180 residual bits against ceil(zeta) + cp = 179")
def test_residual_bound_on_many_size_3_components():
    stats = encoding_stats(overshoot_rack(), CodecParams(2, 2))
    assert stats.residual_bits <= math.ceil(stats.zeta) + stats.cp


def test_conformance_vector():
    data = encode(trivial_rack(3))
    assert data == CONFORMANCE_TRIVIAL_3
    assert decode(CONFORMANCE_TRIVIAL_3) == trivial_rack(3)


# sha256 of encode(dihedral_quandle(n), params), whose Lehmer ranks are far
# wider than 64 bits and start at all eight bit offsets of a byte; frozen
FROZEN_DIHEDRAL_STREAMS = [
    (64, None, "472e8f6d4665d11bfd4b43a33bbc8426ea6f0295543d4595c814de57981bb225"),
    (64, CodecParams(1, 1), "711fd1c8588919b7e384ed3e1c52a27a1c1a6872b5ac379a9fe4611fca101780"),
    (97, None, "04778d0fc181e67178b0a4080dee8d244ddec131d94bcb55db88ed776d68e7a6"),
    (97, CodecParams(1, 1), "f1bbc1c24224d402d37f95e61897bbf80319f3f47fea04f82f100f42835a3df5"),
]


@pytest.mark.parametrize("n, params, digest", FROZEN_DIHEDRAL_STREAMS)
def test_frozen_dihedral_streams(n, params, digest):
    rack = dihedral_quandle(n)
    data = encode(rack, params)
    assert hashlib.sha256(data).hexdigest() == digest
    assert decode(data) == rack


# sha256 of encode(permutation_rack(sigma)) at default parameters for the
# sparse benchmark shapes at n = 256, whose residuals are 44k mostly
# zero-width entries and whose T-graphs have 128 and 244 parts; frozen
FROZEN_SPARSE_STREAMS = [
    ("all_2_cycles", [(i, i + 1) for i in range(0, 256, 2)],
     "c78ffe5943cfb09b38c098d82f2e45c3358b7569f3a74ea2e53792a988af5bc6"),
    ("four_4_cycles", [tuple(range(i, i + 4)) for i in range(0, 16, 4)],
     "e47a31b5375416f7ddfaa336835f2ce9d8be7850a655255b47f7090c41af822b"),
]


@pytest.mark.parametrize("name, cycles, digest", FROZEN_SPARSE_STREAMS)
def test_frozen_sparse_streams(name, cycles, digest):
    rack = permutation_rack(from_cycles(256, cycles))
    data = encode(rack)
    assert hashlib.sha256(data).hexdigest() == digest
    assert decode(data) == rack


def _outcome(decoder, data):
    try:
        return decoder(data).maps
    except CodecError as exc:
        return type(exc), str(exc)


def _corpus_streams():
    return [encode(rack, params) for _, rack in family_racks(8) for params in param_grid(rack.n)]


def test_decode_matches_the_per_part_decoder_on_bit_flips():
    # a sample of the single-bit flips after the header of the corpus streams:
    # the same rack, or the same exception type and message, in either decoder
    flips = [(data, bit) for data in _corpus_streams() for bit in range(80, 8 * len(data))]
    outcomes = set()
    for data, bit in random.Random(12).sample(flips, 3000):
        corrupt = bytearray(data)
        corrupt[bit // 8] ^= 0x80 >> bit % 8
        expected = _outcome(reference_decode, bytes(corrupt))
        assert _outcome(decode, bytes(corrupt)) == expected
        outcomes.add(expected[0] if isinstance(expected[0], type) else Rack)
    assert outcomes == {CorruptStream, InconsistentDecode, Rack}


def test_decode_matches_the_per_part_decoder_on_truncations():
    # every prefix of the corpus streams that holds the header; many end inside
    # field 4, whose over-running colour is read field by field
    cases = 0
    for data in _corpus_streams():
        for end in range(10, len(data)):
            assert _outcome(decode, data[:end]) == _outcome(reference_decode, data[:end])
            cases += 1
    assert cases == 3666


@pytest.mark.parametrize("m", [1, 7, 8, 9, 30, 64, 65, 256])
def test_bitmap_fields_are_the_bits_of_write_bitmap(m):
    rng = np.random.default_rng(m)
    mask = rng.random((5, m)) < 0.4
    mask[0] = False
    one_by_one, block = BitWriter(), BitWriter()
    for row in mask:
        one_by_one.write_bitmap(np.flatnonzero(row).tolist(), m)
    values = codec._bitmap_fields(mask)
    block.write_varblock(values.ravel(), np.tile(codec._bitmap_widths(m), len(mask)))
    assert block.getvalue() == one_by_one.getvalue()
    assert (codec._bitmap_members(values, m) == mask).all()


def _merged_fields(rack, params):
    """(stream, field 6 start, field 7 start, field 7 end, nonempty merge lists),
    as bit positions in the stream, 10-byte header included."""
    data, stats, info = codec._encode_with_info(rack, params)
    lists = len(info.s_low_minus_t)
    field6 = lists * len(info.forest.parts)
    field7 = lists * rack.n + len(info.merged_images) * (rack.n - 1).bit_length()
    end = 80 + stats.header_bits
    return data, end - field7 - field6, end - field7, end, int(info.merged.any(axis=1).sum())


def test_decode_matches_the_per_part_decoder_inside_fields_6_and_7():
    # bit flips inside the merge lists and the merged blocks, and cuts inside
    # field 7, of racks with many merge lists: the same outcome in either decoder
    rng = random.Random(67)
    outcomes, nonempty = set(), 0
    for make in (commuting_rack, pair_swap_rack):
        for n in (30, 48):
            rack = make(n, 1)
            for params in param_grid(n):
                data, start6, start7, end7, lists = _merged_fields(rack, params)
                nonempty += lists
                if start6 == end7:
                    continue
                cases = []
                for bit in rng.sample(range(start6, end7), min(16, end7 - start6)):
                    corrupt = bytearray(data)
                    corrupt[bit // 8] ^= 0x80 >> bit % 8
                    cases.append(bytes(corrupt))
                cuts = range(start7 // 8 + 1, (end7 - 1) // 8 + 1)
                cases += [data[:end] for end in rng.sample(cuts, min(4, len(cuts)))]
                for case in cases:
                    expected = _outcome(reference_decode, case)
                    assert _outcome(decode, case) == expected
                    if isinstance(expected[0], type):
                        outcomes.add(re.sub(r"\d+", "#", expected[1]))
    assert nonempty > 100
    assert {"merged domain mismatch for colour #", "vertex # out of range",
            "merged block of colour # is not preserved", "need # bits at position #"} <= outcomes


# the nine single-bit flips of the corpus streams, all in conj_s3 under
# CodecParams(1, 1), after which field 5 gives a high colour of T+ a map
# other than the one field 2 holds
@pytest.mark.parametrize("bit, colour", [(129, 1), (130, 2), (139, 5), (148, 5), (156, 1),
                                         (157, 2), (165, 1), (166, 2), (175, 5)])
def test_decode_matches_the_per_part_decoder_on_conflicting_maps(bit, colour):
    corrupt = bytearray(encode(conjugation_quandle(symmetric_group_table(3)), CodecParams(1, 1)))
    corrupt[bit // 8] ^= 0x80 >> bit % 8
    expected = (InconsistentDecode, f"conflicting maps for colour {colour}")
    assert _outcome(reference_decode, bytes(corrupt)) == expected
    assert _outcome(decode, bytes(corrupt)) == expected


def test_conflicting_map_is_reported_before_a_truncated_rank():
    # bit 129 makes high colour 1 the first colour of T+ in conj_s3 under
    # CodecParams(1, 1); cut to 24 bytes, the stream holds that field-5 rank
    # in full and ends inside the next one, which is never read
    data = encode(conjugation_quandle(symmetric_group_table(3)), CodecParams(1, 1))
    assert _outcome(decode, data[:24]) == (CorruptStream, "need 10 bits at position 106")
    corrupt = bytearray(data[:24])
    corrupt[129 // 8] ^= 0x80 >> 129 % 8
    expected = (InconsistentDecode, "conflicting maps for colour 1")
    assert _outcome(reference_decode, bytes(corrupt)) == expected
    assert _outcome(decode, bytes(corrupt)) == expected


def test_short_stream_with_huge_order_fails_before_factorial(monkeypatch):
    # the header claims n = 65535, but 4 body bytes cannot hold the n-bit
    # low-degree bitmap; n! must not be computed to find that out
    def no_factorial(k):
        raise AssertionError(f"factorial({k}) computed")

    monkeypatch.setattr(math, "factorial", no_factorial)
    data = MAGIC + bytes.fromhex("ffff00010001") + bytes(4)
    with pytest.raises(CorruptStream, match="^need 1 bits at position 32$"):
        decode(data)


def test_stream_too_short_for_the_maps_fails_before_allocating_them():
    # n = 30000, every colour low and T empty: field 4 alone needs n^2 bits,
    # so the stream ends inside it, before the n x n maps (3.6 GB) are made
    data = MAGIC + struct.pack(">HHH", 30000, 1, 0) + b"\xff" * 3750 + bytes(4)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStream, match="^need 1 bits at position 30032$"):
            decode(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_decode_corrupt_streams():
    data = encode(dihedral_quandle(3), CodecParams(2, 1))
    with pytest.raises(CorruptStream):
        decode(data[:5])
    with pytest.raises(CorruptStream):
        decode(b"")
    with pytest.raises(CorruptStream):
        decode(b"XKE1" + data[4:])
    with pytest.raises(CorruptStream):
        decode(data[:-1])
    with pytest.raises(CorruptStream):
        decode(data + b"\x00")


def test_decode_n1_header_only():
    data = encode(trivial_rack(1))
    assert len(data) == 10
    assert decode(data) == trivial_rack(1)
    with pytest.raises(CorruptStream):
        decode(data + b"\x00")


def test_decode_inconsistent_stream():
    # structurally valid stream declaring both elements high-degree with
    # maps (id, swap), which is not a rack
    head = MAGIC + (2).to_bytes(2, "big") + (1).to_bytes(2, "big") + (0).to_bytes(2, "big")
    w = BitWriter()
    w.write_bitmap((), 2)      # s_low empty, both high
    w.write(0, 1)              # f_0 = identity
    w.write(1, 1)              # f_1 = swap
    w.write(0, 2)              # |T| = 0
    w.write_bitmap((), 2)      # restriction domains (empty) for j = 0, 1
    w.write_bitmap((), 2)
    with pytest.raises(InconsistentDecode):
        decode(head + w.getvalue())


def test_info_counts_bounded_by_cp_squared():
    for _, rack in family_racks(6):
        for params in param_grid(rack.n):
            info = build_info(rack, params)
            res = extract_residual(rack, info)
            cp = len(info.forest.parts)
            assert len(res.entries) <= cp * cp
            for _, _, width, idx in res.entries:
                assert width >= 1 and idx < (1 << width)


def test_reconstructed_maps_conjugate_within_components():
    # maps of elements in one component of the T-graph are conjugate by the
    # word of any directed path between them
    for _, rack in family_racks(6):
        info = build_info(rack, CodecParams(1, 1))
        t = info.t_sorted
        n = rack.n
        maps = rack.maps
        succ = [[] for _ in range(n)]
        for c in t:
            p = maps[c]
            for u in range(n):
                if p[u] != u:
                    succ[u].append((p[u], c))
        for part in info.forest.parts:
            v = part[0]
            word = {v: identity(n)}
            frontier = [v]
            while frontier:
                x = frontier.pop()
                for u, colour in succ[x]:
                    if u not in word:
                        word[u] = compose(word[x], maps[colour])
                        frontier.append(u)
            assert set(word) == set(part)
            for u in part:
                g = word[u]
                assert maps[u] == compose(compose(inverse(g), maps[v]), g)


def test_merge_bound_audit_trivial():
    report = merge_bound_audit(trivial_rack(5), CodecParams(1, 2))
    assert report.x_seq == (0, 0, 0, 0, 0)
    assert report.sum_x == 0
    assert report.x_after_t == 0


def test_merge_bound_audit_single_cycle():
    # every translation is the same full cycle: the first pick joins all
    # components and later picks add nothing
    rack = permutation_rack(from_cycles(6, [tuple(range(6))]))
    report = merge_bound_audit(rack, CodecParams(5, 2))
    assert report.x_seq == (5, 0, 0, 0, 0, 0)
    assert report.sum_x == 5
    assert report.cp_t == 1


def test_merge_bound_audit_corpus():
    for _, rack in family_racks(8):
        for params in param_grid(rack.n):
            report = merge_bound_audit(rack, params)
            assert sum(report.x_seq) <= rack.n
            for i in range(1, len(report.x_seq)):
                assert report.x_seq[i] <= report.x_seq[i - 1]


def test_invariance_checked_during_build_info():
    # every colour keeps each unmerged component setwise; build_info does not
    # check it (test_unmerged_parts_are_kept_by_any_permutation_family says why)
    for _, rack in family_racks(8):
        for params in param_grid(rack.n):
            info = build_info(rack, params)
            struct = graph_components(rack_graph(rack, info.t_sorted))
            for pos, j in enumerate(info.s_low_minus_t):
                merged = set(info.merge_lists[pos])
                for ci, part in enumerate(struct.parts):
                    if ci not in merged:
                        assert set(rack.array[j, list(part)].tolist()) == set(part)


@st.composite
def families_with_subsets(draw):
    """(maps, T): n <= 10 permutations, rack or not, and a colour subset T."""
    n = draw(st.integers(1, 10))

    def transposition(ij):
        return from_cycles(n, [ij]) if ij[0] != ij[1] else identity(n)

    vertex = st.integers(0, n - 1)
    perm = st.one_of(st.permutations(range(n)).map(tuple), st.just(identity(n)),
                     st.tuples(vertex, vertex).map(transposition))
    maps = tuple(draw(perm) for _ in range(n))
    return maps, draw(st.sets(st.integers(0, n - 1)))


@settings(max_examples=400, deadline=None)
@given(families_with_subsets())
def test_unmerged_parts_are_kept_by_any_permutation_family(family):
    # why build_info needs no invariance check: a colour in T merges nothing,
    # and a map that sends no vertex of a part outside it permutes that part
    maps, t = family
    n = len(maps)
    t_maps = np.array([maps[c] for c in sorted(t)], dtype=np.int32).reshape(len(t), n)
    touched = part_merges(bfs_forest(t_maps), np.array(maps, dtype=np.int32))[1]
    struct = graph_components(ColoredDigraph(n, {c: maps[c] for c in t}))
    for j, p in enumerate(maps):
        merged = merged_part_indices(struct, enumerate(p))
        assert tuple(np.flatnonzero(touched[j]).tolist()) == merged
        if j in t:
            assert merged == ()
        for ci, part in enumerate(struct.parts):
            if ci not in merged:
                assert sorted(p[v] for v in part) == list(part)


def reference_merges(rack, params):
    """The per-colour audit and merge lists, one T-graph rebuild per colour."""
    s_low, _ = degree_split(rack, params.delta)
    t = build_info(rack, params).t_order
    g_t = rack_graph(rack, t)
    struct = graph_components(g_t)
    post, merge_lists = [], []
    for j in s_low:
        if j in t:
            continue
        f = rack.maps[j]
        edges = [(u, f[u]) for u in range(rack.n) if f[u] != u]
        merged = merged_part_indices(struct, enumerate(f))
        post.append((j, struct.cp - count_components_with(g_t, edges), len(merged)))
        merge_lists.append(merged)
    return tuple(post), tuple(merge_lists)


def test_audit_and_merge_lists_match_the_per_colour_reference():
    rng = random.Random(23)
    cases = []
    for _, rack in family_racks(8):
        for relabeled in (rack, random_relabeling(rng, rack)):
            cases += [(relabeled, params) for params in param_grid(rack.n)]
    # at default parameters no colour merges after T; (n, 1) keeps T to one colour
    for rack in (dihedral_quandle(64), conjugation_quandle(dihedral_group_table(16))):
        cases += [(rack, CodecParams.default(rack.n)), (rack, CodecParams(rack.n, 1))]
    # 129 colours remain after a one-colour T, more than one block of merge scoring
    cases.append((dihedral_quandle(130), CodecParams(130, 1)))
    for rack, params in cases:
        post, merge_lists = reference_merges(rack, params)
        assert merge_bound_audit(rack, params).post_t_drops == post
        if rack.n > 1:
            assert build_info(rack, params).merge_lists == merge_lists


def test_each_rack_checked_once(monkeypatch):
    corpus = [rack for _, rack in family_racks(8)]
    streams = [encode(rack) for rack in corpus]
    calls = []
    original = core.axiom_report

    def counting(table, *args, **kwargs):
        calls.append(len(table))
        return original(table, *args, **kwargs)

    monkeypatch.setattr(core, "axiom_report", counting)
    for rack in corpus:
        assert core.rack_from_table(rack.table) == rack
    assert len(calls) == len(corpus)
    calls.clear()
    for rack, data in zip(corpus, streams):
        assert decode(data) == rack
    assert len(calls) == len(corpus)


def test_build_info_inconsistency_is_typed():
    rack = unchecked_non_rack()
    params = CodecParams(1, 1)
    with pytest.raises(EncodeConsistencyError, match="not closed"):
        build_info(rack, params)
    with pytest.raises(EncodeConsistencyError):
        encode(rack, params)


def test_encode_order_over_header_limit_is_typed():
    # n = 65536 does not fit the u16 header field; nothing is computed first
    stub = broadcast_trivial_rack(65536)
    with pytest.raises(OrderTooLargeForHeader, match="u16 header limit 65535"):
        encode(stub)


def test_each_distinct_map_is_ranked_and_unranked_once(monkeypatch):
    # a permutation rack has one map: field 5 holds it for every colour of
    # T+, and the stream keeps one rank per colour
    rack = permutation_rack(from_cycles(64, [tuple(range(0, 64, 2)), (1, 3, 5)]))
    info = build_info(rack)
    assert len(info.t_plus) > 1 and not info.s_high
    rows, split = [], []

    def digits(block):
        rows.append(len(block))
        return lehmer_digits(block)

    def divmod_(block, divisors):
        split.append(len(block))
        return run_divmod(block, divisors)

    lehmer_digits, run_divmod = perms._lehmer_digits, perms._divmod
    monkeypatch.setattr(perms, "_lehmer_digits", digits)
    monkeypatch.setattr(perms, "_divmod", divmod_)
    data = encode(rack)
    assert rows == [1]
    assert decode(data) == rack
    assert split and set(split) == {1}     # one rank down every level of the run tree


def test_one_greedy_pass_per_encode(monkeypatch):
    calls = []

    def counting(name):
        original = getattr(codec, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("degree_split", "greedy_merge_order"):
        monkeypatch.setattr(codec, name, counting(name))
    for _, rack in family_racks(8):
        if rack.n == 1:
            continue  # the header alone encodes order 1
        for params in param_grid(rack.n):
            calls.clear()
            data, _ = encode_with_stats(rack, params)
            assert sorted(calls) == ["degree_split", "greedy_merge_order"]
            calls.clear()
            assert decode(data) == rack
            assert calls == []


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 8), st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
       st.binary(max_size=96))
def test_decode_gives_rack_or_codec_error(n, delta, cap_l, body):
    # small n keeps math.factorial(n) cheap; any body bytes are allowed
    data = MAGIC + n.to_bytes(2, "big") + delta.to_bytes(2, "big") + cap_l.to_bytes(2, "big")
    try:
        result = decode(data + body)
    except CodecError:
        return
    assert isinstance(result, Rack) and result.n == n
