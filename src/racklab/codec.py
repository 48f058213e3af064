"""Lossless rack codec.

The encoder splits the ground set by out-degree, greedily picks a small
colour set T whose graph merges as many components as possible, and
stores a 7-part information tuple: the low-degree set, the full maps of
high-degree elements, T, the restriction of every map to T, the full
maps of T and its out-neighbourhood, the merged-component lists, and the
restrictions of the remaining low maps to their merged blocks.  The
residual then needs just one image index per (component representative,
unmerged component); its bit budget is

    zeta = (sum_p eta_p / p) * (sum_q eta_q log2(q) / q) <= n^2 / 4,

where eta_q counts vertices of the T-graph in components of size q.
The decoder rebuilds each representative map by propagating images along
directed edges of the T-graph and conjugates everything else into place.

Binary format ".rke": magic "RKE1", big-endian u16 n, u16 delta,
u16 cap_l, then an MSB-first bit stream (info tuple, then residual),
zero-padded to a byte boundary.  Sets are n-bit bitmaps (vertex 0
first), permutations are Lehmer ranks in ceil(log2 n!) bits, partial
maps are a domain bitmap plus images in ascending domain order, and
residual indices use ceil(log2 |D|) bits per target component D.
"""

from __future__ import annotations

import math
import struct as _struct
from dataclasses import dataclass

from .bits import BitReader, BitUnderflow, BitWriter, perm_width, uint_width
from .core import AxiomReport, Rack, rack_from_table, trivial_rack
from .graph import (ColoredDigraph, bfs_tree, components, conjugates_along_tree,
                    greedy_merge_order, multigraph_component_count, rack_graph,
                    successors)
from .perms import is_permutation, lehmer_rank, lehmer_unrank

MAGIC = b"RKE1"


class CodecError(Exception):
    pass


class CorruptStream(CodecError):
    """Truncation, bad magic, or an out-of-range field."""


class InconsistentDecode(CodecError):
    """Structurally valid stream whose reconstruction violates the rack axioms."""


class EncodeConsistencyError(CodecError):
    """The supplied info tuple does not belong to the rack being encoded."""


class OrderTooLargeForHeader(CodecError):
    """The order does not fit the u16 field of the RKE1 header."""


class CodecParamsError(ValueError):
    """A delta or cap_l outside the range of its u16 header field."""


class AuditFail(CodecError):
    def __init__(self, message, index):
        self.index = index
        super().__init__(f"{message} (at {index})")


@dataclass(frozen=True)
class CodecParams:
    delta: int
    cap_l: int

    def __post_init__(self):
        if not 1 <= self.delta <= 0xFFFF:
            raise CodecParamsError(f"delta must be in 1..65535, got {self.delta}")
        if not 0 <= self.cap_l <= 0xFFFF:
            raise CodecParamsError(f"cap_l must be in 0..65535, got {self.cap_l}")

    @classmethod
    def default(cls, n: int) -> "CodecParams":
        # ceil((log2 n)^3) and floor((log2 n)^2); at small n the threshold
        # exceeds n-1, which simply makes the high-degree set empty
        if n < 2:
            return cls(delta=1, cap_l=0)
        lg = math.log2(n)
        return cls(delta=math.ceil(lg ** 3), cap_l=math.floor(lg ** 2))


def degree_split(rack: Rack, delta: int):
    """(low, high): elements with out-degree <= delta in the full rack graph, rest."""
    # row v of the table holds (v)f_y for every colour y: v's out-neighbours, and v on loops
    degs = [len(set(row) - {v}) for v, row in enumerate(rack.table)]
    low = tuple(v for v in range(rack.n) if degs[v] <= delta)
    high = tuple(v for v in range(rack.n) if degs[v] > delta)
    return low, high


def _greedy_pass(rack: Rack, delta: int):
    """(s_low, s_high, order, cps): the degree split, then the greedy ordering of s_low."""
    s_low, s_high = degree_split(rack, delta)
    order, cps = greedy_merge_order(rack.n, dict(enumerate(rack.maps)), s_low)
    return s_low, s_high, order, cps


@dataclass(frozen=True)
class InfoTuple:
    n: int
    delta: int
    cap_l: int
    s_low: tuple                # ascending
    s_high: tuple               # ascending
    t_order: tuple              # greedy pick order
    t_plus: tuple               # ascending: T plus its out-neighbourhood in the full graph
    high_maps: tuple            # permutations aligned with s_high
    t_restrictions: tuple       # [j][k] = image of t_sorted[k] under map j, all j
    t_plus_maps: tuple          # permutations aligned with t_plus
    gt_components: tuple        # sorted vertex tuples of the T-graph, ordered by min
    merge_lists: tuple          # aligned with s_low_minus_t: ascending component indices
    merged_restrictions: tuple  # aligned with s_low_minus_t: images of sorted(Y_j)

    @property
    def t_sorted(self) -> tuple:
        return tuple(sorted(self.t_order))

    @property
    def s_low_minus_t(self) -> tuple:
        t = set(self.t_order)
        return tuple(j for j in self.s_low if j not in t)

    def merged_vertices(self, pos: int) -> tuple:
        """Sorted vertices of the merged block of the pos-th remaining low colour."""
        merged = set()
        for ci in self.merge_lists[pos]:
            merged.update(self.gt_components[ci])
        return tuple(sorted(merged))


def build_info(rack: Rack, params: CodecParams | None = None) -> InfoTuple:
    """Assemble the full information tuple of a rack."""
    if params is None:
        params = CodecParams.default(rack.n)
    return _info_from_pass(rack, params, _greedy_pass(rack, params.delta))


def _merges(part_index, p):
    """(pairs, merged): (part of u, part of (u)p) for each u that p sends into
    another part of a T-graph, and the ascending indices of the parts they touch."""
    pairs = [(a, b) for a, b in zip(part_index, map(part_index.__getitem__, p)) if a != b]
    return pairs, tuple(sorted({ci for pair in pairs for ci in pair}))


def _info_from_pass(rack: Rack, params: CodecParams, greedy) -> InfoTuple:
    """build_info on the result of _greedy_pass(rack, params.delta)."""
    n = rack.n
    s_low, s_high, order, _ = greedy
    t_order = order[:min(params.cap_l, len(order))]
    t_set = set(t_order)
    t_sorted = tuple(sorted(t_set))

    g_t = rack_graph(rack, t_sorted)
    struct = components(g_t)

    gamma = set()
    for v in t_set:
        for j in range(n):
            w = rack.maps[j][v]
            if w != v:
                gamma.add(w)
    t_plus = tuple(sorted(t_set | gamma))

    t_restrictions = tuple(tuple(rack.maps[j][i] for i in t_sorted) for j in range(n))
    low_set = set(s_low)
    for imgs in t_restrictions:
        if any(img not in low_set for img in imgs):
            raise EncodeConsistencyError("low-degree set is not closed under the translations")

    # no check that the other parts are kept: a colour in T has every edge
    # inside a part, and a map sending no vertex of a part outside it permutes it
    s_low_minus_t = tuple(j for j in s_low if j not in t_set)
    merge_lists = []
    merged_restrictions = []
    for j in s_low_minus_t:
        _, merged = _merges(struct.part_index, rack.maps[j])
        block = sorted(v for ci in merged for v in struct.parts[ci])
        merge_lists.append(merged)
        merged_restrictions.append(tuple(rack.maps[j][v] for v in block))

    return InfoTuple(
        n=n, delta=params.delta, cap_l=params.cap_l,
        s_low=s_low, s_high=s_high, t_order=t_order, t_plus=t_plus,
        high_maps=tuple(rack.maps[j] for j in s_high),
        t_restrictions=t_restrictions,
        t_plus_maps=tuple(rack.maps[k] for k in t_plus),
        gt_components=struct.parts,
        merge_lists=tuple(merge_lists),
        merged_restrictions=tuple(merged_restrictions),
    )


@dataclass(frozen=True)
class Residual:
    entries: tuple  # (representative, component index, bit width, image index)

    @property
    def bits(self) -> int:
        return sum(width for _, _, width, _ in self.entries)


def extract_residual(rack: Rack, info: InfoTuple) -> Residual:
    """One image index per (undetermined representative, unmerged component).

    Representatives whose full map is already in the info tuple contribute
    nothing.  Raises EncodeConsistencyError if the image of a component
    minimum escapes its component, which means info does not match the rack.
    """
    known = set(info.s_high) | set(info.t_plus)
    rest = info.s_low_minus_t
    entries = []
    for part in info.gt_components:
        v = part[0]
        if v in known:
            continue
        merged = set(info.merge_lists[rest.index(v)])
        for di, dpart in enumerate(info.gt_components):
            if di in merged:
                continue
            img = rack.maps[v][dpart[0]]
            try:
                idx = dpart.index(img)
            except ValueError:
                raise EncodeConsistencyError(
                    f"map {v} moves {dpart[0]} out of its unmerged component") from None
            entries.append((v, di, uint_width(len(dpart)), idx))
    return Residual(tuple(entries))


@dataclass(frozen=True)
class CodecStats:
    n: int
    delta: int
    cap_l: int
    eta: tuple          # eta[q-1] = vertices of the T-graph in components of size q
    cp: int
    zeta: float         # double precision; boundary comparisons carry a 1e-9 tolerance
    residual_bits: int
    header_bits: int    # bit length of the serialized info tuple
    bound: float        # n^2 / 4
    total_bytes: int


def _zeta(eta) -> float:
    inv = sum(count / q for q, count in enumerate(eta, start=1))
    logs = sum(count * math.log2(q) / q for q, count in enumerate(eta, start=1))
    return inv * logs


def _write_info(w: BitWriter, info: InfoTuple) -> None:
    n = info.n
    w_vertex = uint_width(n)
    w_perm = perm_width(n)
    w.write_bitmap(info.s_low, n)
    for p in info.high_maps:
        w.write(lehmer_rank(p), w_perm)
    w.write(len(info.t_order), uint_width(n + 1))
    for v in info.t_order:
        w.write(v, w_vertex)
    t_sorted = info.t_sorted
    for j in range(n):
        w.write_bitmap(t_sorted, n)
        for img in info.t_restrictions[j]:
            w.write(img, w_vertex)
    for p in info.t_plus_maps:
        w.write(lehmer_rank(p), w_perm)
    cp = len(info.gt_components)
    for merged in info.merge_lists:
        w.write_bitmap(merged, cp)
    for pos in range(len(info.merge_lists)):
        block = info.merged_vertices(pos)
        w.write_bitmap(block, n)
        for img in info.merged_restrictions[pos]:
            w.write(img, w_vertex)


def encode_with_stats(rack: Rack, params: CodecParams | None = None):
    """Serialize a rack; returns (bytes, CodecStats)."""
    data, stats, _ = _encode_with_info(rack, params)
    return data, stats


def _encode_with_info(rack: Rack, params: CodecParams | None):
    """(bytes, CodecStats, InfoTuple); the info is None for n = 1, whose stream is empty."""
    n = rack.n
    if params is None:
        params = CodecParams.default(n)
    if n > 0xFFFF:
        raise OrderTooLargeForHeader(f"order {n} exceeds the u16 header limit 65535")
    head = MAGIC + _struct.pack(">HHH", n, params.delta, params.cap_l)
    if n == 1:
        stats = CodecStats(n=1, delta=params.delta, cap_l=params.cap_l, eta=(1,),
                           cp=1, zeta=0.0, residual_bits=0, header_bits=0,
                           bound=0.25, total_bytes=len(head))
        return head, stats, None
    info = build_info(rack, params)
    residual = extract_residual(rack, info)
    w = BitWriter()
    _write_info(w, info)
    header_bits = w.nbits
    for _, _, width, idx in residual.entries:
        w.write(idx, width)
    residual_bits = w.nbits - header_bits
    data = head + w.getvalue()

    eta = [0] * n
    for part in info.gt_components:
        eta[len(part) - 1] += len(part)
    stats = CodecStats(
        n=n, delta=params.delta, cap_l=params.cap_l, eta=tuple(eta),
        cp=len(info.gt_components), zeta=_zeta(eta),
        residual_bits=residual_bits, header_bits=header_bits,
        bound=n * n / 4, total_bytes=len(data),
    )
    return data, stats, info


def encode(rack: Rack, params: CodecParams | None = None) -> bytes:
    """decode(encode(rack)) reproduces the rack exactly."""
    return encode_with_stats(rack, params)[0]


def encoding_stats(rack: Rack, params: CodecParams | None = None) -> CodecStats:
    return encode_with_stats(rack, params)[1]


def decode(data: bytes) -> Rack:
    """Rebuild a rack from its encoding.

    Raises CorruptStream on truncation, bad magic, or out-of-range fields and
    InconsistentDecode when a structurally valid stream does not describe a
    rack (encoder bug or tampering).
    """
    if len(data) < 10:
        raise CorruptStream("truncated header")
    if data[:4] != MAGIC:
        raise CorruptStream("bad magic")
    n, delta, cap_l = _struct.unpack(">HHH", data[4:10])
    if n == 0 or delta == 0:
        raise CorruptStream("bad parameters")
    if n == 1:
        if len(data) != 10:
            raise CorruptStream("trailing bytes")
        return trivial_rack(1)
    reader = BitReader(data[10:])
    try:
        return _decode_body(n, reader)
    except BitUnderflow as exc:
        raise CorruptStream(str(exc)) from None


def _decode_body(n: int, r: BitReader) -> Rack:
    w_vertex = uint_width(n)

    def read_vertex():
        v = r.read(w_vertex)
        if v >= n:
            raise CorruptStream(f"vertex {v} out of range")
        return v

    s_low = r.read_bitmap(n)
    # n! only after the first field has been read, so a stream too short
    # for its header's n fails without computing it
    nfact = math.factorial(n)
    w_perm = uint_width(nfact)

    def read_perm():
        rank = r.read(w_perm)
        if rank >= nfact:
            raise CorruptStream(f"permutation rank {rank} out of range")
        return lehmer_unrank(rank, n)

    low_set = set(s_low)
    s_high = tuple(v for v in range(n) if v not in low_set)
    known = {j: read_perm() for j in s_high}

    t_len = r.read(uint_width(n + 1))
    if t_len > n:
        raise CorruptStream("t length out of range")
    t_order = tuple(read_vertex() for _ in range(t_len))
    if len(set(t_order)) != t_len or not set(t_order) <= low_set:
        raise CorruptStream("invalid t set")
    t_sorted = tuple(sorted(t_order))
    t_set = set(t_order)

    t_restrictions = []
    for j in range(n):
        if r.read_bitmap(n) != t_sorted:
            raise CorruptStream(f"restriction domain mismatch for colour {j}")
        t_restrictions.append(tuple(read_vertex() for _ in t_sorted))

    t_plus_set = set(t_set)
    for imgs in t_restrictions:
        for i, img in zip(t_sorted, imgs):
            if img != i:
                t_plus_set.add(img)
    t_plus = tuple(sorted(t_plus_set))
    for k in t_plus:
        p = read_perm()
        if k in known and known[k] != p:
            raise InconsistentDecode(f"conflicting maps for colour {k}")
        known[k] = p
    for j, imgs in enumerate(t_restrictions):
        if j in known and any(known[j][i] != img for i, img in zip(t_sorted, imgs)):
            raise InconsistentDecode(f"restriction mismatch for colour {j}")

    g_t = ColoredDigraph(n, {i: known[i] for i in t_sorted})
    struct = components(g_t)
    parts = struct.parts
    cp = struct.cp

    s_low_minus_t = tuple(j for j in s_low if j not in t_set)
    merge_lists = [r.read_bitmap(cp) for _ in s_low_minus_t]
    merged_map = {}
    for j, merged in zip(s_low_minus_t, merge_lists):
        block = tuple(sorted(v for ci in merged for v in parts[ci]))
        if r.read_bitmap(n) != block:
            raise CorruptStream(f"merged domain mismatch for colour {j}")
        imgs = tuple(read_vertex() for _ in block)
        if tuple(sorted(imgs)) != block:
            raise InconsistentDecode(f"merged block of colour {j} is not preserved")
        merged_map[j] = dict(zip(block, imgs))
    merged_index = dict(zip(s_low_minus_t, merge_lists))

    # directed adjacency of the T-graph, used by both propagation passes
    succ = successors(g_t)
    t_pos = {i: k for k, i in enumerate(t_sorted)}

    for part in parts:
        v = part[0]
        if v in known:
            continue
        if v not in merged_index:
            raise CorruptStream(f"no merge data for representative {v}")
        images = [None] * n
        for y, img in merged_map[v].items():
            images[y] = img
        merged = set(merged_index[v])
        restr = t_restrictions[v]
        for di, dpart in enumerate(parts):
            if di in merged:
                continue
            idx = r.read(uint_width(len(dpart)))
            if idx >= len(dpart):
                raise CorruptStream("residual index out of range")
            base = dpart[0]
            images[base] = dpart[idx]
            # (u)f_v = ((w)f_v) f_k with k = (i)f_v, along each edge w -> u of colour i
            reached = 1
            for x, u, colour in bfs_tree(succ, base):
                images[u] = known[restr[t_pos[colour]]][images[x]]
                reached += 1
            if reached != len(dpart):
                raise InconsistentDecode("component is not reachable by directed edges")
        if any(img is None for img in images):
            raise InconsistentDecode(f"map {v} not fully determined")
        p = tuple(images)
        if not is_permutation(p, n):
            raise InconsistentDecode(f"reconstructed map {v} is not a permutation")
        known[v] = p

    rest_bits = r.bits_remaining()
    if rest_bits >= 8:
        raise CorruptStream("trailing bytes after stream")
    if rest_bits and r.read(rest_bits) != 0:
        raise CorruptStream("nonzero padding")

    # conjugate all remaining maps from their component representatives
    for part in parts:
        conj = conjugates_along_tree(succ, part[0], known)
        if len(conj) != len(part):
            raise InconsistentDecode("component is not reachable by directed edges")
        for u in part[1:]:
            if u in known:
                if known[u] != conj[u]:
                    raise InconsistentDecode(f"conjugation mismatch at {u}")
            else:
                known[u] = conj[u]

    table = tuple(zip(*(known[y] for y in range(n))))
    result = rack_from_table(table)
    if isinstance(result, AxiomReport):
        raise InconsistentDecode("reconstructed maps violate the rack axioms")
    for j, merged in zip(s_low_minus_t, merge_lists):
        for y, img in merged_map[j].items():
            if result.maps[j][y] != img:
                raise InconsistentDecode(f"merged restriction mismatch for colour {j}")
    for j in range(n):
        for i, img in zip(t_sorted, t_restrictions[j]):
            if result.maps[j][i] != img:
                raise InconsistentDecode(f"restriction mismatch for colour {j}")
    return result


@dataclass(frozen=True)
class MergeAuditReport:
    n: int
    delta: int
    cap_l: int
    s_low: tuple
    order: tuple         # full greedy ordering of the low set
    cp_seq: tuple        # component counts along the ordering
    x_seq: tuple         # successive component-count drops
    t: tuple
    cp_t: int
    sum_x: int
    x_after_t: int | None   # drop at the first pick beyond the cap, if any
    post_t_drops: tuple     # (colour, drop, merged component count)


def merge_bound_audit(rack: Rack, params: CodecParams | None = None) -> MergeAuditReport:
    """Recompute the greedy drop sequence and verify its three properties:

    the drops are non-increasing, they sum to at most n, and once the cap is
    reached no remaining low colour merges more than the next pick would
    have.  Raises AuditFail at the first violated index.
    """
    if params is None:
        params = CodecParams.default(rack.n)
    return _audit_from_pass(rack, params, _greedy_pass(rack, params.delta))


def _audit_from_pass(rack: Rack, params: CodecParams, greedy) -> MergeAuditReport:
    """merge_bound_audit on the result of _greedy_pass(rack, params.delta)."""
    n = rack.n
    s_low, _, order, cps = greedy
    x_seq = []
    prev = n
    for cp in cps:
        x_seq.append(prev - cp)
        prev = cp
    for i in range(1, len(x_seq)):
        if x_seq[i] > x_seq[i - 1]:
            raise AuditFail("drop sequence increased", i)
    if sum(x_seq) > n:
        raise AuditFail("total drop exceeds the order", len(x_seq))

    t_count = min(params.cap_l, len(order))
    t = order[:t_count]
    struct = components(rack_graph(rack, t))
    cp_t = struct.cp
    capped = len(s_low) > t_count
    x_after_t = x_seq[t_count] if capped and t_count < len(x_seq) else None
    post = []
    for j in s_low:
        if j in t:
            continue
        # the components of G_T plus colour j are those of the parts joined by its pairs
        pairs, merged = _merges(struct.part_index, rack.maps[j])
        drop = cp_t - multigraph_component_count(cp_t, pairs)
        post.append((j, drop, len(merged)))
        if x_after_t is not None and drop > x_after_t:
            raise AuditFail(f"colour {j} merges more than the next greedy pick", j)
        if len(merged) > 2 * drop:
            raise AuditFail(f"colour {j} merged-set exceeds twice its drop", j)
    return MergeAuditReport(
        n=n, delta=params.delta, cap_l=params.cap_l, s_low=s_low,
        order=order, cp_seq=cps, x_seq=tuple(x_seq), t=t, cp_t=cp_t,
        sum_x=sum(x_seq), x_after_t=x_after_t, post_t_drops=tuple(post),
    )


def _audit_with_invariance(rack: Rack, params: CodecParams) -> MergeAuditReport:
    """merge_bound_audit, then build_info on the same greedy pass; the one
    invariance build_info checks is that the low set is closed under the translations."""
    greedy = _greedy_pass(rack, params.delta)
    report = _audit_from_pass(rack, params, greedy)
    _info_from_pass(rack, params, greedy)
    return report
