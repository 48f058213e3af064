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
The T-graph's components and their directed BFS forest are built once
per stream, as numpy arrays (graph.Forest); the info tuple keeps them,
and the audit runs on them.  One scoring of the remaining low colours
against the forest (graph.part_merges) gives both field 6's merge lists
and the audit's drops after T.  Fields 4 and 7 are partial maps, each
colour on T and each remaining low colour on its merged block, with one
layout (_partial_maps), writer and reader; field 8's layout
(_residual_layout) is shared too.  Fields 4, 6, 7 and 8 move as blocks;
the decoder checks a block's colours at once and re-reads only a colour
that over-runs the stream, so errors keep stream order.  It allocates
the n x n int32 maps after field 4, unranks fields 2 and 5 into them in
one call, rebuilds the representative maps down the forest, conjugates
the rest into place one depth at a time, and hands the array to
rack_from_table.  The encoder reads maps and restrictions as rows and
columns of Rack.array.  Ranks, degrees and drops are computed once per
distinct map, on its least colour (distinct_rows).

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
from dataclasses import dataclass, field

import numpy as np

from .bits import BitReader, BitUnderflow, BitWriter, perm_width, uint_width
from .core import AxiomReport, Rack, rack_from_table, trivial_rack
from .graph import (Forest, bfs_forest, components, conjugate_along_forest,
                    greedy_merge_order, out_degrees, part_merges, rack_graph)
from .perms import lehmer_ranks, lehmer_unranks, permutation_rows

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
    low = out_degrees(rack_graph(rack)) <= delta
    return tuple(np.flatnonzero(low).tolist()), tuple(np.flatnonzero(~low).tolist())


def _greedy_pass(rack: Rack, delta: int):
    """(s_low, s_high, order, cps): the degree split and the greedy ordering of s_low."""
    s_low, s_high = degree_split(rack, delta)
    order, cps = greedy_merge_order(rack_graph(rack, s_low))
    return s_low, s_high, order, cps


@dataclass(frozen=True, eq=False)
class InfoTuple:
    n: int
    delta: int
    cap_l: int
    s_low: tuple                # ascending
    s_high: tuple               # ascending
    t_order: tuple              # greedy pick order
    t_plus: tuple               # ascending: T plus its out-neighbourhood in the full graph
    high_maps: np.ndarray       # (|s_high|, n) int32: the maps of s_high
    t_restrictions: np.ndarray  # (n, |T|) int32: [j][k] = image of t_sorted[k] under map j
    t_plus_maps: np.ndarray     # (|t_plus|, n) int32: the maps of t_plus
    merged: np.ndarray          # (|s_low_minus_t|, parts) bool: the parts each colour merges
    merged_images: np.ndarray   # int32: the images of each colour's block Y_j, ascending, in turn
    # the T-graph's forest; it follows from the maps of T, which t_plus_maps holds
    forest: Forest = field(repr=False)

    @property
    def t_sorted(self) -> tuple:
        return tuple(sorted(self.t_order))

    @property
    def s_low_minus_t(self) -> tuple:
        t = set(self.t_order)
        return tuple(j for j in self.s_low if j not in t)

    @property
    def merge_lists(self) -> tuple:
        """Aligned with s_low_minus_t: the indices of the merged parts, ascending."""
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in self.merged)

    def merged_vertices(self, pos: int) -> tuple:
        """Sorted vertices of the merged block of the pos-th remaining low colour."""
        return tuple(np.flatnonzero(self.merged[pos, self.forest.part_index]).tolist())


def build_info(rack: Rack, params: CodecParams | None = None) -> InfoTuple:
    """Assemble the full information tuple of a rack."""
    if params is None:
        params = CodecParams.default(rack.n)
    return _info_from_pass(rack, params, _greedy_pass(rack, params.delta))[0]


def _bitmap_widths(m: int) -> np.ndarray:
    """The fields of an m-bit bitmap in a block: its bytes, the last one short."""
    return np.minimum(8, m - np.arange(0, m, 8))


def _bitmap_fields(mask: np.ndarray) -> np.ndarray:
    """Each row of a (k, m) bool mask as the bitmap write_bitmap gives, one
    int64 per field of _bitmap_widths(m)."""
    values = np.packbits(mask, axis=1).astype(np.int64)
    values[:, -1:] >>= -mask.shape[1] % 8
    return values


def _bitmap_members(values: np.ndarray, m: int) -> np.ndarray:
    """The (k, m) bool mask whose rows have the bitmap fields values."""
    values = values.astype(np.uint8)
    values[:, -1:] <<= -m % 8
    return np.unpackbits(values, axis=1, count=m).view(bool)


def _partial_maps(masks: np.ndarray):
    """Fields 4 and 7: per row of the (k, n) bool mask masks, a partial map of
    [n] as its n-bit domain bitmap, then the images of its domain, ascending.
    Returns (domains, widths, is_domain, starts): the bitmaps' fields, every
    field's width, which fields are bitmap fields, and where each map's
    fields start, with the total last."""
    n = masks.shape[1]
    head = _bitmap_widths(n)
    counts = len(head) + masks.sum(axis=1)      # fields per map
    starts = np.concatenate([[0], np.cumsum(counts)])
    place = np.arange(starts[-1]) - np.repeat(starts[:-1], counts)     # in its map
    widths = np.append(head, uint_width(n))[np.minimum(place, len(head))]
    return _bitmap_fields(masks), widths, place < len(head), starts


def _write_partial_maps(w: BitWriter, masks: np.ndarray, images) -> None:
    """The partial maps of masks' rows; images lists them row by row."""
    domains, widths, is_domain, _ = _partial_maps(masks)
    values = np.empty(len(widths), dtype=np.int64)
    values[is_domain] = domains.ravel()
    values[~is_domain] = images
    w.write_varblock(values, widths)


def _out_of_range(vertex) -> str:
    return f"vertex {vertex} out of range"


def _read_partial_maps(r: BitReader, masks: np.ndarray, mismatch):
    """(images, error): the images of the partial maps of masks' rows before
    the first that fails, row by row, and that failure or None.  A map fails
    with CorruptStream(mismatch(row)) on a domain bitmap other than its row,
    CorruptStream on an image out of range, or the BitUnderflow of a field
    past the stream's end.  The whole maps that fit are read in one block,
    and only the map that over-runs field by field, so errors keep stream order.
    """
    n = masks.shape[1]
    domains, widths, is_domain, starts = _partial_maps(masks)
    whole = int(np.searchsorted(np.cumsum(widths)[starts[1:] - 1], r.bits_remaining(),
                                side="right"))
    fields = r.read_varblock(widths[:starts[whole]])
    in_domain = is_domain[:len(fields)]
    images = fields[~in_domain]
    row = np.repeat(np.arange(whole), np.diff(starts[:whole + 1]) - domains.shape[1])
    wrong_domain = (fields[in_domain].reshape(domains[:whole].shape) != domains[:whole]).any(axis=1)
    out_of_range = images >= n
    bad = np.flatnonzero(wrong_domain | (np.bincount(row[out_of_range], minlength=whole) > 0))
    if bad.size:
        j = int(bad[0])
        message = mismatch(j) if wrong_domain[j] else \
            _out_of_range(images[out_of_range & (row == j)][0])
        return images[row < j], CorruptStream(message)
    if whole == len(masks):
        return images, None
    try:
        if r.read_bitmap(n) != tuple(np.flatnonzero(masks[whole]).tolist()):
            return images, CorruptStream(mismatch(whole))
    except BitUnderflow as exc:
        return images, exc
    return images, _read_until_bad(r, widths[starts[whole] + domains.shape[1]:starts[whole + 1]],
                                   n, _out_of_range)[1]


def _residual_layout(forest: Forest, unmerged: np.ndarray):
    """Field 8's entries: (row, part, width) arrays, row by row, for every
    True of the (representatives, parts) mask unmerged whose part has two or
    more vertices.  A singleton's index takes no bits and can only be 0, so
    it has no entry."""
    sizes = np.bincount(forest.part_index)
    row, part = np.nonzero(unmerged & (sizes > 1))
    widths = np.array([uint_width(size) for size in sizes.tolist()], dtype=np.int64)
    return row, part, widths[part]


def _t_plus(n: int, t_cols: np.ndarray, restrictions: np.ndarray) -> np.ndarray:
    """T and its out-neighbours in the full graph, ascending: the colours of field 5."""
    mark = np.zeros(n, dtype=bool)
    mark[t_cols] = True
    mark[restrictions[restrictions != t_cols]] = True
    return np.flatnonzero(mark)


def _info_from_pass(rack: Rack, params: CodecParams, greedy):
    """(info, drops): build_info on the result of _greedy_pass(rack,
    params.delta), and the drop in T-graph component count that each
    colour of info.s_low_minus_t would give."""
    n = rack.n
    s_low, s_high, order, _ = greedy
    t_order = order[:min(params.cap_l, len(order))]
    t_set = set(t_order)
    t_cols = np.array(sorted(t_set), dtype=np.intp)
    forest = components(rack_graph(rack, t_cols))
    restrictions = rack.array[:, t_cols]    # [j][k] = (t_cols[k])f_j
    low = np.zeros(n, dtype=bool)
    low[list(s_low)] = True
    if not low[restrictions].all():
        raise EncodeConsistencyError("low-degree set is not closed under the translations")
    t_plus = _t_plus(n, t_cols, restrictions)

    # no check that the other parts are kept: a colour in T has every edge
    # inside a part, and a map sending no vertex of a part outside it permutes it
    rest_maps = rack.array[[j for j in s_low if j not in t_set]]
    drops, merged = part_merges(forest, rest_maps)

    return InfoTuple(
        n=n, delta=params.delta, cap_l=params.cap_l,
        s_low=s_low, s_high=s_high, t_order=t_order, t_plus=tuple(t_plus.tolist()),
        high_maps=rack.array[list(s_high)],
        t_restrictions=restrictions,
        t_plus_maps=rack.array[t_plus],
        merged=merged,
        merged_images=rest_maps[merged[:, forest.part_index]],
        forest=forest,
    ), drops


@dataclass(frozen=True)
class Residual:
    entries: tuple  # (representative, component index, bit width >= 1, image index)


def extract_residual(rack: Rack, info: InfoTuple) -> Residual:
    """The residual's fields: one image index per (undetermined
    representative, unmerged component of two or more vertices).

    Representatives whose full map is already in the info tuple contribute
    nothing, and neither do singletons, whose index takes no bits.  Raises
    EncodeConsistencyError if the image of a component minimum escapes its
    unmerged component, a singleton's included, which means info does not
    match the rack.
    """
    n = rack.n
    forest = info.forest
    known = np.zeros(n, dtype=bool)
    known[list(info.s_high + info.t_plus)] = True
    mins = forest.members[forest.starts]
    reps = mins[~known[mins]]
    unmerged = ~info.merged[np.searchsorted(info.s_low_minus_t, reps)]
    images = rack.array[np.ix_(reps, mins)]
    escaped = unmerged & (forest.part_index[images] != np.arange(len(mins)))
    if escaped.any():
        row, di = divmod(int(escaped.argmax()), len(mins))
        raise EncodeConsistencyError(
            f"map {reps[row]} moves {mins[di]} out of its unmerged component")
    row, part, width = _residual_layout(forest, unmerged)
    place = np.empty(n, dtype=np.intp)      # vertex -> its index in members
    place[forest.members] = np.arange(n)
    idx = place[images[row, part]] - forest.starts[part]
    return Residual(tuple(zip(reps[row].tolist(), part.tolist(), width.tolist(), idx.tolist())))


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


def _zeta_terms(eta_q, q: int):
    """eta_q / q and eta_q log2(q) / q, the terms at q of zeta's two sums."""
    return eta_q / q, eta_q * math.log2(q) / q


def _zeta_rows(eta: np.ndarray) -> np.ndarray:
    """zeta of each row of a 2-D int array of eta sequences, as floats summed
    q by q; every term is >= 0, so skipping all-zero columns leaves the sums
    bit-equal to a sum over every q."""
    inv = np.zeros(len(eta))
    logs = np.zeros(len(eta))
    for q in (np.flatnonzero(eta.any(axis=0)) + 1).tolist():
        a, b = _zeta_terms(eta[:, q - 1], q)
        inv += a
        logs += b
    return inv * logs


def _zeta(eta) -> float:
    return float(_zeta_rows(np.array([eta], dtype=np.int64))[0])


def _write_info(w: BitWriter, info: InfoTuple) -> None:
    n = info.n
    w_vertex = uint_width(n)
    w_perm = perm_width(n)
    w.write_bitmap(info.s_low, n)
    for rank in lehmer_ranks(info.high_maps):
        w.write(rank, w_perm)
    w.write(len(info.t_order), uint_width(n + 1))
    w.write_block(info.t_order, w_vertex)
    # field 4: per colour, its map on T
    t_mask = np.zeros(n, dtype=bool)
    t_mask[list(info.t_order)] = True
    _write_partial_maps(w, np.broadcast_to(t_mask, (n, n)), info.t_restrictions.ravel())
    for rank in lehmer_ranks(info.t_plus_maps):
        w.write(rank, w_perm)
    # field 6 in one block: the merge bitmaps; field 7: per colour, its map on its block
    cp = len(info.forest.parts)
    w.write_varblock(_bitmap_fields(info.merged).ravel(),
                     np.tile(_bitmap_widths(cp), len(info.merged)))
    _write_partial_maps(w, info.merged[:, info.forest.part_index], info.merged_images)


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
    w = BitWriter()
    _write_info(w, info)
    header_bits = w.nbits
    entries = extract_residual(rack, info).entries
    w.write_varblock([idx for _, _, _, idx in entries], [width for _, _, width, _ in entries])
    residual_bits = w.nbits - header_bits
    data = head + w.getvalue()

    eta = info.forest.eta
    stats = CodecStats(
        n=n, delta=params.delta, cap_l=params.cap_l, eta=eta,
        cp=len(info.forest.parts), zeta=_zeta(eta),
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


def _read_until_bad(r: BitReader, widths: np.ndarray, limits, message):
    """Fields that must lie below their limits, read in one block.

    Returns (values, error): the fields up to the first one that reading
    them one by one would fail on, and that failure, or None.  It is
    CorruptStream(message(value)) for a value at or over its limit, or the
    BitUnderflow of a field that over-runs the stream.
    """
    fit = int(np.searchsorted(np.cumsum(widths), r.bits_remaining(), side="right"))
    values = r.read_varblock(widths[:fit])
    bad = np.flatnonzero(values >= np.broadcast_to(limits, widths.shape)[:fit])
    if bad.size:
        return values[:bad[0]], CorruptStream(message(int(values[bad[0]])))
    if fit < len(widths):
        try:
            r.read(int(widths[fit]))
        except BitUnderflow as exc:
            return values, exc
    return values, None


def _decode_body(n: int, r: BitReader) -> Rack:
    s_low = r.read_bitmap(n)
    # n! only after the first field has been read, so a stream too short
    # for its header's n fails without computing it
    nfact = math.factorial(n)
    w_perm = uint_width(nfact)

    def read_rank():
        rank = r.read(w_perm)
        if rank >= nfact:
            raise CorruptStream(f"permutation rank {rank} out of range")
        return rank

    low_set = set(s_low)
    ranks = {j: read_rank() for j in range(n) if j not in low_set}     # colour -> its map's rank

    t_len = r.read(uint_width(n + 1))
    if t_len > n:
        raise CorruptStream("t length out of range")
    t_order, error = _read_until_bad(r, np.full(t_len, uint_width(n)), n, _out_of_range)
    if error:
        raise error
    t_set = set(t_order.tolist())
    if len(t_set) != t_len or not t_set <= low_set:
        raise CorruptStream("invalid t set")
    t_cols = np.sort(t_order)

    # field 4: each colour's map on T.  Every map takes n bits or more, so
    # only the rows the stream can hold are laid out
    t_mask = np.zeros(n, dtype=bool)
    t_mask[t_cols] = True
    restrictions, error = _read_partial_maps(
        r, np.broadcast_to(t_mask, (min(n, r.bits_remaining() // n + 1), n)),
        lambda j: f"restriction domain mismatch for colour {j}")
    if error:
        raise error
    restrictions = restrictions.reshape(n, t_len)      # [j][k] = (t_sorted[k])f_j

    # the n x n maps only now: field 4 held n domain bitmaps of n bits each
    maps = np.zeros((n, n), dtype=np.int32)     # row j is f_j once known[j]
    known = np.zeros(n, dtype=bool)
    for k in _t_plus(n, t_cols, restrictions).tolist():
        rank = read_rank()
        if ranks.setdefault(k, rank) != rank:      # equal ranks, equal maps
            raise InconsistentDecode(f"conflicting maps for colour {k}")
    maps[list(ranks)] = lehmer_unranks(list(ranks.values()), n)
    known[list(ranks)] = True
    bad = np.flatnonzero(known & (maps[:, t_cols] != restrictions).any(axis=1))
    if bad.size:
        raise InconsistentDecode(f"restriction mismatch for colour {bad[0]}")

    # T's maps are decoded permutations, whose edges lie on directed cycles: trees span parts
    t_maps = maps[t_cols]
    forest = bfs_forest(t_maps)
    cp = len(forest.parts)

    # field 6 in one block of whole bitmaps; an over-run fails as read_bitmap does
    in_rest = np.zeros(n, dtype=bool)
    in_rest[list(s_low)] = True
    in_rest[t_cols] = False
    rest = np.flatnonzero(in_rest)      # S \ T, ascending
    whole = min(len(rest), r.bits_remaining() // cp)
    bitmap = _bitmap_widths(cp)
    merged = _bitmap_members(r.read_varblock(np.tile(bitmap, whole)).reshape(whole, len(bitmap)),
                             cp)
    if whole < len(rest):
        r.read_bitmap(cp)

    # field 7: each remaining low colour's map on its block, which it must
    # permute; a colour read before a failure is checked first
    blocks = merged[:, forest.part_index]
    block_images, error = _read_partial_maps(
        r, blocks, lambda j: f"merged domain mismatch for colour {rest[j]}")
    block_row, block_vertex = (a[:len(block_images)] for a in np.nonzero(blocks))  # stream order
    # sorted by (colour, image), which leaves each colour's entries in their
    # places, a kept block's images are its vertices
    moved = block_images[np.lexsort((block_images, block_row))] != block_vertex
    if moved.any():
        raise InconsistentDecode(f"merged block of colour {rest[block_row[moved][0]]} "
                                 "is not preserved")
    if error:
        raise error

    # one residual index per (representative, unmerged part), all in one block:
    # the image of the part's minimum, as a place in the part.  A representative
    # without a map lies in S \ T (T+ contains T), so it has a merge list.
    mins = forest.members[forest.starts]
    reps = mins[~known[mins]]
    rep_rows = np.searchsorted(rest, reps)     # each representative's row of merged
    unmerged = ~merged[rep_rows]
    entry_rep, entry_part, widths = _residual_layout(forest, unmerged)
    idx, error = _read_until_bad(r, widths, np.bincount(forest.part_index)[entry_part],
                                 lambda _: "residual index out of range")
    # the representatives read in full come first, as a one-by-one decode would
    done = len(reps) if error is None else int(entry_rep[len(idx)])
    if done:
        entries = int(np.searchsorted(entry_rep, done))
        firsts = forest.starts[entry_part[:entries]]
        rows = reps[:done]
        # row i: the map of rows[i]; an unmerged singleton keeps its vertex
        images = np.tile(np.arange(n, dtype=np.int32), (done, 1))
        images[entry_rep[:entries], forest.members[firsts]] = forest.members[firsts + idx[:entries]]
        # (u)f_v = ((x)f_v) f_k with k = (i)f_v, along each tree edge x -> u of
        # colour i; merged parts are walked too, and then overwritten
        colour_of = restrictions[rows]
        for tail, head, colour in forest.levels:
            images[:, head] = maps[colour_of[:, colour], images[:, tail]]
        row_of = np.full(len(rest), -1)     # row of merged -> row of images
        row_of[rep_rows[:done]] = np.arange(done)
        mine = row_of[block_row] >= 0
        images[row_of[block_row[mine]], block_vertex[mine]] = block_images[mine]
        bad = np.flatnonzero(~permutation_rows(images))
        if bad.size:
            raise InconsistentDecode(f"reconstructed map {rows[bad[0]]} is not a permutation")
        maps[rows] = images
        known[rows] = True
    if error:
        raise error

    rest_bits = r.bits_remaining()
    if rest_bits >= 8:
        raise CorruptStream("trailing bytes after stream")
    if rest_bits and r.read(rest_bits) != 0:
        raise CorruptStream("nonzero padding")

    # conjugate all remaining maps from their component representatives
    differ = conjugate_along_forest(maps, t_maps, forest.levels, known)
    if differ.size:
        u = min(differ.tolist(), key=lambda u: (forest.part_index[u], u))
        raise InconsistentDecode(f"conjugation mismatch at {u}")

    result = rack_from_table(maps.T)
    if isinstance(result, AxiomReport):
        raise InconsistentDecode("reconstructed maps violate the rack axioms")
    bad = block_row[maps[rest[block_row], block_vertex] != block_images]
    if bad.size:
        raise InconsistentDecode(f"merged restriction mismatch for colour {rest[bad[0]]}")
    bad = np.flatnonzero((maps[:, t_cols] != restrictions).any(axis=1))
    if bad.size:
        raise InconsistentDecode(f"restriction mismatch for colour {bad[0]}")
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
    have.  Raises AuditFail at the first violated index.  The T-graph is
    build_info's, so build_info's one check, that the low set is closed
    under the translations, runs too (EncodeConsistencyError).
    """
    if params is None:
        params = CodecParams.default(rack.n)
    greedy = _greedy_pass(rack, params.delta)
    info, drops = _info_from_pass(rack, params, greedy)
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
    cp_t = len(info.forest.parts)
    capped = len(s_low) > t_count
    x_after_t = x_seq[t_count] if capped and t_count < len(x_seq) else None
    post = []
    for j, drop, merged in zip(info.s_low_minus_t, drops.tolist(),
                               info.merged.sum(axis=1).tolist()):
        post.append((j, drop, merged))
        if x_after_t is not None and drop > x_after_t:
            raise AuditFail(f"colour {j} merges more than the next greedy pick", j)
        if merged > 2 * drop:
            raise AuditFail(f"colour {j} merged-set exceeds twice its drop", j)
    return MergeAuditReport(
        n=n, delta=params.delta, cap_l=params.cap_l, s_low=s_low,
        order=order, cp_seq=cps, x_seq=tuple(x_seq), t=t, cp_t=cp_t,
        sum_x=sum(x_seq), x_after_t=x_after_t, post_t_drops=tuple(post),
    )
