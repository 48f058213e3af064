"""MSB-first bit packing: the first bit written is the high bit of the first byte.

Besides one field at a time, the writer and reader move whole blocks of
fields of at most 63 bits through numpy; a block's bits are those of its
fields written or read one by one.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK_WIDTH_MAX = 63    # widest field of a block, so that every value is an int64


def _field_bits(widths: np.ndarray) -> np.ndarray:
    """A (count, max width) mask of the bits of each field, right-aligned:
    a row of uint8 bits holds its field most significant bit first."""
    span = int(widths.max())
    return np.arange(span) >= span - widths[:, None]


class BitUnderflow(Exception):
    """Read past the end of the bit stream."""


class BitWriter:
    """Pending bits live in one int; whole bytes go to the buffer once 64 or more wait."""

    def __init__(self):
        self._buf = bytearray()
        self._pending = 0
        self._npending = 0
        self.nbits = 0

    def write(self, value: int, width: int) -> None:
        """Append value as exactly width bits, most significant bit first."""
        if width < 0:
            raise ValueError("negative width")
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {width} bits")
        pending = (self._pending << width) | value
        npending = self._npending + width
        if npending >= 64:
            keep = npending % 8
            self._buf += (pending >> keep).to_bytes(npending // 8, "big")
            pending &= (1 << keep) - 1
            npending = keep
        self._pending = pending
        self._npending = npending
        self.nbits += width

    def write_bitmap(self, members, n: int) -> None:
        """n bits, bit i set iff i is a member; i = 0 comes first in the stream."""
        value = 0
        for i in members:
            if 0 <= i < n:
                value |= 1 << (n - 1 - i)
        self.write(value, n)

    def write_block(self, values, width: int) -> None:
        """write(v, width) for each int64 v in values, in order."""
        self.write_varblock(values, np.full(len(values), width, dtype=np.int64))

    def write_varblock(self, values, widths) -> None:
        """write(v, w) for each pair of int64 values and widths, in order.

        The block goes out as one field when every width is at most 63 and
        every value fits; otherwise the fields are written one by one, so a
        bad field raises write's ValueError after the fields before it.
        """
        if not len(widths):
            return
        values = np.asarray(values, dtype=np.int64)
        widths = np.asarray(widths, dtype=np.int64)
        if not 0 <= widths.min() <= widths.max() <= BLOCK_WIDTH_MAX \
                or (values < 0).any() or (values >> widths).any():
            for v, w in zip(values.tolist(), widths.tolist()):
                self.write(v, w)
            return
        keep = _field_bits(widths)
        nbytes = (keep.shape[1] + 7) // 8
        big_endian = values.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - nbytes:]
        bits = np.unpackbits(big_endian, axis=1)[:, 8 * nbytes - keep.shape[1]:][keep]
        if len(bits):
            packed = int.from_bytes(np.packbits(bits).tobytes(), "big")
            self.write(packed >> (-len(bits) % 8), len(bits))

    def getvalue(self) -> bytes:
        """The bytes written so far, the last one zero-padded."""
        pad = -self._npending % 8
        tail = (self._pending << pad).to_bytes((self._npending + pad) // 8, "big")
        return bytes(self._buf) + tail


class BitReader:
    def __init__(self, data: bytes):
        self._data = data
        self.pos = 0

    def read(self, width: int) -> int:
        """The next width bits as an unsigned int; only the bytes they touch are parsed."""
        if width < 0:
            raise ValueError("negative width")
        end = self.pos + width
        if end > 8 * len(self._data):
            raise BitUnderflow(f"need {width} bits at position {self.pos}")
        last = (end + 7) // 8
        chunk = int.from_bytes(self._data[self.pos // 8:last], "big")
        self.pos = end
        return (chunk >> (8 * last - end)) & ((1 << width) - 1)

    def read_bitmap(self, n: int) -> tuple:
        """Members of an n-bit bitmap, ascending.  An over-run reports the
        first missing bit and leaves pos at the end, as a bit-by-bit read would."""
        if n > self.bits_remaining():
            self.pos = 8 * len(self._data)
            raise BitUnderflow(f"need 1 bits at position {self.pos}")
        value = self.read(n)
        members = []
        while value:
            top = value.bit_length() - 1
            members.append(n - 1 - top)
            value ^= 1 << top
        return tuple(members)

    def read_block(self, count: int, width: int) -> np.ndarray:
        """count fields of width bits (at most 63), as int64: read(width) count times."""
        if width < 0:
            raise ValueError("negative width")
        return self.read_varblock(np.full(count, width, dtype=np.int64))

    def read_varblock(self, widths) -> np.ndarray:
        """One field per width (each in 0..63), as int64: read(w) for each w in turn.

        An over-run falls back to those scalar reads, so it raises the
        BitUnderflow of the first field that does not fit, with pos after
        the fields that do.
        """
        widths = np.asarray(widths, dtype=np.int64).reshape(-1)
        if len(widths) and not 0 <= widths.min() <= widths.max() <= BLOCK_WIDTH_MAX:
            raise ValueError("block field widths must lie in 0..63")
        total = int(widths.sum())
        if total > self.bits_remaining():
            for w in widths.tolist():
                self.read(w)
        if not total:
            return np.zeros(len(widths), dtype=np.int64)
        start, skip = divmod(self.pos, 8)
        raw = np.frombuffer(self._data, dtype=np.uint8, offset=start,
                            count=(skip + total + 7) // 8)
        keep = _field_bits(widths)
        rows = np.zeros(keep.shape, dtype=np.uint8)
        rows[keep] = np.unpackbits(raw)[skip:skip + total]
        packed = np.packbits(rows, axis=1)      # left-aligned, nbytes per field
        nbytes = packed.shape[1]
        padded = np.zeros((len(widths), 8), dtype=np.uint8)
        padded[:, 8 - nbytes:] = packed
        self.pos += total
        return (padded.view(">u8").ravel() >> (8 * nbytes - keep.shape[1])).astype(np.int64)

    def bits_remaining(self) -> int:
        return 8 * len(self._data) - self.pos


def uint_width(count: int) -> int:
    """Bits needed to address `count` distinct values; 0 when count <= 1."""
    if count < 1:
        raise ValueError("count must be positive")
    return (count - 1).bit_length()


def perm_width(n: int) -> int:
    """Bits of a Lehmer rank for permutations of [n]: ceil(log2 n!)."""
    return uint_width(math.factorial(n))
