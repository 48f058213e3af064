"""MSB-first bit packing: the first bit written is the high bit of the first byte."""

from __future__ import annotations

import math


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
