import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racklab.bits import BitReader, BitUnderflow, BitWriter


class ReferenceWriter:
    """The bit-at-a-time writer that BitWriter replaced, kept as a test oracle."""

    def __init__(self):
        self._buf = bytearray()
        self.nbits = 0

    def write(self, value, width):
        if width < 0:
            raise ValueError("negative width")
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {width} bits")
        for i in range(width - 1, -1, -1):
            if self.nbits % 8 == 0:
                self._buf.append(0)
            if (value >> i) & 1:
                self._buf[-1] |= 0x80 >> (self.nbits % 8)
            self.nbits += 1

    def write_bitmap(self, members, n):
        members = set(members)
        for i in range(n):
            self.write(1 if i in members else 0, 1)

    def getvalue(self):
        return bytes(self._buf)


class ReferenceReader:
    """The bit-at-a-time reader that BitReader replaced, kept as a test oracle."""

    def __init__(self, data):
        self._data = data
        self.pos = 0

    def read(self, width):
        if width < 0:
            raise ValueError("negative width")
        if self.pos + width > 8 * len(self._data):
            raise BitUnderflow(f"need {width} bits at position {self.pos}")
        value = 0
        for _ in range(width):
            byte = self._data[self.pos // 8]
            bit = (byte >> (7 - self.pos % 8)) & 1
            value = (value << 1) | bit
            self.pos += 1
        return value

    def read_bitmap(self, n):
        return tuple(i for i in range(n) if self.read(1))


# the widths the codec meets: flags, vertices, byte and word edges, and
# Lehmer ranks of n = 256 (ceil(log2 256!) = 1684 bits)
WIDTHS = st.one_of(st.sampled_from([0, 1, 7, 8, 63, 64, 65, 1684, 1700]),
                   st.integers(0, 140))


@st.composite
def field(draw):
    if draw(st.booleans()):
        width = draw(WIDTHS)
        return ("uint", draw(st.integers(0, (1 << width) - 1)), width)
    n = draw(st.integers(0, 140))
    # members outside range(n) are ignored by both writers
    members = draw(st.lists(st.integers(-3, n + 3), max_size=n + 4))
    return ("bitmap", members, n)


def write_all(writer, fields):
    for kind, payload, width in fields:
        if kind == "uint":
            writer.write(payload, width)
        else:
            writer.write_bitmap(payload, width)
    return writer


@settings(max_examples=300, deadline=None)
@given(st.lists(field(), max_size=30))
def test_writer_bytes_match_reference(fields):
    writer, reference = BitWriter(), ReferenceWriter()
    for f in fields:
        write_all(writer, [f])
        write_all(reference, [f])
        assert writer.nbits == reference.nbits
        assert writer.getvalue() == reference.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.lists(field(), max_size=30), st.integers(1, 1800), st.integers(1, 200))
def test_reader_reads_back_and_underflows_like_reference(fields, over, over_bitmap):
    data = write_all(BitWriter(), fields).getvalue()
    reader, reference = BitReader(data), ReferenceReader(data)
    for kind, payload, width in fields:
        if kind == "uint":
            assert reader.read(width) == reference.read(width) == payload
        else:
            expected = tuple(sorted({i for i in payload if 0 <= i < width}))
            assert reader.read_bitmap(width) == reference.read_bitmap(width) == expected
        assert reader.pos == reference.pos
    assert reader.bits_remaining() == 8 * len(data) - reference.pos
    # an over-run of read leaves pos alone; one of read_bitmap reports the
    # first missing bit and ends at the end of the data
    for method, size in (("read", reader.bits_remaining() + over),
                         ("read_bitmap", reader.bits_remaining() + over_bitmap)):
        with pytest.raises(BitUnderflow) as expected:
            getattr(reference, method)(size)
        with pytest.raises(BitUnderflow, match=f"^{re.escape(str(expected.value))}$"):
            getattr(reader, method)(size)
        assert reader.pos == reference.pos


@pytest.mark.parametrize("value, width", [(2, 1), (1 << 64, 64), (1, 0), (-1, 8), (0, -1)])
def test_writer_rejects_like_reference(value, width):
    with pytest.raises(ValueError) as expected:
        ReferenceWriter().write(value, width)
    writer = BitWriter()
    writer.write(5, 3)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        writer.write(value, width)
    assert writer.nbits == 3 and writer.getvalue() == b"\xa0"


def test_reader_rejects_negative_width():
    with pytest.raises(ValueError, match="^negative width$"):
        BitReader(b"\xff").read(-1)
