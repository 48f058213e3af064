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


@st.composite
def blocks(draw):
    """(values, widths): up to 40 fields of at most 63 bits, widths mixed or all equal."""
    count = draw(st.integers(0, 40))
    if draw(st.booleans()):
        widths = [draw(st.integers(0, 63))] * count
    else:
        widths = draw(st.lists(st.integers(0, 63), min_size=count, max_size=count))
    values = [draw(st.integers(0, (1 << w) - 1)) for w in widths]
    return values, widths


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7), blocks(), st.integers(0, 12))
def test_block_write_and_read_match_scalar_fields(lead, block, spare):
    values, widths = block
    writer, reference = BitWriter(), ReferenceWriter()
    for w in (writer, reference):
        w.write(0, lead)    # the block starts at every bit offset of a byte
    writer.write_varblock(values, widths)
    for v, width in zip(values, widths):
        reference.write(v, width)
    writer.write(0, spare)
    reference.write(0, spare)
    data = reference.getvalue()
    assert writer.nbits == reference.nbits and writer.getvalue() == data
    if len(set(widths)) <= 1:
        constant = BitWriter()
        constant.write(0, lead)
        constant.write_block(values, widths[0] if widths else 5)
        constant.write(0, spare)
        assert constant.getvalue() == data

    reader = BitReader(data)
    reader.read(lead)
    assert reader.read_varblock(widths).tolist() == values
    assert reader.pos == lead + sum(widths)
    if len(set(widths)) <= 1 and widths:
        reader = BitReader(data)
        reader.read(lead)
        assert reader.read_block(len(values), widths[0]).tolist() == values


@settings(max_examples=300, deadline=None)
@given(blocks(), st.data())
def test_block_read_underflows_like_scalar_reads(block, data):
    # every cut of the stream short of the block's end: the same BitUnderflow
    # text and the same pos as reading the fields one by one
    values, widths = block
    total = sum(widths)
    if not total:
        return
    stream = BitWriter()
    stream.write_varblock(values, widths)
    cut = data.draw(st.integers(0, (total - 1) // 8))
    short = stream.getvalue()[:cut]
    reference = ReferenceReader(short)
    with pytest.raises(BitUnderflow) as expected:
        for w in widths:
            reference.read(w)
    reader = BitReader(short)
    with pytest.raises(BitUnderflow, match=f"^{re.escape(str(expected.value))}$"):
        reader.read_varblock(widths)
    assert reader.pos == reference.pos
    if len(set(widths)) == 1:
        reader = BitReader(short)
        with pytest.raises(BitUnderflow, match=f"^{re.escape(str(expected.value))}$"):
            reader.read_block(len(widths), widths[0])
        assert reader.pos == reference.pos


def test_block_write_rejects_like_scalar_writes():
    # a value too wide for its field raises write's error after the fields before it
    writer, reference = BitWriter(), ReferenceWriter()
    with pytest.raises(ValueError) as expected:
        for v, w in ((5, 3), (9, 3), (1, 1)):
            reference.write(v, w)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        writer.write_varblock([5, 9, 1], [3, 3, 1])
    assert writer.nbits == reference.nbits == 3
    with pytest.raises(ValueError, match="^negative width$"):
        BitWriter().write_block([1], -1)
    with pytest.raises(ValueError, match="^negative width$"):
        BitReader(b"\xff").read_block(1, -1)
    with pytest.raises(ValueError, match="^block field widths must lie in 0..63$"):
        BitReader(bytes(9)).read_varblock([64])
