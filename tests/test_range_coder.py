import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcac import range_coder as rc
from pcac.errors import CorruptStream, InvalidCdf
from pcac.likelihood import build_cdf_table


def random_cdf(rng, m):
    return build_cdf_table(rng.dirichlet(np.ones(m)))[0]


def test_round_trip_single_cdf():
    rng = np.random.default_rng(0)
    cdf = random_cdf(rng, 17)
    syms = rng.integers(0, 17, size=500)
    # one shared 1-D ndarray row codes as the same row given per symbol
    data = rc.encode_with_cdfs(syms, np.asarray(cdf))
    assert data == rc.encode_with_cdfs(syms, [cdf.tolist()] * len(syms))
    back = rc.decode_with_cdfs(data, np.asarray(cdf), len(syms))
    np.testing.assert_array_equal(syms, back)


def test_round_trip_per_symbol_cdfs():
    # every symbol gets its own model, as in the codec
    rng = np.random.default_rng(1)
    cdfs = [random_cdf(rng, int(rng.integers(2, 300))) for _ in range(300)]
    syms = [int(rng.integers(0, len(c) - 1)) for c in cdfs]
    data = rc.encode_with_cdfs(syms, cdfs)
    back = rc.decode_with_cdfs(data, cdfs)
    assert list(back) == syms


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 64), st.integers(0, 200))
@settings(max_examples=80, deadline=None)
def test_round_trip_property(seed, m, n):
    rng = np.random.default_rng(seed)
    cdf = random_cdf(rng, m)
    syms = rng.integers(0, m, size=n)
    back = rc.decode_with_cdfs(rc.encode_with_cdfs(syms, np.asarray(cdf)),
                               np.asarray(cdf), n)
    np.testing.assert_array_equal(syms, back)


def test_skewed_source_is_near_entropy():
    # [DERIVED] coded length within 1% + 64 bits of the Shannon entropy
    rng = np.random.default_rng(2)
    p = np.array([0.9, 0.05, 0.03, 0.015, 0.005])
    n = 100_000
    syms = rng.choice(5, size=n, p=p)
    cdf = build_cdf_table(p)[0]
    data = rc.encode_with_cdfs(syms, np.asarray(cdf))
    counts = np.bincount(syms, minlength=5) / n
    nz = counts > 0
    empirical_entropy = -(counts[nz] * np.log2(counts[nz])).sum() * n
    assert 8 * len(data) <= empirical_entropy * 1.01 + 64
    np.testing.assert_array_equal(
        rc.decode_with_cdfs(data, np.asarray(cdf), n), syms)


def test_uniform_coder_length():
    # [DERIVED] n symbols from an alphabet of m cost ~ n*log2(m) + flush
    for n, m in ((1, 26), (100, 26), (5000, 26), (1000, 256)):
        rng = np.random.default_rng(n)
        syms = rng.integers(0, m, size=n)
        data = rc.encode_uniform(syms, m)
        assert 8 * len(data) <= n * np.log2(m) * 1.01 + 16 * 8
        np.testing.assert_array_equal(rc.decode_uniform(data, n, m), syms)


def test_invalid_cdfs_rejected():
    enc = rc.RangeEncoder()
    with pytest.raises(InvalidCdf):
        enc.encode_symbol(0, [0, 100])  # does not end at 65536
    with pytest.raises(InvalidCdf):
        enc.encode_symbol(0, [0, 0, 65536])  # zero-width symbol
    with pytest.raises(InvalidCdf):
        rc.RangeDecoder(b"\0" * 8).decode_symbol([1, 65536])


def test_truncated_stream_is_detected_or_padded():
    # decoding past the flush either raises CorruptStream or, for very short
    # truncations, decodes wrong symbols -- it must never hang or crash
    rng = np.random.default_rng(3)
    cdf = np.asarray(random_cdf(rng, 26))
    syms = rng.integers(0, 26, size=400)
    data = rc.encode_with_cdfs(syms, cdf)
    bad = bytearray(data)
    bad[10] ^= 0xFF
    try:
        back = rc.decode_with_cdfs(bytes(bad), cdf, len(syms))
        assert not np.array_equal(back, syms)
    except CorruptStream:
        pass


def test_carry_propagation():
    # many maximal symbols pushes low toward carry conditions
    cdf = np.asarray(build_cdf_table(np.array([1 / 65536 * 2, 1 - 2 / 65536]))[0])
    syms = np.tile([1, 1, 1, 1, 0], 200)
    data = rc.encode_with_cdfs(syms, cdf)
    np.testing.assert_array_equal(rc.decode_with_cdfs(data, cdf, len(syms)), syms)


def test_empty_stream():
    data = rc.encode_with_cdfs([], [])
    assert len(data) == 4  # flush only
    assert rc.decode_with_cdfs(data, [], 0).size == 0


def _row_kinds(table):
    """The same CDF rows as lists, memoryview slices and ndarray rows."""
    width = table.shape[1]
    flat = memoryview(table.reshape(-1))
    return {"list": table.tolist(),
            "memoryview": [flat[lo:lo + width]
                           for lo in range(0, len(flat), width)],
            "ndarray": list(table)}


def test_cdf_row_types_agree():
    rng = np.random.default_rng(5)
    table = build_cdf_table(rng.dirichlet(np.ones(26), size=300))
    assert table.dtype == np.int64
    syms = rng.integers(0, 26, size=300)
    rows = _row_kinds(table)
    streams = {kind: rc.encode_with_cdfs(syms, r) for kind, r in rows.items()}
    assert len(set(streams.values())) == 1
    data = streams["list"]
    for kind, r in rows.items():
        np.testing.assert_array_equal(rc.decode_with_cdfs(data, r), syms,
                                      err_msg=kind)


def test_memoryview_rows_are_checked():
    bad_end = _row_kinds(np.array([[0, 100, 65535]]))["memoryview"][0]
    bad_start = _row_kinds(np.array([[1, 100, 65536]]))["memoryview"][0]
    zero_width = _row_kinds(np.array([[0, 0, 65536]]))["memoryview"][0]
    for row in (bad_end, bad_start, zero_width):
        with pytest.raises(InvalidCdf):
            rc.RangeEncoder().encode_symbol(0, row)
    for row in (bad_end, bad_start):
        with pytest.raises(InvalidCdf):
            rc.RangeDecoder(b"\0" * 8).decode_symbol(row)
    # the decoder picks s with cdf[s] <= target < cdf[s + 1], so it never
    # returns a zero-width symbol
    data = rc.encode_with_cdfs([1] * 50, [zero_width] * 50)
    assert rc.decode_with_cdfs(data, [zero_width] * 50).tolist() == [1] * 50


def test_encode_spans_matches_encode_symbol():
    # coding each symbol's (cdf[s], cdf[s + 1]) span gives the bytes of
    # coding the symbol against its row
    rng = np.random.default_rng(8)
    table = build_cdf_table(rng.dirichlet(np.ones(26) * 0.3, size=500))
    syms = rng.integers(0, 26, size=500)
    rows = np.arange(500)
    enc = rc.RangeEncoder()
    enc.encode_spans(table[rows, syms], table[rows, syms + 1])
    data = enc.finish()
    assert data == rc.encode_with_cdfs(syms, table)
    np.testing.assert_array_equal(rc.decode_with_cdfs(data, table), syms)


def test_encode_spans_rejects_bad_spans():
    for lo, hi in (([0, 7], [5, 7]), ([9], [3]), ([-1], [4]),
                   ([65000], [65537])):
        enc = rc.RangeEncoder()
        with pytest.raises(InvalidCdf):
            enc.encode_spans(lo, hi)
        assert enc.finish() == bytes(4)  # nothing was coded


# --------------------------------------------- the per-symbol coder, oracle

_MASK32 = 0xFFFFFFFF


def _reference_encode(spans, total=rc.TOTAL):
    """Bytes of coding each (lo, hi) span out of `total`, one symbol per
    step in plain Python, as the coder was first written."""
    low, rng, out = 0, _MASK32, bytearray()
    for lo, hi in spans:
        r = rng // total
        low += r * lo
        rng = rng - r * lo if hi == total else r * (hi - lo)
        if low > _MASK32:
            i = len(out) - 1
            while out[i] == 0xFF:
                out[i] = 0
                i -= 1
            out[i] += 1
            low &= _MASK32
        while rng < 1 << 24:
            out.append((low >> 24) & 0xFF)
            low = (low << 8) & _MASK32
            rng <<= 8
    for _ in range(4):
        out.append((low >> 24) & 0xFF)
        low = (low << 8) & _MASK32
    return bytes(out)


def _reference_decode(data, rows, total=rc.TOTAL):
    """The symbol of each CDF row (a list of ints) and the final (code,
    range, pos), one symbol per step in plain Python."""
    pos = 0

    def next_byte():
        nonlocal pos
        if pos < len(data):
            pos += 1
            return data[pos - 1]
        return 0

    code, rng = 0, _MASK32
    for _ in range(4):
        code = (code << 8) | next_byte()
    symbols = []
    for cdf in rows:
        r = rng // total
        dv = min(code // r, total - 1)
        s = max(m for m in range(len(cdf) - 1) if cdf[m] <= dv)
        code -= r * cdf[s]
        rng = rng - r * cdf[s] if cdf[s + 1] == total \
            else r * (cdf[s + 1] - cdf[s])
        if code >= rng:
            raise CorruptStream("oracle state outside the interval")
        while rng < 1 << 24:
            code = (code << 8) | next_byte()
            rng <<= 8
        symbols.append(s)
    return symbols, (code, rng, pos)


def _state(dec):
    return dec.code, dec.range, dec.pos


def _random_table(rng, rows, width, zero_width=False):
    """CDF rows of `width` entries (one symbol at width 2); with
    zero_width, some symbols get none."""
    M = width - 1
    p = rng.dirichlet(np.ones(M) * 0.5, size=rows)
    if zero_width and M > 2:
        p[:, rng.integers(0, M, size=2)] = 0.0
        p /= p.sum(axis=-1, keepdims=True)
    F = np.zeros((rows, width))
    np.cumsum(p, axis=-1, out=F[:, 1:])
    F[:, -1] = 1.0
    if zero_width:
        return np.floor(F * rc.TOTAL).astype(np.int64)
    return np.floor(F * (rc.TOTAL - M)).astype(np.int64) + np.arange(width)


def _symbols_of(rng, table):
    """A symbol of nonzero width in each row."""
    widths = np.diff(table, axis=-1)
    return np.array([rng.choice(np.flatnonzero(w)) for w in widths],
                    dtype=np.int64)


def test_encode_spans_matches_reference():
    rng = np.random.default_rng(20)
    for width in (2, 3, 27, 257, 301):
        table = _random_table(rng, 200, width)
        syms = _symbols_of(rng, table)
        rows = np.arange(len(syms))
        lo, hi = table[rows, syms], table[rows, syms + 1]
        enc = rc.RangeEncoder()
        enc.encode_spans(lo, hi)
        assert enc.finish() == _reference_encode(zip(lo.tolist(),
                                                     hi.tolist()))
    for alphabet in range(2, 301, 7):
        syms = rng.integers(0, alphabet, size=150)
        assert rc.encode_uniform(syms, alphabet) == _reference_encode(
            [(s, s + 1) for s in syms.tolist()], alphabet)


@pytest.mark.parametrize("zero_width", [False, True])
def test_decode_table_matches_reference(zero_width):
    rng = np.random.default_rng(21 + zero_width)
    for width in (2, 3, 5, 27, 257, 301):
        # several tables in a row, including 0- and 1-row tables
        tables = [_random_table(rng, n, width, zero_width)
                  for n in (0, 1, 64, 0, 17, 1)]
        table = np.concatenate(tables)
        syms = _symbols_of(rng, table)
        rows = np.arange(len(syms))
        data = _reference_encode(zip(table[rows, syms].tolist(),
                                     table[rows, syms + 1].tolist()))
        dec = rc.RangeDecoder(data)
        got = np.concatenate([dec.decode_table(t) for t in tables])
        expect, state = _reference_decode(data, table.tolist())
        assert got.tolist() == expect == syms.tolist()
        assert _state(dec) == state


def test_decode_table_uniform_matches_reference():
    rng = np.random.default_rng(23)
    for alphabet in (2, 26, 255, 300):
        syms = rng.integers(0, alphabet, size=130)
        data = rc.encode_uniform(syms, alphabet)
        uniform = np.tile(np.arange(alphabet + 1), (len(syms), 1))
        dec = rc.RangeDecoder(data)
        got = np.concatenate([dec.decode_table(uniform[lo:lo + 50],
                                               total=alphabet)
                              for lo in range(0, len(syms), 50)])
        expect, state = _reference_decode(data, uniform.tolist(), alphabet)
        assert got.tolist() == expect == syms.tolist()
        assert _state(dec) == state
        np.testing.assert_array_equal(
            rc.decode_uniform(data, len(syms), alphabet), syms)


def test_decode_table_on_garbage_matches_reference():
    # on bytes no encoder wrote, the table loop reads what the per-symbol
    # loop reads, or raises where it raises
    rng = np.random.default_rng(24)
    table = _random_table(rng, 300, 9)
    for trial in range(20):
        data = rng.integers(0, 256, size=int(rng.integers(0, 40))).astype(
            np.uint8).tobytes()
        try:
            expect, state = _reference_decode(data, table.tolist())
        except CorruptStream:
            with pytest.raises(CorruptStream):
                rc.RangeDecoder(data).decode_table(table)
            continue
        dec = rc.RangeDecoder(data)
        assert dec.decode_table(table).tolist() == expect
        assert _state(dec) == state


def test_decode_table_rejects_bad_end_points():
    good = np.array([[0, 30000, 65536], [0, 1, 65536]])
    for bad in ([[0, 30000, 65536], [0, 1, 65535]],
                [[1, 30000, 65536], [0, 1, 65536]],
                [[0, 30000, 65537]]):
        dec = rc.RangeDecoder(b"\x12\x34\x56\x78\x9a")
        with pytest.raises(InvalidCdf):
            dec.decode_table(np.array(bad))
        assert _state(dec) == (0x12345678, 0xFFFFFFFF, 4)  # nothing read
    with pytest.raises(InvalidCdf):  # a uniform table out of the wrong total
        rc.RangeDecoder(b"\0" * 8).decode_table(np.arange(27)[None], total=25)
    assert rc.RangeDecoder(b"\0" * 8).decode_table(good).shape == (2,)
