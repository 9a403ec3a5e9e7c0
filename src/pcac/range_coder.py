"""Integer range coder over 16-bit cumulative frequency tables.

Pure integer arithmetic (64-bit low, 32-bit range, byte-wise renormalization
with explicit carry propagation), so the byte output is platform independent.
Encoder and decoder must see the identical CDF sequence; there is no adaptive
state.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .errors import CorruptStream, InvalidCdf

_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF
PRECISION_BITS = 16
TOTAL = 1 << PRECISION_BITS


def _check_cdf(cdf):
    if cdf[0] != 0 or cdf[-1] != TOTAL:
        raise InvalidCdf(f"cdf endpoints {cdf[0]}, {cdf[-1]}")


class RangeEncoder:
    def __init__(self):
        self.low = 0  # up to 33 bits before carry resolution
        self.range = _MASK32
        self.out = bytearray()

    def _propagate_carry(self):
        i = len(self.out) - 1
        while self.out[i] == 0xFF:
            self.out[i] = 0
            i -= 1
        self.out[i] += 1

    def _encode_span(self, cum_lo: int, cum_hi: int, total: int):
        r = self.range // total
        self.low += r * cum_lo
        if cum_hi == total:
            self.range -= r * cum_lo  # top symbol absorbs the rounding slack
        else:
            self.range = r * (cum_hi - cum_lo)
        if self.low > _MASK32:
            self._propagate_carry()
            self.low &= _MASK32
        while self.range < _TOP:
            self.out.append((self.low >> 24) & 0xFF)
            self.low = (self.low << 8) & _MASK32
            self.range <<= 8

    def encode_symbol(self, symbol: int, cdf):
        """Encode one symbol against an integer CDF (cdf[0]=0, cdf[M]=65536)."""
        _check_cdf(cdf)
        lo, hi = int(cdf[symbol]), int(cdf[symbol + 1])
        if lo >= hi:
            raise InvalidCdf(f"symbol {symbol} has zero width")
        self._encode_span(lo, hi, TOTAL)

    def encode_spans(self, lo, hi):
        """Encode a sequence of symbols given by their spans [lo, hi) out of
        TOTAL (two integer arrays), as encode_symbol codes one symbol with
        lo = cdf[symbol] and hi = cdf[symbol + 1]."""
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        if np.any(lo < 0) or np.any(hi > TOTAL) or np.any(lo >= hi):
            raise InvalidCdf("a span has zero width or leaves 0..TOTAL")
        for cum_lo, cum_hi in zip(lo.tolist(), hi.tolist()):
            self._encode_span(cum_lo, cum_hi, TOTAL)

    def encode_uniform_symbol(self, symbol: int, alphabet: int):
        self._encode_span(symbol, symbol + 1, alphabet)

    def finish(self) -> bytes:
        for _ in range(4):
            self.out.append((self.low >> 24) & 0xFF)
            self.low = (self.low << 8) & _MASK32
        return bytes(self.out)


class RangeDecoder:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.range = _MASK32
        self.code = 0
        for _ in range(4):
            self.code = (self.code << 8) | self._next_byte()

    def _next_byte(self) -> int:
        if self.pos < len(self.data):
            b = self.data[self.pos]
            self.pos += 1
            return b
        return 0  # mirrored zero-padding of the encoder flush

    def _decode_span(self, cum_lookup, total: int) -> int:
        r = self.range // total
        dv = min(self.code // r, total - 1)
        symbol, cum_lo, cum_hi = cum_lookup(dv)
        self.code -= r * cum_lo
        if cum_hi == total:
            self.range -= r * cum_lo
        else:
            self.range = r * (cum_hi - cum_lo)
        if self.code >= self.range:
            raise CorruptStream("decoder state outside the current interval")
        while self.range < _TOP:
            # code < range < 2^24 here, so the shift stays within 32 bits
            self.code = (self.code << 8) | self._next_byte()
            self.range <<= 8
        return symbol

    def decode_symbol(self, cdf) -> int:
        """Decode one symbol; `cdf` is a sequence of Python ints (a list or
        an integer memoryview) or an ndarray, which is converted once."""
        if isinstance(cdf, np.ndarray):
            cdf = cdf.tolist()
        _check_cdf(cdf)

        def lookup(dv):
            s = bisect_right(cdf, dv) - 1
            return s, cdf[s], cdf[s + 1]

        return self._decode_span(lookup, TOTAL)

    def decode_uniform_symbol(self, alphabet: int) -> int:
        return self._decode_span(lambda dv: (dv, dv, dv + 1), alphabet)


def encode_with_cdfs(symbols, cdfs) -> bytes:
    """Encode symbols[i] against cdfs[i] (or a single shared cdf)."""
    enc = RangeEncoder()
    if isinstance(cdfs, np.ndarray) and cdfs.ndim == 1:
        cdfs = [cdfs.tolist()] * len(symbols)
    for s, cdf in zip(symbols, cdfs):
        enc.encode_symbol(int(s), cdf)
    return enc.finish()


def decode_with_cdfs(data: bytes, cdfs, n: int | None = None):
    dec = RangeDecoder(data)
    if isinstance(cdfs, np.ndarray) and cdfs.ndim == 1:
        assert n is not None
        cdfs = [cdfs.tolist()] * n
    return np.array([dec.decode_symbol(cdf) for cdf in cdfs], dtype=np.int64)


def encode_uniform(symbols, alphabet: int) -> bytes:
    """Fixed uniform model; length approaches n*log2(alphabet) bits."""
    assert alphabet >= 2
    enc = RangeEncoder()
    for s in symbols:
        enc.encode_uniform_symbol(int(s), alphabet)
    return enc.finish()


def decode_uniform(data: bytes, n: int, alphabet: int):
    dec = RangeDecoder(data)
    return np.array([dec.decode_uniform_symbol(alphabet) for _ in range(n)],
                    dtype=np.int64)
