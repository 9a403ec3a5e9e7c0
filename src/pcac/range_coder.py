"""Integer range coder over 16-bit cumulative frequency tables.

Pure integer arithmetic (64-bit low, 32-bit range, byte-wise renormalization
with explicit carry propagation), so the byte output is platform independent.
Encoder and decoder must see the identical CDF sequence; there is no adaptive
state.

The arithmetic is written once per direction, as a loop over many symbols
with the coder state in locals: `RangeEncoder.encode_spans` codes a sequence
of (lo, hi) spans out of `total`, and `RangeDecoder.decode_table` reads one
symbol against each row of an integer CDF table (the codec passes one table
per 64-point block). The uniform model is the same loops with `total` the
alphabet size. The per-symbol methods are thin wrappers over them.
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

    def encode_spans(self, lo, hi, total: int = TOTAL):
        """Encode a sequence of symbols given by their spans [lo, hi) out of
        `total` (two integer arrays); a symbol of an integer CDF row is the
        span lo = cdf[symbol], hi = cdf[symbol + 1]."""
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        if np.any(lo < 0) or np.any(hi > total) or np.any(lo >= hi):
            raise InvalidCdf(f"a span has zero width or leaves 0..{total}")
        low, rng, out = self.low, self.range, self.out
        for cum_lo, cum_hi in zip(lo.tolist(), hi.tolist()):
            r = rng // total
            low += r * cum_lo
            if cum_hi == total:
                rng -= r * cum_lo  # top symbol absorbs the rounding slack
            else:
                rng = r * (cum_hi - cum_lo)
            if low > _MASK32:  # carry into the bytes already out
                i = len(out) - 1
                while out[i] == 0xFF:
                    out[i] = 0
                    i -= 1
                out[i] += 1
                low &= _MASK32
            while rng < _TOP:
                out.append(low >> 24)  # low < 2^32 once carried
                low = (low << 8) & _MASK32
                rng <<= 8
        self.low, self.range = low, rng

    def encode_symbol(self, symbol: int, cdf):
        """Encode one symbol against an integer CDF (cdf[0]=0, cdf[M]=65536)."""
        _check_cdf(cdf)
        self.encode_spans((int(cdf[symbol]),), (int(cdf[symbol + 1]),))

    def encode_uniform_symbol(self, symbol: int, alphabet: int):
        self.encode_spans((symbol,), (symbol + 1,), total=alphabet)

    def finish(self) -> bytes:
        for _ in range(4):
            self.out.append((self.low >> 24) & 0xFF)
            self.low = (self.low << 8) & _MASK32
        return bytes(self.out)


class RangeDecoder:
    def __init__(self, data: bytes):
        self.data = data
        # the first four bytes, zero-padded as the encoder's flush mirrors
        self.pos = min(4, len(data))
        self.code = int.from_bytes(bytes(data[:4]).ljust(4, b"\0"), "big")
        self.range = _MASK32

    def decode_table(self, table, total: int = TOTAL):
        """Decode one symbol against each row of an integer CDF table (rows,
        M + 1), every row running from 0 to `total`; returns the symbols.

        Each row is searched in place, by bisect over a memoryview of the
        flattened table (whose items are Python ints), and renormalization
        reads past the end of the data as zero bytes."""
        table = np.ascontiguousarray(table, dtype=np.int64)
        n, width = table.shape
        if n and (np.any(table[:, 0] != 0) or np.any(table[:, -1] != total)):
            raise InvalidCdf(f"a cdf row does not run from 0 to {total}")
        flat = memoryview(table.reshape(-1))
        data, end, pos = self.data, len(self.data), self.pos
        code, rng = self.code, self.range
        last = total - 1
        out = []
        for base in range(0, n * width, width):
            r = rng // total
            dv = code // r
            if dv > last:
                dv = last
            # flat[base] = 0 <= dv < total = flat[base + width - 1]
            i = bisect_right(flat, dv, base, base + width) - 1
            cum_lo = flat[i]
            cum_hi = flat[i + 1]
            code -= r * cum_lo
            if cum_hi == total:
                rng -= r * cum_lo
            else:
                rng = r * (cum_hi - cum_lo)
            if code >= rng:
                raise CorruptStream("decoder state outside the current interval")
            while rng < _TOP:
                # code < range < 2^24 here, so the shift stays within 32 bits
                if pos < end:
                    code = (code << 8) | data[pos]
                    pos += 1
                else:
                    code <<= 8
                rng <<= 8
            out.append(i - base)
        self.code, self.range, self.pos = code, rng, pos
        return np.array(out, dtype=np.int64)

    def decode_symbol(self, cdf) -> int:
        """Decode one symbol against one integer CDF row (a sequence of
        ints or an ndarray)."""
        return int(self.decode_table(np.reshape(cdf, (1, -1)))[0])

    def decode_uniform_symbol(self, alphabet: int) -> int:
        return int(self.decode_table(_uniform_table(1, alphabet),
                                     total=alphabet)[0])


def _uniform_table(n: int, alphabet: int):
    """n rows of the uniform CDF 0, 1, .., alphabet out of `alphabet`."""
    return np.broadcast_to(np.arange(alphabet + 1), (n, alphabet + 1))


def encode_uniform(symbols, alphabet: int) -> bytes:
    """Fixed uniform model; length approaches n*log2(alphabet) bits."""
    assert alphabet >= 2
    symbols = np.asarray(symbols, dtype=np.int64)
    enc = RangeEncoder()
    enc.encode_spans(symbols, symbols + 1, total=alphabet)
    return enc.finish()


def decode_uniform(data: bytes, n: int, alphabet: int):
    return RangeDecoder(data).decode_table(_uniform_table(n, alphabet),
                                           total=alphabet)
