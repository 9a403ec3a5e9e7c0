"""End-to-end multiscale encode/decode, the bitstream container, checkpoints.

Coding order (and therefore chunk order) follows the decode dependency chain:
the top latent is coded with a fixed uniform model, every other latent with
the mixture predicted by the decoder one scale below, and finally the RGB
features with the channel-autoregressive mixture. Geometry never enters the
bitstream; it is a decode-side input.

One top-down driver, `_top_down`, runs that chain for `encode`, `decode`,
`decode_scalable` and `quantized_info_bits`. They differ only in what they do
with the mixture of each coding pass: code the known symbols' spans, read
symbols against the decoder's integer CDF rows or estimate them from full
rows when their chunk is missing from the stream, or sum the spans'
information content. A latent symbol is one span of a full row. A colour
symbol is two (`lh.two_level_spans`): its bucket's coarse symbol, then its
fine symbol inside the bucket, and a block's colour pass codes every coarse
symbol before the first fine one.

Every entry point codes blocks in lockstep (`_lockstep`): consecutive
blocks of a file form a group laid on an x lattice inside one pyramid, with
one encoder pass and one `_top_down` pass per group, while each block keeps
its own chunks, range coders and span hashes. `encode`, `decode` and
`decode_scalable` are the one-block case, whose block is not shifted.
Training groups its blocks on the same lattice (`prepare_groups`).

Coding runs the encoder and decoder stacks and the mixture CDFs in
`CODING_DTYPE` (float32), and so do training and `estimate_bits`: `block_loss`
runs the same stacks and quantizer in the same arithmetic, and only its
likelihood nodes compute in float64. Parameters, their gradients, Adam's
moments, checkpoints and the digest are float64. The coder's output is
integer CDFs, so float32 costs no rate, but a float32 stream decodes only
where the decoder's float32 results are bit for bit the encoder's: a
mismatch fails the span CRC as a DesyncError.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zipfile
import zlib
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import autodiff as ad
from . import likelihood as lh
from . import range_coder as rc
from .errors import (ChecksumFailure, CorruptStream, DesyncError,
                     DigestMismatch, DuplicateCoordinate, EmptyGeometry,
                     ModelMismatch, OutOfRange, ShapeMismatch,
                     SymbolOutOfRange)
from .quantizer import TEMPERATURE, dequantize, quantize_hard, quantize_soft
from .sparse_nn import KernelMapCache, ModelConfig, ScaleDecoder, ScaleEncoder
from .tensor_core import COORD_BITS, build_pyramid, sorted_runs

MAGIC = b"MNET"
FILE_MAGIC = b"MNEF"
VERSION = 7
# the float dtype of coding: the conv stacks and the mixture CDFs
CODING_DTYPE = np.float32


class CodecModel:
    """The full stack: one encoder and one decoder per scale; latents are
    quantized to the centers of `latent_grid`."""

    def __init__(self, config: ModelConfig | None = None, seed: int = 0):
        self._build(config or ModelConfig(), np.random.default_rng(seed))

    def _build(self, config: ModelConfig, rng):
        self.config = config
        self.encoders = [ScaleEncoder(n, self.config, rng)
                         for n in range(1, self.config.num_scales + 1)]
        self.decoders = [ScaleDecoder(n, self.config, rng)
                         for n in range(1, self.config.num_scales + 1)]
        self.latent_grid = lh.SymbolGrid(self.config.num_bins)
        self._digest_cache = None

    def named_parameters(self):
        out = []
        for enc in self.encoders:
            out += enc.named_parameters()
        for dec in self.decoders:
            out += dec.named_parameters()
        return out

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def mark_dirty(self):
        """Invalidate the cached digest after in-place weight updates."""
        self._digest_cache = None

    def digest(self) -> bytes:
        """8-byte content digest over config + all weights, order-canonical.

        Each conv weight is hashed as its per-offset kernels under their
        historical names (see `_per_offset_arrays`), so the digest, and with
        it every stream header, is that of the per-offset weight layout."""
        if self._digest_cache is not None:
            return self._digest_cache
        h = hashlib.sha256()
        h.update(json.dumps(self.config.to_dict(), sort_keys=True).encode())
        h.update(json.dumps(_quantizer_entry(self.config.num_bins),
                            sort_keys=True).encode())
        for name, value in sorted(_per_offset_arrays(self),
                                  key=lambda item: item[0]):
            h.update(name.encode())
            h.update(np.ascontiguousarray(value, dtype=np.float64))
        self._digest_cache = h.digest()[:8]
        return self._digest_cache


def _quantizer_entry(num_bins: int) -> dict:
    """The quantizer as checkpoints and the digest record it. The config
    fixes it: its centers are the latent grid's and its temperature is a
    constant."""
    return {"num_bins": num_bins, "lo": -1.0, "hi": 1.0,
            "temperature": TEMPERATURE}


def _per_offset_arrays(model: CodecModel):
    """(name, array) of every weight in the per-offset layout: a conv's
    `prefix.weight` of shape (K, c_in, c_out) as its kernels prefix.w00 ..
    prefix.w{K-1}. Checkpoints written before the stacked layout store
    exactly these arrays."""
    for name, p in model.named_parameters():
        prefix, _, field = name.rpartition(".")
        if field == "weight":
            yield from zip(_offset_names(prefix, len(p.value)), p.value)
        else:
            yield name, p.value


def _offset_names(prefix: str, num_offsets: int):
    return [f"{prefix}.w{i:02d}" for i in range(num_offsets)]


def _stored_array(data, names, name: str, shape):
    """Parameter `name` of a checkpoint archive holding the arrays `names`,
    checked against `shape`; a conv weight stored per offset is stacked from
    its kernels."""
    prefix, _, field = name.rpartition(".")
    if name in names:
        return _checked(data[name], name, shape)
    if field != "weight":
        raise ModelMismatch(f"checkpoint has no array {name!r}")
    keys = _offset_names(prefix, shape[0])
    missing = [k for k in keys if k not in names]
    if missing:
        raise ModelMismatch(f"checkpoint has no array {missing[0]!r}")
    return np.stack([_checked(data[k], k, shape[1:]) for k in keys])


def _checked(array, name: str, shape):
    if array.shape != shape:
        raise ModelMismatch(f"checkpoint array {name!r} has shape "
                            f"{array.shape}, the model needs {shape}")
    return array


# the least value of each size in a model config
_LEAST_SIZE = dict(num_scales=1, hidden=1, latent_channels=1, res_blocks=0,
                   mixtures=1, num_bins=2)


def _check_sizes(config: ModelConfig):
    """ModelMismatch unless every config size is an integer at or above its
    least value."""
    sizes = config.to_dict()
    for name, least in _LEAST_SIZE.items():
        if not isinstance(sizes[name], int) or sizes[name] < least:
            raise ModelMismatch(f"checkpoint config {name} = {sizes[name]!r}")


class _Undrawn:
    """Weight initializer of a model whose weights are about to be read:
    allocates each weight without drawing it."""

    @staticmethod
    def uniform(low, high, size):
        return np.empty(size)


def _read_checkpoint(f):
    with np.load(f, allow_pickle=False) as data:
        names = set(data.files)
        if "__meta__" not in names:
            raise ModelMismatch("checkpoint has no metadata")
        meta = json.loads(str(data["__meta__"]))
        config = ModelConfig.from_dict(meta.pop("config"))
        _check_sizes(config)
        quantizer = meta.pop("quantizer")
        if quantizer != _quantizer_entry(config.num_bins):
            raise ModelMismatch(f"checkpoint quantizer {quantizer!r} is not "
                                f"the one its config fixes")
        model = CodecModel.__new__(CodecModel)
        model._build(config, _Undrawn())
        for name, p in model.named_parameters():
            p.value = np.ascontiguousarray(
                _stored_array(data, names, name, p.value.shape),
                dtype=np.float64)
        model.mark_dirty()
    return model, meta


@dataclass
class ModelCheckpoint:
    """A model and its metadata in one .npz archive: one array per parameter
    (a conv weight as one (K, c_in, c_out) array), stored uncompressed, plus
    JSON metadata with the config, quantizer and weight digest."""

    model: CodecModel
    metadata: dict = field(default_factory=dict)

    def save(self, path):
        arrays = {name: p.value for name, p in self.model.named_parameters()}
        meta = dict(self.metadata)
        meta["config"] = self.model.config.to_dict()
        meta["quantizer"] = _quantizer_entry(self.model.config.num_bins)
        meta["digest"] = self.model.digest().hex()
        # uncompressed, as the weights are float64 noise; through a file, as
        # np.savez appends ".npz" to a bare path
        with open(path, "wb") as f:
            np.savez(f, __meta__=json.dumps(meta, sort_keys=True), **arrays)

    @classmethod
    def load(cls, path) -> "ModelCheckpoint":
        """Read a checkpoint, stacked or per-offset layout, compressed or not;
        a cut or foreign file (an archive offset out of the file included),
        an archive feature zipfile does not support, bad metadata or a
        missing or misshapen array raise ModelMismatch, and weights that do
        not match the stored digest raise DigestMismatch. A file that cannot
        be opened raises OSError."""
        with open(path, "rb") as f:
            try:
                model, meta = _read_checkpoint(f)
            except (ValueError, EOFError, KeyError, TypeError, AttributeError,
                    NotImplementedError, OSError, zipfile.BadZipFile,
                    zlib.error) as exc:
                raise ModelMismatch(f"malformed checkpoint: {exc!r}") from exc
        stored = meta.pop("digest", None)
        if stored is not None and stored != model.digest().hex():
            raise DigestMismatch("checkpoint digest does not match its weights")
        return cls(model, meta)


# -------------------------------------------------------------- forward pass

def _normalize_rgb(rgb):
    return np.asarray(rgb, dtype=np.float64) / 127.5 - 1.0


def run_encoders(model: CodecModel, rgb, maps: KernelMapCache, dtype):
    """Bottom-up pass in `dtype`; returns the latent preactivation node per
    scale."""
    x = ad.constant(_normalize_rgb(rgb).astype(dtype, copy=False))
    latents = []
    for enc in model.encoders:
        latent_pre, x = enc(x, maps)
        latents.append(latent_pre)
    return latents


# Files code their blocks in lockstep: consecutive blocks form a group, laid
# along x at LATTICE spacing inside one pyramid, and each group runs one
# encoder pass and one top-down pass. The grouping and the lattice define
# the stream, as VERSION does.
BLOCK_EXTENT = 64  # a file block's local coordinates lie in [0, 64)^3
LATTICE = 2 * BLOCK_EXTENT  # block j of a group is shifted by (128 j, 0, 0)
GROUP_POINTS = BLOCK_EXTENT ** 3
# the lattice slots of the packed key along x
GROUP_BLOCKS = (1 << COORD_BITS) // LATTICE


def _groups(sizes, num_scales: int, most_points: int = GROUP_POINTS,
            most_blocks: int = GROUP_BLOCKS, alone=frozenset()):
    """[start, stop) of each group of consecutive blocks with these sizes.
    A group closes before the block that would take it past `most_points`
    summed sizes or `most_blocks` blocks; a larger block, and a block whose
    index is in `alone`, is a group of its own. A model whose top level's
    stride is above BLOCK_EXTENT puts every block alone: a 3x3x3
    neighbourhood at that stride reaches the next lattice slot."""
    if 1 << num_scales > BLOCK_EXTENT:
        most_blocks = 1
    bounds, points = [0], 0
    for j, n in enumerate(sizes):
        if j > bounds[-1] and (points + n > most_points
                               or j - bounds[-1] == most_blocks
                               or j in alone or j - 1 in alone):
            bounds.append(j)
            points = 0
        points += n
    if sizes:
        bounds.append(len(sizes))
    return list(zip(bounds[:-1], bounds[1:]))


class _BlockGroup:
    """Blocks laid along x at LATTICE spacing in one pyramid: block j is
    shifted by (LATTICE j, 0, 0), so every neighbourhood and every pooling
    parent stays inside its block, and in the pyramid's x-major order each
    block's rows are one contiguous slice at every level. A lone block is
    not shifted, and may hold any geometry in the packed key range.

    `order` puts the blocks' concatenated rows in pyramid order. A repeated
    coordinate raises DuplicateCoordinate naming it in its block's own
    coordinates."""

    def __init__(self, geometries, num_scales: int):
        local = np.concatenate(geometries)
        lattice = local.copy()
        lattice[:, 0] += np.repeat(LATTICE * np.arange(len(geometries)),
                                   [len(g) for g in geometries])
        self.order, first = sorted_runs(lattice)
        if not first.all():
            coord = local[self.order[np.argmin(first)]]
            raise DuplicateCoordinate(f"duplicate coordinate "
                                      f"{tuple(coord.tolist())}")
        self.maps = KernelMapCache(build_pyramid(lattice[self.order],
                                                 num_scales))
        slots = LATTICE * np.arange(1, len(geometries))
        self.bounds = [[0] + np.searchsorted(c[:, 0], slots).tolist()
                       + [len(c)] for c in self.maps.pyramid.coords]

    def __len__(self):
        return len(self.bounds[0]) - 1

    def rows(self, level: int, width: int = 1):
        """Each block's slice of a level's rows, of `width` values per
        point (a latent pass is point-major, channel-minor)."""
        b = self.bounds[level]
        return [slice(width * lo, width * hi) for lo, hi in zip(b, b[1:])]

    def counts(self, block: int):
        """Block `block`'s point count per level, as its own pyramid's."""
        return tuple(b[block + 1] - b[block] for b in self.bounds)


def _block_geometry(geometry):
    return np.asarray(geometry, dtype=np.int64).reshape(-1, 3)


def _block_rgb(rgb_features, num_points: int):
    """RGB of one block as int64: (N, 3), else ShapeMismatch, of integers in
    0..255 of any dtype, else SymbolOutOfRange."""
    rgb = np.asarray(rgb_features)
    if rgb.shape != (num_points, 3):
        raise ShapeMismatch(f"features {rgb.shape} for {num_points} points")
    if not np.all((rgb >= 0) & (rgb <= 255) & (rgb % 1 == 0)):
        raise SymbolOutOfRange("RGB values must be integers in 0..255")
    return rgb.astype(np.int64)


def _in_extent(geometry):
    return geometry.min() >= 0 and geometry.max() < BLOCK_EXTENT


def _file_geometry(geometry):
    """A file block's geometry: EmptyGeometry without points, OutOfRange
    outside [0, BLOCK_EXTENT)^3, where the lattice needs it."""
    geometry = _block_geometry(geometry)
    if not len(geometry):
        raise EmptyGeometry("a file block has no points")
    if not _in_extent(geometry):
        raise OutOfRange(f"file block coordinates outside "
                         f"[0, {BLOCK_EXTENT})^3")
    return geometry


def prepare_block(geometry, rgb_features, num_scales: int):
    """Check a block and put it in canonical form: (kernel maps, RGB).
    RGB must be (N, 3), else ShapeMismatch, and hold integers in 0..255 of
    any dtype, else SymbolOutOfRange; it returns as int64 in `sort_coords`
    order, the order of the pyramid."""
    geometry = _block_geometry(geometry)
    rgb = _block_rgb(rgb_features, len(geometry))
    group = _BlockGroup([geometry], num_scales)
    return group.maps, rgb[group.order]


def pyramid_points(maps: KernelMapCache) -> int:
    """Points of a pyramid, summed over all its levels."""
    return sum(len(c) for c in maps.pyramid.coords)


def prepare_groups(blocks, num_scales: int, most_blocks: int,
                   most_points: int):
    """Training's lockstep: blocks as `prepare_block` returns them, merged
    by `_groups` into runs of consecutive blocks of at most `most_blocks`
    blocks (and GROUP_BLOCKS) and `most_points` pyramid points summed over
    all levels, each laid out as a `_BlockGroup`. A block outside
    [0, BLOCK_EXTENT)^3 is a group of its own. Returns (kernel maps, RGB in
    pyramid order, block count) of each group; a lone block keeps its own
    maps and RGB."""
    spans = _groups([pyramid_points(maps) for maps, _ in blocks], num_scales,
                    most_points, min(most_blocks, GROUP_BLOCKS),
                    {j for j, (maps, _) in enumerate(blocks)
                     if not _in_extent(maps.pyramid.coords[0])})
    out = []
    for start, stop in spans:
        if stop - start == 1:
            out.append((*blocks[start], 1))
            continue
        group = _BlockGroup([maps.pyramid.coords[0]
                             for maps, _ in blocks[start:stop]], num_scales)
        rgb = np.concatenate([rgb for _, rgb in blocks[start:stop]])
        out.append((group.maps, rgb[group.order], stop - start))
    return out


def _analyze(model: CodecModel, maps: KernelMapCache, rgb):
    """Encoder side of a group's kernel maps and RGB in pyramid order: the
    top-scale latent symbols, and an iterator over the symbols of every
    `_top_down` pass."""
    symbols = [quantize_hard(node.value, model.latent_grid)[0]
               for node in run_encoders(model, rgb, maps, CODING_DTYPE)]
    passes = [s.reshape(-1) for s in symbols[-2::-1]] + list(rgb.T)
    return symbols[-1], iter(passes)


# ---------------------------------------------------------------- container

def _chunk(payload: bytes) -> bytes:
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def _read_chunks(buf: bytes):
    """Header fields and chunk payloads of one block stream; every byte after
    the header must belong to one of at most num_scales + 1 framed chunks."""
    header, offset = _parse_header(buf)
    chunks = []
    while offset < len(buf):
        if len(chunks) == header["num_scales"] + 1:
            raise CorruptStream("trailing bytes after the last chunk")
        if offset + 8 > len(buf):
            raise CorruptStream("truncated chunk header")
        length, crc = struct.unpack_from("<II", buf, offset)
        offset += 8
        if offset + length > len(buf):
            raise CorruptStream("truncated chunk payload")
        payload = buf[offset:offset + length]
        offset += length
        if zlib.crc32(payload) != crc:
            raise ChecksumFailure("chunk checksum mismatch")
        chunks.append(payload)
    return header, chunks


def _with_crc(fields: bytes) -> bytes:
    return fields + struct.pack("<I", zlib.crc32(fields))


def _check_crc(buf: bytes, start: int, end: int, what: str):
    """Raise ChecksumFailure unless buf[end:end + 4] is the CRC32 of
    buf[start:end]."""
    if zlib.crc32(buf[start:end]) != struct.unpack_from("<I", buf, end)[0]:
        raise ChecksumFailure(f"{what} checksum mismatch")


def _header(model: CodecModel, level_counts) -> bytes:
    n_levels = len(level_counts)
    return _with_crc(MAGIC + struct.pack("<BB", VERSION, n_levels - 1)
                     + struct.pack(f"<{n_levels}I", *level_counts)
                     + model.digest()
                     + struct.pack("<HH", lh.RGB_GRID.num_symbols,
                                   model.config.num_bins))


def _parse_header(buf: bytes):
    if len(buf) < 6 or buf[:4] != MAGIC:
        raise CorruptStream("bad magic")
    version, num_scales = struct.unpack_from("<BB", buf, 4)
    if version != VERSION:
        raise CorruptStream(f"unsupported version {version}")
    end = header_size(num_scales)
    if len(buf) < end:
        raise CorruptStream("truncated header")
    _check_crc(buf, 0, end - 4, "header")
    off = 6
    counts = struct.unpack_from(f"<{num_scales + 1}I", buf, off)
    off += 4 * (num_scales + 1)
    digest = buf[off:off + 8]
    off += 8
    f_alpha, latent_alpha = struct.unpack_from("<HH", buf, off)
    return dict(num_scales=num_scales, counts=counts, digest=digest,
                f_alphabet=f_alpha, latent_alphabet=latent_alpha), end


def header_size(num_scales: int) -> int:
    """Magic, version, scale count, point counts, digest, alphabets, CRC32."""
    return 6 + 4 * (num_scales + 1) + 8 + 4 + 4


# ------------------------------------------------------------------- coding

# Entries per table of the decoder's integer CDF rows, which decode reads
# and scalable decode also estimates missing chunks from: a table holds as
# many points as fit, and at least one. Every row, stream and decode is the
# same for any budget, which sets only speed and memory: a full RGB table
# of 64 rows of 257 entries has a float32 edge buffer of
# 64 x 10 x 257 x 4 B = 0.66 MB (K = 10), which stays in a 2 MB L2 cache
# through the in-place steps of `mixture_cdf`, and the colour chunk's rows
# of 17 entries and the latent rows of 27 fill the same budget.
_CDF_ENTRIES = 64 * 257


def _spans(grid: lh.SymbolGrid, params, symbols, two_level: bool):
    """(lo, hi) of the coded symbols of a pass in coding order, over the
    whole pass at once: each (1, symbols), the pointwise CDF at a symbol's
    two edges, or with `two_level` (the colour chunk) each (2, symbols), the
    coarse spans (`lh.two_level_spans`) then the fine ones."""
    w, mu, s = lh.mixture_terms(*params)
    symbols = symbols.reshape(mu.shape[:-1])
    if two_level:
        lo, hi = lh.two_level_spans(w, mu, s, grid, symbols)
    else:
        cdf = lh.pointwise_cdf(w, mu, s, grid,
                               np.stack([symbols, symbols + 1], axis=-1))
        lo, hi = cdf[None, ..., 0], cdf[None, ..., 1]
    return lo.reshape(len(lo), -1), hi.reshape(len(hi), -1)


def _tables(cdf_rows, terms, width: int, *per_point):
    """The integer CDF rows cdf_rows(w, mu, s, *per_point) of a pass's
    points in coding order, `width` entries each, as one table per block of
    points of at most _CDF_ENTRIES entries. `terms` are the pass's
    `lh.mixture_terms`; every step is row-wise (the softmax sums each row's
    K weights alone), so the rows of a slice of a pass's points are bit for
    bit those of the whole pass."""
    mu = terms[1]
    step = max(1, _CDF_ENTRIES // (width * int(np.prod(mu.shape[1:-1]))))
    for lo in range(0, len(mu), step):
        rows = slice(lo, lo + step)
        yield cdf_rows(*(a[rows] for a in (*terms, *per_point))).reshape(
            -1, width)


def _cdf_tables(grid: lh.SymbolGrid, params):
    """The full one-level integer CDF rows of a pass: F at every edge of a
    row, bit for bit the values the one-level `_spans` takes at two."""
    edges = np.arange(grid.num_symbols + 1)
    return _tables(lambda w, mu, s: lh.pointwise_cdf(w, mu, s, grid, edges),
                   lh.mixture_terms(*params), len(edges))


def _read_tables(decoder: rc.RangeDecoder, add, tables):
    """One symbol per row of each table, read by `decoder`; add(lo, hi)
    gets the spans read."""
    out = []
    for table in tables:
        syms = decoder.decode_table(table)
        at = np.arange(len(syms))
        add(table[at, syms], table[at, syms + 1])
        out.append(syms)
    return np.concatenate(out)


def _read_two_level(decoder: rc.RangeDecoder, add, grid: lh.SymbolGrid,
                    params):
    """The colour symbols of a block's rows: first every row's coarse
    symbol against `lh.coarse_cdf` rows, then every row's fine symbol
    against the `lh.fine_cdf` rows of its bucket, the order in which the
    encoder codes their `_spans`."""
    terms = lh.mixture_terms(*params)
    coarse = _read_tables(decoder, add, _tables(
        partial(lh.coarse_cdf, grid=grid), terms,
        grid.num_symbols // lh.BUCKET + 1))
    fine = _read_tables(decoder, add, _tables(
        partial(lh.fine_cdf, grid=grid), terms, lh.BUCKET + 1, coarse))
    return lh.BUCKET * coarse + fine


class _SpanHash:
    """CRC32 per chunk, and optionally one SHA-256 over all chunks, of the
    coded (lo, hi) span sequence, as little-endian uint32 pairs."""

    def __init__(self, num_chunks: int, sha256: bool):
        self.crc = [0] * num_chunks
        self.sha = hashlib.sha256() if sha256 else None

    def add(self, chunk: int, lo, hi):
        data = np.stack([lo, hi], axis=-1).astype("<u4").tobytes()
        self.crc[chunk] = zlib.crc32(data, self.crc[chunk])
        if self.sha is not None:
            self.sha.update(data)


def _top_down(model: CodecModel, maps: KernelMapCache, symbols, code_pass):
    """The top-down pass of every coding entry point.

    `symbols` are the top-scale latent symbols. From the top scale down,
    each decoder runs in CODING_DTYPE on the dequantized symbols of the
    level above and predicts the next level, which is coded in passes: one
    per latent level (rows point-major, channel-minor), three for RGB (R, G
    given R, B given R and G). code_pass(chunk, grid, params) gets the
    pass's chunk index, symbol grid and mixture (weight logits, means,
    log-scales, each (points, ..., K)), and returns its symbols; chunk c's
    points are those of pyramid level num_scales - c. Returns the RGB
    symbols.
    """
    cfg = model.config
    forwarded = None
    for n in range(cfg.num_scales, 0, -1):
        # only values cross a scale boundary, so no decoder's autodiff graph
        # outlives its scale
        params, forward = model.decoders[n - 1](
            ad.constant(dequantize(symbols, model.latent_grid).astype(
                CODING_DTYPE)),
            None if forwarded is None else ad.constant(forwarded), maps)
        p = params.value
        forwarded = None if forward is None else forward.value
        if n > 1:
            symbols = code_pass(cfg.num_scales + 1 - n, model.latent_grid,
                                lh.unpack_latent_params(
                                    p, cfg.latent_channels, cfg.mixtures))
            symbols = symbols.reshape(len(p), cfg.latent_channels)
    u = lh.unpack_rgb_params(p, cfg.mixtures)
    rgb = []
    for _ in range(3):
        rgb.append(code_pass(cfg.num_scales, lh.RGB_GRID,
                             lh.rgb_channel_params(u, rgb)))
    return np.stack(rgb, axis=1)


# ------------------------------------------------------------ encode/decode

@dataclass
class CodingDebug:
    """SHA-256 of the coded (lo, hi) span sequence of every mixture-coded
    chunk; encoder and decoder compute it from the spans they used."""
    cdf_sha256: str


def _lockstep(geometries, num_scales: int):
    """(start, stop, group) of each `_groups` group of the blocks with
    these geometries: the one loop of every coding entry point, which codes
    a lone block as a group of one."""
    for start, stop in _groups([len(g) for g in geometries], num_scales):
        yield start, stop, _BlockGroup(geometries[start:stop], num_scales)


def _encode_streams(geometries, rgbs, model: CodecModel,
                    debug: bool = False):
    """(stream, span hash) of every block, coded in lockstep."""
    geometries = [_block_geometry(g) for g in geometries]
    rgbs = [_block_rgb(f, len(g)) for g, f in zip(geometries, rgbs)]
    out = []
    for start, stop, group in _lockstep(geometries, model.config.num_scales):
        out += _encode_group(model, group,
                             np.concatenate(rgbs[start:stop])[group.order],
                             debug)
    return out


def _encode_group(model: CodecModel, group: _BlockGroup, rgb, debug: bool):
    """One encoder pass and one top-down pass over a group. Each pass's
    spans are computed at once and split by block; every block has its own
    range coders, span hashes and stream."""
    cfg = model.config
    top, passes = _analyze(model, group.maps, rgb)
    spans = [_SpanHash(cfg.num_scales, debug) for _ in range(len(group))]
    encoders = [[rc.RangeEncoder() for _ in range(cfg.num_scales)]
                for _ in range(len(group))]

    def write(chunk, grid, params):
        syms = next(passes)
        colour = chunk == cfg.num_scales
        lo, hi = _spans(grid, params, syms, colour)
        width = 1 if colour else cfg.latent_channels
        for j, rows in enumerate(group.rows(cfg.num_scales - chunk, width)):
            # a block's coarse spans, then its fine ones, in one call
            block_lo = lo[:, rows].reshape(-1)
            block_hi = hi[:, rows].reshape(-1)
            encoders[j][chunk - 1].encode_spans(block_lo, block_hi)
            spans[j].add(chunk - 1, block_lo, block_hi)
        return syms

    _top_down(model, group.maps, top, write)
    out = []
    for j, rows in enumerate(group.rows(cfg.num_scales)):
        # top scale: fixed uniform model
        chunks = [rc.encode_uniform(top[rows].reshape(-1), cfg.num_bins)]
        chunks += [enc.finish() + struct.pack("<I", crc)
                   for enc, crc in zip(encoders[j], spans[j].crc)]
        out.append((_header(model, group.counts(j))
                    + b"".join(_chunk(c) for c in chunks), spans[j]))
    return out


def _read_stream(bitstream: bytes, model: CodecModel, scalable: bool):
    """Header and chunk payloads of one block stream, checked against the
    model; only the point counts, which need the geometry, are left. A
    lossless decode needs every chunk, a scalable one at least the top."""
    header, chunks = _read_chunks(bitstream)
    if header["digest"] != model.digest():
        raise DigestMismatch("bitstream was produced by a different model")
    cfg = model.config
    if header["num_scales"] != cfg.num_scales or \
            header["latent_alphabet"] != cfg.num_bins or \
            header["f_alphabet"] != lh.RGB_GRID.num_symbols:
        raise ModelMismatch("container layout disagrees with the model config")
    if not scalable and len(chunks) != cfg.num_scales + 1:
        raise CorruptStream(
            f"expected {cfg.num_scales + 1} chunks, found {len(chunks)}")
    if not chunks:
        raise CorruptStream("a scalable decode needs at least the top chunk, "
                            "and the stream has no chunk")
    if any(len(c) < 4 for c in chunks[1:]):
        raise CorruptStream("chunk too short for its span hash")
    return header, chunks


def _decode_streams(geometries, streams, model: CodecModel, estimators,
                    debug: bool = False):
    """(RGB symbols, span hash) of every block, decoded in lockstep from its
    `_read_stream` (header, chunks). The symbols of a chunk missing from a
    block's stream (allowed only with `estimators`, one per block) come from
    its estimator, called per table of the pass's full one-level integer CDF
    rows (`_cdf_tables`), the colour chunk's too."""
    geometries = [_block_geometry(g) for g in geometries]
    out = []
    for start, stop, group in _lockstep(geometries, model.config.num_scales):
        for j, (header, _) in enumerate(streams[start:stop]):
            if tuple(header["counts"]) != group.counts(j):
                raise ModelMismatch(
                    "geometry does not match the encoded point counts")
        out += _decode_group(
            model, group, [chunks for _, chunks in streams[start:stop]],
            None if estimators is None else estimators[start:stop], debug)
    return out


def _decode_group(model: CodecModel, group: _BlockGroup, chunks, estimators,
                  debug: bool):
    """One top-down pass over a group: each block reads its own chunks with
    its own range decoders, on CDF tables built inside its slice of the
    pass, or estimates a chunk its stream lacks."""
    cfg = model.config
    top = np.concatenate([
        rc.decode_uniform(block[0], rows.stop - rows.start, cfg.num_bins)
        for block, rows in zip(chunks, group.rows(cfg.num_scales,
                                                  cfg.latent_channels))])
    decoders = [[rc.RangeDecoder(c[:-4]) for c in block[1:]]
                for block in chunks]
    spans = [_SpanHash(cfg.num_scales, debug) for _ in chunks]

    def read(chunk, grid, params):
        out = []
        for j, rows in enumerate(group.rows(cfg.num_scales - chunk)):
            block = [p[rows] for p in params]
            if chunk > len(decoders[j]):
                out += [estimators[j](t) for t in _cdf_tables(grid, block)]
                continue
            decoder = decoders[j][chunk - 1]
            add = partial(spans[j].add, chunk - 1)
            if chunk == cfg.num_scales:
                out.append(_read_two_level(decoder, add, grid, block))
            else:
                out.append(_read_tables(decoder, add,
                                        _cdf_tables(grid, block)))
        return np.concatenate(out)

    rgb = _top_down(model, group.maps,
                    top.reshape(-1, cfg.latent_channels), read)
    for block, block_spans in zip(chunks, spans):
        for chunk, payload in enumerate(block[1:], start=1):
            if struct.unpack("<I", payload[-4:])[0] != \
                    block_spans.crc[chunk - 1]:
                raise DesyncError(f"chunk {chunk}: the decoded spans differ "
                                  "from the encoded ones")
    return list(zip((rgb[rows] for rows in group.rows(0)), spans))


def _estimator(mode: str, seed: int):
    """estimate(table): the symbols of a missing chunk from one block of
    its integer CDF rows, all in integer arithmetic on rows from 0 to TOTAL,
    every width >= 1. Mode "sample" draws from its own default_rng(seed),
    one draw per row in coding order."""
    if mode not in ("mean", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)

    def estimate(table):
        if mode == "mean":
            # sum_m m (cdf[m+1] - cdf[m]), summed by parts; cdf[M] = TOTAL
            mass = (table.shape[1] - 2) * rc.TOTAL - table[:, 1:-1].sum(1)
            return (mass + rc.TOTAL // 2) // rc.TOTAL
        # the symbol whose span holds floor(u * TOTAL)
        t = np.floor(rng.random(len(table)) * rc.TOTAL).astype(np.int64)
        return (table[:, 1:-1] <= t[:, None]).sum(axis=-1)

    return estimate


def encode(geometry, rgb_features, model: CodecModel,
           debug: bool = False):
    """Compress integer RGB features over known geometry into a bitstream:
    the one-block case of a file, with no shift, so any geometry in the
    packed key range."""
    [(stream, spans)] = _encode_streams([geometry], [rgb_features], model,
                                        debug)
    if debug:
        return stream, CodingDebug(spans.sha.hexdigest())
    return stream


def decode(geometry, bitstream, model: CodecModel, debug: bool = False):
    """Exact inverse of encode; returns (N, 3) integer RGB in canonical order."""
    [(rgb, spans)] = _decode_streams(
        [geometry], [_read_stream(bitstream, model, scalable=False)], model,
        None, debug)
    if debug:
        return rgb, CodingDebug(spans.sha.hexdigest())
    return rgb


def decode_scalable(geometry, bitstream, model: CodecModel,
                    mode: str = "mean", seed: int = 0):
    """Decode a (possibly truncated) stream; missing chunks are estimated.

    Latent chunks that are absent are reconstructed from the decoder's
    integer CDF rows of their predicted distributions (mode "mean": the
    expectation rounded half up to a symbol; mode "sample": a seeded draw,
    one per row in coding order). An absent F chunk yields a lossy color
    estimate from p(F | z^1), channel-sequentially.
    """
    estimate = _estimator(mode, seed)
    return _decode_streams(
        [geometry], [_read_stream(bitstream, model, scalable=True)], model,
        [estimate])[0][0]


def truncate_bitstream(bitstream: bytes, num_chunks: int) -> bytes:
    """Prefix of the stream ending exactly after `num_chunks` chunks, or the
    whole stream when it has no more chunks than that; a negative count
    raises ValueError."""
    if num_chunks < 0:
        raise ValueError(f"negative chunk count {num_chunks}")
    header, chunks = _read_chunks(bitstream)
    end = header_size(header["num_scales"])
    return bitstream[:end + sum(8 + len(c) for c in chunks[:num_chunks])]


def chunk_lengths(bitstream: bytes):
    return [len(c) for c in _read_chunks(bitstream)[1]]


def measure_bpp(bitstream: bytes, num_points: int) -> float:
    """Bits per point of a stream over `num_points` points; EmptyGeometry
    below one point."""
    if num_points < 1:
        raise EmptyGeometry(f"bits per point of {num_points} points")
    return 8.0 * len(bitstream) / num_points


# -------------------------------------------------------------- loss graphs

def block_loss(model: CodecModel, maps: KernelMapCache, rgb,
               quant_mode: str = "ste", dtype=CODING_DTYPE):
    """Differentiable total coding cost (bits) of one block, given as
    `prepare_block` returns it.

    Returns (loss node, constant top-scale bits). The constant term is the
    uniform cost of the top latent; it carries no gradient. The stacks and
    the quantizer run in `dtype`, by default the coder's CODING_DTYPE, so
    in STE mode the symbols and the decoder heads are bit for bit the
    coder's; the likelihood nodes compute in float64 whatever `dtype` is.
    Finite-difference oracles pass float64.
    """
    cfg = model.config
    latent_pre = run_encoders(model, rgb, maps, dtype)
    hard = [quantize_hard(n.value, model.latent_grid) for n in latent_pre]
    symbols = [h[0] for h in hard]
    quantized = [quantize_soft(n, model.latent_grid, mode=quant_mode,
                               hard=h[1]) for n, h in zip(latent_pre, hard)]

    terms = []
    forwarded = None
    for n in range(cfg.num_scales, 0, -1):
        params, forwarded = model.decoders[n - 1](quantized[n - 1],
                                                  forwarded, maps)
        if n > 1:
            terms.append(lh.latent_bits_node(
                params, symbols[n - 2], cfg.latent_channels, cfg.mixtures,
                model.latent_grid))
        else:
            terms.append(lh.rgb_bits_node(params, rgb[:, 0], rgb[:, 1],
                                          rgb[:, 2], cfg.mixtures))
    const_bits = lh.uniform_bits(len(maps.pyramid.coords[cfg.num_scales]),
                                 cfg.latent_channels, cfg.num_bins)
    return ad.sum_nodes(terms), const_bits


def quantized_info_bits(model: CodecModel, geometry, rgb_features) -> float:
    """Information content of a block under the integer CDFs the coder uses.

    Sum over all coded symbols of -log2((hi - lo)/2^16) over the spans the
    encoder codes (uniform widths for the top scale); the coded payload can
    never be shorter than this.
    """
    maps, rgb = prepare_block(geometry, rgb_features, model.config.num_scales)
    top, passes = _analyze(model, maps, rgb)
    # the uniform coder gives every symbol width 1 out of num_bins
    total = lh.uniform_bits(*top.shape, model.config.num_bins)

    def count(chunk, grid, params):
        nonlocal total
        syms = next(passes)
        lo, hi = _spans(grid, params, syms, chunk == model.config.num_scales)
        total += -np.log2((hi - lo) / rc.TOTAL).sum()
        return syms

    _top_down(model, maps, top, count)
    return float(total)


def estimate_bits(model: CodecModel, geometry, rgb_features) -> float:
    """Eq.-style cross-entropy estimate of the coded size, in bits."""
    maps, rgb = prepare_block(geometry, rgb_features, model.config.num_scales)
    loss, const = block_loss(model, maps, rgb)
    return float(loss.value) + const


# --------------------------------------------------------- multi-block files

def encode_blocks(blocks, model: CodecModel) -> bytes:
    """Code (origin, geometry, RGB) blocks as one file: a file header [magic,
    version, block count, CRC32], then [origin, length, CRC32, stream] per
    block; each CRC32 covers the fields before it. The blocks are coded in
    lockstep groups (`_groups`), so a block's stream decodes only together
    with its group's geometry. Local coordinates must lie in
    [0, BLOCK_EXTENT)^3, else OutOfRange, and a block without points raises
    EmptyGeometry."""
    geometries = [_file_geometry(geometry) for _, geometry, _ in blocks]
    streams = _encode_streams(geometries, [rgb for _, _, rgb in blocks],
                              model)
    parts = [_with_crc(FILE_MAGIC + struct.pack("<BI", VERSION, len(blocks)))]
    for (origin, _, _), (stream, _) in zip(blocks, streams):
        parts.append(_with_crc(struct.pack(
            "<iiiI", *[int(v) for v in origin], len(stream))))
        parts.append(stream)
    return b"".join(parts)


def decode_blocks(data: bytes, blocks_geometry, model: CodecModel,
                  chunks: int | None = None, mode: str = "mean",
                  seed: int = 0):
    """Inverse of encode_blocks given the per-block geometry list, which
    must be the encoder's, as each block's group is.

    chunks=None decodes losslessly; otherwise each block is cut to its first
    `chunks` chunks and its missing chunks are estimated as decode_scalable
    does, with `mode` and a default_rng(seed) of its own. A count below 1
    raises ValueError. Every block record and stream header is parsed and
    checked before any block is decoded.
    """
    if chunks is not None and chunks < 1:
        raise ValueError(f"chunk count {chunks} is below 1")
    estimators = None if chunks is None else [
        _estimator(mode, seed) for _ in blocks_geometry]
    if len(data) < 13 or data[:4] != FILE_MAGIC:
        raise CorruptStream("bad or truncated file header")
    version, count = struct.unpack_from("<BI", data, 4)
    if version != VERSION:
        raise CorruptStream(f"unsupported file version {version}")
    _check_crc(data, 0, 9, "file header")
    if count != len(blocks_geometry):
        raise ModelMismatch("block count mismatch")
    off = 13
    origins, streams = [], []
    for _ in range(count):
        if off + 20 > len(data):
            raise CorruptStream("truncated block record")
        _check_crc(data, off, off + 16, "block record")
        *origin, length = struct.unpack_from("<iiiI", data, off)
        off += 20
        header, payloads = _read_stream(data[off:off + length], model,
                                        scalable=chunks is not None)
        off += length
        origins.append(tuple(origin))
        streams.append((header, payloads[:chunks]))
    if off != len(data):
        raise CorruptStream("trailing bytes after the last block")
    decoded = _decode_streams([_file_geometry(g) for g in blocks_geometry],
                              streams, model, estimators)
    return [(origin, rgb) for origin, (rgb, _) in zip(origins, decoded)]
