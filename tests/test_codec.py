import hashlib
import json
import math
import os
import re
import subprocess
import sys
import zlib
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcac import codec, quantizer, trainer
from pcac import likelihood as lh
from pcac.autodiff import backward
from pcac.errors import (ChecksumFailure, CorruptStream, DesyncError,
                         DigestMismatch, DuplicateCoordinate, EmptyGeometry,
                         InvalidCdf, ModelMismatch, OutOfRange, PcacError,
                         ShapeMismatch, SymbolOutOfRange)
from pcac.sparse_nn import ModelConfig, SparseConv
from pcac.tensor_core import build_pyramid, sort_coords
from test_golden import CFG as GOLDEN_CFG
from test_golden import block as golden_block
from test_golden import file_blocks as golden_file_blocks

CFG = ModelConfig(hidden=8, res_blocks=1, mixtures=2)


@pytest.fixture(scope="module")
def model():
    return codec.CodecModel(CFG, seed=0)


def random_block(rng, extent=16, lo=20, hi=200):
    coords = np.unique(rng.integers(0, extent, size=(int(rng.integers(lo, hi)), 3)),
                       axis=0)
    rgb = rng.integers(0, 256, size=(len(coords), 3))
    return coords, rgb


def test_round_trip_random_blocks(model):
    rng = np.random.default_rng(0)
    for trial in range(5):
        coords, rgb = random_block(rng)
        stream = codec.encode(coords, rgb, model)
        back = codec.decode(coords, stream, model)
        np.testing.assert_array_equal(back, rgb[sort_coords(coords)])
        # integer-valued floats, as voxelize makes them, are the same block
        assert codec.encode(coords, rgb.astype(np.float64), model) == stream


def test_round_trip_single_point(model):
    coords = np.array([[3, 5, 7]])
    rgb = np.array([[0, 128, 255]])
    stream = codec.encode(coords, rgb, model)
    np.testing.assert_array_equal(codec.decode(coords, stream, model), rgb)


def test_encode_validates_inputs(model):
    with pytest.raises(EmptyGeometry):
        codec.encode(np.empty((0, 3)), np.empty((0, 3)), model)
    with pytest.raises(ShapeMismatch):
        codec.encode(np.array([[0, 0, 0]]), np.zeros((2, 3)), model)
    # colours must be integers in 0..255 wherever a block enters the codec
    coords, rgb = random_block(np.random.default_rng(12))
    for bad in (300, -1, 2.7):
        wrong = rgb.astype(np.float64)
        wrong[3, 2] = bad
        for entry in (lambda: codec.encode(coords, wrong, model),
                      lambda: codec.quantized_info_bits(model, coords, wrong),
                      lambda: codec.estimate_bits(model, coords, wrong)):
            with pytest.raises(SymbolOutOfRange):
                entry()


def test_duplicate_geometry_is_rejected(model):
    # a repeated point repeats an input row within a conv offset, where the
    # fancy-index += keeps only one of them and the gradients go wrong: every
    # entry point refuses such geometry
    coords, rgb = random_block(np.random.default_rng(13), lo=94, hi=95)
    stream = codec.encode(coords, rgb, model)
    dup = np.concatenate([coords, coords[:5]])
    dup_rgb = np.concatenate([rgb, rgb[:5]])
    for entry in (lambda: codec.encode(dup, dup_rgb, model),
                  lambda: codec.decode(dup, stream, model),
                  lambda: codec.estimate_bits(model, dup, dup_rgb),
                  lambda: trainer.train([(dup, dup_rgb)],
                                        trainer.TrainConfig(max_epochs=1),
                                        model=codec.CodecModel(CFG, seed=0))):
        with pytest.raises(DuplicateCoordinate):
            entry()


def test_decode_rejects_wrong_model(model):
    rng = np.random.default_rng(1)
    coords, rgb = random_block(rng)
    stream = codec.encode(coords, rgb, model)
    other = codec.CodecModel(CFG, seed=99)
    with pytest.raises(DigestMismatch):
        codec.decode(coords, stream, other)


def test_decode_rejects_wrong_geometry(model):
    rng = np.random.default_rng(2)
    coords, rgb = random_block(rng)
    stream = codec.encode(coords, rgb, model)
    with pytest.raises(ModelMismatch):
        codec.decode(coords[:-1], stream, model)


def test_flipped_payload_byte_fails_checksum(model):
    rng = np.random.default_rng(3)
    coords, rgb = random_block(rng)
    stream = bytearray(codec.encode(coords, rgb, model))
    hdr = codec.header_size(CFG.num_scales)
    stream[hdr + 8 + 2] ^= 0xFF  # inside the first chunk payload
    with pytest.raises(ChecksumFailure):
        codec.decode(coords, bytes(stream), model)
    with pytest.raises(CorruptStream):
        codec.decode(coords, bytes(stream[:hdr + 4]), model)
    with pytest.raises(CorruptStream):
        codec.decode(coords, b"XXXX" + bytes(stream[4:]), model)


def test_encode_is_deterministic_and_cdfs_agree(model):
    # byte-identical re-encode; encoder and decoder build identical CDFs
    rng = np.random.default_rng(4)
    coords, rgb = random_block(rng)
    s1, dbg1 = codec.encode(coords, rgb, model, debug=True)
    s2, dbg2 = codec.encode(coords, rgb, model, debug=True)
    assert s1 == s2
    assert dbg1.cdf_sha256 == dbg2.cdf_sha256
    back, dbg3 = codec.decode(coords, s1, model, debug=True)
    assert dbg3.cdf_sha256 == dbg1.cdf_sha256
    np.testing.assert_array_equal(back, rgb[sort_coords(coords)])


def test_cdf_block_tables_are_the_one_call_table(monkeypatch):
    # the decoder's rows come block by block, as many points as fit in the
    # entry budget; together they are the pass's rows computed in one call,
    # bit for bit, for full one-level rows and for the colour chunk's coarse
    # and fine rows
    rng = np.random.default_rng(9)
    grid = lh.SymbolGrid(7)
    params = (rng.normal(size=(9, 2, 3)), rng.normal(size=(9, 2, 3)),
              rng.normal(size=(9, 2, 3)) - 2)
    monkeypatch.setattr(codec, "_CDF_ENTRIES", 64)
    tables = list(codec._cdf_tables(grid, params))
    # 2 rows of 8 entries per point: 4 points per table
    assert [len(t) for t in tables] == [8, 8, 2]
    table = lh.pointwise_cdf(*lh.mixture_terms(*params), grid,
                             np.arange(8)).reshape(-1, 8)
    assert hashlib.sha256(b"".join(t.tobytes() for t in tables)).hexdigest() \
        == hashlib.sha256(table.tobytes()).hexdigest()

    terms = lh.mixture_terms(rng.normal(size=(9, 4)), rng.normal(size=(9, 4)),
                             rng.normal(size=(9, 4)) - 3)
    coarse = rng.integers(0, 16, size=9)
    monkeypatch.setattr(codec, "_CDF_ENTRIES", 3 * 17)
    for rows, per_point in ((lh.coarse_cdf, ()), (lh.fine_cdf, (coarse,))):
        tables = list(codec._tables(partial(rows, grid=lh.RGB_GRID), terms,
                                    17, *per_point))
        assert [len(t) for t in tables] == [3, 3, 3]
        np.testing.assert_array_equal(
            np.concatenate(tables), rows(*terms, *per_point, grid=lh.RGB_GRID))


def test_cdf_block_size_is_not_part_of_the_format(model, monkeypatch):
    # the table entry budget bounds memory only: every consumer is row-wise
    coords, rgb = random_block(np.random.default_rng(13), lo=250, hi=400)
    default = codec._CDF_ENTRIES
    assert len(coords) > default // 257

    def run(entries, mode):
        monkeypatch.setattr(codec, "_CDF_ENTRIES", entries)
        stream, enc = codec.encode(coords, rgb, model, debug=True)
        back, dec = codec.decode(coords, stream, model, debug=True)
        scalable = [codec.decode_scalable(
            coords, codec.truncate_bitstream(stream, k), model, mode=mode,
            seed=5).tobytes() for k in (1, 3)]
        return (stream, enc.cdf_sha256, dec.cdf_sha256, back.tobytes(),
                scalable, codec.quantized_info_bits(model, coords, rgb))

    for mode in ("sample", "mean"):
        assert run(1, mode) == run(100, mode) == run(7 * 257, mode) == \
            run(2048 * 257, mode) == run(default, mode)


def reference_estimate(row, mode, rng):
    """A missing symbol from one integer CDF row, in plain Python."""
    if mode == "mean":
        # the expectation sum_m m * (cdf[m + 1] - cdf[m]) / 2^16, rounded
        # half up
        mass = sum(m * (row[m + 1] - row[m]) for m in range(len(row) - 1))
        return math.floor(Fraction(mass, 1 << 16) + Fraction(1, 2))
    target = math.floor(rng.random() * (1 << 16))
    return next(m for m in range(len(row) - 1)
                if row[m] <= target < row[m + 1])


def reference_colour(params, mode, rng):
    """Missing colour symbols of a block's pass in two levels: every
    point's coarse symbol from its coarse row first, then each point's fine
    symbol from the fine row of the bucket estimated for it."""
    terms = lh.mixture_terms(*params)
    coarse = np.array([reference_estimate(row, mode, rng) for row in
                       lh.coarse_cdf(*terms, grid=lh.RGB_GRID).tolist()])
    fine = [reference_estimate(row, mode, rng) for row in
            lh.fine_cdf(*terms, coarse, grid=lh.RGB_GRID).tolist()]
    return (lh.BUCKET * coarse + fine).tolist()


@pytest.mark.parametrize("mode", ["mean", "sample"])
def test_scalable_estimates_match_per_row_reference(model, monkeypatch, mode):
    # decode_scalable estimates each missing symbol from the decoder's own
    # integer rows, with the same seeded draws in coding order: a latent
    # pass's symbols equal the per-row reference over the rows
    # `_cdf_tables` yielded for it, and a colour pass's the two-level
    # reference over its coarse and fine rows
    coords, rgb = random_block(np.random.default_rng(16), lo=150, hi=250)
    stream = codec.encode(coords, rgb, model)
    cdf_tables, top_down = codec._cdf_tables, codec._top_down
    for k in (1, 3):
        tables, passes = [], []

        def recorded_tables(grid, params):
            tables.append(list(cdf_tables(grid, params)))
            return iter(tables[-1])

        def recorded_top_down(model, maps, symbols, code_pass):
            def logged(chunk, grid, params):
                passes.append((chunk, params, code_pass(chunk, grid, params)))
                return passes[-1][2]
            return top_down(model, maps, symbols, logged)

        monkeypatch.setattr(codec, "_cdf_tables", recorded_tables)
        monkeypatch.setattr(codec, "_top_down", recorded_top_down)
        out = codec.decode_scalable(
            coords, codec.truncate_bitstream(stream, k), model, mode=mode,
            seed=5)
        rng = np.random.default_rng(5)
        # five passes, of chunks 1, 2, 3, 3, 3; those of chunk k and up
        # are estimated, and only the two latent passes read `_cdf_tables`
        assert [chunk for chunk, _, _ in passes] == [1, 2, 3, 3, 3]
        assert len(tables) == 2
        latent_tables = iter(tables)
        for chunk, params, syms in passes:
            colour = chunk == CFG.num_scales
            pass_tables = None if colour else next(latent_tables)
            if chunk < k:
                continue
            if colour:
                assert syms.tolist() == reference_colour(params, mode, rng)
            else:
                assert syms.tolist() == [reference_estimate(row, mode, rng)
                                         for t in pass_tables
                                         for row in t.tolist()]
        np.testing.assert_array_equal(out, np.stack(
            [syms for _, _, syms in passes[-3:]], axis=1))


def test_missing_colour_chunk_builds_no_one_level_colour_rows(model,
                                                              monkeypatch):
    # a missing colour chunk is estimated from the coarse and fine rows a
    # coded one is read against: no pass evaluates the 257-entry rows
    coords, rgb = random_block(np.random.default_rng(17))
    stream = codec.encode(coords, rgb, model)
    pointwise, grids = lh.pointwise_cdf, []

    def recorded(w, mu, s, grid, edge_index):
        grids.append(grid)
        return pointwise(w, mu, s, grid, edge_index)

    monkeypatch.setattr(lh, "pointwise_cdf", recorded)
    for k in (1, 2, 3):
        for mode in ("mean", "sample"):
            codec.decode_scalable(coords, codec.truncate_bitstream(stream, k),
                                  model, mode=mode)
    assert grids  # the estimated latent passes read pointwise rows
    assert not any(grid is lh.RGB_GRID for grid in grids)


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 300), st.integers(1, 70))
@settings(max_examples=60, deadline=None)
def test_mean_estimate_sums_by_parts(seed, num_symbols, num_rows):
    # the "mean" estimate's mass sum_m m (cdf[m+1] - cdf[m]) is taken by
    # parts as (M - 1) TOTAL - sum of the interior CDF values: on valid rows
    # (0 to TOTAL, every width >= 1) it equals the differenced form
    rng = np.random.default_rng(seed)
    M, total = num_symbols, codec.rc.TOTAL
    widths = 1 + rng.multinomial(total - M, rng.dirichlet(np.ones(M)),
                                 size=num_rows)
    table = np.zeros((num_rows, M + 1), dtype=np.int64)
    np.cumsum(widths, axis=1, out=table[:, 1:])
    assert (table[:, -1] == total).all()
    mass = np.diff(table, axis=-1) @ np.arange(M)
    np.testing.assert_array_equal(codec._estimator("mean", 0)(table),
                                  (mass + total // 2) // total)


def _shift_one_row(tables):
    # the interior CDF values of the sixth row of a pass move up by one:
    # still a valid row, but every span of it differs from the encoder's
    for i, table in enumerate(tables):
        if i == 0:
            table[5, 1:-1] += 1
        yield table


@pytest.mark.parametrize("chunk", [1, 3])
def test_decoder_cdf_desync_raises(model, monkeypatch, chunk):
    # every table the decoder reads comes from `_tables`: chunk 1 is the
    # first call, and chunk 3 (RGB) starts at the third, the red channel's
    # coarse rows
    coords, rgb = random_block(np.random.default_rng(14), lo=100, hi=200)
    stream = codec.encode(coords, rgb, model)
    tables = codec._tables
    calls = []

    def shifted(*args):
        calls.append(args)
        out = tables(*args)
        return _shift_one_row(out) if len(calls) == chunk else out

    monkeypatch.setattr(codec, "_tables", shifted)
    with pytest.raises(DesyncError):
        codec.decode(coords, stream, model)
    calls.clear()
    with pytest.raises(DesyncError):
        codec.decode_scalable(coords, stream, model)


def test_corrupt_fine_colour_row_raises_desync(model, monkeypatch):
    # a fine row of the colour chunk that is not the encoder's: the decoded
    # spans differ, and the chunk's span CRC catches it
    coords, rgb = random_block(np.random.default_rng(14), lo=100, hi=200)
    stream = codec.encode(coords, rgb, model)
    fine = lh.fine_cdf
    calls = []

    def shifted(*args, **kwargs):
        rows = fine(*args, **kwargs)
        calls.append(len(rows))
        if len(calls) == 2:  # the green channel's
            rows[5, 1:-1] += 1
        return rows

    monkeypatch.setattr(lh, "fine_cdf", shifted)
    with pytest.raises(DesyncError):
        codec.decode(coords, stream, model)
    assert len(calls) >= 2


def test_encoder_rejects_zero_width_span(model, monkeypatch):
    # a mixture CDF that falls gives some symbol hi <= lo: the encoder
    # raises instead of writing a span no decoder could read
    coords, rgb = random_block(np.random.default_rng(15))
    exact = lh.mixture_cdf
    monkeypatch.setattr(lh, "mixture_cdf",
                        lambda *args: 1.0 - exact(*args))
    with pytest.raises(InvalidCdf):
        codec.encode(coords, rgb, model)


def test_unread_forward_convs_never_run(model, monkeypatch):
    # no scale reads the top encoder's or the bottom decoder's forward: their
    # convs keep their weights (checkpoints, digest) but never run
    unread = {id(model.encoders[-1].to_forward),
              id(model.decoders[0].to_forward)}
    names = {name for name, _ in model.named_parameters()}
    assert {"enc3.to_forward.weight", "dec1.to_forward.weight"} <= names
    called = set()
    conv = SparseConv.__call__

    def spy(self, x, fmap):
        called.add(id(self))
        return conv(self, x, fmap)

    monkeypatch.setattr(SparseConv, "__call__", spy)
    coords, rgb = random_block(np.random.default_rng(17))
    stream = codec.encode(coords, rgb, model)
    codec.decode(coords, stream, model)
    for k in (1, 2):
        codec.decode_scalable(coords, codec.truncate_bitstream(stream, k),
                              model)
    codec.block_loss(model, *codec.prepare_block(coords, rgb,
                                                 CFG.num_scales))
    assert not called & unread
    # the forwards that are read still run
    assert {id(model.encoders[0].to_forward),
            id(model.decoders[1].to_forward)} <= called


def test_rate_bounds(model):
    # measured size close to the cross-entropy estimate and at least the
    # information content of the quantized tables
    rng = np.random.default_rng(5)
    coords, rgb = random_block(rng, lo=150, hi=300)
    stream = codec.encode(coords, rgb, model)
    payload_bits = 8 * len(stream)
    estimate = codec.estimate_bits(model, coords, rgb)
    info = codec.quantized_info_bits(model, coords, rgb)
    assert info <= payload_bits
    assert payload_bits <= estimate * 1.01 + 8 * 256
    assert abs(info - estimate) / estimate < 0.01  # tables track the model


def test_chunk_structure_and_truncation(model):
    rng = np.random.default_rng(6)
    coords, rgb = random_block(rng)
    stream = codec.encode(coords, rgb, model)
    lengths = codec.chunk_lengths(stream)
    assert len(lengths) == 4
    hdr = codec.header_size(CFG.num_scales)
    assert len(stream) == hdr + sum(lengths) + 8 * 4
    for k in range(1, 5):
        trunc = codec.truncate_bitstream(stream, k)
        assert len(trunc) == hdr + sum(lengths[:k]) + 8 * k
    assert codec.truncate_bitstream(stream, 4) == stream
    assert codec.truncate_bitstream(stream, 9) == stream
    # a negative count is no prefix (a slice would drop the last chunk)
    with pytest.raises(ValueError):
        codec.truncate_bitstream(stream, -1)
    data = codec.encode_blocks([((0, 0, 0), coords, rgb)], model)
    # a valid file cut to no chunks is a bad request, not a corrupt stream
    for count in (-1, 0):
        with pytest.raises(ValueError):
            codec.decode_blocks(data, [coords], model, chunks=count)


# malformed input -> CorruptStream, never a struct.error or a silent accept
MALFORMED = {
    "header cut to 10 bytes": lambda c, s, f, m: codec.decode(c, s[:10], m),
    "header cut to 20 bytes": lambda c, s, f, m: codec.decode(c, s[:20], m),
    "truncating a cut header": lambda c, s, f, m: codec.truncate_bitstream(
        s[:20], 1),
    "lengths of a cut chunk": lambda c, s, f, m: codec.chunk_lengths(s[:-3]),
    "block with trailing bytes": lambda c, s, f, m: codec.decode(
        c, s + b"\0", m),
    "scalable block with trailing bytes": lambda c, s, f, m:
        codec.decode_scalable(c, s + bytes(9), m),
    "file under 13 bytes": lambda c, s, f, m: codec.decode_blocks(
        f[:12], [c], m),
    "cut block record": lambda c, s, f, m: codec.decode_blocks(
        f[:13 + 10], [c], m),
    "file with trailing bytes": lambda c, s, f, m: codec.decode_blocks(
        f + b"\0", [c], m),
}


@pytest.fixture(scope="module")
def coded(model):
    """A block's geometry, its stream, and a one-block file of it."""
    rng = np.random.default_rng(12)
    coords, rgb = random_block(rng, lo=20, hi=40)
    return (coords, codec.encode(coords, rgb, model),
            codec.encode_blocks([((0, 0, 0), coords, rgb)], model))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_raises_corrupt_stream(case, model, coded):
    with pytest.raises(CorruptStream):
        MALFORMED[case](*coded, model)


def with_header_crc(stream):
    """The stream with its header CRC32 recomputed over the header fields."""
    end = codec.header_size(CFG.num_scales) - 4
    return (stream[:end] + zlib.crc32(stream[:end]).to_bytes(4, "little")
            + stream[end + 4:])


def test_header_rgb_alphabet_is_checked(model, coded):
    coords, stream, _ = coded
    field = codec.header_size(CFG.num_scales) - 8
    assert stream[field:field + 2] == (256).to_bytes(2, "little")
    bad = with_header_crc(
        stream[:field] + (17).to_bytes(2, "little") + stream[field + 2:])
    with pytest.raises(ModelMismatch):
        codec.decode(coords, bad, model)
    with pytest.raises(ModelMismatch):
        codec.decode_scalable(coords, codec.truncate_bitstream(bad, 2), model)


def test_flipped_header_byte_raises(model, coded):
    coords, stream, _ = coded
    assert with_header_crc(stream) == stream
    for i in range(codec.header_size(CFG.num_scales)):
        for bit in (0x01, 0x80):
            bad = bytearray(stream)
            bad[i] ^= bit
            with pytest.raises(PcacError):
                codec.decode(coords, bytes(bad), model)
    # a changed point count is caught by the CRC, before the geometry check
    bad = bytearray(stream)
    bad[10] ^= 0x01  # low byte of the level-1 count
    with pytest.raises(ChecksumFailure):
        codec.decode(coords, bytes(bad), model)


def test_flipped_file_header_or_record_byte_raises(model, coded):
    # the file header (magic, version, count, CRC32) and the block record
    # (origin, length, CRC32) are 13 + 20 bytes
    coords, _, data = coded
    assert codec.decode_blocks(data, [coords], model)[0][0] == (0, 0, 0)
    for i in range(13 + 20):
        for bit in (0x01, 0x80):
            bad = bytearray(data)
            bad[i] ^= bit
            with pytest.raises(PcacError):
                codec.decode_blocks(bytes(bad), [coords], model)
    # a changed origin is caught by the record's CRC, not decoded as (1, 0, 0)
    bad = bytearray(data)
    bad[13] ^= 0x01  # low byte of the origin's x
    with pytest.raises(ChecksumFailure):
        codec.decode_blocks(bytes(bad), [coords], model)


def _mutate(data: bytes, mutation):
    kind, where, value = mutation
    if kind == "truncate":
        return data[:where % len(data)]
    if kind == "flip":
        bad = bytearray(data)
        bad[where % len(data)] ^= 1 << value
        return bytes(bad)
    return data + value


MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20), st.none()),
    st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(0, 7)),
    st.tuples(st.just("append"), st.none(),
              st.binary(min_size=1, max_size=64)))


@given(target=st.sampled_from(["stream", "file"]), mutation=MUTATIONS)
@settings(max_examples=500, deadline=None)
def test_mutated_container_raises_pcac_error(model, coded, target, mutation):
    # a cut, flipped or extended stream or file never decodes, and no error
    # but a PcacError escapes
    coords, stream, data = coded
    with pytest.raises(PcacError):
        if target == "stream":
            codec.decode(coords, _mutate(stream, mutation), model)
        else:
            codec.decode_blocks(_mutate(data, mutation), [coords], model)


def test_header_only_prefix_needs_the_top_chunk(model, coded):
    # a scalable decode estimates missing chunks from the top latent, so it
    # needs the top chunk; lossless decode names the full chunk count
    coords, stream, _ = coded
    header_only = codec.truncate_bitstream(stream, 0)
    assert len(header_only) == codec.header_size(CFG.num_scales)
    with pytest.raises(CorruptStream, match="at least the top chunk"):
        codec.decode_scalable(coords, header_only, model)
    with pytest.raises(CorruptStream, match="expected 4 chunks, found 0"):
        codec.decode(coords, header_only, model)


def with_flipped_byte(stream, chunk, index):
    """The stream with byte `index` of chunk `chunk`'s payload flipped and
    the chunk's CRC32 recomputed, so the flip reaches the range decoder."""
    buf = bytearray(stream)
    start = codec.header_size(CFG.num_scales) + 8
    lengths = codec.chunk_lengths(stream)
    start += sum(8 + n for n in lengths[:chunk])
    buf[start + index] ^= 0xFF
    buf[start - 4:start] = zlib.crc32(
        buf[start:start + lengths[chunk]]).to_bytes(4, "little")
    return bytes(buf)


def test_flipped_coded_byte_never_decodes_to_wrong_rgb(model):
    # a flip behind a valid chunk CRC32 raises CorruptStream (the decoder's
    # state leaves its interval) or DesyncError (the span hash differs), or
    # is absorbed by the flush slack and decodes the true RGB
    coords, rgb = random_block(np.random.default_rng(16), lo=100, hi=200)
    stream = codec.encode(coords, rgb, model)
    truth = rgb[sort_coords(coords)]
    raised = 0
    for chunk, length in enumerate(codec.chunk_lengths(stream)):
        coded = length - (4 if chunk else 0)  # the span hash is no coder byte
        for index in sorted({0, 1, coded // 2, coded - 1}):
            try:
                back = codec.decode(coords, with_flipped_byte(
                    stream, chunk, index), model)
            except (CorruptStream, DesyncError):
                raised += 1
            else:
                np.testing.assert_array_equal(back, truth)
    assert raised >= 8


def test_scalable_decode_modes(model):
    rng = np.random.default_rng(7)
    coords, rgb = random_block(rng, lo=100, hi=200)
    stream = codec.encode(coords, rgb, model)
    full = codec.decode(coords, stream, model)
    # the full prefix reproduces the lossless result in either mode
    for mode in ("mean", "sample"):
        out = codec.decode_scalable(coords, stream, model, mode=mode)
        np.testing.assert_array_equal(out, full)
    # shorter prefixes decode to valid symbols and are deterministic
    for k in range(1, 4):
        trunc = codec.truncate_bitstream(stream, k)
        mean1 = codec.decode_scalable(coords, trunc, model, mode="mean")
        mean2 = codec.decode_scalable(coords, trunc, model, mode="mean")
        np.testing.assert_array_equal(mean1, mean2)
        s1 = codec.decode_scalable(coords, trunc, model, mode="sample", seed=11)
        s2 = codec.decode_scalable(coords, trunc, model, mode="sample", seed=11)
        s3 = codec.decode_scalable(coords, trunc, model, mode="sample", seed=12)
        np.testing.assert_array_equal(s1, s2)
        assert not np.array_equal(s1, s3)  # different seed, different draw
        for out in (mean1, s1):
            assert out.shape == (len(coords), 3)
            assert out.min() >= 0 and out.max() <= 255
    with pytest.raises(ValueError):
        codec.decode_scalable(coords, stream, model, mode="median")


def test_longer_prefixes_do_not_hurt(model):
    # adding chunks should (weakly) improve the mean-mode reconstruction
    rng = np.random.default_rng(8)
    coords = np.unique(rng.integers(0, 8, size=(150, 3)), axis=0)
    base = rng.integers(80, 176, size=(1, 3))
    rgb = np.clip(base + rng.integers(-10, 10, size=(len(coords), 3)), 0, 255)
    stream = codec.encode(coords, rgb, model)
    truth = rgb[sort_coords(coords)]
    errs = []
    for k in range(1, 5):
        out = codec.decode_scalable(
            coords, codec.truncate_bitstream(stream, k), model, mode="mean")
        errs.append(np.abs(out - truth).mean())
    assert errs[3] == 0.0  # all four chunks = lossless


def test_measure_bpp():
    # 1250 bytes over 1000 points = 10 bits per point; no points is a typed
    # error, not an assert that `python -O` would strip
    assert codec.measure_bpp(b"\0" * 1250, 1000) == 10.0
    for points in (0, -3):
        with pytest.raises(EmptyGeometry):
            codec.measure_bpp(b"\0" * 10, points)


def test_checkpoint_round_trip(tmp_path, model):
    # saved at exactly the path given: no ".npz" is appended to it
    path = tmp_path / "model.ckpt"
    codec.ModelCheckpoint(model, {"note": "test"}).save(str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    loaded = codec.ModelCheckpoint.load(path)
    assert loaded.metadata["note"] == "test"
    assert loaded.model.digest() == model.digest()
    rng = np.random.default_rng(9)
    coords, rgb = random_block(rng)
    assert codec.encode(coords, rgb, loaded.model) == \
        codec.encode(coords, rgb, model)


def test_checkpoint_detects_tampering(tmp_path, model):
    path = tmp_path / "model.npz"
    codec.ModelCheckpoint(model).save(path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    name = next(k for k in arrays if k != "__meta__")
    arrays[name] = arrays[name] + 1.0
    np.savez_compressed(path, **arrays)
    with pytest.raises(DigestMismatch):
        codec.ModelCheckpoint.load(path)


def _broadcastable_weight_without_digest(arrays):
    # (1, 1, c_out) broadcasts into (27, 3, c_out): without a stored digest
    # nothing else would notice
    arrays["enc1.head.weight"] = arrays["enc1.head.weight"][:1, :1]
    del arrays["__meta__"]["digest"]


# checkpoint edits (on its arrays, "__meta__" decoded) -> ModelMismatch
MALFORMED_CHECKPOINT = {
    "missing weight": lambda a: a.pop("enc1.head.weight"),
    "missing bias": lambda a: a.pop("dec1.to_params.bias"),
    "missing metadata": lambda a: a.pop("__meta__"),
    "narrow weight": lambda a: a.update(
        {"enc1.head.weight": a["enc1.head.weight"][:, :, :-1]}),
    "broadcastable weight, no digest": _broadcastable_weight_without_digest,
    "metadata not JSON": lambda a: a.update({"__meta__": "{not json"}),
    "metadata without config": lambda a: a["__meta__"].pop("config"),
    "no scales": lambda a: a["__meta__"]["config"].update(num_scales=0),
    "one latent bin": lambda a: a["__meta__"]["config"].update(num_bins=1),
    "one quantizer bin": lambda a: a["__meta__"]["quantizer"].update(
        num_bins=1),
    "quantizer bins differ": lambda a: a["__meta__"]["quantizer"].update(
        num_bins=27),
    "quantizer range differs": lambda a: a["__meta__"]["quantizer"].update(
        lo=-2.0),
    "quantizer temperature differs": lambda a: a["__meta__"][
        "quantizer"].update(temperature=0.5),
    "no hidden channels": lambda a: a["__meta__"]["config"].update(hidden=0),
    "no latent channels": lambda a: a["__meta__"]["config"].update(
        latent_channels=0),
    "no mixtures": lambda a: a["__meta__"]["config"].update(mixtures=0),
    "negative res-blocks": lambda a: a["__meta__"]["config"].update(
        res_blocks=-1),
    "fractional size": lambda a: a["__meta__"]["config"].update(hidden=8.5),
    # arrays whose values are the saved float32 values, so that only their
    # dtype is wrong: float64, as files before VERSION 8 held, and integer
    "float64 weight": lambda a: a.update(
        {"enc1.head.weight": a["enc1.head.weight"].astype(np.float64)}),
    "integer weight": lambda a: a.update(
        {"dec1.to_params.bias": a["dec1.to_params.bias"].astype(np.int64)}),
}

# edits of a checkpoint file's bytes -> ModelMismatch
CORRUPT_CHECKPOINT_FILE = {
    "cut archive": lambda raw: raw[:500],
    "not an archive": lambda raw: b"these are not weights\n" * 40,
    "empty file": lambda raw: b"",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINT)
                         + sorted(CORRUPT_CHECKPOINT_FILE))
def test_malformed_checkpoint_raises_model_mismatch(tmp_path, model, case):
    path = tmp_path / "model.npz"
    codec.ModelCheckpoint(model).save(path)
    if case in CORRUPT_CHECKPOINT_FILE:
        path.write_bytes(CORRUPT_CHECKPOINT_FILE[case](path.read_bytes()))
    else:
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["__meta__"] = json.loads(str(arrays["__meta__"]))
        MALFORMED_CHECKPOINT[case](arrays)
        if isinstance(arrays.get("__meta__"), dict):
            arrays["__meta__"] = json.dumps(arrays["__meta__"])
        np.savez(path, **arrays)
    with pytest.raises(ModelMismatch):
        codec.ModelCheckpoint.load(path)


def quantizer_entry(model):
    """The quantizer entry of checkpoints and the digest."""
    return {"num_bins": model.config.num_bins, "lo": -1.0, "hi": 1.0,
            "temperature": 1.0}


def test_digest_hashes_the_float32_weights(model):
    # SHA-256 of the config, the quantizer entry and each parameter's name
    # and little-endian float32 bytes, in sorted name order
    h = hashlib.sha256()
    h.update(json.dumps(model.config.to_dict(), sort_keys=True).encode())
    h.update(json.dumps(quantizer_entry(model), sort_keys=True).encode())
    for name, p in sorted(model.named_parameters(), key=lambda item: item[0]):
        h.update(name.encode())
        h.update(p.value.astype("<f4").tobytes())
    assert model.digest() == h.digest()[:8]
    # a float64 change that float32 rounding drops is one coding cannot see
    p = model.parameters()[0]
    saved = p.value.copy()
    p.value[0, 0, 0] = np.float32(saved[0, 0, 0])
    assert p.value[0, 0, 0] != saved[0, 0, 0]
    model.mark_dirty()
    assert model.digest() == h.digest()[:8]
    p.value[...] = saved
    model.mark_dirty()


def test_checkpoint_is_the_float32_values_coding_reads(tmp_path):
    # a fresh float64 model, the same after one epoch of training, and the
    # save -> load copy of each: every pair has one digest and codes the
    # golden blocks to the same bytes, from float32 arrays in a file about
    # half the float64 parameter bytes
    coords, rgb = golden_block("small")
    blocks = golden_file_blocks()
    trained = trainer.train([(coords, rgb)], trainer.TrainConfig(max_epochs=1),
                            model=codec.CodecModel(GOLDEN_CFG, seed=3)).model
    for i, model in enumerate((codec.CodecModel(GOLDEN_CFG, seed=3),
                               trained)):
        assert {p.value.dtype for p in model.parameters()} == \
            {np.dtype(np.float64)}
        path = tmp_path / f"model{i}.npz"
        codec.ModelCheckpoint(model).save(path)
        copy = codec.ModelCheckpoint.load(path).model
        with np.load(path) as data:
            weights = [data[k] for k in data.files if k != "__meta__"]
        assert len(weights) == len(model.parameters())
        assert {w.dtype for w in weights} == {np.dtype(np.float32)}
        assert path.stat().st_size <= 0.55 * sum(
            p.value.nbytes for p in model.parameters())
        assert {p.value.dtype for p in copy.parameters()} == \
            {np.dtype(np.float32)}
        assert copy.digest() == model.digest()
        stream = codec.encode(coords, rgb, model)
        assert codec.encode(coords, rgb, copy) == stream
        np.testing.assert_array_equal(codec.decode(coords, stream, copy),
                                      rgb[sort_coords(coords)])
        assert codec.encode_blocks(blocks, copy) == \
            codec.encode_blocks(blocks, model)


def test_digest_tracks_weight_changes(model):
    d0 = model.digest()
    p = model.parameters()[0]
    saved = p.value.copy()
    p.value[0, 0] += 1.0
    model.mark_dirty()
    assert model.digest() != d0
    p.value[...] = saved
    model.mark_dirty()
    assert model.digest() == d0


def test_multi_block_file(model):
    rng = np.random.default_rng(10)
    blocks = []
    for i in range(3):
        coords, rgb = random_block(rng, lo=20, hi=60)
        blocks.append(((i * 64, 0, 0), coords, rgb))
    data = codec.encode_blocks(blocks, model)
    out = codec.decode_blocks(data, [b[1] for b in blocks], model)
    for (origin, coords, rgb), (o2, rgb2) in zip(blocks, out):
        assert tuple(origin) == o2
        np.testing.assert_array_equal(rgb2, rgb[sort_coords(coords)])
    with pytest.raises(ModelMismatch):
        codec.decode_blocks(data, [blocks[0][1]], model)
    with pytest.raises(CorruptStream):
        codec.decode_blocks(b"ZZZZ" + data[4:], [b[1] for b in blocks], model)


def file_streams(data):
    """The block streams of an encode_blocks file, in file order."""
    off, streams = 13, []
    while off < len(data):
        length = int.from_bytes(data[off + 12:off + 16], "little")
        streams.append(data[off + 20:off + 20 + length])
        off += 20 + length
    return streams


def small_file(rng, sizes=(40, 1, 60)):
    """File blocks of about these point counts at x origins 0, 64, ..."""
    blocks = []
    for i, n in enumerate(sizes):
        coords = np.unique(rng.integers(0, 16 if n > 1 else 64,
                                        size=(n, 3)), axis=0)
        blocks.append(((64 * i, 0, 0), coords,
                       rng.integers(0, 256, size=(len(coords), 3))))
    return blocks


def test_file_block_without_points_raises_empty_geometry(model):
    # in a group an empty block would have no rows and vanish silently
    blocks = small_file(np.random.default_rng(20))
    data = codec.encode_blocks(blocks, model)
    empty = np.empty((0, 3), dtype=np.int64)
    with pytest.raises(EmptyGeometry):
        codec.encode_blocks(blocks[:1] + [((64, 0, 0), empty, empty)], model)
    with pytest.raises(EmptyGeometry):
        codec.decode_blocks(data, [blocks[0][1], empty, blocks[2][1]], model)


def test_file_block_duplicate_names_its_local_coordinate(model):
    # the third block sits at x + 256 in its group's pyramid; the error
    # names the coordinate as the block holds it
    blocks = small_file(np.random.default_rng(21))
    data = codec.encode_blocks(blocks, model)
    origin, coords, rgb = blocks[2]
    dup = np.concatenate([coords, coords[3:4]])
    dup_rgb = np.concatenate([rgb, rgb[3:4]])
    name = str(tuple(coords[3].tolist()))
    with pytest.raises(DuplicateCoordinate, match=re.escape(name)):
        codec.encode_blocks(blocks[:2] + [(origin, dup, dup_rgb)], model)
    with pytest.raises(DuplicateCoordinate, match=re.escape(name)):
        codec.decode_blocks(data, [blocks[0][1], blocks[1][1], dup], model)


def test_file_block_rgb_is_checked(model):
    blocks = small_file(np.random.default_rng(22))
    origin, coords, rgb = blocks[1]
    with pytest.raises(ShapeMismatch):
        codec.encode_blocks(
            blocks[:1] + [(origin, coords, np.zeros((len(coords) + 1, 3)))],
            model)
    for bad in (256, -1, 2.5):
        wrong = rgb.astype(np.float64)
        wrong[0, 1] = bad
        with pytest.raises(SymbolOutOfRange):
            codec.encode_blocks(blocks[:1] + [(origin, coords, wrong)], model)


def test_file_block_outside_its_extent_raises_out_of_range(model):
    # the lattice keeps blocks apart only for local coordinates in
    # [0, 64)^3; a lone block's stream takes any geometry in the key range
    blocks = small_file(np.random.default_rng(23))
    data = codec.encode_blocks(blocks, model)
    origin, coords, rgb = blocks[2]
    for point in ((64, 3, 3), (3, 3, 64), (3, -1, 3)):
        outside = coords.copy()
        outside[0] = point
        with pytest.raises(OutOfRange):
            codec.encode_blocks(blocks[:2] + [(origin, outside, rgb)], model)
        with pytest.raises(OutOfRange):
            codec.decode_blocks(data, [blocks[0][1], blocks[1][1], outside],
                                model)
        stream = codec.encode(outside, rgb, model)
        np.testing.assert_array_equal(
            codec.decode(outside, stream, model), rgb[sort_coords(outside)])


def test_empty_file(model):
    data = codec.encode_blocks([], model)
    assert len(data) == 13
    assert codec.decode_blocks(data, [], model) == []


def test_one_block_file_holds_the_encode_stream(model):
    # a lone block is the one-block case of the same driver
    blocks = small_file(np.random.default_rng(24), sizes=(90,))
    _, coords, rgb = blocks[0]
    [stream] = file_streams(codec.encode_blocks(blocks, model))
    assert stream == codec.encode(coords, rgb, model)


@pytest.mark.parametrize("num_scales", [3, 7])
def test_block_headers_hold_their_own_pyramid_counts(num_scales):
    # at 7 scales a 3x3x3 neighbourhood at the top level reaches the next
    # lattice slot, so every block is coded alone, with its own counts too
    lockstep = codec.CodecModel(ModelConfig(
        hidden=8, res_blocks=1, mixtures=2, num_scales=num_scales), seed=0)
    blocks = small_file(np.random.default_rng(25), sizes=(40, 1, 120, 60))
    data = codec.encode_blocks(blocks, lockstep)
    for stream, (_, coords, _) in zip(file_streams(data), blocks):
        header, _ = codec._parse_header(stream)
        assert header["counts"] == tuple(
            len(c) for c in build_pyramid(coords, num_scales).coords)
    for (_, coords, rgb), (_, back) in zip(
            blocks, codec.decode_blocks(data, [b[1] for b in blocks],
                                        lockstep)):
        np.testing.assert_array_equal(back, rgb[sort_coords(coords)])


def test_lockstep_round_trip_at_hidden_64():
    # at hidden 64 a float32 GEMM row's result depends on the rows it is
    # computed with, so blocks coded in one group get other spans than
    # alone, and only a decoder that runs the same group reads them
    wide = codec.CodecModel(ModelConfig(hidden=64), seed=0)
    blocks = small_file(np.random.default_rng(0), sizes=(300, 1, 400, 250))
    data = codec.encode_blocks(blocks, wide)
    assert any(stream != codec.encode(coords, rgb, wide)
               for stream, (_, coords, rgb) in zip(file_streams(data), blocks))
    out = codec.decode_blocks(data, [b[1] for b in blocks], wide)
    for (origin, coords, rgb), (o2, back) in zip(blocks, out):
        assert tuple(origin) == o2
        np.testing.assert_array_equal(back, rgb[sort_coords(coords)])


def test_file_across_a_group_boundary_round_trips():
    # a full 64^3 block fills a group's 262144 points, so the blocks after
    # it start a second group
    tiny = codec.CodecModel(ModelConfig(hidden=2, res_blocks=0, mixtures=1,
                                        latent_channels=1), seed=0)
    rng = np.random.default_rng(26)
    cube = np.stack(np.meshgrid(*[np.arange(64)] * 3, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    blocks = [((0, 0, 0), cube, rng.integers(0, 256, size=(len(cube), 3)))]
    blocks += small_file(rng, sizes=(1, 30))
    assert codec._groups([len(b[1]) for b in blocks], 3) == [(0, 1), (1, 3)]
    data = codec.encode_blocks(blocks, tiny)
    out = codec.decode_blocks(data, [b[1] for b in blocks], tiny)
    for (_, coords, rgb), (_, back) in zip(blocks, out):
        np.testing.assert_array_equal(back, rgb[sort_coords(coords)])


def test_groups_close_at_the_point_and_block_budgets():
    assert codec.GROUP_POINTS == 64 ** 3 and codec.GROUP_BLOCKS == 8192
    budget = codec.GROUP_POINTS
    assert codec._groups([], 3) == []
    assert codec._groups([budget - 1, 1, 1], 3) == [(0, 2), (2, 3)]
    assert codec._groups([2, budget + 5, 3], 3) == [(0, 1), (1, 2), (2, 3)]
    assert codec._groups([1] * 8193, 3) == [(0, 8192), (8192, 8193)]
    assert codec._groups([1] * 3, 7) == [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize("mode", ["mean", "sample"])
def test_scalable_file_decode_is_valid_and_repeatable(model, mode):
    blocks = small_file(np.random.default_rng(27), sizes=(120, 1, 80))
    data = codec.encode_blocks(blocks, model)
    geometry = [b[1] for b in blocks]
    for k in (1, 2, 3):
        first = codec.decode_blocks(data, geometry, model, chunks=k,
                                    mode=mode, seed=3)
        again = codec.decode_blocks(data, geometry, model, chunks=k,
                                    mode=mode, seed=3)
        for (_, coords, _), (_, rgb), (_, rgb2) in zip(blocks, first, again):
            assert rgb.shape == (len(coords), 3)
            assert rgb.min() >= 0 and rgb.max() <= 255
            np.testing.assert_array_equal(rgb, rgb2)


def test_version_5_stream_or_file_is_unsupported(model, coded):
    # and version 6, whose colour chunk is one-level, and version 7, whose
    # digest hashes float64 weights
    coords, stream, data = coded
    assert codec.VERSION == 8
    for version in (5, 6, 7):
        old = stream[:4] + bytes([version]) + stream[5:]
        with pytest.raises(CorruptStream, match="unsupported version"):
            codec.decode(coords, old, model)
        old_file = data[:4] + bytes([version]) + data[5:]
        with pytest.raises(CorruptStream, match="unsupported file version"):
            codec.decode_blocks(old_file, [coords], model)


def test_block_loss_estimates_track_measured_rate(model):
    rng = np.random.default_rng(11)
    coords, rgb = random_block(rng, lo=100, hi=200)
    loss, const = codec.block_loss(
        model, *codec.prepare_block(coords, rgb, CFG.num_scales))
    assert loss.value.shape == ()
    est = float(loss.value) + const
    measured = 8 * len(codec.encode(coords, rgb, model))
    assert measured <= est * 1.01 + 8 * 256
    assert est <= measured  # coding overhead only adds bits


# Encodes two parallel 40 x 40 planes (3200 points) with a hidden-64 model,
# decodes the stream given on stdin (if any) and checks it is lossless, and
# writes its own stream to stdout. Its GEMMs gather thousands of rows by 64
# channels, far above the size at which OpenBLAS splits a GEMM over threads.
_PLANES_CODER = """
import sys
import numpy as np
from pcac import codec
from pcac.sparse_nn import ModelConfig
from pcac.tensor_core import sort_coords
grid = np.stack(np.meshgrid(np.arange(40), np.arange(40), indexing="ij"),
                axis=-1).reshape(-1, 2)
coords = np.concatenate([np.c_[grid, np.full(len(grid), z)] for z in (3, 9)])
rgb = (128 + 100 * np.sin(coords / 7.0)).astype(np.int64)
model = codec.CodecModel(ModelConfig(hidden=64, res_blocks=2), seed=0)
other = sys.stdin.buffer.read()
if other:
    back = codec.decode(coords, other, model)
    assert np.array_equal(back, rgb[sort_coords(coords)])
sys.stdout.buffer.write(codec.encode(coords, rgb, model))
"""


def test_stream_does_not_depend_on_blas_threads():
    # float32 streams decode only where the float32 results agree; the BLAS
    # thread count must not change them. The second process decodes the
    # first one's stream.
    src = str(Path(__file__).resolve().parents[1] / "src")
    streams = [b""]
    for threads in (1, min(2, os.cpu_count() or 1)):
        env = dict(os.environ, PYTHONPATH=src,
                   OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads))
        streams.append(subprocess.run(
            [sys.executable, "-c", _PLANES_CODER], input=streams[-1],
            env=env, check=True, capture_output=True, timeout=60).stdout)
    assert len(streams[1]) > 0
    assert streams[1] == streams[2]


def test_block_loss_runs_the_coders_forward(model, monkeypatch):
    # block_loss in STE mode at its default dtype quantizes to the symbols
    # `_analyze` codes and gets every decoder head output of `_top_down`,
    # bit for bit, on the same block
    coords, rgb = random_block(np.random.default_rng(21), lo=120, hi=200)
    maps, rgb = codec.prepare_block(coords, rgb, CFG.num_scales)
    symbols, heads = [], []
    quantize_hard = codec.quantize_hard

    def recorded_quantize_hard(values, grid):
        out = quantize_hard(values, grid)
        symbols.append(out[0])
        return out

    def recorded_decoder(decoder):
        def run(*args):
            params, forward = decoder(*args)
            heads.append(params.value)
            return params, forward
        return run

    monkeypatch.setattr(codec, "quantize_hard", recorded_quantize_hard)
    monkeypatch.setattr(model, "decoders",
                        [recorded_decoder(dec) for dec in model.decoders])

    top, passes = codec._analyze(model, maps, rgb)
    codec._top_down(model, maps, top, lambda chunk, grid, params: next(passes))
    coded = symbols[:]
    coded_heads = heads[:]
    symbols.clear()
    heads.clear()
    codec.block_loss(model, maps, rgb)
    assert len(coded) == len(symbols) == CFG.num_scales
    for a, b in zip(coded, symbols):
        assert a.tobytes() == b.tobytes()
    assert len(coded_heads) == len(heads) == CFG.num_scales
    for a, b in zip(coded_heads, heads):
        assert a.dtype == b.dtype == codec.CODING_DTYPE
        assert a.tobytes() == b.tobytes()


def test_block_loss_quantizes_each_latent_once(model, monkeypatch):
    # block_loss hands quantize_hard's values to quantize_soft instead of
    # quantizing again: one quantization per latent, and the loss and every
    # gradient are bit for bit those of quantizing twice
    coords, rgb = random_block(np.random.default_rng(22), lo=120, hi=200)
    maps, rgb = codec.prepare_block(coords, rgb, CFG.num_scales)

    def loss_and_grads():
        for p in model.parameters():
            p.grad = None
        loss, const = codec.block_loss(model, maps, rgb)
        backward(loss)
        # the unread forward convs get no gradient
        return loss.value.tobytes(), const, [
            None if p.grad is None else p.grad.tobytes()
            for p in model.parameters()]

    calls = []
    for module in (codec, quantizer):
        def counted(values, grid, original=module.quantize_hard):
            calls.append(len(values))
            return original(values, grid)
        monkeypatch.setattr(module, "quantize_hard", counted)
    once = loss_and_grads()
    assert len(calls) == CFG.num_scales
    soft = codec.quantize_soft
    monkeypatch.setattr(codec, "quantize_soft",
                        lambda x, grid, mode, hard: soft(x, grid, mode))
    calls.clear()
    assert loss_and_grads() == once
    assert len(calls) == 2 * CFG.num_scales
