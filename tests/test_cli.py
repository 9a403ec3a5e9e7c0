import os
import stat

import numpy as np
import pytest

from pcac import cli, codec, pc_io
from pcac.sparse_nn import ModelConfig

CFG = ModelConfig(hidden=8, res_blocks=1, mixtures=2)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    data = root / "data"
    data.mkdir()
    coords = np.unique(rng.integers(0, 16, size=(150, 3)), axis=0)
    base = 128 + 60 * np.sin(coords.sum(axis=1) / 5.0)
    rgb = np.clip(base[:, None] + rng.integers(-5, 5, size=(len(coords), 3)),
                  0, 255).astype(np.int64)
    pc_io.write_ply(pc_io.PointCloud(coords.astype(np.float64), rgb),
                    data / "cloud.ply")
    ckpt_path = root / "model.npz"
    model = codec.CodecModel(CFG, seed=0)
    codec.ModelCheckpoint(model, {"seed": 0}).save(ckpt_path)
    return root


def test_usage_errors_exit_1():
    assert cli.main([]) == 1
    assert cli.main(["encode"]) == 1
    assert cli.main(["decode-scalable", "a", "b", "--model", "m",
                     "--out", "o", "--chunks", "9"]) == 1
    # epochs and batch sizes are positive integers
    for flag, value in (("--max-epochs", "0"), ("--batch-size", "0"),
                        ("--batch-size", "-1"), ("--max-epochs", "two")):
        assert cli.main(["train", "d", "--out", "o", flag, value]) == 1


def test_missing_files_exit_2(workspace, tmp_path, capsys):
    out = workspace / "x.bin"
    assert cli.main(["encode", str(workspace / "missing.ply"),
                     "--model", str(workspace / "model.npz"),
                     "--out", str(out)]) == 2
    assert cli.main(["encode", str(workspace / "data" / "cloud.ply"),
                     "--model", str(workspace / "missing.npz"),
                     "--out", str(out)]) == 2
    # a cut checkpoint and a PLY without points are data errors too
    cut = tmp_path / "cut.npz"
    cut.write_bytes((workspace / "model.npz").read_bytes()[:500])
    empty = tmp_path / "empty.ply"
    pc_io.write_ply(pc_io.PointCloud(np.empty((0, 3)), np.empty((0, 3))),
                    empty)
    capsys.readouterr()
    for ply, model, error in (
            (workspace / "data" / "cloud.ply", cut, "ModelMismatch"),
            (empty, workspace / "model.npz", "EmptyGeometry")):
        assert cli.main(["encode", str(ply), "--model", str(model),
                         "--out", str(out)]) == 2
        assert error in capsys.readouterr().err
    assert not out.exists()  # atomic writes never leave partial output


def test_malformed_ply_exits_2(workspace, tmp_path, capsys):
    # a binary PLY cut short of its vertex count, an ASCII PLY with a
    # non-numeric value, a vertex property named twice (binary or ASCII), a
    # colour that is not an integer and a position that is not finite or
    # beyond the coordinate range are data errors for every command that
    # reads one
    raw = (workspace / "data" / "cloud.ply").read_bytes()
    cut = tmp_path / "cut.ply"
    cut.write_bytes(raw[:len(raw) // 2])
    repeated = tmp_path / "repeated.ply"
    repeated.write_bytes(raw.replace(b"property float z", b"property float x"))
    header = ["ply", "format ascii 1.0", "element vertex 1",
              "property float x", "property float y", "property float z",
              "property uchar red", "property uchar green",
              "property uchar blue", "end_header"]
    texts = {"text": header + ["1 2 z 3 4 5"],
             "repeated_text": header[:6] + ["property float x"] + header[6:]
             + ["1 2 3 4 5 6 7"],
             "fractional": header + ["1 2 3 4.7 5 6"],
             "nan": header + ["nan 2 3 4 5 6"],
             "inf": header + ["inf 2 3 4 5 6"],
             "far": header + ["3000000 2 3 4 5 6"]}
    for name, lines in texts.items():
        (tmp_path / f"{name}.ply").write_text("\n".join(lines) + "\n")
    bitstream = _encode_workspace_cloud(workspace, tmp_path)
    model = str(workspace / "model.npz")
    capsys.readouterr()
    for ply, error in ((cut, "MalformedHeader"), (repeated, "MalformedHeader"),
                       (tmp_path / "text.ply", "MalformedHeader"),
                       (tmp_path / "repeated_text.ply", "MalformedHeader"),
                       (tmp_path / "fractional.ply", "SymbolOutOfRange"),
                       (tmp_path / "nan.ply", "OutOfRange"),
                       (tmp_path / "inf.ply", "OutOfRange"),
                       (tmp_path / "far.ply", "OutOfRange")):
        for command in (["encode", str(ply), "--model", model,
                         "--out", str(tmp_path / "x.bin")],
                        ["decode", str(ply), str(bitstream), "--model", model,
                         "--out", str(tmp_path / "x.ply")]):
            assert cli.main(command) == 2
            assert error in capsys.readouterr().err
    assert not (tmp_path / "x.bin").exists()
    assert not (tmp_path / "x.ply").exists()


def test_short_ply_header_line_exits_2(workspace, tmp_path, capsys):
    # a bare `format` line is a data error, not a traceback
    ply = tmp_path / "short.ply"
    ply.write_text("ply\nformat\nend_header\n")
    out = tmp_path / "x.bin"
    assert cli.main(["encode", str(ply), "--model",
                     str(workspace / "model.npz"), "--out", str(out)]) == 2
    assert "MalformedHeader" in capsys.readouterr().err
    assert not out.exists()


def test_encode_decode_round_trip(workspace, capsys):
    ply = workspace / "data" / "cloud.ply"
    model = workspace / "model.npz"
    bitstream = workspace / "cloud.bin"
    decoded = workspace / "decoded.ply"

    assert cli.main(["encode", str(ply), "--model", str(model),
                     "--out", str(bitstream)]) == 0
    out = capsys.readouterr().out
    assert "bpp:" in out and "seconds:" in out
    assert bitstream.exists()

    assert cli.main(["decode", str(ply), str(bitstream),
                     "--model", str(model), "--out", str(decoded)]) == 0
    assert "lossless: true" in capsys.readouterr().out
    original = pc_io.read_ply(ply)
    roundtrip = pc_io.read_ply(decoded)
    # same voxel set with the same colors (order is canonical)
    a = sorted(map(tuple, np.hstack([original.positions, original.colors])))
    b = sorted(map(tuple, np.hstack([roundtrip.positions, roundtrip.colors])))
    assert a == b


def test_decode_with_wrong_model_exits_2(workspace, tmp_path):
    other = tmp_path / "other.npz"
    codec.ModelCheckpoint(codec.CodecModel(CFG, seed=5)).save(other)
    assert cli.main(["decode", str(workspace / "data" / "cloud.ply"),
                     str(workspace / "cloud.bin"),
                     "--model", str(other),
                     "--out", str(tmp_path / "out.ply")]) == 2


def test_decode_scalable(workspace, capsys):
    ply = workspace / "data" / "cloud.ply"
    out = workspace / "lossy.ply"
    assert cli.main(["decode-scalable", str(ply), str(workspace / "cloud.bin"),
                     "--model", str(workspace / "model.npz"),
                     "--out", str(out), "--chunks", "2",
                     "--mode", "sample", "--seed", "3"]) == 0
    assert "chunks used: 2" in capsys.readouterr().out
    lossy = pc_io.read_ply(out)
    assert len(lossy) == len(pc_io.read_ply(ply))


def test_evaluate_writes_csv(workspace, capsys):
    csv_path = workspace / "report.csv"
    assert cli.main(["evaluate", str(workspace / "data"),
                     "--model", str(workspace / "model.npz"),
                     "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "name,points,bpp,enc_seconds"
    assert lines[1].startswith("cloud,")
    assert lines[-1].startswith("Average,")


def test_evaluate_empty_directory_exits_2(workspace, tmp_path, capsys):
    # as train does on the same directory
    csv_path = tmp_path / "report.csv"
    for command in (["evaluate", str(tmp_path), "--model",
                     str(workspace / "model.npz"), "--csv", str(csv_path)],
                    ["train", str(tmp_path), "--out", str(tmp_path / "m")]):
        assert cli.main(command) == 2
        assert "EmptyDataset" in capsys.readouterr().err
    assert not csv_path.exists()


def test_train_command(workspace, tmp_path, capsys, monkeypatch):
    # tiny run just to exercise the pipeline end to end
    monkeypatch.setattr(
        "pcac.trainer.CodecModel",
        lambda seed=0: codec.CodecModel(CFG, seed=seed))
    # the checkpoint lands at exactly --out, with no ".npz" appended and no
    # temp file left beside it
    out = tmp_path / "trained.ckpt"
    assert cli.main(["train", str(workspace / "data"), "--out", str(out),
                     "--max-epochs", "1", "--seed", "0"]) == 0
    assert f"saved checkpoint to {out} " in capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == ["trained.ckpt"]
    ckpt = codec.ModelCheckpoint.load(out)
    assert ckpt.metadata["epochs_run"] == 1


def test_checkpoint_dir_env(workspace, monkeypatch, tmp_path):
    monkeypatch.setenv(cli.CHECKPOINT_DIR_ENV, str(workspace))
    out = tmp_path / "env.bin"
    assert cli.main(["encode", str(workspace / "data" / "cloud.ply"),
                     "--model", "model.npz", "--out", str(out)]) == 0
    assert out.exists()


def test_self_check(capsys):
    assert cli.main(["self-check", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "ok: codec round trip" in out
    assert "ok: pointwise cdf rows" in out
    # one line per check, with its case count
    assert out.count("range coder round trip") == 1
    assert "ok: range coder round trip (20/20 cases passed)" in out
    assert "FAIL" not in out


def _encode_workspace_cloud(workspace, tmp_path):
    bitstream = tmp_path / "cloud.bin"
    assert cli.main(["encode", str(workspace / "data" / "cloud.ply"),
                     "--model", str(workspace / "model.npz"),
                     "--out", str(bitstream)]) == 0
    return bitstream


def test_decode_scalable_checks_block_count(workspace, tmp_path, capsys):
    bitstream = _encode_workspace_cloud(workspace, tmp_path)
    # one more point in a second 64^3 block: two blocks against a 1-block file
    cloud = pc_io.read_ply(workspace / "data" / "cloud.ply")
    geometry = tmp_path / "two_blocks.ply"
    pc_io.write_ply(pc_io.PointCloud(
        np.vstack([cloud.positions, [[100.0, 0.0, 0.0]]]),
        np.vstack([cloud.colors, [[0, 0, 0]]])), geometry)
    out = tmp_path / "lossy.ply"
    assert cli.main(["decode-scalable", str(geometry), str(bitstream),
                     "--model", str(workspace / "model.npz"),
                     "--out", str(out), "--chunks", "2"]) == 2
    assert "ModelMismatch" in capsys.readouterr().err
    assert not out.exists()


def test_cdf_desync_exits_2(workspace, tmp_path, capsys, monkeypatch):
    bitstream = _encode_workspace_cloud(workspace, tmp_path)
    tables = codec._cdf_tables

    def shifted(grid, params):
        for i, table in enumerate(tables(grid, params)):
            if i == 0:
                table[0, 1:-1] += 1  # not the encoder's row
            yield table

    monkeypatch.setattr(codec, "_cdf_tables", shifted)
    out = tmp_path / "decoded.ply"
    assert cli.main(["decode", str(workspace / "data" / "cloud.ply"),
                     str(bitstream), "--model", str(workspace / "model.npz"),
                     "--out", str(out)]) == 2
    assert "DesyncError" in capsys.readouterr().err
    assert not out.exists()


def test_failed_ply_write_leaves_no_file(workspace, tmp_path, monkeypatch):
    bitstream = _encode_workspace_cloud(workspace, tmp_path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()

    def failing_write_ply(pc, path):
        with open(path, "wb") as f:
            f.write(b"ply\n")  # partial output, then the disk fills up
        raise OSError("no space left on device")

    monkeypatch.setattr(pc_io, "write_ply", failing_write_ply)
    for command in (["decode"], ["decode-scalable", "--chunks", "2"]):
        assert cli.main(command + [
            str(workspace / "data" / "cloud.ply"), str(bitstream),
            "--model", str(workspace / "model.npz"),
            "--out", str(out_dir / "decoded.ply")]) == 2
        assert list(out_dir.iterdir()) == []


def test_outputs_honour_the_umask(workspace, tmp_path):
    old = os.umask(0o022)
    try:
        bitstream = _encode_workspace_cloud(workspace, tmp_path)
        decoded = tmp_path / "decoded.ply"
        assert cli.main(["decode", str(workspace / "data" / "cloud.ply"),
                         str(bitstream), "--model",
                         str(workspace / "model.npz"),
                         "--out", str(decoded)]) == 0
    finally:
        os.umask(old)
    for path in (bitstream, decoded):
        assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_geometry_only_ply(workspace, tmp_path, capsys):
    # an xyz-only PLY is all a decoder needs, and not enough to encode from
    cloud = pc_io.read_ply(workspace / "data" / "cloud.ply")
    geometry = tmp_path / "data" / "geometry.ply"
    geometry.parent.mkdir()
    geometry.write_text("\n".join(
        ["ply", "format ascii 1.0", f"element vertex {len(cloud)}",
         "property float x", "property float y", "property float z",
         "end_header"]
        + [f"{x:g} {y:g} {z:g}" for x, y, z in cloud.positions]) + "\n")
    bitstream = _encode_workspace_cloud(workspace, tmp_path)
    model = str(workspace / "model.npz")
    expected = sorted(map(tuple, np.hstack([cloud.positions, cloud.colors])))
    for command in (["decode"], ["decode-scalable", "--chunks", "4"]):
        out = tmp_path / "decoded.ply"
        assert cli.main(command + [str(geometry), str(bitstream), "--model",
                                   model, "--out", str(out)]) == 0
        back = pc_io.read_ply(out)
        assert sorted(map(tuple, np.hstack([back.positions,
                                            back.colors]))) == expected
    capsys.readouterr()
    for command in (["encode", str(geometry), "--model", model,
                     "--out", str(tmp_path / "x.bin")],
                    ["train", str(geometry.parent),
                     "--out", str(tmp_path / "x.npz")],
                    ["evaluate", str(geometry.parent), "--model", model,
                     "--csv", str(tmp_path / "x.csv")]):
        assert cli.main(command) == 2
        assert "MissingProperty" in capsys.readouterr().err
