"""perfbench/tracing.py patches pcac by name; this runs its Tracer over one
encode, one decode and one training epoch, so a renamed or removed name fails
here (as a KeyError or AttributeError at install) rather than only in the
benchmark."""

import sys
from pathlib import Path

import numpy as np

from pcac import codec, sparse_nn, trainer
from pcac.sparse_nn import ModelConfig
from pcac.tensor_core import sort_coords

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_tracer_leaves_coding_unchanged_and_counts_kernel_maps():
    rng = np.random.default_rng(0)
    coords = np.unique(rng.integers(0, 8, size=(260, 3)), axis=0)
    rgb = rng.integers(0, 256, size=(len(coords), 3))
    model = codec.CodecModel(ModelConfig(hidden=8, res_blocks=1, mixtures=2),
                             seed=0)
    plain = codec.encode(coords, rgb, model)
    pool_children = sparse_nn.KernelMapCache.pool_children

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op("encode")
        stream = codec.encode(coords, rgb, model)
        tracer.begin_op("decode")
        back = codec.decode(coords, stream, model)
        tracer.begin_op("train_epoch")
        trainer.train([(coords, rgb)], trainer.TrainConfig(max_epochs=1),
                      model=model)
        tracer.end_op()
    finally:
        tracer.uninstall()

    assert sparse_nn.KernelMapCache.pool_children is pool_children
    assert stream == plain
    np.testing.assert_array_equal(back, rgb[sort_coords(coords)])
    encode, decode, epoch = (tracer.op_metrics(op) for op in range(3))
    # encode: 4 self maps, 3 pooling tables, 3 up maps; decode: no pooling
    assert encode["sparse_nn.kernel_map_builds"] == 10
    assert decode["sparse_nn.kernel_map_builds"] == 7
    assert epoch["sparse_nn.kernel_map_builds"] == 10
