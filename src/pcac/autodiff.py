"""Minimal reverse-mode autodiff over float matrices, plus Adam.

Nodes form a DAG; backward walks nodes in reverse construction order, which
fixes the reduction order and makes gradients bit-reproducible. A node holds
a float32 value as float32 and any other value as float64 (`as_float`), and
its gradient in the same dtype. Training and the coder run the same float32
graphs; parameters are float64 leaves, so their gradients and Adam's moments
are float64, and each op casts them to its input's dtype. No broadcasting
beyond what each primitive states.

Adam's moment decays and epsilon are the constants `BETA1`, `BETA2` and
`EPS`; the caller passes the learning rate of each step (the trainer's
schedule is `TrainConfig.lr_at`).
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import NonScalarLoss, ShapeMismatch

_ids = itertools.count()


def as_float(value):
    """`value` as an array: float32 stays float32, anything else becomes
    float64 (a float64 array is returned as it is, not copied)."""
    value = np.asarray(value)
    if value.dtype == np.float32:
        return value
    return value.astype(np.float64, copy=False)


class Node:
    """One value in the computation graph.

    `backward_fn(g)` returns one gradient array (or None) per parent.
    Leaf nodes (constants, parameters) have no parents.
    """

    __slots__ = ("value", "parents", "backward_fn", "grad", "nid")

    def __init__(self, value, parents=(), backward_fn=None):
        self.value = as_float(value)
        self.parents = tuple(parents)
        self.backward_fn = backward_fn
        self.grad = None
        self.nid = next(_ids)

    @property
    def shape(self):
        return self.value.shape


class Parameter(Node):
    """Trainable leaf with Adam state; the moments `m` and `v` are allocated
    by the first `adam_step`, so a model that is never trained holds none.
    A float64 array `value` is held as it is, not copied."""

    __slots__ = ("m", "v", "t")

    def __init__(self, value):
        super().__init__(value)
        self.m = None
        self.v = None
        self.t = 0


def constant(value) -> Node:
    return Node(value)


def backward(loss: Node):
    """Populate .grad on every node reachable from `loss`.

    Deterministic: nodes are processed in strictly decreasing construction id.
    """
    if loss.value.size != 1:
        raise NonScalarLoss(f"loss has shape {loss.value.shape}")
    # collect reachable nodes
    seen = {loss.nid: loss}
    stack = [loss]
    while stack:
        node = stack.pop()
        for p in node.parents:
            if p.nid not in seen:
                seen[p.nid] = p
                stack.append(p)
    order = sorted(seen.values(), key=lambda n: n.nid, reverse=True)
    loss.grad = np.ones_like(loss.value)
    for node in order:
        if node.grad is None or node.backward_fn is None:
            continue
        grads = node.backward_fn(node.grad)
        for parent, g in zip(node.parents, grads):
            if g is None:
                continue
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.value)
            parent.grad += g


# ---------------------------------------------------------------- primitives

def _same_shape(a, b):
    if a.value.shape != b.value.shape:
        raise ShapeMismatch(f"{a.value.shape} vs {b.value.shape}")


def add(a: Node, b: Node) -> Node:
    _same_shape(a, b)
    return Node(a.value + b.value, (a, b), lambda g: (g, g))


def mul(a: Node, b: Node) -> Node:
    _same_shape(a, b)
    return Node(a.value * b.value, (a, b),
                lambda g: (g * b.value, g * a.value))


def sum_nodes(nodes) -> Node:
    """n-ary elementwise sum (single node; fixed accumulation order)."""
    nodes = list(nodes)
    out = nodes[0].value.copy()
    for n in nodes[1:]:
        _same_shape(nodes[0], n)
        out += n.value
    return Node(out, tuple(nodes), lambda g: tuple(g for _ in nodes))


def relu(x: Node) -> Node:
    mask = x.value > 0
    return Node(np.where(mask, x.value, 0.0), (x,), lambda g: (g * mask,))


def concat_cols(*nodes) -> Node:
    widths = [n.value.shape[-1] for n in nodes]
    splits = np.cumsum(widths)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=-1))

    return Node(np.concatenate([n.value for n in nodes], axis=-1), nodes, bwd)


def sum_all(x: Node) -> Node:
    shape = x.value.shape
    return Node(np.array(x.value.sum()), (x,),
                lambda g: (np.broadcast_to(g, shape).copy(),))


# --------------------------------------------------------------------- adam

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def adam_step(params, lr: float):
    """One Adam update (bias-corrected) with learning rate `lr` over
    `params` in fixed order. The moments and the weights are updated in
    place, by the textbook update's operations in its order."""
    for p in params:
        g = p.grad
        if g is None:
            continue
        if p.m is None:
            p.m = np.zeros_like(p.value)
            p.v = np.zeros_like(p.value)
        p.t += 1
        # m = BETA1 m + (1 - BETA1) g
        step = np.multiply(g, 1 - BETA1)
        p.m *= BETA1
        p.m += step
        # v = BETA2 v + (1 - BETA2) g g
        np.multiply(g, 1 - BETA2, out=step)
        step *= g
        p.v *= BETA2
        p.v += step
        # value -= lr m_hat / (sqrt(v_hat) + EPS)
        np.divide(p.m, 1 - BETA1 ** p.t, out=step)
        step *= lr
        root = np.divide(p.v, 1 - BETA2 ** p.t)
        np.sqrt(root, out=root)
        root += EPS
        step /= root
        p.value -= step
