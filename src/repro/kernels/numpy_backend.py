"""Fused numpy kernel backend (the default).

Bit-identical to :mod:`repro.kernels.reference` -- every kernel executes
the same floating-point operations in the same order -- but with the
temporaries eliminated: a shared hidden-width workspace for the MLP
forward, preallocated scratch for the Adam step, and ``out=`` arithmetic
everywhere an intermediate would otherwise be allocated.  Only IEEE-exact
rewrites are used (commuting a multiply, ``a - b`` for ``a + (-b)``,
``np.full`` for ``scalar * ones``), so fixed ``(seed, spec)`` guess
streams and bank checksums are unchanged from the seed-era Tensor path.

The MLP workspace is one set of hidden-width buffers per thread, shared
by every module: the elastic runtime runs shard chunks on threads sharing
one model, so two concurrent decodes must never write into the same
buffer, while one thread never runs two MLP forwards at once.  It grows
to the largest batch the thread has evaluated and its contents never
outlive a call.

See :mod:`repro.kernels.reference` for the shared kernel conventions
(argument meanings, mutation rules, ``*_train_forward`` contracts).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Tuple

import numpy as np

NAME = "numpy"

Array = np.ndarray


class _Workspace(threading.local):
    """One thread's hidden-width MLP buffers, viewed at each call's shape."""

    def __init__(self) -> None:
        # empty buffers, so a thread's first call may have zero rows
        self.size = 0
        self.buffers: Tuple[Array, ...] = (
            np.empty(0),
            np.empty(0),
            np.empty(0),
            np.empty(0, dtype=bool),
        )

    def views(self, shape: Tuple[int, ...], hidden: int) -> Tuple[Array, ...]:
        """``(h, a, c, mask)`` views of shape ``shape + (hidden,)``."""
        size = math.prod(shape) * hidden
        if size > self.size:
            self.buffers = (
                np.empty(size),
                np.empty(size),
                np.empty(size),
                np.empty(size, dtype=bool),
            )
            self.size = size
        full = shape + (hidden,)
        return tuple(buf[:size].reshape(full) for buf in self.buffers)


_WORKSPACE = _Workspace()


def mlp_forward(params: List[Array], x: Array, num_blocks: int) -> Array:
    """Residual-MLP forward on this thread's workspace; returns a fresh array."""
    h, a, c, mask = _WORKSPACE.views(x.shape[:-1], params[0].shape[1])
    np.matmul(x, params[0], out=h)
    np.add(h, params[1], out=h)
    np.greater(h, 0, out=mask)
    np.multiply(h, mask, out=h)
    i = 2
    for _ in range(num_blocks):
        w1, b1, w2, b2 = params[i : i + 4]
        i += 4
        np.matmul(h, w1, out=a)
        np.add(a, b1, out=a)
        np.greater(a, 0, out=mask)
        np.multiply(a, mask, out=a)
        np.matmul(a, w2, out=c)
        np.add(c, b2, out=c)
        np.greater(c, 0, out=mask)
        np.multiply(c, mask, out=c)
        np.add(h, c, out=h)
    out = np.matmul(h, params[i])
    np.add(out, params[i + 1], out=out)
    return out


# ----------------------------------------------------------------------
# affine coupling
# ----------------------------------------------------------------------
def coupling_forward(
    x: Array, masked: Array, inv_mask: Array, raw_scale: Array, translate: Array, clamp: float
) -> Tuple[Array, Array]:
    s = np.multiply(raw_scale, 1.0 / clamp)
    np.tanh(s, out=s)
    np.multiply(s, clamp, out=s)
    z = np.exp(s)
    np.multiply(x, z, out=z)
    np.add(z, translate, out=z)
    np.multiply(z, inv_mask, out=z)
    np.add(z, masked, out=z)
    np.multiply(s, inv_mask, out=s)
    return z, np.sum(s, axis=-1)


def coupling_inverse(
    z: Array, masked: Array, inv_mask: Array, raw_scale: Array, translate: Array, clamp: float
) -> Array:
    s = np.multiply(raw_scale, 1.0 / clamp)
    np.tanh(s, out=s)
    np.multiply(s, clamp, out=s)
    np.negative(s, out=s)
    np.exp(s, out=s)
    x = np.subtract(z, translate)
    np.multiply(x, s, out=x)
    np.multiply(x, inv_mask, out=x)
    np.add(x, masked, out=x)
    return x


def coupling_train_forward(
    x: Array, masked: Array, inv_mask: Array, raw_scale: Array, translate: Array, clamp: float
) -> Tuple[Array, Array, Array, Array]:
    th = np.multiply(raw_scale, 1.0 / clamp)
    np.tanh(th, out=th)
    s = np.multiply(th, clamp)
    exp_s = np.exp(s)
    z = np.multiply(x, exp_s)
    np.add(z, translate, out=z)
    np.multiply(z, inv_mask, out=z)
    np.add(z, masked, out=z)
    np.multiply(s, inv_mask, out=s)
    log_det = np.sum(s, axis=-1)
    np.multiply(th, th, out=th)
    np.subtract(1.0, th, out=th)
    return z, log_det, exp_s, th


def coupling_backward_z(
    gz: Array, x: Array, mask: Array, inv_mask: Array, exp_s: Array, dtanh: Array
) -> Tuple[Array, Array, Array]:
    gx = np.multiply(inv_mask, exp_s)
    np.add(gx, mask, out=gx)
    np.multiply(gx, gz, out=gx)
    gt = np.multiply(gz, inv_mask)
    graw = np.multiply(gt, x)
    np.multiply(graw, exp_s, out=graw)
    np.multiply(graw, dtanh, out=graw)
    return gx, graw, gt


def coupling_backward_log_det(gld: Array, inv_mask: Array, dtanh: Array) -> Array:
    graw = np.multiply(inv_mask, dtanh)
    np.multiply(graw, gld[:, None], out=graw)
    return graw


# ----------------------------------------------------------------------
# additive coupling
# ----------------------------------------------------------------------
def additive_forward(
    x: Array, masked: Array, inv_mask: Array, translate: Array
) -> Tuple[Array, Array]:
    z = np.add(x, translate)
    np.multiply(z, inv_mask, out=z)
    np.add(z, masked, out=z)
    return z, np.zeros(x.shape[:-1])


def additive_inverse(z: Array, masked: Array, inv_mask: Array, translate: Array) -> Array:
    x = np.subtract(z, translate)
    np.multiply(x, inv_mask, out=x)
    np.add(x, masked, out=x)
    return x


# ----------------------------------------------------------------------
# logit transform
# ----------------------------------------------------------------------
def logit_forward(x: Array, alpha: float) -> Tuple[Array, Array]:
    y, log_det, _ = logit_train_forward(x, alpha)
    return y, log_det


def logit_inverse(z: Array, alpha: float) -> Array:
    p = np.where(
        z >= 0,
        1.0 / (1.0 + np.exp(-np.clip(z, -500, 500))),
        np.exp(np.clip(z, -500, 500)) / (1.0 + np.exp(np.clip(z, -500, 500))),
    )
    np.subtract(p, alpha, out=p)
    np.multiply(p, 1.0 / (1.0 - 2.0 * alpha), out=p)
    return p


def logit_train_forward(x: Array, alpha: float) -> Tuple[Array, Array, Array]:
    p = np.multiply(x, 1.0 - 2.0 * alpha)
    np.add(p, alpha, out=p)
    lp = np.log(p)
    l1p = np.subtract(1.0, p)
    np.log(l1p, out=l1p)
    y = np.subtract(lp, l1p)
    np.subtract(np.log(1.0 - 2.0 * alpha), lp, out=lp)
    np.subtract(lp, l1p, out=lp)
    return y, np.sum(lp, axis=-1), p


def logit_backward_y(gy: Array, p: Array, alpha: float) -> Array:
    gx = np.divide(1.0, p)
    omp = np.subtract(1.0, p)
    np.divide(1.0, omp, out=omp)
    np.add(gx, omp, out=gx)
    np.multiply(gx, 1.0 - 2.0 * alpha, out=gx)
    np.multiply(gx, gy, out=gx)
    return gx


def logit_backward_log_det(gld: Array, p: Array, alpha: float) -> Array:
    gx = np.subtract(1.0, p)
    np.divide(1.0, gx, out=gx)
    omp = np.divide(1.0, p)
    np.subtract(gx, omp, out=gx)
    np.multiply(gx, 1.0 - 2.0 * alpha, out=gx)
    np.multiply(gx, gld[:, None], out=gx)
    return gx


# ----------------------------------------------------------------------
# actnorm
# ----------------------------------------------------------------------
def actnorm_forward(x: Array, bias: Array, log_scale: Array) -> Tuple[Array, Array]:
    exp_ls = np.exp(log_scale)
    z = np.subtract(x, bias)
    np.multiply(z, exp_ls, out=z)
    return z, np.full(x.shape[:-1], np.sum(log_scale))


def actnorm_inverse(z: Array, bias: Array, log_scale: Array) -> Array:
    exp_nls = np.negative(log_scale)
    np.exp(exp_nls, out=exp_nls)
    x = np.multiply(z, exp_nls)
    np.add(x, bias, out=x)
    return x


def actnorm_train_forward(
    x: Array, bias: Array, log_scale: Array
) -> Tuple[Array, Array, Array]:
    exp_ls = np.exp(log_scale)
    z = np.subtract(x, bias)
    np.multiply(z, exp_ls, out=z)
    return z, np.full(x.shape[0], np.sum(log_scale)), exp_ls


def actnorm_backward_z(gz: Array, z: Array, exp_ls: Array) -> Tuple[Array, Array, Array]:
    gx = np.multiply(gz, exp_ls)
    gbias = np.sum(gx, axis=0)
    np.negative(gbias, out=gbias)
    gls = np.multiply(gz, z)
    gls = np.sum(gls, axis=0)
    return gx, gbias, gls


# ----------------------------------------------------------------------
# Adam
# ----------------------------------------------------------------------
def adam_step(
    param: Array,
    grad: Array,
    m: Array,
    v: Array,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
    bias_c1: float,
    bias_c2: float,
    scratch: Dict,
) -> None:
    """In-place Adam update with two preallocated scratch buffers."""
    s1 = scratch.get("s1")
    if s1 is None or s1.shape != param.shape:
        s1 = scratch["s1"] = np.empty_like(param)
        scratch["s2"] = np.empty_like(param)
    s2 = scratch["s2"]
    np.multiply(m, beta1, out=m)
    np.multiply(grad, 1.0 - beta1, out=s1)
    np.add(m, s1, out=m)
    np.multiply(v, beta2, out=v)
    np.power(grad, 2, out=s1)
    np.multiply(s1, 1.0 - beta2, out=s1)
    np.add(v, s1, out=v)
    np.divide(m, bias_c1, out=s1)
    np.multiply(s1, lr, out=s1)
    np.divide(v, bias_c2, out=s2)
    np.sqrt(s2, out=s2)
    np.add(s2, eps, out=s2)
    np.divide(s1, s2, out=s1)
    np.subtract(param, s1, out=param)
