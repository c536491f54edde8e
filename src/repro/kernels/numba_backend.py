"""Numba kernel backend: ``@njit``-compiled loops for the sampling paths.

Optional -- importing this module raises :class:`ImportError` when numba
is not installed, and the registry (``repro.kernels``) turns that into a
one-line error / the ``auto`` fallback to the fused numpy backend.

What is compiled here: the inference hot path (residual-MLP forward for
the paper's 2-block shape, coupling forward/inverse, additive coupling,
logit, actnorm, and the Adam step) -- the loops a live attack or a
``bank build`` spends its time in.  The training-tape kernels
(``*_train_forward`` / ``*_backward_*``) delegate to the fused numpy
backend: training under numba is therefore bit-identical to the numpy
backend, and only sampling/log-prob differ -- and those only at the last
ulp, because libm's ``exp``/``tanh``/``log`` may round differently than
numpy's SIMD loops and log-det sums accumulate sequentially instead of
pairwise.  Decoded guess streams quantize features into alphabet bins,
which absorbs ulp noise, so streams and bank artifacts match the numpy
backend exactly; the parity suite pins both claims.

``fastmath`` stays off everywhere: reassociation would break the
ulp-level contract for no measurable win on these loops.

Stacked ``(..., N, D)`` inputs on the log-prob path run through the same
compiled 2-D loops, so each slice keeps the bits a 2-D call on it alone
returns: the row-wise kernels see the leading axes flattened into rows
(no row's result depends on the others), and ``_mlp2`` runs once per
``(N, D)`` slice so every gemm keeps its 2-D shape.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
from numba import njit

from repro.kernels import numpy_backend as _np_backend
from repro.kernels.numpy_backend import (  # noqa: F401  (re-exported API)
    actnorm_backward_z,
    actnorm_train_forward,
    coupling_backward_log_det,
    coupling_backward_z,
    coupling_train_forward,
    logit_backward_log_det,
    logit_backward_y,
    logit_train_forward,
)

NAME = "numba"

Array = np.ndarray


@njit(cache=True)
def _mlp2(x, wi, bi, w1a, b1a, w2a, b2a, w1b, b1b, w2b, b2b, wo, bo):
    h = np.dot(x, wi)
    n, width = h.shape
    for i in range(n):
        for j in range(width):
            value = h[i, j] + bi[j]
            h[i, j] = value if value > 0.0 else 0.0
    a = np.dot(h, w1a)
    for i in range(n):
        for j in range(width):
            value = a[i, j] + b1a[j]
            a[i, j] = value if value > 0.0 else 0.0
    c = np.dot(a, w2a)
    for i in range(n):
        for j in range(width):
            value = c[i, j] + b2a[j]
            if value > 0.0:
                h[i, j] += value
    a = np.dot(h, w1b)
    for i in range(n):
        for j in range(width):
            value = a[i, j] + b1b[j]
            a[i, j] = value if value > 0.0 else 0.0
    c = np.dot(a, w2b)
    for i in range(n):
        for j in range(width):
            value = c[i, j] + b2b[j]
            if value > 0.0:
                h[i, j] += value
    out = np.dot(h, wo)
    for i in range(n):
        for j in range(out.shape[1]):
            out[i, j] += bo[j]
    return out


def _rows(a: Array) -> Array:
    """``a`` with its leading axes flattened: the 2-D row-loop view."""
    return a.reshape(-1, a.shape[-1])


def mlp_forward(params: List[Array], x: Array, num_blocks: int) -> Array:
    if num_blocks != 2:  # only the paper's shape is specialized
        return _np_backend.mlp_forward(params, x, num_blocks)
    if x.ndim == 2:
        return _mlp2(np.ascontiguousarray(x), *params)
    slices = x.reshape((-1,) + x.shape[-2:])
    out = np.stack([_mlp2(np.ascontiguousarray(s), *params) for s in slices])
    return out.reshape(x.shape[:-1] + out.shape[-1:])


def mlp_forward_pair(
    first: List[Array], second: List[Array], x: Array, num_blocks: int
) -> Tuple[Array, Array]:
    # sequential: the compiled loops hold the GIL, so a second thread
    # would only wait for it
    return mlp_forward(first, x, num_blocks), mlp_forward(second, x, num_blocks)


@njit(cache=True)
def _coupling_forward(x, inv_mask, raw_scale, translate, clamp):
    n, d = x.shape
    z = np.empty((n, d))
    log_det = np.empty(n)
    inv_clamp = 1.0 / clamp
    for i in range(n):
        acc = 0.0
        for j in range(d):
            if inv_mask[j] == 0.0:
                z[i, j] = x[i, j]
            else:
                s = np.tanh(raw_scale[i, j] * inv_clamp) * clamp
                z[i, j] = x[i, j] * np.exp(s) + translate[i, j]
                acc += s
        log_det[i] = acc
    return z, log_det


def coupling_forward(
    x: Array, masked: Array, inv_mask: Array, raw_scale: Array, translate: Array, clamp: float
) -> Tuple[Array, Array]:
    z, log_det = _coupling_forward(
        _rows(x), inv_mask, _rows(raw_scale), _rows(translate), clamp
    )
    return z.reshape(x.shape), log_det.reshape(x.shape[:-1])


@njit(cache=True)
def _coupling_inverse(z, inv_mask, raw_scale, translate, clamp):
    n, d = z.shape
    x = np.empty((n, d))
    inv_clamp = 1.0 / clamp
    for i in range(n):
        for j in range(d):
            if inv_mask[j] == 0.0:
                x[i, j] = z[i, j]
            else:
                s = np.tanh(raw_scale[i, j] * inv_clamp) * clamp
                x[i, j] = (z[i, j] - translate[i, j]) * np.exp(-s)
    return x


def coupling_inverse(
    z: Array, masked: Array, inv_mask: Array, raw_scale: Array, translate: Array, clamp: float
) -> Array:
    return _coupling_inverse(z, inv_mask, raw_scale, translate, clamp)


@njit(cache=True)
def _additive_forward(x, inv_mask, translate):
    n, d = x.shape
    z = np.empty((n, d))
    for i in range(n):
        for j in range(d):
            if inv_mask[j] == 0.0:
                z[i, j] = x[i, j]
            else:
                z[i, j] = x[i, j] + translate[i, j]
    return z


def additive_forward(
    x: Array, masked: Array, inv_mask: Array, translate: Array
) -> Tuple[Array, Array]:
    z = _additive_forward(_rows(x), inv_mask, _rows(translate))
    return z.reshape(x.shape), np.zeros(x.shape[:-1])


@njit(cache=True)
def _additive_inverse(z, inv_mask, translate):
    n, d = z.shape
    x = np.empty((n, d))
    for i in range(n):
        for j in range(d):
            if inv_mask[j] == 0.0:
                x[i, j] = z[i, j]
            else:
                x[i, j] = z[i, j] - translate[i, j]
    return x


def additive_inverse(z: Array, masked: Array, inv_mask: Array, translate: Array) -> Array:
    return _additive_inverse(z, inv_mask, translate)


@njit(cache=True)
def _logit_forward(x, alpha):
    n, d = x.shape
    y = np.empty((n, d))
    log_det = np.empty(n)
    k = 1.0 - 2.0 * alpha
    log_k = np.log(k)
    for i in range(n):
        acc = 0.0
        for j in range(d):
            p = x[i, j] * k + alpha
            lp = np.log(p)
            l1p = np.log(1.0 - p)
            y[i, j] = lp - l1p
            acc += log_k - lp - l1p
        log_det[i] = acc
    return y, log_det


def logit_forward(x: Array, alpha: float) -> Tuple[Array, Array]:
    y, log_det = _logit_forward(_rows(x), alpha)
    return y.reshape(x.shape), log_det.reshape(x.shape[:-1])


@njit(cache=True)
def _logit_inverse(z, alpha):
    n, d = z.shape
    x = np.empty((n, d))
    inv_k = 1.0 / (1.0 - 2.0 * alpha)
    for i in range(n):
        for j in range(d):
            value = z[i, j]
            clipped = min(max(value, -500.0), 500.0)
            if value >= 0.0:
                p = 1.0 / (1.0 + np.exp(-clipped))
            else:
                e = np.exp(clipped)
                p = e / (1.0 + e)
            x[i, j] = (p - alpha) * inv_k
    return x


def logit_inverse(z: Array, alpha: float) -> Array:
    return _logit_inverse(z, alpha)


@njit(cache=True)
def _actnorm_forward(x, bias, log_scale):
    n, d = x.shape
    z = np.empty((n, d))
    total = 0.0
    for j in range(d):
        total += log_scale[j]
    for i in range(n):
        for j in range(d):
            z[i, j] = (x[i, j] - bias[j]) * np.exp(log_scale[j])
    log_det = np.full(n, total)
    return z, log_det


def actnorm_forward(x: Array, bias: Array, log_scale: Array) -> Tuple[Array, Array]:
    z, log_det = _actnorm_forward(_rows(x), bias, log_scale)
    return z.reshape(x.shape), log_det.reshape(x.shape[:-1])


@njit(cache=True)
def _actnorm_inverse(z, bias, log_scale):
    n, d = z.shape
    x = np.empty((n, d))
    for i in range(n):
        for j in range(d):
            x[i, j] = z[i, j] * np.exp(-log_scale[j]) + bias[j]
    return x


def actnorm_inverse(z: Array, bias: Array, log_scale: Array) -> Array:
    return _actnorm_inverse(z, bias, log_scale)


@njit(cache=True)
def _adam_step(param, grad, m, v, lr, beta1, beta2, eps, bias_c1, bias_c2):
    for i in range(param.size):
        m[i] = m[i] * beta1 + (1.0 - beta1) * grad[i]
        v[i] = v[i] * beta2 + (1.0 - beta2) * (grad[i] * grad[i])
        m_hat = m[i] / bias_c1
        v_hat = v[i] / bias_c2
        param[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)


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
    _adam_step(
        param.reshape(-1),
        np.ascontiguousarray(grad).reshape(-1),
        m.reshape(-1),
        v.reshape(-1),
        lr,
        beta1,
        beta2,
        eps,
        bias_c1,
        bias_c2,
    )
