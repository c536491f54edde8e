"""Reference kernel backend: the seed-era op order, spelled in plain numpy.

Each function here is a transliteration of the :class:`Tensor` composition
it replaces -- the same floating-point operations, applied in the same
order, with the same intermediate temporaries numpy would allocate.  That
makes this backend the *semantics anchor*: ``tests/kernels/`` pins the
``numpy`` backend bit-identical to it (``np.array_equal``) and the
``numba`` backend equal to the last ulp, and pins it in turn against the
live ``Tensor`` graph, so a fixed ``(seed, spec)`` guess stream decodes to
the same passwords no matter which backend sampled it.

It is deliberately not fast -- use it for parity tests, debugging, and as
the baseline the fused backends are benchmarked against.

Shared conventions (all backends):

* arrays are float64; kernels never mutate their inputs (``adam_step``,
  which updates ``param``/``m``/``v`` in place by contract, is the one
  exception) and every returned array is fresh, owned by the caller;
* the forward kernels on the log-prob path (``mlp_forward``,
  ``coupling_forward``, ``additive_forward``, ``logit_forward``,
  ``actnorm_forward``) also take stacked ``(..., N, D)`` batches: each
  ``(N, D)`` slice comes back bitwise equal to a call on that slice
  alone, because ``np.matmul`` runs one gemm per stacked slice;
* ``mask``/``inv_mask`` are the binary coupling masks ``b`` / ``1 - b``;
  ``masked`` is the precomputed ``x * b`` (callers already need it to
  feed the conditioner networks);
* ``*_train_forward`` variants additionally return the intermediates the
  matching ``*_backward_*`` kernels consume, so one forward pass serves
  both directions of the tape.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

NAME = "reference"

Array = np.ndarray


# ----------------------------------------------------------------------
# residual MLP (Linear -> relu -> blocks of x + relu(fc2(relu(fc1 x))))
# ----------------------------------------------------------------------
def mlp_forward(params: List[Array], x: Array, num_blocks: int) -> Array:
    """Forward of :class:`~repro.nn.residual.ResidualMLP` on raw arrays.

    ``params`` is the flat weight list ``[W_in, b_in, (W1, b1, W2, b2) per
    block..., W_out, b_out]``.
    """
    h = x @ params[0] + params[1]
    h = h * (h > 0)
    i = 2
    for _ in range(num_blocks):
        w1, b1, w2, b2 = params[i : i + 4]
        i += 4
        a = h @ w1 + b1
        a = a * (a > 0)
        c = a @ w2 + b2
        c = c * (c > 0)
        h = h + c
    return h @ params[i] + params[i + 1]


def mlp_forward_pair(
    first: List[Array], second: List[Array], x: Array, num_blocks: int
) -> Tuple[Array, Array]:
    """Two networks on one input (a coupling's scale and translate nets),
    one after the other."""
    return mlp_forward(first, x, num_blocks), mlp_forward(second, x, num_blocks)


# ----------------------------------------------------------------------
# affine coupling (RealNVP Eq. 13): z = b*x + (1-b)(x e^s + t)
# ----------------------------------------------------------------------
def coupling_forward(
    x: Array, masked: Array, inv_mask: Array, raw_scale: Array, translate: Array, clamp: float
) -> Tuple[Array, Array]:
    scale = np.tanh(raw_scale * (1.0 / clamp)) * clamp
    z = masked + inv_mask * (x * np.exp(scale) + translate)
    log_det = (inv_mask * scale).sum(axis=-1)
    return z, log_det


def coupling_inverse(
    z: Array, masked: Array, inv_mask: Array, raw_scale: Array, translate: Array, clamp: float
) -> Array:
    scale = np.tanh(raw_scale * (1.0 / clamp)) * clamp
    return masked + inv_mask * ((z - translate) * np.exp(-scale))


def coupling_train_forward(
    x: Array, masked: Array, inv_mask: Array, raw_scale: Array, translate: Array, clamp: float
) -> Tuple[Array, Array, Array, Array]:
    """Forward plus the backward intermediates ``exp(s)`` and ``1 - tanh^2``."""
    th = np.tanh(raw_scale * (1.0 / clamp))
    scale = th * clamp
    exp_s = np.exp(scale)
    z = masked + inv_mask * (x * exp_s + translate)
    log_det = (inv_mask * scale).sum(axis=-1)
    dtanh = 1.0 - th * th
    return z, log_det, exp_s, dtanh


def coupling_backward_z(
    gz: Array, x: Array, mask: Array, inv_mask: Array, exp_s: Array, dtanh: Array
) -> Tuple[Array, Array, Array]:
    """Adjoints of ``z`` w.r.t. ``x``, ``raw_scale``, ``translate``."""
    gx = (inv_mask * exp_s + mask) * gz
    gt = gz * inv_mask
    graw = gt * x
    graw = graw * exp_s
    graw = graw * dtanh
    return gx, graw, gt


def coupling_backward_log_det(gld: Array, inv_mask: Array, dtanh: Array) -> Array:
    """Adjoint of ``log_det = sum((1-b) * s)`` w.r.t. ``raw_scale``."""
    graw = inv_mask * dtanh
    graw = graw * gld[:, None]
    return graw


# ----------------------------------------------------------------------
# additive coupling (NICE): z = b*x + (1-b)(x + t), log|det J| = 0
# ----------------------------------------------------------------------
def additive_forward(
    x: Array, masked: Array, inv_mask: Array, translate: Array
) -> Tuple[Array, Array]:
    z = masked + inv_mask * (x + translate)
    return z, np.zeros(x.shape[:-1])


def additive_inverse(z: Array, masked: Array, inv_mask: Array, translate: Array) -> Array:
    return masked + inv_mask * (z - translate)


# ----------------------------------------------------------------------
# logit transform: y = logit(a + (1-2a) x)
# ----------------------------------------------------------------------
def logit_forward(x: Array, alpha: float) -> Tuple[Array, Array]:
    p = x * (1.0 - 2.0 * alpha) + alpha
    lp = np.log(p)
    l1p = np.log(1.0 - p)
    y = lp - l1p
    log_det = (np.log(1.0 - 2.0 * alpha) - lp - l1p).sum(axis=-1)
    return y, log_det


def logit_inverse(z: Array, alpha: float) -> Array:
    # the numerically stable logistic, exactly as Tensor.sigmoid computes it
    p = np.where(
        z >= 0,
        1.0 / (1.0 + np.exp(-np.clip(z, -500, 500))),
        np.exp(np.clip(z, -500, 500)) / (1.0 + np.exp(np.clip(z, -500, 500))),
    )
    return (p - alpha) * (1.0 / (1.0 - 2.0 * alpha))


def logit_train_forward(x: Array, alpha: float) -> Tuple[Array, Array, Array]:
    p = x * (1.0 - 2.0 * alpha) + alpha
    lp = np.log(p)
    l1p = np.log(1.0 - p)
    y = lp - l1p
    log_det = (np.log(1.0 - 2.0 * alpha) - lp - l1p).sum(axis=-1)
    return y, log_det, p


def logit_backward_y(gy: Array, p: Array, alpha: float) -> Array:
    gx = 1.0 / p + 1.0 / (1.0 - p)
    gx = gx * (1.0 - 2.0 * alpha)
    gx = gx * gy
    return gx


def logit_backward_log_det(gld: Array, p: Array, alpha: float) -> Array:
    gx = 1.0 / (1.0 - p) - 1.0 / p
    gx = gx * (1.0 - 2.0 * alpha)
    gx = gx * gld[:, None]
    return gx


# ----------------------------------------------------------------------
# actnorm: z = (x - bias) * exp(log_scale)
# ----------------------------------------------------------------------
def actnorm_forward(x: Array, bias: Array, log_scale: Array) -> Tuple[Array, Array]:
    z = (x - bias) * np.exp(log_scale)
    log_det = np.sum(log_scale) * np.ones(x.shape[:-1])
    return z, log_det


def actnorm_inverse(z: Array, bias: Array, log_scale: Array) -> Array:
    return z * np.exp(-log_scale) + bias


def actnorm_train_forward(
    x: Array, bias: Array, log_scale: Array
) -> Tuple[Array, Array, Array]:
    exp_ls = np.exp(log_scale)
    z = (x - bias) * exp_ls
    log_det = np.sum(log_scale) * np.ones(x.shape[0])
    return z, log_det, exp_ls


def actnorm_backward_z(gz: Array, z: Array, exp_ls: Array) -> Tuple[Array, Array, Array]:
    """Adjoints of ``z`` w.r.t. ``x``, ``bias``, ``log_scale``."""
    gx = gz * exp_ls
    gbias = np.sum(gx, axis=0)
    gbias = -gbias
    gls = np.sum(gz * z, axis=0)
    return gx, gbias, gls


# ----------------------------------------------------------------------
# Adam (Kingma & Ba) with bias correction, exactly the seed update order
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
    """One in-place Adam update; ``bias_c*`` are ``1 - beta*^t``."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad**2
    m_hat = m / bias_c1
    v_hat = v / bias_c2
    param -= lr * m_hat / (np.sqrt(v_hat) + eps)
