"""Reference recurrent kernels: the test oracle of the fused kernels.

The fused LSTM/GRU/SimpleRNN kernels (:mod:`repro.nn.fused`) are held to
this module's arithmetic: one small GEMM/elementwise expression per
quantity per timestep, written for auditability. Forward must match it
bit for bit; backward gradients to ``1e-12`` max-abs-diff
(tests/test_fused_differential.py). The oracle counts its GEMMs under
``nn/gemms``.

* :func:`reference_forward` / :func:`reference_backward` run one layer
  through the oracle. The forward leaves a ``"ref"``-tagged cache on the
  layer, which only :func:`reference_backward` consumes.
* :func:`reference_kernels` swaps the recurrent layer classes'
  ``forward``/``backward`` for the oracle for the duration of a block,
  so whole networks run on it. It patches the classes, so it is
  process-wide: only for single-threaded tests. :func:`kernels` picks
  between it and the layers' own fused kernels by flag.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import numpy as np

from repro import obs
from repro.nn.activations import dsigmoid_from_y, dtanh_from_y, sigmoid
from repro.nn.detmath import recurrent_matmul
from repro.nn.layers import GRULayer, LSTMLayer, SimpleRNNLayer

__all__ = ["kernels", "reference_backward", "reference_forward",
           "reference_kernels"]


def _lstm_forward(layer, x: np.ndarray) -> np.ndarray:
    batch, steps, _ = x.shape
    h = layer.units
    wx, wh, b = layer.params["Wx"], layer.params["Wh"], layer.params["b"]

    hs = np.zeros((steps, batch, h))
    cs = np.zeros((steps, batch, h))
    gates = np.zeros((steps, batch, 4 * h))
    tanh_c = np.zeros((steps, batch, h))

    # Hoist the input projection out of the loop (one big GEMM).
    x_proj = x @ wx + b  # (B, T, 4H)
    # One input-projection GEMM + one recurrent GEMM per step.
    obs.counter_add("nn/gemms", 1 + steps)
    h_prev = np.zeros((batch, h))
    c_prev = np.zeros((batch, h))
    for t in range(steps):
        z = x_proj[:, t, :] + recurrent_matmul(h_prev, wh)
        i = sigmoid(z[:, :h])
        f = sigmoid(z[:, h:2 * h])
        g = np.tanh(z[:, 2 * h:3 * h])
        o = sigmoid(z[:, 3 * h:])
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h_t = o * tc
        gates[t, :, :h] = i
        gates[t, :, h:2 * h] = f
        gates[t, :, 2 * h:3 * h] = g
        gates[t, :, 3 * h:] = o
        cs[t] = c
        tanh_c[t] = tc
        hs[t] = h_t
        h_prev, c_prev = h_t, c
    layer._cache = ("ref", x, hs, cs, gates, tanh_c)
    return np.ascontiguousarray(hs.transpose(1, 0, 2))

def _lstm_backward(layer, cache, grad_output: np.ndarray
                   ) -> list[np.ndarray]:
    _, x, hs, cs, gates, tanh_c = cache
    batch, steps, in_dim = x.shape
    h = layer.units
    wx, wh = layer.params["Wx"], layer.params["Wh"]

    grad_out = grad_output.transpose(1, 0, 2)  # (T, B, H)
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros_like(layer.params["b"])
    dx = np.zeros_like(x)

    dh_next = np.zeros((batch, h))
    dc_next = np.zeros((batch, h))
    for t in range(steps - 1, -1, -1):
        i = gates[t, :, :h]
        f = gates[t, :, h:2 * h]
        g = gates[t, :, 2 * h:3 * h]
        o = gates[t, :, 3 * h:]
        tc = tanh_c[t]
        c_prev = cs[t - 1] if t > 0 else np.zeros((batch, h))
        h_prev = hs[t - 1] if t > 0 else np.zeros((batch, h))

        dh = grad_out[t] + dh_next
        dc = dc_next + dh * o * dtanh_from_y(tc)

        dz = np.empty((batch, 4 * h))
        dz[:, :h] = dc * g * dsigmoid_from_y(i)            # d z_i
        dz[:, h:2 * h] = dc * c_prev * dsigmoid_from_y(f)  # d z_f
        dz[:, 2 * h:3 * h] = dc * i * dtanh_from_y(g)      # d z_g
        dz[:, 3 * h:] = dh * tc * dsigmoid_from_y(o)       # d z_o

        dwx += x[:, t, :].T @ dz
        dwh += h_prev.T @ dz
        db += dz.sum(axis=0)
        dx[:, t, :] = dz @ wx.T
        dh_next = dz @ wh.T
        dc_next = dc * f

    layer.grads["Wx"] += dwx
    layer.grads["Wh"] += dwh
    layer.grads["b"] += db
    return [dx]


def _gru_forward(layer, x: np.ndarray) -> np.ndarray:
    batch, steps, _ = x.shape
    h = layer.units
    wx, wh, b = layer.params["Wx"], layer.params["Wh"], layer.params["b"]

    hs = np.zeros((steps, batch, h))
    gates = np.zeros((steps, batch, 3 * h))
    x_proj = x @ wx + b
    # One input-projection GEMM + two recurrent GEMMs per step.
    obs.counter_add("nn/gemms", 1 + 2 * steps)
    h_prev = np.zeros((batch, h))
    for t in range(steps):
        rec = recurrent_matmul(h_prev, wh)      # (B, 3H)
        z = sigmoid(x_proj[:, t, :h] + rec[:, :h])
        r = sigmoid(x_proj[:, t, h:2 * h] + rec[:, h:2 * h])
        g = np.tanh(x_proj[:, t, 2 * h:]
                    + recurrent_matmul(r * h_prev, wh[:, 2 * h:]))
        h_t = z * h_prev + (1.0 - z) * g
        gates[t, :, :h] = z
        gates[t, :, h:2 * h] = r
        gates[t, :, 2 * h:] = g
        hs[t] = h_t
        h_prev = h_t
    layer._cache = ("ref", x, hs, gates)
    return np.ascontiguousarray(hs.transpose(1, 0, 2))

def _gru_backward(layer, cache, grad_output: np.ndarray
                  ) -> list[np.ndarray]:
    _, x, hs, gates = cache
    batch, steps, in_dim = x.shape
    h = layer.units
    wx, wh = layer.params["Wx"], layer.params["Wh"]

    grad_out = grad_output.transpose(1, 0, 2)
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros_like(layer.params["b"])
    dx = np.zeros_like(x)
    dh_next = np.zeros((batch, h))

    for t in range(steps - 1, -1, -1):
        z = gates[t, :, :h]
        r = gates[t, :, h:2 * h]
        g = gates[t, :, 2 * h:]
        h_prev = hs[t - 1] if t > 0 else np.zeros((batch, h))

        dh = grad_out[t] + dh_next
        dz = dh * (h_prev - g)
        dg = dh * (1.0 - z)
        dh_prev = dh * z

        dz_pre = dz * dsigmoid_from_y(z)
        dg_pre = dg * dtanh_from_y(g)
        # g's recurrent branch: (r * h_prev) @ Ug
        d_rh = dg_pre @ wh[:, 2 * h:].T
        dr = d_rh * h_prev
        dh_prev = dh_prev + d_rh * r
        dr_pre = dr * dsigmoid_from_y(r)

        dz_r = np.concatenate([dz_pre, dr_pre], axis=1)  # (B, 2H)
        dh_prev = dh_prev + dz_r @ wh[:, :2 * h].T

        dpre = np.concatenate([dz_r, dg_pre], axis=1)    # (B, 3H)
        dwx += x[:, t, :].T @ dpre
        db += dpre.sum(axis=0)
        dx[:, t, :] = dpre @ wx.T
        # Recurrent weight grads: z/r branches read h_prev; the
        # candidate branch reads r * h_prev (h_prev is zero at t=0).
        dwh[:, :2 * h] += h_prev.T @ dz_r
        dwh[:, 2 * h:] += (r * h_prev).T @ dg_pre
        dh_next = dh_prev

    layer.grads["Wx"] += dwx
    layer.grads["Wh"] += dwh
    layer.grads["b"] += db
    return [dx]


def _rnn_forward(layer, x: np.ndarray) -> np.ndarray:
    batch, steps, _ = x.shape
    wx, wh, b = layer.params["Wx"], layer.params["Wh"], layer.params["b"]
    hs = np.zeros((steps, batch, layer.units))
    x_proj = x @ wx + b
    # One input-projection GEMM + one recurrent GEMM per step.
    obs.counter_add("nn/gemms", 1 + steps)
    h_prev = np.zeros((batch, layer.units))
    for t in range(steps):
        h_prev = np.tanh(x_proj[:, t, :] + recurrent_matmul(h_prev, wh))
        hs[t] = h_prev
    layer._cache = ("ref", x, hs)
    return np.ascontiguousarray(hs.transpose(1, 0, 2))

def _rnn_backward(layer, cache, grad_output: np.ndarray
                  ) -> list[np.ndarray]:
    _, x, hs = cache
    batch, steps, _ = x.shape
    wx, wh = layer.params["Wx"], layer.params["Wh"]
    grad_out = grad_output.transpose(1, 0, 2)
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros_like(layer.params["b"])
    dx = np.zeros_like(x)
    dh_next = np.zeros((batch, layer.units))
    for t in range(steps - 1, -1, -1):
        h_prev = hs[t - 1] if t > 0 else np.zeros((batch, layer.units))
        dpre = (grad_out[t] + dh_next) * dtanh_from_y(hs[t])
        dwx += x[:, t, :].T @ dpre
        dwh += h_prev.T @ dpre
        db += dpre.sum(axis=0)
        dx[:, t, :] = dpre @ wx.T
        dh_next = dpre @ wh.T
    layer.grads["Wx"] += dwx
    layer.grads["Wh"] += dwh
    layer.grads["b"] += db
    return [dx]


_KERNELS = {
    LSTMLayer: (_lstm_forward, _lstm_backward),
    GRULayer: (_gru_forward, _gru_backward),
    SimpleRNNLayer: (_rnn_forward, _rnn_backward),
}


def reference_forward(layer, x: np.ndarray) -> np.ndarray:
    """Oracle forward of one recurrent layer on ``x`` ``(B, T, F)``."""
    forward, _ = _KERNELS[type(layer)]
    return forward(layer, x)


def reference_backward(layer, grad_output: np.ndarray) -> list[np.ndarray]:
    """Oracle backward; must follow :func:`reference_forward`."""
    cache = layer._cache
    if cache is None:
        raise RuntimeError("backward called before forward")
    if cache[0] != "ref":
        raise RuntimeError("layer cache was not filled by the oracle")
    layer._cache = None
    _, backward = _KERNELS[type(layer)]
    return backward(layer, cache, grad_output)


def _oracle_forward(self, inputs, training: bool = False) -> np.ndarray:
    return reference_forward(self, self._check_single_input(inputs))


@contextmanager
def reference_kernels():
    """Run every recurrent layer on the oracle inside the block."""
    saved = {cls: (cls.forward, cls.backward) for cls in _KERNELS}
    try:
        for cls in _KERNELS:
            cls.forward = _oracle_forward
            cls.backward = reference_backward
        yield
    finally:
        for cls, (forward, backward) in saved.items():
            cls.forward = forward
            cls.backward = backward


def kernels(fused: bool):
    """The layers' own fused kernels (``True``) or the oracle."""
    return nullcontext() if fused else reference_kernels()
