"""Shared test oracles: finite differences and a float32-aware closeness check."""

import json
import struct

import numpy as np

from nasadapt.numerics import Tensor
from nasadapt.searchspace import channel_candidates, op_candidates


def finite_difference(f, arrays, h=1e-3):
    """Central-difference gradient of scalar f() w.r.t. each array, in place.

    Each array is perturbed elementwise; f is re-evaluated through the
    engine, so the estimate carries float32 forward noise. Returns one
    float64 gradient per array.
    """
    grads = []
    for arr in arrays:
        g = np.zeros(arr.shape, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f())
            flat[i] = orig - h
            fm = float(f())
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-3, what=""):
    """Relative comparison with a unit floor, calibrated for float32 data.

    Requires |a - n| <= rtol * max(1, |a|, |n|) elementwise; the floor
    absorbs central-difference noise on near-zero entries.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    assert a.shape == n.shape, f"{what}: shape {a.shape} vs {n.shape}"
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    err = np.abs(a - n) / scale
    worst = float(err.max()) if err.size else 0.0
    assert worst <= rtol, f"{what}: max relative error {worst:.3e} > {rtol:.0e}"


def check_gradients(build_loss, params, h=1e-3, rtol=1e-3, what=""):
    """Compare engine gradients of build_loss() against finite differences.

    ``params`` are leaf Tensors with requires_grad=True whose .data the
    oracle perturbs in place.
    """
    for p in params:
        p.grad = None
    loss = build_loss()
    from nasadapt.numerics import backward

    backward(loss)
    analytic = [p.grad.copy() for p in params]
    numeric = finite_difference(lambda: build_loss().data, [p.data for p in params], h=h)
    for i, (a, n) in enumerate(zip(analytic, numeric)):
        assert_grads_close(a, n, rtol=rtol, what=f"{what} param {i}")


def zero_logits(cfg):
    """Zero alpha (per block, per layer) and beta (per block) vectors of a space."""
    alphas = [[np.zeros(len(op_candidates(s, l + 1)), dtype=np.float32)
               for l in range(s.n_max)] for s in cfg.blocks]
    betas = [np.zeros(len(channel_candidates(s)), dtype=np.float32) for s in cfg.blocks]
    return alphas, betas


def rand_tensor(rng, shape, scale=1.0, requires_grad=True):
    return Tensor(rng.standard_normal(shape).astype(np.float32) * scale,
                  requires_grad=requires_grad)


def write_raw_container(path, header, payload: bytes = b"\x00" * 16):
    """Write a one-entry container around an arbitrary JSON header."""
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(b"NAT1" + struct.pack("<I", len(raw)) + raw + payload)
