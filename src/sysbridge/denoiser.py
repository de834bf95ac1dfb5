"""Signal-prediction network and its training loop.

A small fully-connected network maps a corrupted state (plus a time
embedding) back to an estimate of the clean signal.  Gradients are
computed by hand-rolled reverse mode so that training has zero framework
dependencies and is bit-for-bit reproducible given a seed at thread count
one.  Training follows: draw a clean sample, a uniform time on the clipped
interval and a one-shot corrupted state, score the network with an L1
reconstruction loss, and update with Adam (learning rate halved at the
configured epoch milestones).
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from . import forward, tensorio
from .errors import DimensionError, NumericalError
from .linop import LinearSystem
from .schedule import ScheduleCoeffs, ScheduleSpec, evaluate

ACTIVATIONS = ("relu", "tanh", "silu")
TIME_EMBEDS = ("append_scalar", "sinusoidal")


@dataclass
class DenoiserNet:
    layer_dims: List[int]
    weights: List[np.ndarray]  # weights[l] has shape (layer_dims[l], layer_dims[l+1])
    biases: List[np.ndarray]
    activation: str = "silu"
    time_embed: str = "sinusoidal"
    time_freqs: int = 8

    @property
    def signal_dim(self) -> int:
        return self.layer_dims[-1]

    def parameters(self) -> List[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.99
    batch_size: int = 8
    n_epochs: int = 100
    seed: int = 0
    lr_milestones: Sequence[int] = (36, 60, 72, 90)

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ValueError("adam betas must lie in [0, 1)")
        if self.batch_size < 1 or self.n_epochs < 0:
            raise ValueError("batch_size >= 1 and n_epochs >= 0 required")


def time_feature_width(mode: str, k: int) -> int:
    if mode == "append_scalar":
        return 1
    if mode == "sinusoidal":
        return 2 * k
    raise ValueError(f"unknown time embedding {mode!r}")


def time_features(t: float, mode: str, k: int) -> np.ndarray:
    if mode == "append_scalar":
        return np.array([t], dtype=np.float64)
    # geometric frequency ladder: 1, 2, 4, ... cycles over the unit interval
    j = np.arange(k, dtype=np.float64)
    ang = 2.0 * np.pi * (2.0 ** j) * t
    return np.concatenate([np.sin(ang), np.cos(ang)])


def init_net(
    d: int,
    hidden: Sequence[int],
    activation: str = "silu",
    time_embed: str = "sinusoidal",
    time_freqs: int = 8,
    seed: int = 0,
) -> DenoiserNet:
    """Glorot-uniform weights, zero biases, seeded."""
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    dims = [d + time_feature_width(time_embed, time_freqs)] + list(hidden) + [d]
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return DenoiserNet(dims, weights, biases, activation, time_embed, time_freqs)


def _act(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    # z * (1 / (1 + exp(-z))) in one buffer, bit for bit
    out = np.negative(z)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    out *= z
    return out


def _act_grad(name, z):
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "tanh":
        th = np.tanh(z)
        return 1.0 - th * th
    s = 1.0 / (1.0 + np.exp(-z))
    return s * (1.0 + z * (1.0 - s))


def _input_features(net: DenoiserNet, x: np.ndarray, t: float) -> np.ndarray:
    feats = time_features(float(t), net.time_embed, net.time_freqs)
    tiled = np.broadcast_to(feats, x.shape[:-1] + feats.shape)
    return np.concatenate([x, tiled], axis=-1)


def _forward_tape(net: DenoiserNet, xin: np.ndarray):
    """Returns (output, activations list, pre-activations list)."""
    a = xin
    acts = [a]
    pres = []
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        pres.append(z)
        a = z if l == last else _act(net.activation, z)
        acts.append(a)
    return a, acts, pres


def forward_denoise(net: DenoiserNet, x, t: float) -> np.ndarray:
    """Deterministic network output; x may carry leading batch axes."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != net.signal_dim:
        raise DimensionError(
            f"forward_denoise: expected last axis {net.signal_dim}, got {x.shape}"
        )
    out, _, _ = _forward_tape(net, _input_features(net, x, t))
    return out


def l1_loss_and_grad(net: DenoiserNet, x, t: float, target):
    """Mean per-sample L1 reconstruction loss and parameter gradients.

    The L1 subgradient at exact zeros is taken to be zero.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    batch = x.shape[0]
    out, acts, pres = _forward_tape(net, _input_features(net, x, t))
    resid = out - target
    loss = float(np.mean(np.sum(np.abs(resid), axis=-1)))
    delta = np.sign(resid) / batch

    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.biases)
    last = len(net.weights) - 1
    for l in range(last, -1, -1):
        if l != last:
            delta = delta * _act_grad(net.activation, pres[l])
        grads_w[l] = acts[l].T @ delta
        grads_b[l] = delta.sum(axis=0)
        if l:
            delta = delta @ net.weights[l].T
    return loss, grads_w, grads_b


def loss_and_grad(net: DenoiserNet, sys: LinearSystem, coeffs: ScheduleCoeffs, x0, rng):
    """Draw the corrupted batch, evaluate the L1 loss and backpropagate.

    Returns (loss, grads) where grads mirrors net.parameters() order
    (w0, b0, w1, b1, ...).
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    state = forward.forward_sample(sys, coeffs, x0, rng)
    loss, grads_w, grads_b = l1_loss_and_grad(net, state.x, coeffs.t, x0)
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss at t={coeffs.t}")
    grads = []
    for gw, gb in zip(grads_w, grads_b):
        grads.append(gw)
        grads.append(gb)
    return loss, grads


@dataclass
class AdamState:
    step: int = 0
    m: List[np.ndarray] = field(default_factory=list)
    v: List[np.ndarray] = field(default_factory=list)


def adam_init(params: List[np.ndarray]) -> AdamState:
    return AdamState(
        step=0,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def adam_step(params, grads, state: AdamState, lr, beta1, beta2, eps=1e-8):
    state.step += 1
    c1 = 1.0 - beta1 ** state.step
    c2 = 1.0 - beta2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def train(
    net: DenoiserNet,
    sys: LinearSystem,
    spec: ScheduleSpec,
    dataset,
    tcfg: TrainConfig,
):
    """In-place training; returns (net, per-epoch mean losses)."""
    data = np.atleast_2d(np.asarray(dataset, dtype=np.float64))
    if data.shape[0] == 0:
        raise ValueError("dataset must be non-empty")
    rng = np.random.default_rng(tcfg.seed)
    params = net.parameters()
    adam = adam_init(params)
    lr = tcfg.lr
    losses = []
    for epoch in range(tcfg.n_epochs):
        if epoch in set(tcfg.lr_milestones):
            lr *= 0.5
        order = rng.permutation(data.shape[0])
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, data.shape[0], tcfg.batch_size):
            batch = data[order[start : start + tcfg.batch_size]]
            t = rng.uniform(spec.t_min, spec.t_max)
            coeffs = evaluate(spec, t)
            try:
                loss, grads = loss_and_grad(net, sys, coeffs, batch, rng)
            except NumericalError as exc:
                raise NumericalError(
                    f"training diverged at epoch {epoch}, batch {n_batches}: {exc}"
                ) from exc
            adam_step(params, grads, adam, lr, tcfg.adam_beta1, tcfg.adam_beta2)
            epoch_loss += loss
            n_batches += 1
        losses.append(epoch_loss / max(n_batches, 1))
    return net, losses


def as_denoiser(net: DenoiserNet):
    return lambda x, t: forward_denoise(net, x, t)


# ---------------------------------------------------------------------------
# checkpoint serialization: plain-text key=value preamble, then one binary
# tensor record per parameter array in parameters() order.

_PREAMBLE_END = b"---\n"


def schedule_hash(spec: ScheduleSpec) -> str:
    canon = (
        f"variant={spec.variant};b0={spec.b0!r};b1={spec.b1!r};"
        f"sigma_max={spec.sigma_max!r};eps1={spec.eps1!r};eps2={spec.eps2!r}"
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def save_checkpoint(path, net: DenoiserNet, spec: ScheduleSpec, extra=None):
    lines = [
        "format=sysbridge-checkpoint-v1",
        "layer_dims=" + ",".join(str(v) for v in net.layer_dims),
        f"activation={net.activation}",
        f"time_embed={net.time_embed}",
        f"time_freqs={net.time_freqs}",
        f"schedule_variant={spec.variant}",
        f"schedule_b0={spec.b0!r}",
        f"schedule_b1={spec.b1!r}",
        f"schedule_sigma_max={spec.sigma_max!r}",
        f"schedule_eps1={spec.eps1!r}",
        f"schedule_eps2={spec.eps2!r}",
        f"schedule_hash={schedule_hash(spec)}",
    ]
    for key, val in (extra or {}).items():
        lines.append(f"{key}={val}")
    lines.append(f"n_tensors={2 * len(net.weights)}")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        fh.write(_PREAMBLE_END)
        for p in net.parameters():
            tensorio.write_tensor(fh, p)


def load_checkpoint(path):
    """Returns (net, spec, header dict)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    idx = blob.find(_PREAMBLE_END)
    if idx < 0:
        raise DimensionError(f"not a checkpoint file: {path}")
    header = {}
    for line in blob[:idx].decode("utf-8").splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            header[key] = val
    spec = ScheduleSpec(
        variant=header["schedule_variant"],
        b0=float(header["schedule_b0"]),
        b1=float(header["schedule_b1"]),
        sigma_max=float(header["schedule_sigma_max"]),
        eps1=float(header["schedule_eps1"]),
        eps2=float(header["schedule_eps2"]),
    )
    n_tensors = int(header["n_tensors"])
    stream = io.BytesIO(blob[idx + len(_PREAMBLE_END) :])
    tensors = [tensorio.read_tensor(stream) for _ in range(n_tensors)]
    dims = [int(v) for v in header["layer_dims"].split(",")]
    weights = tensors[0::2]
    biases = tensors[1::2]
    net = DenoiserNet(
        layer_dims=dims,
        weights=list(weights),
        biases=list(biases),
        activation=header["activation"],
        time_embed=header["time_embed"],
        time_freqs=int(header["time_freqs"]),
    )
    return net, spec, header
