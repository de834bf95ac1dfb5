"""Signal-prediction network and its training loop.

A small fully-connected network maps a corrupted state (plus a fixed
sinusoidal time embedding) back to an estimate of the clean signal.
Gradients are computed by hand-rolled reverse mode so that training has
zero framework dependencies and is bit-for-bit reproducible given a seed
at thread count one.  Training follows: draw a clean sample, a uniform time on the clipped
interval and a one-shot corrupted state, score the network with an L1
reconstruction loss, and update with Adam (learning rate halved at the
configured epoch milestones).

Flat layout: every weight and bias of a `DenoiserNet` is a view into one
contiguous float64 vector, ``net.flat``, in `parameters()` order (w0, b0,
w1, b1, ...; each array row-major), which the net allocates, zero and on
a 64-byte boundary, from its ``layer_dims``; `init_net` and
`load_checkpoint` then write parameters in place through the views
(``net.weights[0][:] = ...``).
`train` keeps one gradient vector of the same layout, into whose views the
backward pass writes, and runs Adam in place on whole vectors: parameters
and first and second moments, with the gradient vector and one scratch
vector as work space.

Byte identity: every elementwise op keeps the operands and the evaluation
order of the textbook formulas (``z = a @ w + b``, ``(1 - b1) g``,
``lr (m / c1) / (sqrt(v / c2) + eps)``, ...), only written into existing
buffers, and elementwise results do not depend on how arrays are grouped.
So the losses, trained parameters and checkpoints are the same bytes as
with one temporary per op and one Adam update per array.  The backward pass
reads what the training forward kept, and calls no exp or tanh: relu's and
tanh's activation a (``a > 0``, which is ``z > 0``; ``1 - a a``), and SiLU's
z and sigmoid s (``s (1 + z (1 - s))``).  Inference keeps no tape.
Checkpoints keep one tensor record per parameter array.
"""

from __future__ import annotations

import hashlib
import typing
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from . import forward, linop, tensorio
from .errors import DimensionError, NumericalError, check_finite
from .linop import LinearSystem
from .schedule import ScheduleCoeffs, ScheduleSpec, evaluate

ACTIVATIONS = ("relu", "tanh", "silu")
# the time embedding: sin and cos of 2 pi 2^j t for j < TIME_FREQS, so a
# net's input is the signal and 2 * TIME_FREQS = 16 time features
TIME_FREQS = 8
# 2 pi 2^j: a geometric ladder of 1, 2, 4, ... cycles over the unit interval
_ANGULAR = 2.0 * np.pi * (2.0 ** np.arange(TIME_FREQS, dtype=np.float64))


def _param_shapes(layer_dims) -> List[tuple]:
    """Shapes of the parameter arrays in parameters() order."""
    shapes = []
    for n_in, n_out in zip(layer_dims[:-1], layer_dims[1:]):
        shapes += [(n_in, n_out), (n_out,)]
    return shapes


def param_views(flat: np.ndarray, layer_dims) -> List[np.ndarray]:
    """Lay a vector out as a net's parameters: views in parameters() order."""
    views, offset = [], 0
    for shape in _param_shapes(layer_dims):
        size = int(np.prod(shape))
        views.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return views


def _aligned_zeros(shape) -> np.ndarray:
    """A new zero float64 array whose data starts on a 64-byte boundary.

    Where the allocator happened to put a vector otherwise decided the
    speed of the loops over it: a 272-256-256 forward pass took 21 us on
    aligned weights and 31 us on unaligned ones, and a `train` call 85-88 ms
    with aligned and 92-98 ms with unaligned weights (1 BLAS thread).  The
    bytes are the same either way."""
    size = int(np.prod(shape))
    padded = np.zeros(size + 7)
    start = (-padded.ctypes.data % 64) // 8
    return padded[start : start + size].reshape(shape)


@dataclass
class DenoiserNet:
    """Fully-connected net; weights[l] has shape (layer_dims[l], layer_dims[l+1]).

    Construction allocates the parameter vector ``flat``, zero and 64-byte
    aligned; weights and biases are views into it.
    """

    layer_dims: List[int]
    activation: str = "silu"
    weights: List[np.ndarray] = field(init=False)
    biases: List[np.ndarray] = field(init=False)
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        dims = [int(v) for v in self.layer_dims]
        if len(dims) < 2 or min(dims) < 1:
            raise DimensionError(f"layer_dims must list at least two positive widths, got {dims}")
        if dims[0] != dims[-1] + 2 * TIME_FREQS:
            raise DimensionError(
                f"layer_dims {dims}: input width must be the signal width {dims[-1]} "
                f"plus {2 * TIME_FREQS} time features"
            )
        self.layer_dims = dims
        self.flat = _aligned_zeros(sum(int(np.prod(shape)) for shape in _param_shapes(dims)))
        params = param_views(self.flat, dims)
        self.weights = params[0::2]
        self.biases = params[1::2]

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
    """Optimizer settings for `train`, and the architecture that `init_net`
    builds from ``hidden`` and ``activation``."""

    lr: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.99
    batch_size: int = 8
    n_epochs: int = 100
    seed: int = 0
    lr_milestones: Tuple[int, ...] = (36, 60, 72, 90)
    hidden: Tuple[int, ...] = (64, 64)
    activation: str = "silu"

    def __post_init__(self):
        check_finite(self)
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ValueError("adam betas must lie in [0, 1)")
        if self.batch_size < 1 or self.n_epochs < 0:
            raise ValueError("batch_size >= 1 and n_epochs >= 0 required")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}")


def time_features(t: float) -> np.ndarray:
    """[sin(2 pi 2^j t), cos(2 pi 2^j t)] for j < TIME_FREQS, in one vector."""
    ang = _ANGULAR * t
    feats = np.empty(2 * TIME_FREQS)
    np.sin(ang, out=feats[:TIME_FREQS])
    np.cos(ang, out=feats[TIME_FREQS:])
    return feats


def init_net(d: int, hidden: Sequence[int], activation: str = "silu", seed: int = 0) -> DenoiserNet:
    """Glorot-uniform weights, zero biases, seeded."""
    net = DenoiserNet([d + 2 * TIME_FREQS, *hidden, d], activation)
    rng = np.random.default_rng(seed)
    for w in net.weights:
        bound = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return net


def _act(name, z, keep=False):
    """(act(z), what `_act_grad` reads besides it), bit for bit the textbook formula.

    ReLU and tanh write act(z) over z.  SiLU puts its sigmoid s = 1 / (1 +
    exp(-z)) in a new buffer and then s * z over s, or, to ``keep`` (z, s)
    for the derivative, into one more buffer.
    """
    if name == "relu":
        return np.maximum(z, 0.0, out=z), None
    if name == "tanh":
        return np.tanh(z, out=z), None
    s = np.negative(z)
    np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    if keep:
        return s * z, (z, s)
    s *= z
    return s, None


def _act_grad(name, a, saved):
    """act'(z), bit for bit the textbook formula, written over the activation a.

    Reads a for relu (``a > 0`` as 0.0 / 1.0) and tanh (``1 - a * a``), and
    SiLU's saved (z, s) (``s * (1 + z * (1 - s))``).
    """
    if name == "relu":
        return np.greater(a, 0.0, out=a)
    if name == "tanh":
        a *= a
        return np.subtract(1.0, a, out=a)
    z, s = saved
    np.subtract(1.0, s, out=a)
    a *= z
    a += 1.0
    a *= s
    return a


@lru_cache(maxsize=4096)
def _grid_time_features(t: float) -> np.ndarray:
    """`time_features`, read-only and cached: a sampler asks for the same
    grid times on every pass.  Training draws its times at random and
    computes them directly instead, so as not to evict these."""
    feats = time_features(t)
    feats.flags.writeable = False
    return feats


def _input_features(x: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """[x, feats] along the last axis, in one buffer."""
    d = x.shape[-1]
    xin = np.empty(x.shape[:-1] + (d + feats.size,))
    xin[..., :d] = x
    xin[..., d:] = feats
    return xin


def _forward(net: DenoiserNet, a: np.ndarray, tape=None) -> np.ndarray:
    """The net's output for the input features a.  Training passes a list
    ``tape``, to which each layer appends (its input, what `_act` saved for
    `_act_grad`); inference keeps no layer's values."""
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w
        z += b
        out, saved = (z, None) if l == last else _act(net.activation, z, tape is not None)
        if tape is not None:
            tape.append((a, saved))
        a = out
    return a


def forward_denoise(net: DenoiserNet, x, t: float) -> np.ndarray:
    """Deterministic network output; x may carry leading batch axes."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != net.signal_dim:
        raise DimensionError(
            f"forward_denoise: expected last axis {net.signal_dim}, got {x.shape}"
        )
    feats = _grid_time_features(float(t))
    return _forward(net, _input_features(x, feats))


def l1_loss_and_grad(net: DenoiserNet, x, t: float, target, grads) -> float:
    """Mean per-sample L1 reconstruction loss; writes the parameter gradients.

    ``grads`` are arrays in parameters() order (w0, b0, w1, b1, ...), for
    example `param_views` of one gradient vector; each is overwritten.  The
    L1 subgradient at exact zeros is taken to be zero.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    batch = x.shape[0]
    feats = time_features(float(t))
    tape = []
    out = _forward(net, _input_features(x, feats), tape)
    resid = np.subtract(out, target, out=out)
    # np.mean's reduction, without its wrapper
    loss = float(np.sum(np.abs(resid), axis=-1).sum() / batch)
    delta = np.sign(resid, out=resid)
    delta /= batch

    # layer l's activation derivative overwrites its output, the input of
    # layer l + 1, whose last reader was the weight gradient of layer l + 1
    last = len(net.weights) - 1
    for l in range(last, -1, -1):
        a, saved = tape[l]
        if l != last:
            delta *= _act_grad(net.activation, tape[l + 1][0], saved)
        np.matmul(a.T, delta, out=grads[2 * l])
        delta.sum(axis=0, out=grads[2 * l + 1])
        if l:
            delta = delta @ net.weights[l].T
    return loss


def loss_and_grad(
    net: DenoiserNet, sys: LinearSystem, coeffs: ScheduleCoeffs, x0, rng, grads=None
):
    """Draw the corrupted batch from ``rng``, evaluate the L1 loss and backpropagate.

    Returns (loss, grads) where grads mirrors net.parameters() order
    (w0, b0, w1, b1, ...).  The gradients are written into ``grads`` when
    given, else into a new vector, so a later call leaves them alone.
    """
    if grads is None:
        grads = param_views(np.empty_like(net.flat), net.layer_dims)
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    x_t = forward.forward_sample(sys, coeffs, x0, linop.draw_noise(sys, rng, x0.shape))
    loss = l1_loss_and_grad(net, x_t, coeffs.t, x0, grads)
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss at t={coeffs.t}")
    return loss, grads


@dataclass
class AdamState:
    """First and second moments and a scratch vector, shaped like the parameters."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    step: int = 0


def adam_init(p: np.ndarray) -> AdamState:
    """Zero moments and scratch, each on a 64-byte boundary."""
    return AdamState(*(_aligned_zeros(np.shape(p)) for _ in range(3)))


def adam_step(p, g, state: AdamState, lr, beta1, beta2):
    """One Adam update of the array p, in place.

    The ops are those of ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g``
    and ``p -= lr (m / c1) / (sqrt(v / c2) + 1e-8)``, in that order, written
    into m, v, the state's scratch and g: on return g holds the step that
    was subtracted from p.
    """
    state.step += 1
    c1 = 1.0 - beta1 ** state.step
    c2 = 1.0 - beta2 ** state.step
    m, v, s = state.m, state.v, state.scratch
    np.multiply(g, 1.0 - beta1, out=s)
    m *= beta1
    m += s
    np.multiply(g, 1.0 - beta2, out=s)
    s *= g
    v *= beta2
    v += s
    np.divide(m, c1, out=g)
    g *= lr
    np.divide(v, c2, out=s)
    np.sqrt(s, out=s)
    s += 1e-8
    g /= s
    p -= g


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
    # Adam steps the whole parameter vector by the whole gradient vector
    grad = _aligned_zeros(net.flat.shape)
    grads = param_views(grad, net.layer_dims)
    adam = adam_init(net.flat)
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
                loss, _ = loss_and_grad(net, sys, coeffs, batch, rng, grads)
            except NumericalError as exc:
                raise NumericalError(
                    f"training diverged at epoch {epoch}, batch {n_batches}: {exc}"
                ) from exc
            adam_step(net.flat, grad, adam, lr, tcfg.adam_beta1, tcfg.adam_beta2)
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
# ScheduleSpec's fields, in order, with their types: the one walk that
# writes a schedule into a preamble and the hash canon, and reads it back
_SCHEDULE_TYPES = typing.get_type_hints(ScheduleSpec)
_HEADER_KEYS = (
    "layer_dims", "activation",
    *(f"schedule_{name}" for name in _SCHEDULE_TYPES),
    "n_tensors",
)


def _schedule_items(spec: ScheduleSpec):
    """(field, text) per schedule field: strings as they are, numbers by repr."""
    items = []
    for name in _SCHEDULE_TYPES:
        value = getattr(spec, name)
        items.append((name, value if isinstance(value, str) else repr(value)))
    return items


def schedule_hash(spec: ScheduleSpec) -> str:
    canon = ";".join(f"{name}={text}" for name, text in _schedule_items(spec))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def save_checkpoint(path, net: DenoiserNet, spec: ScheduleSpec, extra=None):
    lines = [
        "format=sysbridge-checkpoint-v1",
        "layer_dims=" + ",".join(str(v) for v in net.layer_dims),
        f"activation={net.activation}",
        *(f"schedule_{name}={text}" for name, text in _schedule_items(spec)),
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
    """Returns (net, spec, header dict).

    Each tensor record is checked against the shape that the header's
    ``layer_dims`` give it and read straight into the net's parameter
    vector.  A malformed file raises ValueError (DimensionError for a wrong
    shape or a truncated record), a missing one OSError.  The time embedding
    is fixed (`TIME_FREQS`), so ``layer_dims`` gives the whole net, and one
    whose input width is not its output width plus 16 is a DimensionError.
    Other header lines are only returned.
    """
    with open(path, "rb") as fh:
        header = {}
        for line in fh:
            if line == _PREAMBLE_END:
                break
            key, sep, val = line.decode("utf-8").rstrip("\n").partition("=")
            if sep:
                header[key] = val
        else:
            raise DimensionError(f"not a checkpoint file: {path}")
        missing = [key for key in _HEADER_KEYS if key not in header]
        if missing:
            raise ValueError(f"checkpoint header lacks {', '.join(missing)}")
        spec = ScheduleSpec(**{
            name: kind(header[f"schedule_{name}"]) for name, kind in _SCHEDULE_TYPES.items()
        })
        net = DenoiserNet([int(v) for v in header["layer_dims"].split(",")], header["activation"])
        params = net.parameters()
        if int(header["n_tensors"]) != len(params):
            raise DimensionError(
                f"checkpoint holds {header['n_tensors']} tensors, layer_dims {net.layer_dims} need {len(params)}"
            )
        for p in params:
            p[...] = tensorio.read_tensor(fh, p.shape)
    return net, spec, header
