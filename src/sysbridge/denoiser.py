"""Signal-prediction network and its training loop.

A small fully-connected network maps a corrupted state (plus a time
embedding) back to an estimate of the clean signal.  Gradients are
computed by hand-rolled reverse mode so that training has zero framework
dependencies and is bit-for-bit reproducible given a seed at thread count
one.  Training follows: draw a clean sample, a uniform time on the clipped
interval and a one-shot corrupted state, score the network with an L1
reconstruction loss, and update with Adam (learning rate halved at the
configured epoch milestones).

Flat layout: every weight and bias of a `DenoiserNet` is a view into one
contiguous float64 vector, ``net.flat``, in `parameters()` order (w0, b0,
w1, b1, ...; each array row-major).  Constructing a net packs the arrays it
is given into such a vector after checking their shapes against
``layer_dims``; write parameters in place (``net.weights[0][:] = ...``).
`train` keeps one gradient vector of the same layout, into whose views the
backward pass writes, and runs Adam in place on whole vectors: parameters
and first and second moments, with the gradient vector and one scratch
vector as work space.

Byte identity: every elementwise op keeps the operands and the evaluation
order of the textbook formulas (``z = a @ w + b``, ``(1 - b1) g``,
``lr (m / c1) / (sqrt(v / c2) + eps)``, ...), only written into existing
buffers, and elementwise results do not depend on how arrays are grouped.
So the losses, trained parameters and checkpoints are the same bytes as
with one temporary per op and one Adam update per array.  Checkpoints keep
one tensor record per parameter array.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from . import forward, tensorio
from .errors import DimensionError, NumericalError
from .linop import LinearSystem
from .schedule import ScheduleCoeffs, ScheduleSpec, evaluate

ACTIVATIONS = ("relu", "tanh", "silu")
TIME_EMBEDS = ("append_scalar", "sinusoidal")


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


def _zero_params(layer_dims) -> List[np.ndarray]:
    """Zero parameters in the flat layout: views of one new vector."""
    size = sum(int(np.prod(shape)) for shape in _param_shapes(layer_dims))
    return param_views(np.zeros(size), layer_dims)


def _packed_vector(params):
    """The vector that `params` exactly tile as consecutive views, or None."""
    base = getattr(params[0], "base", None)
    if not (isinstance(base, np.ndarray) and base.ndim == 1 and base.dtype == np.float64
            and base.flags.c_contiguous):
        return None
    addr = base.ctypes.data
    for p in params:
        if not (isinstance(p, np.ndarray) and p.base is base and p.dtype == np.float64
                and p.ctypes.data == addr and p.flags.c_contiguous):
            return None
        addr += p.nbytes
    return base if addr == base.ctypes.data + base.nbytes else None


@dataclass
class DenoiserNet:
    """Fully-connected net; weights[l] has shape (layer_dims[l], layer_dims[l+1]).

    Construction packs weights and biases into one vector, ``flat``, and
    replaces them by views into it (arrays that already are those views of
    one vector are adopted as they are).
    """

    layer_dims: List[int]
    weights: List[np.ndarray]
    biases: List[np.ndarray]
    activation: str = "silu"
    time_embed: str = "sinusoidal"
    time_freqs: int = 8
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        dims = [int(v) for v in self.layer_dims]
        if len(dims) < 2 or min(dims) < 1:
            raise DimensionError(f"layer_dims must list at least two positive widths, got {dims}")
        if dims[0] != dims[-1] + time_feature_width(self.time_embed, self.time_freqs):
            raise DimensionError(
                f"layer_dims {dims}: input width must be the signal width {dims[-1]} "
                f"plus the {self.time_embed} time features"
            )
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise DimensionError(
                f"layer_dims {dims} needs {len(dims) - 1} weights and biases, "
                f"got {len(self.weights)} and {len(self.biases)}"
            )
        self.layer_dims = dims
        params = self.parameters()
        for i, (p, shape) in enumerate(zip(params, _param_shapes(dims))):
            if np.shape(p) != shape:
                raise DimensionError(
                    f"parameter {i} has shape {np.shape(p)}, layer_dims {dims} need {shape}"
                )
        flat = _packed_vector(params)
        if flat is None:
            views = _zero_params(dims)
            for view, p in zip(views, params):
                view[...] = p
            params = views
            flat = views[0].base
        self.flat = flat
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
    dims = [d + time_feature_width(time_embed, time_freqs)] + list(hidden) + [d]
    rng = np.random.default_rng(seed)
    params = _zero_params(dims)
    for w, n_in, n_out in zip(params[0::2], dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        w[...] = rng.uniform(-bound, bound, size=(n_in, n_out))
    return DenoiserNet(dims, params[0::2], params[1::2], activation, time_embed, time_freqs)


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


def _act_grad(name, z, out):
    """act'(z), bit for bit the textbook formula, computed in out (z's shape).

    SiLU needs one more buffer, which it returns instead of out.
    """
    if name == "relu":
        # (z > 0) as 0.0 / 1.0
        return np.greater(z, 0.0, out=out)
    if name == "tanh":
        # 1 - th * th with th = tanh(z)
        np.tanh(z, out=out)
        out *= out
        return np.subtract(1.0, out, out=out)
    # s * (1 + z * (1 - s)) with s = 1 / (1 + exp(-z)), s held in out
    np.negative(z, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    g = np.subtract(1.0, out)
    g *= z
    g += 1.0
    g *= out
    return g


def _input_features(net: DenoiserNet, x: np.ndarray, t: float) -> np.ndarray:
    """[x, time features of t] along the last axis, in one buffer."""
    feats = time_features(float(t), net.time_embed, net.time_freqs)
    d = x.shape[-1]
    xin = np.empty(x.shape[:-1] + (d + feats.size,))
    xin[..., :d] = x
    xin[..., d:] = feats
    return xin


def _forward_tape(net: DenoiserNet, xin: np.ndarray):
    """Returns (output, activations list, pre-activations list)."""
    a = xin
    acts = [a]
    pres = []
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w
        z += b
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


def l1_loss_and_grad(net: DenoiserNet, x, t: float, target, grads) -> float:
    """Mean per-sample L1 reconstruction loss; writes the parameter gradients.

    ``grads`` are arrays in parameters() order (w0, b0, w1, b1, ...), for
    example `param_views` of one gradient vector; each is overwritten.  The
    L1 subgradient at exact zeros is taken to be zero.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    batch = x.shape[0]
    out, acts, pres = _forward_tape(net, _input_features(net, x, t))
    resid = np.subtract(out, target, out=out)
    loss = float(np.mean(np.sum(np.abs(resid), axis=-1)))
    delta = np.sign(resid, out=resid)
    delta /= batch

    # layer l's activation derivative overwrites acts[l + 1], whose last
    # reader was the weight gradient of layer l + 1
    last = len(net.weights) - 1
    for l in range(last, -1, -1):
        if l != last:
            delta *= _act_grad(net.activation, pres[l], acts[l + 1])
        np.matmul(acts[l].T, delta, out=grads[2 * l])
        delta.sum(axis=0, out=grads[2 * l + 1])
        if l:
            delta = delta @ net.weights[l].T
    return loss


def loss_and_grad(
    net: DenoiserNet, sys: LinearSystem, coeffs: ScheduleCoeffs, x0, rng, grads=None
):
    """Draw the corrupted batch, evaluate the L1 loss and backpropagate.

    Returns (loss, grads) where grads mirrors net.parameters() order
    (w0, b0, w1, b1, ...).  The gradients are written into ``grads`` when
    given, else into a new vector, so a later call leaves them alone.
    """
    if grads is None:
        grads = param_views(np.empty_like(net.flat), net.layer_dims)
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    state = forward.forward_sample(sys, coeffs, x0, rng)
    loss = l1_loss_and_grad(net, state.x, coeffs.t, x0, grads)
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss at t={coeffs.t}")
    return loss, grads


@dataclass
class AdamState:
    step: int = 0
    m: List[np.ndarray] = field(default_factory=list)
    v: List[np.ndarray] = field(default_factory=list)
    scratch: List[np.ndarray] = field(default_factory=list)


def adam_init(params: List[np.ndarray]) -> AdamState:
    return AdamState(
        step=0,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        scratch=[np.empty_like(p) for p in params],
    )


def adam_step(params, grads, state: AdamState, lr, beta1, beta2, eps=1e-8):
    """One Adam update of each array in params, in place.

    The ops are those of ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g``
    and ``p -= lr (m / c1) / (sqrt(v / c2) + eps)``, in that order, written
    into m, v, the state's scratch and g: on return ``grads`` holds the step
    that was subtracted from params.
    """
    state.step += 1
    c1 = 1.0 - beta1 ** state.step
    c2 = 1.0 - beta2 ** state.step
    for p, g, m, v, s in zip(params, grads, state.m, state.v, state.scratch):
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
        s += eps
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
    # Adam sees the whole parameter and gradient vectors as one array each
    params = [net.flat]
    grad = np.empty_like(net.flat)
    grads = param_views(grad, net.layer_dims)
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
                loss, _ = loss_and_grad(net, sys, coeffs, batch, rng, grads)
            except NumericalError as exc:
                raise NumericalError(
                    f"training diverged at epoch {epoch}, batch {n_batches}: {exc}"
                ) from exc
            adam_step(params, [grad], adam, lr, tcfg.adam_beta1, tcfg.adam_beta2)
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
_HEADER_KEYS = (
    "layer_dims", "activation", "time_embed", "time_freqs", "schedule_variant",
    "schedule_b0", "schedule_b1", "schedule_sigma_max", "schedule_eps1", "schedule_eps2",
    "n_tensors",
)


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
    """Returns (net, spec, header dict).

    Each tensor record is checked against the shape that the header's
    ``layer_dims`` give it and read straight into the net's parameter
    vector.  A malformed file raises ValueError (DimensionError for a wrong
    shape or a truncated record), a missing one OSError.
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
        spec = ScheduleSpec(
            variant=header["schedule_variant"],
            b0=float(header["schedule_b0"]),
            b1=float(header["schedule_b1"]),
            sigma_max=float(header["schedule_sigma_max"]),
            eps1=float(header["schedule_eps1"]),
            eps2=float(header["schedule_eps2"]),
        )
        dims = [int(v) for v in header["layer_dims"].split(",")]
        params = _zero_params(dims)
        if int(header["n_tensors"]) != len(params):
            raise DimensionError(
                f"checkpoint holds {header['n_tensors']} tensors, layer_dims {dims} need {len(params)}"
            )
        for p in params:
            p[...] = tensorio.read_tensor(fh, p.shape)
    net = DenoiserNet(
        layer_dims=dims,
        weights=params[0::2],
        biases=params[1::2],
        activation=header["activation"],
        time_embed=header["time_embed"],
        time_freqs=int(header["time_freqs"]),
    )
    return net, spec, header
