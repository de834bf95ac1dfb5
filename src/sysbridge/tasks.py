"""Tasks: measurement systems, the data they measure, deployments, metrics.

A `TaskSpec` is one task, the ``[task]`` section of an experiment config:
which measurement system, and which dataset it measures.  `build_system`,
`make_dataset` and `gaussian_prior` turn it into the system, draws of the
data and, where the data has one, the exact Gaussian prior.

Four image operators over flattened side x side grayscale images in
[0, 1] (d = side^2):

  inpainting - square diagonal 0/1 mask, its own pseudoinverse, noiseless.
  superres   - k x k block-mean pooling; the pseudoinverse is k^2 A^T,
               i.e. nearest-neighbor replication.
  ct         - dense U D V^T with random orthogonal factors and a synthetic
               decaying spectrum exp(-i / latent_dim); singular values below
               the absolute threshold tau are zeroed; scalar noise.
  mri        - realified orthonormal Fourier rows masked by frequency: the
               lambda1 percent lowest frequencies kept deterministically,
               lambda2 percent of all frequencies sampled from the rest;
               scalar noise.  Orthonormal rows make A+ = A^T.

and two over vectors of width signal_dim:

  dense      - a seeded standard normal dense_m x d matrix, scalar noise.
  contrast   - the elementwise sigmoid(k (x - a)), linearized at a
               gradient-descent estimate from one calibration measurement
               (the first dataset draw, noiseless); per-measurement
               re-linearization is available through `nonlinear`.

`deploy(spec, param, value)` is the misspecification protocol's
deployment: the system built with one sweep parameter changed, and the one
measurement law that draws from it, while any trained model keeps its
training-time system embedded.  `SWEEPS` maps each sweep parameter to the
`TaskSpec` field it sets on each task that takes it: ``lambda1`` sets mri's
`lambda1_pct`, ``tau`` ct's `tau`, ``noise_var`` ct's `sigma1_sq` and mri's
`sigma2_sq`.  ``poisson_i0`` (ct only) sets no field: its measurements are
photon counts N ~ Poisson(I0 exp(-A x)) returned as the line integrals
-log(max(N, 1) / I0), in the units of A x like the Gaussian ones.  Poisson
noise is evaluation-only and never embedded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import nonlinear, oracle
from .errors import DimensionError, check_finite
from .linop import LinearSystem, _check_last_axis, build_dense_system

TASKS = ("inpainting", "superres", "ct", "mri")   # the image tasks
VECTOR_TASKS = ("dense", "contrast")
DATASETS = ("blobs", "field", "gaussian", "mixture", "point")


@dataclass(frozen=True)
class TaskSpec:
    """One task: its measurement system and its dataset.

    Every field is checked here, whatever the task, so a config is refused
    when it is read.  `lambda1_pct` and `lambda2_pct` are the config keys
    ``lambda1`` and ``lambda2`` (the ``ini`` metadata).
    """

    task: str = "inpainting"
    image_side: int = 8
    signal_dim: int = 0            # d when > 0 (vector tasks); else image_side**2
    mask_fraction: float = 0.5     # inpainting: fraction of pixels removed
    factor: int = 4                # superres pooling factor
    tau: float = 0.05              # ct absolute singular-value threshold
    sigma1_sq: float = 1e-4        # ct noise variance
    latent_dim: int = 16           # ct spectrum decay scale
    # mri: percent of lowest frequencies kept, and sampled from the rest
    lambda1_pct: float = field(default=16.0, metadata={"ini": "lambda1"})
    lambda2_pct: float = field(default=30.0, metadata={"ini": "lambda2"})
    sigma2_sq: float = 5.0         # mri noise variance
    dense_m: int = 2               # dense measurement rows
    noise_var: float = 0.0         # dense and contrast scalar noise variance
    contrast_k: float = 4.0
    contrast_a: float = 0.5
    seed: int = 0                  # system seed
    dataset: str = "blobs"
    n_train: int = 256
    data_seed: int = 0
    gauss_mean: float = 0.0
    gauss_var: float = 1.0
    field_scale: float = 3.0
    field_amp: float = 0.1
    field_mean: float = 0.5
    mix_sep: float = 2.0
    mix_std: float = 0.5
    mix_coord: int = -1            # mixture axis; negative: the last
    point_value: float = 0.5

    def __post_init__(self):
        check_finite(self)
        if self.task not in TASKS + VECTOR_TASKS:
            raise ValueError(f"unknown task {self.task!r}, expected one of {TASKS + VECTOR_TASKS}")
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}, expected one of {DATASETS}")
        if self.image_side < 1 or self.signal_dim < 0:
            raise ValueError("image_side >= 1 and signal_dim >= 0 required")
        if self.images and self.d != self.image_side ** 2:
            raise ValueError(
                f"task {self.task} on dataset {self.dataset} acts on images: "
                f"signal_dim must be 0 or image_side**2 = {self.image_side ** 2}"
            )
        if not 0.0 <= self.mask_fraction <= 1.0:
            raise ValueError("mask_fraction must lie in [0, 1]")
        if self.factor < 1:
            raise ValueError("factor must be >= 1")
        if self.task == "superres" and self.image_side % self.factor != 0:
            raise ValueError(
                f"pooling factor {self.factor} does not divide side {self.image_side}"
            )
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if not (0.0 <= self.lambda1_pct <= 100.0 and 0.0 <= self.lambda2_pct <= 100.0):
            raise ValueError("lambda percentages must lie in [0, 100]")
        n_kept = sum(_mri_label_counts(self.image_side, self.lambda1_pct, self.lambda2_pct))
        if self.lambda1_pct + self.lambda2_pct > 100.0 or n_kept > _n_fourier_labels(self.image_side):
            raise ValueError("lambda1 + lambda2 select more than 100% of frequencies")
        if self.task == "mri" and n_kept == 0:
            raise ValueError(f"lambda1 and lambda2 keep no frequency of a side {self.image_side} image")
        if min(self.sigma1_sq, self.sigma2_sq, self.noise_var) < 0:
            raise ValueError("noise variances sigma1_sq, sigma2_sq and noise_var must be >= 0")
        if self.dense_m < 1:
            raise ValueError("dense_m must be >= 1")
        if self.seed < 0 or self.data_seed < 0:
            raise ValueError("seed and data_seed must be >= 0")
        if self.n_train < 1:
            raise ValueError("n_train must be >= 1")
        if not (self.gauss_var > 0 and self.mix_std > 0 and self.field_scale > 0):
            raise ValueError("gauss_var, mix_std and field_scale must be > 0")
        if self.field_amp < 0:
            raise ValueError("field_amp must be >= 0")
        if self.mix_coord >= self.d:
            raise ValueError(f"mix_coord {self.mix_coord} out of range for d={self.d}")

    @property
    def d(self) -> int:
        return self.signal_dim if self.signal_dim > 0 else self.image_side ** 2

    @property
    def images(self) -> bool:  # an image task or an image dataset draws images
        return self.task in TASKS or self.dataset in ("blobs", "field")


def build_system(spec: TaskSpec) -> LinearSystem:
    if spec.task == "inpainting":
        return _inpainting_system(spec)
    if spec.task == "superres":
        return _superres_system(spec)
    if spec.task == "ct":
        return _ct_system(spec)
    if spec.task == "mri":
        return _mri_system(spec)
    if spec.task == "dense":
        rng = np.random.default_rng(spec.seed)
        a = rng.standard_normal((spec.dense_m, spec.d))
        return build_dense_system(a, sigma_half=float(np.sqrt(spec.noise_var)))
    nsys = nonlinear.sigmoid_contrast_system(spec.d, k=spec.contrast_k, a=spec.contrast_a)
    y_cal = nsys.apply(make_dataset(spec, 1, spec.data_seed)[0])
    x_hat = nonlinear.mle_init(nsys, y_cal)
    return nonlinear.linearize(nsys, x_hat, sigma_half=float(np.sqrt(spec.noise_var)))


# the TaskSpec fields (and the signal width d) each task's system is built
# from; contrast is linearized at a dataset draw, so its dataset counts too
_SYSTEM_FIELDS = {
    "inpainting": ("d", "mask_fraction", "seed"),
    "superres": ("image_side", "factor"),
    "ct": ("d", "tau", "sigma1_sq", "latent_dim", "seed"),
    "mri": ("image_side", "lambda1_pct", "lambda2_pct", "sigma2_sq", "seed"),
    "dense": ("d", "dense_m", "noise_var", "seed"),
    "contrast": (
        "d", "contrast_k", "contrast_a", "noise_var", "dataset", "data_seed", "image_side",
        "gauss_mean", "gauss_var", "field_scale", "field_amp", "field_mean",
        "mix_sep", "mix_std", "mix_coord", "point_value",
    ),
}


def system_hash(spec: TaskSpec) -> str:
    """SHA-256 over the task and the fields `build_system` reads, by repr."""
    names = ("task", *_SYSTEM_FIELDS[spec.task])
    canon = ";".join(f"{name}={getattr(spec, name)!r}" for name in names)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _inpainting_system(spec: TaskSpec) -> LinearSystem:
    d = spec.d
    rng = np.random.default_rng(spec.seed)
    n_masked = int(round(spec.mask_fraction * d))
    mask = np.ones(d)
    mask[rng.permutation(d)[:n_masked]] = 0.0

    def apply(x):
        return _check_last_axis(x, d, "apply") * mask

    return LinearSystem(
        m=d,
        d=d,
        apply=apply,
        apply_pinv=apply,
        kappa=1.0,
    )


def _superres_system(spec: TaskSpec) -> LinearSystem:
    side, k = spec.image_side, spec.factor
    d = side * side
    low = side // k
    m = low * low

    def pool(x):
        x = _check_last_axis(x, d, "apply")
        lead = x.shape[:-1]
        img = x.reshape(lead + (low, k, low, k))
        return img.mean(axis=(-3, -1)).reshape(lead + (m,))

    def replicate(y):
        y = _check_last_axis(y, m, "apply_pinv")
        lead = y.shape[:-1]
        img = y.reshape(lead + (low, 1, low, 1)) * np.ones((1, k, 1, k))
        return img.reshape(lead + (d,))

    return LinearSystem(
        m=m,
        d=d,
        apply=pool,
        apply_pinv=replicate,
        kappa=float(k * k),
    )


def _random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _ct_system(spec: TaskSpec) -> LinearSystem:
    d = spec.d
    tau = spec.tau
    rng = np.random.default_rng(spec.seed)
    u = _random_orthogonal(d, rng)
    v = _random_orthogonal(d, rng)
    spectrum = np.exp(-np.arange(d) / float(spec.latent_dim))
    s = np.where(spectrum >= tau, spectrum, 0.0)
    s_inv = np.where(s > 0, 1.0 / np.where(s > 0, s, 1.0), 0.0)

    def apply(x):
        return ((_check_last_axis(x, d, "apply") @ v) * s) @ u.T

    def apply_pinv(y):
        return ((_check_last_axis(y, d, "apply_pinv") @ u) * s_inv) @ v.T

    return LinearSystem(
        m=d,
        d=d,
        apply=apply,
        apply_pinv=apply_pinv,
        sigma_half=math.sqrt(spec.sigma1_sq),
    )


def _n_fourier_labels(side: int) -> int:
    """len(_fourier_labels(side)): conjugate pairs count once, and an even
    side has 4 self-conjugate frequencies, an odd side 1."""
    return (side * side + (4 if side % 2 == 0 else 1)) // 2


def _mri_label_counts(side: int, lambda1_pct: float, lambda2_pct: float):
    """(n_low, n_rand): how many frequency labels an mri system on a side x
    side image keeps deterministically (the lowest) and samples from the rest."""
    n_labels = _n_fourier_labels(side)
    return round(lambda1_pct / 100.0 * n_labels), round(lambda2_pct / 100.0 * n_labels)


def _fourier_labels(side):
    """Canonical frequency labels sorted by wrapped magnitude.

    Each label is (mag, fu, fv, u, v, self_conjugate); conjugate frequency
    pairs appear once, under their lexicographically smaller member.
    """
    labels = []
    for u in range(side):
        for v in range(side):
            cu, cv = (-u) % side, (-v) % side
            if (cu, cv) < (u, v):
                continue  # the conjugate partner owns this pair
            fu, fv = min(u, side - u), min(v, side - v)
            mag = math.hypot(fu, fv)
            labels.append((mag, fu, fv, u, v, (cu, cv) == (u, v)))
    labels.sort()
    return labels


def _fourier_rows(side, u, v, self_conj):
    """Real orthonormal row(s) realizing one canonical frequency."""
    p = np.arange(side)
    phase = -2.0 * np.pi * (np.add.outer(u * p, v * p)) / side
    complex_row = (np.cos(phase) + 1j * np.sin(phase)).reshape(-1) / side
    if self_conj:
        return [complex_row.real]
    return [math.sqrt(2.0) * complex_row.real, math.sqrt(2.0) * complex_row.imag]


def _mri_system(spec: TaskSpec) -> LinearSystem:
    side = spec.image_side
    sigma_sq = spec.sigma2_sq
    labels = _fourier_labels(side)
    n_labels = len(labels)
    n_low, n_rand = _mri_label_counts(side, spec.lambda1_pct, spec.lambda2_pct)

    # the random subset is the prefix of one seeded permutation, skipping the
    # deterministic low block: uniform without replacement, and nearly the
    # same rows survive when lambda1 is perturbed (the mask does not reshuffle)
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n_labels)
    sampled = [int(i) for i in perm if i >= n_low][:n_rand]
    keep = sorted(set(range(n_low)) | set(sampled))

    rows = []
    for idx in keep:
        _, _, _, u, v, self_conj = labels[idx]
        rows.extend(_fourier_rows(side, u, v, self_conj))
    a = np.asarray(rows)
    m = a.shape[0]

    def apply(x):
        return _check_last_axis(x, side * side, "apply") @ a.T

    def apply_pinv(y):
        # orthonormal rows: A+ = A^T
        return _check_last_axis(y, m, "apply_pinv") @ a

    return LinearSystem(
        m=m,
        d=side * side,
        apply=apply,
        apply_pinv=apply_pinv,
        sigma_half=math.sqrt(sigma_sq),
        kappa=1.0,
    )


# the TaskSpec field each sweep parameter sets, per task that takes it;
# poisson_i0 sets none: it swaps the Gaussian noise law for the counts of a
# transmission model, I0 exp(-A x), so A x must be line integrals (ct)
SWEEPS = {
    "lambda1": {"mri": "lambda1_pct"},
    "tau": {"ct": "tau"},
    "noise_var": {"ct": "sigma1_sq", "mri": "sigma2_sq"},
    "poisson_i0": {"ct": None},
}
SWEEP_PARAMS = tuple(SWEEPS)


def sweep_field(task: str, param: str) -> Optional[str]:
    """The `TaskSpec` field sweep ``param`` sets on ``task``, None for
    poisson_i0; ValueError for an unknown parameter or one off its task."""
    fields = SWEEPS.get(param)
    if fields is None:
        raise ValueError(f"unknown sweep parameter {param!r}, expected one of {SWEEP_PARAMS}")
    if task not in fields:
        raise ValueError(f"{param} perturbation applies to the {' or '.join(fields)} task only")
    return fields[task]


def deploy(spec: TaskSpec, param: str = "", value: float = 0.0):
    """(system, measure): the system deployed for ``spec`` with the sweep
    parameter ``param`` (none when empty) set to ``value``, and
    ``measure(x0, rng)``, which draws measurements of x0 from it.

    ``measure`` draws ``A x0 + S e`` with e standard normal, or, for
    ``poisson_i0``, photon counts N ~ Poisson(I0 exp(-A x0)) returned as the
    line integrals -log(max(N, 1) / I0).  A parameter off its task, a
    non-finite value and ``poisson_i0 <= 0`` are refused with ValueError.
    """
    system_spec = spec
    if param:
        name = sweep_field(spec.task, param)
        if not math.isfinite(value):
            raise ValueError(f"{param} must be finite, got {value!r}")
        if name is not None:
            system_spec = dataclasses.replace(spec, **{name: value})
        elif value <= 0:
            raise ValueError("poisson noise requires intensity > 0")
    system = build_system(system_spec)

    if param == "poisson_i0":
        intensity = float(value)

        def measure(x0, rng):
            # photon counts, logged back to line integrals in the units of A x
            counts = rng.poisson(intensity * np.exp(-system.apply(x0)))
            return -np.log(np.maximum(counts, 1) / intensity)

    else:

        def measure(x0, rng):
            clean = system.apply(x0)
            return clean + system.noise_scale(rng.standard_normal(clean.shape))

    return system, measure


# ---------------------------------------------------------------------------
# reconstruction metrics

PSNR_CAP_DB = 100.0


def psnr(x, ref) -> float:
    """Peak signal-to-noise ratio in dB with peak value 1.0, capped at 100."""
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise DimensionError(f"psnr: shape mismatch {x.shape} vs {ref.shape}")
    mse = float(np.mean((x - ref) ** 2))
    floor = 10.0 ** (-PSNR_CAP_DB / 10.0)
    return 10.0 * math.log10(1.0 / max(mse, floor))


SSIM_WINDOW = 8


def ssim(x, ref) -> float:
    """Mean local structural similarity over uniform SSIM_WINDOW x SSIM_WINDOW
    windows, with c1 = 0.01^2 and c2 = 0.03^2; peak 1.0."""
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise DimensionError(f"ssim: shape mismatch {x.shape} vs {ref.shape}")
    side = int(round(math.sqrt(x.size)))
    if side * side != x.size:
        raise DimensionError(f"ssim: {x.size} values do not form a square image")
    window = SSIM_WINDOW
    if window > side:
        raise DimensionError(f"ssim: window {window} larger than image side {side}")
    a = x.reshape(side, side)
    b = ref.reshape(side, side)

    from numpy.lib.stride_tricks import sliding_window_view

    wa = sliding_window_view(a, (window, window)).reshape(-1, window * window)
    wb = sliding_window_view(b, (window, window)).reshape(-1, window * window)
    mu_a = wa.mean(axis=1)
    mu_b = wb.mean(axis=1)
    var_a = wa.var(axis=1)
    var_b = wb.var(axis=1)
    cov = (wa * wb).mean(axis=1) - mu_a * mu_b
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


# ---------------------------------------------------------------------------
# toy datasets

def sample_gaussian(n, mean, var, rng):
    """n draws of N(mean, var I) for a scalar variance ``var``."""
    mean = np.asarray(mean, dtype=np.float64)
    z = rng.standard_normal((n, mean.shape[0]))
    z *= math.sqrt(var)
    z += mean
    return z


def sample_gaussian_mixture(n, weights, means, variances, rng):
    """n draws of a mixture of N(means[k], variances[k] I)."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("mixture weights must be non-negative and sum to 1")
    if len(means) != weights.size or len(variances) != weights.size:
        raise ValueError("mixture weights, means and covs must align")
    d = np.asarray(means[0]).shape[0]
    if n == 0:
        return np.zeros((0, d))
    counts = rng.multinomial(n, weights)
    chunks = [
        sample_gaussian(c, means[k], variances[k], rng) for k, c in enumerate(counts) if c
    ]
    data = np.concatenate(chunks, axis=0)
    return data[rng.permutation(n)]


def blob_images(n, side, rng):
    """Random narrow-bump images normalized to [0, 1].

    Bump widths sit near the pixel scale so the spectrum spreads well past
    the lowest frequencies; frequency-masked operators then lose real
    information when measurement rows are dropped.
    """
    if n == 0:
        return np.zeros((0, side * side))
    grid = np.arange(side, dtype=np.float64)
    yy, xx = np.meshgrid(grid, grid, indexing="ij")
    out = np.zeros((n, side, side))
    for i in range(n):
        for _ in range(rng.integers(3, 7)):
            cy, cx = rng.uniform(0, side - 1, size=2)
            width = rng.uniform(0.075 * side, 0.2 * side)
            amp = rng.uniform(0.4, 1.0)
            out[i] += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width * width))
        lo, hi = out[i].min(), out[i].max()
        out[i] = (out[i] - lo) / max(hi - lo, 1e-12)
    return out.reshape(n, side * side)


def _field_spectrum(side: int, scale: float, amp: float):
    """(basis, var): the orthonormal realified Fourier basis, one row per
    coefficient, and each coefficient's variance amp * exp(-(|f| / scale)^2)."""
    rows = []
    variances = []
    for mag, _, _, u, v, self_conj in _fourier_labels(side):
        fr = _fourier_rows(side, u, v, self_conj)
        rows.extend(fr)
        variances.extend([amp * math.exp(-((mag / scale) ** 2))] * len(fr))
    return np.asarray(rows), np.asarray(variances)


def field_prior(side: int, scale: float = 3.0, amp: float = 0.1, mean: float = 0.5):
    """Band-limited Gaussian random-field image prior.

    Each realified Fourier coefficient is independent with variance
    amp * exp(-(|f| / scale)^2): smooth textures whose energy decays
    across the low-to-mid frequency band, so every row of a frequency
    mask in that band carries real information.  Returns (mean vector,
    covariance matrix).
    """
    basis, var = _field_spectrum(side, scale, amp)
    cov = (basis.T * var) @ basis
    return np.full(side * side, mean), 0.5 * (cov + cov.T)


def sample_field(n, side, rng, scale: float = 3.0, amp: float = 0.1, mean: float = 0.5):
    """n draws of the `field_prior` field, drawn coefficient by coefficient.

    No eigendecomposition: its result, unlike a matrix product's, depends on
    the BLAS thread count, and the draws must not.
    """
    basis, var = _field_spectrum(side, scale, amp)
    z = rng.standard_normal((n, side * side))
    z *= np.sqrt(var)
    x = z @ basis
    x += mean
    return x


def make_toy_dataset(kind: str, n: int, seed: int = 0, **params) -> np.ndarray:
    """Reproducible draws; returns an (n, d) array."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return sample_gaussian(n, params["mean"], params.get("cov", 1.0), rng)
    if kind == "field":
        return sample_field(
            n,
            params["side"],
            rng,
            scale=params.get("scale", 3.0),
            amp=params.get("amp", 0.1),
            mean=params.get("mean", 0.5),
        )
    if kind == "gaussian_mixture":
        return sample_gaussian_mixture(
            n, params["weights"], params["means"], params["covs"], rng
        )
    if kind == "image_blobs":
        return blob_images(n, params["side"], rng)
    raise ValueError(f"unknown dataset kind {kind!r}")


def make_dataset(spec: TaskSpec, n: int, seed: int) -> np.ndarray:
    """n draws of the spec's dataset, an (n, d) array."""
    d = spec.d
    if spec.dataset == "blobs":
        return make_toy_dataset("image_blobs", n, seed=seed, side=spec.image_side)
    if spec.dataset == "gaussian":
        return make_toy_dataset(
            "gaussian", n, seed=seed, mean=np.full(d, spec.gauss_mean), cov=spec.gauss_var
        )
    if spec.dataset == "field":
        return make_toy_dataset(
            "field", n, seed=seed, side=spec.image_side,
            scale=spec.field_scale, amp=spec.field_amp, mean=spec.field_mean,
        )
    if spec.dataset == "mixture":
        mean_hi = np.zeros(d)
        mean_hi[spec.mix_coord if spec.mix_coord >= 0 else d - 1] = spec.mix_sep
        cov = spec.mix_std ** 2
        return make_toy_dataset(
            "gaussian_mixture", n, seed=seed,
            weights=[0.5, 0.5], means=[mean_hi, -mean_hi], covs=[cov, cov],
        )
    # single-point dataset (memorization smoke runs)
    return np.tile(np.full(d, spec.point_value), (n, 1))


def gaussian_prior(spec: TaskSpec) -> Optional[oracle.GaussianBelief]:
    """The exact prior of a gaussian or field dataset; None for the others."""
    if spec.dataset == "gaussian":
        return oracle.GaussianBelief(np.full(spec.d, spec.gauss_mean), spec.gauss_var * np.eye(spec.d))
    if spec.dataset == "field":
        mu, cov = field_prior(
            spec.image_side, scale=spec.field_scale, amp=spec.field_amp, mean=spec.field_mean
        )
        return oracle.GaussianBelief(mu, cov)
    return None
