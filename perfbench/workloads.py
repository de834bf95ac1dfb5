"""The three benchmark workloads.

Each workload is a closed loop: one process, one caller, and the next job
starts only after the previous one returned.  A job is one call of the
package's public API on inputs generated from the benchmark seed:

  train-mixture  one ``denoiser.train`` call: criterion 8's mixture problem
                 for a fixed number of Adam steps.
  sample-mri     one ``sampler.sample`` call on a batch of 250 distinct
                 noisy ``fourier_mask`` measurements, one chain each; jobs
                 cycle through four batches, 1000 measurements in all.
  recon-inpaint  one ``sampler.sample`` call reconstructing a single
                 noiseless ``mask`` measurement; jobs cycle through a pool.

Every job of a run that sees the same input produces the same output, so the
outputs are hashed per input and compared across repeats.  The sampling
workloads load a network that an untimed preparation phase trains and writes
with ``save_checkpoint``, as the ``train`` / ``sample`` CLI subcommands do.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from sysbridge import denoiser, linop, sampler, schedule, tasks
from control import SamplingControl, TrainingControl
from sysbridge.errors import DivergenceError, NumericalError

# criterion 9's data-consistency tolerance for noiseless systems
DATA_CONSISTENCY_TOL = 1e-9

SAMPLE_SPEC = schedule.ScheduleSpec("sb")
SAMPLE_STEPS = 100

# Untimed preparation of the sampling network: hidden 256, as the criterion-10
# config, trained briefly on field images.  The run only needs a deterministic
# network whose cost per call is that of a real one.
PREP_HIDDEN = (256,)
PREP_N_TRAIN = 1024
PREP_EPOCHS = 4


def digest_of(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


@dataclass
class Job:
    """Outcome of one timed call."""

    index: int            # job number; the job's input is index % pool
    wall_s: float         # duration of the package call alone
    work: int             # optimizer steps, or chains x reverse steps, completed
    attempted: int        # operations attempted: optimizer steps or chains
    failed: int           # operations that raised or ended non-finite
    latencies: list       # latency samples, seconds
    digest: str = ""      # hash of the outputs
    quality: dict = field(default_factory=dict)  # final_loss, psnr_db
    errors: list = field(default_factory=list)   # failed correctness checks
    control_s: float = float("nan")  # time of the control job run after it


class StepClock:
    """Denoiser callable handed to the sampler.

    It forwards to the network and stamps the start of every reverse step.
    In a traced job it also notes the operator-call count at the first step,
    so the calls made by initialization are not counted per step.
    """

    def __init__(self, net, tracer=None):
        self.net = net
        self.tracer = tracer
        self.stamps = []
        self.linop_at_first = None

    def __call__(self, x, t):
        self.stamps.append(perf_counter())
        if self.tracer is not None and self.linop_at_first is None:
            self.linop_at_first = self.tracer.linop_calls()
        return denoiser.forward_denoise(self.net, x, t)


class Workload:
    name = ""
    latency_of = ""       # what one latency sample times
    pool = 1              # distinct inputs; job i processes input i % pool

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir

    def stream(self, name: str) -> int:
        """Independent seed for one named input stream of this run."""
        digest = hashlib.sha256(f"{self.name}/{self.seed}/{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def prepare(self):
        """Untimed work before set-up."""

    def setup(self, tracer=None):
        raise NotImplementedError

    def run(self, st, index: int, tracer=None) -> Job:
        raise NotImplementedError

    def control(self):
        """The fixed control job timed after each job (see control.py)."""
        raise NotImplementedError


class TrainMixture(Workload):
    name = "train-mixture"
    latency_of = "one train call"
    N_TRAIN = 160
    BATCH = 8
    EPOCHS = 10
    STEPS = EPOCHS * N_TRAIN // BATCH
    # distinct problems (data, initial weights, training draws); final_loss is
    # their mean, which is steadier across seeds than one problem's loss
    pool = 16

    def setup(self, tracer=None):
        sys_ = linop.build_dense_system(np.array([[1.0, 0.0]]))
        if tracer is not None:
            sys_ = tracer.wrap_system(sys_)
        data = [
            tasks.make_toy_dataset(
                "gaussian_mixture", self.N_TRAIN, seed=self.stream(f"data-{slot}"),
                weights=[0.5, 0.5],
                means=[np.array([0.0, 2.0]), np.array([0.0, -2.0])],
                covs=[0.25, 0.25],
            )
            for slot in range(self.pool)
        ]
        return SimpleNamespace(sys=sys_, spec=schedule.ScheduleSpec("sb", b0=0.25, b1=0.25), data=data)

    def control(self):
        return TrainingControl(steps=self.STEPS)

    def run(self, st, index, tracer=None):
        slot = index % self.pool
        net = denoiser.init_net(2, hidden=(128, 128), activation="silu", seed=self.stream(f"init-{slot}"))
        tcfg = denoiser.TrainConfig(
            lr=1e-4, adam_beta1=0.9, adam_beta2=0.99, batch_size=self.BATCH,
            n_epochs=self.EPOCHS, seed=self.stream(f"train-{slot}"), lr_milestones=(),
        )
        start = perf_counter()
        try:
            net, losses = denoiser.train(net, st.sys, st.spec, st.data[slot], tcfg)
        except NumericalError:
            wall = perf_counter() - start
            return Job(index, wall, 0, self.STEPS, self.STEPS, [wall])
        wall = perf_counter() - start
        losses = np.asarray(losses)
        params = net.parameters()
        job = Job(index, wall, self.STEPS, self.STEPS, 0, [wall], digest_of(losses, *params))
        if not (np.all(np.isfinite(losses)) and all(np.all(np.isfinite(p)) for p in params)):
            job.errors.append("non-finite training loss or parameters")
        # the last tenth of the steps is the last tenth of the epochs
        job.quality["final_loss"] = float(np.mean(losses[-(self.EPOCHS // 10):]))
        return job


class _Sampling(Workload):
    TASK: tasks.TaskSpec

    @property
    def checkpoint(self):
        return self.workdir / f"{self.name}.ckpt"

    def prepare(self):
        sys_ = tasks.build_system(self.TASK)
        data = tasks.make_toy_dataset(
            "field", PREP_N_TRAIN, seed=self.stream("prep-data"), side=self.TASK.image_side
        )
        net = denoiser.init_net(sys_.d, hidden=PREP_HIDDEN, seed=self.stream("prep-init"))
        tcfg = denoiser.TrainConfig(
            lr=1e-3, batch_size=8, n_epochs=PREP_EPOCHS, seed=self.stream("prep-train"),
            lr_milestones=(),
        )
        net, _ = denoiser.train(net, sys_, SAMPLE_SPEC, data, tcfg)
        denoiser.save_checkpoint(self.checkpoint, net, SAMPLE_SPEC, extra={"task": self.TASK.task})

    def setup(self, tracer=None):
        plain = tasks.build_system(self.TASK)
        sys_ = plain if tracer is None else tracer.wrap_system(plain)
        truth = tasks.make_toy_dataset(
            "field", self.N_TRUTH, seed=self.stream("truth"), side=self.TASK.image_side
        )
        clean = sys_.apply(truth)
        noise = np.random.default_rng(self.stream("noise")).standard_normal(clean.shape)
        y = clean + sys_.noise_scale(noise)
        net, _, header = denoiser.load_checkpoint(self.checkpoint)
        if header.get("schedule_hash") != denoiser.schedule_hash(SAMPLE_SPEC):
            raise RuntimeError("checkpoint schedule does not match the sampling schedule")
        # checks use the unwrapped system, so they add no operator calls
        return SimpleNamespace(sys=sys_, plain=plain, truth=truth, y=y, net=net)

    def _sample(self, st, y, seed, tracer):
        """Run one sample call; returns (final or None, wall, clock)."""
        cfg = sampler.SamplerConfig(n_steps=SAMPLE_STEPS, spec=SAMPLE_SPEC, seed=seed)
        clock = StepClock(st.net, tracer)
        start = perf_counter()
        try:
            final = sampler.sample(st.sys, cfg, y, clock).final
        except DivergenceError:
            return None, perf_counter() - start, clock
        wall = perf_counter() - start
        if tracer is not None:
            tracer.meters["linop.step_calls"] += tracer.linop_calls() - clock.linop_at_first
            tracer.meters["sampler.steps"] += len(clock.stamps)
        clock.stamps.append(start + wall)
        return final, wall, clock

    def _score(self, job, final, truth):
        final = np.atleast_2d(final)
        truth = np.atleast_2d(truth)
        bad = ~np.all(np.isfinite(final), axis=-1)
        if np.any(bad):
            job.failed += int(np.sum(bad))
            job.errors.append(f"{int(np.sum(bad))} non-finite samples")
        job.digest = digest_of(final)
        job.quality["final_loss"] = float(np.mean(np.sum(np.abs(final - truth), axis=-1)))
        job.quality["psnr_db"] = float(np.mean([tasks.psnr(x, t) for x, t in zip(final, truth)]))


class SampleMri(_Sampling):
    name = "sample-mri"
    latency_of = "one reverse step of the batch"
    TASK = tasks.TaskSpec(
        "mri", image_side=16, lambda1_pct=16.0, lambda2_pct=30.0, sigma2_sq=0.001, seed=4
    )
    # Chains per batch: 0.5 MB per state array, and a step's temporaries
    # together still overflow the per-core L2.  A 1000-chain batch spills
    # into the L3 the host shares with other tenants, its wall time varied
    # by a third from run to run, and a 30 s run held only a few batches.
    BATCH = 250
    pool = 4
    N_TRUTH = BATCH * pool
    MEASUREMENTS = 119  # rows of the task's operator

    def control(self):
        return SamplingControl(self.BATCH, dense_rows=self.MEASUREMENTS, steps=SAMPLE_STEPS)

    def run(self, st, index, tracer=None):
        slot = index % self.pool
        rows = slice(slot * self.BATCH, (slot + 1) * self.BATCH)
        final, wall, clock = self._sample(st, st.y[rows], self.stream(f"sampler-{slot}"), tracer)
        if final is None:
            return Job(index, wall, 0, self.BATCH, self.BATCH, [])
        job = Job(index, wall, self.BATCH * SAMPLE_STEPS, self.BATCH, 0, list(np.diff(clock.stamps)))
        self._score(job, final, st.truth[rows])
        return job


class ReconInpaint(_Sampling):
    name = "recon-inpaint"
    latency_of = "one reconstruction"
    TASK = tasks.TaskSpec("inpainting", image_side=16, mask_fraction=0.5, seed=1)
    N_TRUTH = 256
    pool = N_TRUTH

    def control(self):
        return SamplingControl(1, steps=SAMPLE_STEPS)

    def run(self, st, index, tracer=None):
        slot = index % self.pool
        final, wall, _ = self._sample(st, st.y[slot], self.stream(f"sampler-{slot}"), tracer)
        if final is None:
            return Job(index, wall, 0, 1, 1, [wall])
        job = Job(index, wall, SAMPLE_STEPS, 1, 0, [wall])
        self._score(job, final, st.truth[slot])
        resid = float(np.max(np.abs(st.plain.apply(final) - st.y[slot])))
        if not resid < DATA_CONSISTENCY_TOL:
            job.errors.append(f"input {slot}: max |A x - y| = {resid:.3e} >= {DATA_CONSISTENCY_TOL:g}")
        return job


WORKLOADS = {w.name: w for w in (TrainMixture, SampleMri, ReconInpaint)}
