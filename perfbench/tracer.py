"""Outside-in layer spans for the sysbridge benchmark.

Nothing under ``src/`` knows about tracing.  While a traced block runs, the
public functions of each module are replaced by timing wrappers (module
attributes such as ``sampler.reverse_step`` and ``denoiser.adam_step``), and
``wrap_system`` re-wraps a ``LinearSystem``'s operator closures with
``dataclasses.replace``.  Every replaced attribute is restored when the block
exits, so untraced work in the same process runs the unmodified code.

Spans are aggregated as they close instead of being stored: per span name the
call count and the self time, i.e. the span's duration minus the part of it
covered by child spans.  The durations of root spans are summed as well, so the
caller's own time is the traced wall time minus that sum.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from sysbridge import denoiser, forward, sampler, schedule, tasks, tensorio

LINOP_OPS = ("apply", "apply_pinv", "noise_scale")

# span name -> whether its call count is reported; every span's self time is
SPANS = {
    "linop.apply": True,
    "linop.apply_pinv": True,
    "linop.noise_scale": True,
    "sampler.initialize": False,
    "sampler.reverse_step": True,
    "sampler.sample": False,
    "denoiser.forward": True,
    "denoiser.l1_loss_and_grad": True,
    "denoiser.adam_step": True,
    "denoiser.train": False,
    "denoiser.load_checkpoint": False,
    "forward.forward_sample": True,
    "schedule.evaluate": True,
    "tensorio.read_tensor": True,
    "tasks.build_system": False,
    "tasks.make_toy_dataset": False,
    "tasks.psnr": False,
}

# Meters run after a span closes and only keep what the end-of-run figures
# need: rows through the network, and the network and Adam parameters seen.


def _forward_meter(tracer, args, result):
    net = args[0]
    tracer.meters["denoiser.forward.rows"] += result.size // net.signal_dim
    tracer.gauges["net"] = net


def _adam_meter(tracer, args, result):
    tracer.gauges["adam_params"] = args[0]


def _train_meter(tracer, args, result):
    tracer.gauges["net"] = args[0]


def _read_meter(tracer, args, result):
    # magic + rank + one u32 per dimension + payload
    tracer.meters["tensorio.bytes_read"] += 8 + 4 * result.ndim + result.nbytes


# (module, attribute, span name, meter).  ``evaluate`` is imported by name into
# the modules that call it, so each of those bindings is replaced.
_PATCHES = (
    (sampler, "sample", "sampler.sample", None),
    (sampler, "initialize", "sampler.initialize", None),
    (sampler, "reverse_step", "sampler.reverse_step", None),
    (schedule, "evaluate", "schedule.evaluate", None),
    (sampler, "evaluate", "schedule.evaluate", None),
    (denoiser, "evaluate", "schedule.evaluate", None),
    (forward, "evaluate", "schedule.evaluate", None),
    (denoiser, "forward_denoise", "denoiser.forward", _forward_meter),
    (denoiser, "l1_loss_and_grad", "denoiser.l1_loss_and_grad", None),
    (denoiser, "adam_step", "denoiser.adam_step", _adam_meter),
    (denoiser, "train", "denoiser.train", _train_meter),
    (denoiser, "load_checkpoint", "denoiser.load_checkpoint", None),
    (forward, "forward_sample", "forward.forward_sample", None),
    (tensorio, "read_tensor", "tensorio.read_tensor", _read_meter),
    (tasks, "build_system", "tasks.build_system", None),
    (tasks, "make_toy_dataset", "tasks.make_toy_dataset", None),
    (tasks, "psnr", "tasks.psnr", None),
)


class Tracer:
    """Aggregated span statistics for one traced phase of a run."""

    def __init__(self):
        self.stats = {}  # span name -> [calls, self seconds, exceptions raised]
        self.meters = Counter()
        self.gauges = {}
        self.wall_s = 0.0
        # time covered by child spans, one slot per open span; slot 0 collects
        # the durations of root spans
        self._covered = [0.0]
        self._patches = [
            (mod, attr, self.wrap(name, getattr(mod, attr), meter))
            for mod, attr, name, meter in _PATCHES
        ]

    def wrap(self, name, fn, meter=None):
        covered = self._covered
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        clock = perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            covered.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                duration = clock() - start
                inner = covered.pop()
                covered[-1] += duration
                stat[0] += 1
                stat[1] += duration - inner
            if meter is not None:
                meter(self, args, result)
            return result

        return span

    def calls(self, name) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def self_s(self, name) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def errors(self, name) -> int:
        return self.stats[name][2] if name in self.stats else 0

    def wrap_system(self, sys_):
        """The same system with its operator closures counted and timed."""
        return dataclasses.replace(
            sys_, **{op: self.wrap(f"linop.{op}", getattr(sys_, op)) for op in LINOP_OPS}
        )

    def linop_calls(self) -> int:
        """Operator applications (A and A+) so far; noise_scale is not one."""
        return self.calls("linop.apply") + self.calls("linop.apply_pinv")

    def caller_s(self) -> float:
        """Traced wall time not covered by any root span."""
        return self.wall_s - self._covered[0]

    def adds_up(self) -> bool:
        """Self times partition the root spans, and none is negative."""
        self_times = [stat[1] for stat in self.stats.values()]
        return (
            abs(sum(self_times) - self._covered[0]) <= 1e-6
            and min(self_times, default=0.0) >= 0.0
            and self.caller_s() >= 0.0
        )

    def layer_metrics(self) -> dict:
        """Per-layer figures: name -> (value, unit)."""
        out = {}
        for span, with_calls in SPANS.items():
            if with_calls:
                out[f"{span}.calls"] = (self.calls(span), "count")
            out[f"{span}.self_s"] = (self.self_s(span), "s")
        steps = self.meters["sampler.steps"]
        forward_calls = self.calls("denoiser.forward")
        net = self.gauges.get("net")
        dims = net.layer_dims if net else []
        flop_per_row = 2 * sum(a * b for a, b in zip(dims[:-1], dims[1:]))
        adam_params = sum(p.size for p in self.gauges.get("adam_params", ()))
        out["linop.calls_per_step"] = (self.meters["linop.step_calls"] / steps if steps else 0.0, "count/step")
        out["sampler.diverged"] = (self.errors("sampler.sample"), "count")
        out["denoiser.forward.gflop"] = (
            flop_per_row * self.meters["denoiser.forward.rows"] / forward_calls / 1e9 if forward_calls else 0.0,
            "GFLOP/call",
        )
        # computed, not measured: read p, g, m, v and write p, m, v in float64
        out["denoiser.adam_step.mbytes"] = (7 * 8 * adam_params / 1e6, "MB/call")
        out["denoiser.params"] = (sum(p.size for p in net.parameters()) if net else 0, "count")
        out["tensorio.bytes_read"] = (self.meters["tensorio.bytes_read"], "B")
        out["trace.wall_s"] = (self.wall_s, "s")
        out["caller.self_s"] = (self.caller_s(), "s")
        return out

    @contextmanager
    def active(self):
        """Swap the wrappers into the package modules; time the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in self._patches]
        for mod, attr, wrapped in self._patches:
            setattr(mod, attr, wrapped)
        start = perf_counter()
        try:
            yield self
        finally:
            self.wall_s += perf_counter() - start
            for mod, attr, original in saved:
                setattr(mod, attr, original)
