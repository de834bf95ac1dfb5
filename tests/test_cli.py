"""Command-line orchestration: exit codes, artifacts, reproducibility."""

import configparser
import dataclasses
import io
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from sysbridge import cli, sampler, tasks, tensorio
from sysbridge import denoiser as dn
from sysbridge.config import EvalSection, parse_config, parse_config_text, serialize_config
from sysbridge.errors import ConfigError
from sysbridge.schedule import VARIANTS, ScheduleSpec

MEMORIZE_INI = """
[run]
run_id = memorize
output_dir = {out}

[task]
task = inpainting
image_side = 4
mask_fraction = 0.0
dataset = point
point_value = 0.6
n_train = 16

[schedule]
variant = sb

[train]
lr = 0.01
batch_size = 1
n_epochs = 200
lr_milestones = 40,52,64,76,88,100,112,124,136,148,160,172,184,196
hidden =

[sample]
n_steps = 50
n_samples = 3
"""

GAUSS_TOY_INI = """
[run]
run_id = gauss-toy
output_dir = {out}

[task]
task = dense
signal_dim = 4
dense_m = 2
noise_var = 0.25
seed = 42
dataset = gaussian
gauss_mean = 0.1
gauss_var = 1.0

[schedule]
variant = vp
eps2 = 1e-06

[sample]
n_steps = 200
n_samples = 512
time_grid = stiffness
"""


def write_config(tmp_path, text, name="cfg.ini"):
    out_dir = tmp_path / "out"
    path = tmp_path / name
    path.write_text(text.format(out=out_dir), encoding="utf-8")
    return path, out_dir


def save_for(path, net, cfg):
    """``net`` as a checkpoint embedding the schedule and system of config ``cfg``."""
    parsed = parse_config(cfg)
    dn.save_checkpoint(path, net, parsed.schedule, extra={"system_hash": tasks.system_hash(parsed.task)})


class TestConfigErrors:
    def test_unknown_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        # the time embedding is fixed: time_embed and time_freqs are no keys
        for section, key, value in [("task", "not_a_key", "3"), ("train", "time_embed", "foo"),
                                    ("train", "time_freqs", "8")]:
            path.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
            capsys.readouterr()
            assert cli.main(["train", "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err == f"config error: unknown key {key!r} in section [{section}]\n"

    def test_missing_output_parent_exit_2(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            f"[run]\noutput_dir = {tmp_path}/no/such/parent\n[task]\ntask = inpainting\n",
            encoding="utf-8",
        )
        assert cli.main(["train", "--config", str(path)]) == 2

    def test_unknown_verify_suite_exit_2(self, capsys):
        capsys.readouterr()
        assert cli.main(["verify", "definitely_not_a_suite"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err

    def test_verify_missing_output_parent_exit_2_with_one_line(self, tmp_path, capsys):
        capsys.readouterr()
        assert cli.main(["verify", "otode", "--output", str(tmp_path / "no" / "such")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("where", ["file", "under_file"])
    @pytest.mark.parametrize("command", ["train", "sample", "verify", "misspec"])
    def test_output_that_is_no_directory_exit_2_with_one_line(self, tmp_path, capsys, command, where):
        cfg, _ = write_config(tmp_path, MEMORIZE_INI)
        ckpt = tmp_path / "net.ckpt"
        save_for(ckpt, dn.init_net(16, hidden=(8,), seed=0), cfg)
        blocker = tmp_path / "taken"
        blocker.write_text("a file\n", encoding="utf-8")
        output = blocker if where == "file" else blocker / "run"
        argv = {
            "train": ["train", "--config", str(cfg)],
            "sample": ["sample", "--config", str(cfg), "--checkpoint", str(ckpt), "--simulate"],
            "verify": ["verify", "otode"],
            "misspec": ["misspec", "--config", str(cfg), "--checkpoint", str(ckpt)],
        }[command]
        capsys.readouterr()
        assert cli.main([*argv, "--output", str(output)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert blocker.read_text(encoding="utf-8") == "a file\n"

    def test_missing_config_exit_2(self):
        assert cli.main(["train"]) == 2

    def test_verify_takes_no_seed(self):
        # the suites use fixed seeds: a --seed would be silently ignored
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "otode", "--seed", "3"])
        assert exc.value.code == 2


def _override(text, section, **keys):
    """The config text with ``keys`` set in ``section``."""
    parser = configparser.ConfigParser()
    parser.read_string(text)
    if not parser.has_section(section):
        parser.add_section(section)
    for key, value in keys.items():
        parser.set(section, key, str(value))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


# (command, base config, section, keys): each value is out of range
OUT_OF_RANGE = {
    "variant": ("train", MEMORIZE_INI, "schedule", {"variant": "foo"}),
    "b0": ("train", MEMORIZE_INI, "schedule", {"b0": -1}),
    "eps1": ("train", MEMORIZE_INI, "schedule", {"eps1": 0.7}),
    "lr": ("train", MEMORIZE_INI, "train", {"lr": -1}),
    "activation": ("train", MEMORIZE_INI, "train", {"activation": "gelu"}),
    # the time embedding is fixed: these former [train] keys are refused as unknown
    "time_embed": ("train", MEMORIZE_INI, "train", {"time_embed": "foo"}),
    "time_freqs": ("train", MEMORIZE_INI, "train", {"time_embed": "sinusoidal", "time_freqs": -1}),
    "hidden": ("train", MEMORIZE_INI, "train", {"hidden": "8,0"}),
    "batch_size": ("train", MEMORIZE_INI, "train", {"batch_size": 0}),
    "mask_fraction": ("train", MEMORIZE_INI, "task", {"mask_fraction": 2}),
    "superres_factor": ("train", MEMORIZE_INI, "task", {"task": "superres", "image_side": 6, "factor": 4}),
    "factor": ("train", MEMORIZE_INI, "task", {"task": "superres", "factor": 0}),
    "signal_dim_image_task": ("train", MEMORIZE_INI, "task", {"signal_dim": 5}),
    "n_train_zero": ("train", MEMORIZE_INI, "task", {"n_train": 0}),
    "n_train_negative": ("train", MEMORIZE_INI, "task", {"n_train": -1}),
    "seed": ("train", MEMORIZE_INI, "task", {"seed": -1}),
    "gauss_var": ("train", GAUSS_TOY_INI, "task", {"gauss_var": -1}),
    "mix_std": ("train", GAUSS_TOY_INI, "task", {"dataset": "mixture", "mix_std": 0}),
    "field_scale": ("train", MEMORIZE_INI, "task", {"dataset": "field", "field_scale": 0}),
    "sigma1_sq": ("train", MEMORIZE_INI, "task", {"task": "ct", "sigma1_sq": -1}),
    "sigma2_sq": ("train", MEMORIZE_INI, "task", {"task": "mri", "sigma2_sq": -1}),
    "latent_dim": ("train", MEMORIZE_INI, "task", {"task": "ct", "latent_dim": 0}),
    "noise_var": ("train", GAUSS_TOY_INI, "task", {"noise_var": -1}),
    "dense_m": ("train", GAUSS_TOY_INI, "task", {"dense_m": 0}),
    "n_steps": ("sample", GAUSS_TOY_INI, "sample", {"n_steps": 0}),
    "keep_every": ("sample", GAUSS_TOY_INI, "sample", {"keep_every": -1}),
    # a kept state needs a step: keep_every is at most n_steps
    "keep_every_above_n_steps": ("sample", GAUSS_TOY_INI, "sample", {"n_steps": 10, "keep_every": 50}),
    "time_grid": ("sample", GAUSS_TOY_INI, "sample", {"time_grid": "foo"}),
    # noiseless chains always pin their range part: range_lock is no key
    "range_lock": ("sample", GAUSS_TOY_INI, "sample", {"range_lock": "true"}),
    # a non-finite float is refused where it is read, whatever the range check
    "lr_nan": ("train", MEMORIZE_INI, "train", {"lr": "nan"}),
    "b0_nan": ("train", MEMORIZE_INI, "schedule", {"b0": "nan"}),
    "sigma2_sq_inf": ("train", MEMORIZE_INI, "task", {"task": "mri", "sigma2_sq": "inf"}),
    "eval_values_nan": ("train", MEMORIZE_INI, "eval", {"param": "noise_var", "values": "1,nan"}),
    # 25 labels on a 7x7 image: round(1.5) + round(23.5) = 26 of them
    "mri_rounded_overselection": (
        "train", MEMORIZE_INI, "task", {"task": "mri", "image_side": 7, "lambda1": 6, "lambda2": 94}
    ),
    # an mri system needs a row: no percentages, or 16 % + 30 % of one label rounding to 0
    "mri_keeps_no_frequency": ("train", MEMORIZE_INI, "task", {"task": "mri", "lambda1": 0, "lambda2": 0}),
    "mri_side_one_keeps_no_frequency": ("train", MEMORIZE_INI, "task", {"task": "mri", "image_side": 1}),
    "train_seed": ("train", MEMORIZE_INI, "train", {"seed": -1}),
    "sample_seed": ("sample", GAUSS_TOY_INI, "sample", {"seed": -1}),
    "n_samples_negative": ("sample", GAUSS_TOY_INI, "sample", {"n_samples": -1}),
    "n_samples_zero": ("sample", GAUSS_TOY_INI, "sample", {"n_samples": 0}),
    # [eval] is read by misspec only, but checked whatever the command
    "eval_seed": ("train", MEMORIZE_INI, "eval", {"seed": -1}),
    "n_draws_negative": ("train", MEMORIZE_INI, "eval", {"n_draws": -1}),
    "n_draws_zero": ("train", MEMORIZE_INI, "eval", {"n_draws": 0}),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_value_exit_2_with_one_line(tmp_path, capsys, case):
    command, base, section, keys = OUT_OF_RANGE[case]
    cfg, out = write_config(tmp_path, _override(base, section, **keys))
    extra = ["--oracle-denoiser", "--simulate"] if command == "sample" else []
    capsys.readouterr()
    code = cli.main([command, "--config", str(cfg), *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert not out.exists()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: tasks.TaskSpec(sigma2_sq=NAN),
    lambda: tasks.TaskSpec(tau=NAN),
    lambda: tasks.TaskSpec(gauss_mean=INF),  # a field without a range check
    lambda: ScheduleSpec("sb", b0=NAN),
    lambda: ScheduleSpec("ve", sigma_max=NAN),
    lambda: dn.TrainConfig(lr=NAN),
    lambda: dn.TrainConfig(adam_beta1=NAN),
    lambda: EvalSection(values=(1.0, NAN)),
], ids=["sigma2_sq", "tau", "gauss_mean", "b0", "sigma_max", "lr", "adam_beta1", "eval_values"])
def test_section_constructors_refuse_non_finite_floats(build):
    # range checks such as `x < 0` let NaN through; every section refuses it
    with pytest.raises(ValueError, match="must be finite"):
        build()


@pytest.mark.parametrize("command", ["train", "sample", "misspec"])
def test_negative_seed_flag_exit_2_with_one_line(tmp_path, capsys, command):
    cfg, _ = write_config(tmp_path, MEMORIZE_INI)
    ckpt = tmp_path / "net.ckpt"
    net = dn.init_net(16, hidden=(8,), seed=0)
    save_for(ckpt, net, cfg)
    extra = {
        "train": [],
        "sample": ["--checkpoint", str(ckpt), "--simulate"],
        "misspec": ["--checkpoint", str(ckpt)],
    }[command]
    capsys.readouterr()
    code = cli.main([command, "--config", str(cfg), "--seed", "-1",
                     "--output", str(tmp_path / "run"), *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1, err


REPO = Path(__file__).resolve().parents[1]


def _readme_example():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_config_example_parses():
    cfg = parse_config_text(_readme_example())
    assert cfg.task.task == "mri" and cfg.eval.param == "lambda1"


README_BLOCKS = {
    "task": """\
task = mri
image_side = 16
signal_dim = 0
mask_fraction = 0.5
factor = 4
tau = 0.05
sigma1_sq = 0.0001
latent_dim = 16
lambda1 = 16.0
lambda2 = 30.0
sigma2_sq = 0.05
dense_m = 2
noise_var = 0.0
contrast_k = 4.0
contrast_a = 0.5
seed = 4
dataset = blobs
n_train = 2048
data_seed = 21
gauss_mean = 0.0
gauss_var = 1.0
field_scale = 3.0
field_amp = 0.1
field_mean = 0.5
mix_sep = 2.0
mix_std = 0.5
mix_coord = -1
point_value = 0.5""",
    "train": """\
lr = 0.001
adam_beta1 = 0.9
adam_beta2 = 0.99
batch_size = 8
n_epochs = 80
seed = 2
lr_milestones = 30,50,65
hidden = 256
activation = silu""",
    "sample": """\
n_steps = 100
n_samples = 16
seed = 0
keep_every = 0
time_grid = uniform""",
}


@pytest.mark.parametrize("section", list(README_BLOCKS))
def test_readme_example_task_block(section):
    # a section's keys and their order are the config_resolved.ini format
    text = serialize_config(parse_config_text(_readme_example()))
    assert text.split(f"[{section}]\n", 1)[1].split("\n\n", 1)[0] == README_BLOCKS[section]


class TestTrain:
    def test_memorization_smoke(self, tmp_path):
        cfg, out = write_config(tmp_path, MEMORIZE_INI)
        assert cli.main(["train", "--config", str(cfg)]) == 0
        rows = (out / "loss.csv").read_text().strip().splitlines()
        assert rows[0] == "epoch,mean_loss"
        final_loss = float(rows[-1].split(",")[1])
        assert final_loss < 1e-3
        assert (out / "checkpoint.ckpt").exists()
        assert (out / "config_resolved.ini").exists()

    def test_loss_csv_byte_identical_across_runs(self, tmp_path):
        cfg, out = write_config(tmp_path, MEMORIZE_INI)
        assert cli.main(["train", "--config", str(cfg)]) == 0
        first = (out / "loss.csv").read_bytes()
        assert cli.main(["train", "--config", str(cfg)]) == 0
        assert (out / "loss.csv").read_bytes() == first


class TestSample:
    @pytest.fixture()
    def trained(self, tmp_path):
        cfg, out = write_config(tmp_path, MEMORIZE_INI)
        assert cli.main(["train", "--config", str(cfg)]) == 0
        return cfg, out

    def test_identity_system_psnr_cap(self, trained, tmp_path):
        cfg, out = trained
        out2 = tmp_path / "sampled"
        code = cli.main([
            "sample", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.ckpt"),
            "--simulate", "--output", str(out2),
        ])
        assert code == 0
        rows = (out2 / "metrics.csv").read_text().strip().splitlines()
        assert len(rows) == 4  # header + 3 samples
        for row in rows[1:]:
            assert float(row.split(",")[4]) == 100.0

    def test_metrics_byte_identical(self, trained, tmp_path):
        cfg, out = trained
        blobs = []
        for sub in ("s1", "s2"):
            dest = tmp_path / sub
            assert cli.main([
                "sample", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.ckpt"),
                "--simulate", "--output", str(dest),
            ]) == 0
            blobs.append((dest / "metrics.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_measurement_tensor_input(self, trained, tmp_path):
        cfg, out = trained
        y = np.full((2, 16), 0.6)
        ypath = tmp_path / "y.sdbt"
        tensorio.save_tensor(ypath, y)
        dest = tmp_path / "from-file"
        assert cli.main([
            "sample", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.ckpt"),
            "--measurements", str(ypath), "--output", str(dest),
        ]) == 0
        samples = tensorio.load_tensor(dest / "samples.sdbt")
        assert samples.shape == (2, 16)
        np.testing.assert_allclose(samples, 0.6, atol=1e-12)  # identity + range lock

    def test_one_dimensional_measurements_are_one_row(self, tmp_path):
        cfg, _ = write_config(tmp_path, MEMORIZE_INI)
        ckpt = tmp_path / "net.ckpt"
        save_for(ckpt, dn.init_net(16, hidden=(8,), seed=0), cfg)
        blobs = []
        for shape in ((16,), (1, 16)):
            ypath = tmp_path / f"y{len(shape)}.sdbt"
            tensorio.save_tensor(ypath, np.full(shape, 0.6))
            dest = tmp_path / f"from-{len(shape)}d"
            assert cli.main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt),
                             "--measurements", str(ypath), "--output", str(dest)]) == 0
            samples = tensorio.load_tensor(dest / "samples.sdbt")
            assert samples.shape == (1, 16)
            blobs.append(samples.tobytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("keep_every", [10, 20])
    def test_kept_states_written_as_trace(self, tmp_path, keep_every):
        cfg, _ = write_config(tmp_path, _override(MEMORIZE_INI, "sample", keep_every=keep_every))
        ckpt = tmp_path / "net.ckpt"
        save_for(ckpt, dn.init_net(16, hidden=(8,), seed=0), cfg)
        dest = tmp_path / "kept"
        assert cli.main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt),
                         "--simulate", "--output", str(dest)]) == 0
        trace = tensorio.load_tensor(dest / "trace.sdbt")
        samples = tensorio.load_tensor(dest / "samples.sdbt")
        assert trace.shape == (50 // keep_every, 3, 16)  # n_steps = 50, n_samples = 3
        if 50 % keep_every == 0:
            assert trace[-1].tobytes() == samples.tobytes()

    def test_schedule_hash_mismatch_refused(self, trained, tmp_path):
        cfg, out = trained
        other = tmp_path / "other.ini"
        other.write_text(
            MEMORIZE_INI.format(out=tmp_path / "o2").replace("variant = sb", "variant = vp"),
            encoding="utf-8",
        )
        code = cli.main([
            "sample", "--config", str(other), "--checkpoint", str(out / "checkpoint.ckpt"),
            "--simulate",
        ])
        assert code == 2

    def test_checkpoint_names_its_system(self, trained):
        cfg, out = trained
        _, _, header = dn.load_checkpoint(out / "checkpoint.ckpt")
        assert header["system_hash"] == tasks.system_hash(parse_config(cfg).task)

    @pytest.mark.parametrize("command", ["sample", "misspec"])
    def test_system_mismatch_exit_2_with_one_line(self, trained, tmp_path, capsys, command):
        # the same schedule and signal width, another mask
        cfg, out = trained
        other, _ = write_config(tmp_path, _override(MEMORIZE_INI, "task", mask_fraction=0.5), "other.ini")
        extra = ["--simulate"] if command == "sample" else []
        capsys.readouterr()
        code = cli.main([command, "--config", str(other), "--checkpoint", str(out / "checkpoint.ckpt"),
                         "--output", str(tmp_path / "run"), *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: checkpoint system does not match") and err.count("\n") == 1, err

    def test_untrainable_width_exit_2_with_one_line(self, tmp_path, capsys):
        # a 1e12-wide hidden layer: numpy refuses the allocation at once
        cfg, _ = write_config(tmp_path, _override(MEMORIZE_INI, "train", hidden=10 ** 12))
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err

    def test_oracle_denoiser_above_dense_limit_exit_2_with_one_line(self, tmp_path, capsys):
        # 17 x 17 = 289 signal dims, above the oracle's dense limit of 256
        cfg, _ = write_config(tmp_path, _override(MEMORIZE_INI, "task", image_side=17, dataset="field"))
        capsys.readouterr()
        assert cli.main(["sample", "--config", str(cfg), "--oracle-denoiser", "--simulate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err

    def test_overflowing_checkpoint_exit_1_with_one_line(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, MEMORIZE_INI)
        net = dn.init_net(16, hidden=(8,), seed=0)
        net.flat[:] = 1e200  # finite weights whose products overflow
        ckpt = tmp_path / "overflow.ckpt"
        save_for(ckpt, net, cfg)
        capsys.readouterr()
        with np.errstate(all="ignore"):
            code = cli.main([
                "sample", "--config", str(cfg), "--checkpoint", str(ckpt), "--simulate",
                "--output", str(tmp_path / "run"),
            ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("numerical failure: chain diverged at step 0 ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("sources", [
        ["--oracle-denoiser", "--simulate", "--measurements", "y.sdbt"],
        ["--oracle-denoiser", "--checkpoint", "missing.ckpt", "--measurements", "y.sdbt"],
    ], ids=["simulate_and_measurements", "oracle_and_checkpoint"])
    def test_conflicting_sources_exit_2_with_one_line(self, tmp_path, capsys, sources):
        cfg, out = write_config(tmp_path, GAUSS_TOY_INI)
        tensorio.save_tensor(tmp_path / "y.sdbt", np.zeros((2, 2)))
        argv = [str(tmp_path / a) if a.endswith((".sdbt", ".ckpt")) else a for a in sources]
        capsys.readouterr()
        assert cli.main(["sample", "--config", str(cfg), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sample takes --") and err.count("\n") == 1, err
        assert not out.exists()

    def test_oracle_denoiser_posterior_artifacts(self, tmp_path):
        cfg, out = write_config(tmp_path, GAUSS_TOY_INI)
        code = cli.main(["sample", "--config", str(cfg), "--oracle-denoiser", "--simulate"])
        assert code == 0
        text = (out / "posterior_moments.csv").read_text().strip().splitlines()
        assert text[0] == "stat,i,j,empirical,analytic"
        # empirical moments should be in the right ballpark of the analytic ones
        rows = [r.split(",") for r in text[1:]]
        mean_rows = [r for r in rows if r[0] == "mean"]
        err = max(abs(float(r[3]) - float(r[4])) for r in mean_rows)
        assert err < 0.2


class TestVerifyCommand:
    def test_g2_suite_passes_and_writes_report(self, tmp_path):
        dest = tmp_path / "rep"
        assert cli.main(["verify", "g2", "--output", str(dest)]) == 0
        rows = (dest / "verify_g2.csv").read_text().strip().splitlines()
        assert rows[0] == "suite,check,status,value,tolerance"
        assert all(r.split(",")[2] == "pass" for r in rows[1:])

    def test_otode_suite(self):
        assert cli.main(["verify", "otode"]) == 0

    def test_value_and_tolerance_cells_are_plain_numbers(self, tmp_path, capsys):
        # the suite's values are numpy scalars; each cell reads back as a float
        dest = tmp_path / "rep"
        assert cli.main(["verify", "gradients", "--output", str(dest)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        rows = (dest / "verify_gradients.csv").read_text().strip().splitlines()
        assert rows[1:] == printed and printed
        for row in printed:
            value, tolerance = row.split(",")[3:]
            assert float(value) >= 0 and float(tolerance) > 0


MRI_7_INI = _override(MEMORIZE_INI, "task", task="mri", image_side=7, lambda1=5, lambda2=94)


class TestMisspec:
    def test_empty_sweep_header_only(self, tmp_path):
        cfg, out = write_config(tmp_path, MEMORIZE_INI)
        assert cli.main(["train", "--config", str(cfg)]) == 0
        dest = tmp_path / "mis"
        code = cli.main([
            "misspec", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.ckpt"),
            "--output", str(dest),
        ])
        assert code == 0
        rows = (dest / "metrics.csv").read_text().strip().splitlines()
        assert rows == ["run_id,task,variant,perturbation,psnr,ssim,n_samples,seed"]

    @pytest.mark.parametrize("sweep, expected", [
        ([], ["noise_var=0.5"]),
        (["--param", "noise_var"], ["noise_var=0.5"]),
        (["--values", "0.25"], ["noise_var=0.25"]),
        (["--param", "lambda1", "--values", "4"], ["lambda1=4"]),
        (["--param", "lambda1"], None),  # no values of its own
    ])
    def test_param_takes_eval_values_only_for_eval_param(self, tmp_path, capsys, sweep, expected):
        text = _override(_override(MRI_7_INI, "eval", param="noise_var", values="0.5", n_draws=1),
                         "sample", n_steps=2)
        cfg, _ = write_config(tmp_path, text)
        ckpt = tmp_path / "net.ckpt"
        save_for(ckpt, dn.init_net(49, hidden=(8,)), cfg)
        dest = tmp_path / "mis"
        capsys.readouterr()
        code = cli.main(["misspec", "--config", str(cfg), "--checkpoint", str(ckpt),
                         "--output", str(dest), *sweep])
        if expected is None:
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("config error: --param lambda1 needs --values") and err.count("\n") == 1, err
        else:
            assert code == 0
            rows = (dest / "misspec_summary.csv").read_text().strip().splitlines()[1:]
            assert [row.split(",")[0] for row in rows] == expected

    def test_one_draw_leaves_both_spreads_empty(self, tmp_path):
        # SSIM applies from side 8 on; one draw has no spread, and its
        # standard deviation must not read nan (nor warn)
        text = _override(_override(_override(MEMORIZE_INI, "task", task="mri", image_side=8),
                                   "eval", n_draws=1), "sample", n_steps=2)
        cfg, _ = write_config(tmp_path, text)
        ckpt = tmp_path / "net.ckpt"
        save_for(ckpt, dn.init_net(64, hidden=(8,)), cfg)
        dest = tmp_path / "mis"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["misspec", "--config", str(cfg), "--checkpoint", str(ckpt),
                             "--output", str(dest), "--param", "noise_var", "--values", "0.1"])
        assert code == 0
        rows = (dest / "misspec_summary.csv").read_text().strip().splitlines()
        label, psnr_mean, psnr_sd, ssim_mean, ssim_sd, n_draws = rows[1].split(",")
        assert (label, psnr_sd, ssim_sd, n_draws) == ("noise_var=0.1", "", "", "1")
        assert np.isfinite(float(psnr_mean)) and np.isfinite(float(ssim_mean))

    def test_vector_task_exit_2(self, tmp_path, capsys):
        # dense and contrast have no deployment-time perturbation
        cfg, _ = write_config(tmp_path, GAUSS_TOY_INI)
        ckpt = tmp_path / "net.ckpt"
        save_for(ckpt, dn.init_net(4, hidden=(8,)), cfg)
        capsys.readouterr()
        code = cli.main(["misspec", "--config", str(cfg), "--checkpoint", str(ckpt),
                         "--output", str(tmp_path / "mis")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "text, sweep",
        [
            (MEMORIZE_INI, ["--param", "noise_var", "--values", "a"]),  # an inpainting task
            (MEMORIZE_INI, ["--values", "a"]),
            (MEMORIZE_INI, ["--param", "tau", "--values", "0.1"]),
            (MEMORIZE_INI, ["--param", "lambda1", "--values", "10"]),
            (MEMORIZE_INI, ["--param", "poisson_i0", "--values", "1000"]),
            # on a task where the parameter applies, the value itself is refused
            (MRI_7_INI, ["--param", "noise_var", "--values", "nan"]),
            (MRI_7_INI, ["--param", "noise_var", "--values", "1,inf"]),
            # lambda1 = 6 with lambda2 = 94 selects 26 of a 7x7 image's 25 labels
            (MRI_7_INI, ["--param", "lambda1", "--values", "6"]),
        ],
        ids=["values_not_a_number", "values_without_param", "tau_not_ct",
             "lambda1_not_mri", "poisson_not_ct", "values_not_finite", "values_infinite",
             "lambda1_rounded_overselection"],
    )
    def test_sweep_that_does_not_fit_exit_2(self, tmp_path, capsys, text, sweep):
        cfg, _ = write_config(tmp_path, text)
        ckpt = tmp_path / "net.ckpt"
        parsed = parse_config(cfg)
        net = dn.init_net(parsed.task.d, hidden=(8,), seed=0)
        save_for(ckpt, net, cfg)
        capsys.readouterr()
        code = cli.main(["misspec", "--config", str(cfg), "--checkpoint", str(ckpt),
                         "--output", str(tmp_path / "mis"), *sweep])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1, err


# usage errors that the arguments and the config decide; CKPT is a
# checkpoint that fits the config, Y a measurement tensor that does not
USAGE_ERRORS = {
    "sample_without_checkpoint": (MEMORIZE_INI, ["sample", "--simulate"]),
    "sample_without_source": (MEMORIZE_INI, ["sample", "--checkpoint", "CKPT"]),
    "sample_with_two_sources": (MEMORIZE_INI, ["sample", "--checkpoint", "CKPT", "--simulate",
                                               "--measurements", "Y"]),
    "oracle_and_checkpoint": (GAUSS_TOY_INI, ["sample", "--oracle-denoiser", "--checkpoint", "CKPT",
                                              "--simulate"]),
    "oracle_without_prior": (MEMORIZE_INI, ["sample", "--oracle-denoiser", "--simulate"]),
    "measurements_of_another_width": (MEMORIZE_INI, ["sample", "--checkpoint", "CKPT",
                                                     "--measurements", "Y"]),
    "misspec_without_checkpoint": (MEMORIZE_INI, ["misspec"]),
    "misspec_vector_task": (GAUSS_TOY_INI, ["misspec", "--checkpoint", "CKPT"]),
    "param_without_values": (_override(MRI_7_INI, "eval", param="noise_var", values="0.5"),
                             ["misspec", "--checkpoint", "CKPT", "--param", "lambda1"]),
    "values_without_param": (MEMORIZE_INI, ["misspec", "--checkpoint", "CKPT", "--values", "0.1"]),
    "sweep_that_does_not_fit": (MEMORIZE_INI, ["misspec", "--checkpoint", "CKPT",
                                               "--param", "tau", "--values", "0.1"]),
    # an empty sweep must fit its task as well (inpainting has no lambda1)
    "empty_sweep_that_does_not_fit": (_override(MEMORIZE_INI, "eval", param="lambda1"),
                                      ["misspec", "--checkpoint", "CKPT"]),
    # refused while the system, data and network are built, before the run starts
    "train_above_dense_limit": (_override(MEMORIZE_INI, "task", task="contrast", signal_dim=300,
                                          dataset="gaussian"), ["train"]),
    "train_unallocatable_width": (_override(MEMORIZE_INI, "train", hidden=10 ** 11), ["train"]),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_exit_2_with_one_line_and_no_output(tmp_path, capsys, case):
    text, argv = USAGE_ERRORS[case]
    cfg, out = write_config(tmp_path, text)
    ckpt = tmp_path / "net.ckpt"
    save_for(ckpt, dn.init_net(parse_config(cfg).task.d, hidden=(8,), seed=0), cfg)
    tensorio.save_tensor(tmp_path / "y.sdbt", np.zeros((2, 3)))
    paths = {"CKPT": str(ckpt), "Y": str(tmp_path / "y.sdbt")}
    capsys.readouterr()
    code = cli.main([argv[0], "--config", str(cfg), *(paths.get(a, a) for a in argv[1:])])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert not out.exists()


def _drop_header_line(blob, key):
    head, sep, tail = blob.partition(b"---\n")
    lines = [ln for ln in head.split(b"\n") if not ln.startswith(key.encode() + b"=")]
    return b"\n".join(lines) + sep + tail


def _replace_header_line(blob, key, value):
    head, sep, tail = blob.partition(b"---\n")
    lines = [
        key.encode() + b"=" + value.encode() if ln.startswith(key.encode() + b"=") else ln
        for ln in head.split(b"\n")
    ]
    return b"\n".join(lines) + sep + tail


def _legacy_checkpoint(blob, time_embed="sinusoidal", time_freqs=8, input_width=None):
    """``blob`` as checkpoints were written while the time embedding was a
    [train] setting: the header also names the embedding.  With
    ``input_width`` the net takes that many inputs, as one built for another
    embedding did; its first weights keep their leading rows."""
    head, sep, tail = blob.partition(b"---\n")
    head = head.replace(
        b"\nschedule_variant=",
        f"\ntime_embed={time_embed}\ntime_freqs={time_freqs}\nschedule_variant=".encode(),
    )
    if input_width is None:
        return head + sep + tail
    head = re.sub(rb"layer_dims=\d+", b"layer_dims=%d" % input_width, head)
    records = io.BytesIO(tail)
    first = tensorio.read_tensor(records)[:input_width]
    return head + sep + _tensor_bytes(first) + records.read()


def _nan_first_weight(blob):
    """``blob`` with a NaN as the first entry of the first weight matrix."""
    head, sep, tail = blob.partition(b"---\n")
    records = io.BytesIO(tail)
    first = tensorio.read_tensor(records)
    first[0, 0] = np.nan
    return head + sep + _tensor_bytes(first) + records.read()


# each turns a valid checkpoint's bytes into a broken one (None: no file)
BROKEN_CHECKPOINTS = {
    "missing_file": None,
    "missing_header_key": lambda blob: _drop_header_line(blob, "activation"),
    "truncated_tensor": lambda blob: blob[:-12],
    # the hidden width disagrees with the tensors, the signal width does not
    "shape_mismatch": lambda blob: _replace_header_line(blob, "layer_dims", "32,6,16"),
    # nets of the other time embeddings: 16 + 1 and 16 + 2 * 4 inputs
    "append_scalar_embedding": lambda blob: _legacy_checkpoint(blob, "append_scalar", 8, 17),
    "four_time_frequencies": lambda blob: _legacy_checkpoint(blob, "sinusoidal", 4, 24),
    "non_finite_parameter": _nan_first_weight,
    # written before the system hash, or for another system
    "missing_system_hash": lambda blob: _drop_header_line(blob, "system_hash"),
    "other_system": lambda blob: _replace_header_line(
        blob, "system_hash", tasks.system_hash(tasks.TaskSpec(task="ct", image_side=4))
    ),
    # a 1e12-wide hidden layer: numpy refuses the allocation at once
    "unallocatable_width": lambda blob: _replace_header_line(blob, "layer_dims", "80,1000000000000,64"),
}


class TestBrokenCheckpoint:
    """Every unusable checkpoint ends in one config-error line and exit 2."""

    @pytest.fixture()
    def checkpoint(self, tmp_path):
        cfg, _ = write_config(tmp_path, MEMORIZE_INI)
        net = dn.init_net(16, hidden=(8,), seed=0)
        path = tmp_path / "good.ckpt"
        save_for(path, net, cfg)
        return cfg, path

    @pytest.mark.parametrize("command", ["sample", "misspec"])
    def test_valid_checkpoint_runs(self, checkpoint, tmp_path, command):
        cfg, path = checkpoint
        extra = ["--simulate"] if command == "sample" else []
        assert cli.main([command, "--config", str(cfg), "--checkpoint", str(path),
                         "--output", str(tmp_path / "run"), *extra]) == 0

    @pytest.mark.parametrize("command", ["sample", "misspec"])
    @pytest.mark.parametrize("fault", sorted(BROKEN_CHECKPOINTS))
    def test_exit_2_with_one_line(self, checkpoint, tmp_path, capsys, command, fault):
        cfg, good = checkpoint
        bad = tmp_path / "bad.ckpt"
        corrupt = BROKEN_CHECKPOINTS[fault]
        if corrupt is not None:
            bad.write_bytes(corrupt(good.read_bytes()))
        extra = ["--simulate"] if command == "sample" else []
        capsys.readouterr()
        code = cli.main([command, "--config", str(cfg), "--checkpoint", str(bad),
                         "--output", str(tmp_path / "run"), *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1, err

    def test_signal_width_other_than_the_system_exit_2(self, checkpoint, tmp_path):
        cfg, _ = checkpoint
        other = tmp_path / "other.ckpt"
        save_for(other, dn.init_net(9, hidden=(8,)), cfg)
        assert cli.main(["sample", "--config", str(cfg), "--checkpoint", str(other), "--simulate",
                         "--output", str(tmp_path / "run")]) == 2


def test_checkpoint_naming_the_fixed_embedding_samples_the_same_bytes(tmp_path):
    # a noisy dense system, on which the samples depend on the network
    cfg, _ = write_config(tmp_path, _override(GAUSS_TOY_INI, "sample", n_samples=8, n_steps=20))
    new = tmp_path / "new.ckpt"
    save_for(new, dn.init_net(4, hidden=(8,), seed=3), cfg)
    legacy = tmp_path / "legacy.ckpt"
    legacy.write_bytes(_legacy_checkpoint(new.read_bytes()))
    assert b"\ntime_embed=sinusoidal\ntime_freqs=8\n" in legacy.read_bytes()
    blobs = []
    for ckpt in (new, legacy):
        dest = tmp_path / ckpt.stem
        assert cli.main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt),
                         "--simulate", "--output", str(dest)]) == 0
        blobs.append((dest / "samples.sdbt").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("dataset, images", [("gaussian", False), ("field", True)])
def test_ssim_only_for_image_draws(tmp_path, dataset, images):
    # a dense task's 64-vectors are images only when its dataset draws images
    text = _override(GAUSS_TOY_INI, "task", signal_dim=0, dataset=dataset)
    cfg, _ = write_config(tmp_path, _override(text, "sample", n_samples=3, n_steps=10))
    ckpt = tmp_path / "net.ckpt"
    save_for(ckpt, dn.init_net(64, hidden=(8,), seed=3), cfg)
    dest = tmp_path / "run"
    assert cli.main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--simulate", "--output", str(dest)]) == 0
    rows = [r.split(",") for r in (dest / "metrics.csv").read_text().strip().splitlines()[1:]]
    assert len(rows) == 3
    for row in rows:
        assert np.isfinite(float(row[4]))
        assert (row[5] != "") == images


def _tensor_bytes(array):
    buf = io.BytesIO()
    tensorio.write_tensor(buf, array)
    return buf.getvalue()


# each is the content of a bad --measurements file (None: no file)
BROKEN_MEASUREMENTS = {
    "missing_file": None,
    "truncated_record": _tensor_bytes(np.full((2, 16), 0.6))[:-8],
    # a 28-byte record whose header claims 2^31 x 2^31 elements
    "oversized_header": tensorio.MAGIC + struct.pack("<3I", 2, 2 ** 31, 2 ** 31) + bytes(12),
    "nan_entry": _tensor_bytes(np.r_[np.full(31, 0.6), np.nan].reshape(2, 16)),
    "inf_entry": _tensor_bytes(np.r_[np.full(31, 0.6), np.inf].reshape(2, 16)),
}


class TestBrokenMeasurements:
    """Every unreadable measurement file ends in one config-error line and exit 2."""

    @pytest.mark.parametrize("fault", sorted(BROKEN_MEASUREMENTS))
    def test_exit_2_with_one_line(self, tmp_path, capsys, fault):
        cfg, _ = write_config(tmp_path, MEMORIZE_INI)
        ckpt = tmp_path / "net.ckpt"
        save_for(ckpt, dn.init_net(16, hidden=(8,)), cfg)
        ypath = tmp_path / "y.sdbt"
        if BROKEN_MEASUREMENTS[fault] is not None:
            ypath.write_bytes(BROKEN_MEASUREMENTS[fault])
        capsys.readouterr()
        code = cli.main(["sample", "--config", str(cfg), "--checkpoint", str(ckpt),
                         "--measurements", str(ypath), "--output", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1, err


THREADS_INI = """
[run]
run_id = threads
output_dir = {out}

[task]
task = mri
image_side = 8
sigma2_sq = 0.001
dataset = field
n_train = 64

[train]
lr = 0.001
batch_size = 32
n_epochs = 1
lr_milestones =
hidden = 256

[sample]
n_steps = 10
n_samples = 512
"""


class TestThreads:
    def test_sample_bytes_independent_of_thread_count(self, tmp_path):
        # 512 chains through a 256-wide network: matmuls large enough for
        # OpenBLAS to split them across threads
        cfg, out = write_config(tmp_path, THREADS_INI)
        assert cli.main(["train", "--config", str(cfg)]) == 0
        blobs = []
        for threads in ("1", "2"):
            dest = tmp_path / f"threads-{threads}"
            assert cli.main([
                "sample", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.ckpt"),
                "--simulate", "--output", str(dest), "--threads", threads,
            ]) == 0
            blobs.append([(dest / name).read_bytes() for name in ("samples.sdbt", "metrics.csv")])
        assert blobs[0] == blobs[1]

    def test_train_bytes_independent_of_thread_count(self, tmp_path):
        # a 16x16 field: the dataset draw is a 256-wide product with the
        # Fourier basis, large enough for OpenBLAS to split it across threads
        cfg, _ = write_config(tmp_path, _override(THREADS_INI, "task", image_side=16))
        blobs = []
        for threads in ("1", "2"):
            dest = tmp_path / f"threads-{threads}"
            assert cli.main(["train", "--config", str(cfg), "--output", str(dest),
                             "--threads", threads]) == 0
            blobs.append([(dest / name).read_bytes() for name in ("loss.csv", "checkpoint.ckpt")])
        assert blobs[0] == blobs[1]

    def test_oracle_sample_bytes_independent_of_thread_count(self, tmp_path):
        # a 256-dim field prior: the oracle's eigh and dense products are
        # large enough for OpenBLAS to split them across threads
        text = _override(_override(THREADS_INI, "task", image_side=16, seed=4), "sample", n_samples=64)
        cfg, _ = write_config(tmp_path, text)
        blobs = []
        for threads in ("1", "2"):
            dest = tmp_path / f"threads-{threads}"
            assert cli.main(["sample", "--config", str(cfg), "--oracle-denoiser", "--simulate",
                             "--output", str(dest), "--threads", threads]) == 0
            blobs.append([(dest / name).read_bytes()
                          for name in ("samples.sdbt", "posterior_moments.csv")])
        assert blobs[0] == blobs[1]

    def test_thread_count_restored_after_command(self):
        before = cli.set_blas_threads(1)
        if before is None:
            pytest.skip("numpy does not use its bundled OpenBLAS")
        try:
            assert cli.main(["verify", "otode", "--threads", "2"]) == 0
            assert cli.set_blas_threads(1) == 1
        finally:
            cli.set_blas_threads(before)

    def test_zero_threads_exit_2(self):
        assert cli.main(["verify", "otode", "--threads", "0"]) == 2


def test_config_roundtrip_identity(tmp_path):
    # one test over every config, so that its id stays what it was
    configs = {
        "gauss_toy": GAUSS_TOY_INI.format(out=tmp_path),
        "contrast": CONTRAST_INI.format(out=tmp_path),
        "memorize": MEMORIZE_INI.format(out=tmp_path),
        "readme": _readme_example(),
        "misspec_mri": (REPO / "configs" / "misspec_mri.ini").read_text(encoding="utf-8"),
    }
    for name, text in configs.items():
        parsed = parse_config_text(text)
        resolved = serialize_config(parsed)
        assert parse_config_text(resolved) == parsed, name
        assert serialize_config(parse_config_text(resolved)) == resolved, name


_counts = st.integers(1, 10 ** 6)
_seeds = st.integers(0, 2 ** 63)
_unit = st.floats(0.0, 1.0, exclude_max=True)
TRAIN_SECTIONS = st.builds(
    dn.TrainConfig,
    lr=st.floats(0.0, 1e300), adam_beta1=_unit, adam_beta2=_unit, batch_size=_counts,
    n_epochs=st.integers(0, 10 ** 6), seed=_seeds,
    lr_milestones=st.lists(st.integers(-10, 10 ** 6), max_size=5).map(tuple),
    hidden=st.lists(_counts, max_size=4).map(tuple), activation=st.sampled_from(dn.ACTIVATIONS),
)
SAMPLE_KEYS = _counts.flatmap(lambda n_steps: st.fixed_dictionaries({
    "n_steps": st.just(n_steps), "n_samples": _counts, "seed": _seeds,
    "keep_every": st.integers(0, n_steps), "time_grid": st.sampled_from(sampler.TIME_GRIDS),
}))


@settings(max_examples=200, deadline=None)
@given(TRAIN_SECTIONS, SAMPLE_KEYS)
def test_train_and_sample_sections_survive_serialize_then_parse(train, sample):
    base = parse_config_text("")
    cfg = dataclasses.replace(
        base, train=train, sample=sampler.SamplerConfig(**sample, spec=base.schedule)
    )
    assert parse_config_text(serialize_config(cfg)) == cfg



def _constructed(cls, **fields):
    """A strategy for ``cls(**drawn fields)`` that skips values it refuses."""

    def build(kwargs):
        try:
            return cls(**kwargs)
        except ValueError:
            reject()

    return st.fixed_dictionaries(fields).map(build)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(1e-6, 1e6)
SCHEDULE_SECTIONS = _constructed(
    ScheduleSpec, variant=st.sampled_from(VARIANTS), b0=_positive, b1=_positive,
    sigma_max=st.floats(1.0, 1e6), eps1=st.floats(0.0, 0.5), eps2=st.floats(0.0, 0.5),
)
EVAL_SECTIONS = _constructed(
    EvalSection, param=st.sampled_from(("",) + tasks.SWEEP_PARAMS),
    values=st.lists(_finite, max_size=5).map(tuple), n_draws=_counts, seed=_seeds,
)
_side = st.integers(1, 12)
TASK_SECTIONS = _constructed(
    tasks.TaskSpec, task=st.sampled_from(tasks.TASKS + tasks.VECTOR_TASKS),
    image_side=_side, signal_dim=st.one_of(st.just(0), st.integers(1, 144)),
    mask_fraction=_unit, factor=st.integers(1, 4), tau=st.floats(0.0, 10.0),
    sigma1_sq=st.floats(0.0, 10.0), latent_dim=st.integers(1, 64),
    lambda1_pct=st.floats(0.0, 50.0), lambda2_pct=st.floats(0.0, 50.0),
    sigma2_sq=st.floats(0.0, 10.0), dense_m=st.integers(1, 64), noise_var=st.floats(0.0, 10.0),
    contrast_k=_finite, contrast_a=_finite, seed=_seeds, dataset=st.sampled_from(tasks.DATASETS),
    n_train=_counts, data_seed=_seeds, gauss_mean=_finite, gauss_var=_positive,
    field_scale=_positive, field_amp=st.floats(0.0, 1e6), field_mean=_finite, mix_sep=_finite,
    mix_std=_positive, mix_coord=st.integers(-3, 3), point_value=_finite,
)


@settings(max_examples=200, deadline=None)
@given(TASK_SECTIONS, SCHEDULE_SECTIONS, EVAL_SECTIONS)
def test_task_schedule_and_eval_sections_survive_serialize_then_parse(task, schedule, eval_):
    base = parse_config_text("")
    cfg = dataclasses.replace(
        base, task=task, schedule=schedule, eval=eval_,
        sample=dataclasses.replace(base.sample, spec=schedule),
    )
    assert parse_config_text(serialize_config(cfg)) == cfg

CONTRAST_INI = """
[run]
run_id = contrast-toy
output_dir = {out}

[task]
task = contrast
signal_dim = 8
contrast_k = 4.0
contrast_a = 0.5
dataset = gaussian
gauss_mean = 0.5
gauss_var = 0.04
n_train = 64

[schedule]
variant = sb

[train]
lr = 0.002
batch_size = 8
n_epochs = 20
lr_milestones =
hidden = 16

[sample]
n_steps = 40
n_samples = 2
"""


def test_contrast_task_end_to_end(tmp_path):
    cfg, out = write_config(tmp_path, CONTRAST_INI)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    dest = tmp_path / "contrast-s"
    assert cli.main([
        "sample", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.ckpt"),
        "--simulate", "--output", str(dest),
    ]) == 0
    samples = tensorio.load_tensor(dest / "samples.sdbt")
    assert samples.shape == (2, 8)
    assert np.all(np.isfinite(samples))


def test_each_run_snapshots_its_config_and_logs_its_start(tmp_path):
    cfg, _ = write_config(tmp_path, CONTRAST_INI)
    ckpt = str(tmp_path / "train" / "checkpoint.ckpt")
    runs = {
        "train": (["train", "--config", str(cfg), "--seed", "3"], "train start run_id=contrast-toy"),
        "sample": (["sample", "--config", str(cfg), "--checkpoint", ckpt, "--simulate"], "sample start"),
    }
    for name, (argv, start) in runs.items():
        dest = tmp_path / name
        assert cli.main([*argv, "--output", str(dest)]) == 0
        assert (dest / "run.log").read_text(encoding="utf-8").splitlines()[0].endswith(f"] {start}")
        assert (dest / "config_resolved.ini").is_file()
    assert parse_config(tmp_path / "train" / "config_resolved.ini").train.seed == 3


def test_contrast_task_above_dense_limit_exit_2_with_one_line(tmp_path, capsys):
    text = "[task]\ntask = contrast\nsignal_dim = 300\ndataset = gaussian\n"
    cfg, _ = write_config(tmp_path, text)
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg), "--output", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


def test_sample_steps_default_is_100():
    from sysbridge.config import parse_config_text

    cfg = parse_config_text("[task]\ntask = inpainting\n")
    assert cfg.sample.n_steps == 100


def test_sample_section_walks_the_schedule_section():
    cfg = parse_config_text("[schedule]\nvariant = vp\n")
    assert cfg.sample.spec is cfg.schedule
    # the schedule comes from [schedule] only: spec is no [sample] key
    with pytest.raises(ConfigError, match="unknown key 'spec' in section \\[sample\\]"):
        parse_config_text("[sample]\nspec = vp\n")
