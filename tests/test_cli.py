"""Command-line orchestration: exit codes, artifacts, reproducibility."""

import numpy as np
import pytest

from sysbridge import cli, tensorio
from sysbridge import denoiser as dn
from sysbridge.config import parse_config

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
time_embed = append_scalar

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


class TestConfigErrors:
    def test_unknown_key_exit_2(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[task]\nnot_a_key = 3\n", encoding="utf-8")
        assert cli.main(["train", "--config", str(path)]) == 2

    def test_missing_output_parent_exit_2(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            f"[run]\noutput_dir = {tmp_path}/no/such/parent\n[task]\ntask = inpainting\n",
            encoding="utf-8",
        )
        assert cli.main(["train", "--config", str(path)]) == 2

    def test_unknown_verify_suite_exit_2(self):
        assert cli.main(["verify", "definitely_not_a_suite"]) == 2

    def test_missing_config_exit_2(self):
        assert cli.main(["train"]) == 2


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


# each turns a valid checkpoint's bytes into a broken one (None: no file)
BROKEN_CHECKPOINTS = {
    "missing_file": None,
    "missing_header_key": lambda blob: _drop_header_line(blob, "activation"),
    "truncated_tensor": lambda blob: blob[:-12],
    # the hidden width disagrees with the tensors, the signal width does not
    "shape_mismatch": lambda blob: _replace_header_line(blob, "layer_dims", "17,6,16"),
}


class TestBrokenCheckpoint:
    """Every unusable checkpoint ends in one config-error line and exit 2."""

    @pytest.fixture()
    def checkpoint(self, tmp_path):
        cfg, _ = write_config(tmp_path, MEMORIZE_INI)
        spec = cli._schedule_spec(parse_config(cfg))
        net = dn.init_net(16, hidden=(8,), time_embed="append_scalar", seed=0)
        path = tmp_path / "good.ckpt"
        dn.save_checkpoint(path, net, spec)
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
        spec = cli._schedule_spec(parse_config(cfg))
        dn.save_checkpoint(other, dn.init_net(9, hidden=(8,), time_embed="append_scalar"), spec)
        assert cli.main(["sample", "--config", str(cfg), "--checkpoint", str(other), "--simulate",
                         "--output", str(tmp_path / "run")]) == 2


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
    from sysbridge.config import parse_config, parse_config_text, serialize_config

    cfg, _ = write_config(tmp_path, GAUSS_TOY_INI)
    parsed = parse_config(cfg)
    assert parse_config_text(serialize_config(parsed)) == parsed


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


def test_sample_steps_default_is_100():
    from sysbridge.config import parse_config_text

    cfg = parse_config_text("[task]\ntask = inpainting\n")
    assert cfg.sample.n_steps == 100
