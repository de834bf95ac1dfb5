"""Benchmark operators, deployments, metrics, toy datasets."""

import dataclasses

import numpy as np
import pytest

from sysbridge import linop, tasks
from sysbridge.errors import DimensionError


class TestInpainting:
    def test_square_mask_own_pseudoinverse(self):
        spec = tasks.TaskSpec("inpainting", image_side=4, mask_fraction=0.5, seed=1)
        sys = tasks.build_system(spec)
        assert sys.m == sys.d == 16
        a = linop.materialize(sys)
        np.testing.assert_array_equal(a, linop.materialize_pinv(sys))
        np.testing.assert_array_equal(np.diag(np.diag(a)), a)
        assert int(np.diag(a).sum()) == 8

    def test_reconstruction_equals_measurement(self):
        spec = tasks.TaskSpec("inpainting", image_side=4, mask_fraction=0.25, seed=2)
        sys = tasks.build_system(spec)
        x = np.random.default_rng(0).uniform(size=16)
        y = sys.apply(x)
        np.testing.assert_array_equal(sys.apply_pinv(y), y)


class TestSuperres:
    def test_constant_image_measurement_and_reconstruction(self):
        spec = tasks.TaskSpec("superres", image_side=8, factor=4)
        sys = tasks.build_system(spec)
        x = np.full(64, 0.37)
        y = sys.apply(x)
        np.testing.assert_allclose(y, 0.37, atol=1e-12)
        np.testing.assert_allclose(sys.apply_pinv(y), x, atol=1e-12)

    def test_pseudoinverse_is_scaled_transpose(self):
        spec = tasks.TaskSpec("superres", image_side=8, factor=4)
        sys = tasks.build_system(spec)
        a = linop.materialize(sys)
        dense_pinv = linop.materialize_pinv(linop.build_dense_system(a))
        np.testing.assert_allclose(dense_pinv, 16.0 * a.T, atol=1e-9)
        np.testing.assert_allclose(linop.materialize_pinv(sys), dense_pinv, atol=1e-9)

    def test_replication_structure(self):
        spec = tasks.TaskSpec("superres", image_side=4, factor=2)
        sys = tasks.build_system(spec)
        y = np.arange(4.0)
        up = sys.apply_pinv(y).reshape(4, 4)
        np.testing.assert_array_equal(up[:2, :2], np.full((2, 2), 0.0))
        np.testing.assert_array_equal(up[2:, 2:], np.full((2, 2), 3.0))

    def test_factor_must_divide_side(self):
        with pytest.raises(ValueError):
            tasks.TaskSpec("superres", image_side=10, factor=4)


class TestTruncatedSvd:
    def test_rank_decreases_with_threshold(self):
        ranks = []
        for tau in (0.0, 0.05, 0.2, 0.5, 1.5):
            spec = tasks.TaskSpec("ct", image_side=4, tau=tau, latent_dim=4, seed=3)
            sys = tasks.build_system(spec)
            ranks.append(int(np.linalg.matrix_rank(linop.materialize(sys))))
        assert ranks == sorted(ranks, reverse=True)

    def test_everything_truncated_gives_zero_operator(self):
        spec = tasks.TaskSpec("ct", image_side=4, tau=2.0, latent_dim=4, seed=3)
        sys = tasks.build_system(spec)
        np.testing.assert_allclose(linop.materialize(sys), 0.0, atol=1e-12)

    def test_kept_subspace_reconstruction(self):
        spec = tasks.TaskSpec("ct", image_side=3, tau=0.4, latent_dim=4, seed=4, sigma1_sq=0.0)
        sys = tasks.build_system(spec)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(9)
        recon = sys.apply_pinv(sys.apply(x))
        np.testing.assert_allclose(recon, linop.project_range(sys, x), atol=1e-9)

    def test_deterministic_given_seed(self):
        spec = tasks.TaskSpec("ct", image_side=4, seed=11)
        a1 = linop.materialize(tasks.build_system(spec))
        a2 = linop.materialize(tasks.build_system(spec))
        np.testing.assert_array_equal(a1, a2)


class TestFourierMask:
    def test_rows_orthonormal(self):
        for side in (4, 8, 16):
            spec = tasks.TaskSpec("mri", image_side=side, lambda1_pct=20, lambda2_pct=30, seed=6)
            sys = tasks.build_system(spec)
            a = linop.materialize(sys)
            np.testing.assert_allclose(a @ a.T, np.eye(sys.m), atol=1e-9)

    def test_pinv_equals_transpose(self):
        spec = tasks.TaskSpec("mri", image_side=8, seed=7)
        sys = tasks.build_system(spec)
        y = np.random.default_rng(8).standard_normal(sys.m)
        np.testing.assert_allclose(sys.apply_pinv(y), linop.materialize(sys).T @ y, atol=1e-12)

    def test_full_sampling_is_invertible(self):
        spec = tasks.TaskSpec("mri", image_side=4, lambda1_pct=100, lambda2_pct=0, sigma2_sq=0.0)
        sys = tasks.build_system(spec)
        assert sys.m == sys.d
        x = np.random.default_rng(9).standard_normal(16)
        np.testing.assert_allclose(
            sys.apply_pinv(sys.apply(x)), x, atol=1e-9
        )

    def test_lambda_overcommit_rejected(self):
        with pytest.raises(ValueError):
            tasks.TaskSpec("mri", lambda1_pct=80, lambda2_pct=30)

    def test_rounded_overselection_rejected(self):
        # each share is rounded on its own, so lambda1 + lambda2 = 100 can
        # still ask for one frequency label more than the side has
        for side in range(1, 20):
            assert tasks._n_fourier_labels(side) == len(tasks._fourier_labels(side))
        refused = []
        for side in range(1, 17):
            for lambda1 in range(101):
                try:
                    spec = tasks.TaskSpec("mri", image_side=side, lambda1_pct=lambda1,
                                          lambda2_pct=100 - lambda1)
                except ValueError:
                    refused.append((side, lambda1))
                    continue
                if side == 7:
                    assert tasks.build_system(spec).m <= 49
                assert sum(tasks._mri_label_counts(side, lambda1, 100 - lambda1)) <= (
                    tasks._n_fourier_labels(side)
                )
        # side 1 has one label, and 50 % + 50 % of it round to 0 + 0: it keeps none
        assert refused == [(1, 50), (3, 30), (3, 70)] + [(7, lambda1) for lambda1 in range(6, 95, 8)]

    def test_lower_lambda1_keeps_fewer_low_rows(self):
        # side 16 has enough frequency labels that the percentages do not
        # collide after rounding
        a = tasks.build_system(tasks.TaskSpec("mri", image_side=16, lambda1_pct=16, seed=10))
        b = tasks.build_system(tasks.TaskSpec("mri", image_side=16, lambda1_pct=14, seed=10))
        assert b.m < a.m


class TestPerturbations:
    def test_identity_perturbation_reproduces_system(self):
        spec = tasks.TaskSpec("mri", image_side=8, seed=12)
        base = tasks.build_system(spec)
        deployed, _ = tasks.deploy(spec)
        np.testing.assert_array_equal(linop.materialize(base), linop.materialize(deployed))

    def test_gaussian_generator_noise_level(self):
        spec = tasks.TaskSpec("mri", image_side=4, sigma2_sq=1.0, seed=13)
        _, measure = tasks.deploy(spec, "noise_var", 4.0)
        rng = np.random.default_rng(14)
        x0 = np.zeros((20_000, 16))
        ys = measure(x0, rng)
        assert ys.var() == pytest.approx(4.0, rel=0.05)

    def test_poisson_moments(self):
        spec = tasks.TaskSpec("ct", image_side=3, seed=15)
        _, measure = tasks.deploy(spec, "poisson_i0", 1e4)
        rng = np.random.default_rng(16)
        ys = measure(np.zeros((100_000 // 9, 9)), rng)
        # at x0 = 0 the counts are Poisson(I0): logged line integrals have
        # mean ~ 0 and, by the delta method, variance ~ 1 / I0
        assert abs(ys.mean()) < 3e-4
        assert ys.var() == pytest.approx(1e-4, rel=0.03)

    def test_poisson_pseudoinverse_psnr_matches_gaussian(self):
        # the misspecification sweep reconstructs A+ y from deployed
        # measurements; at high I0 Poisson noise of variance ~ 1/I0 must
        # reconstruct like Gaussian noise of the same variance
        spec = tasks.TaskSpec("ct", image_side=8, sigma1_sq=1e-4, seed=0)
        x0 = tasks.make_toy_dataset("image_blobs", 50, seed=1, side=8)
        psnrs = []
        for sweep in (("poisson_i0", 1e4), ()):
            deployed, measure = tasks.deploy(spec, *sweep)
            recon = deployed.apply_pinv(measure(x0, np.random.default_rng(2)))
            psnrs.append(np.mean([tasks.psnr(r, x) for r, x in zip(recon, x0)]))
        assert abs(psnrs[0] - psnrs[1]) < 1.0, psnrs

    @pytest.mark.parametrize("task", ["inpainting", "superres", "mri"])
    def test_poisson_refused_off_ct(self, task):
        spec = tasks.TaskSpec(task, image_side=4, factor=2)
        with pytest.raises(ValueError, match="ct task only"):
            tasks.deploy(spec, "poisson_i0", 1e4)

    def test_poisson_requires_positive_intensity(self):
        for intensity in (0.0, -1.0):
            with pytest.raises(ValueError, match="intensity > 0"):
                tasks.deploy(tasks.TaskSpec("ct", image_side=3), "poisson_i0", intensity)

    def test_tau_perturbation_never_raises_rank(self):
        spec = tasks.TaskSpec("ct", image_side=4, tau=0.05, latent_dim=6, seed=17)
        base_rank = np.linalg.matrix_rank(linop.materialize(tasks.build_system(spec)))
        for tau in (0.1, 0.3, 0.9):
            deployed, _ = tasks.deploy(spec, "tau", tau)
            assert np.linalg.matrix_rank(linop.materialize(deployed)) <= base_rank

    def test_sweep_table_keeps_its_parameters_and_order(self):
        assert tasks.SWEEP_PARAMS == ("lambda1", "tau", "noise_var", "poisson_i0")

    # (param, task) -> the TaskSpec field the sweep sets; poisson_i0 sets none
    DEPLOYED_FIELD = {
        ("lambda1", "mri"): "lambda1_pct",
        ("tau", "ct"): "tau",
        ("noise_var", "ct"): "sigma1_sq",
        ("noise_var", "mri"): "sigma2_sq",
        ("poisson_i0", "ct"): None,
    }

    @pytest.mark.parametrize("param, value", [
        ("lambda1", 10.0), ("tau", 0.2), ("noise_var", 0.3), ("poisson_i0", 1e3),
    ])
    @pytest.mark.parametrize("task", tasks.TASKS + tasks.VECTOR_TASKS)
    def test_deploy_sets_the_tabled_field_or_refuses(self, task, param, value):
        spec = tasks.TaskSpec(task, image_side=4, factor=2, seed=3)
        if (param, task) not in self.DEPLOYED_FIELD:
            with pytest.raises(ValueError, match="task only"):
                tasks.deploy(spec, param, value)
            return
        deployed, _ = tasks.deploy(spec, param, value)
        name = self.DEPLOYED_FIELD[param, task]
        built = tasks.build_system(spec if name is None else dataclasses.replace(spec, **{name: value}))
        assert linop.materialize(deployed).tobytes() == linop.materialize(built).tobytes()
        assert linop.materialize_pinv(deployed).tobytes() == linop.materialize_pinv(built).tobytes()
        assert deployed.sigma_half == built.sigma_half

    def test_gaussian_measure_is_apply_plus_scaled_standard_normal(self):
        spec = tasks.TaskSpec("ct", image_side=4, sigma1_sq=0.01, seed=5)
        sys_, measure = tasks.deploy(spec)
        x0 = tasks.make_dataset(spec, 3, 6)
        clean = sys_.apply(x0)
        expected = clean + sys_.noise_scale(np.random.default_rng(7).standard_normal(clean.shape))
        assert measure(x0, np.random.default_rng(7)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("param, task", sorted(DEPLOYED_FIELD))
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_deploy_refuses_non_finite_value(self, param, task, value):
        with pytest.raises(ValueError, match="must be finite"):
            tasks.deploy(tasks.TaskSpec(task, image_side=4), param, value)

    def test_unknown_parameter_refused(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            tasks.deploy(tasks.TaskSpec("ct", image_side=4), "sigma1_sq", 0.1)


class TestMetrics:
    def test_psnr_cap_and_formula(self):
        x = np.full(16, 0.5)
        assert tasks.psnr(x, x) == 100.0
        y = x + 0.1  # mse = 0.01 -> 20 dB
        assert tasks.psnr(x, y) == pytest.approx(20.0)
        assert tasks.psnr(np.zeros(4), np.ones(4)) == pytest.approx(0.0)

    def test_psnr_symmetric(self):
        rng = np.random.default_rng(18)
        a, b = rng.uniform(size=(2, 16))
        assert tasks.psnr(a, b) == tasks.psnr(b, a)

    def test_ssim_identical_images(self):
        img = np.random.default_rng(19).uniform(size=64)
        assert tasks.ssim(img, img) == pytest.approx(1.0)

    def test_ssim_constant_offset_hand_value(self):
        ref = np.full(64, 0.4)
        x = ref + 0.1
        c1 = 0.01 ** 2
        expected = (2 * 0.4 * 0.5 + c1) / (0.4 ** 2 + 0.5 ** 2 + c1)
        assert tasks.ssim(x, ref) == pytest.approx(expected)

    def test_ssim_anticorrelated_negative(self):
        rng = np.random.default_rng(20)
        ref = rng.uniform(size=256)
        assert tasks.ssim(1.0 - ref, ref) < 0.0

    def test_ssim_symmetric(self):
        rng = np.random.default_rng(21)
        a, b = rng.uniform(size=(2, 64))
        assert tasks.ssim(a, b) == pytest.approx(tasks.ssim(b, a))

    def test_ssim_window_validation(self):
        # a 4x4 image is smaller than the SSIM_WINDOW = 8 window
        with pytest.raises(DimensionError):
            tasks.ssim(np.zeros(16), np.zeros(16))


class TestToyDatasets:
    def test_gaussian_mean_within_clt(self):
        data = tasks.make_toy_dataset("gaussian", 100_000, seed=22, mean=np.zeros(3), cov=1.0)
        se = 1.0 / np.sqrt(100_000)
        assert np.all(np.abs(data.mean(axis=0)) < 3 * se)

    def test_mixture_bimodal(self):
        data = tasks.make_toy_dataset(
            "gaussian_mixture", 50_000, seed=23,
            weights=[0.5, 0.5],
            means=[np.array([0.0, 2.0]), np.array([0.0, -2.0])],
            covs=[0.09, 0.09],
        )
        z = data[:, 1]
        assert np.mean(z > 1.0) == pytest.approx(0.5, abs=0.01)
        assert np.mean(np.abs(z) < 0.5) < 0.01

    @pytest.mark.parametrize("mix_coord, axis", [(1, 1), (-1, 3), (-3, 3)])
    def test_mixture_dataset_is_the_toy_mixture_on_its_axis(self, mix_coord, axis):
        # means +-mix_sep on mix_coord; any negative mix_coord picks the last coordinate
        spec = tasks.TaskSpec("dense", signal_dim=4, dataset="mixture", mix_sep=1.5, mix_std=0.5,
                              mix_coord=mix_coord)
        mean = np.zeros(4)
        mean[axis] = 1.5
        expected = tasks.make_toy_dataset(
            "gaussian_mixture", 20, seed=7, weights=[0.5, 0.5], means=[mean, -mean], covs=[0.25, 0.25]
        )
        assert tasks.make_dataset(spec, 20, 7).tobytes() == expected.tobytes()

    def test_empty(self):
        assert tasks.make_toy_dataset("gaussian", 0, mean=np.zeros(2), cov=1.0).shape == (0, 2)

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            tasks.make_toy_dataset(
                "gaussian_mixture", 10, weights=[0.7, 0.7],
                means=[np.zeros(1), np.zeros(1)], covs=[1.0, 1.0],
            )

    def test_blobs_range_and_determinism(self):
        a = tasks.make_toy_dataset("image_blobs", 8, seed=24, side=8)
        b = tasks.make_toy_dataset("image_blobs", 8, seed=24, side=8)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (8, 64)
        assert a.min() >= 0.0 and a.max() <= 1.0


def test_mri_keeping_no_frequency_is_refused_but_side_one_images_are_not():
    for lambdas in ({"lambda1_pct": 0.0, "lambda2_pct": 0.0}, {"image_side": 1}):
        with pytest.raises(ValueError, match="keep no frequency"):
            tasks.TaskSpec("mri", **lambdas)
    for task in ("inpainting", "superres", "ct"):
        assert tasks.build_system(tasks.TaskSpec(task, image_side=1, factor=1)).d == 1
    assert tasks.build_system(tasks.TaskSpec("mri", image_side=1, lambda1_pct=100.0, lambda2_pct=0.0)).m == 1


def test_system_determinism_across_kinds():
    for spec in (
        tasks.TaskSpec("inpainting", image_side=4, seed=30),
        tasks.TaskSpec("superres", image_side=8),
        tasks.TaskSpec("ct", image_side=4, seed=30),
        tasks.TaskSpec("mri", image_side=4, seed=30),
    ):
        a = linop.materialize(tasks.build_system(spec))
        b = linop.materialize(tasks.build_system(spec))
        np.testing.assert_array_equal(a, b)


class TestFieldPrior:
    def test_sample_covariance_matches_prior(self):
        mu, cov = tasks.field_prior(8, scale=2.5, amp=0.1)
        data = tasks.make_toy_dataset("field", 40_000, seed=31, side=8, scale=2.5, amp=0.1)
        np.testing.assert_allclose(data.mean(axis=0), mu, atol=0.01)
        emp = np.cov(data.T)
        assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.05

    def test_spectral_variances_decay(self):
        # measured through the full orthonormal Fourier basis, coefficient
        # variance must follow the band-limited envelope
        side = 8
        mu, cov = tasks.field_prior(side, scale=2.0, amp=0.2)
        full = tasks.build_system(
            tasks.TaskSpec("mri", image_side=side, lambda1_pct=100, lambda2_pct=0, sigma2_sq=0.0)
        )
        basis = tasks._fourier_labels(side)
        rows = linop.materialize(full)
        coeff_var = np.diag(rows @ cov @ rows.T)
        # first row is the lowest frequency, variance amp; deep tail is tiny
        assert coeff_var[0] == pytest.approx(0.2, rel=1e-6)
        assert coeff_var[-1] < coeff_var[0] / 1000.0
        del basis


# one small spec per task, each with its noise standard deviation
SIX_TASKS = {
    "inpainting": (tasks.TaskSpec("inpainting", image_side=4, seed=3), 0.0),
    "superres": (tasks.TaskSpec("superres", image_side=4, factor=2), 0.0),
    "ct": (tasks.TaskSpec("ct", image_side=4, sigma1_sq=0.09, seed=3), 0.3),
    "mri": (tasks.TaskSpec("mri", image_side=4, sigma2_sq=0.25, seed=3), 0.5),
    "dense": (tasks.TaskSpec("dense", signal_dim=5, dataset="gaussian", noise_var=0.04), 0.2),
    "contrast": (tasks.TaskSpec("contrast", image_side=3, noise_var=0.01), 0.1),
}


@pytest.mark.parametrize("name", sorted(SIX_TASKS))
def test_operators_refuse_a_wrong_last_axis(name):
    sys = tasks.build_system(SIX_TASKS[name][0])
    with pytest.raises(DimensionError):
        sys.apply(np.zeros((2, sys.d + 1)))
    with pytest.raises(DimensionError):
        sys.apply_pinv(np.zeros((2, sys.m + 1)))


@pytest.mark.parametrize("name", sorted(SIX_TASKS))
def test_noise_factor_is_sigma_half_times_identity(name):
    spec, sigma = SIX_TASKS[name]
    sys = tasks.build_system(spec)
    assert sys.sigma_half == pytest.approx(sigma)
    np.testing.assert_array_equal(linop.materialize_noise_half(sys), sys.sigma_half * np.eye(sys.m))


# another valid value of every TaskSpec field, for the bases below
OTHER_VALUE = {
    "image_side": 2, "signal_dim": 16, "mask_fraction": 0.25, "factor": 4, "tau": 0.2,
    "sigma1_sq": 0.01, "latent_dim": 3, "lambda1_pct": 10.0, "lambda2_pct": 20.0,
    "sigma2_sq": 0.5, "dense_m": 3, "noise_var": 0.1, "contrast_k": 2.0, "contrast_a": 0.3,
    "seed": 7, "dataset": "point", "n_train": 5, "data_seed": 3, "gauss_mean": 0.3,
    "gauss_var": 2.0, "field_scale": 2.0, "field_amp": 0.2, "field_mean": 0.4, "mix_sep": 1.0,
    "mix_std": 0.3, "mix_coord": 0, "point_value": 0.2,
}
HASH_BASES = {
    "inpainting": tasks.TaskSpec("inpainting", image_side=4),
    "superres": tasks.TaskSpec("superres", image_side=4, factor=2),
    "ct": tasks.TaskSpec("ct", image_side=4),
    "mri": tasks.TaskSpec("mri", image_side=4),
    "dense": tasks.TaskSpec("dense", signal_dim=4, dataset="gaussian"),
    "contrast": tasks.TaskSpec("contrast", signal_dim=4, dataset="gaussian"),
}


def _acts(sys, rng):
    """The system's m, d, kappa and its three operators on fixed draws, as bytes."""
    x = rng.standard_normal((3, sys.d))
    eps = rng.standard_normal((3, sys.m))
    ops = (sys.apply(x), sys.apply_pinv(eps), sys.noise_scale(eps))
    return (sys.m, sys.d, sys.kappa, *(op.tobytes() for op in ops))


@pytest.mark.parametrize("task", sorted(HASH_BASES))
def test_system_hash_covers_what_the_system_is_built_from(task):
    # each walked field moves the hash, and an equal hash means the same system
    base = HASH_BASES[task]
    assert set(OTHER_VALUE) == {f.name for f in dataclasses.fields(tasks.TaskSpec)} - {"task"}
    reference = _acts(tasks.build_system(base), np.random.default_rng(0))
    for name, value in OTHER_VALUE.items():
        other = dataclasses.replace(base, **{name: value})
        if name in tasks._SYSTEM_FIELDS[task]:
            assert tasks.system_hash(other) != tasks.system_hash(base), name
        elif tasks.system_hash(other) == tasks.system_hash(base):
            assert _acts(tasks.build_system(other), np.random.default_rng(0)) == reference, name


def test_system_hash_differs_between_tasks():
    assert len({tasks.system_hash(spec) for spec in HASH_BASES.values()}) == len(HASH_BASES)
