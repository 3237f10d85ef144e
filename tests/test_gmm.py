"""Mixture model tests: densities, k-means seeding, EM, persistence."""

import dataclasses
import math
import struct
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from fuzz_inputs import mutations
from dialectid import gmm
from dialectid.errors import (
    ConfigError,
    DialectIdError,
    FewerFramesThanComponents,
    ModelFileError,
    ModelInvariantError,
    ModelVersionError,
)
from dialectid.gmm import (
    BLOCK_FRAMES,
    EXP_CUT,
    GmmModel,
    TrainConfig,
    TrainingFrames,
    em_fit,
    kmeans_init,
    load_model,
    log_likelihood_segments,
    log_likelihood_sequence,
    run_pair,
    save_model,
)


def random_model(rng, m, dim):
    weights = rng.uniform(0.1, 1.0, m)
    weights /= weights.sum()
    means = rng.uniform(-3.0, 3.0, (m, dim))
    variances = rng.uniform(0.2, 2.0, (m, dim))
    return GmmModel(weights, means, variances)


def frame_density(model, x):
    """Log density of one frame, through the sequence scorer."""
    return log_likelihood_sequence(model, np.asarray(x, dtype=np.float64)[None, :])


class TestDensity:
    def test_standard_normal_at_origin(self):
        model = GmmModel([1.0], [[0.0]], [[1.0]])
        got = frame_density(model, [0.0])
        assert abs(got - (-0.5 * math.log(2.0 * math.pi))) < 1e-12

    def test_duplicated_component_equals_single(self):
        single = GmmModel([1.0], [[0.3, -0.7]], [[1.5, 0.4]])
        double = GmmModel(
            [0.5, 0.5],
            [[0.3, -0.7], [0.3, -0.7]],
            [[1.5, 0.4], [1.5, 0.4]],
        )
        x = np.array([0.1, 0.2])
        assert abs(frame_density(single, x) - frame_density(double, x)) < 1e-12

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            m = int(rng.integers(1, 9))
            dim = int(rng.integers(1, 6))
            model = random_model(rng, m, dim)
            x = rng.uniform(-4.0, 4.0, dim)
            got = frame_density(model, x)
            want = reference.gmm_density_ref(model.weights, model.means, model.variances, x)
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_dim_mismatch_rejected(self):
        model = GmmModel([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(ValueError):
            frame_density(model, np.zeros(3))


class TestSequenceLikelihood:
    def test_single_frame_equals_frame_density(self):
        rng = np.random.default_rng(21)
        model = random_model(rng, 3, 4)
        x = rng.standard_normal(4)
        want = reference.gmm_density_ref(model.weights, model.means, model.variances, x)
        assert log_likelihood_sequence(model, x[None, :]) == pytest.approx(want, abs=1e-12)

    def test_doubled_matrix_is_exactly_twice(self):
        rng = np.random.default_rng(22)
        model = random_model(rng, 4, 3)
        feats = rng.standard_normal((37, 3))
        once = log_likelihood_sequence(model, feats)
        twice = log_likelihood_sequence(model, np.vstack([feats, feats]))
        assert twice == 2.0 * once

    def test_equals_sum_of_frame_calls(self):
        rng = np.random.default_rng(23)
        model = random_model(rng, 2, 3)
        feats = rng.standard_normal((10, 3))
        total = log_likelihood_sequence(model, feats)
        by_frame = sum(frame_density(model, f) for f in feats)
        assert abs(total - by_frame) < 1e-9

    def test_empty_matrix_rejected(self):
        model = GmmModel([1.0], [[0.0]], [[1.0]])
        with pytest.raises(ValueError):
            log_likelihood_sequence(model, np.zeros((0, 1)))


def seeded_kmeans(data, k, seed, **config):
    """kmeans_init of data's TrainingFrames under seed, with k components."""
    return kmeans_init(TrainingFrames(data), TrainConfig(k, rng_seed=seed, **config))


class TestKmeansInit:
    def test_single_cluster_closed_form(self):
        rng = np.random.default_rng(24)
        data = rng.standard_normal((200, 3)) * 2.0 + 1.0
        model = seeded_kmeans(data, 1, seed=0)
        assert np.array_equal(model.weights, [1.0])
        assert np.allclose(model.means[0], data.mean(axis=0), atol=1e-12)
        assert np.allclose(model.variances[0], data.var(axis=0), atol=1e-12)

    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(25)
        data = np.concatenate(
            [rng.normal(-10.0, 1.0, 100), rng.normal(10.0, 1.0, 100)]
        )[:, None]
        model = seeded_kmeans(data, 2, seed=1)
        centers = np.sort(model.means[:, 0])
        assert abs(centers[0] + 10.0) < 0.5
        assert abs(centers[1] - 10.0) < 0.5
        assert np.allclose(model.weights.sum(), 1.0)

    def test_deterministic_for_a_seed(self):
        rng = np.random.default_rng(26)
        data = rng.standard_normal((150, 2))
        a = seeded_kmeans(data, 4, seed=7)
        b = seeded_kmeans(data, 4, seed=7)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.variances, b.variances)

    def test_too_few_frames_rejected(self):
        with pytest.raises(FewerFramesThanComponents):
            seeded_kmeans(np.zeros((3, 2)), 5, seed=0)


class TestEmFit:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(27)
        data = rng.standard_normal((300, 3)) * 1.7 - 0.4
        model, trace = em_fit(data, TrainConfig(num_components=1))
        assert np.allclose(model.means[0], data.mean(axis=0), atol=1e-10)
        assert np.allclose(model.variances[0], data.var(axis=0), atol=1e-10)
        assert len(trace) >= 1

    def test_recovers_bimodal_mixture(self):
        rng = np.random.default_rng(28)
        data = np.concatenate(
            [rng.normal(-5.0, 1.0, 400), rng.normal(5.0, 1.0, 400)]
        )[:, None]
        model, _ = em_fit(data, TrainConfig(num_components=2, rng_seed=3))
        order = np.argsort(model.means[:, 0])
        assert abs(model.means[order[0], 0] + 5.0) < 0.3
        assert abs(model.means[order[1], 0] - 5.0) < 0.3
        assert np.all(np.abs(model.weights - 0.5) < 0.05)

    def test_trace_is_monotone(self):
        rng = np.random.default_rng(29)
        data = np.concatenate(
            [
                rng.normal(0.0, 1.0, (150, 2)),
                rng.normal(4.0, 0.5, (150, 2)),
                rng.normal(-3.0, 2.0, (100, 2)),
            ]
        )
        for seed in (0, 1, 2):
            for m in (1, 2, 4, 8):
                _, trace = em_fit(
                    data, TrainConfig(num_components=m, rng_seed=seed)
                )
                diffs = np.diff(trace)
                assert np.all(diffs >= -1e-8), (seed, m, diffs.min())

    def test_intermediate_models_stay_valid(self):
        rng = np.random.default_rng(30)
        data = rng.standard_normal((120, 2))
        for iters in (1, 2, 3):
            model, trace = em_fit(
                data,
                TrainConfig(num_components=3, max_em_iterations=iters, rng_seed=0),
            )
            model.validate()
            assert len(trace) <= iters

    def test_deterministic_for_a_seed(self):
        rng = np.random.default_rng(31)
        data = rng.standard_normal((200, 3))
        cfg = TrainConfig(num_components=4, rng_seed=11)
        a, trace_a = em_fit(data, cfg)
        b, trace_b = em_fit(data, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.variances, b.variances)
        assert trace_a == trace_b

    def test_too_few_frames_rejected(self):
        with pytest.raises(FewerFramesThanComponents):
            em_fit(np.zeros((2, 3)), TrainConfig(num_components=4))

    def test_non_finite_data_rejected(self):
        data = np.ones((10, 2))
        data[3, 1] = np.nan
        with pytest.raises(ValueError):
            em_fit(data, TrainConfig(num_components=1))


def assert_same_fit(got, want):
    (model, trace), (want_model, want_trace) = got, want
    assert np.array_equal(model.weights, want_model.weights)
    assert np.array_equal(model.means, want_model.means)
    assert np.array_equal(model.variances, want_model.variances)
    assert trace == want_trace


class TestPairedFits:
    """run_pair with em_fit jobs, as train_bundle fits the two dialects."""

    CONFIG = TrainConfig(num_components=8, max_em_iterations=5, rng_seed=2)

    def paired_fits(self, lt, ct):
        return run_pair(lambda: em_fit(lt, self.CONFIG), lambda: em_fit(ct, self.CONFIG))

    def test_equals_two_em_fits_on_one_blas_thread(self):
        rng = np.random.default_rng(34)
        lt = rng.standard_normal((900, 5))
        ct = rng.standard_normal((700, 5)) + 1.0
        got = self.paired_fits(lt, ct)
        with gmm.one_blas_thread():
            want = em_fit(lt, self.CONFIG), em_fit(ct, self.CONFIG)
        assert_same_fit(got[0], want[0])
        assert_same_fit(got[1], want[1])

    @pytest.mark.parametrize("fallback", ["one-cpu", "no-blas-setter"])
    def test_fallbacks_fit_in_order_on_the_calling_thread(self, monkeypatch, fallback):
        if fallback == "one-cpu":
            monkeypatch.setattr(gmm.os, "sched_getaffinity", lambda pid: {0})
        else:
            monkeypatch.setattr(gmm, "_openblas_thread_functions", lambda: None)

        def no_thread(*args, **kwargs):
            raise AssertionError("a fallback started a thread")

        monkeypatch.setattr(gmm.threading, "Thread", no_thread)
        rng = np.random.default_rng(37)
        lt, ct = rng.standard_normal((60, 2)), rng.standard_normal((50, 2))
        fitted = []
        got = run_pair(
            lambda: fitted.append("lt") or em_fit(lt, self.CONFIG),
            lambda: fitted.append("ct") or em_fit(ct, self.CONFIG),
        )
        assert fitted == ["lt", "ct"]
        assert_same_fit(got[0], em_fit(lt, self.CONFIG))
        assert_same_fit(got[1], em_fit(ct, self.CONFIG))

    def test_ct_error_is_raised(self):
        rng = np.random.default_rng(35)
        with pytest.raises(FewerFramesThanComponents, match="^5 frames"):
            self.paired_fits(rng.standard_normal((50, 2)), rng.standard_normal((5, 2)))

    def test_lt_error_comes_before_ct_error(self):
        rng = np.random.default_rng(36)
        with pytest.raises(FewerFramesThanComponents, match="^4 frames"):
            self.paired_fits(rng.standard_normal((4, 2)), rng.standard_normal((6, 2)))

    @pytest.mark.parametrize("error", [FewerFramesThanComponents("lt"), KeyboardInterrupt()])
    def test_lt_exception_does_not_wait_for_the_ct_job(self, monkeypatch, error):
        if gmm._openblas_thread_functions() is None:
            pytest.skip("numpy's BLAS has no OpenBLAS thread setter")
        monkeypatch.setattr(gmm.os, "sched_getaffinity", lambda pid: {0, 1})
        release, finished = threading.Event(), threading.Event()

        def lt_job():
            raise error

        def ct_job():
            release.wait(5)  # bounded: a run_pair that waited would fail, not hang
            finished.set()

        start = time.monotonic()
        try:
            with pytest.raises(type(error)):
                run_pair(lt_job, ct_job)
            assert time.monotonic() - start < 1 and not finished.is_set()
        finally:
            release.set()
        assert finished.wait(5)

    @pytest.fixture(params=["two-thread", "one-cpu"])
    def mode(self, request, monkeypatch):
        if request.param == "two-thread":
            if gmm._openblas_thread_functions() is None:
                pytest.skip("numpy's BLAS has no OpenBLAS thread setter")
            monkeypatch.setattr(gmm.os, "sched_getaffinity", lambda pid: {0, 1})
        else:
            monkeypatch.setattr(gmm.os, "sched_getaffinity", lambda pid: {0})
        return request.param

    def test_ct_system_exit_is_raised_as_itself(self, mode):
        with pytest.raises(SystemExit) as info:
            run_pair(lambda: 1, lambda: sys.exit(3))
        assert info.value.code == 3

    def test_returned_exception_is_a_ct_result(self, mode):
        error = ValueError("x")
        assert run_pair(lambda: 1, lambda: error) == (1, error)


def rel_err(got, want):
    """Largest absolute difference relative to the largest reference entry."""
    return float(np.abs(np.asarray(got) - want).max() / np.abs(want).max())


def blob_frames(rng, t, num_blobs, spread, dim=39):
    """t frames around num_blobs centers, every blob used, labels shuffled."""
    centers = rng.standard_normal((num_blobs, dim)) * spread
    labels = rng.permutation(np.arange(t) % num_blobs)
    return centers[labels] + rng.standard_normal((t, dim))


# Frame counts that end just before, on and just after block boundaries.
BLOCK_EDGE_FRAMES = [
    BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1, 2 * BLOCK_FRAMES + 3
]


class TestBatchedKernelsAgainstReferences:
    @pytest.mark.parametrize("t", BLOCK_EDGE_FRAMES)
    @pytest.mark.parametrize("m", [16, 256])
    def test_kmeans_update_matches_per_cluster_loop(self, m, t):
        # Separated blobs, one per component, so k-means converges and its
        # centers are the means of their own nearest-center assignment.
        rng = np.random.default_rng(m + t)
        data = blob_frames(rng, t, m, spread=10.0)
        model = seeded_kmeans(data, m, seed=0)
        assignment = reference.nearest_center_ref(data, model.means)
        counts, means, variances = reference.lloyd_update_ref(data, assignment, m)
        floor = np.maximum(1e-3 * data.var(axis=0), 1e-12)
        assert np.array_equal(model.weights, counts / t)
        assert rel_err(model.means, means) <= 1e-9
        assert rel_err(model.variances, np.maximum(variances, floor)) <= 1e-9

    def test_cluster_means_skip_empty_clusters(self):
        rng = np.random.default_rng(40)
        data = rng.standard_normal((BLOCK_FRAMES + 1, 39))
        assignment = rng.integers(1, 15, data.shape[0])
        counts = np.bincount(assignment, minlength=16)
        _, means, _ = reference.lloyd_update_ref(data, assignment, 16)
        got = gmm._cluster_means(np.ascontiguousarray(data.T), assignment, counts)
        assert np.array_equal(got[[0, 15]], np.zeros((2, 39)))
        assert rel_err(got, means) <= 1e-9

    @pytest.mark.parametrize("t", BLOCK_EDGE_FRAMES)
    @pytest.mark.parametrize("m", [16, 256])
    def test_em_iteration_matches_double_loop(self, m, t):
        rng = np.random.default_rng(m * t)
        data = blob_frames(rng, t, m // 2, spread=1.5)
        init = seeded_kmeans(data, m, seed=0, kmeans_max_iterations=8)
        frame_ll, resp, occupancy, first, second = reference.em_iteration_ref(
            data, init.weights, init.means, init.variances
        )

        proj, const = gmm._kernel(init.weights, init.means, init.variances)
        x2 = gmm.squares_and_frames(data)
        got_ll = np.empty(t)
        got_occupancy, got_stats = gmm._accumulate(x2, proj, const, got_ll)
        assert rel_err(got_ll, frame_ll) <= 1e-9
        assert rel_err(got_occupancy, occupancy) <= 1e-9
        assert rel_err(got_stats[:, 39:], first) <= 1e-9
        assert rel_err(got_stats[:, :39], second) <= 1e-9
        for lo in range(0, t, BLOCK_FRAMES):
            _, post, row_sum = gmm._block_posteriors(x2[lo : lo + BLOCK_FRAMES], proj, const)
            assert rel_err(post / row_sum[:, None], resp[lo : lo + BLOCK_FRAMES]) <= 1e-9

        model, trace = em_fit(
            data, TrainConfig(num_components=m, max_em_iterations=1, kmeans_max_iterations=8)
        )
        means = first / occupancy[:, None]
        floor = np.maximum(1e-3 * data.var(axis=0), 1e-12)
        variances = np.maximum(second / occupancy[:, None] - means**2, floor)
        assert abs(trace[0] - math.fsum(frame_ll)) <= 1e-9 * abs(trace[0])
        assert rel_err(model.weights, occupancy / t) <= 1e-9
        assert rel_err(model.means, means) <= 1e-9
        assert rel_err(model.variances, variances) <= 1e-9

    @pytest.mark.parametrize("t", BLOCK_EDGE_FRAMES)
    @pytest.mark.parametrize("m", [1, 16, 197, 256])
    def test_accumulate_equals_the_plain_statistics_gemm(self, m, t):
        rng = np.random.default_rng(m + 3 * t)
        model = random_model(rng, m, 39)
        proj, const = gmm._kernel(model.weights, model.means, model.variances)
        x2 = gmm.squares_and_frames(rng.uniform(-3.0, 3.0, (t, 39)))
        got_ll = np.empty(t)
        with gmm.one_blas_thread():
            got = gmm._accumulate(x2, proj, const, got_ll)
            want = reference.accumulate_ref(
                x2, lambda block: gmm._block_posteriors(block, proj, const), BLOCK_FRAMES
            )
        assert np.array_equal(got_ll, want[0])
        assert np.array_equal(got[0], want[1])
        assert np.array_equal(got[1], want[2])
        assert got[1].flags.c_contiguous

    def test_segments_score_like_separate_sequences(self):
        # Each segment is scored in blocks from its own first frame, so its
        # value is exactly log_likelihood_sequence's on its frames alone,
        # also for the segments that straddle a BLOCK_FRAMES boundary of the
        # whole matrix and the one longer than two blocks.
        rng = np.random.default_rng(44)
        lengths = [1, 300, BLOCK_FRAMES - 250, 700, 2, 2 * BLOCK_FRAMES + 9, 3000,
                   BLOCK_FRAMES, 17]
        frames = rng.uniform(-3.0, 3.0, (sum(lengths), 39))
        starts = np.cumsum([0, *lengths[:-1]]).tolist()
        for m in (2, 16, 256):
            model = random_model(rng, m, 39)
            got = log_likelihood_segments(model, frames, starts)
            want = [
                log_likelihood_sequence(model, frames[lo : lo + n])
                for lo, n in zip(starts, lengths)
            ]
            assert got == want
            assert log_likelihood_segments(model, frames, [0]) == [
                log_likelihood_sequence(model, frames)
            ]

    def test_sequence_likelihood_matches_direct_summation_at_full_size(self):
        rng = np.random.default_rng(41)
        model = random_model(rng, 256, 39)
        feats = rng.uniform(-3.0, 3.0, (6, 39))
        want = math.fsum(
            reference.gmm_density_ref(model.weights, model.means, model.variances, x)
            for x in feats
        )
        got = log_likelihood_sequence(model, feats)
        assert abs(got - want) <= 1e-9 * abs(want)


class TestExpFlush:
    """_block_posteriors flushes log-joints below EXP_CUT to -inf, so exp
    makes them exact zeros; reference.block_posteriors_plain_exp does not."""

    def deep_block(self):
        # Far-apart narrow components, one with zero weight, so each frame's
        # log-joints span the kept range, exp's subnormal range (-745, -708)
        # and beyond.
        rng = np.random.default_rng(50)
        m, dim = 64, 6
        weights = rng.uniform(0.1, 1.0, m)
        weights[5] = 0.0
        weights /= weights.sum()
        means = rng.uniform(-12.0, 12.0, (m, dim))
        variances = rng.uniform(0.3, 1.0, (m, dim))
        frames = means[rng.integers(0, m, 3000)] + rng.standard_normal((3000, dim))
        proj, const = gmm._kernel(weights, means, variances)
        x2 = gmm.squares_and_frames(frames)
        log_joint = x2 @ proj.T + const
        log_joint -= log_joint.max(axis=1)[:, None]
        return x2, proj, const, log_joint

    def test_block_matches_plain_exp_above_the_cut_and_is_zero_below(self):
        x2, proj, const, log_joint = self.deep_block()
        finite = log_joint[np.isfinite(log_joint)]
        assert finite.min() < -800.0
        assert ((finite > -745.0) & (finite < -708.0)).any()
        assert ((finite >= EXP_CUT) & (finite < -600.0)).any()
        frame_ll, post, row_sum = gmm._block_posteriors(x2, proj, const)
        want_ll, want_post, want_sum = reference.block_posteriors_plain_exp(x2, proj, const)
        keep = log_joint >= EXP_CUT
        assert np.array_equal(frame_ll, want_ll)
        assert np.array_equal(row_sum, want_sum)
        assert np.array_equal(post[keep], want_post[keep])
        assert not post[~keep].any()
        assert not np.signbit(post).any()

    def test_block_with_nothing_below_the_cut_is_plain_exp(self):
        rng = np.random.default_rng(52)
        model = random_model(rng, 16, 5)
        proj, const = gmm._kernel(model.weights, model.means, model.variances)
        x2 = gmm.squares_and_frames(rng.standard_normal((500, 5)))
        got = gmm._block_posteriors(x2, proj, const)
        want = reference.block_posteriors_plain_exp(x2, proj, const)
        assert want[1].min() > math.exp(EXP_CUT)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_log_joint_at_the_cut_is_kept_and_just_below_is_flushed(self):
        # One frame, three components: log-joints 0, EXP_CUT and the next
        # float below EXP_CUT relative to the peak, set directly in const.
        proj = np.zeros((3, 2))
        const = np.array([0.0, EXP_CUT, np.nextafter(EXP_CUT, -np.inf)])
        frame_ll, post, row_sum = gmm._block_posteriors(np.zeros((1, 2)), proj, const)
        assert post[0, 0] == 1.0
        assert post[0, 1] == np.exp(EXP_CUT) == math.exp(-700.0)
        assert post[0, 2] == 0.0 and not np.signbit(post[0, 2])
        assert row_sum[0] == 1.0 + math.exp(-700.0)
        assert frame_ll[0] == np.log(row_sum[0])

    def test_zero_weight_columns_alone_are_plain_exp(self):
        # A zero-weight component's log-joints are all -inf; exp gives their
        # +0.0 zeros, and every other entry is np.exp's value.
        rng = np.random.default_rng(53)
        model = random_model(rng, 16, 5)
        model.weights[3] = 0.0
        model.weights /= model.weights.sum()
        proj, const = gmm._kernel(model.weights, model.means, model.variances)
        x2 = gmm.squares_and_frames(rng.standard_normal((500, 5)))
        log_joint = x2 @ proj.T + const
        log_joint -= log_joint.max(axis=1)[:, None]
        assert np.isneginf(log_joint[:, 3]).all()
        assert np.delete(log_joint, 3, axis=1).min() >= EXP_CUT
        want = reference.block_posteriors_plain_exp(x2, proj, const)
        got = gmm._block_posteriors(x2, proj, const)
        assert not np.signbit(got[1]).any()
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_em_fit_at_m256_is_bit_identical_with_either_kernel(self, monkeypatch):
        rng = np.random.default_rng(51)
        data = blob_frames(rng, BLOCK_FRAMES + 400, 256, spread=4.0)
        config = TrainConfig(num_components=256, max_em_iterations=4, kmeans_max_iterations=4)
        flushed = []
        flush_kernel = gmm._block_posteriors

        def counting(x2, proj, const):
            out = flush_kernel(x2, proj, const)
            plain = reference.block_posteriors_plain_exp(x2, proj, const)[1]
            flushed.append(int(((out[1] == 0.0) & (plain != 0.0)).sum()))
            return out

        with gmm.one_blas_thread():
            monkeypatch.setattr(gmm, "_block_posteriors", counting)
            got = em_fit(data, config)
            monkeypatch.setattr(gmm, "_block_posteriors", reference.block_posteriors_plain_exp)
            want = em_fit(data, config)
        assert len(flushed) == 2 * len(got[1]) and sum(flushed) > 0
        assert_same_fit(got, want)


class TestSharedTrainingFrames:
    CONFIG = TrainConfig(
        num_components=1, max_em_iterations=3, kmeans_max_iterations=3, rng_seed=4
    )

    def test_seeds_for_k_are_a_prefix_of_the_seeds_for_more(self):
        data = blob_frames(np.random.default_rng(60), 500, 6, spread=3.0)
        order = gmm.TrainingFrames(data).seeds(30, 4)
        assert len(set(order.tolist())) == 30
        for k in (1, 2, 17, 29):
            assert np.array_equal(gmm.TrainingFrames(data).seeds(k, 4), order[:k])

    def test_grown_seeds_equal_seeds_picked_at_once(self):
        # Also on the frames as the strided x half of their [x^2, x] buffer,
        # which seeds copies to a contiguous matrix for each growth.
        data = blob_frames(np.random.default_rng(64), 300, 5, spread=3.0)
        view = gmm.TrainingFrames.around(data)
        assert not view.data.flags.c_contiguous
        for grown in (gmm.TrainingFrames(data), view):
            for k in (3, 3, 1, 20, 7, 40):
                assert np.array_equal(grown.seeds(k, 1), gmm.TrainingFrames(data).seeds(k, 1))
            assert len(grown._order) == 40

    def test_fits_sharing_training_frames_equal_their_own(self):
        # Shared lone frames, squared by each fit, and shared frames around
        # the [x^2, x] buffer of two parts, squared once.
        data = blob_frames(np.random.default_rng(61), 400, 6, spread=3.0)
        for frames in (gmm.TrainingFrames(data), gmm.TrainingFrames.around(data[:150], data[150:])):
            with gmm.one_blas_thread():
                for k in range(1, 25):
                    config = dataclasses.replace(self.CONFIG, num_components=k)
                    assert_same_fit(em_fit(frames, config), em_fit(data, config))
            assert len(frames._order) == 24 and frames.shape == data.shape

    @pytest.mark.parametrize("m", [1, 4, 16, 64, 256, "dead"])
    def test_fit_around_a_buffer_equals_the_fit_on_the_matrix(self, m):
        # The frames as the x half of their [x^2, x] buffer, a strided view,
        # fit to the bytes of the contiguous matrix, over more than a block.
        # "dead": three distinct frames for five components, so k-means
        # leaves clusters empty and EM re-seeds their zero-weight components.
        rng = np.random.default_rng(66)
        if m == "dead":
            m, data = 5, np.repeat(rng.standard_normal((3, 39)), 40, axis=0)[rng.permutation(120)]
            seeded = kmeans_init(TrainingFrames(data), TrainConfig(m, rng_seed=4))
            assert (seeded.weights == 0).any()
        else:
            data = blob_frames(rng, BLOCK_FRAMES + 300, 40, spread=3.0)
        config = TrainConfig(m, max_em_iterations=4, kmeans_max_iterations=4,
                             convergence_tol=1e-12, rng_seed=4)
        frames = TrainingFrames.around(data[:50], data[50:])
        assert np.shares_memory(frames.data, frames.x2) and not frames.data.flags.c_contiguous
        assert np.array_equal(frames.data, data) and frames.shape == data.shape
        with gmm.one_blas_thread():
            got, want = em_fit(frames, config), em_fit(data, config)
        assert_same_fit(got, want)
        assert (got[0].weights > 0).all()

    def test_dead_components_reseeded_at_the_worst_frames(self):
        # k-means leaves two of five clusters empty on three distinct frames.
        # The first M-step puts them at the lowest-likelihood frames, with
        # the global variance and weight 1/T before the weights are
        # renormalized.
        rng = np.random.default_rng(66)
        data = np.repeat(rng.standard_normal((3, 39)), 40, axis=0)[rng.permutation(120)]
        config = TrainConfig(5, max_em_iterations=1, rng_seed=4)
        seeded = kmeans_init(TrainingFrames(data), config)
        dead = np.flatnonzero(seeded.weights == 0)
        frame_ll = np.empty(120)
        kernel = gmm._kernel(seeded.weights, seeded.means, seeded.variances)
        occupancy, _ = gmm._accumulate(gmm.squares_and_frames(data), *kernel, frame_ll)
        model, trace = em_fit(data, config)
        assert dead.size == 2 and len(trace) == 1
        assert np.array_equal(model.means[dead], data[np.argsort(frame_ll)[:2]])
        global_var = TrainingFrames(data).variance_floor(config.variance_floor_factor)[1]
        assert np.array_equal(model.variances[dead], [global_var, global_var])
        weights = np.where(seeded.weights == 0, 1.0, occupancy) / 120
        assert np.array_equal(model.weights, weights / weights.sum())

    def test_frames_seeded_otherwise_than_the_config_rejected(self):
        # The pick cache keeps the seed of its first pick: a fit under
        # another seed would get seeds it did not ask for.
        data = blob_frames(np.random.default_rng(65), 100, 3, spread=3.0)
        frames = gmm.TrainingFrames(data)
        frames.seeds(2, 7)
        with pytest.raises(ValueError, match="picked under seed 7, asked for seed 4"):
            em_fit(frames, self.CONFIG)
        assert np.array_equal(frames.seeds(3, 7), gmm.TrainingFrames(data).seeds(3, 7))

    def test_kmeans_init_seeds_from_the_config(self):
        data = blob_frames(np.random.default_rng(67), 200, 4, spread=3.0)
        firsts = []
        for seed in (4, 9):
            frames = gmm.TrainingFrames(data)
            kmeans_init(frames, dataclasses.replace(self.CONFIG, num_components=3, rng_seed=seed))
            assert frames._order[0] == np.random.default_rng(seed).integers(200)
            firsts.append(frames._order[0])
        assert firsts[0] != firsts[1]

    def test_more_seeds_than_frames_rejected_before_any_pick(self):
        data = blob_frames(np.random.default_rng(62), 100, 3, spread=3.0)
        frames = gmm.TrainingFrames(data)
        with pytest.raises(FewerFramesThanComponents):
            frames.seeds(101, 0)
        assert frames._order == []


class TestModelLayout:
    def test_f_ordered_model_scores_and_refits_like_its_c_copy(self):
        # _kernel's row sums over the variances round by the memory layout,
        # so the model keeps C-ordered arrays whatever it was given.
        rng = np.random.default_rng(63)
        model = random_model(rng, 64, 39)
        model.variances = rng.uniform(0.01, 5.0, (64, 39))
        fortran = GmmModel(
            *(np.asfortranarray(a) for a in (model.weights, model.means, model.variances))
        )
        assert fortran.means.flags.c_contiguous and fortran.variances.flags.c_contiguous
        frames = rng.uniform(-3.0, 3.0, (BLOCK_FRAMES + 7, 39))
        x2 = gmm.squares_and_frames(frames)
        results = []
        for m in (model, fortran):
            kernel = gmm._kernel(m.weights, m.means, m.variances)
            frame_ll = np.empty(frames.shape[0])
            stats = gmm._accumulate(x2, *kernel, frame_ll)
            results.append([*kernel, frame_ll, *stats])
        for got, want in zip(*results):
            assert np.array_equal(got, want)
        assert log_likelihood_sequence(fortran, frames) == log_likelihood_sequence(model, frames)


class TestEmFitMemory:
    def test_peak_stays_below_one_frames_by_components_array(self):
        # The E-step and the k-means assignment work in frame blocks, so
        # nothing of size frames x components is ever allocated.
        t, m = 32768, 256
        data = np.random.default_rng(42).standard_normal((t, 39))
        config = TrainConfig(num_components=m, max_em_iterations=2, kmeans_max_iterations=2)
        tracemalloc.start()
        try:
            em_fit(data, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < t * m * 8

    def test_fit_holds_at_most_three_copies_of_its_frames(self):
        # [x^2, x] is made after the k-means step, so it never sits beside
        # the k-means working set (the frames column-wise and deviations).
        data = np.random.default_rng(43).standard_normal((20000, 39))
        config = TrainConfig(num_components=16, max_em_iterations=2, kmeans_max_iterations=2)
        tracemalloc.start()
        try:
            em_fit(data, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.2 * data.nbytes

    def test_kmeans_around_a_buffer_holds_no_matrix_of_deviations(self):
        # Beside a prebuilt [x^2, x] buffer, k-means holds the frames
        # column-wise and takes the cluster variances one dimension at a
        # time; a T x D matrix of deviations would put the peak at 2x.
        data = np.random.default_rng(44).standard_normal((20000, 39))
        frames = TrainingFrames.around(data)
        config = TrainConfig(num_components=16, kmeans_max_iterations=2)
        tracemalloc.start()
        try:
            kmeans_init(frames, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * data.nbytes


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_components": 0},
            {"num_components": 2, "max_em_iterations": 0},
            {"num_components": 2, "convergence_tol": 0.0},
            {"num_components": 2, "variance_floor_factor": -1.0},
            {"num_components": 2, "kmeans_max_iterations": 0},
            {"num_components": 2, "convergence_tol": math.nan},
            {"num_components": 2, "convergence_tol": math.inf},
            {"num_components": 2, "variance_floor_factor": math.inf},
            {"num_components": 2, "variance_floor_factor": -math.inf},
            {"num_components": math.nan},
            {"num_components": 2, "rng_seed": -3},
            {"num_components": 2.0},
            {"num_components": True},
            {"num_components": 2, "convergence_tol": "1e-5"},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_variance_floor_rejected_before_the_fit(self, monkeypatch):
        # factor * variance is inf: a ConfigError naming the field, with no
        # numpy warning, before k-means starts.
        monkeypatch.setattr(gmm, "kmeans_init", lambda *args: pytest.fail("fit started"))
        data = np.random.default_rng(3).uniform(-10.0, 10.0, (50, 3))
        with pytest.raises(ConfigError, match="train.variance_floor_factor 1e"):
            em_fit(data, TrainConfig(num_components=2, variance_floor_factor=1e308))

    @pytest.mark.parametrize(
        "data",
        [
            [[1e160, 0.0], [-1e160, 1.0], [0.0, 2.0]],  # variance and norms overflow
            [[1.3e154, 0.0], [-1.3e154, 1.0], [0.0, 2.0]],  # the variance only
            [[1e155, 1e155]] * 3,  # the norms only: the variance is zero
        ],
    )
    def test_frames_overflowing_when_squared_rejected_before_the_fit(self, data, monkeypatch):
        # Finite frames whose variance or squared norms are not: a
        # ValueError naming the frames, not the variance floor, with no
        # numpy warning, before k-means starts, for a matrix and a buffer.
        monkeypatch.setattr(gmm, "kmeans_init", lambda *args: pytest.fail("fit started"))
        data = np.array(data)
        message = "training data overflows when squared"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                em_fit(data, TrainConfig(1))
            with pytest.raises(ValueError, match=message):
                TrainingFrames.around(data[:1], data[1:])

    @pytest.mark.parametrize(
        "data, message",
        [
            # k-means' -2 x.c products overflow (4x the largest squared norm).
            ([[1.2e154, 0.0], [1.2e154, 1.0], [1.1e154, 2.0]], "when squared"),
            # The EM statistics' sums over the frames overflow (T times that).
            ([[6.3e153 + k * 1e150, float(k)] for k in range(5)], "when squared"),
            # The constant column's variance floors at 1e-12, and the E-step's
            # x^2 / (2 var) overflows.
            ([[1e150, float(k)] for k in range(4)], "over its variance floor"),
        ],
    )
    def test_frames_overflowing_in_the_fit_rejected_before_kmeans(self, data, message, monkeypatch):
        # Finite variance and squared norms, but a fit's arithmetic on them
        # overflows: a ValueError naming the frames, with no numpy warning,
        # before k-means starts, for a matrix and a buffer.
        monkeypatch.setattr(gmm, "kmeans_init", lambda *args: pytest.fail("fit started"))
        data = np.array(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for frames in (lambda: data, lambda: TrainingFrames.around(data[:1], data[1:])):
                with pytest.raises(ValueError, match="training data overflows " + message) as caught:
                    em_fit(frames(), TrainConfig(2))
                assert not isinstance(caught.value, ConfigError)


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(32)
        model = random_model(rng, 5, 7)
        path = tmp_path / "m.gmm"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.means, model.means)
        assert np.array_equal(back.variances, model.variances)

    def test_weights_not_summing_to_one_rejected(self, tmp_path):
        model = GmmModel([0.5, 0.5], [[0.0], [1.0]], [[1.0], [1.0]])
        path = tmp_path / "m.gmm"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[16:24] = struct.pack("<d", 0.3)  # first weight, sum becomes 0.8
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelInvariantError):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = GmmModel([1.0], [[0.0]], [[1.0]])
        path = tmp_path / "m.gmm"
        save_model(model, path)
        blob = path.read_bytes()
        for cut in (5, 16, len(blob) - 8):
            path.write_bytes(blob[:cut])
            with pytest.raises(ModelFileError):
                load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        model = GmmModel([1.0], [[0.0]], [[1.0]])
        path = tmp_path / "m.gmm"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"WHAT"
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_unsupported_version_rejected(self, tmp_path):
        model = GmmModel([1.0], [[0.0]], [[1.0]])
        path = tmp_path / "m.gmm"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelVersionError):
            load_model(path)

    @pytest.mark.parametrize("dim, m, values", [(2, 0, 0), (0, 4, 4)])
    def test_empty_size_rejected(self, tmp_path, dim, m, values):
        # The payload length matches the header, so only the empty size is wrong.
        # Matched after the file name: the test's directory says "empty" too.
        path = tmp_path / "m.gmm"
        path.write_bytes(struct.pack("<4sIII", b"GMM1", 1, dim, m) + bytes(8 * values))
        with pytest.raises(ModelFileError, match=r"m\.gmm: empty"):
            load_model(path)

    def test_saving_invalid_model_rejected(self, tmp_path):
        model = GmmModel([0.9, 0.3], [[0.0], [1.0]], [[1.0], [1.0]])
        with pytest.raises(ModelInvariantError):
            save_model(model, tmp_path / "m.gmm")


def valid_model_blob():
    model = GmmModel([0.25, 0.75], [[0.0, 1.0], [2.0, -1.0]], [[1.0, 0.5], [2.0, 1.0]])
    header = struct.pack("<4sIII", b"GMM1", 1, 2, 2)
    return header + np.concatenate(
        [model.weights, model.means.ravel(), model.variances.ravel()]
    ).astype("<f8").tobytes()


def header_and_payload(magic):
    """Byte strings built like a container: magic, version, two counts and
    a payload of float64s, with fields that are often near valid."""
    count = st.integers(0, 3) | st.integers(0, 2**32 - 1)
    floats = st.lists(st.floats(width=64), max_size=24)
    payload = floats.map(lambda xs: struct.pack(f"<{len(xs)}d", *xs)) | st.binary(max_size=64)
    return st.builds(
        lambda version, a, b, tail: struct.pack("<4sIII", magic, version, a, b) + tail,
        st.sampled_from([1, 1, 2]),
        count,
        count,
        payload,
    )


class TestLoadModelFuzz:
    @settings(
        derandomize=True,
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        blob=st.binary(max_size=80)
        | header_and_payload(b"GMM1")
        | mutations(valid_model_blob())
    )
    def test_any_bytes_parse_or_raise_a_domain_error(self, tmp_path, blob):
        path = tmp_path / "m.gmm"
        path.write_bytes(blob)
        try:
            model = load_model(path)
        except DialectIdError:
            return
        model.validate()
        assert model.num_components >= 1 and model.dim >= 1
