"""Diagonal-covariance Gaussian mixture models.

Frame density: p(x) = sum_i w_i * N(x | mu_i, diag(var_i)). Everything is
computed in the log domain via log-sum-exp so long utterances and narrow
variances do not underflow. Training is seeded k-means followed by EM with
a per-dimension variance floor, and is fully deterministic for a given
(data, config) pair.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    FewerFramesThanComponents,
    ModelFileError,
    ModelInvariantError,
    ModelVersionError,
    require_finite_fields,
)
from .fileio import read_container, write_container

MODEL_MAGIC = b"GMM1"
MODEL_VERSION = 1

WEIGHT_SUM_TOL = 1e-9

# A component whose responsibility mass drops below this fraction of the
# frame count is considered dead and gets re-seeded.
EMPTY_COMPONENT_FRACTION = 1e-10

# Absolute lower bound on the variance floor so constant dimensions cannot
# produce zero variances.
_MIN_VARIANCE = 1e-12

# Frames per block in scoring, the E-step and the k-means assignment. It is
# fixed, not tuned to the machine, so results never depend on the hardware;
# working memory is O(BLOCK_FRAMES * M) instead of O(frames * M).
BLOCK_FRAMES = 4096

# Log-joints more than this far below their frame's peak are set to -inf,
# which exp maps to exact zero responsibilities. Their exps would be below
# e^-700 of a row sum that is at least 1, so the sums absorb them; but exp
# takes a slow path for finite inputs below about -708, whose results are
# subnormal or zero, and subnormal responsibilities slow the statistics GEMM.
EXP_CUT = -700.0


@dataclass(eq=False)
class GmmModel:
    """weights (M,), means (M, D), variances (M, D); diagonal covariances."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        # C order always: the row sums in _kernel follow the memory layout,
        # so an F-ordered array from a caller would change their rounding.
        self.weights = np.asarray(self.weights, dtype=np.float64, order="C")
        self.means = np.asarray(self.means, dtype=np.float64, order="C")
        self.variances = np.asarray(self.variances, dtype=np.float64, order="C")
        if self.weights.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        if self.means.ndim != 2 or self.variances.ndim != 2:
            raise ValueError("means and variances must be 2-D")
        m = self.weights.shape[0]
        if self.means.shape[0] != m or self.variances.shape != self.means.shape:
            raise ValueError("weights, means, variances have inconsistent shapes")

    @property
    def num_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def validate(self) -> None:
        """Raise ModelInvariantError unless this is a usable mixture."""
        if not (
            np.isfinite(self.weights).all()
            and np.isfinite(self.means).all()
            and np.isfinite(self.variances).all()
        ):
            raise ModelInvariantError("model contains non-finite values")
        if (self.weights < 0.0).any():
            raise ModelInvariantError("negative mixture weight")
        total = float(self.weights.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ModelInvariantError(f"weights sum to {total!r}, expected 1")
        if (self.variances <= 0.0).any():
            raise ModelInvariantError("non-positive variance")


@dataclass
class TrainConfig:
    """EM training knobs. rng_seed makes the whole fit reproducible."""

    num_components: int
    max_em_iterations: int = 100
    convergence_tol: float = 1e-5
    variance_floor_factor: float = 1e-3
    rng_seed: int = 0
    kmeans_max_iterations: int = 50

    def __post_init__(self):
        require_finite_fields(self)
        if self.num_components < 1:
            raise ValueError("num_components must be at least 1")
        if self.max_em_iterations < 1:
            raise ValueError("max_em_iterations must be at least 1")
        if self.convergence_tol <= 0.0:
            raise ValueError("convergence_tol must be positive")
        if self.variance_floor_factor <= 0.0:
            raise ValueError("variance_floor_factor must be positive")
        if self.kmeans_max_iterations < 1:
            raise ValueError("kmeans_max_iterations must be at least 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


def _kernel(
    weights: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Projection (M, 2D) and constant (M,) of the one-GEMM log-joint.

    log w_i + log N(x | mu_i, var_i) = [x^2, x] . proj_i + const_i, with
    proj_i = [-1 / (2 var_i), mu_i / var_i] and
    const_i = log w_i - (D log 2pi + sum log var_i + sum mu_i^2 / var_i) / 2.
    Zero weights give -inf constants, which the log-sum-exp handles exactly.
    """
    inv_var = 1.0 / variances
    scaled_means = means * inv_var
    proj = np.hstack([-0.5 * inv_var, scaled_means])
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    const = log_w - 0.5 * (
        means.shape[1] * math.log(2.0 * math.pi)
        + np.log(variances).sum(axis=1)
        + (means * scaled_means).sum(axis=1)
    )
    return proj, const


def squares_and_frames(*parts: np.ndarray) -> np.ndarray:
    """[x^2, x] per frame of the parts stacked in order, shape (T, 2D): the
    left operand of the kernel. The frames go straight into the right half
    and are squared from there, so no stacked copy of them is made."""
    dim = parts[0].shape[1]
    x2 = np.empty((sum(p.shape[0] for p in parts), 2 * dim))
    np.concatenate(parts, out=x2[:, dim:])
    np.multiply(x2[:, dim:], x2[:, dim:], out=x2[:, :dim])
    return x2


def _block_posteriors(
    x2: np.ndarray, proj: np.ndarray, const: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame log-likelihoods of one block and the exps that give them.

    Returns (frame_ll (B,), post (B, M), row_sum (B,)) where post holds
    exp(log_joint - row max), zero below EXP_CUT, and post / row_sum are the
    responsibilities, so a single exp over the block serves the likelihood
    and the E-step. Every kept entry is exactly np.exp's value.
    """
    post = x2 @ proj.T
    post += const
    # Each row's max, read at its argmax, which is faster than max. It is
    # finite: weights sum to one, so all-(-inf) rows cannot occur.
    peak = np.take_along_axis(post, post.argmax(axis=1)[:, None], axis=1)[:, 0]
    post -= peak[:, None]
    # exp(-inf) is +0.0, as for a zero-weight component's log-joints.
    np.putmask(post, post < EXP_CUT, -np.inf)
    np.exp(post, out=post)
    row_sum = post.sum(axis=1)
    return peak + np.log(row_sum), post, row_sum


def log_likelihood_segments(model: GmmModel, utterances: list[np.ndarray]) -> list[float]:
    """Total log-likelihood of each (T_i, D) feature matrix in utterances,
    under one kernel. A frame's value can move in its last bits with its
    place in a block, so each utterance is scored in its own blocks of
    BLOCK_FRAMES rows from its first frame, squared as they are scored, and
    summed exactly (fsum): its value is log_likelihood_sequence's."""
    proj, const = _kernel(model.weights, model.means, model.variances)
    scores = []
    for frames in utterances:
        ll = []
        for b in range(0, len(frames), BLOCK_FRAMES):
            block = squares_and_frames(frames[b : b + BLOCK_FRAMES])
            ll += _block_posteriors(block, proj, const)[0].tolist()
        scores.append(math.fsum(ll))
    return scores


def log_likelihood_sequence(model: GmmModel, features: np.ndarray) -> float:
    """Total log-likelihood of a feature matrix: sum over frame densities,
    scored as log_likelihood_segments' one utterance, so a long utterance
    costs one block of extra memory."""
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if f.shape[0] < 1:
        raise ValueError("empty feature matrix")
    if f.shape[1] != model.dim:
        raise ValueError(f"frame dim {f.shape[1]} != model dim {model.dim}")
    return log_likelihood_segments(model, [f])[0]


def _accumulate(
    x2: np.ndarray, proj: np.ndarray, const: np.ndarray, frame_ll: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """E-step over fixed frame blocks.

    Fills frame_ll (T,) and returns the occupancy (M,) and the
    [second-order, first-order] statistics (M, 2D), i.e. the sums over
    frames of resp and resp * [x^2, x], added block by block in frame order.
    """
    occupancy = np.zeros(proj.shape[0])
    stats = np.zeros(proj.shape)
    for lo in range(0, x2.shape[0], BLOCK_FRAMES):
        block = x2[lo : lo + BLOCK_FRAMES]
        ll, post, row_sum = _block_posteriors(block, proj, const)
        frame_ll[lo : lo + block.shape[0]] = ll
        post /= row_sum[:, None]
        occupancy += post.sum(axis=0)
        stats += post.T @ block
    return occupancy, stats


def _sq_dist_to(data: np.ndarray, sq_norms: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared distance of every frame to one center, as one mat-vec."""
    d2 = data @ center
    d2 *= -2.0
    d2 += sq_norms
    d2 += center @ center
    return np.maximum(d2, 0.0, out=d2)


def _assign(
    data: np.ndarray, sq_norms: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest center per frame and its squared distance, block by block.

    The frame's own squared norm does not change which center is nearest,
    so it is added only to the minimum. Ties go to the lowest index.
    """
    center_norms = (centers * centers).sum(axis=1)
    # Scaling by -2 is exact, so folding it into the centers changes no bit.
    scaled = -2.0 * centers
    t = data.shape[0]
    assignment = np.empty(t, dtype=np.intp)
    min_d2 = np.empty(t)
    for lo in range(0, t, BLOCK_FRAMES):
        d2 = data[lo : lo + BLOCK_FRAMES] @ scaled.T
        d2 += center_norms
        nearest = d2.argmin(axis=1)
        hi = lo + nearest.size
        assignment[lo:hi] = nearest
        min_d2[lo:hi] = np.take_along_axis(d2, nearest[:, None], axis=1)[:, 0]
    min_d2 += sq_norms
    return assignment, np.maximum(min_d2, 0.0, out=min_d2)


def _cluster_means(columns, assignment: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-cluster mean of frames given column by column (D of length T),
    shape (k, D).

    Each dimension is summed per cluster by one weighted np.bincount, which
    adds frames in frame order; empty clusters get zero means.
    """
    sums = np.stack(
        [np.bincount(assignment, weights=c, minlength=counts.size) for c in columns],
        axis=1,
    )
    return sums / np.maximum(counts, 1)[:, None]


class TrainingFrames:
    """A training matrix with the terms every fit on it computes first, and
    its farthest-first k-means seeds, picked on demand.

    The terms are the variance and largest square per dimension and the
    squared frame norms, refused if a fit's sums of them overflow; x2 is
    [x^2, x] if around made it, else None. The first seed is a random frame
    drawn under the seed of the first pick, which no later pick may change;
    each next one is the frame farthest from all seeds so far, ties going to
    the lowest index. Each pick depends only on the picks before it, so the
    seeds for k are a prefix of the seeds for any larger k. Fits of several
    sizes on the same frames and seed can therefore share one TrainingFrames:
    none computes the terms again, and each picks only the seeds that no fit
    before it did.
    """

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] < 1:
            raise ValueError("training data must be a non-empty 2-D matrix")
        if not np.isfinite(data).all():
            raise ValueError("training data contains non-finite values")
        self.data = data
        self.shape = data.shape  # (T, D), like the matrix em_fit also takes
        with np.errstate(over="ignore", invalid="ignore"):
            self.variance = data.var(axis=0)
            squares = data * data
            self.sq_norms = squares.sum(axis=1)
        # k-means distances and cluster variances are at most 4x the largest
        # squared norm; their sums and the EM statistics, T times that.
        bound = 4.0 * data.shape[0] * float(self.sq_norms.max())
        if not (np.isfinite(self.variance).all() and math.isfinite(bound)):
            raise ValueError("training data overflows when squared")
        self.peak_squares = squares.max(axis=0)
        self.x2 = None
        self._seed = None
        self._order: list[int] = []
        self._min_d2 = None

    @classmethod
    def around(cls, *features: np.ndarray) -> TrainingFrames:
        """TrainingFrames of the feature matrices stacked in order, held once
        as their [x^2, x] buffer x2 (squares_and_frames), whose x half, a
        strided view, is data. Fits on it are those on the stacked matrix."""
        with np.errstate(over="ignore"):  # cls names frames that overflow
            x2 = squares_and_frames(*features)
        frames = cls(x2[:, x2.shape[1] // 2 :])
        frames.x2 = x2
        return frames

    def variance_floor(self, factor: float) -> tuple[np.ndarray, np.ndarray]:
        """(per-dimension variance floor, floored global variance), or, before
        any fit, a ConfigError if the floor overflows and a ValueError if the
        frames overflow over it: an E-step log-joint's terms are at most 2
        sum_d (the largest x_d^2) / floor_d in size, and a fit sums T of them."""
        if math.isinf(factor * float(self.variance.max())):
            raise ConfigError(f"variance floor overflows (train.variance_floor_factor {factor})")
        floor = np.maximum(factor * self.variance, _MIN_VARIANCE)
        with np.errstate(over="ignore"):
            bound = 4.0 * self.shape[0] * (self.peak_squares / floor).sum()
        if math.isinf(bound):
            raise ValueError(f"training data overflows over its variance floor (factor {factor})")
        return floor, np.maximum(self.variance, floor)

    def seeds(self, k: int, seed: int) -> np.ndarray:
        """Frame indices of the first k seeds, shape (k,), the first drawn
        under seed; a seed other than the first pick's is refused. Each pick is
        a mat-vec over every frame, which is ~24% slower on a strided view (as
        around gives), so new picks run on a contiguous copy made for them."""
        if self._seed is not None and seed != self._seed:
            raise ValueError(f"seeds picked under seed {self._seed}, asked for seed {seed}")
        t = self.shape[0]
        if t < k:
            raise FewerFramesThanComponents(f"{t} frames < {k} mixture components")
        if len(self._order) < k:
            data = np.ascontiguousarray(self.data)
            if not self._order:
                self._seed = seed
                self._order.append(int(np.random.default_rng(seed).integers(t)))
                self._min_d2 = _sq_dist_to(data, self.sq_norms, data[self._order[0]])
            while len(self._order) < k:
                pick = int(np.argmax(self._min_d2))
                self._order.append(pick)
                np.minimum(
                    self._min_d2, _sq_dist_to(data, self.sq_norms, data[pick]), out=self._min_d2
                )
        return np.array(self._order[:k], dtype=np.intp)


def kmeans_init(frames: TrainingFrames, config: TrainConfig) -> GmmModel:
    """Seeded k-means initialization for EM.

    The initial centers are the first config.num_components seeds of
    frames. Lloyd iterations then run until assignments stop changing or
    config.kmeans_max_iterations is hit. Cluster occupancy fractions become
    the initial weights and per-cluster variances are floored. Ties in
    distance always resolve to the lowest index, so the result depends only
    on the frames and the config, whose rng_seed picks the first seed.
    """
    k = config.num_components
    data, sq_norms = frames.data, frames.sq_norms
    centers = data[frames.seeds(k, config.rng_seed)]
    columns = np.ascontiguousarray(data.T)
    t = data.shape[0]
    floor, global_var = frames.variance_floor(config.variance_floor_factor)

    assignment, _ = _assign(data, sq_norms, centers)
    for _ in range(config.kmeans_max_iterations):
        counts = np.bincount(assignment, minlength=k)
        nonempty = counts > 0
        centers[nonempty] = _cluster_means(columns, assignment, counts)[nonempty]
        new_assignment, min_d2 = _assign(data, sq_norms, centers)
        empty = np.flatnonzero(np.bincount(new_assignment, minlength=k) == 0)
        if empty.size:
            # Re-seed empty clusters at the frames farthest from any center.
            farthest = np.argsort(-min_d2, kind="stable")[: empty.size]
            centers[empty] = data[farthest]
            new_assignment, _ = _assign(data, sq_norms, centers)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment

    counts = np.bincount(assignment, minlength=k)
    nonempty = counts > 0
    means = _cluster_means(columns, assignment, counts)
    centers[nonempty] = means[nonempty]
    # One dimension at a time, so no T x D matrix of deviations is held.
    deviations = ((c - mean[assignment]) ** 2 for c, mean in zip(columns, means.T))
    cluster_var = np.maximum(_cluster_means(deviations, assignment, counts), floor)
    variances = np.where(nonempty[:, None], cluster_var, global_var)
    return GmmModel(counts / t, centers, variances)


def em_fit(data: np.ndarray | TrainingFrames, config: TrainConfig) -> tuple[GmmModel, list[float]]:
    """Fit a diagonal GMM with EM; returns (model, per-iteration log-likelihoods).

    The trace is evaluated before each M-step and is non-decreasing (up to
    float noise) as long as no component dies. A component whose
    responsibility mass falls below EMPTY_COMPONENT_FRACTION * num_frames is
    re-seeded at the lowest-likelihood frame with the global variance and a
    1/num_frames weight, keeping the component count fixed. The E-step runs
    over blocks of BLOCK_FRAMES frames, so its working memory does not grow
    with the frame count beyond [x^2, x]: TrainingFrames.x2, else one made
    after k-means, never beside its working set. data is the frame matrix
    or its TrainingFrames, the fit the same either way; fits sharing a
    TrainingFrames must share config.rng_seed.
    """
    frames = data if isinstance(data, TrainingFrames) else TrainingFrames(data)
    data = frames.data
    t, dim = data.shape
    floor, global_var = frames.variance_floor(config.variance_floor_factor)

    model = kmeans_init(frames, config)
    weights = model.weights
    means = model.means
    variances = model.variances

    x2 = squares_and_frames(data) if frames.x2 is None else frames.x2
    frame_ll = np.empty(t)
    trace: list[float] = []
    for iteration in range(config.max_em_iterations):
        occupancy, stats = _accumulate(x2, *_kernel(weights, means, variances), frame_ll)
        total = math.fsum(frame_ll.tolist())
        trace.append(total)
        if iteration > 0:
            previous = trace[-2]
            if total - previous < config.convergence_tol * (abs(previous) + 1e-12):
                break

        alive = occupancy >= EMPTY_COMPONENT_FRACTION * t

        safe_mass = np.where(alive, occupancy, 1.0)[:, None]
        new_means = stats[:, dim:] / safe_mass
        new_vars = stats[:, :dim] / safe_mass - new_means**2
        new_weights = occupancy / t

        if not alive.all():
            dead = np.flatnonzero(~alive)
            worst = np.argsort(frame_ll)[: dead.size]
            new_means[dead] = data[worst]
            new_vars[dead] = global_var
            new_weights[dead] = 1.0 / t
            new_weights = new_weights / new_weights.sum()

        weights = new_weights
        means = new_means
        variances = np.maximum(new_vars, floor)

    return GmmModel(weights, means, variances), trace


@functools.cache
def _openblas_thread_functions():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy's
    wheel, or None when numpy uses another BLAS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    names = os.listdir(libs) if os.path.isdir(libs) else []
    for name in sorted(n for n in names if n.startswith("libscipy_openblas")):
        lib = ctypes.CDLL(os.path.join(libs, name))
        try:
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore the saved
    count; yields False, changing nothing, when the setter is not found.
    Nesting is fine, but not two threads using it at once: the count is
    process-wide."""
    handles = _openblas_thread_functions()
    if handles is None:
        yield False
        return
    get, set_ = handles
    saved = get()
    set_(1)
    try:
        yield True
    finally:
        set_(saved)


def run_pair(lt_job, ct_job):
    """(lt_job(), ct_job()) for two jobs that share nothing, LT then CT.

    With two usable CPUs the CT job runs on a second thread while the LT job
    runs on the calling one. OpenBLAS is held at one thread meanwhile, so the
    cores are not oversubscribed and results are those of a one-thread BLAS
    whatever OPENBLAS_NUM_THREADS says. With one CPU the jobs run in turn,
    still on one BLAS thread; without the OpenBLAS setter they run in turn on
    the BLAS's own threads. An LT exception, KeyboardInterrupt included, is
    raised at once, before any CT error; the daemon CT thread then finishes
    unwaited, its result dropped, on the restored BLAS thread count. A CT
    exception, SystemExit included, is raised after the LT job returns, as
    the jobs in turn would raise it; a returned exception is a result.
    """
    with one_blas_thread() as pinned:
        if not pinned or len(os.sched_getaffinity(0)) < 2:
            return lt_job(), ct_job()
        ct_outcome: list = []  # [(raised, value)]

        def run_ct():
            try:
                ct_outcome.append((False, ct_job()))
            except BaseException as exc:
                ct_outcome.append((True, exc))

        worker = threading.Thread(target=run_ct, name="dialectid-ct", daemon=True)
        worker.start()
        lt = lt_job()
        worker.join()
        ((raised, ct),) = ct_outcome
        if raised:
            raise ct
        return lt, ct


def save_model(model: GmmModel, path) -> None:
    """Serialize a validated model: header then weights, means, variances."""
    model.validate()
    arrays = [model.weights, model.means, model.variances]
    write_container(path, MODEL_MAGIC, MODEL_VERSION, (model.dim, model.num_components), arrays)


def load_model(path, blob: bytes | None = None) -> GmmModel:
    """Read a model file (or blob, its bytes), checking magic, version, size, and invariants."""
    dim, m, flat = read_container(path, MODEL_MAGIC, MODEL_VERSION, lambda d, m: m + 2 * m * d,
                                  ModelFileError, ModelVersionError, blob)
    model = GmmModel(flat[:m], *flat[m:].reshape(2, m, dim))  # weights, means, variances
    model.validate()
    return model
