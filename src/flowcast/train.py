"""Training: losses, reverse-mode gradients, and the SGD fit loop.

The gradient path records one tape over a whole minibatch (windows
stacked on a leading axis) and differentiates the sampled forecast
pipeline end to end — through transitions, emissions, the sampled decoder
feedback and the flow's affine map.  The flow *coefficients* (the frozen
ensemble moments, H, and the map K, k composed from S^-1, beta and the
noise variances) are treated as constants: gradients do not flow into
them, and the recorded trace can be replayed so finite-difference checks
differentiate exactly the same function.  Forecasting runs the same
:func:`batch_forward` on plain parameter arrays.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import config as config_mod
from . import flow as flow_mod
from . import ssm as ssm_mod
from .data import Window
from .errors import DataError, NumericError

_LOG_2PI = math.log(2.0 * math.pi)

# windows per stacked batch when evaluating a whole split
CHUNK_WINDOWS = 256

# particle rows (windows x particles) per stacked forecast batch, and the
# rows x steps of one block of encoder transition draws: a batch's
# temporaries grow with its rows, so the budget bounds its memory whatever
# the particle count (six windows at 100 particles)
CHUNK_ROWS = 600


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
@config_mod.schema_defaults("train")
class TrainConfig:
    """Optimization knobs: the ``train`` settings, whose defaults and ranges ``config.SCHEMA`` declares, and the flow's."""

    loss: str
    lr: float
    milestones: tuple
    lr_factor: float
    clip_norm: float
    batch_size: int
    max_epochs: int
    patience: int
    n_particles_train: int
    n_particles_eval: int
    scheduled_sampling_tau: float
    seed: int
    learn_rho_sigma: bool
    flow: flow_mod.FlowConfig = field(default_factory=flow_mod.FlowConfig)

    def __post_init__(self):
        config_mod.check_settings("train", vars(self))
        object.__setattr__(self, "milestones", tuple(self.milestones))  # a config file's list


@dataclass
class TrainData:
    """Windows the fit loop consumes (already standardized)."""

    train_windows: List[Window]
    val_windows: List[Window]
    graph: Optional[ssm_mod.Graph] = None


@dataclass
class TrainResult:
    model: ssm_mod.ModelTheta
    log: List[dict]
    best_epoch: int
    best_val: float
    stopped_early: bool = False
    diverged: bool = False


# ---------------------------------------------------------------------------
# parameter plumbing
# ---------------------------------------------------------------------------


def param_names(model: ssm_mod.ModelTheta) -> List[str]:
    return list(model.params)


def get_param(model: ssm_mod.ModelTheta, name: str) -> np.ndarray:
    return model.params[name]


def flatten_params(model: ssm_mod.ModelTheta, values: Optional[Dict[str, np.ndarray]] = None) -> np.ndarray:
    """``values`` (the model's own by default) raveled into one vector, in ``model.params`` order."""
    values = model.params if values is None else values
    return np.concatenate([np.ravel(values[name]) for name in model.params], dtype=np.float64)


def unflatten_params(model: ssm_mod.ModelTheta, vector: np.ndarray) -> Dict[str, np.ndarray]:
    """The inverse of :func:`flatten_params`: a name -> array dict shaped as ``model.params``."""
    sizes = [arr.size for arr in model.params.values()]
    if np.size(vector) != sum(sizes):
        raise DataError("flat parameter vector has the wrong length")
    pieces = np.split(np.array(vector, dtype=np.float64), np.cumsum(sizes)[:-1])
    return {name: piece.reshape(arr.shape) for (name, arr), piece in zip(model.params.items(), pieces)}


# ---------------------------------------------------------------------------
# batched window stacks
# ---------------------------------------------------------------------------


@dataclass
class BatchArrays:
    """One minibatch, stacked: histories, targets, covariates, and what seeds each window's noise."""

    y_hist: np.ndarray  # (B, P, N)
    y_future: np.ndarray  # (B, Q, N)
    z: Optional[np.ndarray]  # (B, P+Q, d_z) or None
    window_ids: List[int]
    n_particles: int
    seed_key: tuple  # window i draws from SeedSequence((*seed_key, window_ids[i]))

    @property
    def sizes(self):
        b, p, n = self.y_hist.shape
        return b, p, self.y_future.shape[1], n


def stack_batch(windows: Sequence[Window], model: ssm_mod.ModelTheta, n_particles: int, seed_key) -> BatchArrays:
    """Stack windows: their histories, targets and covariates.

    The noise is not drawn here: :func:`batch_forward` draws each window's
    from its own generator, seeded with ``(*seed_key, window_id)``, as the
    pass reaches it, so a window's noise does not depend on the batch it is
    stacked in, and a stack holds no transition draws.  Q is read from the
    windows; windows without target rows give Q = 0.  ``model`` is not read
    (callers pass it).
    """
    y_hist = np.stack([np.asarray(w.y_past, dtype=np.float64) for w in windows])
    n = y_hist.shape[2]
    y_future = np.stack([np.zeros((0, n)) if w.y_future is None else np.asarray(w.y_future, dtype=np.float64) for w in windows])
    z = None
    if windows[0].z is not None:
        z = np.stack([np.asarray(w.z, dtype=np.float64) for w in windows])
    return BatchArrays(
        y_hist=y_hist,
        y_future=y_future,
        z=z,
        window_ids=[w.window_id for w in windows],
        n_particles=n_particles,
        seed_key=tuple(int(s) for s in np.atleast_1d(seed_key)),
    )


def _draw(rngs, shape) -> np.ndarray:
    """Each window's next standard normal draws of ``shape`` = (steps, ...), from its own generator: (steps, B, ...).

    A generator's consecutive draws are the numbers one larger draw gives,
    so the blocks :func:`batch_forward` draws make the same stream however
    it cuts them.
    """
    out = np.empty((shape[0], len(rngs)) + shape[1:])
    for i, rng in enumerate(rngs):
        out[:, i] = rng.standard_normal(shape)
    return out


# ---------------------------------------------------------------------------
# the batched forward pass (tape-transparent)
# ---------------------------------------------------------------------------


def batch_forward(
    params: Dict[str, object],
    model: ssm_mod.ModelTheta,
    batch: BatchArrays,
    flow_config: flow_mod.FlowConfig,
    graph: Optional[ssm_mod.Graph] = None,
    ss_mask: Optional[np.ndarray] = None,
    frozen_trace: Optional[list] = None,
    collect_trace: bool = False,
    noiseless: bool = False,
):
    """Run the assimilate-then-roll-out pipeline for a stacked batch.

    The encoder runs each window's particle ensemble through P
    transition/flow cycles against the observed history (no transition
    into the first step: the initial draw already is the time-1 prior).
    The decoder then alternates transitions and emissions for Q steps: the
    first decoder transition conditions every particle on the last
    observed value, later ones on each particle's own previous sample (or,
    where ``ss_mask`` is set, on the true value), and each particle emits
    one observation draw per horizon.

    Each window draws its noise from a generator seeded with ``(*seed_key,
    window_id)`` at the start of the call, in one order: the time-1 draw,
    the encoder transitions in blocks of at most ``CHUNK_ROWS`` rows x
    steps as the encoder reaches them, then, at the first decoder step, the
    Q decoder transitions and the Q measurement draws.  So every call on a
    batch sees the same noise, and the stack holds no transition draws.

    ``params`` maps parameter names to Vars (training) or arrays
    (inference).  Returns ``(samples, means, stds, trace)``: the (B, n_p,
    Q, N) samples, the per-step (B, n_p, N) emission means and stds, and
    the flow traces (one :class:`flow.FlowTrace` per encoder step, kept
    when ``collect_trace`` is set or a ``frozen_trace`` is replayed).
    """
    hyper = model.hyper
    b_sz, p_steps, q_steps, n = batch.sizes
    n_p, d = batch.n_particles, model.state_dim
    rngs = [np.random.default_rng(np.random.SeedSequence((*batch.seed_key, int(w)))) for w in batch.window_ids]
    block = max(1, CHUNK_ROWS // (b_sz * n_p))  # encoder transitions per draw
    w_phi_t = ad.transpose2(params["W_phi"])
    c_gamma_t = ad.transpose2(params["C_gamma"])
    w_phi_val = ad.val(params["W_phi"])
    c_gamma_val = ad.val(params["C_gamma"])
    mixing = None
    if hyper["kind"] == "graph_gru":
        mixing = ssm_mod.build_mixing(params, hyper, graph)
    # every particle of a window sees the window's history and covariates: (B, n_p, time, ...) views
    y_hist = np.broadcast_to(batch.y_hist[:, None], (b_sz, n_p) + batch.y_hist.shape[1:])
    z = None if batch.z is None else np.broadcast_to(batch.z[:, None], (b_sz, n_p) + batch.z.shape[1:])

    def step_transition(x, y_prev, t_index, dyn_noise):  # the transition into (1-based) time t
        out = ssm_mod.transition_core(params, hyper, x, y_prev, None if z is None else z[:, :, t_index - 1], mixing=mixing)
        return ad.add(out, ad.mul(params["sigma"], dyn_noise))

    # ---- encoder: assimilate the history -------------------------------
    def noise_var(means):  # emission variances at the running particle means
        std = np.logaddexp(0.0, means @ c_gamma_val.T)
        return std * std

    x = ad.mul(params["rho"], _draw(rngs, (1, n_p, d))[0])  # (B, n_p, D)
    trace: List[flow_mod.FlowTrace] = []
    for t in range(1, p_steps + 1):
        if t > 1:
            j = (t - 2) % block
            if j == 0:
                dyn = _draw(rngs, (min(block, p_steps + 1 - t), n_p, d))
            x = step_transition(x, y_hist[:, :, t - 2], t, dyn[j])
        if frozen_trace is None:
            y_t = batch.y_hist[:, t - 1, :]
            x, flow_trace = flow_mod.edh_flow(x, w_phi_val, y_t, noise_var, flow_config, return_trace=True, encoder_step=t, window_ids=batch.window_ids)
        else:  # replay the map the flow composed, with everything it froze, H included
            flow_trace = frozen_trace[t - 1]
            x = ad.flow_map(x, flow_trace.pht, flow_trace.h_mat, flow_trace.k_mat, flow_trace.k_vec)
            if not np.isfinite(ad.val(x)).all():
                row, particle = np.argwhere(~np.isfinite(ad.val(x)))[0][:2]
                where = f"window {batch.window_ids[row]} became non-finite during the frozen flow replay of encoder step {t}"
                raise flow_mod.FlowDivergedError(f"particle {particle} of {where}", batch.window_ids[row], t)
        if collect_trace or frozen_trace is not None:
            trace.append(flow_trace)

    # ---- decoder: sampled roll-out --------------------------------------
    sample_steps = []
    mean_steps = []
    std_steps = []
    for k in range(1, q_steps + 1):
        t = p_steps + k
        if k == 1:
            y_in = y_hist[:, :, p_steps - 1]
            dyn = _draw(rngs, (q_steps, n_p, d))  # measurement draws follow every transition draw in the stream
            meas = _draw(rngs, (q_steps, n_p, n))
        else:
            y_in = sample_steps[-1]
            if ss_mask is not None:
                mask = ss_mask[:, k - 2, None, None].astype(np.float64)  # (B, 1, 1)
                y_in = ad.add(mask * batch.y_future[:, None, k - 2], ad.mul(1.0 - mask, y_in))
        x = step_transition(x, y_in, t, dyn[k - 1])
        mean = ad.matmul(x, w_phi_t)
        std = ad.softplus(ad.matmul(x, c_gamma_t))
        sample_steps.append(mean if noiseless else ad.add(mean, ad.mul(std, meas[k - 1])))
        mean_steps.append(mean)
        std_steps.append(std)

    samples = ad.stack(sample_steps, axis=2) if q_steps else np.zeros((b_sz, n_p, 0, n))
    return samples, mean_steps, std_steps, trace


def _loss(kind: str, batch: BatchArrays, samples, means, stds):
    """MAE of the particle median, or the NLL of the targets under the per-step particle mixture, as one tape node.

    The median weighs the samples by 1 on the middle one, or 1/2 on each of
    the two middle ones, placed from a stable argsort: sample j's gradient is
    ``weight_j sign(err) g / err.size``.  The NLL averages over windows the
    sum over steps of ``-log mean_j exp(ll_j)``, where ``ll_j = -sum(z^2 / 2 +
    log s) - N log(2 pi) / 2`` and ``z = (y - mean_j) / s``: particle j's
    mean and std get its share of the mixture times ``z / s`` and ``(z^2 -
    1) / s``, times ``-g / B``.
    """
    b_sz, _, q_steps, n = batch.sizes
    if q_steps == 0:
        raise DataError("training windows need target rows")
    n_p = batch.n_particles
    if kind == "mae":
        vals = ad.val(samples)
        middle = np.argsort(vals, axis=1, kind="stable")[:, (n_p - 1) // 2 : n_p // 2 + 1]  # one index, or two
        weights = np.zeros_like(vals)
        np.put_along_axis(weights, middle, 1.0 / middle.shape[1], axis=1)
        err = (weights * vals).sum(axis=1) - batch.y_future
        return ad.fused(np.abs(err).mean(), [samples], lambda g: [np.expand_dims(g / err.size * np.sign(err), 1) * weights])
    per_window, steps = None, []
    for k, (mean, std) in enumerate(zip(means, stds)):
        s = ad.val(std)
        zsc = (batch.y_future[:, k, None, :] - ad.val(mean)) / s
        ll = -(0.5 * (zsc * zsc) + np.log(s)).sum(axis=2) - 0.5 * n * _LOG_2PI  # (B, n_p)
        top = np.max(ll, axis=1, keepdims=True)  # log-sum-exp over the particles, shifted by the largest
        shifted = np.exp(ll - top)
        total = shifted.sum(axis=1, keepdims=True)
        lme = np.squeeze(top + np.log(total), axis=1) - math.log(n_p)  # (B,)
        per_window = lme if per_window is None else per_window + lme
        steps.append((zsc, s, shifted / total))

    def vjp(g):
        scaled = [(-g / b_sz * share)[:, :, None] for _, _, share in steps]
        d_means = [w * zsc / s for w, (zsc, s, _) in zip(scaled, steps)]
        return d_means + [w * (zsc * zsc - 1.0) / s for w, (zsc, s, _) in zip(scaled, steps)]

    return ad.fused(-per_window.mean(), [*means, *stds], vjp)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def gradients(
    model: ssm_mod.ModelTheta,
    batch: BatchArrays,
    config: TrainConfig,
    graph: Optional[ssm_mod.Graph] = None,
    ss_mask: Optional[np.ndarray] = None,
):
    """Loss and named parameter gradients for one minibatch.

    Flow coefficients are computed from parameter *values* and held
    constant; everything else (transitions, emissions, sampled feedback,
    the affine flow map, the loss) is differentiated exactly.
    Returns (loss value, dict of gradients, flow traces).
    """
    params = {name: ad.Var(arr) for name, arr in model.params.items()}
    samples, means, stds, trace = batch_forward(
        params,
        model,
        batch,
        config.flow,
        graph=graph,
        ss_mask=ss_mask,
        collect_trace=True,
    )
    loss = _loss(config.loss, batch, samples, means, stds)
    ad.backward(loss)
    grads = {}
    for name, var in params.items():
        grads[name] = var.grad if var.grad is not None else np.zeros_like(var.value)
    return float(ad.val(loss)), grads, trace


def batch_loss(
    model: ssm_mod.ModelTheta,
    batch: BatchArrays,
    config: TrainConfig,
    graph: Optional[ssm_mod.Graph] = None,
    values: Optional[Dict[str, np.ndarray]] = None,
    ss_mask: Optional[np.ndarray] = None,
    frozen_trace: Optional[list] = None,
) -> float:
    """Plain (un-taped) batch loss, optionally at replaced parameter values."""
    params = model.params if values is None else values
    samples, means, stds, _ = batch_forward(params, model, batch, config.flow, graph=graph, ss_mask=ss_mask, frozen_trace=frozen_trace)
    return float(ad.val(_loss(config.loss, batch, samples, means, stds)))


# ---------------------------------------------------------------------------
# optimizer and fit loop
# ---------------------------------------------------------------------------


class _Adam:
    def __init__(self, shapes: Dict[str, tuple], beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = {k: np.zeros(s) for k, s in shapes.items()}
        self.v = {k: np.zeros(s) for k, s in shapes.items()}
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0

    def step(self, values: Dict[str, np.ndarray], grads: Dict[str, np.ndarray], lr: float):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        correction = math.sqrt(1.0 - b2**self.t) / (1.0 - b1**self.t)
        for k in self.m:
            g = grads[k]
            self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
            self.v[k] = b2 * self.v[k] + (1.0 - b2) * g * g
            values[k] = values[k] - lr * correction * self.m[k] / (np.sqrt(self.v[k]) + self.eps)
        return values


def clip_global_norm(grads: Dict[str, np.ndarray], max_norm: float) -> Dict[str, np.ndarray]:
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        return {k: g * scale for k, g in grads.items()}
    return grads


def truth_probability(iteration: int, tau: float) -> float:
    """Scheduled-sampling probability of feeding ground truth to the decoder."""
    if tau <= 0:
        return 0.0
    exponent = min(iteration / tau, 700.0)
    return tau / (tau + math.exp(exponent))


def evaluate_loss(
    model: ssm_mod.ModelTheta,
    windows: Sequence[Window],
    config: TrainConfig,
    graph: Optional[ssm_mod.Graph] = None,
    n_particles: Optional[int] = None,
    seed_key=None,
) -> float:
    """Dataset loss without gradients (eval particle count, no teacher forcing)."""
    if not windows:
        raise DataError("no windows to evaluate")
    n_p = config.n_particles_eval if n_particles is None else n_particles
    seed_key = seed_key if seed_key is not None else (config.seed, 9)
    total = 0.0
    for lo in range(0, len(windows), CHUNK_WINDOWS):
        chunk = windows[lo : lo + CHUNK_WINDOWS]
        batch = stack_batch(chunk, model, n_p, seed_key)
        total += batch_loss(model, batch, config, graph=graph) * len(chunk)
    return total / len(windows)


def fit(dataset: TrainData, model_init: ssm_mod.ModelTheta, config: TrainConfig) -> TrainResult:
    """Minibatch Adam with milestone lr decay, clipping, early stopping.

    Returns the best-validation checkpoint.  A non-finite loss or a
    ``NumericError``, in a training step or the validation pass, aborts and
    returns the best checkpoint so far (flagged in the result and the log).
    """
    if not dataset.train_windows:
        raise DataError("the training split has no windows")
    if not dataset.val_windows:
        raise DataError("the validation split has no windows")
    rng = np.random.default_rng(np.random.SeedSequence((int(config.seed), 7)))
    # a ModelTheta keeps its own dict of these arrays; steps replace arrays and never write into them
    values = {name: np.array(arr) for name, arr in model_init.params.items()}
    trainable = [n for n in values if config.learn_rho_sigma or n not in ("rho", "sigma")]
    adam = _Adam({n: values[n].shape for n in trainable})
    model = ssm_mod.ModelTheta(model_init.hyper, values)
    graph = dataset.graph

    best_val = math.inf
    best_values = dict(values)
    best_epoch = 0
    log: List[dict] = []
    iteration = 0
    stale = 0
    diverged = False
    stopped_early = False

    n_train = len(dataset.train_windows)
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        lr = config.lr * config.lr_factor ** sum(1 for m in config.milestones if m < epoch)
        order = rng.permutation(n_train)
        epoch_losses = []
        for lo in range(0, n_train, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            windows = [dataset.train_windows[i] for i in idx]
            batch = stack_batch(windows, model, config.n_particles_train, (config.seed, 3, iteration))
            q_steps = batch.y_future.shape[1]
            p_truth = truth_probability(iteration, config.scheduled_sampling_tau)
            ss_mask = None
            if q_steps > 1:
                ss_mask = rng.uniform(size=(len(windows), q_steps - 1)) < p_truth
            try:
                loss, grads, _ = gradients(model, batch, config, graph=graph, ss_mask=ss_mask)
            except NumericError:
                # A singular flow solve or non-finite intermediate means the
                # parameters have left the numerically stable region; treat it
                # like a non-finite loss and fall back to the best checkpoint.
                diverged = True
                break
            if not math.isfinite(loss):
                diverged = True
                break
            grads = clip_global_norm({n: grads[n] for n in trainable}, config.clip_norm)
            values = adam.step(values, grads, lr)
            for name in ("rho", "sigma"):  # a step can leave [0, inf), which the model rejects (sigma starts at 0)
                values[name] = np.maximum(values[name], 0.0)
            model = ssm_mod.ModelTheta(model.hyper, values)
            epoch_losses.append(loss)
            iteration += 1
        if diverged:
            log.append(
                {"epoch": epoch, "train_loss": math.nan, "val_loss": math.nan, "lr": lr, "seconds": time.perf_counter() - t0, "note": "diverged"}
            )
            break
        try:
            val_loss = evaluate_loss(model, dataset.val_windows, config, graph=graph)
        except NumericError:
            val_loss = math.nan  # handled below like a non-finite validation loss
        seconds = time.perf_counter() - t0
        note = ""
        if math.isfinite(val_loss) and val_loss < best_val:
            best_val = val_loss
            best_values = dict(values)
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
        if not math.isfinite(val_loss):
            diverged = True
            note = "diverged"
        log.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(epoch_losses)) if epoch_losses else math.nan,
                "val_loss": val_loss,
                "lr": lr,
                "seconds": seconds,
                "note": note,
            }
        )
        if diverged:
            break
        if stale >= config.patience:
            stopped_early = True
            break

    return TrainResult(
        model=ssm_mod.ModelTheta(model_init.hyper, best_values),
        log=log,
        best_epoch=best_epoch,
        best_val=best_val,
        stopped_early=stopped_early,
        diverged=diverged,
    )


def write_training_log(path, result: TrainResult) -> None:
    """CSV log: epoch, train_loss, val_loss, lr, seconds (+ end marker)."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "lr", "seconds"])
        for row in result.log:
            writer.writerow(
                [
                    row["epoch"],
                    repr(float(row["train_loss"])),
                    repr(float(row["val_loss"])),
                    repr(float(row["lr"])),
                    f"{row['seconds']:.3f}",
                ]
            )
        if result.stopped_early:
            fh.write(f"# early_stop best_epoch={result.best_epoch}\n")
        if result.diverged:
            fh.write(f"# diverged best_epoch={result.best_epoch}\n")
