"""Training: losses, reverse-mode gradients, and the SGD fit loop.

The gradient path runs one forward pass over a whole minibatch (windows
stacked on a leading axis), keeping each step's VJP, then walks those steps
in reverse by hand: it differentiates the sampled forecast pipeline end to
end — through transitions, emissions, the sampled decoder feedback and the
flow's affine map.  The flow *coefficients* (the frozen ensemble moments,
H, and the map K, k composed from S^-1, beta and the noise variances) are
treated as constants: gradients do not flow into them, and the recorded
trace can be replayed so finite-difference checks differentiate exactly the
same function.  Validation and forecasting run the same
:func:`batch_forward`, keeping nothing for a reverse pass.
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

# particle rows (windows x particles) per stack of a validation or forecast
# pass, and rows x steps per block of encoder transition draws: a stack's
# temporaries grow with its rows, so the budget bounds its memory whatever
# the particle count (6 windows at 100 particles, 60 at 10)
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
    cause: Optional[str] = None  # what ended a diverged fit: a NumericError's message, or the loss that became non-finite


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
    stacked in, and a stack holds no transition draws.  ``model`` is not
    read (callers pass it).
    """
    y_hist = np.stack([np.asarray(w.y_past, dtype=np.float64) for w in windows])
    y_future = np.stack([np.asarray(w.y_future, dtype=np.float64) for w in windows])
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


def stacks(windows: Sequence[Window], model: ssm_mod.ModelTheta, n_particles: int, seed_key):
    """``windows`` in order, in stacks of at most ``CHUNK_ROWS`` particle rows, one window at least: (slice, batch) pairs."""
    size = max(1, CHUNK_ROWS // n_particles)
    for lo in range(0, len(windows), size):
        span = slice(lo, lo + size)
        yield span, stack_batch(windows[span], model, n_particles, seed_key)


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
# the batched forward pass
# ---------------------------------------------------------------------------


def batch_forward(
    params: Dict[str, np.ndarray],
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

    ``params`` maps parameter names to arrays.  Returns ``(samples, means,
    stds, trace, steps)``: the (B, n_p, Q, N) samples, the per-step (B, n_p,
    N) emission means and stds, the flow traces (one
    :class:`flow.FlowTrace` per encoder step, kept when ``collect_trace``
    is set and no ``frozen_trace`` is replayed; empty otherwise), and,
    when ``collect_trace`` is set, what :func:`gradients` reads to run the
    steps in reverse (None otherwise): ``(init, transitions, emissions)``,
    the time-1 draw, each transition's VJP and draw from time 2 on, and each
    decoder step's state, emission-std pre-activation and measurement draw.
    """
    hyper = model.hyper
    b_sz, p_steps, q_steps, n = batch.sizes
    n_p, d = batch.n_particles, model.state_dim
    rngs = [np.random.default_rng(np.random.SeedSequence((*batch.seed_key, int(w)))) for w in batch.window_ids]
    block = max(1, CHUNK_ROWS // (b_sz * n_p))  # encoder transitions per draw
    w_phi, c_gamma = params["W_phi"], params["C_gamma"]
    mixing = None
    if hyper["kind"] == "graph_gru":
        mixing = ssm_mod.build_mixing(params, hyper, graph)
    # every particle of a window sees the window's history and covariates: (B, n_p, time, ...) views
    y_hist = np.broadcast_to(batch.y_hist[:, None], (b_sz, n_p) + batch.y_hist.shape[1:])
    z = None if batch.z is None else np.broadcast_to(batch.z[:, None], (b_sz, n_p) + batch.z.shape[1:])
    transitions, emissions = [], []

    def step_transition(x, y_prev, t_index, dyn_noise):  # the transition into (1-based) time t
        out, vjp = ssm_mod.transition_core(params, hyper, x, y_prev, None if z is None else z[:, :, t_index - 1], mixing=mixing, with_vjp=collect_trace)
        if collect_trace:
            transitions.append((vjp, dyn_noise))
        out += params["sigma"] * dyn_noise  # out is the last cell's fresh buffer
        return out

    # ---- encoder: assimilate the history -------------------------------
    def noise_var(means):  # emission variances at the running particle means
        std = np.logaddexp(0.0, means @ c_gamma.T)
        return std * std

    init = _draw(rngs, (1, n_p, d))[0]
    x = params["rho"] * init  # (B, n_p, D)
    trace: List[flow_mod.FlowTrace] = []
    for t in range(1, p_steps + 1):
        if t > 1:
            j = (t - 2) % block
            if j == 0:
                dyn = _draw(rngs, (min(block, p_steps + 1 - t), n_p, d))
            x = step_transition(x, y_hist[:, :, t - 2], t, dyn[j])
        if frozen_trace is None:
            x, flow_trace = flow_mod.edh_flow(x, w_phi, batch.y_hist[:, t - 1, :], noise_var, flow_config, encoder_step=t, window_ids=batch.window_ids)
            if collect_trace:
                trace.append(flow_trace)
        else:  # replay the map the flow composed, with everything it froze, H included
            x = ad.flow_map(x, *frozen_trace[t - 1])
            if not np.isfinite(x).all():
                row, particle = np.argwhere(~np.isfinite(x))[0][:2]
                where = f"window {batch.window_ids[row]} became non-finite during the frozen flow replay of encoder step {t}"
                raise flow_mod.FlowDivergedError(f"particle {particle} of {where}", batch.window_ids[row], t)

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
                y_in = mask * batch.y_future[:, None, k - 2] + (1.0 - mask) * y_in
        x = step_transition(x, y_in, t, dyn[k - 1])
        mean = ad._rows(x, w_phi.T)
        pre = ad._rows(x, c_gamma.T)
        std = np.logaddexp(0.0, pre)
        sample_steps.append(mean if noiseless else mean + std * meas[k - 1])
        mean_steps.append(mean)
        std_steps.append(std)
        if collect_trace:
            emissions.append((x, pre, meas[k - 1]))

    return np.stack(sample_steps, axis=2), mean_steps, std_steps, trace, (init, transitions, emissions) if collect_trace else None


def _loss(kind: str, batch: BatchArrays, samples, means, stds):
    """MAE of the particle median, or the NLL of the targets under the per-step particle mixture, and its VJP.

    ``vjp()`` gives the loss's gradients of the samples, the means and the
    stds, each a list of Q (B, n_p, N) arrays (or 0.0 for what the loss does
    not read).  The median weighs the samples by 1 on the middle one, or 1/2
    on each of the two middle ones, placed from a stable argsort: sample j's
    gradient is ``weight_j sign(err) / err.size``.  The NLL averages over
    windows the sum over steps of ``-log mean_j exp(ll_j)``, where ``ll_j =
    -sum(z^2 / 2 + log s) - N log(2 pi) / 2`` and ``z = (y - mean_j) / s``:
    particle j's mean and std get its share of the mixture times ``z / s``
    and ``(z^2 - 1) / s``, times ``-1 / B``.
    """
    b_sz, _, q_steps, n = batch.sizes
    n_p = batch.n_particles
    absent = [0.0] * q_steps
    if kind == "mae":
        middle = np.argsort(samples, axis=1, kind="stable")[:, (n_p - 1) // 2 : n_p // 2 + 1]  # one index, or two
        weights = np.zeros_like(samples)
        np.put_along_axis(weights, middle, 1.0 / middle.shape[1], axis=1)
        err = (weights * samples).sum(axis=1) - batch.y_future

        def mae_vjp():
            d_samples = np.expand_dims(1.0 / err.size * np.sign(err), 1) * weights
            return [d_samples[:, :, k] for k in range(q_steps)], absent, absent

        return np.abs(err).mean(), mae_vjp
    per_window, steps = None, []
    for k, (mean, s) in enumerate(zip(means, stds)):
        zsc = (batch.y_future[:, k, None, :] - mean) / s
        ll = -(0.5 * (zsc * zsc) + np.log(s)).sum(axis=2) - 0.5 * n * _LOG_2PI  # (B, n_p)
        top = np.max(ll, axis=1, keepdims=True)  # log-sum-exp over the particles, shifted by the largest
        shifted = np.exp(ll - top)
        total = shifted.sum(axis=1, keepdims=True)
        lme = np.squeeze(top + np.log(total), axis=1) - math.log(n_p)  # (B,)
        per_window = lme if per_window is None else per_window + lme
        steps.append((zsc, s, shifted / total))

    def nll_vjp():
        scaled = [(-1.0 / b_sz * share)[:, :, None] for _, _, share in steps]
        d_means = [w * zsc / s for w, (zsc, s, _) in zip(scaled, steps)]
        return absent, d_means, [w * (zsc * zsc - 1.0) / s for w, (zsc, s, _) in zip(scaled, steps)]

    return -per_window.mean(), nll_vjp


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
    """Loss and named parameter gradients for one minibatch: one reverse pass over the steps :func:`batch_forward` ran.

    The decoder runs from step Q down to 1: the loss's gradients, the
    emissions ``x W_phi^T`` and ``softplus(x C_gamma^T)``, the sampled
    feedback (where ``ss_mask`` fed the truth instead, nothing flows
    back), the cells, and ``sigma`` times the draw.  The encoder then runs
    from step P down to 1: each flow's affine map, with its coefficients
    (computed from parameter *values*) held constant, then the cells.  Last
    come ``rho`` times the time-1 draw and the mixing matrix's embedding.
    Returns (loss value, dict of gradients, flow traces).
    """
    params = model.params
    samples, means, stds, trace, (init, transitions, emissions) = batch_forward(
        params,
        model,
        batch,
        config.flow,
        graph=graph,
        ss_mask=ss_mask,
        collect_trace=True,
    )
    loss, loss_vjp = _loss(config.loss, batch, samples, means, stds)
    d_samples, d_means, d_stds = loss_vjp()
    grads = {name: np.zeros_like(value) for name, value in params.items()}
    d_mixing = None

    def back_through_transition(g, vjp, dyn_noise):  # the gradients of the previous state and of the value fed in
        nonlocal d_mixing
        grads["sigma"] += np.sum(g * dyn_noise)
        d_x, d_y, d_a, cell_grads = vjp(g)
        for name, value in cell_grads.items():
            grads[name] += value
        d_mixing = d_a if d_mixing is None else d_mixing + d_a
        return d_x, d_y

    # ---- decoder, step Q down to 1 ----------------------------------------
    p_steps = len(trace)
    g_x, d_fed = 0.0, 0.0  # from the later steps: the state's gradient, and that of the sample the next step fed in
    for k in reversed(range(len(emissions))):
        x, pre, meas = emissions[k]
        d_sample = d_samples[k] + d_fed
        d_mean = d_means[k] + d_sample
        d_pre = (d_stds[k] + d_sample * meas) * ad._sigmoid_np(pre)
        grads["W_phi"] += ad._weight_grad(x, d_mean).T
        grads["C_gamma"] += ad._weight_grad(x, d_pre).T
        g_x = g_x + ad._rows(d_mean, params["W_phi"]) + ad._rows(d_pre, params["C_gamma"])
        g_x, d_fed = back_through_transition(g_x, *transitions[p_steps - 1 + k])
        if ss_mask is not None and k > 0:
            d_fed = (1.0 - ss_mask[:, k - 1, None, None].astype(np.float64)) * d_fed

    # ---- encoder, step P down to 1 ----------------------------------------
    for t in range(p_steps, 0, -1):
        g_x = ad.flow_map_vjp(g_x, *trace[t - 1][:3])
        if t > 1:
            g_x, _ = back_through_transition(g_x, *transitions[t - 2])
    grads["rho"] += np.sum(g_x * init)
    if "embed" in grads:
        grads["embed"] += ssm_mod.mixing_vjp(params["embed"], model.hyper["adjacency_mode"], d_mixing)
    return float(loss), grads, trace


def batch_loss(
    model: ssm_mod.ModelTheta,
    batch: BatchArrays,
    config: TrainConfig,
    graph: Optional[ssm_mod.Graph] = None,
    values: Optional[Dict[str, np.ndarray]] = None,
    ss_mask: Optional[np.ndarray] = None,
    frozen_trace: Optional[list] = None,
) -> float:
    """The batch loss without gradients, optionally at replaced parameter values."""
    params = model.params if values is None else values
    samples, means, stds, _, _ = batch_forward(params, model, batch, config.flow, graph=graph, ss_mask=ss_mask, frozen_trace=frozen_trace)
    return float(_loss(config.loss, batch, samples, means, stds)[0])


# ---------------------------------------------------------------------------
# optimizer and fit loop
# ---------------------------------------------------------------------------


class _Adam:
    def __init__(self, shapes: Dict[str, tuple]):
        self.m = {k: np.zeros(s) for k, s in shapes.items()}
        self.v = {k: np.zeros(s) for k, s in shapes.items()}
        self.t = 0

    def step(self, values: Dict[str, np.ndarray], grads: Dict[str, np.ndarray], lr: float):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
        correction = math.sqrt(1.0 - b2**self.t) / (1.0 - b1**self.t)
        for k in self.m:
            g = grads[k]
            self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
            self.v[k] = b2 * self.v[k] + (1.0 - b2) * g * g
            values[k] = values[k] - lr * correction * self.m[k] / (np.sqrt(self.v[k]) + eps)
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
) -> float:
    """Dataset loss without gradients (eval particle count, no teacher forcing): the :func:`stacks`' losses, weighed by window count."""
    if not windows:
        raise DataError("no windows to evaluate")
    total = 0.0
    for _, batch in stacks(windows, model, config.n_particles_eval, (config.seed, 9)):
        total += batch_loss(model, batch, config, graph=graph) * len(batch.window_ids)
    return total / len(windows)


def fit(dataset: TrainData, model_init: ssm_mod.ModelTheta, config: TrainConfig) -> TrainResult:
    """Minibatch Adam with milestone lr decay, clipping, early stopping.

    Returns the best-validation checkpoint.  A non-finite loss or a
    ``NumericError``, in a training step or the validation pass, ends the
    epoch as diverged (NaN losses from where it stopped: its log row's ``val_loss`` is NaN)
    and the fit, which returns the best checkpoint so far; the result's
    ``cause`` says what diverged, or holds the error's message.
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
    cause = None

    n_train = len(dataset.train_windows)
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        lr = config.lr * config.lr_factor ** sum(1 for m in config.milestones if m < epoch)
        order = rng.permutation(n_train)
        epoch_losses = []
        train_loss = val_loss = math.nan
        try:
            for lo in range(0, n_train, config.batch_size):
                windows = [dataset.train_windows[i] for i in order[lo : lo + config.batch_size]]
                batch = stack_batch(windows, model, config.n_particles_train, (config.seed, 3, iteration))
                p_truth = truth_probability(iteration, config.scheduled_sampling_tau)
                ss_mask = rng.uniform(size=(len(windows), batch.y_future.shape[1] - 1)) < p_truth
                loss, grads, _ = gradients(model, batch, config, graph=graph, ss_mask=ss_mask)
                if not math.isfinite(loss):
                    cause = f"training loss became non-finite at epoch {epoch}, minibatch {lo // config.batch_size + 1}"
                    break
                grads = clip_global_norm({n: grads[n] for n in trainable}, config.clip_norm)
                values = adam.step(values, grads, lr)
                for name in ("rho", "sigma"):  # a step can leave [0, inf), which the model rejects (sigma starts at 0)
                    values[name] = np.maximum(values[name], 0.0)
                model = ssm_mod.ModelTheta(model.hyper, values)
                epoch_losses.append(loss)
                iteration += 1
            else:
                train_loss = float(np.mean(epoch_losses))
                val_loss = evaluate_loss(model, dataset.val_windows, config, graph=graph)
                if not math.isfinite(val_loss):
                    cause = f"validation loss became non-finite at epoch {epoch}"
        except NumericError as exc:
            # A singular flow solve or non-finite intermediate means the
            # parameters have left the numerically stable region; treat it
            # like a non-finite loss and fall back to the best checkpoint.
            cause = str(exc)
        diverged = not math.isfinite(val_loss)
        if not diverged and val_loss < best_val:
            best_val = val_loss
            best_values = dict(values)
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
        log.append(
            {
                "epoch": epoch,
                "train_loss": train_loss,
                "val_loss": val_loss,
                "lr": lr,
                "seconds": time.perf_counter() - t0,
            }
        )
        if diverged or stale >= config.patience:
            break

    return TrainResult(
        model=ssm_mod.ModelTheta(model_init.hyper, best_values),
        log=log,
        best_epoch=best_epoch,
        best_val=best_val,
        stopped_early=not diverged and stale >= config.patience,
        diverged=diverged,
        cause=cause,
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
