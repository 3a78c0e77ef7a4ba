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
from . import flow as flow_mod
from . import ssm as ssm_mod
from .data import Window
from .errors import DataError, NumericError

_LOG_2PI = math.log(2.0 * math.pi)

# windows per stacked batch when evaluating a whole split
CHUNK_WINDOWS = 256


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Optimization knobs."""

    loss: str = "mae"
    lr: float = 0.01
    milestones: tuple = (20, 30, 40, 50)
    lr_factor: float = 0.1
    clip_norm: float = 5.0
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 10
    n_particles_train: int = 1
    n_particles_eval: int = 10
    scheduled_sampling_tau: float = 2000.0
    seed: int = 0
    learn_rho_sigma: bool = False
    flow: flow_mod.FlowConfig = field(default_factory=flow_mod.FlowConfig)

    def __post_init__(self):
        if self.loss not in ("mae", "nll"):
            raise DataError("loss must be 'mae' or 'nll'")
        if self.lr < 0 or self.batch_size < 1 or self.max_epochs < 1:
            raise DataError("lr must be non-negative; batch_size and max_epochs positive")
        if self.n_particles_train < 1 or self.n_particles_eval < 1:
            raise DataError("particle counts must be >= 1")


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
    return ["rho", "sigma", *sorted(model.dyn_params), "W_phi", "C_gamma"]


def get_param(model: ssm_mod.ModelTheta, name: str) -> np.ndarray:
    if name in ("rho", "sigma"):
        return np.asarray(getattr(model, name), dtype=np.float64)
    if name in ("W_phi", "C_gamma"):
        return getattr(model, name)
    return model.dyn_params[name]


def model_with_params(model: ssm_mod.ModelTheta, values: Dict[str, np.ndarray]) -> ssm_mod.ModelTheta:
    dyn = {k: np.array(values[k]) for k in model.dyn_params}
    return ssm_mod.ModelTheta(
        rho=float(values["rho"]),
        sigma=float(values["sigma"]),
        dyn_params=dyn,
        W_phi=np.array(values["W_phi"]),
        C_gamma=np.array(values["C_gamma"]),
        hyper=dict(model.hyper),
    )


def flatten_params(model: ssm_mod.ModelTheta, values: Optional[Dict[str, np.ndarray]] = None) -> np.ndarray:
    vecs = []
    for name in param_names(model):
        arr = values[name] if values is not None else get_param(model, name)
        vecs.append(np.asarray(arr, dtype=np.float64).ravel())
    return np.concatenate(vecs)


def unflatten_params(model: ssm_mod.ModelTheta, vector: np.ndarray) -> Dict[str, np.ndarray]:
    out = {}
    pos = 0
    for name in param_names(model):
        ref = get_param(model, name)
        size = ref.size
        out[name] = vector[pos : pos + size].reshape(ref.shape).copy()
        pos += size
    if pos != vector.size:
        raise DataError("flat parameter vector has the wrong length")
    return out


# ---------------------------------------------------------------------------
# batched window stacks
# ---------------------------------------------------------------------------


@dataclass
class BatchArrays:
    """One minibatch, stacked: histories, targets, covariates, noise."""

    y_hist: np.ndarray  # (B, P, N)
    y_future: np.ndarray  # (B, Q, N)
    z: Optional[np.ndarray]  # (B, P+Q, d_z) or None
    window_ids: List[int]
    init: np.ndarray  # (B, n_p, D)
    dyn: np.ndarray  # (P+Q-1, B, n_p, D)
    meas: np.ndarray  # (Q, B, n_p, N)

    @property
    def sizes(self):
        b, p, n = self.y_hist.shape
        return b, p, self.y_future.shape[1], n


def stack_batch(windows: Sequence[Window], model: ssm_mod.ModelTheta, n_particles: int, seed_key) -> BatchArrays:
    """Stack windows and pre-draw every noise tensor (one child seed per window).

    Q is read from the windows; windows without target rows give Q = 0.
    """
    y_hist = np.stack([np.asarray(w.y_past, dtype=np.float64) for w in windows])
    b, p, n = y_hist.shape
    y_future = np.stack([np.zeros((0, n)) if w.y_future is None else np.asarray(w.y_future, dtype=np.float64) for w in windows])
    z = None
    if windows[0].z is not None:
        z = np.stack([np.asarray(w.z, dtype=np.float64) for w in windows])
    q = y_future.shape[1]
    d = model.state_dim
    init = np.empty((b, n_particles, d))
    dyn = np.empty((max(p + q - 1, 0), b, n_particles, d))
    meas = np.empty((q, b, n_particles, n))
    for i, w in enumerate(windows):  # one window's draws at a time, straight into the stacks
        noise = ssm_mod.make_window_noise(seed_key, w.window_id, n_particles, model, p, q)
        init[i], dyn[:, i], meas[:, i] = noise.init, noise.dyn, noise.meas
    return BatchArrays(
        y_hist=y_hist,
        y_future=y_future,
        z=z,
        window_ids=[w.window_id for w in windows],
        init=init,
        dyn=dyn,
        meas=meas,
    )


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

    ``params`` maps parameter names to Vars (training) or arrays
    (inference).  Returns ``(samples, means, stds, trace)``: the (B, n_p,
    Q, N) samples, the per-step (B, n_p, N) emission means and stds, and
    the flow traces (one :class:`flow.FlowTrace` per encoder step, kept
    when ``collect_trace`` is set or a ``frozen_trace`` is replayed).
    """
    hyper = model.hyper
    b_sz, p_steps, q_steps, n = batch.sizes
    n_p = batch.init.shape[1]
    d = model.state_dim
    w_phi_t = ad.transpose2(params["W_phi"])
    c_gamma_t = ad.transpose2(params["C_gamma"])
    w_phi_val = ad.val(params["W_phi"])
    c_gamma_val = ad.val(params["C_gamma"])
    mixing = None
    if hyper["kind"] == "graph_gru":
        mixing = ssm_mod.build_mixing(params, hyper, graph)

    def rows(y_bn):  # (B, N) constant -> (B*n_p, N)
        return np.broadcast_to(np.asarray(y_bn, dtype=np.float64)[:, None, :], (b_sz, n_p, n)).reshape(b_sz * n_p, n)

    def z_rows(t_index):  # covariates for 1-based time t, per particle-row
        if batch.z is None:
            return None
        zt = batch.z[:, t_index - 1, :]  # (B, d_z)
        d_z = zt.shape[1]
        return np.broadcast_to(zt[:, None, :], (b_sz, n_p, d_z)).reshape(b_sz * n_p, d_z)

    def step_transition(x2, y_prev, t_index, dyn_noise):
        out = ssm_mod.transition_core(params, hyper, x2, y_prev, z_rows(t_index), mixing=mixing)
        return ad.add(out, ad.mul(params["sigma"], dyn_noise.reshape(b_sz * n_p, d)))

    # ---- encoder: assimilate the history -------------------------------
    def noise_var(means):  # emission variances at the running particle means
        std = np.logaddexp(0.0, means @ c_gamma_val.T)
        return std * std

    x3 = ad.mul(params["rho"], batch.init)  # (B, n_p, D)
    trace: List[flow_mod.FlowTrace] = []
    for t in range(1, p_steps + 1):
        if t > 1:
            x2 = ad.reshape(x3, (b_sz * n_p, d))
            x2 = step_transition(x2, rows(batch.y_hist[:, t - 2, :]), t, batch.dyn[t - 2])
            x3 = ad.reshape(x2, (b_sz, n_p, d))
        if frozen_trace is None:
            y_t = batch.y_hist[:, t - 1, :]
            x3, flow_trace = flow_mod.edh_flow(x3, w_phi_val, y_t, noise_var, flow_config, return_trace=True, encoder_step=t, window_ids=batch.window_ids)
        else:  # replay the map the flow composed, with everything it froze, H included
            flow_trace = frozen_trace[t - 1]
            x3 = ad.flow_map(x3, flow_trace.pht, flow_trace.h_mat, flow_trace.k_mat, flow_trace.k_vec)
            if not np.isfinite(ad.val(x3)).all():
                row, particle = np.argwhere(~np.isfinite(ad.val(x3)))[0][:2]
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
            y_in = rows(batch.y_hist[:, p_steps - 1, :])
        else:
            y_in = ad.reshape(sample_steps[-1], (b_sz * n_p, n))
            if ss_mask is not None:
                truth = rows(batch.y_future[:, k - 2, :])
                mask = np.repeat(ss_mask[:, k - 2].astype(np.float64), n_p)[:, None]  # (B*n_p, 1)
                y_in = ad.add(mask * truth, ad.mul(1.0 - mask, y_in))
        x2 = ad.reshape(x3, (b_sz * n_p, d))
        x2 = step_transition(x2, y_in, t, batch.dyn[t - 2])
        x3 = ad.reshape(x2, (b_sz, n_p, d))
        mean3 = ad.reshape(ad.matmul(x2, w_phi_t), (b_sz, n_p, n))
        std3 = ad.reshape(ad.softplus(ad.matmul(x2, c_gamma_t)), (b_sz, n_p, n))
        sample_steps.append(mean3 if noiseless else ad.add(mean3, ad.mul(std3, batch.meas[k - 1])))
        mean_steps.append(mean3)
        std_steps.append(std3)

    samples = ad.stack(sample_steps, axis=2) if q_steps else np.zeros((b_sz, n_p, 0, n))
    return samples, mean_steps, std_steps, trace


def _particle_median(samples):
    """Median over the particle axis (axis 1) as a tape op."""
    vals = ad.val(samples)
    n_p = vals.shape[1]
    order = np.argsort(vals, axis=1, kind="stable")
    mid = n_p // 2
    if n_p % 2 == 1:
        idx = order[:, mid : mid + 1]
        picked = ad.gather(samples, idx, axis=1)
    else:
        lo = ad.gather(samples, order[:, mid - 1 : mid], axis=1)
        hi = ad.gather(samples, order[:, mid : mid + 1], axis=1)
        picked = ad.mul(0.5, ad.add(lo, hi))
    shape = vals.shape[:1] + vals.shape[2:]
    return ad.reshape(picked, shape)


def _loss(kind: str, batch: BatchArrays, samples, means, stds):
    """MAE of the particle median, or the NLL of the targets under the per-step particle mixture."""
    _, _, q_steps, n = batch.sizes
    if q_steps == 0:
        raise DataError("training windows need target rows")
    if kind == "mae":
        return ad.mean_(ad.abs_(ad.sub(_particle_median(samples), batch.y_future)))
    n_p = batch.init.shape[1]
    per_window = None
    for k in range(q_steps):
        y_t = batch.y_future[:, k, :][:, None, :]  # (B, 1, N)
        zsc = ad.div(ad.sub(y_t, means[k]), stds[k])
        quad = ad.add(ad.mul(0.5, ad.square(zsc)), ad.log(stds[k]))
        ll = ad.sub(ad.neg(ad.sum_(quad, axis=2)), 0.5 * n * _LOG_2PI)  # (B, n_p)
        lme = ad.sub(ad.logsumexp(ll, axis=1), math.log(n_p))  # (B,)
        per_window = lme if per_window is None else ad.add(per_window, lme)
    return ad.neg(ad.mean_(per_window))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def gradients(
    model: ssm_mod.ModelTheta,
    batch: Sequence[Window] | BatchArrays,
    config: TrainConfig,
    graph: Optional[ssm_mod.Graph] = None,
    seed_key=None,
    ss_mask: Optional[np.ndarray] = None,
    frozen_trace: Optional[list] = None,
):
    """Loss and named parameter gradients for one minibatch.

    Flow coefficients are computed from parameter *values* and held
    constant; everything else (transitions, emissions, sampled feedback,
    the affine flow map, the loss) is differentiated exactly.
    Returns (loss value, dict of gradients, flow traces).
    """
    if not isinstance(batch, BatchArrays):
        batch = stack_batch(batch, model, config.n_particles_train, seed_key if seed_key is not None else config.seed)
    params = {name: ad.Var(get_param(model, name)) for name in param_names(model)}
    samples, means, stds, trace = batch_forward(
        params,
        model,
        batch,
        config.flow,
        graph=graph,
        ss_mask=ss_mask,
        frozen_trace=frozen_trace,
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
    params = {name: (values[name] if values is not None else get_param(model, name)) for name in param_names(model)}
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

    Returns the best-validation checkpoint.  A non-finite loss aborts and
    returns the last good checkpoint (flagged in the result and the log).
    """
    if not dataset.train_windows:
        raise DataError("the training split has no windows")
    if not dataset.val_windows:
        raise DataError("the validation split has no windows")
    rng = np.random.default_rng(np.random.SeedSequence((int(config.seed), 7)))
    values = {name: np.array(get_param(model_init, name)) for name in param_names(model_init)}
    trainable = [n for n in values if config.learn_rho_sigma or n not in ("rho", "sigma")]
    adam = _Adam({n: values[n].shape for n in trainable})
    model = model_with_params(model_init, values)
    graph = dataset.graph

    best_val = math.inf
    best_values = {k: v.copy() for k, v in values.items()}
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
            model = model_with_params(model, values)
            epoch_losses.append(loss)
            iteration += 1
        if diverged:
            log.append(
                {"epoch": epoch, "train_loss": math.nan, "val_loss": math.nan, "lr": lr, "seconds": time.perf_counter() - t0, "note": "diverged"}
            )
            break
        val_loss = evaluate_loss(model, dataset.val_windows, config, graph=graph)
        seconds = time.perf_counter() - t0
        note = ""
        if math.isfinite(val_loss) and val_loss < best_val:
            best_val = val_loss
            best_values = {k: v.copy() for k, v in values.items()}
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

    best_model = model_with_params(model_init, best_values)
    return TrainResult(
        model=best_model,
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
