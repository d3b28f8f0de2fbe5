"""Adam optimisation, early-stopped training, and exhaustive grid search.

Batches are contiguous chronological slices by default (no shuffling), so a
run is bit-reproducible given its seed.  Early stopping tracks validation MSE
with strict improvement (no minimum delta) and can restore the best weights.
Grid search walks the full Cartesian product, deriving one child seed per
configuration from the master seed so results do not depend on evaluation
order or worker count.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .layers import Model, ModelSpec, build_model

__all__ = [
    "AdamState",
    "TrainConfig",
    "TrainResult",
    "GridSpec",
    "GridResult",
    "init_adam",
    "adam_step",
    "train",
    "fit_scaler",
    "derive_seed",
    "grid_search",
    "TrainingDiverged",
]


class TrainingDiverged(RuntimeError):
    """Raised when a loss turns non-finite mid-run."""


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """The parameter vector, its first/second moment vectors and the step
    counter; ``init_adam`` fills the vectors."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    flat: np.ndarray = field(default_factory=lambda: np.zeros(0))
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")


def init_adam(params, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8) -> AdamState:
    """Pack the [(name, Tensor)] parameters into one float64 vector and rebind
    each tensor's data to a C-contiguous view of it, in list order; zero
    moment vectors, step counter at 0."""
    state = AdamState(learning_rate=learning_rate, beta1=beta1, beta2=beta2, eps=eps)
    state.flat = np.concatenate([t.data.ravel() for _, t in params])
    start = 0
    for _, t in params:
        t.data = state.flat[start : start + t.size].reshape(t.shape)
        start += t.size
    state.m = np.zeros_like(state.flat)
    state.v = np.zeros_like(state.flat)
    return state


def adam_step(state: AdamState, params, grads) -> None:
    """One bias-corrected update of the whole parameter vector, in place:

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;
    p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps).
    ``params`` are the tensors ``init_adam`` packed, so the update reaches
    them through their views.  ``grads`` aligns with ``params`` (a list of
    arrays, None meaning zero) and is gathered into one vector; the formulas
    then run once over all parameters, with the same elementwise arithmetic
    per entry as one tensor at a time.
    """
    if len(grads) != len(params):
        raise ValueError(
            f"got {len(grads)} gradients for {len(params)} parameters"
        )
    g = np.concatenate([
        np.zeros(tensor.size) if gi is None else np.ravel(gi)
        for gi, (_, tensor) in zip(grads, params)
    ])
    if g.size != state.flat.size:
        raise ValueError(
            f"got {g.size} gradient entries for {state.flat.size} parameters"
        )
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    state.m *= b1
    state.m += (1.0 - b1) * g
    g *= g
    g *= 1.0 - b2
    state.v *= b2
    state.v += g
    step = state.m / (1.0 - b1**t)
    step *= state.learning_rate
    denom = state.v / (1.0 - b2**t)
    np.sqrt(denom, out=denom)
    denom += state.eps
    step /= denom
    state.flat -= step


# ---------------------------------------------------------------------------
# training loop


@dataclass(frozen=True)
class TrainConfig:
    """Loop settings.  ``patience`` counts epochs without strict val improvement."""

    epochs: int
    batch_size: int = 256
    patience: int = 10
    restore_best: bool = True
    seed: int = 0
    learning_rate: float = 1e-3
    shuffle: bool = False
    standardize: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.patience > self.epochs:
            raise ValueError(
                f"patience {self.patience} exceeds epochs {self.epochs}"
            )


@dataclass
class TrainResult:
    history: list  # (epoch, train_mse, val_mse) per completed epoch
    best_epoch: int
    best_val_mse: float
    stopped_early: bool


def fit_scaler(x: np.ndarray):
    """Per-feature mean and std over the training inputs (last axis = features).

    Constant features get scale 1 so standardisation stays a bijection.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1, x.shape[-1])
    mean = flat.mean(axis=0)
    scale = flat.std(axis=0)
    scale = np.where(scale > 0.0, scale, 1.0)
    return mean, scale


def _epoch_mse(model: Model, x, y) -> float:
    pred = model.predict(x)
    diff = pred - y
    return float(np.mean(diff * diff))


def train(model: Model, train_data, val_data, cfg: TrainConfig) -> TrainResult:
    """Adam-train against MSE with early stopping on the validation split.

    ``train_data``/``val_data`` are (inputs, targets) pairs; inputs may be
    [N, F] or [N, T, F] depending on the model.  Batches are consecutive
    slices in the given (chronological) order unless cfg.shuffle is set.
    A non-finite batch loss aborts with a hint to lower the learning rate.
    Deterministic for fixed data, model init, and cfg.seed.
    """
    x_train, y_train = (np.asarray(a, dtype=np.float64) for a in train_data)
    x_val, y_val = (np.asarray(a, dtype=np.float64) for a in val_data)
    if x_train.shape[0] != y_train.shape[0]:
        raise ValueError(
            f"inputs and targets disagree: {x_train.shape[0]} vs {y_train.shape[0]}"
        )
    if x_train.shape[0] == 0:
        raise ValueError("empty training split")

    if cfg.standardize and model.scaler is None:
        mean, scale = fit_scaler(x_train)
        model.set_scaler(mean, scale)

    rng = np.random.default_rng(cfg.seed)
    params = model.parameters()
    tensors = [t for _, t in params]
    opt = init_adam(params, learning_rate=cfg.learning_rate)

    n = x_train.shape[0]
    history = []
    best_val = float("inf")
    best_epoch = -1
    best_snap = None
    since_best = 0
    stopped_early = False

    for epoch in range(cfg.epochs):
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            try:
                with Tape() as tape:
                    pred = model.forward(xb, train=True, rng=rng)
                    loss = ad.mse_loss(pred, Tensor(yb))
                    if not np.isfinite(loss.data):
                        raise FloatingPointError("non-finite loss")
                    grad_map = tape.backward(loss, params=tensors)
            except FloatingPointError as exc:
                raise TrainingDiverged(
                    f"{exc} at epoch {epoch}, batch row {start}; "
                    "reduce the learning rate"
                ) from exc
            adam_step(opt, params, [grad_map[t] for t in tensors])

        try:
            train_mse = _epoch_mse(model, x_train, y_train)
            val_mse = _epoch_mse(model, x_val, y_val)
        except FloatingPointError as exc:
            raise TrainingDiverged(
                f"{exc} while evaluating epoch {epoch} metrics; "
                "reduce the learning rate"
            ) from exc
        if not (np.isfinite(train_mse) and np.isfinite(val_mse)):
            raise TrainingDiverged(
                f"non-finite epoch metrics at epoch {epoch}; reduce the learning rate"
            )
        history.append((epoch, train_mse, val_mse))

        if val_mse < best_val:
            best_val = val_mse
            best_epoch = epoch
            since_best = 0
            if cfg.restore_best:
                best_snap = model.snapshot()
        else:
            since_best += 1
            if since_best >= cfg.patience:
                stopped_early = True
                break

    if cfg.restore_best and best_snap is not None:
        model.restore(best_snap)
    return TrainResult(
        history=history,
        best_epoch=best_epoch,
        best_val_mse=best_val,
        stopped_early=stopped_early,
    )


# ---------------------------------------------------------------------------
# grid search


_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, index: int) -> int:
    """Child seed for grid entry ``index``: the splitmix64 mix of
    master_seed + (index+1) * 0x9E3779B97F4A7C15, so every configuration gets
    a fixed, order-independent stream."""
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class GridSpec:
    """Named axes of candidate values; the search walks their full product.

    The axis named ``learning_rate``, when present, overrides the loop
    config's learning rate per combination; every other axis is handed to the
    model builder.
    """

    axes: dict

    def __post_init__(self):
        if not self.axes:
            raise ValueError("grid needs at least one axis")
        for name, values in self.axes.items():
            values = tuple(values)
            if not values:
                raise ValueError(f"grid axis {name!r} is empty")
            object.__setattr__(self, "axes", {**self.axes, name: values})

    def combinations(self):
        names = sorted(self.axes)
        for combo in itertools.product(*(self.axes[n] for n in names)):
            yield dict(zip(names, combo))


@dataclass
class GridResult:
    config: dict
    seed: int
    val_mse: float | None
    error: str | None = None


def _run_grid_entry(args):
    builder, combo, seed, train_data, val_data, cfg = args
    try:
        model = builder(combo, seed)
        local_cfg = cfg
        if "learning_rate" in combo:
            local_cfg = replace(cfg, learning_rate=float(combo["learning_rate"]))
        local_cfg = replace(local_cfg, seed=seed)
        result = train(model, train_data, val_data, local_cfg)
        return GridResult(config=combo, seed=seed, val_mse=result.best_val_mse)
    except Exception as exc:  # a failed entry must not sink the sweep
        return GridResult(config=combo, seed=seed, val_mse=None, error=str(exc))


def grid_search(
    grid: GridSpec,
    builder,
    train_data,
    val_data,
    cfg: TrainConfig,
    master_seed: int,
    jobs: int = 1,
) -> list:
    """Train every combination; return results sorted by validation MSE.

    ``builder(combo, seed)`` must return a fresh Model for the combination.
    Entry i (in the fixed product order) always trains with
    ``derive_seed(master_seed, i)``, so rankings are identical for any
    ``jobs``.  Failed entries carry their error string and sort last.
    """
    entries = [
        (builder, combo, derive_seed(master_seed, i), train_data, val_data, cfg)
        for i, combo in enumerate(grid.combinations())
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_grid_entry, entries))
    else:
        results = [_run_grid_entry(e) for e in entries]
    results.sort(
        key=lambda r: (r.val_mse is None, r.val_mse if r.val_mse is not None else 0.0)
    )
    return results
