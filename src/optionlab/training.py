"""Adam optimisation, early-stopped training, and exhaustive grid search.

Batches are contiguous chronological slices by default (no shuffling), so a
run is bit-reproducible given its seed.  Early stopping tracks validation MSE
with strict improvement (no minimum delta) and can restore the best weights.
Grid search walks the full Cartesian product of named axes, deriving one
child seed per combination from the master seed, and runs each entry
through a caller's function, serially or in a process pool; results do not
depend on evaluation order or worker count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .layers import Model
from .market_data import SequenceWindows

__all__ = [
    "AdamState",
    "TrainConfig",
    "TrainResult",
    "GridResult",
    "init_adam",
    "adam_step",
    "train",
    "fit_scaler",
    "derive_seed",
    "grid_entries",
    "grid_search",
    "TrainingDiverged",
]


class TrainingDiverged(RuntimeError):
    """Raised when a loss turns non-finite mid-run."""


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """The first/second moment vectors and the step counter; ``init_adam``
    sizes the vectors."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")


def init_adam(size: int, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8) -> AdamState:
    """Zero moment vectors for ``size`` parameters, step counter at 0."""
    state = AdamState(learning_rate=learning_rate, beta1=beta1, beta2=beta2, eps=eps)
    state.m = np.zeros(size)
    state.v = np.zeros(size)
    return state


def adam_step(state: AdamState, flat: np.ndarray, g: np.ndarray) -> None:
    """One bias-corrected update of the parameter vector ``flat``, in place,
    from the gradient vector ``g`` of the same size:

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;
    p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps).
    The arithmetic is elementwise, so updating a concatenation of vectors
    equals updating each piece on its own.
    """
    if flat.shape != state.m.shape or g.shape != state.m.shape:
        raise ValueError(
            f"got {g.size} gradient entries and {flat.size} parameters "
            f"for an optimiser of {state.m.size}"
        )
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    state.m *= b1
    state.m += (1.0 - b1) * g
    state.v *= b2
    state.v += (1.0 - b2) * (g * g)
    step = state.m / (1.0 - b1**t)
    step *= state.learning_rate
    denom = state.v / (1.0 - b2**t)
    np.sqrt(denom, out=denom)
    denom += state.eps
    step /= denom
    flat -= step


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
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")


@dataclass
class TrainResult:
    history: list  # (epoch, train_mse, val_mse) per completed epoch
    best_epoch: int
    best_val_mse: float
    stopped_early: bool


# windows gathered at a time when fitting the scaler to sequence windows
_SCALER_CHUNK = 512


def fit_scaler(x):
    """Per-feature mean and std over the training inputs (last axis = features).

    ``x`` is an array or ``SequenceWindows``; windows are gathered
    ``_SCALER_CHUNK`` at a time, and the result has the bits of the same
    statistics of the materialized array.  Constant features get scale 1 so
    standardisation stays a bijection.  A feature too large to square gives
    an infinite scale, which ``Model.set_scaler`` rejects.
    """
    if isinstance(x, SequenceWindows):
        parts = [slice(s, s + _SCALER_CHUNK) for s in range(0, len(x), _SCALER_CHUNK)]
    else:
        x = np.asarray(x, dtype=np.float64)
        parts = [slice(None)]

    def rows():
        return (x[part].reshape(-1, x.shape[-1]) for part in parts)

    n = np.prod(x.shape[:-1], dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = _row_sum(rows()) / n
        # numpy's std: squares of the deviations, summed as the rows were
        scale = np.sqrt(_row_sum(np.square(d, out=d) for d in (r - mean for r in rows())) / n)
    scale = np.where(scale > 0.0, scale, 1.0)
    return mean, scale


def _row_sum(chunks) -> np.ndarray:
    """The axis-0 sum of the chunks' rows stacked, with the bits of
    ``np.sum(stacked, axis=0)``: that sum over a C-contiguous 2-D array adds
    the rows one after another, so the running sum is put in front of each
    next chunk."""
    total = None
    for c in chunks:
        total = np.add.reduce(c if total is None else np.concatenate([total[None], c]), axis=0)
    return total


def _epoch_mse(model: Model, x, y) -> float:
    pred = model.predict(x)
    diff = pred - y
    return float(np.mean(diff * diff))


def train(model: Model, train_data, val_data, cfg: TrainConfig) -> TrainResult:
    """Adam-train against MSE with early stopping on the validation split.

    ``train_data``/``val_data`` are (inputs, targets) pairs; inputs may be
    [N, F] or [N, T, F] arrays, or ``SequenceWindows``, depending on the
    model.  Batches are consecutive slices in the given (chronological)
    order unless cfg.shuffle is set.  The rows of windows are standardized
    once (``Model.standardize_rows``), and each batch is gathered alone.
    A non-finite batch loss aborts with a hint to lower the learning rate.
    Deterministic for fixed data, model init, and cfg.seed.
    """
    (x_train, y_train), (x_val, y_val) = (
        (x if isinstance(x, SequenceWindows) else np.asarray(x, dtype=np.float64),
         np.asarray(y, dtype=np.float64))
        for x, y in (train_data, val_data)
    )
    if x_train.shape[0] != y_train.shape[0]:
        raise ValueError(
            f"inputs and targets disagree: {x_train.shape[0]} vs {y_train.shape[0]}"
        )
    if x_train.shape[0] == 0:
        raise ValueError("empty training split")

    model.check_input(x_train.shape)
    if cfg.standardize and model.scaler is None:
        mean, scale = fit_scaler(x_train)
        model.set_scaler(mean, scale)
    windows = isinstance(x_train, SequenceWindows)
    x_train, x_val = model.standardize_rows(x_train), model.standardize_rows(x_val)

    rng = np.random.default_rng(cfg.seed)
    tensors = [t for _, t in model.parameters()]
    opt = init_adam(model.flat.size, learning_rate=cfg.learning_rate)

    n = x_train.shape[0]
    history = []
    best_val = float("inf")
    best_epoch = -1
    best_snap = None
    since_best = 0
    stopped_early = False

    # numpy's floating-point warnings are off here: a non-finite value that a
    # step or the epoch metrics make meets a finite check, which raises
    # TrainingDiverged, so the warning would only repeat the error
    with np.errstate(all="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n) if cfg.shuffle else np.arange(n)
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                xb, yb = x_train.take(idx) if windows else x_train[idx], y_train[idx]
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
                # backward zero-fills the gradient of a tensor the loss skips
                g = np.concatenate([grad_map[t].ravel() for t in tensors])
                adam_step(opt, model.flat, g)

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


def grid_entries(axes: dict, master_seed: int) -> list:
    """Every combination of the named axes' candidate values, in product
    order over the axes sorted by name, as (combination, seed) pairs: entry i
    gets ``derive_seed(master_seed, i)``, so its seed never depends on the
    evaluation order or the worker count."""
    if not axes:
        raise ValueError("grid needs at least one axis")
    names = sorted(axes)
    for name in names:
        if not axes[name]:
            raise ValueError(f"grid axis {name!r} is empty")
    combos = itertools.product(*(axes[n] for n in names))
    return [(dict(zip(names, c)), derive_seed(master_seed, i)) for i, c in enumerate(combos)]


@dataclass
class GridResult:
    config: dict  # the combination of axis values
    seed: int
    entry: object  # what the run function took
    val_mse: float | None
    error: str | None = None


def _run_grid_entry(args):
    run, config, seed, entry = args
    try:
        return GridResult(config, seed, entry, float(run(entry)))
    except Exception as exc:  # a failed entry must not sink the sweep
        return GridResult(config, seed, entry, None, str(exc))


def grid_search(entries: list, run, jobs: int = 1) -> list:
    """Run every (combination, seed, entry) of ``entries``; return their
    ``GridResult`` sorted by validation MSE, failed entries last.

    ``run(entry)`` trains one entry and returns its validation MSE.  With
    ``jobs`` > 1 the entries run in a pool of ``min(jobs, len(entries))``
    processes (a pool forks all its workers at the first submit), so ``run``
    must be a module-level function and each entry picklable; the results
    equal a serial run's, since an entry carries its own seed.  An entry
    whose run raises carries the error string.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = [(run, *e) for e in entries]
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # 1.1 MB of imports a serial run skips

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_grid_entry, tasks))
    else:
        results = [_run_grid_entry(t) for t in tasks]
    results.sort(key=lambda r: (r.val_mse is None, r.val_mse or 0.0))
    return results
