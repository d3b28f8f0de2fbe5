"""Option-pricing laboratory.

Closed-form call analytics with independent oracles, realized-volatility
features, a quote-to-features data pipeline, a small reverse-mode autodiff
engine, a neural layer zoo (dense, conv1d, lstm/gru with self-attention,
orthogonal-polynomial layers), Adam training with early stopping and grid
search, and mispricing evaluation, all behind one batch CLI.
"""

from .autodiff import Tape, Tensor, grad_check
from .bs import (
    BsInputs,
    McConfig,
    assemble_bs_from_lognormal,
    bs_call_price,
    implied_vol,
    lognormal_tail_expectation,
    mc_call_price,
)
from .evaluation import build_report, bs_baseline, error_metrics, pricing_class
from .layers import (
    LayerSpec,
    Model,
    ModelSpec,
    build_model,
    load_model,
    param_count,
    save_model,
)
from .market_data import (
    FeatureRow,
    SynthConfig,
    TickerConfig,
    build_features,
    classify_moneyness,
    filter_rows,
    generate_synthetic_dataset,
    split_chronological,
)
from .training import GridSpec, TrainConfig, grid_search, train
from .vol import VolEstimate, log_returns, realized_vol, rolling_vols

__version__ = "0.1.0"
