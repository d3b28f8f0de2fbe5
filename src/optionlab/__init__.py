"""Option-pricing laboratory.

Closed-form call analytics with independent oracles, realized-volatility
features, a quote-to-features data pipeline, a small reverse-mode autodiff
engine, a neural layer zoo (dense, conv1d, lstm/gru with self-attention,
orthogonal-polynomial layers), Adam training with early stopping and grid
search, and mispricing evaluation, all behind one batch CLI.
"""

__version__ = "0.1.0"
