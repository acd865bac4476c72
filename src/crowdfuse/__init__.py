"""Fusion of human crowd estimates with Kalman-style optimal weighting."""

from .aggregation import (
    ALL_RULES,
    RULE_CWM,
    RULE_EWM,
    RULE_KF,
    RULE_KFPLUS,
    NoEligibleForecastersError,
    contribution_terms,
    member_forecasts,
    rank_by_reliability,
    rule_estimates,
)
from .backtest import (
    BacktestReport,
    EmptyPanelError,
    dm_test,
    run_backtest,
    subset_sweep,
)
from .fusion import (
    Belief,
    DegenerateFusionError,
    Truth,
    WeightPair,
    combined_mse,
    fuse_pair,
    fuse_sequence,
    kalman_gain,
    kalman_gain_p,
    mse_single,
    optimal_weights_biased,
)
from .gaps import (
    GapEstimate,
    GapKind,
    Grid,
    expected_gap_analytic,
    figure_grid,
    gaussian_limit_check,
    monte_carlo_gap,
    realized_gaps,
)
from .panel import (
    Calibration,
    Panel,
    PanelError,
    SynthConfig,
    calibrate_v,
    load_panel,
    synth_panel,
)
from .quincunx import (
    Environment,
    Judge,
    Moments,
    fuse_p,
    moments,
    p_from_mse,
    sample_estimates,
    variance_from_p,
)

__version__ = "0.1.0"
