"""Empirical-Bayes skill detection for fund return panels.

The pipeline: load and clean a monthly return panel, estimate four-factor
alphas, extract the cross-sectional dependence structure, fit a three-part
mixture prior to the alpha statistics, compute posterior d-values by Monte
Carlo, and select funds with FDR-style guarantees. `simlab` and `backtest`
wrap the pipeline in synthetic studies and a rolling trading strategy.
"""

__version__ = "0.1.0"

from .backtest import BacktestConfig, PortfolioTrack, rank_compare, run_backtest
from .dependence import DependenceModel, build_dependence, dependence_from_correlation
from .dvalues import (
    DValueReport,
    component_mass_nonnegative,
    component_mass_nonpositive,
    compute_dvalues,
    local_fdr,
)
from .errors import ConfigError, DataError, FitFailedError, FundselectError, NumericalError
from .mixture import (
    FitDiagnostics,
    GridConfig,
    MixtureParams,
    PooledMoments,
    fit_mixture,
    lad_regress,
    pooled_moments,
    simulate_z,
    solve_moments,
    total_variation,
)
from .panel import (
    AlphaEstimates,
    FactorSeries,
    ReturnPanel,
    carhart_fit,
    month_range,
)
from .selection import (
    SelectionResult,
    bh_select,
    one_sided_pvalues,
    optimal_decision,
    select_fdr_stepup,
    select_unskilled,
    storey_select,
)
from .simlab import SimMetrics, SimSetting, fdp_fnp, generate_panel, run_sim_study
from .streams import substream

__all__ = [
    "AlphaEstimates",
    "BacktestConfig",
    "ConfigError",
    "DValueReport",
    "DataError",
    "DependenceModel",
    "FactorSeries",
    "FitDiagnostics",
    "FitFailedError",
    "FundselectError",
    "GridConfig",
    "MixtureParams",
    "NumericalError",
    "PooledMoments",
    "PortfolioTrack",
    "ReturnPanel",
    "SelectionResult",
    "SimMetrics",
    "SimSetting",
    "bh_select",
    "build_dependence",
    "carhart_fit",
    "component_mass_nonnegative",
    "component_mass_nonpositive",
    "compute_dvalues",
    "dependence_from_correlation",
    "fdp_fnp",
    "fit_mixture",
    "generate_panel",
    "lad_regress",
    "local_fdr",
    "month_range",
    "one_sided_pvalues",
    "optimal_decision",
    "pooled_moments",
    "rank_compare",
    "run_backtest",
    "run_sim_study",
    "select_fdr_stepup",
    "select_unskilled",
    "simulate_z",
    "solve_moments",
    "storey_select",
    "substream",
    "total_variation",
    "__version__",
]
