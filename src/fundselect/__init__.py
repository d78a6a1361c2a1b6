"""Empirical-Bayes skill detection for fund return panels.

The pipeline: load and clean a monthly return panel, estimate four-factor
alphas, extract the cross-sectional dependence structure, fit a three-part
mixture prior to the alpha statistics, compute posterior d-values by Monte
Carlo, and select funds with FDR-style guarantees. `simlab` and `backtest`
wrap the pipeline in synthetic studies and a rolling trading strategy.

The exports below are lazy (PEP 562): `import fundselect` loads no
submodule, so no NumPy, and each name imports its submodule on first use.
The CLI relies on this to tell OpenBLAS its thread count before NumPy
loads it (`cli`).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "backtest": ("BacktestConfig", "PortfolioTrack", "run_backtest"),
    "dependence": ("DependenceModel", "build_dependence", "dependence_from_correlation"),
    "dvalues": ("DValueReport", "component_mass_nonnegative", "component_mass_nonpositive",
                "compute_dvalues", "local_fdr"),
    "errors": ("ConfigError", "DataError", "FitFailedError", "FundselectError", "NumericalError"),
    "mixture": ("FitDiagnostics", "GridConfig", "MixtureParams", "PooledMoments", "fit_mixture",
                "lad_regress", "pooled_moments", "simulate_z", "solve_moments",
                "total_variation"),
    "panel": ("AlphaEstimates", "FactorSeries", "ReturnPanel", "carhart_fit", "month_range"),
    "selection": ("SelectionResult", "bh_select", "one_sided_pvalues", "optimal_decision",
                  "rank_compare", "select_fdr_stepup", "select_unskilled", "storey_select"),
    "simlab": ("SimMetrics", "SimSetting", "fdp_fnp", "generate_panel", "run_sim_study"),
    "streams": ("substream",),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    """Import the submodule that exports `name` and cache the name here."""
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


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
