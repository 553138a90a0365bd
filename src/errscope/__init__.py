"""errscope: graphical comparison of regression models beyond MAE/RMSE."""

from .density import HexbinLayer, KdeGrid, default_hex_radius, hexbin, kde2d
from .errorspace import (
    QUADRANTS,
    ZONES,
    ErrorSpaceAnalysis,
    Quadrant,
    Zone,
    analyze_pair,
    classify,
    covariance2,
    crown_threshold,
    mahalanobis_many,
    median2d,
    percentile_ranks,
)
from .ingest import PredictionSet, parse_predictions, select_pair
from .metrics import (
    BoxplotStats,
    ErrorVector,
    MetricReport,
    boxplot_stats,
    compute_errors,
    mae,
    metric_report,
    r_squared,
    rmse,
    sort_models_by_metric,
)
from .render import (
    WARM_COOL,
    Colormap,
    Figure,
    render_boxplots,
    render_error_space,
    render_model_grid,
)
from .synth import SCENARIOS, ScenarioSpec, generate

__version__ = "0.1.0"
