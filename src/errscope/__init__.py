"""errscope: graphical comparison of regression models beyond MAE/RMSE."""

from .density import HexbinLayer, KdeGrid, default_hex_radius, hex_corners, hexbin, kde2d
from .errorspace import (
    METRICS,
    QUADRANTS,
    ZONES,
    ErrorSpaceAnalysis,
    analyze_pair,
    classify,
    mahalanobis_many,
    percentile_ranks,
)
from .ingest import PredictionSet, parse_predictions
from .metrics import (
    SORT_KEYS,
    boxplot_stats,
    mae,
    metric_report,
    rmse,
    sort_models_by_metric,
)
from .render import (
    WARM_COOL,
    Figure,
    render_boxplots,
    render_error_space,
    render_model_grid,
)
from .synth import SCENARIOS, generate

__version__ = "0.1.0"
