"""Robust linear prediction when a block of features is missing at test time.

Learns optimistic, conservative and adaptively gated predictors from complete
training data; the gate switches toward the conservative mode when the
observable features indicate an outlying missing block.
"""

from .datagen import (
    PolyConfig,
    SyntheticConfig,
    feature_map_quadratic,
    generate_linear,
    generate_poly,
    sample_t,
)
from .dataio import (
    Dataset,
    LagSpec,
    build_lagged,
    load_model,
    read_csv,
    save_model,
    split_chronological,
)
from .evalkit import (
    DeltaTable,
    EvalReport,
    conditional_mse_curve,
    evaluate,
    excess_mse_check,
    run_mc_experiment,
)
from .gate import (
    LogisticGate,
    OutlierRegion,
    SingleClassError,
    delta_stat,
    fit_gate,
    is_outlier,
    mahalanobis_stat,
    prob_outlier,
)
from .linalg import (
    SecondMoments,
    ShapeError,
    ValidationError,
    accumulate_moments,
    empirical_mse,
    minimize_quadratic_on_affine,
    null_space_projector,
    pseudoinverse,
)
from .predictors import (
    Imputer,
    LinearPredictor,
    OraclePredictor,
    fit_conservative,
    fit_imputer,
    fit_optimistic,
    fit_oracle,
    predict,
    predict_oracle,
)
from .robust import RobustModel, adaptive_weights, fit_robust, outlier_probability, predict_robust

__version__ = "0.1.0"
