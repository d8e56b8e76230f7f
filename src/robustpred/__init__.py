"""Robust linear prediction when a block of features is missing at test time.

Learns optimistic, conservative and adaptively gated predictors from complete
training data; the gate switches toward the conservative mode when the
observable features indicate an outlying missing block.

The package root holds the calls the README documents and the error classes;
everything else is imported from its module (``robustpred.evalkit``,
``robustpred.dataio``, ...).
"""

from .datagen import SyntheticConfig, generate_linear
from .dataio import CsvParseError, ModelFormatError
from .gate import SingleClassError
from .linalg import ShapeError, ValidationError
from .robust import adaptive_weights, fit_robust, outlier_probability, predict_robust

__version__ = "0.1.0"
