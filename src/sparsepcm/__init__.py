"""Possibilistic clustering with sparse and adaptive variants."""

from .algorithms import AlgoConfig, run
from .core import (
    ClusteringError,
    ConfigurationError,
    DataSet,
    DegenerateClusterError,
    DegenerateRunError,
    NumericalError,
    RunReport,
)
from .datagen import make_fixture

__version__ = "0.1.0"

__all__ = [
    "AlgoConfig",
    "ClusteringError",
    "ConfigurationError",
    "DataSet",
    "DegenerateClusterError",
    "DegenerateRunError",
    "NumericalError",
    "RunReport",
    "make_fixture",
    "run",
]
