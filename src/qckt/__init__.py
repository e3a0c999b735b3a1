"""Question-centric knowledge tracing with an additive IRT prediction layer."""

from .autodiff import Tape, sigmoid

__version__ = "0.1.0"

__all__ = ["Tape", "sigmoid", "__version__"]
