"""Question-centric knowledge tracing with an additive IRT prediction layer."""

from .autodiff import Tape, grad_check, sigmoid

__version__ = "0.1.0"

__all__ = ["Tape", "grad_check", "sigmoid", "__version__"]
