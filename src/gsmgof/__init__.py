"""Goodness-of-fit testing in Gaussian sequence models with noisy operator
coefficients: spectral cut-off test, separation-radius bounds, and a
reproducible Monte Carlo harness.
"""

__version__ = "0.1.0"

from . import bounds, errors, gsm, montecarlo, sequences, testproc
from .bounds import *  # noqa: F401,F403 - each module's __all__ is its public API
from .errors import *  # noqa: F401,F403
from .gsm import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .sequences import *  # noqa: F401,F403
from .testproc import *  # noqa: F401,F403

__all__ = ["__version__", *(name for module in (errors, sequences, gsm, testproc, bounds,
                                                montecarlo) for name in module.__all__)]
