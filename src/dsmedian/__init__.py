"""Population-median estimation under two-phase sampling with two auxiliaries.

The package is organised bottom-up:

- :mod:`dsmedian.core_stats` -- quantile, KDE, and quadrant-proportion primitives
- :mod:`dsmedian.population` -- finite-population model and census summaries
- :mod:`dsmedian.sampling` -- replayable SRSWOR and nested two-phase draws
- :mod:`dsmedian.estimators` -- the estimator catalog with plug-in optima
- :mod:`dsmedian.variance_theory` -- first-order variances and minima
- :mod:`dsmedian.allocation` -- cost-optimal sample sizes and profitability
- :mod:`dsmedian.montecarlo` -- replicated experiments against the theory
- :mod:`dsmedian.cli` -- the ``dsmedian`` command

The package re-exports the ``__all__`` of each module above but the CLI.
"""

__version__ = "0.1.0"

from .core_stats import *
from .population import *
from .sampling import *
from .estimators import *
from .variance_theory import *
from .allocation import *
from .montecarlo import *
