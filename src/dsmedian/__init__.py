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
"""

__version__ = "0.1.0"

from .core_stats import (
    DensityEstimate,
    ProportionMatrix,
    QuantileConvention,
    empirical_quantile,
    kde_at,
    median,
    proportion_matrix,
    silverman_bandwidth,
)
from .population import Population, PopulationSummary, load_population_csv, population_summary
from .sampling import SeedSpec, TwoPhaseSample, draw_two_phase, srswor
from .estimators import (
    ESTIMATOR_IDS,
    EstimatorError,
    GForm,
    PluginCoefficients,
    SampleView,
    class_F_estimate,
    class_g_estimate,
    evaluate_estimator,
    gform_estimated_optimum,
    plugin_coefficients,
    position_estimator,
    ratio_double,
    ratio_known,
    regression_single_aux,
    regression_two_aux,
    sample_medians,
    stratification_estimator,
    true_coefficients,
)
from .variance_theory import (
    AssociationSet,
    DesignSizes,
    VarianceComponents,
    min_var_F,
    min_var_H,
    min_var_g,
    optimum_F_derivatives,
    optimum_g_derivatives,
    var_class_F,
    var_class_g,
    var_sample_median,
    variance_components,
)
from .allocation import (
    AllocationResult,
    CostModel,
    ProfitabilityReport,
    allocate,
    allocate_F,
    allocate_H,
    allocate_g,
    allocate_single,
    grid_search_allocation,
    profitability_report,
)
from .montecarlo import (
    GeneratorSpec,
    MarginalSpec,
    PopulationInputError,
    SimConfig,
    SimReport,
    generate_population,
    load_sim_config,
    run_simulation,
)
