"""The package namespace: every module's ``__all__``, re-exported once."""

import collections
import inspect

import pytest

import dsmedian
from dsmedian import (
    allocation,
    core_stats,
    estimators,
    montecarlo,
    population,
    sampling,
    variance_theory,
)

MODULES = (core_stats, population, sampling, estimators, variance_theory, allocation, montecarlo)


def test_every_public_name_is_its_modules_object():
    exported = {name for name, value in vars(dsmedian).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == {name for module in MODULES for name in module.__all__}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(dsmedian, name) is getattr(module, name), (module.__name__, name)


def test_no_name_in_two_modules_all():
    # a later star import would shadow the earlier module's object
    counts = collections.Counter(name for module in MODULES for name in module.__all__)
    assert [name for name, count in counts.items() if count > 1] == []


@pytest.mark.parametrize("cls", [dsmedian.SampleView, dsmedian.TwoPhaseSample])
def test_constructor_takes_no_private_parameter(cls):
    # a private keyword of the signature skipped every check of the constructor
    assert [p for p in inspect.signature(cls).parameters if p.startswith("_")] == []


_PM = dsmedian.ProportionMatrix(0.3, 0.2, 0.2, 0.3)


@pytest.mark.parametrize("bad", [10**400, "1"], ids=["int-past-float-range", "str"])
@pytest.mark.parametrize("cls, valid, name, error, message", [
    (dsmedian.CostModel, dict(c0=100.0, c1=4.0, c2=0.7, c3=0.3), "c1", ValueError,
     "cost c1 must be positive"),
    (dsmedian.VarianceComponents, dict(V0=1.0, V1=0.5, V2=0.25, V3=0.05), "V0", ValueError,
     "V0 must be positive"),
    (dsmedian.PopulationSummary, dict(median_x=1.0, median_y=2.0, median_z=3.0, density_x=0.1,
                                      density_y=0.2, density_z=0.3, pm_xy=_PM, pm_xz=_PM,
                                      pm_yz=_PM, N=100), "density_y", ValueError,
     "zero density at median: density_y="),
    (dsmedian.ProportionMatrix, dict(p11=0.3, p12=0.2, p21=0.2, p22=0.3), "p11", ValueError,
     "proportion p11="),
    (dsmedian.DensityEstimate, dict(value=0.4, bandwidth=1.0), "bandwidth", ValueError,
     "bandwidth must be positive"),
    (dsmedian.PluginCoefficients, dict(d1_hat=0.5, d2_hat=0.5, alpha1_hat=None, alpha2_hat=None,
                                       alpha1_star_hat=0.1, alpha2_star_hat=0.1, a1_hat=0.2,
                                       a2_hat=0.2, a3_hat=0.2), "a1_hat", dsmedian.EstimatorError,
     "non-finite coefficient a1_hat"),
    (dsmedian.GForm, dict(form="g5", alpha=0.5, beta=0.5, w1=0.5, w2=0.5), "alpha",
     dsmedian.EstimatorError, "g-form parameters must be finite"),
    (dsmedian.GForm, dict(form="g5", alpha=0.5, beta=0.5, w1=0.5, w2=0.5), "w1",
     dsmedian.EstimatorError, "g-form parameters must be finite"),
], ids=["CostModel", "VarianceComponents", "PopulationSummary", "ProportionMatrix",
        "DensityEstimate", "PluginCoefficients", "GForm", "GForm-weight"])
def test_field_not_a_finite_real_is_the_constructors_error(cls, valid, name, error, message, bad):
    # one rule, core_stats._finite, for what a finite real from outside is:
    # an int past the float range or a str is no number, not an OverflowError or TypeError
    cls(**valid)
    with pytest.raises(error, match=message) as info:
        cls(**{**valid, name: bad})
    assert type(info.value) is error


_GEN = dsmedian.GeneratorSpec(0.5, 0.3, 0.4, *[dsmedian.MarginalSpec("normal", 0.0, 1.0)] * 3)


@pytest.mark.parametrize("build, error, message", [
    (lambda: dsmedian.DesignSizes(2, 3, 10**400), ValueError, "require integer sizes"),
    (lambda: dsmedian.PopulationSummary.from_parameters((1.0, 2.0, 3.0), (0.1, 0.2, 0.3),
                                                        (0.5, 0.3, 0.4), N="x"),
     ValueError, "population size N must be an integer, got 'x'"),
    (lambda: _GEN.true_summary("x"), ValueError, "population size N must be an integer, got 'x'"),
    (lambda: dsmedian.generate_population(_GEN, 4.5, dsmedian.SeedSpec(1)),
     dsmedian.PopulationInputError, "units must be an integer, got 4.5"),
    (lambda: dsmedian.generate_population(_GEN, "10", dsmedian.SeedSpec(1)),
     dsmedian.PopulationInputError, "units must be an integer, got '10'"),
], ids=["DesignSizes-past-float-range", "PopulationSummary-str", "true_summary-str",
        "generate_population-float", "generate_population-str"])
def test_size_not_an_integer_is_the_callers_error(build, error, message):
    # one rule, core_stats._integers and _finite, for a size from outside:
    # no bare OverflowError or TypeError later, and no str kept as a size
    with pytest.raises(error, match=f"^{message}") as info:
        build()
    assert type(info.value) is error
