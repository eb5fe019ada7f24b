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
