"""The package's public API: each module's ``__all__`` lists the names it
defines, and the package republishes their union."""

import importlib
import os
import subprocess
import sys

import pytest

import jcas_regions

#: The package's public names; an added, dropped or renamed name is an API change.
PUBLIC_NAMES = [
    "BaselinePoint", "CardinalityCaps", "CardinalityExceeded", "ChannelSpec",
    "CrosscheckReport", "DegenerateInput", "DegradednessClass", "DegradednessKind",
    "DimensionMismatch", "DistortionReport", "DomainError", "EmpiricalStats", "EmptyGrid",
    "EstimatorTable", "ExamplePoint", "Finding", "InputDesign", "JcasError",
    "JointDistribution", "MixedArity", "NegativeProbability", "NotDegraded", "OverlapError",
    "RegionPoint", "SchemaError", "SearchConfig", "StochasticityError", "UnknownVariable",
    "ValidationReport", "binary_entropy", "build_joint", "cardinality_caps",
    "classify_degradedness", "closed_form_point", "closed_form_sweep", "crosscheck",
    "entropy", "exact_region_degraded_ps", "exact_region_degraded_single",
    "exact_region_reverse_ps", "exact_region_reverse_single", "expected_distortion",
    "hamming_distortion", "inner_bound_ps", "inner_bound_single",
    "make_binary_multiplicative", "make_channel_spec", "marginalize", "mutual_information",
    "outer_bound_ps", "outer_bound_single", "pareto_filter", "parse_channel_document",
    "parse_channel_spec", "pos_part", "sample_run", "separation_baseline",
    "serialize_channel_spec", "swap_receivers", "sweep_region", "synthesize_estimator",
    "validate", "verify_distortion",
]

MODULES = ["binary_example", "channel", "errors", "estimators", "info", "regions",
           "simulator"]


def test_package_exports_the_public_names():
    assert len(PUBLIC_NAMES) == 63
    assert sorted(jcas_regions.__all__) == PUBLIC_NAMES
    # in a fresh process, so that no submodule a test imported shows
    code = "import jcas_regions; print(*(n for n in dir(jcas_regions) if n[0] != '_'))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(jcas_regions.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.split() == sorted([*PUBLIC_NAMES, *MODULES])


@pytest.mark.parametrize("name", MODULES)
def test_module_lists_only_names_it_defines(name):
    module = importlib.import_module(f"jcas_regions.{name}")
    for public in module.__all__:
        assert getattr(module, public).__module__ == module.__name__, public
        assert getattr(jcas_regions, public) is getattr(module, public), public


def test_no_name_in_two_modules_lists():
    # a later star import in __init__ would shadow an earlier module's name
    names = [n for m in MODULES for n in importlib.import_module(f"jcas_regions.{m}").__all__]
    assert len(names) == len(set(names)) == len(PUBLIC_NAMES)


def test_regions_modes_stays_a_module_attribute():
    assert "MODES" not in jcas_regions.__all__
    assert jcas_regions.regions.MODES == (
        "ps_inner", "ps_outer", "ps_exact_deg", "ps_exact_rev",
        "single_inner", "single_outer", "single_exact_deg", "single_exact_rev")
