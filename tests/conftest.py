"""Hypothesis example budgets.

The "default" profile (200 examples, no deadline) is what tier-1 runs. The
"ci" profile gives the fuzz tests of test_parser_fuzz.py and
test_container.py, and the properties of test_ingest_properties.py and
test_reference_model.py, which take their budget from the profile, 2,000
examples each:

    python -m pytest tests/test_parser_fuzz.py tests/test_container.py \
        tests/test_ingest_properties.py tests/test_reference_model.py \
        --hypothesis-profile=ci

Tests that set `max_examples` themselves keep their own budget.
"""

import warnings

from hypothesis import settings

# A failing property's report imports hypothesis.extra._patching, which imports
# libcst where that is installed, and libcst's classes warn that
# mypy_extensions.TypedDict is deprecated. Under -W error::DeprecationWarning that
# warning ends the run in INTERNALERROR before the falsifying example is printed,
# so the module is imported once here with that one warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", r"mypy_extensions\.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst
        pass

settings.register_profile("default", max_examples=200, deadline=None)
settings.register_profile("ci", max_examples=2000, deadline=None)
settings.load_profile("default")
