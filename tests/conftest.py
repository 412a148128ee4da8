"""Hypothesis example budgets.

The "default" profile (200 examples, no deadline) is what tier-1 runs. The
"ci" profile gives the fuzz tests of test_parser_fuzz.py and
test_container.py, and the properties of test_ingest_properties.py, which
take their budget from the profile, 2,000 examples each:

    python -m pytest tests/test_parser_fuzz.py tests/test_container.py \
        tests/test_ingest_properties.py --hypothesis-profile=ci

Tests that set `max_examples` themselves keep their own budget.
"""

from hypothesis import settings

settings.register_profile("default", max_examples=200, deadline=None)
settings.register_profile("ci", max_examples=2000, deadline=None)
settings.load_profile("default")
