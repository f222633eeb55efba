"""Hypothesis profiles for the suite.

Tier-1 runs under Hypothesis's default profile. ``--hypothesis-profile=fuzz``
gives the tests marked ``fuzz`` (the error-contract properties of
``test_fuzz.py`` and the differentials against frozen reference forms) many
more examples and no deadline; CI runs them that way with
``pytest -m fuzz --hypothesis-profile=fuzz tests``. Each takes its settings
from :func:`tier1_budget`.
"""

from hypothesis import settings

settings.register_profile("fuzz", max_examples=3000, deadline=None)


def tier1_budget(examples: int) -> settings:
    """``examples`` examples and no deadline in tier-1; the fuzz profile's
    own settings under ``--hypothesis-profile=fuzz``."""
    if settings.get_current_profile_name() == "fuzz":
        return settings()
    return settings(max_examples=examples, deadline=None)
