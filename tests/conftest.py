"""Hypothesis profiles for the suite.

Tier-1 runs under Hypothesis's default profile. ``--hypothesis-profile=fuzz``
runs the error-contract properties of ``test_fuzz.py`` and ``load_csv``'s
differential against the per-cell parser (``test_cli.py``) with many more
examples and no deadline; CI runs those three that way in a step of their own.
"""

from hypothesis import settings

settings.register_profile("fuzz", max_examples=3000, deadline=None)
