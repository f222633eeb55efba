"""Hypothesis profiles for the suite.

Tier-1 runs under Hypothesis's default profile. ``--hypothesis-profile=fuzz``
runs the error-contract properties of ``test_fuzz.py``, ``load_csv``'s
differential against the per-cell parser and ``format_rows``' against
``format_number`` per cell (``test_cli.py``), the merge's in
``from_samples`` and ``portfolio_law`` against ``np.unique``, ``_sum``'s and
``_row_sums``' against ``math.fsum`` and the inverse-CDF guide table's
against ``np.searchsorted`` (``test_dist.py``), mixture-quad's against its
per-panel form and its per-panel VaR atoms against the full search,
``maxvar_mc``'s against drawing every value, ``minvar``'s against maxvar
on the mirrored law and ``run_suite``'s row-batched MAXVAR evaluations
against the per-law path (``test_measures.py``), ``core_check``'s chunked sweep
against its full-length form, its report against that form whatever reads
the report first, the random family's and the family validation's row
passes against their per-segment forms and the routes that read the law's
layer slot against layers formed afresh
(``test_envelope.py``) and ``run_suite``'s shared evaluation against the
per-check loop (``test_axioms.py``) with many more examples and no
deadline; CI runs those nineteen that way in a step of their own. Each
takes its settings from :func:`tier1_budget`.
"""

from hypothesis import settings

settings.register_profile("fuzz", max_examples=3000, deadline=None)


def tier1_budget(examples: int) -> settings:
    """``examples`` examples and no deadline in tier-1; the fuzz profile's
    own settings under ``--hypothesis-profile=fuzz``."""
    if settings.get_current_profile_name() == "fuzz":
        return settings()
    return settings(max_examples=examples, deadline=None)
