"""Failure types shared by the checking modules and the command line.

A mathematical check raises CheckFailure explicitly instead of using the
`assert` statement, so it still runs under `python -O`.  It subclasses
AssertionError so that callers catching the broader type keep working.
"""


class CheckFailure(AssertionError):
    """A derived quantity disagrees with what the mathematics requires."""
