"""Hypothesis settings for the whole suite: a failing draw prints the blob that replays it.

Run the failing test again with ``@reproduce_failure(version, blob)`` from the
log; the number of examples, the seeds and the database stay hypothesis's own.
"""

from hypothesis import settings

settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")
