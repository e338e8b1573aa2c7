"""One hypothesis profile for the whole suite: every property test draws
its examples from a fixed seed (derandomize) and keeps no example database,
so a run is reproducible, and none has a per-example deadline, since exact
arithmetic on large integers has no fixed time per example. Test files set
only their example counts."""

from hypothesis import settings

settings.register_profile("kahlercone", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("kahlercone")
