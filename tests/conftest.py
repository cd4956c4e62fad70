"""Test-wide hypothesis settings.

Every property test is derandomized with its own example count.  The tier-1
profile runs all phases except ``Phase.explain``: on a failing example over
text-heavy strategies, explaining it can run for minutes and grow past 0.9 GB,
while the shrunk failure itself is reported in seconds.  The examples drawn
and the bounds checked are the same.
"""

from hypothesis import Phase, settings

settings.register_profile("tier1", phases=tuple(p for p in Phase if p is not Phase.explain))
settings.load_profile("tier1")
