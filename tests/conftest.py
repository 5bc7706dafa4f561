"""Test-suite settings shared by every test module.

Hypothesis draws the same examples on every machine and run
(``derandomize``) and keeps no example database.  Per-test ``@settings``
still set their own example counts and deadlines on top of this profile.
"""

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("vtdis", derandomize=True, database=None)
settings.load_profile("vtdis")


def pytest_configure(config):
    # Hypothesis also caches the literals it reads from the source code;
    # keep that cache inside pytest's own cache, not in a .hypothesis/
    # directory at the repository root
    cache = getattr(config, "cache", None)
    if cache is not None:
        set_hypothesis_home_dir(cache.mkdir("hypothesis"))
