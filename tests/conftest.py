"""Hypothesis profiles for the suite.

``derandomized``, loaded here, draws the same examples on every run and keeps
no example database, so a red run is a fault of the code it ran, not of the
draw. ``explore`` draws new examples on each run and prints a failing one's
blob for ``@reproduce_failure``; select it with hypothesis's own pytest option,
``--hypothesis-profile explore``, which is read after this file. A test's own
``@settings`` keep their example counts under both profiles. Neither has a
deadline: a test's duration on a shared machine is no fault of the code. Both
build on hypothesis's ``default`` profile, not on the ``ci`` one it loads when
it sees a CI environment, so a run on CI and one elsewhere draw alike.
"""

from hypothesis import settings

_BASE = settings.get_profile("default")
settings.register_profile("derandomized", _BASE, derandomize=True, database=None, deadline=None)
settings.register_profile("explore", _BASE, derandomize=False, database=None, deadline=None, print_blob=True)
settings.load_profile("derandomized")
