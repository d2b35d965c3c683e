import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Statistical assertions in this suite are calibrated to fixed seeds; keep the
# property tests deterministic as well so a run is reproducible end to end.
settings.register_profile(
    "deterministic",
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# The same with more examples, for the config property test in CI. The
# ``--hypothesis-profile=ci`` option is applied after this file is imported,
# so it takes precedence over the default loaded below.
settings.register_profile("ci", settings.get_profile("deterministic"), max_examples=2000)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
