import pytest
from hypothesis import HealthCheck, settings

# Field construction is cached, but only the last field's tables are: a draw
# that switches fields rebuilds them, and a per-example deadline would trip
# on those draws.
settings.register_profile(
    "uvprim",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("uvprim")


# The acceptance suite's session fixture `big_sweep` runs sweep(3, 51_500_000)
# once; its result is kept here so that tests in other modules can read the
# same sweep instead of running another.  A session fixture's hooks run at
# the session, outside this directory, so the hook is registered as a plugin.
class _KeepBigSweep:
    result = None

    @pytest.hookimpl(wrapper=True)
    def pytest_fixture_setup(self, fixturedef, request):
        result = yield
        if fixturedef.argname == "big_sweep":
            self.result = result
        return result


_KEEP = _KeepBigSweep()


def pytest_configure(config):
    config.pluginmanager.register(_KEEP, "uvprim-keep-big-sweep")


@pytest.fixture(scope="session")
def full_sweep():
    """(rows, verdicts) of sweep(3, 51_500_000): the result of `big_sweep` if
    that already ran in this session, else a sweep of its own (when the
    acceptance tests are not selected, or run later)."""
    if _KEEP.result is not None:
        rows, verdicts, _ = _KEEP.result
        return rows, verdicts
    from uvprim import screening

    return screening.sweep(3, 51_500_000)
