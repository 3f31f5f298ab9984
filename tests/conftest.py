from hypothesis import HealthCheck, settings

settings.register_profile(
    "autorbit",
    deadline=None,
    max_examples=75,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("autorbit")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
