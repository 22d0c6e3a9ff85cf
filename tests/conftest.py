import pytest
from hypothesis import settings

# property tests: a fixed example sequence and a bounded example count,
# so the suite's outcome and run time repeat from run to run
settings.register_profile("ddquad", derandomize=True, max_examples=60,
                          deadline=None, database=None)
settings.load_profile("ddquad")

# acceptance-criteria results, printed as a summary block at the end of
# the run (one line per criterion)
_ACCEPTANCE: dict = {}


def record_acceptance(number: int, description: str, passed: bool):
    _ACCEPTANCE[number] = (description, passed)


@pytest.fixture
def acceptance():
    return record_acceptance


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        description, passed = _ACCEPTANCE[number]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {status} - {description}")
