import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

_ACCEPTANCE: dict[int, tuple[str, bool]] = {}


@pytest.fixture
def deadline():
    """Raise TimeoutError in the test after 10 s, so a call that blocks (on a
    FIFO, say) fails instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError("blocked for 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def settle(monkeypatch):
    """Pin whether the files a run hashes count as settled for the work dir's
    signature record, so no outcome depends on how old they are and no test
    sleeps: none is until the test calls ``settle(True)``, after which every
    one is, until ``settle(False)``."""
    from ldaselect import signatures

    def pin(settled: bool) -> None:
        monkeypatch.setattr(signatures, "SETTLE_NS", -(1 << 62) if settled else 1 << 62)

    pin(False)
    return pin


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(num, title): marks a test as an acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    num, title = marker.args
    if rep.when == "call":
        _ACCEPTANCE[num] = (title, rep.passed)
    elif rep.failed:  # setup or teardown error counts as a failure
        _ACCEPTANCE[num] = (title, False)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        title, ok = _ACCEPTANCE[num]
        terminalreporter.write_line(
            f"ACCEPTANCE {num:2d} {title}: {'PASS' if ok else 'FAIL'}"
        )
