import multiprocessing
import sys

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail any test that leaves a ``multiprocessing`` child alive, after
    stopping the children it left."""
    yield
    left = multiprocessing.active_children()
    for p in left:
        p.terminate()
        p.join()
    if left:
        pytest.fail(f"the test left {len(left)} process(es) running: {left}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-gate verdict lines, which are otherwise hidden
    by output capture when everything passes."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if not lines:
        return
    terminalreporter.write_sep("=", "acceptance gates")
    for line in lines:
        terminalreporter.write_line(line)
