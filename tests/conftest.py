from __future__ import annotations

import pytest

from cosetcodes import verify


@pytest.fixture(scope="session")
def claim_result():
    """Run each exhaustive verification claim at most once per session.

    Several tests (and the acceptance criteria) consult the same oracle; the
    claims are pure, so the first run's report is cached and shared.
    """
    cache: dict[str, verify.OracleReport] = {}
    run_claim = verify.run_claim  # the real one, also where a test patches it in

    def run(name: str) -> verify.OracleReport:
        if name not in cache:
            cache[name] = run_claim(name)
        return cache[name]

    return run
