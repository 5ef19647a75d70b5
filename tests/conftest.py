import concurrent.futures

import pytest

from colorperm import oracle
from colorperm.oracle import brute_tables


class OracleCache:
    """Memoized brute-force reports so each group is enumerated once."""

    def __init__(self):
        self._reports = {}

    def get(self, r, n):
        key = (r, n)
        if key not in self._reports:
            self._reports[key] = brute_tables(r, n)
        return self._reports[key]

    def cached(self):
        return dict(self._reports)


@pytest.fixture(scope="session")
def oracle_cache():
    return OracleCache()


# oracle.brute_tables looks concurrent.futures.ProcessPoolExecutor up each
# time it opens a pool, so that attribute is the seam for recording pools.
@pytest.fixture
def opened_pools(monkeypatch):
    """max_workers of every pool that oracle.brute_tables opens in the test."""
    opened = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return opened


@pytest.fixture
def submitted(monkeypatch):
    """(function name, *arguments) of every task that a pool opened by
    oracle.brute_tables in the test is given through map, in order."""
    tasks = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            calls = list(zip(*iterables))
            tasks.extend((fn.__name__, *args) for args in calls)
            return super().map(fn, *zip(*calls), **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    return tasks


@pytest.fixture
def pool_every_group(monkeypatch):
    """oracle.POOL_MIN set to 1, so that workers > 1 split and pool even
    the small groups that tests can afford to walk."""
    monkeypatch.setattr(oracle, "POOL_MIN", 1)
