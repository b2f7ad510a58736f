import functools

import numpy as np
import pytest

from trflm.corpus import Vocabulary
from trflm.util import retain_freed_memory

retain_freed_memory()   # as trflm.cli.main does, so tier-1 runs as the CLI does


class TabularPotential:
    """Test double: phi values looked up per id tuple (default elsewhere)."""

    def __init__(self, table=None, default=0.0):
        self.table = dict(table or {})
        self.default = default

    def phi_batch(self, ids):
        return np.array([self.table.get(tuple(int(i) for i in row), self.default)
                         for row in np.asarray(ids)])


@pytest.fixture
def tiny_vocab():
    # payload symbols: <unk>, a, b
    return Vocabulary(("<s>", "</s>", "<unk>", "a", "b"))


@pytest.fixture(scope="session")
def seed_reports():
    """gradcheck.check_seed, computed once per seed for the whole session."""
    from trflm.gradcheck import check_seed
    return functools.cache(check_seed)
