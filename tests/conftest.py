"""pytest fixtures only; the helpers live in helpers.py.

Import rule: perfbench/workloads.py imports test_acceptance.py, which
imports helpers.py, so the benchmark's process loads both. Neither may
import pytest (or this module) at module level, and their import chain
holds only numpy, coopmot and helpers.py. A reference pipeline of the
tracker (scipy per component) belongs in its own test module, outside this
chain.
"""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
