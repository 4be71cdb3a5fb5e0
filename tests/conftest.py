import numpy as np
import pytest

from sparsecf.data import make_dataset, split_holdout
from sparsecf.synth import generate_interactions


@pytest.fixture
def tiny_ds():
    """4 users, 6 items, hand-written edges with a test split."""
    train = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 3), (2, 1), (2, 4), (3, 2), (3, 5)]
    test = [(0, 3), (1, 4), (2, 5), (3, 0)]
    return make_dataset(4, 6, train, test)


@pytest.fixture(scope="session")
def small_split():
    """Synthetic dataset big enough to train on, small enough to be fast."""
    ds = generate_interactions(num_users=150, num_items=300, avg_degree=30,
                               min_degree=8, seed=7)
    return split_holdout(ds, 0.2, seed=11)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
