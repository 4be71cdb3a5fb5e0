import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparsecf.costs import (elias_fano_layout, macs_forward_batch, macs_inference, macs_training,
                            memory_bytes)


def test_inference_lightgcn_plug_in():
    got = macs_inference("lightgcn", 1000, 2000, 64, num_layers=3, nnz_adj=10000)
    assert got == 129_920_000
    half = macs_inference("lightgcn", 1000, 2000, 64, num_layers=3, nnz_adj=10000,
                          sparsity=0.5)
    assert half == 64_960_000


def test_inference_mf_ignores_graph_terms():
    assert macs_inference("mf", 10, 20, 4) == 800
    assert macs_inference("mf", 10, 20, 4, num_layers=3, nnz_adj=999) == 800


def test_inference_sparse_is_dense_scaled_exactly():
    for s in (0.0, 0.3, 0.5, 0.8, 0.999):
        dense = macs_inference("lightgcn", 123, 456, 7, num_layers=2, nnz_adj=789)
        sparse = macs_inference("lightgcn", 123, 456, 7, num_layers=2, nnz_adj=789,
                                sparsity=s)
        assert sparse == dense * (1.0 - s)


@given(
    n=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=0, max_value=10_000),
    d=st.integers(min_value=0, max_value=512),
    layers=st.integers(min_value=0, max_value=8),
    nnz=st.integers(min_value=0, max_value=1_000_000),
    s=st.floats(min_value=0.0, max_value=0.99),
    backbone=st.sampled_from(["mf", "lightgcn"]),
)
def test_inference_ratio_property(n, m, d, layers, nnz, s, backbone):
    dense = macs_inference(backbone, n, m, d, num_layers=layers, nnz_adj=nnz)
    sparse = macs_inference(backbone, n, m, d, num_layers=layers, nnz_adj=nnz,
                            sparsity=s)
    assert sparse == dense * (1.0 - s)


def test_inference_validation():
    with pytest.raises(ValueError):
        macs_inference("mf", -1, 2, 3)
    with pytest.raises(ValueError):
        macs_inference("mf", 1, 2, 3, sparsity=1.0)


def test_forward_batch_values():
    assert macs_forward_batch("mf", 64, 1024) == 2 * 64 * 1024
    got = macs_forward_batch("lightgcn", 8, 4, num_layers=2, nnz_adj=10)
    assert got == 2 * 8 * 4 + 10 * 2 * 8


def test_training_zero_iterations():
    assert macs_training(1000.0, 0) == 0.0
    assert macs_training(1000.0, 0, exploration_iterations=0) == 0.0


def test_training_linear_in_iterations():
    one = macs_training(500.0, 10)
    two = macs_training(500.0, 20)
    assert two == 2.0 * one


def test_training_sparsity_scales_learning_steps_only():
    fwd = 768.0
    dense = macs_training(fwd, 100)
    half = macs_training(fwd, 100, sparsity=0.5)
    assert half == dense * 0.5
    # exploration iterations stay dense regardless of s
    with_explore = macs_training(fwd, 100, sparsity=0.5, exploration_iterations=4)
    assert with_explore == half + 4 * 3.0 * fwd


def test_training_backward_counts_double():
    # one iteration at s=0: forward + 2x forward
    assert macs_training(100.0, 1) == 300.0


def test_training_validation():
    with pytest.raises(ValueError):
        macs_training(10.0, -1)
    with pytest.raises(ValueError):
        macs_training(10.0, 1, exploration_iterations=-1)


def test_memory_counts_weights_and_bitset():
    # active float64 weights plus the smaller mask coding. 248 of 1000: Elias-Fano
    # keeps l = 2 low bits (496 bits, 62 bytes) and (999 >> 2) + 248 = 497 high
    # bits (63 bytes), no fewer than the 125-byte bitset, which stays
    assert memory_bytes(248, 1000) == 248 * 8 + 125
    # 247 of 1000: 494 low bits (62 bytes) and 496 high bits (62 bytes)
    assert memory_bytes(247, 1000) == 247 * 8 + 62 + 62
    # 100 of 1000 and of 1001 (l = 3): 300 low bits (38 bytes), then 224 and
    # 225 high bits (28 and 29 bytes)
    assert memory_bytes(100, 1000) == 100 * 8 + 38 + 28
    assert memory_bytes(100, 1001) == 100 * 8 + 38 + 29
    assert memory_bytes(500, 1001) == 500 * 8 + math.ceil(1001 / 8)
    # one active entry of 1000: l = 9, 9 low bits (2 bytes) and (999 >> 9) + 1 = 2
    # high bits (1 byte); all but one: l = 0 and 1998 high bits, so the bitset
    assert memory_bytes(1, 1000) == 8 + 2 + 1
    assert memory_bytes(999, 1000) == 999 * 8 + 125
    assert memory_bytes(0, 8) == 1
    # the desk shape, 2625 x 64: the bitset is 21,000 bytes up to s = 0.75,
    # Elias-Fano 17,850 at s = 0.8 and 11,025 at s = 0.9
    assert memory_bytes(168_000, 168_000) == 168_000 * 8 + 21_000
    assert memory_bytes(42_000, 168_000) == 42_000 * 8 + 21_000
    assert memory_bytes(33_600, 168_000) == 33_600 * 8 + 17_850
    assert memory_bytes(16_800, 168_000) == 16_800 * 8 + 11_025
    assert memory_bytes(1_680, 168_000) == 1_680 * 8 + 1_798


def test_memory_keeps_the_bitset_while_a_quarter_is_active():
    for total in range(1, 600):
        for active in range(-(-total // 4), total + 1):
            assert memory_bytes(active, total) == active * 8 + math.ceil(total / 8)
    # below a quarter Elias-Fano can win: 4 of 17 take 1 + 1 bytes, not 3
    assert memory_bytes(4, 17) == 4 * 8 + 2


@given(total=st.integers(min_value=1, max_value=10**7), data=st.data())
def test_elias_fano_layout_matches_its_definition(total, data):
    active = data.draw(st.integers(min_value=1, max_value=total))
    low, high = elias_fano_layout(active, total)
    # l = floor(log2(total / active)), in integers
    assert active << low <= total < active << (low + 1)
    assert high == ((total - 1) >> low) + active


def test_memory_halves_with_active_count():
    total = 64_000
    dense = memory_bytes(total, total)
    half = memory_bytes(total // 2, total)
    assert half - math.ceil(total / 8) == (dense - math.ceil(total / 8)) // 2


def test_memory_validation():
    with pytest.raises(ValueError):
        memory_bytes(-1, 10)
    with pytest.raises(ValueError):
        memory_bytes(11, 10)

