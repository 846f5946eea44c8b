"""Tests for the CommResult record, its derived statistics and the
value codec."""

import json

import numpy as np
import pytest

from repro.results import CommResult, decode_value, dumps, encode_value


def make(per_node_time, recv=None, useful=None, **kw):
    n = len(per_node_time)
    defaults = dict(
        scheme="test",
        matrix_name="m",
        k=16,
        n_nodes=n,
        total_time=float(max(per_node_time)),
        per_node_time=np.asarray(per_node_time, dtype=float),
        recv_wire_bytes=np.asarray(recv if recv is not None else [0.0] * n),
        sent_wire_bytes=np.zeros(n),
        useful_payload_bytes=np.asarray(
            useful if useful is not None else [0.0] * n
        ),
        link_bandwidth=50e9,
    )
    defaults.update(kw)
    return CommResult(**defaults)


def test_tail_node_is_argmax():
    res = make([1.0, 5.0, 2.0])
    assert res.tail_node == 1


def test_fc_rate():
    res = make([1.0], n_pr_candidates=100, n_filtered=30, n_coalesced=20)
    assert res.fc_rate == pytest.approx(0.5)
    assert make([1.0]).fc_rate == 0.0


def test_avg_prs_per_packet():
    res = make([1.0], n_prs_issued=100, n_packets=20)
    assert res.avg_prs_per_packet == 5.0
    assert make([1.0]).avg_prs_per_packet == 0.0


def test_cache_hit_rate():
    res = make([1.0], cache_lookups=50, cache_hits=10)
    assert res.cache_hit_rate == 0.2
    assert make([1.0]).cache_hit_rate == 0.0


def test_goodput_and_utilization():
    res = make([2.0], recv=[100e9], useful=[50e9])
    # total_time 2s at 50 GB/s line.
    assert res.line_utilization(0) == pytest.approx(1.0)
    assert res.goodput(0) == pytest.approx(0.5)


def test_goodput_defaults_to_tail():
    res = make([1.0, 4.0], recv=[10.0, 200e9], useful=[1.0, 100e9])
    assert res.goodput() == res.goodput(1)


def test_zero_time_rates_are_zero():
    res = make([0.0], recv=[100.0], useful=[100.0], total_time=0.0)
    assert res.goodput() == 0.0
    assert res.line_utilization() == 0.0


def test_tail_traffic_bytes():
    res = make([1.0, 9.0], recv=[5.0, 7.0])
    assert res.tail_traffic_bytes() == 7.0


def test_active_nodes_curve_monotone():
    res = make([1.0, 2.0, 3.0, 4.0])
    t, active = res.active_nodes_over_time(20)
    assert active[0] == 4
    assert active[-1] == 0
    assert (np.diff(active) <= 0).all()
    assert t[0] == 0.0 and t[-1] == pytest.approx(4.0)


def test_value_codec_round_trip_bit_identical():
    rng = np.random.default_rng(3)
    value = {
        "total_time": rng.random() * 1e-3,
        "per_node_time": rng.random(8),
        "recv_wire_bytes": rng.integers(0, 1 << 40, 8),
        "extras": {"nested": {"arr": rng.random(3).astype(np.float32),
                              "scalar": np.float64(0.1)}},
    }
    back = decode_value(json.loads(dumps(encode_value(value))))
    assert back["total_time"] == value["total_time"]  # exact, not approx
    for key in ("per_node_time", "recv_wire_bytes"):
        assert back[key].dtype == value[key].dtype
        assert back[key].tobytes() == value[key].tobytes()
    inner = back["extras"]["nested"]
    assert inner["arr"].dtype == np.float32
    assert inner["arr"].tobytes() == value["extras"]["nested"]["arr"].tobytes()
    assert inner["scalar"] == 0.1
    assert type(inner["scalar"]) is float
