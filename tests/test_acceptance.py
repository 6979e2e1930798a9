"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.  The mechanism-validation criterion trains the condensed and baseline
heads at the pinned seeds and dominates the runtime (about 30 s); all
other criteria are fast.
"""

import functools
import time

import numpy as np
import pytest

import oracles
from kphead import gradcheck
from kphead import tensor as T
from kphead.accounting import count_params_condensed, preset_report, sweep
from kphead.cli import main, sibling_test_path
from kphead.dataset import generate_dataset
from kphead.discovery import DiscoveryConfig, tmr_squash
from kphead.evaluate import evaluate
from kphead.head import HeadConfig
from kphead.losses import discriminative_loss, uniqueness_loss
from kphead.runconfig import RunConfig
from kphead.tensor import Tensor
from kphead.training import build_baseline, build_condensed, train

# Pinned at the first green run (data seed 1, train seed 0, default configs);
# later runs must not regress below these, beyond a small cross-platform slack.
PINNED_CONDENSED_ACC = 0.99609375
PINNED_RECALL = 0.87109375
PINNED_BASELINE_ACC = 0.44140625
PIN_SLACK = 0.02


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {num} {name}: PASS")
            return result
        return wrapper
    return decorate


@criterion(1, "baseline parameter reconstruction")
def test_criterion_1_baseline_params():
    start = time.perf_counter()
    assert preset_report("baseline-fpn-voc").total_params == 14_003_305
    assert preset_report("baseline-fpn-coco").total_params == 14_310_805
    assert time.perf_counter() - start < 1.0


@criterion(2, "condensed parameter reconstruction")
def test_criterion_2_condensed_params():
    start = time.perf_counter()
    voc = preset_report("condensed-fpn-voc")
    coco = preset_report("condensed-fpn-coco")
    assert abs(voc.total_params - 6.8e6) / 6.8e6 <= 0.02
    assert abs(coco.total_params - 7.1e6) / 7.1e6 <= 0.02
    assert 0.48 <= voc.reduction_ratio <= 0.54
    assert time.perf_counter() - start < 1.0


@criterion(3, "96 percent waiver at the minimal setting")
def test_criterion_3_minimal_setting():
    head = HeadConfig(channels=256, num_classes=20, num_parts=1, pool_len=1)
    disc = DiscoveryConfig(channels=256, num_parts=1)
    report = count_params_condensed(head, disc, baseline_params=14_003_305)
    assert report.total_params / 14_003_305 <= 0.05
    grid = {(k, L): ratio for k, L, _, ratio in sweep(parts_grid=(1,), pool_grid=(1,))}
    assert grid[(1, 1)] <= 0.05


@criterion(4, "oracle equivalence and gradient checks")
def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    for case in range(100):
        rng = np.random.default_rng([41, case])
        groups = int(rng.choice([1, 2]))
        dilation = int(rng.choice([1, 2]))
        k = int(rng.choice([1, 3]))
        c_in = groups * int(rng.integers(1, 5))
        c_out = groups * int(rng.integers(1, 5))
        h, w_ = int(rng.integers(3, 10)), int(rng.integers(3, 10))
        x = Tensor(rng.standard_normal((c_in, h, w_)))
        w = Tensor(rng.standard_normal((c_out, c_in // groups, k, k)))
        b = Tensor(rng.standard_normal(c_out))
        np.testing.assert_allclose(
            T.conv2d(x, w, b, groups=groups, dilation=dilation).data,
            oracles.conv2d_loops(x.data, w.data, b.data, groups, dilation), atol=1e-12)

        out_len = int(rng.integers(1, min(h, w_) + 1))
        np.testing.assert_allclose(
            T.adaptive_avg_pool(x, out_len).data,
            oracles.adaptive_avg_pool_loops(x.data, out_len), atol=1e-12)

        d, m = int(rng.integers(1, 12)), int(rng.integers(1, 6))
        xv, wv, bv = (Tensor(rng.standard_normal(d)),
                      Tensor(rng.standard_normal((m, d))),
                      Tensor(rng.standard_normal(m)))
        np.testing.assert_allclose(T.linear(xv, wv, bv).data,
                                   oracles.linear_loops(xv.data, wv.data, bv.data),
                                   atol=1e-12)

        points = [(int(r), int(c))
                  for r, c in zip(rng.integers(0, h, 3), rng.integers(0, w_, 3))]
        np.testing.assert_allclose(T.gather_at(x, points).data,
                                   oracles.gather_loops(x.data, points), atol=1e-12)

        pair = rng.standard_normal((2, 5))
        np.testing.assert_array_equal(T.add(Tensor(pair[0]), Tensor(pair[1])).data,
                                      pair[0] + pair[1])
        np.testing.assert_array_equal(T.relu(Tensor(pair[0])).data,
                                      np.maximum(pair[0], 0.0))

    results = gradcheck.run_suite(trials=1, seed=0)
    for name, err in results.items():
        assert err < gradcheck.GRAD_TOL, f"{name}: {err:.3e}"
    assert main(["gradcheck", "--trials", "1"]) == 0
    assert time.perf_counter() - start < 120.0


@criterion(5, "truncated-maximum-squash property suite")
def test_criterion_5_tmr_properties():
    start = time.perf_counter()
    # the two closed-form worked examples, reproduced exactly
    flat = tmr_squash(Tensor(np.zeros((1, 3, 3))), 0.5, 0.1).data
    assert np.all(flat == 0.5 / 1.1)
    worked = tmr_squash(Tensor(np.array([-1.0, 0.3, 1.5]).reshape(1, 1, 3)), 0.5, 0.1)
    np.testing.assert_array_equal(worked.data.reshape(-1),
                                  [0.0, 0.8 / 2.1, 2.0 / 2.1])

    rng = np.random.default_rng(55)
    maps_checked = 0
    while maps_checked < 10_000:
        batch = rng.uniform(-3.0, 3.0, size=(5, 6, 6)) * rng.uniform(0.2, 2.0)
        out = tmr_squash(Tensor(batch), 0.5, 0.1).data
        assert np.all(out >= 0.0) and np.all(out < 1.0)
        for k in range(batch.shape[0]):
            raw_map, squashed = batch[k], out[k]
            assert squashed.max() < 1.0
            order = np.argsort(raw_map.reshape(-1), kind="stable")
            assert np.all(np.diff(squashed.reshape(-1)[order]) >= 0.0)
            if raw_map.max() <= 0.5:
                np.testing.assert_array_equal(
                    squashed, np.maximum(0.0, (raw_map + 0.5) / 1.1))
        maps_checked += batch.shape[0]
    assert time.perf_counter() - start < 10.0


@criterion(6, "mechanism validation on the toy benchmark")
def test_criterion_6_mechanism_validation():
    start = time.perf_counter()
    cfg = RunConfig()  # pinned defaults: data seed 1, train seed 0
    assert cfg.data.seed == 1 and cfg.train.seed == 0
    assert cfg.train.epochs <= 30
    train_set, test_set = generate_dataset(cfg.data)

    condensed = build_condensed(cfg.discovery_config(), cfg.head_config(),
                                cfg.train.seed)
    train(condensed, train_set, cfg.train)
    m_cond = evaluate(condensed, test_set)

    baseline = build_baseline(cfg.head_config(), cfg.train.seed)
    train(baseline, train_set, cfg.train)
    m_base = evaluate(baseline, test_set)

    print(f"  condensed acc={m_cond.accuracy:.4f} baseline acc={m_base.accuracy:.4f} "
          f"recall={m_cond.part_recall:.4f} chance={m_cond.chance_level:.4f}")
    assert m_cond.accuracy >= 0.90
    assert m_cond.accuracy >= m_base.accuracy - 0.03
    assert m_cond.part_recall >= 0.80
    assert m_cond.chance_level == pytest.approx(16 / 49)
    # non-regression against the values recorded at the first green run
    assert m_cond.accuracy >= PINNED_CONDENSED_ACC - PIN_SLACK
    assert m_cond.part_recall >= PINNED_RECALL - PIN_SLACK
    assert abs(m_base.accuracy - PINNED_BASELINE_ACC) <= 0.15
    assert time.perf_counter() - start < 600.0


@criterion(7, "loss contracts and worked values")
def test_criterion_7_loss_contracts():
    start = time.perf_counter()
    perfect_fg = np.zeros((2, 4, 4))
    perfect_fg[0, 1, 2] = 1.0  # summed map peaks exactly at 1 via map 0
    assert discriminative_loss(Tensor(np.array(
        [[[[1.0, 0.0], [0.0, 0.0]]]])), [1]).item() == 0.0
    assert discriminative_loss(Tensor(np.zeros((1, 3, 4, 4))), [0]).item() == 0.0
    assert uniqueness_loss(Tensor(perfect_fg[None]), [1]).item() == 0.0

    peaks = np.zeros((2, 4, 4))
    peaks[0, 0, 0] = 0.5
    peaks[1, 2, 2] = 1.0
    assert discriminative_loss(Tensor(peaks[None]), [1]).item() == 0.125

    colocated = np.zeros((2, 4, 4))
    colocated[0, 2, 2] = 0.9
    colocated[1, 2, 2] = 0.9
    assert uniqueness_loss(Tensor(colocated[None]), [1]).item() == \
        pytest.approx(0.32, abs=1e-15)
    assert time.perf_counter() - start < 1.0


@criterion(8, "byte-identical dataset and parameter files")
def test_criterion_8_determinism(tmp_path):
    start = time.perf_counter()
    flags = ["--data.channels", "16", "--data.num_classes", "2",
             "--data.parts_per_class", "2", "--data.n_train", "64",
             "--data.n_test", "16", "--okpd.groups", "2", "--head.num_parts", "2",
             "--head.pool_len", "2", "--head.hidden", "32",
             "--train.epochs", "3", "--train.batch_size", "16"]
    outputs = []
    for tag in ("one", "two"):
        data = tmp_path / f"{tag}.bin"
        params = tmp_path / f"{tag}.params.bin"
        assert main(["toy", "gen", "--out", str(data), "--seed", "9"] + flags) == 0
        assert main(["toy", "train", "--data", str(data), "--out", str(params),
                     "--train.seed", "4"] + flags) == 0
        outputs.append((data.read_bytes(),
                        (tmp_path / sibling_test_path(str(data)).split("/")[-1])
                        .read_bytes(),
                        params.read_bytes()))
    assert outputs[0] == outputs[1]
    assert time.perf_counter() - start < 600.0


@criterion(9, "accounting matches instantiated models")
def test_criterion_9_accounting_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 20:
        groups = int(rng.choice([1, 2, 4]))
        reduction = int(rng.choice([2, 4, 8]))
        channels = reduction * groups * int(rng.integers(1, 5))
        if (channels // reduction) % groups or channels % 4:
            continue
        head = HeadConfig(channels=channels,
                          num_classes=int(rng.integers(1, 21)),
                          num_parts=int(rng.integers(1, 17)),
                          pool_len=int(rng.integers(1, 6)),
                          hidden=int(rng.choice([32, 256, 1024])))
        disc = DiscoveryConfig(channels=channels, num_parts=head.num_parts,
                               num_blocks=int(rng.integers(1, 5)),
                               reduction=reduction, groups=groups)
        model = build_condensed(disc, head, seed=0)
        assert count_params_condensed(head, disc).total_params == model.scalar_count()
        checked += 1
    assert time.perf_counter() - start < 5.0
