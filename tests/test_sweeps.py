"""Statistical trend checks over seeds: more data helps, more RBs help,
and the proposed allocator stays ahead of baselines along the RB axis."""

from dataclasses import replace

import numpy as np

from fedwireless.config import load_config
from fedwireless.harness import run_experiment

from util import REFERENCE

N_SEEDS = 50


def final_losses(config, algorithms):
    """Final loss per seed of each algorithm (shared packet-loss streams),
    from one run over seeds 0..N_SEEDS-1."""
    records = run_experiment(
        replace(config, algorithms=tuple(algorithms), seeds=tuple(range(N_SEEDS)))
    )
    return {
        algorithm: np.array([r.losses[-1] for r in records if r.algorithm == algorithm])
        for algorithm in algorithms
    }


def pooled_se(a, b):
    return float(np.sqrt(np.var(a, ddof=1) / len(a) + np.var(b, ddof=1) / len(b)))


def test_more_samples_per_user_do_not_hurt():
    config = replace(load_config(REFERENCE), rounds=100)
    means = []
    series = []
    for value in (5, 15, 30):
        cfg = replace(config, sample_count_cycle=(value,))
        losses = final_losses(cfg, ["proposed"])["proposed"]
        means.append(float(losses.mean()))
        series.append(losses)
    for k in range(len(means) - 1):
        assert means[k + 1] <= means[k] + pooled_se(series[k], series[k + 1])


def test_proposed_leads_along_the_rb_axis():
    config = replace(load_config(REFERENCE), rounds=100)
    base_interference = config.network.uplink_interference_w
    for rb_count in (3, 6, 9, 12):
        interference = tuple(
            base_interference[i % len(base_interference)] for i in range(rb_count)
        )
        cfg = replace(
            config,
            network=replace(
                config.network, rb_count=rb_count, uplink_interference_w=interference
            ),
        )
        losses = final_losses(cfg, ["proposed", "baseline_a", "baseline_b", "baseline_c"])
        proposed = losses["proposed"]
        for baseline in ("baseline_a", "baseline_b", "baseline_c"):
            other = losses[baseline]
            assert proposed.mean() <= other.mean() + pooled_se(proposed, other), (
                rb_count,
                baseline,
                proposed.mean(),
                other.mean(),
            )
