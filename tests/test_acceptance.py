"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import time

import numpy as np
import pytest

from airfed import channel as ch
from airfed import cli, core, models
from airfed import compression as C
from airfed.budget import BudgetLedger, baseline_uses, communication_gain
from airfed.scenario import parse_scenario


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def fed_setup(mu=0.2):
    sc = parse_scenario(
        "seed = 12\nrounds = 100\nmodel = logistic\nfeatures = 20\nclients = 4\n"
        f"client_size = 30\nmu = {mu}\nl2 = 0.01"
    )
    datasets = models.make_synthetic(sc.partition, sc.seed).split(sc.partition.sizes)
    return sc, datasets


def test_criterion_1_federation_equals_centralized():
    start = time.time()
    sc, datasets = fed_setup()
    spec, mu = sc.model_spec, sc.train_cfg.step_size
    union = models.Dataset(
        np.vstack([d.features for d in datasets]),
        np.concatenate([d.labels for d in datasets]),
    )
    streams = core.RngStreams(sc.seed)
    clients = [
        core.ClientState(k, d, np.zeros(spec.dim), C.EncoderState.zeros(spec.dim))
        for k, d in enumerate(datasets)
    ]
    client_rngs = {c.id: streams.client(c.id) for c in clients}
    server = core.ServerState(np.zeros(spec.dim))
    w_cent = np.zeros(spec.dim)
    max_dev = 0.0
    for _ in range(100):
        core.run_round(
            server, clients, union, spec, sc.train_cfg, sc.round_cfg, streams, client_rngs
        )
        w_cent = w_cent - mu * models.gradient(spec, w_cent, union)
        max_dev = max(max_dev, float(np.max(np.abs(server.params - w_cent))))
    elapsed = time.time() - start
    report(
        "criterion 1: federation/centralization equivalence",
        max_dev < 1e-10 and elapsed < 5.0,
        f"max deviation {max_dev:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_monotonicity_suite():
    sc, datasets = fed_setup(mu=0.05)
    spec, mu = sc.model_spec, 0.05
    total = sum(d.size for d in datasets)
    w = np.zeros(spec.dim)
    violations = 0
    for _ in range(100):
        g = sum(d.size * models.gradient(spec, w, d) for d in datasets) / total
        if np.linalg.norm(g) < 1e-8:
            break
        locals_ = [(w - mu * models.gradient(spec, w, d), d.size) for d in datasets]
        w_new = ch.weighted_mean([wk for wk, _ in locals_], [n for _, n in locals_])
        if models.global_loss(spec, w_new, datasets) >= models.global_loss(
            spec, w, datasets
        ):
            violations += 1
        for (wk, _), d in zip(locals_, datasets):
            if models.local_loss(spec, w_new, d) < models.local_loss(spec, wk, d):
                violations += 1
        w = w_new
    report(
        "criterion 2: monotonicity suite (global descent, local ordering)",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_3_gradient_correctness():
    from test_models import finite_difference_gradient, random_spec_and_data

    start = time.time()
    worst = 0.0
    for kind in models.MODEL_KINDS:
        rng = np.random.default_rng(100)
        for _ in range(100):
            spec, data = random_spec_and_data(kind, rng, n=8, p=4, l2=0.01)
            w = 0.5 * rng.standard_normal(spec.dim)
            g = models.gradient(spec, w, data)
            g_fd = finite_difference_gradient(spec, w, data)
            rel = float(
                np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g_fd))
            )
            worst = max(worst, rel)
    elapsed = time.time() - start
    report(
        "criterion 3: gradient vs finite differences, 100 draws per family",
        worst < 1e-5 and elapsed < 10.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_over_the_air_exactness():
    start = time.time()
    K, N, d = 3, 4, 1000
    rng = np.random.default_rng(200)
    realization = ch.ChannelRealization(rng.standard_normal((K, N)), 0.0)
    sizes = [2, 3, 5]
    targets = {k: sizes[k] / sum(sizes) for k in range(K)}
    m, p, selected, _ = ch.solve_aggregation_weights(realization, targets, 1e6)
    assert selected == [0, 1, 2]
    vectors = [rng.standard_normal(d) for _ in range(K)]
    entries = [
        ch.TransmitEntry(k, vectors[k], vectors[k], sizes[k], d, d * 64, d)
        for k in range(K)
    ]
    res = ch.transmit_round(
        entries, ch.TransportScheme(ch.OVER_THE_AIR), realization, p, m,
        np.random.default_rng(0),
    )
    noiseless_ok = res.aggregation_error < 1e-8

    exact = sum(s * v for s, v in zip(sizes, vectors)) / sum(sizes)
    sigmas = [0.01, 0.02, 0.04, 0.08]
    mses = []
    for sigma in sigmas:
        noisy = ch.ChannelRealization(realization.gains, sigma)
        noise_rng = np.random.default_rng(1)
        errs = []
        for _ in range(1000):
            out = ch.transmit_round(
                entries, ch.TransportScheme(ch.OVER_THE_AIR), noisy, p, m, noise_rng
            )
            errs.append(float(np.mean((out.aggregated - exact) ** 2)))
        mses.append(np.mean(errs))
    x = np.array(sigmas) ** 2
    y = np.array(mses)
    slope, intercept = np.polyfit(x, y, 1)
    r2 = 1 - np.sum((y - (slope * x + intercept)) ** 2) / np.sum((y - y.mean()) ** 2)
    elapsed = time.time() - start
    report(
        "criterion 4: over-the-air exactness and MSE linearity in noise power",
        noiseless_ok and r2 > 0.99 and elapsed < 30.0,
        f"noiseless err {res.aggregation_error:.2e}, R2 {r2:.5f}, {elapsed:.1f}s",
    )


def test_criterion_5_communication_gain():
    d, m_cs, rounds = 1000, 100, 3
    ok = True
    details = []
    for K in (5, 10, 20):
        round_ids = list(range(1, rounds + 1))
        base = baseline_uses(round_ids, 1, K, d)
        ota = BudgetLedger()
        cs = BudgetLedger()
        for t in round_ids:
            ota.record(t, "over-the-air", d, d * 64, 0)
            cs.record(t, "cs-over-the-air", m_cs, m_cs * 64, 0)
        gain_ota = communication_gain(base, ota.total_uses)
        gain_cs = communication_gain(base, cs.total_uses)
        ok = (
            ok
            and gain_ota == K
            and gain_cs == K * d / m_cs
            and communication_gain(base, base) == 1.0
            and np.isnan(communication_gain(base, 0))
        )
        details.append(f"K={K}: {gain_ota:g}/{gain_cs:g}")
    report(
        "criterion 5: communication gains K, K*d/m_cs, 1 and nan (accounting identity)",
        ok,
        "; ".join(details),
    )


def test_criterion_5b_gains_from_actual_runs():
    # same identity realized through full simulator runs
    K, d, m_cs = 5, 200, 20
    common = (
        f"seed = 0\nrounds = 2\nclients = {K}\nclient_size = 5\nfeatures = {d}\n"
        "payload = gradients\nmodel = linear\n"
    )
    _, led_base = core.run_training(parse_scenario(common))
    _, led_ota = core.run_training(
        parse_scenario(common + "scheme = over-the-air\nantennas = 8\npower_cap = 1e9\n")
    )
    _, led_cs = core.run_training(
        parse_scenario(
            common
            + f"scheme = cs-over-the-air\nantennas = 8\npower_cap = 1e9\n"
            f"measurements = {m_cs}\nsparsifier = topk\nrho = 0.01\n"
        )
    )
    base = led_base.total_uses
    ok = (
        base == baseline_uses([1, 2], 1, K, d)
        and communication_gain(base, led_ota.total_uses) == K
        and communication_gain(base, led_cs.total_uses) == K * d / m_cs
    )
    report("criterion 5 (runs): gains from paired simulator runs", ok)


def test_criterion_6_compression_ratio_claim():
    start = time.time()
    d = 10_000
    g = np.random.default_rng(300).standard_normal(d)
    spec = C.CodecSpec(
        sparsifier=C.SPARSIFIER_TOPK, keep_fraction=0.01, quantizer=C.QUANTIZER_BINARY
    )
    payload = C.encode(g, spec)
    # exact arithmetic: 100 entries * (14 index + 1 symbol bits) + 64 header
    ratio_ok = (
        payload.payload_bits == 100 * (14 + 1) + 64
        and C.compression_ratio(payload) < 0.025
    )

    base = (
        "seed = 0\nrounds = 500\nmodel = logistic\nfeatures = 200\nclients = 4\n"
        "client_size = 50\nmu = 0.1\nl2 = 0.001\npayload = gradients\n"
    )
    rec_plain, _ = core.run_training(parse_scenario(base))
    rec_comp, _ = core.run_training(
        parse_scenario(
            base + "sparsifier = topk\nrho = 0.01\nquantizer = binary\n"
            "error_feedback = true\n"
        )
    )
    loss_u = rec_plain[-1].global_loss
    loss_c = rec_comp[-1].global_loss
    rel = abs(loss_c - loss_u) / loss_u
    elapsed = time.time() - start
    report(
        "criterion 6: <2.5% ratio and error-feedback training within 10%",
        ratio_ok and rel < 0.10 and elapsed < 60.0,
        f"ratio {C.compression_ratio(payload):.4%}, loss gap {rel:.2%}, {elapsed:.1f}s",
    )


def test_criterion_7_topk_optimality():
    rng = np.random.default_rng(400)
    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 13))
        k = int(rng.integers(1, min(4, d) + 1))
        g = rng.standard_normal(d)
        idx = C.topk_indices(g, k / d)
        best = max(
            sum(g[i] ** 2 for i in subset)
            for subset in itertools.combinations(range(d), k)
        )
        ok = ok and float(np.sum(g[idx] ** 2)) == pytest.approx(best, rel=1e-12)
    report("criterion 7: top-k matches brute-force best subset, 100 vectors", ok)


def test_criterion_8_cs_recovery_sanity():
    start = time.time()
    d, s, m_cs = 64, 3, 36
    successes = 0
    for trial in range(100):
        rng = np.random.default_rng(500 + trial)
        A = rng.standard_normal((m_cs, d))
        x = np.zeros(d)
        support = rng.choice(d, size=s, replace=False)
        x[support] = rng.standard_normal(s) + np.sign(rng.standard_normal(s))
        x_hat = ch.omp_recover(A, A @ x, s)
        if (
            np.array_equal(np.flatnonzero(x_hat), np.sort(support))
            and np.allclose(x_hat, x, atol=1e-8)
        ):
            successes += 1
    elapsed = time.time() - start
    report(
        "criterion 8: sparse recovery, exact support and values",
        successes > 95 and elapsed < 10.0,
        f"{successes}/100, {elapsed:.1f}s",
    )


def test_criterion_9_reproducibility(tmp_path):
    f = tmp_path / "s.cfg"
    f.write_text(
        "seed = 21\nrounds = 8\nclients = 4\nclient_size = 10\nfeatures = 8\n"
        "participation = 0.5\ndelay_jitter = 0.3\ndeadline = 5\n"
        "sparsifier = topk\nrho = 0.2\nquantizer = three-level\nerror_feedback = true\n"
        "payload = gradients\nscheme = over-the-air\nantennas = 8\npower_cap = 1e6\n"
        "sigma = 0.01\n"
    )
    for out in ("a", "b"):
        assert cli.main(["run", str(f), "--out", str(tmp_path / out), "--quiet"]) == 0
    ok = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("rounds.csv", "budget.csv", "summary.txt")
    )
    report("criterion 9: byte-identical CSVs under a fixed seed", ok)
