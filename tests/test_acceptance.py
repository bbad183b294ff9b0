"""End-to-end acceptance suite.

Each test covers one headline guarantee of the package and prints a single
``[PASS]``/``[FAIL]`` line (run with ``pytest -s`` to see them inline).
"""

import functools
import json
import math
import time
from pathlib import Path

import numpy as np

from qellip import (
    AcquisitionPlan,
    ClassicalInstrument,
    CountRecord,
    DetectorModel,
    ExperimentScale,
    FilmStack,
    SampleParams,
    classical_psi_estimate,
    coincidence_rate,
    film_stack_reflectance,
    fresnel_interface,
    least_squares_fit,
    simulate_counts,
    three_angle_invert,
    visibility,
)
from qellip.cli import main as cli_main
from qellip.estimate import fit_negative_log_likelihood

from oracle import (
    RATE_PROJECTION_FACTOR,
    apply_local,
    coincidence_amplitude,
    entangled_state,
    projection_rate,
    reduced_density,
    sample_jones,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
I2 = np.eye(2)


def criterion(num, title):
    """Print one pass/fail line per acceptance criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num}: {title}")
                raise
            print(f"[PASS] criterion {num}: {title}")

        return wrapper

    return deco


def noiseless_three_angle_rates(c, params, vis=1.0):
    return [
        coincidence_rate(c, params, math.radians(t), math.pi / 4, visibility=vis)
        for t in (0.0, 45.0, 90.0)
    ]


@criterion(1, "closed-form rate equals quantum projection to 1e-12 in < 1 s")
def test_01_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        beta = 10.0 ** rng.uniform(-1, 1)
        delta = rng.uniform(-math.pi, math.pi)
        p = SampleParams.from_beta_delta(beta, delta)
        t1, t2 = rng.uniform(0.0, 2 * math.pi, 2)
        closed = coincidence_rate(1.0, p, t1, t2)
        worst = max(worst, abs(closed - projection_rate(p, t1, t2)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"worst deviation {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


@criterion(2, "mirror fringe has unit visibility and 1 + sin(2 theta1) shape")
def test_02_mirror_visibility():
    mirror = SampleParams.mirror()
    thetas = np.linspace(0.0, math.pi, 361)
    rates = [
        (float(t), coincidence_rate(1.0, mirror, float(t), math.pi / 4)) for t in thetas
    ]
    assert abs(visibility(rates) - 1.0) <= 1e-12
    for t, r in rates:
        expected = 0.5 * (1.0 + math.sin(2.0 * t))
        assert abs(r - expected) <= 1e-12


@criterion(3, "three-angle inversion round-trips 500 noiseless ground truths to 1e-9")
def test_03_three_angle_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(500):
        beta = 10.0 ** rng.uniform(-1, 1)
        # keep |cos(delta)| away from 1 so acos stays well conditioned
        delta = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, math.pi - 0.05)
        c = 10.0 ** rng.uniform(-1, 3)
        p = SampleParams.from_beta_delta(beta, delta)
        est = three_angle_invert(*noiseless_three_angle_rates(c, p))
        assert abs(est.C_hat - c) <= 1e-9 * c
        assert abs(est.psi_hat - p.psi) <= 1e-9
        assert abs(est.delta_mag_hat - abs(p.delta)) <= 1e-9

    # fixture: C = 2, beta^2 = 2, delta = 60 deg
    p = SampleParams.from_beta_delta(math.sqrt(2.0), math.radians(60.0))
    n0, n45, n90 = noiseless_three_angle_rates(2.0, p)
    assert abs(n45 - 2.2071068) <= 5e-8
    est = three_angle_invert(n0, n45, n90)
    assert abs(est.C_hat - 2.0) <= 1e-12
    assert abs(math.tan(est.psi_hat) - 2.0) <= 1e-12
    assert abs(est.delta_mag_hat - math.radians(60.0)) <= 1e-12


@criterion(4, "estimates are immune to a common rate calibration factor")
def test_04_calibration_immunity():
    start = time.perf_counter()

    # noiseless bit-identity on exactly representable rate triples;
    # scaling dyadic rates by any float k is exact, so the estimator's
    # rate ratios are untouched at the bit level
    for n0, n45, n90 in ((1.0, 2.0, 1.0), (4.0, 4.0, 1.0)):
        base = three_angle_invert(n0, n45, n90)
        for k in (0.1, 0.5, 2.0, 10.0):
            scaled = three_angle_invert(k * n0, k * n45, k * n90)
            assert scaled.psi_hat == base.psi_hat
            assert scaled.delta_mag_hat == base.delta_mag_hat
            assert scaled.C_hat == k * base.C_hat

    # Poisson version: idler-arm efficiency 0.1 vs 1.0 at matched total
    # counts must give statistically indistinguishable psi bias
    p = SampleParams.from_beta_delta(math.sqrt(2.0), math.radians(60.0))
    plan = AcquisitionPlan(
        tuple((math.radians(t), math.pi / 4, 1.0) for t in (0.0, 45.0, 90.0))
    )
    c_eff = 1e6 / (2.0 + (3.0 + math.sqrt(2.0)) / 4.0 + 0.5)  # ~1e6 total counts
    biases = {}
    for eta2 in (0.1, 1.0):
        errors = []
        scale = ExperimentScale(c_eff / eta2)
        det = DetectorModel(eta2=eta2)
        for seed in range(200):
            recs = simulate_counts(plan, scale, det, p, seed=seed)
            rates = [r.counts / r.duration for r in recs]
            errors.append(three_angle_invert(*rates).psi_hat - p.psi)
        errors = np.array(errors)
        biases[eta2] = (errors.mean(), errors.std(ddof=1) / math.sqrt(len(errors)))
    diff = abs(biases[0.1][0] - biases[1.0][0])
    combined_se = math.hypot(biases[0.1][1], biases[1.0][1])
    assert diff < 3.0 * combined_se, f"bias gap {diff:.2e} vs 3 SE {3 * combined_se:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


@criterion(5, "a global idler-arm phase changes no coincidence rate by > 1e-12")
def test_05_arm_phase_insensitivity():
    p = SampleParams.from_beta_delta(1.3, 0.7)
    base = apply_local(entangled_state(), sample_jones(p), I2)
    angles = np.linspace(0.0, math.pi, 7)
    for phi in (0.0, math.pi / 7, math.pi / 2, math.pi, 1.5 * math.pi):
        shifted = apply_local(base, I2, np.exp(1j * phi) * I2)
        for t1 in angles:
            for t2 in angles:
                r0 = RATE_PROJECTION_FACTOR * abs(coincidence_amplitude(base, t1, t2)) ** 2
                r1 = RATE_PROJECTION_FACTOR * abs(coincidence_amplitude(shifted, t1, t2)) ** 2
                assert abs(r1 - r0) <= 1e-12


@criterion(6, "each arm of the source state alone is fully unpolarized (I/2)")
def test_06_unpolarized_marginals():
    state = entangled_state()
    for arm in ("signal", "idler"):
        rho = reduced_density(state, arm)
        assert np.max(np.abs(rho - 0.5 * I2)) <= 1e-12


@criterion(7, "psi RMSE scales as 1/sqrt(counts); fit gradient matches finite differences")
def test_07_estimator_statistics():
    p = SampleParams.from_beta_delta(math.sqrt(2.0), math.radians(60.0))
    angles = tuple(math.radians(t) for t in (0.0, 30.0, 45.0, 60.0, 90.0, 120.0, 150.0))
    shape_total = sum(
        coincidence_rate(1.0, p, t, math.pi / 4) for t in angles
    )
    det = DetectorModel()
    rmse = {}
    for total in (1e4, 1e5, 1e6):
        scale = ExperimentScale(total / shape_total)
        plan = AcquisitionPlan(tuple((t, math.pi / 4, 1.0) for t in angles))
        errs = []
        for seed in range(60):
            recs = simulate_counts(plan, scale, det, p, seed=seed)
            errs.append(least_squares_fit(recs, det).psi_hat - p.psi)
        rmse[total] = float(np.sqrt(np.mean(np.square(errs))))
    for hi, lo in ((1e5, 1e4), (1e6, 1e5)):
        ratio = rmse[lo] / rmse[hi]
        assert math.sqrt(10.0) / 1.5 < ratio < math.sqrt(10.0) * 1.5, (
            f"RMSE ratio {ratio:.2f} at {lo:g}->{hi:g}"
        )

    # analytic gradient vs central differences at 100 random points
    rng = np.random.default_rng(17)
    records = [
        CountRecord(float(t1), float(t2), 1.0, int(k))
        for t1, t2, k in zip(
            rng.uniform(0, math.pi, 12), rng.uniform(0, math.pi, 12), rng.integers(1, 500, 12)
        )
    ]
    for _ in range(100):
        u = np.array([rng.uniform(-1, 5), rng.uniform(-1.5, 1.5), rng.uniform(-3, 3)])
        _, grad = fit_negative_log_likelihood(u, records, det)
        for j in range(3):
            h = 1e-6 * max(1.0, abs(u[j]))
            up, dn = u.copy(), u.copy()
            up[j] += h
            dn[j] -= h
            fd = (
                fit_negative_log_likelihood(up, records, det)[0]
                - fit_negative_log_likelihood(dn, records, det)[0]
            ) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-5 * max(1.0, abs(fd)), (
                f"component {j}: analytic {grad[j]:.8e} vs fd {fd:.8e}"
            )


@criterion(8, "gain drift biases the classical estimate but not the coincidence one")
def test_08_classical_contrast():
    mirror = SampleParams.mirror()
    g = 1.02

    classical = math.degrees(
        classical_psi_estimate(mirror, ClassicalInstrument(gain_drift=g))
    )
    assert abs(classical - 44.433) <= 0.001

    noiseless = three_angle_invert(*[g * r for r in noiseless_three_angle_rates(2.0, mirror)])
    assert abs(math.degrees(noiseless.psi_hat) - 45.0) <= 1e-6

    # Monte Carlo: at ~1e6 total counts with the same drift, the quantum
    # estimate's 1.96-sigma interval covers 45 deg at the 95% level
    plan = AcquisitionPlan(
        tuple((math.radians(t), math.pi / 4, 1.0) for t in (0.0, 45.0, 90.0))
    )
    scale = ExperimentScale(g * 1e6 / 2.5)  # mirror: total shape factor 2.5 per unit C
    det = DetectorModel()
    covered = 0
    classical_bias = abs(classical - 45.0)
    for seed in range(100):
        recs = simulate_counts(plan, scale, det, mirror, seed=seed)
        est = three_angle_invert(*[r.counts / r.duration for r in recs])
        err = abs(est.psi_hat - math.pi / 4)
        if err <= 1.96 * math.sqrt(est.covariance[1, 1]):
            covered += 1
        # each noisy quantum estimate still beats the drifted classical bias
        assert math.degrees(err) < classical_bias
    assert covered >= 88, f"coverage {covered}/100"  # 3-sigma binomial floor for 95%


@criterion(9, "reflection coefficients pass Brewster, oracle, and layer checks")
def test_09_fresnel_sanity():
    # Brewster null for n = 1.5
    brewster = math.atan(1.5)
    assert abs(fresnel_interface(1.0, 1.5, brewster).r_p) < 1e-10

    # air/glass 45 deg against frozen independent-oracle values
    pair = fresnel_interface(1.0, 1.5, math.radians(45.0))
    assert abs(pair.r_s - (-0.30333704529042343)) <= 1e-4
    assert abs(pair.r_p - 0.09201336304552436) <= 1e-4

    # zero-layer stack is bit-identical to the bare interface
    stack0 = FilmStack(633e-9, math.radians(30.0), 1.0, (), 1.5 + 0.2j)
    direct = fresnel_interface(1.0, 1.5 + 0.2j, math.radians(30.0))
    viaflm = film_stack_reflectance(stack0)
    assert viaflm.r_p == direct.r_p and viaflm.r_s == direct.r_s

    # a lossless layer one full phase period thick is optically absent
    lam = 633e-9
    n_layer = 1.46
    d = lam / (2.0 * n_layer)  # half-wave at normal incidence
    full = film_stack_reflectance(FilmStack(lam, 0.0, 1.0, ((n_layer, d),), 1.5))
    bare = fresnel_interface(1.0, 1.5, 0.0)
    assert abs(full.r_p - bare.r_p) <= 1e-10
    assert abs(full.r_s - bare.r_s) <= 1e-10


@criterion(10, "simulation output is byte-identical across runs and matches the golden CSV")
def test_10_determinism(tmp_path):
    config = {
        "sample": {"type": "mirror"},
        "detector": {"eta1": 1.0, "eta2": 1.0, "accidental_per_s": 0.0, "visibility": 1.0},
        "scale": {"pairs_per_s": 10000},
        "plan": {
            "theta2_deg": 45.0,
            "sweep": {"start": 0, "stop": 180, "step": 15},
            "dwell_s": 1.0,
        },
        "seed": 7,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == (GOLDEN_DIR / "mirror_sweep_seed7.csv").read_bytes()
