"""Why coincidence ellipsometry needs no absolute calibration.

A classical single-beam ellipsometer infers tan(psi) from an intensity
ratio, so any unnoticed gain drift between the two polarization readings
biases psi directly.  The coincidence estimate depends only on ratios of
rates taken through the *same* detection chain, so a common multiplicative
miscalibration -- detector efficiency, source brightness, gating loss --
cancels exactly.

Run:  python3 demos/03_calibration_immunity.py
"""

import math

import numpy as np

from qellip import (
    AcquisitionPlan,
    ClassicalInstrument,
    DetectorModel,
    ExperimentScale,
    SampleParams,
    classical_psi_estimate,
    coincidence_rate,
    simulate_counts,
    three_angle_from_counts,
    three_angle_invert,
)

MIRROR = SampleParams.mirror()


def quantum_psi_noiseless(gain):
    rates = [
        gain * coincidence_rate(2.0, MIRROR, math.radians(t), math.pi / 4)
        for t in (0.0, 45.0, 90.0)
    ]
    return math.degrees(three_angle_invert(*rates).psi_hat)


def main():
    print("mirror sample, true psi = 45 deg\n")
    print(f"{'gain drift':>10}  {'classical psi':>14}  {'coincidence psi':>16}")
    for g in (0.95, 1.0, 1.02, 1.10):
        classical = math.degrees(
            classical_psi_estimate(MIRROR, ClassicalInstrument(gain_drift=g))
        )
        print(f"{g:10.2f}  {classical:14.4f}  {quantum_psi_noiseless(g):16.4f}")

    print("\ndetector efficiency sweep (Poisson noise, ~1e6 counts, 100 seeds each):")
    print(f"{'eta2':>6}  {'mean psi (deg)':>15}  {'std (deg)':>10}")
    plan = AcquisitionPlan(
        tuple((math.radians(t), math.pi / 4, 1.0) for t in (0.0, 45.0, 90.0))
    )
    for block, eta2 in enumerate((0.1, 0.5, 1.0)):
        det = DetectorModel(eta2=eta2)
        scale = ExperimentScale(4e5 / eta2)  # hold detected counts fixed
        estimates = []
        for seed in range(100):
            # distinct seed block per efficiency: identical seeds would give
            # bit-identical draws here, since the effective mean is unchanged
            recs = simulate_counts(plan, scale, det, MIRROR, seed=1000 * block + seed)
            est = three_angle_from_counts(recs, det)
            estimates.append(math.degrees(est.psi_hat))
        estimates = np.array(estimates)
        print(f"{eta2:6.1f}  {estimates.mean():15.4f}  {estimates.std(ddof=1):10.4f}")
    print("\nthe scatter is pure shot noise; the mean does not move with eta2,")
    print("while a 2% classical gain drift alone shifts psi by ~0.57 deg.")


if __name__ == "__main__":
    main()
