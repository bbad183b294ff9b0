"""Full pipeline: thin film -> reflection coefficients -> photon counts -> fit.

A 100 nm SiO2 film on silicon at 70 deg incidence (633 nm) is converted to
ellipsometric parameters via the characteristic-matrix model, a coincidence
scan is simulated with Poisson shot noise, and both estimators recover
(psi, |delta|) with uncertainties from the observed Fisher information.

Run:  python3 demos/02_film_stack_round_trip.py
"""

import math

import numpy as np

from qellip import (
    AcquisitionPlan,
    DetectorModel,
    ExperimentScale,
    FilmStack,
    film_stack_reflectance,
    least_squares_fit,
    psi_delta_from_coeffs,
    simulate_counts,
    three_angle_from_counts,
)


def main():
    stack = FilmStack(
        wavelength=633e-9,
        incidence_angle=math.radians(70.0),
        n_ambient=1.0,
        layers=(((1.46 + 0.0j), 100e-9),),
        n_substrate=3.875 - 0.016j,
    )
    pair = film_stack_reflectance(stack)
    truth = psi_delta_from_coeffs(pair)
    print("sample: 100 nm SiO2 on Si, 70 deg incidence, 633 nm")
    print(f"  r_p = {pair.r_p:.6f}")
    print(f"  r_s = {pair.r_s:.6f}")
    print(f"  ground truth  psi = {math.degrees(truth.psi):9.5f} deg")
    print(f"  ground truth |delta| = {math.degrees(abs(truth.delta)):9.5f} deg")

    det = DetectorModel(eta1=0.6, eta2=0.4, accidental_rate=2.0)
    scale = ExperimentScale(pair_rate=250_000.0)
    angles = [math.radians(t) for t in np.arange(0.0, 180.0, 15.0)]
    plan = AcquisitionPlan(tuple((t, math.pi / 4, 1.0) for t in angles))
    records = simulate_counts(plan, scale, det, truth, seed=42)
    total = sum(r.counts for r in records)
    print(f"\nsimulated {len(records)} settings, {total} coincidences total")

    # closed-form inversion from the three canonical angles
    closed = three_angle_from_counts(records, det)
    print("\nthree-angle closed form:")
    print(
        f"  psi = {math.degrees(closed.psi_hat):9.5f} deg"
        f"  (err {math.degrees(closed.psi_hat - truth.psi):+8.5f})"
    )
    print(
        f"  |delta| = {math.degrees(closed.delta_mag_hat):9.5f} deg"
        f"  (err {math.degrees(closed.delta_mag_hat - abs(truth.delta)):+8.5f})"
    )

    # maximum-likelihood fit over the whole scan
    fit = least_squares_fit(records, det)
    sd_psi = math.degrees(math.sqrt(fit.covariance[1, 1]))
    sd_delta = math.degrees(math.sqrt(fit.covariance[2, 2]))
    print("\nmaximum-likelihood fit over all 12 settings:")
    print(
        f"  psi = {math.degrees(fit.psi_hat):9.5f} +/- {sd_psi:.5f} deg"
        f"  (err {math.degrees(fit.psi_hat - truth.psi):+8.5f})"
    )
    print(
        f"  |delta| = {math.degrees(fit.delta_mag_hat):9.5f} +/- {sd_delta:.5f} deg"
        f"  (err {math.degrees(fit.delta_mag_hat - abs(truth.delta)):+8.5f})"
    )
    print(f"  C = {fit.C_hat:.1f} (detected-pair rate constant)")


if __name__ == "__main__":
    main()
