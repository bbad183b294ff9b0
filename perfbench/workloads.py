"""The two benchmark workloads and the harness's own model of the truth.

Every workload is a closed loop with one client in this process. Inputs
come from the workload seed only. The library is reached through its
public names (``qellip.cli.main``, ``cli.load_config``, ``cli.counts_csv``,
``cli.parse_counts_csv``, names in ``qellip.__all__`` and
``qellip.estimate.fit_negative_log_likelihood``), always looked up at call
time so that the tracer's wrappers are seen.

The truth (film reflectance, coincidence rate) is computed here
independently of the library, so a defect in the library's forward model
shows as a failed check.
"""

import cmath
import hashlib
import json
import math

import numpy as np

import qellip
import qellip.cli
import qellip.estimate

# Sample: SiO2 film on Si at 70 deg incidence, HeNe wavelength.
WAVELENGTH_NM = 632.8
INCIDENCE_DEG = 70.0
N_AMBIENT = 1.0
N_FILM = 1.457
N_SUBSTRATE = 3.882 + 0.019j
# Detector and source shared by all workloads.
ETA1, ETA2 = 0.2, 0.3
ACCIDENTAL_PER_S = 5.0
VISIBILITY = 0.97
PAIRS_PER_S = 1e5
THETA2_DEG = 45.0
DWELL_S = 1.0

PIPELINE_RECORDS = 10_000
PIPELINE_STEP_DEG = 180.0 / PIPELINE_RECORDS
PIPELINE_FILM_NM = 100.0
# Simulation seeds per run, cycled over the ops, so that a run's figures
# are not those of one draw.
PIPELINE_DATASETS = 8
# Fixed absolute tolerance on the 1e4-row fit; its reported sigmas are ~0.016 deg.
FIT_TOL_DEG = 0.15
# The library's film reflectance must match the harness's Airy sum to this.
SAMPLE_TOL_RAD = 1e-9
SMALL_THETA1_DEG = tuple(range(0, 180, 15))
SMALL_THREE_ANGLE_IDX = (0, 3, 6)  # theta1 = 0, 45, 90 deg
SMALL_MAX_FILM_NM = 300.0
SMALL_POOL = 100_000
OUTLIER_Z = 5.0
RAD_PER_DEG = math.pi / 180.0

# The parser as imported, never a tracer's wrapper: checks must add no spans.
PARSE_COUNTS_CSV = qellip.cli.parse_counts_csv

DETECTOR_FLAGS = [
    "--eta1", str(ETA1), "--eta2", str(ETA2),
    "--accidental-per-s", str(ACCIDENTAL_PER_S), "--visibility", str(VISIBILITY),
]


class CheckFailed(Exception):
    """An operation's output is wrong; the message says how."""


def film_truth(film_nm: float):
    """(psi, |delta|) of one film on a substrate by the Airy summation,
    in the library's conventions (tan psi = |r_p|^2/|r_s|^2, r_p sign
    flipped so r_p and r_s differ in sign at normal incidence)."""
    theta0 = math.radians(INCIDENCE_DEG)
    sin0 = N_AMBIENT * math.sin(theta0)

    def cos_inside(n):
        ct = cmath.sqrt(1.0 - (sin0 / n) ** 2)
        return -ct if (n * ct).imag < 0 else ct

    c0, c1, c2 = math.cos(theta0), cos_inside(N_FILM), cos_inside(N_SUBSTRATE)
    phase = cmath.exp(4j * math.pi * N_FILM * film_nm * c1 / WAVELENGTH_NM)
    r = {}
    for pol, (y0, y1, y2) in {
        "s": (N_AMBIENT * c0, N_FILM * c1, N_SUBSTRATE * c2),
        "p": (N_AMBIENT / c0, N_FILM / c1, N_SUBSTRATE / c2),
    }.items():
        r01 = (y0 - y1) / (y0 + y1)
        r12 = (y1 - y2) / (y1 + y2)
        r[pol] = (r01 + r12 * phase) / (1.0 + r01 * r12 * phase)
    r_p, r_s = -r["p"], r["s"]
    psi = math.atan(abs(r_p) ** 2 / abs(r_s) ** 2)
    delta = (cmath.phase(r_p) - cmath.phase(r_s) + math.pi) % (2.0 * math.pi) - math.pi
    return psi, abs(delta)


def mean_counts(theta1_deg, psi: float, delta_mag: float) -> np.ndarray:
    """Expected coincidences per record at theta2 = 45 deg, 1 s dwell."""
    t1 = np.radians(np.asarray(theta1_deg, dtype=float))
    t2 = math.radians(THETA2_DEG)
    b = math.sqrt(math.tan(psi))
    c1, s1, c2, s2 = np.cos(t1), np.sin(t1), math.cos(t2), math.sin(t2)
    shape = (b * b * c1 * c1 * s2 * s2 + s1 * s1 * c2 * c2
             + 2.0 * VISIBILITY * b * math.cos(delta_mag) * c1 * s1 * c2 * s2)
    return (PAIRS_PER_S * ETA1 * ETA2 * shape + ACCIDENTAL_PER_S) * DWELL_S


def pipeline_theta1_deg() -> np.ndarray:
    return np.arange(PIPELINE_RECORDS) * PIPELINE_STEP_DEG


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class FitResult:
    """A fit compared with the truth: errors in degrees and whether the
    reported covariance fails to cover the error (a trust outlier)."""

    __slots__ = ("psi_err_deg", "delta_err_deg", "outlier")

    def __init__(self, psi_hat, delta_hat, var_psi, var_delta, psi, delta_mag):
        self.psi_err_deg = math.degrees(psi_hat - psi)
        self.delta_err_deg = math.degrees(delta_hat - delta_mag)
        self.outlier = bool(
            var_psi <= 0.0
            or var_delta <= 0.0
            or abs(psi_hat - psi) / math.sqrt(var_psi) > OUTLIER_Z
            or abs(delta_hat - delta_mag) / math.sqrt(var_delta) > OUTLIER_Z
        )


class Workload:
    name = ""
    records_per_op = 0
    cli_commands = ()  # the qellip subcommands one op runs, in order

    def __init__(self, tmp, seed: int):
        self.tmp = tmp
        self.seed = seed
        self.fits_attempted = 0
        self.fits_failed = 0
        self.fits = []  # FitResult per successful fit, in op order
        self.digests = {}

    def setup(self):
        """Build the inputs and warm the code path on a small input."""

    def op(self, i: int):
        """The timed operation; returns what check() needs and raises if
        the program reports failure (an exception or a non-zero exit code)."""
        raise NotImplementedError

    def check(self, i: int, out):
        """Raise CheckFailed if the op's output is wrong (not timed)."""

    def _digest(self, key: str, path):
        """Record the output's SHA-256; identical ops must reproduce it."""
        digest = _sha256(path)
        if self.digests.setdefault(key, digest) != digest:
            raise CheckFailed(f"{key} differs between identical operations")


class Pipeline(Workload):
    name = "pipeline_1e4"
    records_per_op = PIPELINE_RECORDS
    cli_commands = ("simulate", "estimate")

    def _config(self, path, theta1_sweep, seed):
        start, stop, step = theta1_sweep
        cfg = {
            "sample": {
                "type": "stack", "wavelength_nm": WAVELENGTH_NM, "angle_deg": INCIDENCE_DEG,
                "n_ambient": N_AMBIENT,
                "layers": [{"n_re": N_FILM, "n_im": 0.0, "d_nm": PIPELINE_FILM_NM}],
                "substrate": {"n_re": N_SUBSTRATE.real, "n_im": N_SUBSTRATE.imag},
            },
            "detector": {"eta1": ETA1, "eta2": ETA2,
                         "accidental_per_s": ACCIDENTAL_PER_S, "visibility": VISIBILITY},
            "scale": {"pairs_per_s": PAIRS_PER_S},
            "plan": {"theta2_deg": THETA2_DEG,
                     "sweep": {"start": start, "stop": stop, "step": step},
                     "dwell_s": DWELL_S},
            "seed": seed,
        }
        with open(path, "w") as fh:
            json.dump(cfg, fh)

    def _run(self, config, csv, report):
        """simulate -> CSV -> estimate -> report, as a user runs the CLI."""
        rc = qellip.cli.main(["simulate", "--config", str(config), "--out", str(csv)])
        if rc:
            raise RuntimeError(f"simulate exit code {rc}")
        rc = qellip.cli.main(["estimate", str(csv), "--method", "fit", *DETECTOR_FLAGS,
                              "--out", str(report)])
        if rc:
            self.fits_failed += rc == qellip.cli.EXIT_NUMERIC
            raise RuntimeError(f"estimate exit code {rc}")

    def setup(self):
        sim_seeds = np.random.default_rng(self.seed).integers(0, 2**63, PIPELINE_DATASETS)
        self.configs = []
        for k, sim_seed in enumerate(sim_seeds):
            self.configs.append(self.tmp / f"sweep{k}.json")
            self._config(self.configs[-1], (0.0, PIPELINE_STEP_DEG * (PIPELINE_RECORDS - 1),
                                            PIPELINE_STEP_DEG), int(sim_seed))
        self.csv = self.tmp / "counts.csv"
        self.report = self.tmp / "report.json"
        warm = self.tmp / "warm.json"
        self._config(warm, (0.0, 165.0, 15.0), 0)
        self._run(warm, self.tmp / "warm.csv", self.tmp / "warm_report.json")
        self.psi, self.delta_mag = film_truth(PIPELINE_FILM_NM)
        self.mu = mean_counts(pipeline_theta1_deg(), self.psi, self.delta_mag)
        self.det = qellip.DetectorModel(ETA1, ETA2, ACCIDENTAL_PER_S, VISIBILITY)
        self.records = {}  # dataset -> records parsed from its (checked) CSV

    def op(self, i):
        self.fits_attempted += 1
        self._run(self.configs[i % PIPELINE_DATASETS], self.csv, self.report)

    def check(self, i, out):
        k = i % PIPELINE_DATASETS
        self._digest(f"csv_sha256[{k}]", self.csv)
        # Every op on a dataset writes the same bytes, so its rows are checked once.
        if k not in self.records:
            self.records[k] = self._check_rows()
        self._check_report(self.records[k])
        self._digest(f"report_sha256[{k}]", self.report)

    def _check_rows(self):
        """The CSV's records, after checking them against the plan and the
        harness's closed-form rate."""
        with open(self.csv) as fh:
            text = fh.read()
        if not text.startswith(qellip.cli.COUNTS_HEADER + "\n"):
            raise CheckFailed("unexpected CSV header")
        rows = np.loadtxt(text.splitlines()[1:], delimiter=",", ndmin=2)
        if rows.shape != (PIPELINE_RECORDS, 4):
            raise CheckFailed(f"expected {PIPELINE_RECORDS} rows of 4 fields, got {rows.shape}")
        if np.max(np.abs(rows[:, 0] - pipeline_theta1_deg())) > 1e-6 or np.any(
            np.abs(rows[:, 1] - THETA2_DEG) > 1e-6
        ) or np.any(rows[:, 2] != DWELL_S):
            raise CheckFailed("rows do not carry the plan's angles and dwell")
        k = rows[:, 3]
        dispersion = float(np.sum((k - self.mu) ** 2 / self.mu) / PIPELINE_RECORDS)
        tol = 5.0 * math.sqrt(2.0 / PIPELINE_RECORDS)
        if abs(dispersion - 1.0) > tol:
            raise CheckFailed(f"Poisson dispersion {dispersion:.5f} outside 1 +/- {tol:.5f}")
        # Bound before the tracer can wrap it, so the check adds no parse span.
        return PARSE_COUNTS_CSV(text)

    def _check_report(self, records):
        with open(self.report) as fh:
            report = json.load(fh)
        psi_hat = math.radians(report["psi_deg"])
        delta_hat = math.radians(report["delta_deg"])
        if not (math.isfinite(psi_hat) and math.isfinite(delta_hat)):
            raise CheckFailed("non-finite estimate")
        if abs(math.degrees(psi_hat - self.psi)) > FIT_TOL_DEG or abs(
            math.degrees(delta_hat - self.delta_mag)
        ) > FIT_TOL_DEG:
            raise CheckFailed(
                f"estimate ({report['psi_deg']}, {report['delta_deg']}) deg is more than "
                f"{FIT_TOL_DEG} deg from the truth"
            )
        if len(report["residuals"]) != PIPELINE_RECORDS:
            raise CheckFailed("report does not carry one residual per row")
        cov = report["cov"]  # degrees
        self.fits.append(FitResult(psi_hat, delta_hat,
                                   cov[1][1] * RAD_PER_DEG**2, cov[2][2] * RAD_PER_DEG**2,
                                   self.psi, self.delta_mag))
        # One likelihood evaluation at the estimate: the per-iteration kernel.
        u = [math.log(report["C_hat"]), 0.5 * math.log(math.tan(psi_hat)), delta_hat]
        nll, grad = qellip.estimate.fit_negative_log_likelihood(u, records, self.det)
        if not (math.isfinite(nll) and np.all(np.isfinite(grad))):
            raise CheckFailed("non-finite likelihood at the estimate")


class SmallFits(Workload):
    name = "small_fits"
    records_per_op = len(SMALL_THETA1_DEG)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.films_nm = rng.uniform(0.0, SMALL_MAX_FILM_NM, SMALL_POOL)
        self.sim_seeds = rng.integers(0, 2**63, SMALL_POOL)
        self.plan = qellip.AcquisitionPlan(tuple(
            (math.radians(t), math.radians(THETA2_DEG), DWELL_S) for t in SMALL_THETA1_DEG))
        self.scale = qellip.ExperimentScale(PAIRS_PER_S)
        self.det = qellip.DetectorModel(ETA1, ETA2, ACCIDENTAL_PER_S, VISIBILITY)
        for i in range(5):
            self._experiment(150.0, i)

    def _experiment(self, film_nm, sim_seed):
        stack = qellip.FilmStack(
            wavelength=WAVELENGTH_NM * 1e-9, incidence_angle=math.radians(INCIDENCE_DEG),
            n_ambient=N_AMBIENT, layers=((N_FILM, film_nm * 1e-9),), n_substrate=N_SUBSTRATE)
        params = qellip.psi_delta_from_coeffs(qellip.film_stack_reflectance(stack))
        records = qellip.simulate_counts(self.plan, self.scale, self.det, params, sim_seed)
        try:
            fit = qellip.least_squares_fit(records, self.det)
        except qellip.FitError as exc:
            # The fit gave up before the optimum (BFGS precision loss, a few
            # films in 10^4). That is counted in fits_failed; the experiment
            # then restarts the fit once from the best iterate the error
            # carries, through the public `init` argument. If that fails
            # too, the op fails.
            self.fits_failed += 1
            if exc.estimate is None:
                raise
            fit = qellip.least_squares_fit(records, self.det, init=exc.estimate)
        rates = qellip.subtract_accidentals([records[j] for j in SMALL_THREE_ANGLE_IDX], self.det)
        three = qellip.three_angle_invert(*(rate for _, _, rate in rates))
        return params, fit, three

    def op(self, i):
        j = i % SMALL_POOL
        self.fits_attempted += 1
        return self._experiment(float(self.films_nm[j]), int(self.sim_seeds[j]))

    def check(self, i, out):
        params, fit, three = out
        values = [fit.C_hat, fit.psi_hat, fit.delta_mag_hat, three.C_hat, three.psi_hat,
                  three.delta_mag_hat, *fit.covariance.ravel(), *three.covariance.ravel()]
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed("non-finite estimate or covariance")
        if not 0.0 <= fit.psi_hat <= math.pi / 2:
            raise CheckFailed(f"psi_hat {fit.psi_hat} outside [0, pi/2]")
        psi, delta_mag = film_truth(float(self.films_nm[i % SMALL_POOL]))
        if abs(params.psi - psi) > SAMPLE_TOL_RAD or abs(abs(params.delta) - delta_mag) > SAMPLE_TOL_RAD:
            raise CheckFailed("film reflectance disagrees with the Airy sum")
        self.fits.append(FitResult(fit.psi_hat, fit.delta_mag_hat, fit.covariance[1, 1],
                                   fit.covariance[2, 2], psi, delta_mag))


WORKLOADS = {w.name: w for w in (Pipeline, SmallFits)}
