"""Desk-scale spin-locking quantum noise spectroscopy.

Generate Gaussian noise with known spectra, simulate driven-qubit dynamics
under that noise with injected SPAM errors, run the standard and SPAM-robust
spin-locking protocols, and recover the injected spectra and SPAM parameters.
"""

from .spectra import (
    DeviceParams,
    Lorentzian,
    SphericalSpectraSet,
    SpectraError,
    Tabulated,
    White,
    evaluate_spectrum,
    mhz_to_rad_per_us,
)
from .noisegen import (
    BathCoefficients,
    BathConfig,
    BathVariant,
    DSAConfig,
    DSARealization,
    NoiseTrajectory,
    default_dsa_config,
    target_spectra,
)
from .dynamics import (
    DriveAxis,
    DriveConfig,
    DynamicsError,
    QubitState,
    RateCoefficients,
    ToyBathNoise,
    compute_AB,
    ensemble_expectation,
    frame_aligned_times,
    tcl_expectation_x_drive,
    tcl_expectation_z_drive,
    tcl_evolve_state,
    toggling_to_rotating,
)
from .spam import (
    MeasurementKey,
    ShotDataset,
    ShotRecord,
    SpamParams,
    faulty_state,
    sample_shots,
)
from .estimation import (
    EstimationError,
    LinearizationGuardError,
    Method,
    RegressionResult,
    SpectralEstimate,
    estimate_single_axis_standard,
    invert_multi_axis,
    robust_multi_axis,
    robust_single_axis_linearized,
    robust_single_axis_nonlinear,
    single_axis_forward,
)
from .protocols import (
    Backend,
    ClosedFormTclBackend,
    PlanError,
    ProtocolPlan,
    TrajectoryBackend,
    run_plan,
)
from .harness import compare_reports, run_campaign

__version__ = "0.1.0"
