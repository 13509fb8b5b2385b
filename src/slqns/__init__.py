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
    rad_per_us_to_mhz,
    spherical_from_cartesian,
    split_classical_quantum,
)
from .noisegen import (
    BathConfig,
    BathVariant,
    DSAConfig,
    DSARealization,
    NoiseTrajectory,
    build_toy_bath,
    default_dsa_config,
    dsa_sample,
    target_spectra,
    theoretical_autocorrelation,
)
from .dynamics import (
    ClassicalDephasingNoise,
    DriveAxis,
    DriveConfig,
    DynamicsError,
    QubitState,
    RateCoefficients,
    ToyBathNoise,
    compute_AB,
    discretized_z_drive,
    ensemble_expectation,
    frame_aligned_times,
    simulate_trajectory,
    tcl_expectation_x_drive,
    tcl_expectation_z_drive,
    tcl_evolve_state,
    tcl_sinc_integrator,
    toggling_to_rotating,
    x_drive_coherence_rate,
    z_drive_rates,
)
from .spam import (
    MeasurementKey,
    ShotDataset,
    ShotRecord,
    SpamMode,
    SpamParams,
    faulty_state,
    povm_elements,
    povm_probabilities,
    sample_shots,
    spam_corrupted_expectation,
)
from .estimation import (
    EstimationError,
    LinearizationGuardError,
    Method,
    RegressionResult,
    SpectralEstimate,
    estimate_single_axis_standard,
    invert_multi_axis,
    invert_single_axis,
    robust_multi_axis,
    robust_single_axis_linearized,
    robust_single_axis_nonlinear,
    single_axis_forward,
    weighted_linreg,
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
