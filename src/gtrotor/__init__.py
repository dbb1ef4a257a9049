"""Exact construction of sl3 irreps in the Gelfand-Tsetlin basis and of
SO(3) matrix elements on them, cross-validated three independent ways."""

from .gt_basis import (
    GTPattern,
    HighestWeight,
    InvalidWeight,
    IrrepBasis,
    enumerate_patterns,
    norm_squared,
    shift,
    weyl_dimension,
)
from .linalg import PatternMatrix
from .numerics import (
    ExactOnCircle,
    InvalidFactorialArgument,
    NotOnUnitCircle,
    Radians,
    exact_angle,
    factorial,
    pochhammer,
    rational,
)
from .oracle import (
    NotARotation,
    SignCalibrationFailed,
    calibrate_tau_sign,
    euler_decompose,
    exp_matrix,
    rho_oracle,
)
from .rep import element_matrix, generator_matrix, verify_structure
from .rotations import (
    EulerAngles,
    NotSymmetricRep,
    bispectral_residual,
    hybrid_sigma,
    rho_z,
    sigma_formula,
    sigma_product,
    sigma_symmetric,
    tau,
    tau_inverse,
)
from .specfun import (
    DenominatorPoleBeforeTermination,
    KrawtchoukParams,
    NonTerminating,
    RacahParams,
    check_krawtchouk_orthogonality,
    check_racah_contiguity,
    hyp_terminating,
    krawtchouk,
    racah_tilde,
)

__version__ = "0.1.0"
