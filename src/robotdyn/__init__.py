"""Differentiable robot kinematics and dynamics from URDF.

Spatial-vector algorithms (forward kinematics, Jacobians, inverse/forward
dynamics, mass matrix) over a generic differentiable scalar, with
selectively learnable inertial parameters identified from trajectory data.
"""

from importlib import resources

from . import autodiff, dynamics, kinematics, learn, selfcheck, spatial, urdf
from .dynamics import DEFAULT_GRAVITY, DynamicsError, aba, bias_force, \
    forward_dynamics_cholesky, gravity_term, mass_matrix, regressor, rnea, simulate, \
    total_energy
from .kinematics import IKResult, Pose, forward_kinematics, inverse_kinematics, \
    link_jacobian
from .learn import ParamStore, TrajectoryDataset, TrainReport, fit, generate_dataset, \
    inverse_dynamics_loss, make_learnable
from .spatial import ForceVector, Mat33, MotionVector, SpatialInertia, \
    SpatialTransform, Vec3
from .urdf import RobotModel, UrdfError, ValidationError, build_model, load_model, \
    parse_urdf, validate

__version__ = "0.1.0"


def fixture_path(name):
    """Filesystem path of a URDF fixture shipped with the package."""
    if not name.endswith(".urdf"):
        name += ".urdf"
    return str(resources.files(__package__) / "fixtures" / name)
