"""URDF parsing, validation and kinematic-tree construction.

Supported joint types: revolute, continuous, prismatic, fixed.  Visual,
collision, material and gazebo elements are skipped.  floating/planar
joints and mimic elements are rejected loudly.
"""

from __future__ import annotations

import copy
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

from .spatial import Mat33, MotionVector, SpatialInertia, Vec3, axis_basis, \
    parallel_axis_term, xform_from_rpy_xyz


class UrdfError(Exception):
    """Malformed or unparseable URDF input."""


class UnsupportedFeatureError(UrdfError):
    """URDF feature outside the supported subset (floating/planar/mimic)."""


class ValidationError(UrdfError):
    """Structurally invalid robot description."""


SUPPORTED_JOINT_TYPES = ("revolute", "continuous", "prismatic", "fixed")
MOVABLE_JOINT_TYPES = ("revolute", "continuous", "prismatic")


@dataclass
class UrdfInertial:
    mass: float
    origin_xyz: tuple
    origin_rpy: tuple
    # ixx ixy ixz iyy iyz izz, about the inertial-origin frame
    inertia: tuple


@dataclass
class UrdfLink:
    name: str
    inertial: UrdfInertial | None = None


@dataclass
class UrdfJoint:
    name: str
    type: str
    parent: str
    child: str
    origin_xyz: tuple = (0.0, 0.0, 0.0)
    origin_rpy: tuple = (0.0, 0.0, 0.0)
    axis: tuple = (1.0, 0.0, 0.0)
    limit_lower: float | None = None
    limit_upper: float | None = None
    limit_effort: float | None = None
    limit_velocity: float | None = None
    has_dynamics_tag: bool = False


@dataclass
class RobotDescription:
    name: str
    links: list = field(default_factory=list)
    joints: list = field(default_factory=list)


@dataclass
class Diagnostic:
    level: str  # "error" | "warning"
    code: str
    message: str

    def __str__(self):
        return f"{self.level}[{self.code}]: {self.message}"


def _parse_triple(text, what):
    parts = text.split()
    if len(parts) != 3:
        raise UrdfError(f"expected 3 numbers in {what}, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as e:
        raise UrdfError(f"bad number in {what}: {e}") from None


def _parse_origin(elem):
    xyz, rpy = (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)
    origin = elem.find("origin")
    if origin is not None:
        if origin.get("xyz") is not None:
            xyz = _parse_triple(origin.get("xyz"), "origin xyz")
        if origin.get("rpy") is not None:
            rpy = _parse_triple(origin.get("rpy"), "origin rpy")
    return xyz, rpy


def _parse_inertial(elem, link_name):
    mass_el = elem.find("mass")
    if mass_el is None or mass_el.get("value") is None:
        raise UrdfError(f"link '{link_name}': inertial without mass value")
    mass = float(mass_el.get("value"))
    xyz, rpy = _parse_origin(elem)
    inertia_el = elem.find("inertia")
    if inertia_el is None:
        vals = (0.0,) * 6
    else:
        try:
            vals = tuple(float(inertia_el.get(k, "0"))
                         for k in ("ixx", "ixy", "ixz", "iyy", "iyz", "izz"))
        except ValueError as e:
            raise UrdfError(f"link '{link_name}': bad inertia number: {e}") from None
    return UrdfInertial(mass=mass, origin_xyz=xyz, origin_rpy=rpy, inertia=vals)


def parse_urdf(xml_text):
    """Parse URDF XML text into a RobotDescription (no structural checks yet)."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as e:
        line, col = e.position
        raise UrdfError(f"malformed XML at line {line}, column {col}: {e.msg}") from None
    if root.tag != "robot":
        raise UrdfError(f"root element is <{root.tag}>, expected <robot>")
    desc = RobotDescription(name=root.get("name", ""))

    seen_links = set()
    for link_el in root.findall("link"):
        name = link_el.get("name")
        if not name:
            raise UrdfError("link without a name")
        if name in seen_links:
            raise ValidationError(f"duplicate link name '{name}'")
        seen_links.add(name)
        inertial_el = link_el.find("inertial")
        inertial = _parse_inertial(inertial_el, name) if inertial_el is not None else None
        desc.links.append(UrdfLink(name=name, inertial=inertial))

    seen_joints = set()
    for joint_el in root.findall("joint"):
        name = joint_el.get("name")
        if not name:
            raise UrdfError("joint without a name")
        if name in seen_joints:
            raise ValidationError(f"duplicate joint name '{name}'")
        seen_joints.add(name)
        jtype = joint_el.get("type")
        if jtype not in SUPPORTED_JOINT_TYPES:
            raise UnsupportedFeatureError(
                f"joint '{name}': unsupported joint type '{jtype}'")
        if joint_el.find("mimic") is not None:
            raise UnsupportedFeatureError(f"joint '{name}': mimic is not supported")
        parent_el = joint_el.find("parent")
        child_el = joint_el.find("child")
        if parent_el is None or child_el is None:
            raise UrdfError(f"joint '{name}': missing parent or child element")
        xyz, rpy = _parse_origin(joint_el)
        axis = (1.0, 0.0, 0.0)
        axis_el = joint_el.find("axis")
        if axis_el is not None and axis_el.get("xyz") is not None:
            axis = _parse_triple(axis_el.get("xyz"), f"joint '{name}' axis")
            norm = math.sqrt(sum(a * a for a in axis))
            if norm < 1e-12:
                raise UrdfError(f"joint '{name}': zero-length axis")
            if all(map(math.isfinite, axis)):  # validate reports a non-finite one
                axis = tuple(a / norm for a in axis)
        joint = UrdfJoint(name=name, type=jtype,
                          parent=parent_el.get("link"), child=child_el.get("link"),
                          origin_xyz=xyz, origin_rpy=rpy, axis=axis,
                          has_dynamics_tag=joint_el.find("dynamics") is not None)
        limit_el = joint_el.find("limit")
        if limit_el is not None:
            for attr, fld in (("lower", "limit_lower"), ("upper", "limit_upper"),
                              ("effort", "limit_effort"), ("velocity", "limit_velocity")):
                if limit_el.get(attr) is not None:
                    setattr(joint, fld, float(limit_el.get(attr)))
        if jtype == "continuous":
            joint.limit_lower, joint.limit_upper = -math.inf, math.inf
        desc.joints.append(joint)

    return desc


def _nonfinite_values(desc):
    """NaN anywhere, or +-inf anywhere but a joint limit (where it means unbounded)."""
    diags = []

    def check(owner, what, values, inf_ok=False):
        bad = [v for v in values
               if v is not None and (math.isnan(v) or (math.isinf(v) and not inf_ok))]
        if bad:
            diags.append(Diagnostic("error", "nonfinite_value",
                                    f"{owner}: {what} value {bad[0]} is not finite"))

    for link in desc.links:
        inertial = link.inertial
        if inertial is not None:
            owner = f"link '{link.name}'"
            check(owner, "mass", (inertial.mass,))
            check(owner, "inertia", inertial.inertia)
            check(owner, "inertial origin", inertial.origin_xyz + inertial.origin_rpy)
    for j in desc.joints:
        owner = f"joint '{j.name}'"
        check(owner, "origin", j.origin_xyz + j.origin_rpy)
        check(owner, "axis", j.axis)
        check(owner, "limit", (j.limit_lower, j.limit_upper, j.limit_effort,
                               j.limit_velocity), inf_ok=True)
    return diags


def validate(desc):
    """Structural diagnostics for a RobotDescription (errors and warnings)."""
    diags = _nonfinite_values(desc)
    link_names = [l.name for l in desc.links]
    link_set = set(link_names)
    children = {}
    for j in desc.joints:
        for end, link in (("parent", j.parent), ("child", j.child)):
            if link not in link_set:
                diags.append(Diagnostic("error", "dangling_link",
                                        f"joint '{j.name}' {end} link '{link}' is not defined"))
        if j.child in children:
            diags.append(Diagnostic("error", "cycle",
                                    f"link '{j.child}' has multiple parent joints "
                                    f"('{children[j.child]}' and '{j.name}'): not a tree"))
        else:
            children[j.child] = j.name

    child_set = set(children)
    roots = [n for n in link_names if n not in child_set]
    if not link_names:
        diags.append(Diagnostic("error", "cycle", "no links defined"))
    elif not roots:
        diags.append(Diagnostic("error", "cycle",
                                "no root link: every link is some joint's child (cycle)"))
    elif len(roots) > 1:
        diags.append(Diagnostic("error", "multiple_roots",
                                "multiple roots: " + ", ".join(roots)))
    else:
        # reachability from the single root; unreached links sit on a cycle
        # or behind a dangling reference
        parent_of = {j.child: j.parent for j in desc.joints}
        reached = set()
        for name in link_names:
            trail = []
            n = name
            while n is not None and n not in reached and n not in trail:
                trail.append(n)
                n = parent_of.get(n)
            if n in trail:
                diags.append(Diagnostic("error", "cycle",
                                        f"cycle through link '{n}'"))
                break
            reached.update(trail)

    movable_children = {j.child for j in desc.joints if j.type in MOVABLE_JOINT_TYPES}
    for link in desc.links:
        if link.inertial is not None and link.inertial.mass <= 0.0:
            diags.append(Diagnostic("error", "nonpositive_mass",
                                    f"link '{link.name}': mass {link.inertial.mass} is not positive"))
        if link.inertial is None and link.name in movable_children:
            diags.append(Diagnostic("warning", "missing_inertial",
                                    f"link '{link.name}' is moved by a joint but has no inertial"))
        if link.inertial is not None and all(map(math.isfinite, link.inertial.inertia)):
            ixx, ixy, ixz, iyy, iyz, izz = link.inertial.inertia
            eig = np.linalg.eigvalsh(np.array([[ixx, ixy, ixz],
                                               [ixy, iyy, iyz],
                                               [ixz, iyz, izz]]))
            if eig[0] < -1e-12:
                diags.append(Diagnostic("warning", "indefinite_inertia",
                                        f"link '{link.name}': CoM inertia has negative "
                                        f"eigenvalue {eig[0]:.3g}"))

    for j in desc.joints:
        if j.type == "revolute" and (j.limit_lower is None or j.limit_upper is None):
            diags.append(Diagnostic("warning", "missing_limits",
                                    f"revolute joint '{j.name}' has no position limits"))
        if j.has_dynamics_tag:
            diags.append(Diagnostic("warning", "joint_dynamics_ignored",
                                    f"joint '{j.name}': damping/friction are parsed but ignored"))
    return diags


class Body:
    """One moving rigid body: the links behind one movable joint, up to the
    next movable joints.  Body ``i`` carries joint coordinate ``i``.  The joint
    axis's ``basis`` (K and K²) and whether the origin rotation is exactly E
    are fixed at build."""

    __slots__ = ("name", "parent", "joint_name", "joint_type", "axis", "basis",
                 "subspace", "origin", "origin_is_identity", "inertia", "limit_lower",
                 "limit_upper")

    def __init__(self, name, parent, joint, origin, inertia):
        self.name = name
        self.parent = parent
        self.joint_name = joint.name
        self.joint_type = joint.type
        self.axis = Vec3.fromlist(joint.axis)
        self.basis = axis_basis(self.axis)
        # joint motion subspace in body coordinates
        if joint.type == "prismatic":
            self.subspace = MotionVector(Vec3.zero(), self.axis)
        else:
            self.subspace = MotionVector(self.axis, Vec3.zero())
        self.origin = origin
        self.origin_is_identity = origin.rot.rows() == Mat33.identity().rows()
        self.inertia = inertia
        self.limit_lower = joint.limit_lower
        self.limit_upper = joint.limit_upper


@dataclass
class Link:
    """A URDF link frame: the body it moves with (-1 for the fixed base) and,
    behind fixed joints, its constant pose ``offset`` in that body's frame
    (None: the link frame is the body's own frame, or the base frame)."""
    name: str
    body: int
    offset: object


class RobotModel:
    """Immutable kinematic tree in topological (parent-before-child) order."""

    def __init__(self, name, bodies, links, kinematics_only):
        self.name = name
        self.bodies = bodies
        self.links = links
        self.kinematics_only = kinematics_only
        self.n = len(bodies)
        self._link_by_name = {l.name: l for l in links}
        self._ik_kernels = {}  # link name -> IK kernel derived from the tree

    def link(self, link_name):
        try:
            return self._link_by_name[link_name]
        except KeyError:
            raise KeyError(f"unknown link '{link_name}'") from None

    def body_index(self, link_name):
        """Index of the body whose frame is the frame of ``link_name``."""
        link = self.link(link_name)
        if link.offset is None and link.body >= 0:
            return link.body
        owner = f"body '{self.bodies[link.body].name}'" if link.body >= 0 \
            else "the fixed base"
        raise ValueError(f"link '{link_name}' has no body of its own: it moves "
                         f"with {owner}, which carries its inertia")

    def link_names(self):
        return [l.name for l in self.links]

    def joint_limits(self):
        """(lower, upper) arrays of length n; missing limits become +-inf."""
        lo = [-np.inf if b.limit_lower is None else b.limit_lower for b in self.bodies]
        hi = [np.inf if b.limit_upper is None else b.limit_upper for b in self.bodies]
        return np.array(lo, dtype=float), np.array(hi, dtype=float)

    def inertias(self):
        """Per-body SpatialInertia list (zero for bodies without inertial data)."""
        return [b.inertia if b.inertia is not None else SpatialInertia.zero()
                for b in self.bodies]

    def with_inertias(self, inertias):
        """A new model of the same tree whose body ``i`` carries ``inertias[i]``
        (of floats, numpy batches, ``Dual`` or ``Var``); this model is unchanged."""
        if len(inertias) != self.n:
            raise ValueError(f"inertias must have length {self.n}, got {len(inertias)}")
        bodies = [copy.copy(b) for b in self.bodies]
        for body, inertia in zip(bodies, inertias):
            body.inertia = inertia
        return RobotModel(self.name, bodies, self.links, self.kinematics_only)


def _fold_inertial(inertial):
    """URDF inertial (about the inertial-origin frame) -> origin-referenced inertia."""
    ixx, ixy, ixz, iyy, iyz, izz = inertial.inertia
    i_com = Mat33(ixx, ixy, ixz, ixy, iyy, iyz, ixz, iyz, izz)
    X = xform_from_rpy_xyz(Vec3.fromlist(inertial.origin_rpy),
                           Vec3.fromlist(inertial.origin_xyz))
    com = X.trans
    i_origin = i_com.rotate_sym(X.rot) + parallel_axis_term(inertial.mass, com)
    return SpatialInertia(inertial.mass, com, i_origin)


def build_model(desc, kinematics_only=False):
    """Build the kinematic tree; raises ValidationError on structural errors.

    Each movable joint gets one body, in depth-first order.  A link behind a
    fixed joint gets none: it moves with the body above it (or the fixed
    base, whose mass never moves and is dropped) and its inertia is merged
    into that body's.  With ``kinematics_only`` a movable link may lack
    inertial data (its inertia is stored as None and dynamics are refused).
    """
    errors = [d for d in validate(desc) if d.level == "error"]
    if errors:
        raise ValidationError("; ".join(str(d) for d in errors))

    urdf_links = {l.name: l for l in desc.links}
    joint_by_child = {j.child: j for j in desc.joints}
    root = next(n for n in urdf_links if n not in joint_by_child)

    children = {}
    for j in desc.joints:
        children.setdefault(j.parent, []).append(j)

    # depth-first, each joint's subtree before its next sibling: (joint, body
    # the joint's parent link moves with, offset of that link in the body)
    bodies, links = [], [Link(root, -1, None)]
    stack = [(j, -1, None) for j in reversed(children.get(root, []))]
    while stack:
        joint, body, offset = stack.pop()
        X = xform_from_rpy_xyz(Vec3.fromlist(joint.origin_rpy), Vec3.fromlist(joint.origin_xyz))
        if offset is not None:
            X = offset.compose(X)
        inertial = urdf_links[joint.child].inertial
        if joint.type == "fixed":
            if inertial is not None and body >= 0 and bodies[body].inertia is not None:
                bodies[body].inertia = bodies[body].inertia \
                    + _fold_inertial(inertial).transform(X)
            offset = X
        else:
            if inertial is not None:
                inertia = _fold_inertial(inertial)
            elif kinematics_only:
                inertia = None
            else:
                raise ValidationError(
                    f"link '{joint.child}' is moved by joint '{joint.name}' but has "
                    f"no inertial data; build with kinematics_only=True for FK-only use")
            bodies.append(Body(joint.child, body, joint, X, inertia))
            body, offset = len(bodies) - 1, None
        links.append(Link(joint.child, body, offset))
        stack.extend((j, body, offset) for j in reversed(children.get(joint.child, [])))
    return RobotModel(desc.name, bodies, links, kinematics_only)


def load_model(path, kinematics_only=False):
    """Parse, validate and build a model from a URDF file path."""
    with open(path, "r", encoding="utf-8") as fh:
        desc = parse_urdf(fh.read())
    return build_model(desc, kinematics_only=kinematics_only)
