"""Shared fixtures: the bundled robot models, loaded once per session."""

import gc

import numpy as np
import pytest

import robotdyn as rd
from robotdyn.tracing import trace_kernel


@pytest.fixture(scope="session")
def pendulum():
    return rd.load_model(rd.fixture_path("pendulum"))


@pytest.fixture(scope="session")
def pendulum_mass2():
    return rd.load_model(rd.fixture_path("pendulum_mass2"))


@pytest.fixture(scope="session")
def two_link():
    return rd.load_model(rd.fixture_path("two_link_planar"))


@pytest.fixture(scope="session")
def six_dof():
    return rd.load_model(rd.fixture_path("six_dof_arm"))


@pytest.fixture(scope="session")
def all_models(pendulum, two_link, six_dof):
    return [pendulum, two_link, six_dof]


def random_state(model, rng, scale=1.0):
    """Random in-limit joint state used across the dynamics tests."""
    lo, hi = model.joint_limits()
    lo = np.where(np.isfinite(lo), np.maximum(lo, -np.pi), -np.pi)
    hi = np.where(np.isfinite(hi), np.minimum(hi, np.pi), np.pi)
    q = rng.uniform(lo, hi)
    qd = rng.uniform(-scale, scale, size=model.n)
    tau = rng.uniform(-scale, scale, size=model.n)
    return q, qd, tau


def cyclic_garbage(fn):
    """Objects the cyclic collector finds after ``fn()`` runs with automatic
    collection off: 0 when reference counting freed everything ``fn`` dropped."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def spy_kernel(f, *sizes):
    """``trace_kernel`` of a wrapper of ``f``, and the list of the argument
    tuples ``f`` received after the trace: the calls the kernel handed to it."""
    calls = []

    def spied(*args):
        calls.append(args)
        return f(*args)

    kernel = trace_kernel(spied, *sizes)
    calls.clear()   # the trace's own call
    return kernel, calls


def urdf_text(name, links, joints):
    """URDF XML for a robot given as plain tuples.

    ``links``: (name, inertial) with inertial None or
    (mass, com_xyz, com_rpy, (ixx, ixy, ixz, iyy, iyz, izz)).
    ``joints``: (name, type, parent, child, xyz, rpy, axis); revolute joints
    get limits of +-3 rad.
    """
    def triple(v):
        return " ".join(repr(float(x)) for x in v)

    out = [f'<robot name="{name}">']
    for link, inertial in links:
        if inertial is None:
            out.append(f'  <link name="{link}"/>')
            continue
        mass, xyz, rpy, (ixx, ixy, ixz, iyy, iyz, izz) = inertial
        out += [f'  <link name="{link}">', "    <inertial>",
                f'      <origin xyz="{triple(xyz)}" rpy="{triple(rpy)}"/>',
                f'      <mass value="{float(mass)!r}"/>',
                f'      <inertia ixx="{ixx!r}" ixy="{ixy!r}" ixz="{ixz!r}" '
                f'iyy="{iyy!r}" iyz="{iyz!r}" izz="{izz!r}"/>',
                "    </inertial>", "  </link>"]
    for joint, jtype, parent, child, xyz, rpy, axis in joints:
        out += [f'  <joint name="{joint}" type="{jtype}">',
                f'    <parent link="{parent}"/>', f'    <child link="{child}"/>',
                f'    <origin xyz="{triple(xyz)}" rpy="{triple(rpy)}"/>',
                f'    <axis xyz="{triple(axis)}"/>']
        if jtype == "revolute":
            out.append('    <limit lower="-3" upper="3" effort="100" velocity="5"/>')
        out.append("  </joint>")
    out.append("</robot>")
    return "\n".join(out)


def heavy_two_link_urdf():
    """A valid two-link arm with 1e160 kg links: the articulated-body sweep
    overflows, and ``aba`` returns NaN instead of raising."""
    inertial = (1e160, (0.25, 0.0, 0.0), (0, 0, 0), (1e158, 0.0, 0.0, 1e158, 0.0, 1e158))
    links = [("base", None), ("l1", inertial), ("l2", inertial)]
    joints = [("j1", "revolute", "base", "l1", (0, 0, 0), (0, 0, 0), (0, 0, 1)),
              ("j2", "revolute", "l1", "l2", (0.5, 0, 0), (0, 0, 0), (0, 0, 1))]
    return urdf_text("heavy", links, joints)
