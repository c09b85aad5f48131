"""Spatial (6-D) vector algebra: motion/force vectors, transforms, inertias.

Conventions used throughout the package:

* 6-D ordering is (angular, linear) for motion vectors and (torque, force)
  for force vectors, following Featherstone.
* ``SpatialTransform`` stores the pose of a child frame expressed in its
  parent frame (rotation = child axes in parent coordinates, translation =
  child origin in parent coordinates).  ``apply_motion``/``apply_force``
  map quantities expressed in the child frame to the parent frame; the
  ``*_inv`` variants map the other way.
* Rotational inertia is referenced to the body-frame origin, not the
  centre of mass.

Everything is built from explicit 3-vector / 3x3 block operations over a
generic scalar: plain floats, numpy arrays and the autodiff scalars all
work.  6x6 matrices are only ever materialized in test oracles.
"""

from __future__ import annotations

from . import autodiff as ad


class Vec3:
    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        self.x = x
        self.y = y
        self.z = z

    @staticmethod
    def zero():
        return Vec3(0.0, 0.0, 0.0)

    def __add__(self, o):
        return Vec3(self.x + o.x, self.y + o.y, self.z + o.z)

    def __sub__(self, o):
        return Vec3(self.x - o.x, self.y - o.y, self.z - o.z)

    def __neg__(self):
        return Vec3(-self.x, -self.y, -self.z)

    def scale(self, s):
        return Vec3(self.x * s, self.y * s, self.z * s)

    def dot(self, o):
        return self.x * o.x + self.y * o.y + self.z * o.z

    def cross(self, o):
        return Vec3(self.y * o.z - self.z * o.y,
                    self.z * o.x - self.x * o.z,
                    self.x * o.y - self.y * o.x)

    def norm_sq(self):
        return self.dot(self)

    def norm(self):
        return ad.sqrt(self.dot(self))

    def values(self):
        return [ad.value(self.x), ad.value(self.y), ad.value(self.z)]

    def tolist(self):
        return [self.x, self.y, self.z]

    @staticmethod
    def fromlist(v):
        return Vec3(v[0], v[1], v[2])

    def __repr__(self):
        return f"Vec3({self.x}, {self.y}, {self.z})"


class Mat33:
    """Row-major 3x3 matrix over a generic scalar."""

    __slots__ = ("a", "b", "c", "d", "e", "f", "g", "h", "i")

    def __init__(self, a, b, c, d, e, f, g, h, i):
        self.a, self.b, self.c = a, b, c
        self.d, self.e, self.f = d, e, f
        self.g, self.h, self.i = g, h, i

    @staticmethod
    def identity():
        return Mat33(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)

    @staticmethod
    def zero():
        return Mat33(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @staticmethod
    def skew(v):
        """Cross-product matrix: skew(v) @ u == v x u."""
        return Mat33(0.0, -v.z, v.y,
                     v.z, 0.0, -v.x,
                     -v.y, v.x, 0.0)

    @staticmethod
    def outer(u, v):
        return Mat33(u.x * v.x, u.x * v.y, u.x * v.z,
                     u.y * v.x, u.y * v.y, u.y * v.z,
                     u.z * v.x, u.z * v.y, u.z * v.z)

    @staticmethod
    def diag(x, y, z):
        return Mat33(x, 0.0, 0.0, 0.0, y, 0.0, 0.0, 0.0, z)

    def T(self):
        return Mat33(self.a, self.d, self.g,
                     self.b, self.e, self.h,
                     self.c, self.f, self.i)

    def __add__(self, o):
        return Mat33(self.a + o.a, self.b + o.b, self.c + o.c,
                     self.d + o.d, self.e + o.e, self.f + o.f,
                     self.g + o.g, self.h + o.h, self.i + o.i)

    def __sub__(self, o):
        return Mat33(self.a - o.a, self.b - o.b, self.c - o.c,
                     self.d - o.d, self.e - o.e, self.f - o.f,
                     self.g - o.g, self.h - o.h, self.i - o.i)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, s):
        return Mat33(self.a * s, self.b * s, self.c * s,
                     self.d * s, self.e * s, self.f * s,
                     self.g * s, self.h * s, self.i * s)

    def matvec(self, v):
        return Vec3(self.a * v.x + self.b * v.y + self.c * v.z,
                    self.d * v.x + self.e * v.y + self.f * v.z,
                    self.g * v.x + self.h * v.y + self.i * v.z)

    def tmatvec(self, v):
        """self^T @ v, without building the transpose."""
        return Vec3(self.a * v.x + self.d * v.y + self.g * v.z,
                    self.b * v.x + self.e * v.y + self.h * v.z,
                    self.c * v.x + self.f * v.y + self.i * v.z)

    def matmat(self, o):
        return Mat33(
            self.a * o.a + self.b * o.d + self.c * o.g,
            self.a * o.b + self.b * o.e + self.c * o.h,
            self.a * o.c + self.b * o.f + self.c * o.i,
            self.d * o.a + self.e * o.d + self.f * o.g,
            self.d * o.b + self.e * o.e + self.f * o.h,
            self.d * o.c + self.e * o.f + self.f * o.i,
            self.g * o.a + self.h * o.d + self.i * o.g,
            self.g * o.b + self.h * o.e + self.i * o.h,
            self.g * o.c + self.h * o.f + self.i * o.i)

    def rotate_sym(self, R):
        """R @ self @ R^T (congruence by a rotation)."""
        return R.matmat(self).matmat(R.T())

    def trace(self):
        return self.a + self.e + self.i

    def rows(self):
        return [[self.a, self.b, self.c],
                [self.d, self.e, self.f],
                [self.g, self.h, self.i]]

    def values(self):
        return [[ad.value(x) for x in row] for row in self.rows()]

    @staticmethod
    def fromrows(rows):
        return Mat33(rows[0][0], rows[0][1], rows[0][2],
                     rows[1][0], rows[1][1], rows[1][2],
                     rows[2][0], rows[2][1], rows[2][2])

    def __repr__(self):
        return f"Mat33({self.rows()})"


def rot_x(t):
    c, s = ad.cos(t), ad.sin(t)
    return Mat33(1.0, 0.0, 0.0, 0.0, c, -s, 0.0, s, c)


def rot_y(t):
    c, s = ad.cos(t), ad.sin(t)
    return Mat33(c, 0.0, s, 0.0, 1.0, 0.0, -s, 0.0, c)


def rot_z(t):
    c, s = ad.cos(t), ad.sin(t)
    return Mat33(c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0)


def rot_axis_angle(axis, t):
    """Rodrigues rotation about a unit axis by angle t: E + sin(t) K + (1 - cos(t)) K^2
    with K = skew(axis); each entry is summed in that order, and K^2 as
    ``Mat33.matmat`` sums it."""
    a, b, c, d, e, f, g, h, i = 0.0, -axis.z, axis.y, axis.z, 0.0, -axis.x, -axis.y, \
        axis.x, 0.0
    s, c1 = ad.sin(t), 1.0 - ad.cos(t)
    return Mat33(1.0 + a * s + (a * a + b * d + c * g) * c1,
                 0.0 + b * s + (a * b + b * e + c * h) * c1,
                 0.0 + c * s + (a * c + b * f + c * i) * c1,
                 0.0 + d * s + (d * a + e * d + f * g) * c1,
                 1.0 + e * s + (d * b + e * e + f * h) * c1,
                 0.0 + f * s + (d * c + e * f + f * i) * c1,
                 0.0 + g * s + (g * a + h * d + i * g) * c1,
                 0.0 + h * s + (g * b + h * e + i * h) * c1,
                 1.0 + i * s + (g * c + h * f + i * i) * c1)


class MotionVector:
    """Spatial velocity/acceleration: (angular, linear)."""

    __slots__ = ("ang", "lin")

    def __init__(self, ang, lin):
        self.ang = ang
        self.lin = lin

    @staticmethod
    def zero():
        return MotionVector(Vec3.zero(), Vec3.zero())

    def __add__(self, o):
        return MotionVector(self.ang + o.ang, self.lin + o.lin)

    def __sub__(self, o):
        return MotionVector(self.ang - o.ang, self.lin - o.lin)

    def __neg__(self):
        return MotionVector(-self.ang, -self.lin)

    def scale(self, s):
        return MotionVector(self.ang.scale(s), self.lin.scale(s))

    def dot(self, f):
        """Power pairing with a force vector: w . tau + v . F."""
        return self.ang.dot(f.ang) + self.lin.dot(f.lin)

    def tolist(self):
        return self.ang.tolist() + self.lin.tolist()

    def __repr__(self):
        return f"MotionVector({self.ang}, {self.lin})"


class ForceVector:
    """Spatial force: (torque, force)."""

    __slots__ = ("ang", "lin")

    def __init__(self, ang, lin):
        self.ang = ang
        self.lin = lin

    @staticmethod
    def zero():
        return ForceVector(Vec3.zero(), Vec3.zero())

    def __add__(self, o):
        return ForceVector(self.ang + o.ang, self.lin + o.lin)

    def __sub__(self, o):
        return ForceVector(self.ang - o.ang, self.lin - o.lin)

    def __neg__(self):
        return ForceVector(-self.ang, -self.lin)

    def scale(self, s):
        return ForceVector(self.ang.scale(s), self.lin.scale(s))

    def tolist(self):
        return self.ang.tolist() + self.lin.tolist()

    def __repr__(self):
        return f"ForceVector({self.ang}, {self.lin})"


class SpatialTransform:
    """Pose of a child frame in its parent frame: x_parent = R x_child + t."""

    __slots__ = ("rot", "trans")

    def __init__(self, rot, trans):
        self.rot = rot
        self.trans = trans

    @staticmethod
    def identity():
        return SpatialTransform(Mat33.identity(), Vec3.zero())

    def compose(self, inner):
        """Apply ``inner`` first, then ``self``."""
        return SpatialTransform(self.rot.matmat(inner.rot),
                                self.rot.matvec(inner.trans) + self.trans)

    def inverse(self):
        rt = self.rot.T()
        return SpatialTransform(rt, -rt.matvec(self.trans))

    def apply_point(self, p):
        return self.rot.matvec(p) + self.trans

    def apply_motion(self, v):
        """Re-express a child-frame motion vector in the parent frame."""
        w = self.rot.matvec(v.ang)
        return MotionVector(w, self.rot.matvec(v.lin) + self.trans.cross(w))

    def apply_motion_inv(self, v):
        """Re-express a parent-frame motion vector in the child frame."""
        R = self.rot
        return MotionVector(R.tmatvec(v.ang), R.tmatvec(v.lin - self.trans.cross(v.ang)))

    def apply_force(self, f):
        """Re-express a child-frame force vector in the parent frame."""
        F = self.rot.matvec(f.lin)
        return ForceVector(self.rot.matvec(f.ang) + self.trans.cross(F), F)

    def apply_force_inv(self, f):
        R = self.rot
        return ForceVector(R.tmatvec(f.ang - self.trans.cross(f.lin)), R.tmatvec(f.lin))

    def __repr__(self):
        return f"SpatialTransform({self.rot}, {self.trans})"


class SpatialInertia:
    """Rigid-body inertia: mass, CoM and rotational inertia about the origin."""

    __slots__ = ("mass", "com", "rot_inertia")

    def __init__(self, mass, com, rot_inertia):
        self.mass = mass
        self.com = com
        self.rot_inertia = rot_inertia

    @staticmethod
    def zero():
        return SpatialInertia(0.0, Vec3.zero(), Mat33.zero())

    def times_motion(self, v):
        """Momentum-type force vector of the 6x6 origin-referenced inertia."""
        h = self.com.scale(self.mass)  # first mass moment
        tau = self.rot_inertia.matvec(v.ang) + h.cross(v.lin)
        F = v.lin.scale(self.mass) + v.ang.cross(h)
        return ForceVector(tau, F)

    def transform(self, X):
        """Re-express in the parent frame of ``X`` (child -> parent)."""
        R = X.rot
        com_p = X.apply_point(self.com)
        i_com = self.rot_inertia - parallel_axis_term(self.mass, self.com)
        i_p = i_com.rotate_sym(R) + parallel_axis_term(self.mass, com_p)
        return SpatialInertia(self.mass, com_p, i_p)

    def __add__(self, o):
        """Two rigidly joined bodies in one frame (total mass must be positive)."""
        mass = self.mass + o.mass
        h = self.com.scale(self.mass) + o.com.scale(o.mass)
        return SpatialInertia(mass, h.scale(1.0 / mass), self.rot_inertia + o.rot_inertia)

    def kinetic_energy(self, v):
        return 0.5 * v.dot(self.times_motion(v))

    def __repr__(self):
        return f"SpatialInertia(mass={self.mass}, com={self.com}, I={self.rot_inertia})"


def parallel_axis_term(mass, c):
    """m (|c|^2 E - c c^T): shift of a rotational inertia away from the CoM."""
    return (Mat33.identity().scale(c.norm_sq()) - Mat33.outer(c, c)).scale(mass)


def xform_from_rpy_xyz(rpy, xyz):
    """URDF origin convention: R = Rz(yaw) Ry(pitch) Rx(roll), then translate."""
    R = rot_z(rpy.z).matmat(rot_y(rpy.y)).matmat(rot_x(rpy.x))
    return SpatialTransform(R, xyz)


def cross_motion(v, m):
    """Spatial cross product of two motion vectors."""
    return MotionVector(v.ang.cross(m.ang),
                        v.ang.cross(m.lin) + v.lin.cross(m.ang))


def cross_force(v, f):
    """Spatial cross product of a motion vector with a force vector."""
    return ForceVector(v.ang.cross(f.ang) + v.lin.cross(f.lin),
                       v.ang.cross(f.lin))
