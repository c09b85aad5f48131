"""URDF parsing, validation diagnostics, and model building."""

import numpy as np
import pytest

import robotdyn as rd
from robotdyn.urdf import (
    Diagnostic,
    UnsupportedFeatureError,
    UrdfError,
    ValidationError,
    build_model,
    load_model,
    parse_urdf,
    validate,
)

MINIMAL = """
<robot name="mini">
  <link name="base"/>
  <link name="arm">
    <inertial>
      <origin xyz="1 0 0"/>
      <mass value="1.0"/>
      <inertia ixx="0" ixy="0" ixz="0" iyy="0" iyz="0" izz="0"/>
    </inertial>
  </link>
  <joint name="j" type="revolute">
    <parent link="base"/>
    <child link="arm"/>
    <axis xyz="0 0 1"/>
    <limit lower="-1" upper="1" effort="10" velocity="1"/>
  </joint>
</robot>
"""


def read_fixture(name):
    with open(rd.fixture_path(name)) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# parse_urdf


def test_parse_minimal_chain():
    desc = parse_urdf(MINIMAL)
    assert desc.name == "mini"
    assert len(desc.links) == 2
    assert len(desc.joints) == 1
    assert desc.joints[0].type == "revolute"
    assert desc.joints[0].parent == "base"
    assert desc.joints[0].child == "arm"


def test_parse_floating_joint_is_unsupported():
    with pytest.raises(UnsupportedFeatureError) as exc:
        parse_urdf(read_fixture("bad_floating"))
    assert "free" in str(exc.value)


def test_parse_mimic_is_unsupported():
    xml = MINIMAL.replace('<axis xyz="0 0 1"/>',
                          '<axis xyz="0 0 1"/><mimic joint="other"/>')
    with pytest.raises(UnsupportedFeatureError) as exc:
        parse_urdf(xml)
    assert "mimic" in str(exc.value)


def test_parse_planar_joint_is_unsupported():
    xml = MINIMAL.replace('type="revolute"', 'type="planar"')
    with pytest.raises(UnsupportedFeatureError):
        parse_urdf(xml)


def test_parse_axis_defaults_to_x():
    xml = MINIMAL.replace('<axis xyz="0 0 1"/>', "")
    desc = parse_urdf(xml)
    np.testing.assert_allclose(desc.joints[0].axis, (1.0, 0.0, 0.0))


def test_parse_axis_is_normalized():
    xml = MINIMAL.replace('xyz="0 0 1"', 'xyz="0 0 2"')
    desc = parse_urdf(xml)
    np.testing.assert_allclose(desc.joints[0].axis, (0.0, 0.0, 1.0))


def test_parse_zero_axis_is_an_error():
    xml = MINIMAL.replace('xyz="0 0 1"', 'xyz="0 0 0"')
    with pytest.raises(UrdfError):
        parse_urdf(xml)


def test_parse_continuous_joint_has_unbounded_limits():
    xml = MINIMAL.replace('type="revolute"', 'type="continuous"').replace(
        '<limit lower="-1" upper="1" effort="10" velocity="1"/>', "")
    desc = parse_urdf(xml)
    assert desc.joints[0].limit_lower == -np.inf
    assert desc.joints[0].limit_upper == np.inf


def test_parse_malformed_xml_reports_line_and_column():
    with pytest.raises(UrdfError) as exc:
        parse_urdf("<robot name='x'><link name='a'></robot>")
    msg = str(exc.value)
    assert "line" in msg and "column" in msg


def test_parse_wrong_root_element():
    with pytest.raises(UrdfError) as exc:
        parse_urdf("<model name='x'/>")
    assert "<model>" in str(exc.value)


def test_parse_duplicate_link_name():
    xml = MINIMAL.replace('<link name="base"/>',
                          '<link name="base"/><link name="arm"/>')
    with pytest.raises(ValidationError):
        parse_urdf(xml)


def test_parse_inertial_without_mass():
    xml = MINIMAL.replace('<mass value="1.0"/>', "")
    with pytest.raises(UrdfError):
        parse_urdf(xml)


def test_parse_bad_origin_triple():
    xml = MINIMAL.replace('xyz="1 0 0"', 'xyz="1 0"')
    with pytest.raises(UrdfError):
        parse_urdf(xml)


def test_parse_dynamics_tag_sets_flag():
    xml = MINIMAL.replace('<axis xyz="0 0 1"/>',
                          '<axis xyz="0 0 1"/><dynamics damping="0.5"/>')
    desc = parse_urdf(xml)
    assert desc.joints[0].has_dynamics_tag


# ---------------------------------------------------------------------------
# validate


def test_validate_clean_chain_has_no_diagnostics():
    assert validate(parse_urdf(MINIMAL)) == []


def test_validate_all_positive_fixtures_have_no_errors():
    for name in ("pendulum", "pendulum_mass2", "two_link_planar",
                 "six_dof_arm"):
        diags = validate(parse_urdf(read_fixture(name)))
        assert [d for d in diags if d.level == "error"] == [], name


def test_validate_two_links_no_joint_is_multiple_roots():
    diags = validate(parse_urdf(
        "<robot name='x'><link name='a'/><link name='b'/></robot>"))
    assert any(d.code == "multiple_roots" for d in diags)


def test_validate_double_root_fixture():
    diags = validate(parse_urdf(read_fixture("bad_double_root")))
    assert any(d.code == "multiple_roots" and d.level == "error"
               for d in diags)


def test_validate_cycle_fixture():
    diags = validate(parse_urdf(read_fixture("bad_cycle")))
    assert any(d.code == "cycle" and d.level == "error" for d in diags)


def test_validate_negative_mass_fixture():
    diags = validate(parse_urdf(read_fixture("bad_negative_mass")))
    assert any(d.code == "nonpositive_mass" and d.level == "error"
               for d in diags)


def test_validate_dangling_link():
    xml = MINIMAL.replace('<parent link="base"/>', '<parent link="ghost"/>')
    diags = validate(parse_urdf(xml))
    assert any(d.code == "dangling_link" for d in diags)


def test_validate_missing_inertial_is_a_warning():
    xml = MINIMAL.replace("<inertial>", "<!--").replace("</inertial>", "-->")
    diags = validate(parse_urdf(xml))
    assert any(d.code == "missing_inertial" and d.level == "warning"
               for d in diags)


def test_validate_indefinite_inertia_is_a_warning():
    diags = validate(parse_urdf(read_fixture("bad_inertia")))
    assert any(d.code == "indefinite_inertia" and d.level == "warning"
               for d in diags)
    assert [d for d in diags if d.level == "error"] == []


def test_validate_missing_limits_warning():
    xml = MINIMAL.replace(
        '<limit lower="-1" upper="1" effort="10" velocity="1"/>', "")
    diags = validate(parse_urdf(xml))
    assert any(d.code == "missing_limits" for d in diags)


def test_validate_dynamics_tag_warning():
    xml = MINIMAL.replace('<axis xyz="0 0 1"/>',
                          '<axis xyz="0 0 1"/><dynamics damping="0.5"/>')
    diags = validate(parse_urdf(xml))
    assert any(d.code == "joint_dynamics_ignored" for d in diags)


NONFINITE_CASES = {
    "mass_nan": ('<mass value="1.0"/>', '<mass value="nan"/>'),
    "mass_inf": ('<mass value="1.0"/>', '<mass value="inf"/>'),
    "inertia_nan": ('ixx="0"', 'ixx="nan"'),
    "inertia_inf": ('izz="0"', 'izz="-inf"'),
    "inertial_origin_nan": ('<origin xyz="1 0 0"/>', '<origin xyz="1 nan 0"/>'),
    "joint_origin_nan": ('<child link="arm"/>',
                         '<child link="arm"/><origin xyz="0 0 nan"/>'),
    "joint_rpy_inf": ('<child link="arm"/>',
                      '<child link="arm"/><origin rpy="inf 0 0"/>'),
    "axis_nan": ('<axis xyz="0 0 1"/>', '<axis xyz="0 nan 1"/>'),
    "axis_inf": ('<axis xyz="0 0 1"/>', '<axis xyz="0 0 inf"/>'),
    "limit_nan": ('lower="-1"', 'lower="nan"'),
    "effort_nan": ('effort="10"', 'effort="nan"'),
}


@pytest.mark.parametrize("case", sorted(NONFINITE_CASES))
def test_validate_rejects_nonfinite_numbers(case):
    old, new = NONFINITE_CASES[case]
    assert old in MINIMAL
    desc = parse_urdf(MINIMAL.replace(old, new))
    errors = [d for d in validate(desc) if d.code == "nonfinite_value"]
    assert len(errors) == 1 and errors[0].level == "error"
    with pytest.raises(ValidationError, match="nonfinite_value"):
        build_model(desc)


def test_validate_allows_infinite_limits():
    xml = MINIMAL.replace('lower="-1" upper="1"', 'lower="-inf" upper="inf"')
    diags = validate(parse_urdf(xml))
    assert [d for d in diags if d.level == "error"] == []


def test_diagnostic_str_includes_level_and_code():
    d = Diagnostic("error", "cycle", "boom")
    assert str(d) == "error[cycle]: boom"


# ---------------------------------------------------------------------------
# build_model


def test_build_minimal_chain_counts():
    model = build_model(parse_urdf(MINIMAL))
    assert model.n == 1
    assert len(model.bodies) == 1  # the fixed base has no body
    assert model.link_names() == ["base", "arm"]


def test_fixed_joint_link_merges_into_parent_body(two_link):
    assert two_link.n == 2
    assert [b.name for b in two_link.bodies] == ["link1", "link2"]
    assert two_link.link_names() == ["base", "link1", "link2", "tool"]
    tool = two_link.link("tool")
    assert tool.body == two_link.body_index("link2")
    # the tool frame sits 1 m along link2's x axis, as the fixed joint says
    q = [0.3, -0.5]
    poses = rd.forward_kinematics(two_link, q)
    want = (np.cos(0.3) + np.cos(-0.2), np.sin(0.3) + np.sin(-0.2), 0.0)
    np.testing.assert_allclose(poses["tool"].position.values(), want, atol=1e-15)
    np.testing.assert_allclose(np.array(poses["tool"].rotation.rows()),
                               np.array(poses["link2"].rotation.rows()), atol=0)


def test_build_rejects_invalid_description():
    with pytest.raises(ValidationError):
        build_model(parse_urdf(read_fixture("bad_double_root")))


def test_build_rejects_missing_inertial_on_movable_link():
    xml = MINIMAL.replace("<inertial>", "<!--").replace("</inertial>", "-->")
    with pytest.raises(ValidationError):
        build_model(parse_urdf(xml))


def test_kinematics_only_build_skips_inertials():
    xml = MINIMAL.replace("<inertial>", "<!--").replace("</inertial>", "-->")
    model = build_model(parse_urdf(xml), kinematics_only=True)
    assert model.kinematics_only
    assert model.n == 1


def test_inertial_fold_in_parallel_axis_oracle(pendulum):
    # Point mass m=1 at c=(1,0,0): origin-referenced I = m(|c|^2 E - c c^T)
    # = diag(0, 1, 1).
    bob = pendulum.bodies[pendulum.body_index("bob")]
    I = pendulum.inertias()[pendulum.body_index("bob")]
    assert bob.name == "bob"
    np.testing.assert_allclose(I.mass, 1.0)
    np.testing.assert_allclose(I.com.values(), [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(np.array(I.rot_inertia.rows()),
                               np.diag([0.0, 1.0, 1.0]), atol=1e-14)


def test_inertial_fold_in_rotates_com_inertia():
    # Inertial frame yawed 90 deg: diag(1,2,3) about the inertial axes becomes
    # diag(2,1,3) about the link axes.
    xml = MINIMAL.replace(
        '<origin xyz="1 0 0"/>',
        '<origin xyz="0 0 0" rpy="0 0 1.5707963267948966"/>').replace(
        'ixx="0" ixy="0" ixz="0" iyy="0" iyz="0" izz="0"',
        'ixx="1" ixy="0" ixz="0" iyy="2" iyz="0" izz="3"')
    model = build_model(parse_urdf(xml))
    I = model.inertias()[model.body_index("arm")]
    np.testing.assert_allclose(np.array(I.rot_inertia.rows()),
                               np.diag([2.0, 1.0, 3.0]), atol=1e-12)


def test_fixed_payload_inertia_folds_into_parent():
    # A 2 kg point payload fixed 0.5 m along the arm's y axis, rotated 90 deg
    # about z, joins the 1 kg point mass at (1, 0, 0): total 3 kg, first
    # moment (1, 1, 0), origin-referenced inertia the sum of both point terms.
    xml = MINIMAL.replace("</robot>", """
  <link name="payload">
    <inertial>
      <origin xyz="0 0 0"/>
      <mass value="2.0"/>
      <inertia ixx="0" ixy="0" ixz="0" iyy="0" iyz="0" izz="0"/>
    </inertial>
  </link>
  <joint name="mount" type="fixed">
    <parent link="arm"/>
    <child link="payload"/>
    <origin xyz="0 0.5 0" rpy="0 0 1.5707963267948966"/>
  </joint>
</robot>""")
    model = build_model(parse_urdf(xml))
    assert model.n == 1 and len(model.bodies) == 1
    assert model.link_names() == ["base", "arm", "payload"]
    I = model.inertias()[0]
    np.testing.assert_allclose(I.mass, 3.0)
    np.testing.assert_allclose(I.com.values(), [1 / 3, 1 / 3, 0.0], atol=1e-15)
    point_arm = np.diag([0.0, 1.0, 1.0])                  # 1 kg at (1, 0, 0)
    point_payload = 2.0 * np.diag([0.25, 0.0, 0.25])      # 2 kg at (0, 0.5, 0)
    np.testing.assert_allclose(np.array(I.rot_inertia.rows()),
                               point_arm + point_payload, atol=1e-15)


def test_dof_assignment_is_topological(six_dof):
    assert [b.joint_name for b in six_dof.bodies] == [f"j{i + 1}" for i in range(6)]


def test_joint_limits_arrays(six_dof):
    lo, hi = six_dof.joint_limits()
    assert lo.shape == (6,) and hi.shape == (6,)
    assert np.all(lo < hi)


def test_body_index_unknown_link_raises(pendulum):
    with pytest.raises(KeyError):
        pendulum.body_index("nope")


def test_load_model_from_path():
    model = load_model(rd.fixture_path("pendulum"))
    assert model.name == "pendulum"
    assert model.n == 1


def test_six_dof_fixture_structure(six_dof):
    assert six_dof.n == 6
    names = six_dof.link_names()
    assert names[0] == "base" and "tool" in names
