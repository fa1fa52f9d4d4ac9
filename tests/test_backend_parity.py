"""The compiled and pure IoU kernels must agree to floating-point noise,
and each must keep IoU unchanged under a rigid motion of both boxes.

When the compiled kernel is not installed, _native.c is built once per
session into a pytest temp directory, with warnings as errors, and loaded
from there by file path; nothing is built into the source tree. The
module skips only when no C compiler or no Python headers are available.
The last two tests check how the kernel is chosen: the pure one whenever
_native does not import, and a failed optional build still exits 0.
"""

import importlib.util
import math
import os
import shutil
import subprocess
import sys
import sysconfig

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopmot import geometry
from coopmot.geometry import _pure
from helpers import rand_box7
from iou_oracle import iou3d_pair
from test_cli import subprocess_env


def _build_native(build_dir):
    """Compile _native.c into build_dir, warning-free, and load it."""
    compiler = shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0])
    include = sysconfig.get_paths()["include"]
    if compiler is None or not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("no C compiler or Python headers to build the compiled kernel")
    source = os.path.join(os.path.dirname(_pure.__file__), "_native.c")
    target = os.path.join(build_dir, "_native" + sysconfig.get_config_var("EXT_SUFFIX"))
    build = subprocess.run([compiler, "-shared", "-fPIC", "-O2",
                            "-Wall", "-Wextra", "-Werror", "-I", include,
                            "-I", np.get_include(), source, "-o", target],
                           capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    spec = importlib.util.spec_from_file_location("coopmot.geometry._native", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def native(tmp_path_factory):
    try:
        from coopmot.geometry import _native
    except ImportError:
        return _build_native(str(tmp_path_factory.mktemp("native")))
    return _native


def pair(kernel, a, b):
    """A kernel's IoU of two boxes, as its 1 x 1 iou3d_matrix."""
    return kernel.iou3d_matrix(a[None], b[None])[0, 0]


def test_pair_parity(native, rng):
    for _ in range(2000):
        a = rand_box7(rng, center_scale=3.0)
        b = rand_box7(rng, center_scale=3.0)
        assert abs(pair(native, a, b) - iou3d_pair(a, b)) < 1e-12


def test_matrix_parity(native, rng):
    rows = np.stack([rand_box7(rng, center_scale=5.0) for _ in range(25)])
    cols = np.stack([rand_box7(rng, center_scale=5.0) for _ in range(30)])
    assert np.max(np.abs(native.iou3d_matrix(rows, cols)
                         - _pure.iou3d_matrix(rows, cols))) < 1e-12


def test_sparse_matrix_parity(native, rng):
    # boxes spread over 100 m, as in dense scenes, where the pure kernel's
    # gate rejects almost every pair; the first ten columns are jittered
    # copies of rows so that some pairs do overlap
    rows = np.stack([rand_box7(rng, center_scale=50.0) for _ in range(60)])
    cols = np.stack([rand_box7(rng, center_scale=50.0) for _ in range(60)])
    cols[:10] = rows[:10] + rng.normal(0.0, 0.5, (10, 7)) * [1, 1, 0, 1, 0, 0, 0]
    expected = native.iou3d_matrix(rows, cols)
    assert np.count_nonzero(expected) >= 10
    assert np.max(np.abs(expected - _pure.iou3d_matrix(rows, cols))) < 1e-12


def test_exact_cases_on_both_backends(native):
    a = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    b = np.array([0.5, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    for kernel in (native, _pure):
        assert pair(kernel, a, a) == 1.0
        assert abs(pair(kernel, a, b) - 1.0 / 3.0) < 1e-12
        assert pair(kernel, a, a + np.array([0, 0, 10, 0, 0, 0, 0.0])) == 0.0


@pytest.mark.parametrize("shape", [(2, 14), (3, 6)])
def test_native_rejects_non_box_arrays(native, shape):
    """Only (N, 7) arrays are boxes; nothing is reshaped into them."""
    boxes = np.zeros(shape)
    with pytest.raises(ValueError):
        native.iou3d_matrix(boxes, np.zeros((1, 7)))
    with pytest.raises(ValueError):
        native.iou3d_matrix(np.zeros((1, 7)), boxes)


@pytest.fixture(scope="session")
def kernels(native):
    return {"native": native, "pure": _pure}


# the ranges of helpers.rand_box7: centres within 2 m, extents 0.5 to 4 m
_box = st.tuples(*[st.floats(-2.0, 2.0)] * 3, st.floats(-math.pi, math.pi),
                 *[st.floats(0.5, 4.0)] * 3).map(np.array)


@pytest.mark.parametrize("backend", ["native", "pure"])
@settings(max_examples=100, deadline=None)
@given(a=_box, b=_box, yaw=st.floats(-math.pi, math.pi),
       tx=st.floats(-50.0, 50.0), ty=st.floats(-50.0, 50.0))
def test_rigid_motion_invariance(kernels, backend, a, b, yaw, tx, ty):
    """IoU is unchanged when both boxes get the same planar rigid motion."""
    kernel = kernels[backend]
    c, s = math.cos(yaw), math.sin(yaw)

    def moved(v):
        out = v.copy()
        out[0] = c * v[0] - s * v[1] + tx
        out[1] = s * v[0] + c * v[1] + ty
        out[3] = v[3] + yaw
        return out

    assert abs(pair(kernel, moved(a), moved(b)) - pair(kernel, a, b)) < 1e-9


def test_pure_kernel_when_native_does_not_import():
    """Whether _native imports alone decides the kernel: with the import
    blocked, geometry uses _pure even where a compiled module is built."""
    code = ("import sys\n"
            "sys.modules['coopmot.geometry._native'] = None\n"
            "import numpy as np\n"
            "from coopmot import geometry\n"
            "from coopmot.geometry import _pure\n"
            "rng = np.random.default_rng(0)\n"
            "rows = rng.uniform(0.5, 2.0, (4, 7))\n"
            "cols = rows[:3] + rng.normal(0.0, 0.3, (3, 7)) * [1, 1, 0, 1, 0, 0, 0]\n"
            "print(geometry.BACKEND)\n"
            "print(np.array_equal(geometry.iou_matrix(rows, cols),\n"
            "                     _pure.iou3d_matrix(rows, cols)))\n")
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["pure", "True"]


def test_failed_optional_build_exits_0(tmp_path):
    """setup.py build_ext without a working compiler warns and succeeds,
    and leaves no compiled module behind."""
    pytest.importorskip("setuptools")
    if not os.path.exists("/bin/false"):
        pytest.skip("no /bin/false to stand in for a failing compiler")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(os.path.join(repo, name), tmp_path)
    shutil.copytree(os.path.join(repo, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    out = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                         env={**os.environ, "CC": "/bin/false"}, cwd=tmp_path,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert 'building extension "coopmot.geometry._native" failed' in out.stdout + out.stderr
    assert not list((tmp_path / "src").rglob("_native*.so"))
