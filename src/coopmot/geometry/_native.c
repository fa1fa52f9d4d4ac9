/* Compiled oriented-box IoU kernel.
 *
 * Mirrors coopmot.geometry._pure formula for formula and in the same
 * operation order; the parity tests hold both kernels to ~1e-12 agreement.
 * This kernel runs the z and circle rejections on every pair, while the
 * pure one sweeps only the candidates of an x-sorted window; the
 * operations on each pair that is tested are identical.
 * Boxes are 7-vectors [x y z theta h w l]. Clipping a convex quad by a
 * convex quad yields at most 8 vertices, so fixed 16-slot buffers suffice.
 *
 * Build: python3 setup.py build_ext --inplace
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#include <math.h>

#define MAXV 16

static const double AREA_EPS = 1e-12;

static void corners(const double *b, double *cx, double *cy)
{
    double c = cos(b[3]), s = sin(b[3]);
    double hl = 0.5 * b[6], hw = 0.5 * b[5];
    const double lx[4] = {hl, -hl, -hl, hl};
    const double ly[4] = {hw, hw, -hw, -hw};
    for (int k = 0; k < 4; k++) {
        cx[k] = c * lx[k] - s * ly[k] + b[0];
        cy[k] = s * lx[k] + c * ly[k] + b[1];
    }
}

static double shoelace(const double *px, const double *py, int n)
{
    double acc = 0.0, x1 = px[n - 1], y1 = py[n - 1];
    for (int k = 0; k < n; k++) {
        acc += x1 * py[k] - px[k] * y1;
        x1 = px[k];
        y1 = py[k];
    }
    return 0.5 * fabs(acc);
}

/* Area of the intersection of two convex CCW quads (Sutherland-Hodgman). */
static double clip_area(const double *ax, const double *ay,
                        const double *bx, const double *by)
{
    double px_[MAXV], py_[MAXV], qx_[MAXV], qy_[MAXV];
    double *inx = px_, *iny = py_, *outx = qx_, *outy = qy_, *tmp;
    int n_in = 4;
    for (int k = 0; k < 4; k++) {
        inx[k] = ax[k];
        iny[k] = ay[k];
    }
    double cx1 = bx[3], cy1 = by[3];
    for (int e = 0; e < 4; e++) {
        double cx2 = bx[e], cy2 = by[e];
        if (n_in == 0)
            return 0.0;
        double ex = cx2 - cx1, ey = cy2 - cy1;
        int n_out = 0;
        double sx = inx[n_in - 1], sy = iny[n_in - 1];
        int s_in = ex * (sy - cy1) - ey * (sx - cx1) >= 0.0;
        for (int k = 0; k < n_in; k++) {
            double vx = inx[k], vy = iny[k];
            int p_in = ex * (vy - cy1) - ey * (vx - cx1) >= 0.0;
            if (p_in != s_in) {
                double dx = vx - sx, dy = vy - sy;
                double denom = ex * dy - ey * dx;
                /* denom == 0: the segment runs along the edge line (rounding
                 * split the endpoint sides); nothing to insert */
                if (denom != 0.0) {
                    double t = (ey * (sx - cx1) - ex * (sy - cy1)) / denom;
                    outx[n_out] = sx + t * dx;
                    outy[n_out] = sy + t * dy;
                    n_out++;
                }
            }
            if (p_in) {
                outx[n_out] = vx;
                outy[n_out] = vy;
                n_out++;
            }
            sx = vx;
            sy = vy;
            s_in = p_in;
        }
        tmp = inx; inx = outx; outx = tmp;
        tmp = iny; iny = outy; outy = tmp;
        n_in = n_out;
        cx1 = cx2;
        cy1 = cy2;
    }
    if (n_in < 3)
        return 0.0;
    return shoelace(inx, iny, n_in);
}

static double iou3d(const double *a, const double *b)
{
    double za0 = a[2] - 0.5 * a[4], za1 = a[2] + 0.5 * a[4];
    double zb0 = b[2] - 0.5 * b[4], zb1 = b[2] + 0.5 * b[4];
    double dz = (za1 < zb1 ? za1 : zb1) - (za0 > zb0 ? za0 : zb0);
    if (dz <= 0.0)
        return 0.0;
    double ra = 0.5 * hypot(a[5], a[6]), rb = 0.5 * hypot(b[5], b[6]);
    double dx = a[0] - b[0], dy = a[1] - b[1];
    if (dx * dx + dy * dy > (ra + rb) * (ra + rb))
        return 0.0;
    double acx[4], acy[4], bcx[4], bcy[4];
    corners(a, acx, acy);
    corners(b, bcx, bcy);
    double area = clip_area(acx, acy, bcx, bcy);
    if (area < AREA_EPS)
        return 0.0;
    /* volumes via the same shoelace/extent arithmetic as the overlap so
     * that self-overlap is exactly 1 */
    double inter_vol = area * dz;
    double vol_a = shoelace(acx, acy, 4) * (za1 - za0);
    double vol_b = shoelace(bcx, bcy, 4) * (zb1 - zb0);
    double denom = vol_a + vol_b - inter_vol;
    if (denom <= 0.0)
        return 1.0;
    double iou = inter_vol / denom;
    if (iou < 0.0)
        return 0.0;
    if (iou > 1.0)
        return 1.0;
    return iou;
}

/* A C-contiguous float64 (N, 7) array from obj, or NULL with ValueError. */
static PyArrayObject *as_boxes(PyObject *obj)
{
    PyArrayObject *arr = (PyArrayObject *)PyArray_FROMANY(
        obj, NPY_DOUBLE, 2, 2, NPY_ARRAY_IN_ARRAY);
    if (arr != NULL && PyArray_DIM(arr, 1) != 7) {
        PyErr_Format(PyExc_ValueError, "expected an (N, 7) box array, got (%zd, %zd)",
                     (Py_ssize_t)PyArray_DIM(arr, 0), (Py_ssize_t)PyArray_DIM(arr, 1));
        Py_DECREF(arr);
        return NULL;
    }
    return arr;
}

static PyObject *iou3d_matrix(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "iou3d_matrix() takes 2 arguments (%zd given)", nargs);
        return NULL;
    }
    PyArrayObject *rows = as_boxes(args[0]);
    if (rows == NULL)
        return NULL;
    PyArrayObject *cols = as_boxes(args[1]);
    if (cols == NULL) {
        Py_DECREF(rows);
        return NULL;
    }
    npy_intp n = PyArray_DIM(rows, 0), m = PyArray_DIM(cols, 0);
    npy_intp dims[2] = {n, m};
    PyObject *out = PyArray_ZEROS(2, dims, NPY_DOUBLE, 0);
    if (out != NULL) {
        const double *rp = (const double *)PyArray_DATA(rows);
        const double *cp = (const double *)PyArray_DATA(cols);
        double *op = (double *)PyArray_DATA((PyArrayObject *)out);
        Py_BEGIN_ALLOW_THREADS
        for (npy_intp i = 0; i < n; i++)
            for (npy_intp j = 0; j < m; j++)
                op[i * m + j] = iou3d(rp + 7 * i, cp + 7 * j);
        Py_END_ALLOW_THREADS
    }
    Py_DECREF(rows);
    Py_DECREF(cols);
    return out;
}

static PyMethodDef methods[] = {
    {"iou3d_matrix", (PyCFunction)(void (*)(void))iou3d_matrix, METH_FASTCALL,
     "iou3d_matrix(rows, cols)\n--\n\n"
     "Pairwise 3D IoU matrix of two (N, 7) / (M, 7) box arrays."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_native", "Compiled oriented-box IoU kernel.", -1, methods,
    NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC PyInit__native(void)
{
    import_array();
    return PyModule_Create(&module);
}
