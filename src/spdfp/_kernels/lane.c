/* The C lane of spdfp: whole record blocks of PDFP / SPDFP steps, with the
 * snapshot of x and v and the time stamp that end each epoch, and the
 * products of every sparse.RowView, among them the A x and B x of a record
 * block's snapshots, one call each, and the Lanczos steps of
 * sparse.estimate_spectrum. A stack of vectors (matvecs) takes eight per
 * pass over a matrix's rows, in four pair accumulators that read the eight
 * from a transposed block the caller lends, then four, then one, and a
 * step starts from the B^T v the step before it left, so it makes three B
 * products, not four. Every M x is matvec, four rows per pass, but a
 * step's A x over a dense A, which sweeps the columns of the step's rows
 * in a dense copy of A's transpose, d rows of n. Every M^T y is rmatvec:
 * where its rows are all full, a column sweep (sweep) that reads M's rows
 * in order, else a scatter over their entries, four entries of a row per
 * pass. A step over all rows of A and a mini-batch step take the same
 * products. The prox (soft) is two selects and a copysign, with no
 * branch. Each epoch's end also writes the step-size factors of its a_k
 * record.
 * Plain C99 over raw int64/double arrays, no Python C-API, plus GCC /
 * Clang's vector_size(16) type of two doubles (SSE2 / NEON width, so no
 * -march); spdfp._kernels loads the built library with ctypes and checks
 * every array before it passes a pointer. At revision 12 it exports
 * spdfp_run_size, spdfp_lane_version, spdfp_run_steps and spdfp_rows;
 * everything else is static.
 *
 * Each function mirrors the NumPy reference (sparse.RowView,
 * prox.soft_threshold, solvers._pdfp_step, solvers._record_factors) op for
 * op, so that both lanes give the same bits:
 *   - a product sums each output entry from 0.0 in CSR order, as
 *     np.bincount does, and multiplies data by the vector in that order,
 *     also when it takes four rows or four snapshots at once, one
 *     accumulator each, or eight snapshots, one lane of a pair each (a
 *     vector add or multiply is the scalar one in each lane, below);
 *   - the scatter's pass loads its four outputs before it stores them,
 *     which is sound as a row of canonical CSR holds each column at most
 *     once, so the four are distinct and each still adds its entries in
 *     CSR order;
 *   - soft's selects and copysign give np.sign(y) * np.maximum(|y| - t, 0)
 *     bit for bit (see soft), a NaN y aside, whose sign is left open;
 *   - the column sweep gives each output a lane of a two-double
 *     accumulator, which starts at 0.0 and adds data times vector one
 *     entry at a time, in CSR order again: a full row of canonical CSR
 *     (sparse.SparseMatrix refuses any other) holds columns
 *     0..n_cols-1 in order, so row i of a dense A is A's data from
 *     i n_cols on, and column c is row c of its transpose; a vector add or
 *     multiply is the scalar one in each lane, rounded alike (which of two
 *     NaNs a sum or product keeps is left open by IEEE 754, and the
 *     compiler may order the operands of + and * either way, so the sign
 *     of such a NaN may differ between the lanes);
 *   - both lanes compute B^T v once per call and then take it from the
 *     step before, the same rmatvec of the same v;
 *   - every NumPy expression is the same C expression in the same order,
 *     built without FMA contraction (-ffp-contract=off) and without
 *     fast-math;
 *   - c / k**alpha, ((k-1)/k)**alpha and gamma**2 go through libm pow, as
 *     Python's float ** does (alpha = 0 for a constant step, and pow(x, 0)
 *     is exactly 1);
 *   - the logistic loss weights take libm exp, which the reference reaches
 *     through math.exp (problem._sigmoid), not NumPy's SIMD exp, which can
 *     differ in the last bit.
 */
#define _POSIX_C_SOURCE 199309L  /* clock_gettime under -std=c99 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

enum { PDFP = 0, SPDFP1 = 1, SPDFP2 = 2 };
enum { SQUARE = 0, HINGE = 1, LOGISTIC = 2 };
enum { OK = 0, BAD_INPUT = -1 };

typedef struct {
    int64_t n_rows, n_cols;
    const int64_t *indptr, *indices;
    const double *data;
} csr;

/* One run: problem, step parameters, the row ranges of A a step may use,
 * and the iterates x (length A.n_cols) and v (length B.n_rows) the steps
 * update in place. At is A's transpose as a dense row-major A.n_cols x
 * A.n_rows array, for a run over a dense A, else NULL. work holds
 * A.n_rows + 3 A.n_cols + 2 B.n_rows doubles. Mirrored by _kernels._Run. */
typedef struct {
    int64_t kind, loss, prox_l1;
    double c, alpha, lam, nu, prox_weight;
    csr A, B;
    const double *At, *labels;
    const int64_t *ranges;
    int64_t n_ranges;
    double *x, *v, *work;
} run;

/* sizeof(run), which the loader compares with its mirror of the struct. */
int64_t spdfp_run_size(void)
{
    return (int64_t)sizeof(run);
}

/* The revision of the exported functions' signatures, which the loader
 * compares with its own, so that it refuses a library built from an older
 * lane.c instead of calling it with the wrong arguments. Revision 2:
 * spdfp_products takes a block of snapshots. Revision 3: spdfp_run_steps
 * runs a block of epochs and takes their snapshots and time stamps.
 * Revision 4: spdfp_gram. Revision 5: spdfp_scales. Revision 6: run
 * holds At, and spdfp_rows. Revision 7: no spdfp_gram. Revision 8: no
 * spdfp_products; spdfp_rows takes a stack of vectors. Revision 9: no
 * spdfp_scales; spdfp_run_steps writes the a_k factors of its epochs.
 * Revision 10: run's At is a dense array, or NULL. Revision 11: a run
 * over a dense A holds At whatever its ranges. Revision 12: spdfp_rows
 * takes the scratch block of an eight-vector pass. */
int64_t spdfp_lane_version(void)
{
    return 12;
}

/* out[i - lo] = (row i of M) . x for lo <= i < hi, each summed from 0.0 in
 * CSR order: four rows per pass, one accumulator each, over the entries the
 * four rows all have, then each row's own remainder; the rows left over
 * take one accumulator each. */
static void matvec(const csr *M, const double *x, double *out, int64_t lo, int64_t hi)
{
    const int64_t *p = M->indptr, *col = M->indices;
    const double *a = M->data;
    int64_t i = lo;
    for (; i + 4 <= hi; i += 4) {
        int64_t s0 = p[i], s1 = p[i + 1], s2 = p[i + 2], s3 = p[i + 3], e3 = p[i + 4];
        int64_t len = s1 - s0;
        if (s2 - s1 < len) len = s2 - s1;
        if (s3 - s2 < len) len = s3 - s2;
        if (e3 - s3 < len) len = e3 - s3;
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        for (int64_t j = 0; j < len; j++) {
            a0 = a0 + a[s0 + j] * x[col[s0 + j]];
            a1 = a1 + a[s1 + j] * x[col[s1 + j]];
            a2 = a2 + a[s2 + j] * x[col[s2 + j]];
            a3 = a3 + a[s3 + j] * x[col[s3 + j]];
        }
        for (int64_t j = s0 + len; j < s1; j++)
            a0 = a0 + a[j] * x[col[j]];
        for (int64_t j = s1 + len; j < s2; j++)
            a1 = a1 + a[j] * x[col[j]];
        for (int64_t j = s2 + len; j < s3; j++)
            a2 = a2 + a[j] * x[col[j]];
        for (int64_t j = s3 + len; j < e3; j++)
            a3 = a3 + a[j] * x[col[j]];
        out[i - lo] = a0;
        out[i - lo + 1] = a1;
        out[i - lo + 2] = a2;
        out[i - lo + 3] = a3;
    }
    for (; i < hi; i++) {
        double acc = 0.0;
        for (int64_t j = p[i]; j < p[i + 1]; j++)
            acc = acc + a[j] * x[col[j]];
        out[i - lo] = acc;
    }
}

/* Two doubles, added and multiplied lane by lane. */
typedef double pair __attribute__((vector_size(16)));

/* Whether rows lo..hi-1 of M are all full. A row of canonical CSR holds
 * each column at most once, so n_cols entries a row on average means every
 * row holds columns 0..n_cols-1 in order. */
static int full_rows(const csr *M, int64_t lo, int64_t hi)
{
    return M->indptr[hi] - M->indptr[lo] == (hi - lo) * M->n_cols;
}

/* out[j] = sum of D[t stride + j] y[t] over t = 0..len-1, in that order,
 * from 0.0, for j < width: a sweep down the first width columns of the len
 * rows of the row-major D, stride doubles apart. Eight columns take four
 * pair accumulators, one lane each, through the rows; of the width % 8
 * columns left, each two take one pair through the rows, and the last odd
 * one a double. Loads and stores go through memcpy, since D and out need
 * not be 16-aligned. */
static void sweep(const double *D, int64_t stride, int64_t width, const double *y, int64_t len,
                  double *out)
{
    int64_t j = 0;
    for (; j + 8 <= width; j += 8) {
        pair a0 = {0.0, 0.0}, a1 = a0, a2 = a0, a3 = a0;
        const double *row = D + j;
        for (int64_t t = 0; t < len; t++, row += stride) {
            pair s = {y[t], y[t]}, d0, d1, d2, d3;
            memcpy(&d0, row, sizeof d0);
            memcpy(&d1, row + 2, sizeof d1);
            memcpy(&d2, row + 4, sizeof d2);
            memcpy(&d3, row + 6, sizeof d3);
            a0 = a0 + d0 * s;
            a1 = a1 + d1 * s;
            a2 = a2 + d2 * s;
            a3 = a3 + d3 * s;
        }
        memcpy(out + j, &a0, sizeof a0);
        memcpy(out + j + 2, &a1, sizeof a1);
        memcpy(out + j + 4, &a2, sizeof a2);
        memcpy(out + j + 6, &a3, sizeof a3);
    }
    for (; j + 2 <= width; j += 2) {
        pair a = {0.0, 0.0};
        const double *row = D + j;
        for (int64_t t = 0; t < len; t++, row += stride) {
            pair s = {y[t], y[t]}, d0;
            memcpy(&d0, row, sizeof d0);
            a = a + d0 * s;
        }
        memcpy(out + j, &a, sizeof a);
    }
    if (j < width) {
        double a = 0.0;
        for (int64_t t = 0; t < len; t++)
            a = a + D[t * stride + j] * y[t];
        out[j] = a;
    }
}

/* out[0:n_cols] = (rows lo..hi-1 of M)^T y: a sweep down M's columns where
 * the rows are all full, else a scatter over their entries, four entries of
 * a row a pass, which loads the four outputs before it stores them: a row
 * of canonical CSR holds each column at most once, so no two of the four
 * are the same output, and each output still sums from 0.0 in CSR order. */
static void rmatvec(const csr *M, const double *y, double *out, int64_t lo, int64_t hi)
{
    if (full_rows(M, lo, hi)) {
        sweep(M->data + M->indptr[lo], M->n_cols, M->n_cols, y, hi - lo, out);
        return;
    }
    const int64_t *col = M->indices;
    const double *a = M->data;
    for (int64_t c = 0; c < M->n_cols; c++)
        out[c] = 0.0;
    for (int64_t i = lo; i < hi; i++) {
        double yi = y[i - lo];
        int64_t j = M->indptr[i], e = M->indptr[i + 1];
        for (; j + 4 <= e; j += 4) {
            int64_t c0 = col[j], c1 = col[j + 1], c2 = col[j + 2], c3 = col[j + 3];
            double o0 = out[c0], o1 = out[c1], o2 = out[c2], o3 = out[c3];
            out[c0] = o0 + a[j] * yi;
            out[c1] = o1 + a[j + 1] * yi;
            out[c2] = o2 + a[j + 2] * yi;
            out[c3] = o3 + a[j + 3] * yi;
        }
        for (; j < e; j++)
            out[col[j]] = out[col[j]] + a[j] * yi;
    }
}

/* np.sign(y) * np.maximum(np.abs(y) - t, 0.0) for one entry, with two
 * selects and no branch. t is >= 0 or NaN, so a is never -0.0, and m,
 * which keeps a NaN a as np.maximum does, is +0.0, positive or NaN: for a
 * nonzero y, np.sign's +-1 times m is copysign(m, y). np.sign maps both
 * zeros to +0.0, and +0.0 * m keeps the NaN m of a NaN t (gamma / lam
 * overflows to inf against a zero weight). So y = -0.3, t = 1 gives -0.0,
 * y = -0.0 gives +0.0, and a NaN y stays NaN, of either sign. */
static double soft(double y, double t)
{
    double a = fabs(y) - t;
    double m = a <= 0.0 ? 0.0 : a;
    return y == 0.0 ? 0.0 * m : copysign(m, y);
}

/* out[s] = M[lo:hi] X[s] for the count rows of X (M.n_cols doubles each),
 * out row-major with hi - lo doubles per row, each entry summed from 0.0 in
 * CSR order as matvec sums it. Each group of eight rows of X is first
 * copied into block transposed, M.n_cols rows of eight, so that the eight
 * values an entry of M multiplies lie side by side; one pass over the rows
 * of M then takes four pair accumulators, two rows of X each, one lane a
 * row, and one 16-byte load of block a pair. A group of four rows left
 * over takes one pass with four accumulators, and the count % 4 rows left
 * after it go through matvec. */
static void matvecs(const csr *M, int64_t lo, int64_t hi, const double *X, int64_t count,
                    double *block, double *out)
{
    const int64_t *p = M->indptr, *col = M->indices;
    const double *a = M->data;
    int64_t d = M->n_cols, n = hi - lo, s = 0;
    for (; s + 8 <= count; s += 8) {
        for (int64_t c = 0; c < d; c++)
            for (int64_t t = 0; t < 8; t++)
                block[8 * c + t] = X[(s + t) * d + c];
        double *o = out + s * n;
        for (int64_t i = 0; i < n; i++) {
            pair a0 = {0.0, 0.0}, a1 = a0, a2 = a0, a3 = a0;
            for (int64_t j = p[lo + i]; j < p[lo + i + 1]; j++) {
                pair e = {a[j], a[j]}, x0, x1, x2, x3;
                const double *b = block + 8 * col[j];
                memcpy(&x0, b, sizeof x0);
                memcpy(&x1, b + 2, sizeof x1);
                memcpy(&x2, b + 4, sizeof x2);
                memcpy(&x3, b + 6, sizeof x3);
                a0 = a0 + e * x0;
                a1 = a1 + e * x1;
                a2 = a2 + e * x2;
                a3 = a3 + e * x3;
            }
            o[i] = a0[0];
            o[n + i] = a0[1];
            o[2 * n + i] = a1[0];
            o[3 * n + i] = a1[1];
            o[4 * n + i] = a2[0];
            o[5 * n + i] = a2[1];
            o[6 * n + i] = a3[0];
            o[7 * n + i] = a3[1];
        }
    }
    for (; s + 4 <= count; s += 4) {
        const double *x0 = X + s * d, *x1 = x0 + d, *x2 = x1 + d, *x3 = x2 + d;
        double *o = out + s * n;
        for (int64_t i = 0; i < n; i++) {
            double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
            for (int64_t j = p[lo + i]; j < p[lo + i + 1]; j++) {
                double e = a[j];
                int64_t c = col[j];
                a0 = a0 + e * x0[c];
                a1 = a1 + e * x1[c];
                a2 = a2 + e * x2[c];
                a3 = a3 + e * x3[c];
            }
            o[i] = a0;
            o[n + i] = a1;
            o[2 * n + i] = a2;
            o[3 * n + i] = a3;
        }
    }
    for (; s < count; s++)
        matvec(M, X + s * d, out + s * n, lo, hi);
}

/* The products of sparse.RowView over rows lo..hi-1 of M, of each of the
 * count vectors stacked in x: out[s] = M[lo:hi] x[s], hi - lo doubles from
 * M.n_cols, or with transpose set out[s] = M[lo:hi]^T x[s], M.n_cols
 * doubles from hi - lo; x and out row-major. block is matvecs' scratch of
 * 8 M.n_cols doubles, which only products of eight or more vectors without
 * transpose touch, so it may be NULL for any other. The caller checks that
 * 0 <= lo <= hi <= M.n_rows and the lengths. */
void spdfp_rows(const csr *M, int64_t lo, int64_t hi, int64_t transpose, const double *x,
                int64_t count, double *block, double *out)
{
    if (!transpose)
        matvecs(M, lo, hi, x, count, block, out);
    else
        for (int64_t s = 0; s < count; s++)
            rmatvec(M, x + s * (hi - lo), out + s * M->n_cols, lo, hi);
}

/* gradients._rows_gradient over rows lo..hi-1 of A: w holds the margins,
 * then the loss weights (problem.loss_weights); g gets the gradient. A x
 * sweeps columns lo..hi-1 of At where the run holds At, else is matvec;
 * A^T w is rmatvec. */
static void gradient(const run *r, int64_t lo, int64_t hi, const double *x,
                    double *w, double *g)
{
    int64_t nb = hi - lo, d = r->A.n_cols;
    if (r->At != NULL)
        sweep(r->At + lo, r->A.n_rows, nb, x, d, w);
    else
        matvec(&r->A, x, w, lo, hi);
    for (int64_t i = 0; i < nb; i++) {
        double b = r->labels[lo + i];
        if (r->loss == SQUARE) {
            w[i] = w[i] - b;
        } else if (r->loss == HINGE) {
            w[i] = b * w[i] < 1.0 ? -b : 0.0;
        } else {
            double t = -b * w[i], e = exp(-fabs(t));
            w[i] = -b * (t >= 0.0 ? 1.0 / (1.0 + e) : e / (1.0 + e));
        }
    }
    rmatvec(&r->A, w, g, lo, hi);
    for (int64_t j = 0; j < d; j++)
        g[j] = g[j] / (double)nb;
    if (r->nu != 0.0)
        for (int64_t j = 0; j < d; j++)
            g[j] = g[j] + r->nu * x[j];
}

/* Seconds from t0 to now on the monotonic clock. */
static double since(const struct timespec *t0)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)(t.tv_sec - t0->tv_sec) + 1e-9 * (double)(t.tv_nsec - t0->tv_nsec);
}

/* One step of r->kind on r->x and r->v, with rows lo..hi-1 of A; k is the
 * 1-based step counter before the step. bt must hold B^T v on entry: the
 * step before left it there, or spdfp_run_steps computed it before the
 * first step of its call; the step leaves B^T v of its new v there. */
static void step(const run *r, int64_t lo, int64_t hi, int64_t k)
{
    int64_t d = r->A.n_cols, m = r->B.n_rows;
    double lam = r->lam, *x = r->x, *v = r->v;
    double *w = r->work, *g = w + r->A.n_rows, *xh = g + d, *bt = xh + d;
    double *arg = bt + d, *bb = arg + m;
    double gamma = r->c / pow((double)k, r->alpha);
    double tau = gamma / lam, thr = tau * r->prox_weight;
    double factor = 1.0, v_scale = 1.0, x_scale = lam;
    if (r->kind == SPDFP1) {
        factor = gamma / lam;
        v_scale = lam / gamma;
        x_scale = gamma;
    } else if (r->kind == SPDFP2) {
        factor = k == 1 ? gamma / lam : pow((double)(k - 1) / (double)k, r->alpha);
    }

    /* x_half = x - gamma * grad */
    gradient(r, lo, hi, x, w, g);
    for (int64_t j = 0; j < d; j++)
        xh[j] = x[j] - gamma * g[j];

    /* arg = B x_half + factor * (v - lam * B B^T v) */
    matvec(&r->B, xh, arg, 0, m);
    matvec(&r->B, bt, bb, 0, m);
    for (int64_t i = 0; i < m; i++) {
        double dr = v[i] - lam * bb[i];
        arg[i] = arg[i] + factor * dr;
    }

    /* v = v_scale * (arg - prox(arg)); x = x_half - x_scale * B^T v */
    for (int64_t i = 0; i < m; i++) {
        double res = arg[i] - (r->prox_l1 ? soft(arg[i], thr) : arg[i]);
        v[i] = v_scale * res;
    }
    rmatvec(&r->B, v, bt, 0, m);
    for (int64_t j = 0; j < d; j++)
        x[j] = xh[j] - x_scale * bt[j];
}

/* The exponent of gamma**2: volatile, so that the compiler calls pow and
 * does not fold pow(g, 2.0) into g * g, which may differ in the last bit. */
static volatile const double TWO = 2.0;

/* Run n_epochs epochs of per_epoch steps each on r->x and r->v. Step s uses
 * rows ranges[2p]..ranges[2p+1]-1 of A, p = picks[s]; k is the 1-based step
 * counter before the first step. After epoch e, x goes to row e of X
 * (A.n_cols doubles a row), v to row e of V (B.n_rows doubles a row), the
 * factors of its a_k record (solvers._record_factors), k the step after it,
 * to weights[e] = gamma_k**2 / lam, inf where the square overflows, and
 * dscales[e] = lam / gamma_{k-1}, or 1 for k = 1, and the seconds since the
 * call began to stamps[e]; a NULL array takes nothing. Returns BAD_INPUT,
 * having changed nothing, if a pick or its range is out of bounds, else OK.
 * Each call computes B^T v into the work array step() reads it from, after
 * the checks, so a caller may write into v between calls. */
int spdfp_run_steps(const run *r, const int64_t *picks, int64_t n_epochs, int64_t per_epoch,
                    int64_t k, double *X, double *V, double *stamps, double *weights,
                    double *dscales)
{
    struct timespec t0;
    int64_t d = r->A.n_cols, m = r->B.n_rows, n_steps = n_epochs * per_epoch;

    clock_gettime(CLOCK_MONOTONIC, &t0);
    for (int64_t s = 0; s < n_steps; s++) {
        if (picks[s] < 0 || picks[s] >= r->n_ranges)
            return BAD_INPUT;
        const int64_t *rows = r->ranges + 2 * picks[s];
        if (rows[0] < 0 || rows[0] >= rows[1] || rows[1] > r->A.n_rows)
            return BAD_INPUT;
    }
    rmatvec(&r->B, r->v, r->work + r->A.n_rows + 2 * d, 0, m);  /* step()'s bt */
    for (int64_t e = 0, s = 0; e < n_epochs; e++) {
        for (int64_t end = s + per_epoch; s < end; s++, k++) {
            const int64_t *rows = r->ranges + 2 * picks[s];
            step(r, rows[0], rows[1], k);
        }
        if (X)
            memcpy(X + e * d, r->x, (size_t)d * sizeof(double));
        if (V)
            memcpy(V + e * m, r->v, (size_t)m * sizeof(double));
        if (weights)
            weights[e] = pow(r->c / pow((double)k, r->alpha), TWO) / r->lam;
        if (dscales)
            dscales[e] = k > 1 ? r->lam / (r->c / pow((double)(k - 1), r->alpha)) : 1.0;
        if (stamps)
            stamps[e] = since(&t0);
    }
    return OK;
}
