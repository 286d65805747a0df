/* Compiled arithmetic of sigver, loaded through ctypes by kernels.py.

   Each function repeats the rounding of the numpy expressions it stands
   for: the same operations on the same doubles, in the same order. That
   holds because the library is built with -ffp-contract=off, so no
   multiply and add are fused, and without -ffast-math, so no operation is
   reordered or dropped. Only +, -, *, / and libm's exp appear. exp is
   what scipy.special.expit calls, so the sigmoid 1 / (1 + exp(-z)) gives
   expit's bits. numpy's tanh is not libm's tanh, so tanh stays in numpy.
*/
#include <math.h>
#include <stddef.h>

/* The three elementwise parts of step t of the LSTM forward recurrence
   (lstm.lstm_forward_steps), between which numpy maps tanh in place.

   ``rows`` is the batch height B, ``hidden`` the width H and ``active``
   the number of rows still running at step t, which come first in the
   engine's row order. gates (slots, B, 4H, gates f, i, o, c) and c_tanh
   (slots, B, H) keep one block per step, or one reused block when no
   cache is kept; ``slot`` picks the step's block. pre and rec (B, 4H)
   are the step's input and recurrent products, bias (4H) the gate bias,
   h and C (B, H) the carried state and out_s (T, B, H) the outputs.

   lstm_forward_gates writes z = (pre + bias) + rec of each running row
   into its gate block: 1 / (1 + exp(-z)) for f, i and o, and z itself
   for the candidate c, which numpy's tanh then maps in place. */
void lstm_forward_gates(ptrdiff_t slot, ptrdiff_t active, ptrdiff_t rows, ptrdiff_t hidden,
                        const double *restrict pre, const double *restrict bias,
                        const double *restrict rec, double *restrict gates)
{
    const ptrdiff_t width = 4 * hidden, logistic = 3 * hidden;
    double *gt = gates + slot * rows * width;

    for (ptrdiff_t k = 0; k < active; k++) {
        const double *p = pre + k * width, *r = rec + k * width;
        double *out = gt + k * width;
        for (ptrdiff_t j = 0; j < logistic; j++)
            out[j] = 1.0 / (1.0 + exp(-((p[j] + bias[j]) + r[j])));
        for (ptrdiff_t j = logistic; j < width; j++)
            out[j] = (p[j] + bias[j]) + r[j];
    }
}

/* Copies the running rows of C into c_prev[t] (T, B, H) when c_prev is
   not NULL, then computes C = f * C + i * g on them. numpy's tanh of the
   new C then fills the step's c_tanh block. */
void lstm_forward_cell(ptrdiff_t t, ptrdiff_t slot, ptrdiff_t active, ptrdiff_t rows,
                       ptrdiff_t hidden, const double *restrict gates, double *restrict C,
                       double *restrict c_prev)
{
    const ptrdiff_t h = hidden, width = 4 * hidden;
    const double *gt = gates + slot * rows * width;

    if (c_prev != NULL) {
        double *cp = c_prev + t * rows * h;
        for (ptrdiff_t j = 0; j < active * h; j++)
            cp[j] = C[j];
    }
    for (ptrdiff_t k = 0; k < active; k++) {
        const double *f = gt + k * width, *i = f + h, *g = f + 3 * h;
        double *Ck = C + k * h;
        for (ptrdiff_t j = 0; j < h; j++)
            Ck[j] = f[j] * Ck[j] + i[j] * g[j];
    }
}

/* Computes h = o * c_tanh on the running rows, then copies all B rows of
   h, the rows that stopped keeping their last output, into out_s[t]. */
void lstm_forward_output(ptrdiff_t t, ptrdiff_t slot, ptrdiff_t active, ptrdiff_t rows,
                         ptrdiff_t hidden, const double *restrict gates,
                         const double *restrict c_tanh, double *restrict h,
                         double *restrict out_s)
{
    const ptrdiff_t width = 4 * hidden;
    const double *gt = gates + slot * rows * width;
    const double *tc = c_tanh + slot * rows * hidden;
    double *out = out_s + t * rows * hidden;

    for (ptrdiff_t k = 0; k < active; k++) {
        const double *o = gt + k * width + 2 * hidden, *tC = tc + k * hidden;
        double *hk = h + k * hidden;
        for (ptrdiff_t j = 0; j < hidden; j++)
            hk[j] = o[j] * tC[j];
    }
    for (ptrdiff_t j = 0; j < rows * hidden; j++)
        out[j] = h[j];
}

/* One step t of the LSTM backward recurrence (lstm.lstm_backward_steps).

   The arrays hold every step; the step's block starts at t times the
   block size. ``rows`` is the batch height B, ``hidden`` the width H and
   ``active`` the number of rows still running at step t, which come first
   in the engine's row order. go_s, gates, c_tanh and c_prev are the
   gradient on the step outputs (T, B, H), the gate activations
   (T, B, 4H, gates f, i, o, c), tanh of the cell state (T, B, H) and the
   previous cell state (T, B, H), all in engine order. dh and dC (B, H)
   carry the state gradients in engine order. ``order[k]`` is the caller
   row of engine row k; the step's gate gradients go to row order[k] of
   dpre[t] (T, B, 4H), zero for the rows that are no longer running.

   The step adds go_s[t] into dh on every row. For each running row it
   then computes do, dCt, the four gate gradients and dC = dCt * f. The
   recurrent product dpre[t] @ W_h that gives the next dh stays in BLAS. */
void lstm_backward_step(ptrdiff_t t, ptrdiff_t active, ptrdiff_t rows, ptrdiff_t hidden,
                        const double *restrict go_s, const double *restrict gates,
                        const double *restrict c_tanh, const double *restrict c_prev,
                        const ptrdiff_t *restrict order, double *restrict dh,
                        double *restrict dC, double *restrict dpre)
{
    const ptrdiff_t h = hidden, width = 4 * hidden;
    const double *go = go_s + t * rows * h;
    const double *gt = gates + t * rows * width;
    const double *tc = c_tanh + t * rows * h;
    const double *cp = c_prev + t * rows * h;
    double *dp = dpre + t * rows * width;

    for (ptrdiff_t j = 0; j < rows * h; j++)
        dh[j] += go[j];
    for (ptrdiff_t k = 0; k < active; k++) {
        const double *f = gt + k * width, *i = f + h, *o = i + h, *g = o + h;
        const double *tC = tc + k * h, *c = cp + k * h, *dhk = dh + k * h;
        double *dCk = dC + k * h, *out = dp + order[k] * width;
        for (ptrdiff_t j = 0; j < h; j++) {
            const double d_o = dhk[j] * tC[j];
            const double dCt = dCk[j] + dhk[j] * o[j] * (1.0 - tC[j] * tC[j]);
            out[j] = dCt * c[j] * f[j] * (1.0 - f[j]);
            out[h + j] = dCt * g[j] * i[j] * (1.0 - i[j]);
            out[2 * h + j] = d_o * o[j] * (1.0 - o[j]);
            out[3 * h + j] = dCt * i[j] * (1.0 - g[j] * g[j]);
            dCk[j] = dCt * f[j];
        }
    }
    for (ptrdiff_t k = active; k < rows; k++) {
        double *out = dp + order[k] * width;
        for (ptrdiff_t j = 0; j < width; j++)
            out[j] = 0.0;
    }
}
