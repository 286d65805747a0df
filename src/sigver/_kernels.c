/* Compiled arithmetic of sigver, loaded through ctypes by kernels.py.

   Each function repeats the rounding of the numpy expressions it stands
   for: the same operations on the same doubles, in the same order. That
   holds because the library is built with -ffp-contract=off, so no
   multiply and add are fused, and without -ffast-math, so no operation is
   reordered or dropped. Only +, - and * appear: the transcendental
   functions of numpy and libm give different bits, so they stay in numpy.
*/
#include <stddef.h>

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
