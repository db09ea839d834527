/* The step loop of eightvertex.mcmc.Chain, compiled.

   It makes the Python loop's draws and float operations in the same order,
   so a seed gives the same run byte for byte.  The draws are CPython's
   (3.10-3.13, Modules/_randommodule.c): MT19937 (Matsumoto and Nishimura,
   ACM TOMACS 1998) words, random() from two words, and getrandbits(k) for
   k <= 32 as one word shifted right by 32 - k.  Build with
   -ffp-contract=off, so that no multiply and add fuse into one rounding. */
#include <stdint.h>
#include <string.h>

#define N 624
#define M 397

struct chain {
    uint32_t mt[N];      /* the state of random.Random: getstate()[1] */
    int32_t index;
    int32_t nmoves, bits, nvertices;
    int32_t classes[16]; /* in-mask -> class (states.CLASS16) */
    int32_t counts[4];   /* vertices per class */
    double laziness;
    const int32_t *start;  /* move j is entries start[j] .. start[j+1]-1 of touch */
    const int32_t *touch;  /* per entry, vertex << 4 | the label bits it flips */
    const double *factors; /* [xm << 4 | mask]: the weight ratio of flipping xm at mask */
    uint8_t *masks;        /* per vertex, the labels that point in */
};

static uint32_t genrand(struct chain *c)
{
    uint32_t y, *mt = c->mt;
    int k;
    if (c->index >= N) {
        for (k = 0; k < N; k++) {
            y = (mt[k] & 0x80000000U) | (mt[(k + 1) % N] & 0x7fffffffU);
            mt[k] = mt[(k + M) % N] ^ (y >> 1) ^ (y & 1U ? 0x9908b0dfU : 0U);
        }
        c->index = 0;
    }
    y = mt[c->index++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}

static double random53(struct chain *c)
{
    uint32_t a = genrand(c) >> 5, b = genrand(c) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Runs `blocks` blocks of `thinning` steps.  With `pows` (four tables of
   `stride` entries, indexed by class count), each block ends by adding
   w = pows_0[n_0] * pows_1[n_1] * pows_2[n_2] * pows_3[n_3] to sums[0] and
   w * w to sums[1].  With `record`, each block ends by copying the masks
   into the next nvertices bytes of it. */
void chain_run(struct chain *c, int64_t blocks, int64_t thinning,
               const double *pows, int32_t stride, double *sums, uint8_t *record)
{
    uint8_t *masks = c->masks;
    const int32_t *touch = c->touch, *start = c->start, *cls = c->classes;
    const double *factors = c->factors;
    uint32_t shift = 32 - c->bits, nmoves = c->nmoves, j;
    int64_t b, t;
    const int32_t *e, *end;
    for (b = 0; b < blocks; b++) {
        for (t = 0; t < thinning; t++) {
            double ratio = 1.0;
            if (random53(c) < c->laziness)
                continue;
            do
                j = genrand(c) >> shift;
            while (j >= nmoves);
            end = touch + start[j + 1];
            for (e = touch + start[j]; e < end; e++)
                ratio *= factors[(*e & 15) << 4 | masks[*e >> 4]];
            if (ratio >= 1.0 || random53(c) < ratio) {
                for (e = touch + start[j]; e < end; e++) {
                    uint8_t *m = masks + (*e >> 4);
                    c->counts[cls[*m]]--;
                    *m ^= *e & 15;
                    c->counts[cls[*m]]++;
                }
            }
        }
        if (pows) {
            double w = pows[c->counts[0]] * pows[stride + c->counts[1]]
                       * pows[2 * stride + c->counts[2]] * pows[3 * stride + c->counts[3]];
            sums[0] += w;
            sums[1] += w * w;
        }
        if (record)
            memcpy(record + b * c->nvertices, masks, c->nvertices);
    }
}
