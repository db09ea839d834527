/* The step loop of eightvertex.mcmc.Chain, compiled.

   It makes the Python loop's draws and float operations in the same order,
   so a seed gives the same run byte for byte.  The draws are CPython's
   (3.10-3.13, Modules/_randommodule.c): MT19937 (Matsumoto and Nishimura,
   ACM TOMACS 1998) words, random() from two words, and getrandbits(k) for
   k <= 32 as one word shifted right by 32 - k.  Each twist of the state
   tempers all 624 new words into a buffer, so a draw is one load; a state
   copied in with words left to draw is tempered on the first call.  The mt
   array stays the untempered state that getstate() returns.  The laziness
   coin, random() < 1/2 with random() = ((a >> 5) * 2^26 + (b >> 6)) / 2^53
   for words a then b, holds exactly when a < 2^31: it tests the first word
   and draws the second all the same.  chain_run makes plain or recorded
   blocks at the weights set from Python; chain_ais runs particles of
   annealed importance sampling (Neal, Statistics and Computing 2001), each
   from an exact uniform start through every stage.  Every call runs to its
   end: Chain bounds a call by the blocks or particles it hands over.  A
   step reads the 16 ratios of the class weights, divided as mcmc._ratios
   divides them: flipping the bits xm of an even in-mask m multiplies the
   proposal's ratio by ratio[class(m ^ xm) << 2 | class(m)], and every flip
   mask has even popcount, so both classes are defined.  chain_run divides
   once per call; chain_ais reads each stage's row that mcmc._ratios divides.
   Build with -O3 and -ffp-contract=off, and without -ffast-math, so that
   every float operation rounds as written. */
#include <stdint.h>
#include <string.h>

#define N 624
#define M 397

struct chain {
    uint32_t mt[N];      /* the state of random.Random: getstate()[1] */
    int32_t index;
    int32_t started;     /* 0 until the first call tempers mt into words */
    int32_t nmoves, bits, nvertices;
    int32_t classes[16]; /* in-mask -> class (states.CLASS16), -1 for odd masks */
    int32_t counts[4];   /* vertices per class */
    double weights[4];     /* the class weights of Chain.set_params */
    const int32_t *start;  /* move j is entries start[j] .. start[j+1]-1 of touch */
    const int32_t *touch;  /* per entry, vertex << 4 | the label bits it flips */
    const uint8_t *reference; /* per vertex, the reference orientation's in-mask */
    uint8_t *masks;        /* per vertex, the labels that point in */
    uint32_t words[N];     /* mt tempered: the next draws are words[index..] */
};

static void twist(uint32_t *mt)
{
    uint32_t y;
    int k;
    for (k = 0; k < N - M; k++) {
        y = (mt[k] & 0x80000000U) | (mt[k + 1] & 0x7fffffffU);
        mt[k] = mt[k + M] ^ (y >> 1) ^ (y & 1U ? 0x9908b0dfU : 0U);
    }
    for (; k < N - 1; k++) {
        y = (mt[k] & 0x80000000U) | (mt[k + 1] & 0x7fffffffU);
        mt[k] = mt[k + (M - N)] ^ (y >> 1) ^ (y & 1U ? 0x9908b0dfU : 0U);
    }
    y = (mt[N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
    mt[N - 1] = mt[M - 1] ^ (y >> 1) ^ (y & 1U ? 0x9908b0dfU : 0U);
}

static void temper(const uint32_t *mt, uint32_t *words)
{
    int k;
    for (k = 0; k < N; k++) {
        uint32_t y = mt[k];
        y ^= y >> 11;
        y ^= (y << 7) & 0x9d2c5680U;
        y ^= (y << 15) & 0xefc60000U;
        words[k] = y ^ (y >> 18);
    }
}

/* The next word of the stream; *index is the generator's index. */
static uint32_t draw(struct chain *c, int32_t *index)
{
    if (*index >= N) {
        twist(c->mt);
        temper(c->mt, c->words);
        *index = 0;
    }
    return c->words[(*index)++];
}

static double random53(struct chain *c, int32_t *index)
{
    uint32_t a = draw(c, index) >> 5, b = draw(c, index) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Readies a chain on its first call: tempers the state copied in, with
   words left to draw. */
static void ready(struct chain *c)
{
    if (c->started)
        return;
    temper(c->mt, c->words);
    c->started = 1;
}

/* ratio[a << 2 | b] = weights[a] / weights[b], one division each, as
   mcmc._ratios divides. */
static void divide(const double *weights, double *ratio)
{
    int a, b;
    for (a = 0; a < 4; a++)
        for (b = 0; b < 4; b++)
            ratio[a << 2 | b] = weights[a] / weights[b];
}

/* Runs `blocks` blocks of `thinning` steps at the class-weight ratios
   `ratio`.  With `record`, each block ends by copying the masks into the
   next nvertices bytes of it.  The generator's index and the class counts
   live in locals until it returns. */
static void run_blocks(struct chain *c, const double *ratio, int64_t blocks, int64_t thinning,
                       uint8_t *record)
{
    uint8_t *masks = c->masks;
    const int32_t *touch = c->touch, *start = c->start, *cls = c->classes;
    uint32_t shift = 32 - c->bits, nmoves = c->nmoves, j;
    int32_t index = c->index, counts[4];
    int64_t b, t;
    const int32_t *e, *end;
    memcpy(counts, c->counts, sizeof counts);
    for (b = 0; b < blocks; b++) {
        for (t = 0; t < thinning; t++) {
            double r = 1.0;
            int lazy = draw(c, &index) < 0x80000000U;
            draw(c, &index);
            if (lazy)
                continue;
            do
                j = draw(c, &index) >> shift;
            while (j >= nmoves);
            end = touch + start[j + 1];
            for (e = touch + start[j]; e < end; e++) {
                int m = masks[*e >> 4];
                r *= ratio[cls[m ^ (*e & 15)] << 2 | cls[m]];
            }
            if (r >= 1.0 || random53(c, &index) < r) {
                for (e = touch + start[j]; e < end; e++) {
                    uint8_t *m = masks + (*e >> 4);
                    counts[cls[*m]]--;
                    *m ^= *e & 15;
                    counts[cls[*m]]++;
                }
            }
        }
        if (record)
            memcpy(record + b * c->nvertices, masks, c->nvertices);
    }
    memcpy(c->counts, counts, sizeof counts);
    c->index = index;
}

/* Runs `blocks` blocks of `thinning` steps at the class weights in
   `weights`, recording the masks after each block into `record` if given. */
void chain_run(struct chain *c, int64_t blocks, int64_t thinning, uint8_t *record)
{
    double ratio[16];
    ready(c);
    divide(c->weights, ratio);
    run_blocks(c, ratio, blocks, thinning, record);
}

/* Runs `particles` particles.  A particle starts uniformly on the coset:
   the reference orientation xor each move, in move order, where a coin (a
   word's top bit, as getrandbits(1)) says so; any move set of full rank
   makes this exact.  Stage g makes `thinning` steps at the 16 class-weight
   ratios ratios[16g .. 16g+15], then adds
   ((n_0 l_0 + n_1 l_1) + n_2 l_2) + n_3 l_3 to logw[particle], n_i the
   class counts and l = log_ratios + 4g the stage's row of log ratios. */
void chain_ais(struct chain *c, int64_t particles, int64_t stages, const double *ratios,
               int64_t thinning, const double *log_ratios, double *logw)
{
    int32_t *n = c->counts, j, v;
    const int32_t *e;
    int64_t p, g;
    ready(c);
    for (p = 0; p < particles; p++) {
        memcpy(c->masks, c->reference, c->nvertices);
        for (j = 0; j < c->nmoves; j++)
            if (draw(c, &c->index) >> 31)
                for (e = c->touch + c->start[j]; e < c->touch + c->start[j + 1]; e++)
                    c->masks[*e >> 4] ^= *e & 15;
        memset(n, 0, sizeof c->counts);
        for (v = 0; v < c->nvertices; v++)
            n[c->classes[c->masks[v]]]++;
        for (g = 0; g < stages; g++) {
            const double *l = log_ratios + 4 * g;
            run_blocks(c, ratios + 16 * g, 1, thinning, NULL);
            logw[p] += ((n[0] * l[0] + n[1] * l[1]) + n[2] * l[2]) + n[3] * l[3];
        }
    }
}
