/* The step loop of eightvertex.mcmc.Chain, compiled.

   It makes the Python loop's draws and float operations in the same order,
   so a seed gives the same run byte for byte.  The draws are CPython's
   (3.10-3.13, Modules/_randommodule.c): MT19937 (Matsumoto and Nishimura,
   ACM TOMACS 1998) words, random() from two words, and getrandbits(k) for
   k <= 32 as one word shifted right by 32 - k.  Each twist of the state
   tempers all 624 new words into a buffer, so a draw is one load; a state
   copied in with words left to draw (tempered = 0) is tempered on the
   first call.  The mt array stays the untempered state that getstate()
   returns.  chain_run makes plain or recorded blocks at the weights set
   from Python; chain_ais runs particles of annealed importance sampling
   (Neal, Statistics and Computing 2001), each from an exact uniform start
   through every stage.  Every call runs to its end: Chain bounds a call by
   the blocks or particles it hands over.  Both fill the factor tables from
   the four class weights with the same divisions as Chain.set_params, at
   the flip masks the moves use.  Build with -ffp-contract=off, so that no
   multiply and add fuse into one rounding. */
#include <stdint.h>
#include <string.h>

#define N 624
#define M 397

struct chain {
    uint32_t mt[N];      /* the state of random.Random: getstate()[1] */
    int32_t index;
    int32_t tempered;    /* whether words holds mt tempered */
    int32_t nmoves, bits, nvertices;
    int32_t classes[16]; /* in-mask -> class (states.CLASS16), -1 for odd masks */
    int32_t counts[4];   /* vertices per class */
    int32_t flips;       /* bit xm set where some move flips the labels xm of a vertex */
    double laziness;
    double weights[4];     /* the class weights of Chain.set_params */
    const int32_t *start;  /* move j is entries start[j] .. start[j+1]-1 of touch */
    const int32_t *touch;  /* per entry, vertex << 4 | the label bits it flips */
    const uint8_t *reference; /* per vertex, the reference orientation's in-mask */
    uint8_t *masks;        /* per vertex, the labels that point in */
    double factors[256];   /* [xm << 4 | mask]: the weight ratio of flipping xm at mask */
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

/* Tempers a state copied in with words left to draw, once. */
static void ready(struct chain *c)
{
    if (!c->tempered)
        temper(c->mt, c->words);
    c->tempered = 1;
}

/* Fills the factor tables from the weights as Chain.set_params does: one
   division per ratio, then an entry per flip mask the moves use and even
   mask, the only masks an even orientation has. */
static void fill_factors(struct chain *c)
{
    double ratio[4][4];
    int a, b, xm, m;
    for (a = 0; a < 4; a++)
        for (b = 0; b < 4; b++)
            ratio[a][b] = c->weights[a] / c->weights[b];
    for (xm = 0; xm < 16; xm++)
        if (c->flips >> xm & 1)
            for (m = 0; m < 16; m++)
                if (c->classes[m] >= 0)
                    c->factors[xm << 4 | m] = ratio[c->classes[m ^ xm]][c->classes[m]];
}

/* Runs `blocks` blocks of `thinning` steps with the factor tables as they
   stand.  With `record`, each block ends by copying the masks into the
   next nvertices bytes of it.  The generator's index and the class counts
   live in locals until it returns. */
static void run_blocks(struct chain *c, int64_t blocks, int64_t thinning, uint8_t *record)
{
    uint8_t *masks = c->masks;
    const int32_t *touch = c->touch, *start = c->start, *cls = c->classes;
    const double *factors = c->factors, laziness = c->laziness;
    uint32_t shift = 32 - c->bits, nmoves = c->nmoves, j;
    int32_t index = c->index, counts[4];
    int64_t b, t;
    const int32_t *e, *end;
    memcpy(counts, c->counts, sizeof counts);
    for (b = 0; b < blocks; b++) {
        for (t = 0; t < thinning; t++) {
            double ratio = 1.0;
            if (random53(c, &index) < laziness)
                continue;
            do
                j = draw(c, &index) >> shift;
            while (j >= nmoves);
            end = touch + start[j + 1];
            for (e = touch + start[j]; e < end; e++)
                ratio *= factors[(*e & 15) << 4 | masks[*e >> 4]];
            if (ratio >= 1.0 || random53(c, &index) < ratio) {
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
    ready(c);
    fill_factors(c);
    run_blocks(c, blocks, thinning, record);
}

/* Runs `particles` particles.  A particle starts uniformly on the coset:
   the reference orientation xor each move, in move order, where a coin (a
   word's top bit, as getrandbits(1)) says so; any move set of full rank
   makes this exact.  Stage g sets the class weights to params[4g .. 4g+3],
   makes `thinning` steps, then adds
   ((lp_0[n_0] + lp_1[n_1]) + lp_2[n_2]) + lp_3[n_3] to logw[particle],
   where lp_i is the table log_pows + i * stride indexed by class count. */
void chain_ais(struct chain *c, int64_t particles, int64_t stages, const double *params,
               int64_t thinning, const double *log_pows, int32_t stride, double *logw)
{
    const double *lp = log_pows;
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
            memcpy(c->weights, params + 4 * g, sizeof c->weights);
            fill_factors(c);
            run_blocks(c, 1, thinning, NULL);
            logw[p] += ((lp[n[0]] + lp[stride + n[1]]) + lp[2 * stride + n[2]])
                       + lp[3 * stride + n[3]];
        }
    }
}
