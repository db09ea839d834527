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
   from Python; chain_anneal runs a chain's whole annealing schedule, stage
   after stage, from a cursor kept in the state, so that a caller can cut
   it into calls of bounded length.  Both fill the factor tables from the
   four class weights with the same divisions as Chain.set_params.  Build
   with -ffp-contract=off, so that no multiply and add fuse into one
   rounding. */
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
    double laziness;
    double weights[4];     /* the class weights of Chain.set_params */
    const int32_t *start;  /* move j is entries start[j] .. start[j+1]-1 of touch */
    const int32_t *touch;  /* per entry, vertex << 4 | the label bits it flips */
    uint8_t *masks;        /* per vertex, the labels that point in */
    double factors[256];   /* [xm << 4 | mask]: the weight ratio of flipping xm at mask */
    uint32_t words[N];     /* mt tempered: the next draws are words[index..] */
    int32_t stage;         /* chain_anneal's cursor: the stage it runs next */
    int64_t done;          /* and the steps of that stage made so far */
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

/* Fills the factor tables from the weights as Chain.set_params does, one
   division per ratio, skipping odd masks, which no even orientation has. */
static void fill_factors(struct chain *c)
{
    double ratio[4][4];
    int a, b, xm, m;
    for (a = 0; a < 4; a++)
        for (b = 0; b < 4; b++)
            ratio[a][b] = c->weights[a] / c->weights[b];
    for (xm = 0; xm < 16; xm++)
        for (m = 0; m < 16; m++) {
            int32_t from = c->classes[m], to = c->classes[m ^ xm];
            if (from >= 0 && to >= 0)
                c->factors[xm << 4 | m] = ratio[to][from];
        }
}

/* Runs `blocks` blocks of `thinning` steps with the factor tables as they
   stand.  With `pows` (four tables of `stride` entries, indexed by class
   count), each block ends by adding w = pows_0[n_0] * pows_1[n_1] *
   pows_2[n_2] * pows_3[n_3] to sums[0] and w * w to sums[1].  With
   `record`, each block ends by copying the masks into the next nvertices
   bytes of it.  The generator's index and the class counts live in locals
   until it returns. */
static void run_blocks(struct chain *c, int64_t blocks, int64_t thinning,
                       const double *pows, int32_t stride, double *sums, uint8_t *record)
{
    uint8_t *masks = c->masks;
    const int32_t *touch = c->touch, *start = c->start, *cls = c->classes;
    const double *factors = c->factors, laziness = c->laziness;
    uint32_t shift = 32 - c->bits, nmoves = c->nmoves, j;
    int32_t index = c->index, counts[4];
    int64_t b, t;
    const int32_t *e, *end;
    if (!c->tempered) {
        temper(c->mt, c->words);
        c->tempered = 1;
    }
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
        if (pows) {
            double w = pows[counts[0]] * pows[stride + counts[1]]
                       * pows[2 * stride + counts[2]] * pows[3 * stride + counts[3]];
            sums[0] += w;
            sums[1] += w * w;
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
    fill_factors(c);
    run_blocks(c, blocks, thinning, NULL, 0, NULL, record);
}

/* Runs an annealing schedule of `stages` stages from the cursor (stage,
   done), for at most `budget` steps, or one block where that is longer,
   and returns the steps it made.  Stage g sets the class weights to
   params[4g .. 4g+3], makes `burn` steps, then `samples` blocks of
   `thinning` steps, which add to sums[2g] and sums[2g + 1] as run_blocks
   does.  A call that stops inside a stage leaves the cursor there, and the
   next call resumes it. */
int64_t chain_anneal(struct chain *c, int32_t stages, const double *params, int64_t burn,
                     int64_t samples, int64_t thinning, const double *pows, int32_t stride,
                     double *sums, int64_t budget)
{
    int64_t made = 0, n, fit;
    for (; c->stage < stages; c->stage++, c->done = 0) {
        memcpy(c->weights, params + 4 * c->stage, sizeof c->weights);
        fill_factors(c);
        n = burn - c->done < budget - made ? burn - c->done : budget - made;
        if (n > 0) {
            run_blocks(c, 1, n, NULL, 0, NULL, NULL);
            c->done += n;
            made += n;
        }
        if (c->done < burn)
            break;
        n = samples - (c->done - burn) / thinning; /* the stage's blocks left */
        fit = (budget - made) / thinning;
        if (n > fit)
            n = fit > 0 || made > 0 ? fit : 1; /* a call makes one block at least */
        run_blocks(c, n, thinning, pows, stride, sums + 2 * c->stage, NULL);
        c->done += n * thinning;
        made += n * thinning;
        if (c->done < burn + samples * thinning)
            break;
    }
    return made;
}
