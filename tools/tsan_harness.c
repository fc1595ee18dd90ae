/* ThreadSanitizer harness for the native kernel thread pool.
 *
 * Compiled together with the embedded kernel source (extracted from
 * engine/backend.py's _C_SOURCE) and -fsanitize=thread, so every byte of
 * the pthread fan-out/join, the per-block output slicing and the
 * atomics-guarded config globals runs fully instrumented — no LD_PRELOAD
 * into an uninstrumented interpreter required, which keeps the leg
 * portable across CPython builds that libtsan cannot be preloaded into.
 *
 * For every thread count {2, 3, 8} x kernel {popcount, fused counts,
 * fused bits} x mode {dominated, dominator} x live-mask {present,
 * absent}, the output must be byte-identical to the 1-thread pass (the
 * determinism contract the Python parity suite pins against numpy).
 * The work-size gate is forced open so even this small workload takes
 * the threaded path.
 *
 * The kernels are built with -DREPRO_NO_CLONES: a target_clones ifunc
 * resolver runs during relocation, before the TSan runtime has
 * initialised, and crashes an instrumented executable.  The clones only
 * change the ISA of each kernel body, not the thread pool under test.
 *
 * Build (CI does exactly this):
 *   python -c "import pathlib,sys; sys.path.insert(0,'src'); \
 *     from repro.engine.backend import _C_SOURCE; \
 *     pathlib.Path('kernels_tsan.c').write_text(_C_SOURCE)"
 *   gcc -O2 -g -std=c99 -fsanitize=thread -pthread -DREPRO_NO_CLONES \
 *     tools/tsan_harness.c kernels_tsan.c -o tsan_harness
 *   ./tsan_harness
 */

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* Exported kernel API (mirrors the ctypes declarations; REP007 guards the
 * canonical copies in backend.py). */
void repro_popcount_rows(const uint64_t *words, int64_t b, int64_t w,
                         int64_t *out);
void repro_fused_counts(const uint64_t **suffix, const uint64_t **prefix,
                        const int64_t *rank_ge, const int64_t *rank_le,
                        const uint64_t *live, int64_t b, int64_t d, int64_t w,
                        int32_t mode, int64_t *out);
void repro_fused_bits(const uint64_t **suffix, const uint64_t **prefix,
                      const int64_t *rank_ge, const int64_t *rank_le,
                      int64_t b, int64_t d, int64_t w, int32_t mode,
                      uint64_t *out);
int32_t repro_set_threads(int32_t n);
int64_t repro_set_thread_min_words(int64_t words);

#define N_ROWS 257 /* rank-table rows (prefix/suffix tables are (N_ROWS, W)) */
#define W 40       /* words per bitmap row */
#define B 1024     /* queries per pass */
#define MAX_D 5

static uint64_t lcg_state = 0x9e3779b97f4a7c15ULL;

static uint64_t lcg(void) {
    lcg_state = lcg_state * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg_state;
}

static void fill_words(uint64_t *buf, size_t count) {
    for (size_t i = 0; i < count; ++i)
        buf[i] = lcg();
}

static void fill_ranks(int64_t *buf, size_t count) {
    for (size_t i = 0; i < count; ++i)
        buf[i] = (int64_t)(lcg() % N_ROWS);
}

static int failures = 0;

static void expect_same(const void *got, const void *want, size_t bytes,
                        const char *what, int threads) {
    if (memcmp(got, want, bytes) != 0) {
        fprintf(stderr, "MISMATCH: %s at %d thread(s)\n", what, threads);
        ++failures;
    }
}

int main(void) {
    static const int thread_counts[] = {2, 3, 8};
    uint64_t *tables[2][MAX_D]; /* [suffix|prefix][dim] */
    const uint64_t *suffix[MAX_D], *prefix[MAX_D];
    for (int half = 0; half < 2; ++half)
        for (int dim = 0; dim < MAX_D; ++dim) {
            tables[half][dim] = malloc(N_ROWS * W * sizeof(uint64_t));
            fill_words(tables[half][dim], N_ROWS * W);
        }
    uint64_t *pop_words = malloc(B * W * sizeof(uint64_t));
    fill_words(pop_words, B * W);
    int64_t *rank_ge = malloc(B * MAX_D * sizeof(int64_t));
    int64_t *rank_le = malloc(B * MAX_D * sizeof(int64_t));
    fill_ranks(rank_ge, B * MAX_D);
    fill_ranks(rank_le, B * MAX_D);
    uint64_t live[W];
    fill_words(live, W);
    for (int dim = 0; dim < MAX_D; ++dim) {
        suffix[dim] = tables[0][dim];
        prefix[dim] = tables[1][dim];
    }

    int64_t pop_ref[B], pop_out[B];
    int64_t cnt_ref[2][2][2][B], cnt_out[B]; /* [mode][live?][d==5?] */
    uint64_t *bits_ref[2] = {malloc(B * W * sizeof(uint64_t)),
                             malloc(B * W * sizeof(uint64_t))};
    uint64_t *bits_out = malloc(B * W * sizeof(uint64_t));

    repro_set_thread_min_words(0); /* tiny workload must still thread */

    /* 1-thread reference */
    repro_set_threads(1);
    for (int mode = 0; mode < 2; ++mode) {
        for (int with_live = 0; with_live < 2; ++with_live)
            for (int gen = 0; gen < 2; ++gen)
                repro_fused_counts(suffix, prefix, rank_ge, rank_le,
                                   with_live ? live : NULL, B, gen ? 5 : 4, W,
                                   mode, cnt_ref[mode][with_live][gen]);
        repro_fused_bits(suffix, prefix, rank_ge, rank_le, B, 4, W, mode,
                         bits_ref[mode]);
    }
    repro_popcount_rows(pop_words, B, W, pop_ref);

    /* threaded passes must be byte-identical to the reference */
    for (size_t t = 0; t < sizeof(thread_counts) / sizeof(*thread_counts);
         ++t) {
        int threads = thread_counts[t];
        if (repro_set_threads(threads) != threads)
            continue; /* REPRO_NO_THREADS build: nothing to race */
        for (int mode = 0; mode < 2; ++mode) {
            for (int with_live = 0; with_live < 2; ++with_live)
                for (int gen = 0; gen < 2; ++gen) {
                    repro_fused_counts(suffix, prefix, rank_ge, rank_le,
                                       with_live ? live : NULL, B,
                                       gen ? 5 : 4, W, mode, cnt_out);
                    expect_same(cnt_out, cnt_ref[mode][with_live][gen],
                                sizeof(cnt_out), "fused counts", threads);
                }
            repro_fused_bits(suffix, prefix, rank_ge, rank_le, B, 4, W, mode,
                             bits_out);
            expect_same(bits_out, bits_ref[mode], B * W * sizeof(uint64_t),
                        "fused bits", threads);
        }
        repro_popcount_rows(pop_words, B, W, pop_out);
        expect_same(pop_out, pop_ref, sizeof(pop_out), "popcount", threads);
    }

    if (failures) {
        fprintf(stderr, "FAIL: %d mismatch(es)\n", failures);
        return 1;
    }
    printf("tsan harness OK: threads {1,2,3,8}, all byte-identical\n");
    return 0;
}
