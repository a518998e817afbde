/*
 * Heap census, loaded with LD_PRELOAD into one process.
 *
 * Wraps malloc, calloc, realloc, free, posix_memalign, aligned_alloc
 * and memalign around glibc's own entry points (__libc_*), keeps the
 * live heap (usable bytes, as malloc_usable_size reports them) per
 * power-of-two size class, and copies that table whenever the live
 * total reaches a new peak. At exit it writes
 * $HERMES_PROF_OUT/census.<pid> (default directory: the current one):
 *
 *     peak_live_bytes <bytes>
 *     allocations <count>
 *     class <lo> <hi> <blocks at the peak> <bytes at the peak>
 *     ...
 *
 * Only the process that loads the library is counted, and it writes
 * its own file. The copy at each new peak makes allocation-heavy
 * programs slower under the census; its numbers are bytes, not time.
 *
 * Build: gcc -shared -fPIC -O2 -o census.so census.c
 */
#define _GNU_SOURCE
#include <errno.h>
#include <malloc.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void __libc_free(void *);
extern void *__libc_memalign(size_t, size_t);

#define CLASSES 64

struct table {
    unsigned long blocks[CLASSES];
    unsigned long bytes[CLASSES];
};

static struct table live, at_peak;
static unsigned long live_total, peak_total, allocations;
static char busy;

static void lock(void) {
    while (__atomic_test_and_set(&busy, __ATOMIC_ACQUIRE)) {
    }
}

static void unlock(void) { __atomic_clear(&busy, __ATOMIC_RELEASE); }

/* Class k holds usable sizes in [2^k, 2^(k+1)). */
static int class_of(size_t n) { return n ? 63 - __builtin_clzl(n) : 0; }

static void count_alloc(void *p) {
    if (!p) return;
    size_t n = malloc_usable_size(p);
    int c = class_of(n);
    lock();
    allocations++;
    live.blocks[c]++;
    live.bytes[c] += n;
    live_total += n;
    if (live_total > peak_total) {
        peak_total = live_total;
        at_peak = live;
    }
    unlock();
}

static void count_free(size_t n) {
    int c = class_of(n);
    lock();
    live.blocks[c]--;
    live.bytes[c] -= n;
    live_total -= n;
    unlock();
}

void *malloc(size_t n) {
    void *p = __libc_malloc(n);
    count_alloc(p);
    return p;
}

void *calloc(size_t k, size_t n) {
    void *p = __libc_calloc(k, n);
    count_alloc(p);
    return p;
}

void free(void *p) {
    if (!p) return;
    count_free(malloc_usable_size(p));
    __libc_free(p);
}

void *realloc(void *p, size_t n) {
    size_t old = p ? malloc_usable_size(p) : 0;
    void *q = __libc_realloc(p, n);
    /* A failed resize leaves the old block live; realloc(p, 0) frees it. */
    if (q || n == 0) {
        if (p) count_free(old);
        count_alloc(q);
    }
    return q;
}

void *memalign(size_t align, size_t n) {
    void *p = __libc_memalign(align, n);
    count_alloc(p);
    return p;
}

void *aligned_alloc(size_t align, size_t n) { return memalign(align, n); }

int posix_memalign(void **out, size_t align, size_t n) {
    if (align < sizeof(void *) || (align & (align - 1))) return EINVAL;
    void *p = memalign(align, n);
    if (!p) return ENOMEM;
    *out = p;
    return 0;
}

__attribute__((destructor)) static void census_report(void) {
    lock();
    struct table t = at_peak;
    unsigned long peak = peak_total, allocs = allocations;
    unlock();
    const char *dir = getenv("HERMES_PROF_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s/census.%d", dir ? dir : ".", (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f) return;
    fprintf(f, "peak_live_bytes %lu\nallocations %lu\n", peak, allocs);
    for (int c = 0; c < CLASSES; c++) {
        if (t.blocks[c])
            fprintf(f, "class %lu %lu %lu %lu\n", 1ul << c, (2ul << c) - 1, t.blocks[c], t.bytes[c]);
    }
    fclose(f);
}
