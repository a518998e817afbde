/*
 * SIGPROF sampler, loaded with LD_PRELOAD into one process.
 *
 * A constructor arms ITIMER_PROF (every millisecond of the process's
 * CPU time) and the handler stores the interrupted instruction pointer,
 * read from the signal's ucontext, in a fixed buffer. The kernel checks
 * the timer once per scheduler tick, so on a 250 Hz kernel a sample
 * comes every 4 ms; a shorter period would give no more. At exit the
 * samples are written to $HERMES_PROF_OUT/samples.<pid> (default
 * directory: the current one), one line per sample:
 *
 *     <object path> <address relative to the object's load base, hex>
 *
 * which is the address addr2line expects for that object (PIE or
 * shared library alike). Nothing here touches another process: each
 * process that loads the library samples itself and writes its own
 * file.
 *
 * Build: gcc -shared -fPIC -O2 -o sampler.so sampler.c
 */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 21)

static uint64_t samples[MAX_SAMPLES];
/* Samples taken; may exceed MAX_SAMPLES, in which case the rest were dropped. */
static unsigned long n_taken;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    ucontext_t *uc = ctx;
    unsigned long i = __atomic_fetch_add(&n_taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) samples[i] = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void sampler_start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {.it_interval = {0, 1000}, .it_value = {0, 1000}};
    setitimer(ITIMER_PROF, &it, NULL);
}

/* The object (and its load base) whose PT_LOAD segment holds `addr`. */
struct lookup {
    uint64_t addr;
    uint64_t base;
    const char *name;
};

static int find_object(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    struct lookup *l = data;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD) continue;
        uint64_t lo = info->dlpi_addr + ph->p_vaddr;
        if (l->addr >= lo && l->addr < lo + ph->p_memsz) {
            l->base = info->dlpi_addr;
            l->name = info->dlpi_name;
            return 1;
        }
    }
    return 0;
}

__attribute__((destructor)) static void sampler_stop(void) {
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);

    char exe[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len > 0 ? len : 0] = '\0';
    const char *dir = getenv("HERMES_PROF_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s/samples.%d", dir ? dir : ".", (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f) return;
    unsigned long n = __atomic_load_n(&n_taken, __ATOMIC_RELAXED);
    unsigned long kept = n < MAX_SAMPLES ? n : MAX_SAMPLES;
    for (unsigned long i = 0; i < kept; i++) {
        struct lookup l = {samples[i], 0, NULL};
        if (dl_iterate_phdr(find_object, &l) == 0) {
            fprintf(f, "? %#lx\n", (unsigned long)samples[i]);
            continue;
        }
        const char *name = (l.name && l.name[0]) ? l.name : exe;
        fprintf(f, "%s %#lx\n", name, (unsigned long)(l.addr - l.base));
    }
    fclose(f);
    if (n > kept) fprintf(stderr, "sampler: buffer full, %lu samples dropped\n", n - kept);
}
