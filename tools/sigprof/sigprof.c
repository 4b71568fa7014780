/* An LD_PRELOAD sampling profiler: SIGPROF on CPU time, frame-pointer walk,
 * raw stacks and /proc/self/maps dumped to $PROF_OUT.<pid> at exit.
 * See README.md; `fold` turns the dump into tables. Does nothing unless
 * PROF_OUT is set. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define HZ 250                  /* samples per second of CPU time */
#define DEPTH 48                /* frames kept per sample */
#define SAMPLES (1u << 18)      /* room for 17 minutes at 250 Hz */

typedef struct { uint64_t n, pc[DEPTH]; } sample_t;
static sample_t *samples;       /* mmap'd; a page is touched when first used */
static unsigned taken;
static uintptr_t stack_lo, stack_hi;  /* the main thread's [stack] mapping */

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    ucontext_t *uc = context;
#if defined(__x86_64__)
    uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP], fp = uc->uc_mcontext.gregs[REG_RBP],
              sp = uc->uc_mcontext.gregs[REG_RSP];
#elif defined(__aarch64__)
    uintptr_t pc = uc->uc_mcontext.pc, fp = uc->uc_mcontext.regs[29], sp = uc->uc_mcontext.sp;
#else
#error "sigprof knows x86-64 and aarch64"
#endif
    unsigned at = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (at >= SAMPLES) return;
    sample_t *s = &samples[at];
    s->pc[0] = pc;
    uint64_t n = 1;
    /* A frame is [saved fp, return address]. Follow the chain only while it
     * stays inside the main thread's stack and climbs: another thread's
     * sample, or a leaf that uses the register for something else, keeps
     * its pc alone. */
    while (n < DEPTH && fp >= sp && fp >= stack_lo && fp + 16 <= stack_hi && fp % 8 == 0) {
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (ret == 0) break;
        s->pc[n++] = ret;
        if (next <= fp) break;
        fp = next;
    }
    s->n = n;
}

static void copy_maps(FILE *out) {
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    while (maps && fgets(line, sizeof line, maps)) {
        uintptr_t lo, hi;
        if (out) fprintf(out, "M %s", line);
        else if (strstr(line, "[stack]") && sscanf(line, "%lx-%lx", &lo, &hi) == 2)
            stack_lo = lo, stack_hi = hi;
    }
    if (maps) fclose(maps);
}

__attribute__((constructor)) static void start(void) {
    if (!getenv("PROF_OUT")) return;
    samples = mmap(NULL, sizeof(sample_t) * SAMPLES, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (samples == MAP_FAILED) { samples = NULL; return; }
    copy_maps(NULL);
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000000 / HZ}, {0, 1000000 / HZ}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    if (!samples) return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", getenv("PROF_OUT"), (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out) return;
    copy_maps(out);
    unsigned n = taken < SAMPLES ? taken : SAMPLES;
    for (unsigned i = 0; i < n; i++) {
        fputc('S', out);
        for (uint64_t f = 0; f < samples[i].n; f++) fprintf(out, " %lx", (unsigned long)samples[i].pc[f]);
        fputc('\n', out);
    }
    fclose(out);
}
