// CPU sampler for hosts without perf: an LD_PRELOAD library that takes a
// backtrace of whichever thread is running on every SIGPROF (process CPU
// time, all threads) and writes the samples plus the process's memory map at
// exit. symbolize.py turns the file into a report.
//
//   LD_PRELOAD=libcpuprof.so CPUPROF_OUT=prof.txt ./binary args...
//
// Environment (read by this library only):
//   CPUPROF_OUT      output file (default cpuprof.<pid>.txt)
//   CPUPROF_HZ       samples per CPU-second (default 997)
//   CPUPROF_SECONDS  stop sampling this many wall seconds after start
//                    (default: sample until exit)
//
// The buffer is preallocated and filled with one atomic index, so the
// handler takes no lock; samples past the buffer's end are counted and
// dropped. backtrace() unwinds with the DWARF CFI of the interrupted code; it
// is warmed up once at load so the handler never triggers its lazy loading.
// Samples are written from a destructor, so the process must exit normally.
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

enum { kMaxFrames = 48, kMaxSamples = 1 << 16 };

struct Sample {
  int32_t tid;
  int32_t depth;
  void* pc[kMaxFrames];
};

static struct Sample* samples;
static atomic_uint next_sample;
static atomic_uint dropped;
static struct timespec deadline;  // tv_sec == 0: no deadline
static char out_path[4096];
static int hz = 997;

static void stop_timer(void) {
  struct itimerval off;
  memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, NULL);
}

static void on_sigprof(int sig, siginfo_t* info, void* uctx) {
  (void)sig;
  (void)info;
  (void)uctx;
  int saved_errno = errno;
  if (deadline.tv_sec != 0) {
    struct timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    if (now.tv_sec > deadline.tv_sec ||
        (now.tv_sec == deadline.tv_sec && now.tv_nsec >= deadline.tv_nsec)) {
      stop_timer();
      errno = saved_errno;
      return;
    }
  }
  unsigned i = atomic_fetch_add_explicit(&next_sample, 1, memory_order_relaxed);
  if (i >= kMaxSamples) {
    atomic_fetch_add_explicit(&dropped, 1, memory_order_relaxed);
  } else {
    struct Sample* s = &samples[i];
    s->tid = (int32_t)syscall(SYS_gettid);
    s->depth = backtrace(s->pc, kMaxFrames);
  }
  errno = saved_errno;
}

__attribute__((constructor)) static void cpuprof_start(void) {
  const char* out = getenv("CPUPROF_OUT");
  if (out != NULL && out[0] != '\0') {
    snprintf(out_path, sizeof(out_path), "%s", out);
  } else {
    snprintf(out_path, sizeof(out_path), "cpuprof.%d.txt", (int)getpid());
  }
  const char* h = getenv("CPUPROF_HZ");
  if (h != NULL && atoi(h) > 0) hz = atoi(h);
  const char* secs = getenv("CPUPROF_SECONDS");
  if (secs != NULL && atof(secs) > 0) {
    double d = atof(secs);
    clock_gettime(CLOCK_MONOTONIC, &deadline);
    deadline.tv_sec += (time_t)d;
    deadline.tv_nsec += (long)((d - (double)(time_t)d) * 1e9);
    if (deadline.tv_nsec >= 1000000000L) {
      deadline.tv_sec += 1;
      deadline.tv_nsec -= 1000000000L;
    }
  }
  samples = mmap(NULL, sizeof(struct Sample) * kMaxSamples, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (samples == MAP_FAILED) {
    samples = NULL;
    return;
  }
  void* warm[4];
  backtrace(warm, 4);  // loads the unwinder outside the signal handler

  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it;
  it.it_interval.tv_sec = 0;
  it.it_interval.tv_usec = 1000000 / hz;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void cpuprof_stop(void) {
  if (samples == NULL) return;
  stop_timer();
  FILE* f = fopen(out_path, "w");
  if (f == NULL) return;
  unsigned n = atomic_load(&next_sample);
  if (n > kMaxSamples) n = kMaxSamples;
  fprintf(f, "# cpuprof hz=%d samples=%u dropped=%u\n", hz, n, atomic_load(&dropped));
  fprintf(f, "# maps\n");
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof(line), maps) != NULL) fputs(line, f);
    fclose(maps);
  }
  fprintf(f, "# samples\n");
  for (unsigned i = 0; i < n; ++i) {
    const struct Sample* s = &samples[i];
    fprintf(f, "%d", (int)s->tid);
    for (int k = 0; k < s->depth; ++k) fprintf(f, " %lx", (unsigned long)(uintptr_t)s->pc[k]);
    fputc('\n', f);
  }
  fclose(f);
}
