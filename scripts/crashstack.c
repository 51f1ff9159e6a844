// Crash-stack reporter for hosts without a debugger: an LD_PRELOAD library
// that, when the process dies of SIGSEGV, SIGBUS, SIGFPE, SIGILL or SIGABRT,
// writes the faulting thread's backtrace to stderr and re-raises the signal
// with its default action (so the exit status and any core dump are those of
// the crash).
//
//   LD_PRELOAD=libcrashstack.so ./binary args...
//
// Each frame is one line "crashstack: #<i> <object> +0x<offset>", the offset
// relative to the object's load base, which `addr2line -Cfip -e <object>
// 0x<offset>` resolves for position-independent executables and shared
// libraries (scripts/check.sh --stress does that). On the main thread the
// handler runs on an alternate stack, so a stack overflow there still
// reports. backtrace() is warmed up once at load so the handler never
// triggers its lazy loading; dladdr() is not async-signal-safe, which a dying
// process can afford.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxFrames = 64 };

static const int kSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};

static void put(const char* s) {
  size_t n = strlen(s);
  while (n > 0) {
    ssize_t w = write(STDERR_FILENO, s, n);
    if (w <= 0) return;
    s += w;
    n -= (size_t)w;
  }
}

// The interrupted instruction, from the signal context (NULL where unknown).
static void* fault_pc(void* uctx) {
#if defined(__x86_64__)
  return (void*)((ucontext_t*)uctx)->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  return (void*)((ucontext_t*)uctx)->uc_mcontext.pc;
#else
  (void)uctx;
  return NULL;
#endif
}

static void on_crash(int sig, siginfo_t* info, void* uctx) {
  char line[4200];
  snprintf(line, sizeof(line), "crashstack: signal %d (%s) at %p, thread %ld\n", sig,
           strsignal(sig), info->si_addr, (long)syscall(SYS_gettid));
  put(line);
  void* pc[kMaxFrames];
  int depth = backtrace(pc, kMaxFrames);
  // Skip the handler and the signal trampoline: start at the interrupted
  // instruction when the unwinder found it.
  int first = 0;
  void* at = fault_pc(uctx);
  for (int i = 0; i < depth; ++i) {
    if (pc[i] == at) first = i;
  }
  for (int i = first; i < depth; ++i) {
    Dl_info dl;
    if (dladdr(pc[i], &dl) != 0 && dl.dli_fname != NULL) {
      // Above the faulting frame, a return address points after its call;
      // step back into the call.
      unsigned long off =
          (unsigned long)((char*)pc[i] - (char*)dl.dli_fbase) - (i > first ? 1 : 0);
      snprintf(line, sizeof(line), "crashstack: #%d %s +0x%lx\n", i - first, dl.dli_fname,
               off);
    } else {
      snprintf(line, sizeof(line), "crashstack: #%d ? %p\n", i - first, pc[i]);
    }
    put(line);
  }
  signal(sig, SIG_DFL);
  raise(sig);
}

__attribute__((constructor)) static void crashstack_init(void) {
  void* warm[1];
  backtrace(warm, 1);
  static char alt[1 << 16];
  stack_t ss;
  memset(&ss, 0, sizeof(ss));
  ss.ss_sp = alt;
  ss.ss_size = sizeof(alt);
  sigaltstack(&ss, NULL);
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = on_crash;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  for (size_t i = 0; i < sizeof(kSignals) / sizeof(kSignals[0]); ++i) {
    sigaction(kSignals[i], &sa, NULL);
  }
}
