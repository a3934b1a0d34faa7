// A sampling profiler that sees every object mapped into the process,
// libm, libc and the kernel's vDSO included, where gprof charges only the
// main binary. Preload it into any program and name an output file:
//
//   export PQS_SAMPLER_OUT=prof.txt
//   LD_PRELOAD=build/tools/sampler/libpqs_sampler.so build/examples/quickstart
//   python3 tools/sampler/report.py prof.txt
//
// A setitimer(ITIMER_PROF) timer asks for a SIGPROF every millisecond of
// CPU time the process uses; the kernel delivers it at its tick (about
// 4 ms on a 250 Hz kernel). The handler stores the interrupted program
// counter in a static buffer and does nothing else. At exit the library
// writes /proc/self/maps and the program counters to $PQS_SAMPLER_OUT,
// and report.py symbolizes them. Without PQS_SAMPLER_OUT it stays idle.
// Each process that loads it writes the file at its own exit, so preload
// it into the program itself, not into a wrapper that runs the program.
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr long kIntervalUs = 1000;
// 2^20 samples is over an hour of CPU time at the kernel tick.
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;

std::uintptr_t g_pcs[kMaxSamples];
std::atomic<std::size_t> g_taken{0};
const char* g_out = nullptr;

std::uintptr_t interrupted_pc(const void* context) {
    const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
    return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
    (void)uc;
    return 0;
#endif
}

// Async-signal-safe: one relaxed increment and one store.
void on_sigprof(int, siginfo_t*, void* context) {
    const std::size_t at = g_taken.fetch_add(1, std::memory_order_relaxed);
    if (at < kMaxSamples) {
        g_pcs[at] = interrupted_pc(context);
    }
}

void set_timer(long interval_us) {
    itimerval timer{};
    timer.it_interval.tv_usec = interval_us;
    timer.it_value.tv_usec = interval_us;
    setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((constructor)) void start_sampling() {
    g_out = std::getenv("PQS_SAMPLER_OUT");
    if (g_out == nullptr || *g_out == '\0') {
        g_out = nullptr;
        return;
    }
    struct sigaction action {};
    action.sa_sigaction = on_sigprof;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, nullptr);
    set_timer(kIntervalUs);
}

// Output: a header line, the process's memory map, then one hex program
// counter per line.
__attribute__((destructor)) void write_samples() {
    if (g_out == nullptr) {
        return;
    }
    set_timer(0);
    std::FILE* out = std::fopen(g_out, "w");
    if (out == nullptr) {
        std::perror("pqs_sampler: PQS_SAMPLER_OUT");
        return;
    }
    const std::size_t taken = g_taken.load();
    const std::size_t kept = taken < kMaxSamples ? taken : kMaxSamples;
    std::fprintf(out,
                 "pqs_sampler 1 interval_us %ld samples %zu dropped %zu\n",
                 kIntervalUs, kept, taken - kept);
    std::fputs("maps\n", out);
    if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
        char buf[4096];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof buf, maps)) > 0) {
            std::fwrite(buf, 1, n, out);
        }
        std::fclose(maps);
    }
    std::fputs("pcs\n", out);
    for (std::size_t i = 0; i < kept; ++i) {
        std::fprintf(out, "%lx\n", static_cast<unsigned long>(g_pcs[i]));
    }
    std::fclose(out);
}

}  // namespace
