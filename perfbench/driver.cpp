// perfbench_driver — the measuring half of the repository benchmark.
//
// Runs one named workload against the public pqs APIs (net::World,
// core::LocationService, svc::KvService, sim::Simulator), times those
// calls from the outside (thread CPU time for set-up and measured
// sections, wall time for single API calls), and prints one JSON object
// of raw measurements on stdout. perfbench/run.py builds this program,
// aggregates its output (medians, percentiles, ratios) and checks it.
//
// Usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//
// A run is a sequence of passes. Every pass replays the same seed-derived
// trials, so every deterministic number of a pass must equal the first
// pass's (the in-run repeat check, via a fingerprint per pass). Passes
// continue until --seconds of wall time is used. With --trace 1, untraced
// and traced passes alternate: traced passes install an obs::TraceSink and
// per-call wall timers and give the per-layer numbers; the pair gives the
// tracing overhead. Each world's CPU times come with a reading of the host
// gauge (see HostGauge) taken while it ran.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include <time.h>
#include <unistd.h>

#include "core/location_service.h"
#include "core/quorum_optimizer.h"
#include "core/register.h"
#include "core/scenario.h"
#include "membership/oracle_membership.h"
#include "net/node_stack.h"
#include "net/world.h"
#include "obs/trace.h"
#include "svc/kv_service.h"
#include "svc/zipf.h"
#include "util/kernel_stats.h"
#include "util/mem.h"
#include "util/rng.h"

namespace pqs::perfbench {
namespace {

// Wall clock: the run's time budget and the per-call spans.
double wall_now() {
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

// Host CPU time of the calling thread, for set-up and measured sections.
// The simulator is single-threaded and does no I/O, so on an idle core
// this equals wall time; unlike wall time it leaves out the time other
// processes on a shared machine take from the core.
double cpu_now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------- JSON --

class Json {
public:
    Json& open(char c) {
        comma();
        out_ += c;
        first_ = true;
        return *this;
    }
    Json& close(char c) {
        out_ += c;
        first_ = false;
        return *this;
    }
    Json& key(const std::string& k) {
        comma();
        out_ += '"' + k + "\": ";
        first_ = true;  // the value follows without a comma
        return *this;
    }
    Json& num(double v) {
        comma();
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
        out_ += buf;
        return *this;
    }
    Json& num(std::uint64_t v) {
        comma();
        out_ += std::to_string(v);
        return *this;
    }
    Json& num(std::int64_t v) {
        comma();
        out_ += std::to_string(v);
        return *this;
    }
    Json& boolean(bool v) {
        comma();
        out_ += v ? "true" : "false";
        return *this;
    }
    Json& str(const std::string& v) {
        comma();
        out_ += '"';
        for (const char c : v) {
            if (c == '"' || c == '\\') {
                out_ += '\\';
            }
            out_ += c;
        }
        out_ += '"';
        return *this;
    }
    template <typename T>
    Json& field(const std::string& k, T v) {
        key(k);
        return num(v);
    }
    template <typename T>
    Json& array(const std::string& k, const std::vector<T>& values) {
        key(k).open('[');
        for (const T v : values) {
            num(v);
        }
        return close(']');
    }
    const std::string& text() const { return out_; }

private:
    void comma() {
        if (!first_) {
            out_ += ", ";
        }
        first_ = false;
    }
    std::string out_;
    bool first_ = true;
};

// ------------------------------------------------------ deterministic --

// Everything a pass measures in virtual time or counts: a pure function
// of the seed. Serialized, it is both the run's deterministic output and
// the input of the per-pass fingerprint.
struct Det {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t other_ops = 0;  // churn actions (scale_churn_100k)
    std::uint64_t read_failed = 0;
    std::uint64_t write_failed = 0;
    std::uint64_t other_failed = 0;
    std::uint64_t completed = 0;
    std::uint64_t censored = 0;
    std::uint64_t wrong = 0;  // ops that returned a value nobody wrote
    std::vector<std::int64_t> read_ns;   // virtual latency per read
    std::vector<std::int64_t> write_ns;  // virtual latency per write
    double data_tx = 0.0;
    double routing_tx = 0.0;
    double hello_tx = 0.0;
    // Per trial (world): ops issued and data + routing transmissions.
    std::vector<std::uint64_t> trial_ops;
    std::vector<double> trial_msgs;
    double node_seconds = 0.0;  // sum over trials of n * measured window
    std::vector<std::uint64_t> kernel;  // measured-section deltas
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_invalidations = 0;
    double mrw_load_sum = 0.0;
    std::uint64_t lookups = 0;  // paper_walks_80211 hit-ratio check
    std::uint64_t hits = 0;
    std::uint64_t intersections = 0;
    double floor_sum = 0.0;  // per-trial Lemma 5.2 guarantee, summed
    std::uint64_t arena_high_water = 0;
    std::vector<std::pair<std::string, bool>> checks;
    std::vector<std::string> failures;  // details of failed checks

    void check(const std::string& name, bool ok, const std::string& why) {
        for (auto& c : checks) {
            if (c.first == name) {
                c.second = c.second && ok;
                if (!ok) {
                    failures.push_back(name + ": " + why);
                }
                return;
            }
        }
        checks.emplace_back(name, ok);
        if (!ok) {
            failures.push_back(name + ": " + why);
        }
    }

    void write(Json& j) const {
        j.open('{');
        j.field("reads", reads).field("writes", writes);
        j.field("other_ops", other_ops);
        j.field("read_failed", read_failed).field("write_failed", write_failed);
        j.field("other_failed", other_failed);
        j.field("completed", completed).field("censored", censored);
        j.field("wrong", wrong);
        j.field("data_tx", data_tx).field("routing_tx", routing_tx);
        j.field("hello_tx", hello_tx).field("node_seconds", node_seconds);
        j.field("cache_hits", cache_hits).field("cache_misses", cache_misses);
        j.field("cache_invalidations", cache_invalidations);
        j.field("mrw_load_sum", mrw_load_sum);
        j.field("lookups", lookups).field("hits", hits);
        j.field("intersections", intersections).field("floor_sum", floor_sum);
        j.field("arena_high_water", arena_high_water);
        j.key("kernel").open('{');
        std::size_t count = 0;
        const util::KernelStatsField* fields =
            util::kernel_stats_fields(&count);
        for (std::size_t i = 0; i < count && i < kernel.size(); ++i) {
            j.field(fields[i].name, kernel[i]);
        }
        j.close('}');
        j.key("checks").open('{');
        for (const auto& [name, ok] : checks) {
            j.key(name).boolean(ok);
        }
        j.close('}');
        j.key("failures").open('[');
        for (const std::string& f : failures) {
            j.str(f);
        }
        j.close(']');
        j.array("trial_ops", trial_ops);
        j.array("trial_msgs", trial_msgs);
        j.array("read_ns", read_ns);
        j.array("write_ns", write_ns);
        j.close('}');
    }
};

std::uint64_t fnv1a(const std::string& s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::vector<std::uint64_t> kernel_values(const util::KernelStats& s) {
    std::size_t count = 0;
    const util::KernelStatsField* fields = util::kernel_stats_fields(&count);
    std::vector<std::uint64_t> out(count);
    for (std::size_t i = 0; i < count; ++i) {
        out[i] = fields[i].get(s);
    }
    return out;
}

// Adds (after - before) into `into`, field by field.
void add_kernel_delta(std::vector<std::uint64_t>& into,
                      const std::vector<std::uint64_t>& before,
                      const std::vector<std::uint64_t>& after) {
    into.resize(after.size(), 0);
    for (std::size_t i = 0; i < after.size(); ++i) {
        into[i] += after[i] - before[i];
    }
}

struct TxCounters {
    double data = 0.0;
    double routing = 0.0;
    double hello = 0.0;
};

TxCounters tx_counters(net::World& world) {
    return TxCounters{world.metrics().counter("net.data.tx"),
                      world.metrics().counter("net.routing.tx"),
                      world.metrics().counter("net.hello.tx")};
}

void add_tx_delta(Det& det, const TxCounters& before, const TxCounters& after) {
    det.data_tx += after.data - before.data;
    det.routing_tx += after.routing - before.routing;
    det.hello_tx += after.hello - before.hello;
}

// ------------------------------------------------------------ tracing --

// Per-layer numbers of a traced pass: obs event tallies, op spans folded
// into reply timing, CPU time of the set-up phases and wall time of the
// service API calls.
struct Layers {
    std::array<std::uint64_t, obs::kEventKindCount> by_kind{};
    std::uint64_t dropped = 0;
    // Lookup spans that got at least one reply: begin -> first reply, and
    // summed latency and summed wait after the last reply arrived.
    std::vector<std::int64_t> first_reply_ns;
    double replied_span_ns = 0.0;
    double after_last_reply_ns = 0.0;
    double world_build_s = 0.0;
    double start_s = 0.0;
    double warmup_s = 0.0;
    double preseed_s = 0.0;
    double read_call_s = 0.0;
    double write_call_s = 0.0;
    std::uint64_t read_calls = 0;
    std::uint64_t write_calls = 0;
};

// Owns the sink of one traced trial and streams its ring into Layers.
// Open loops drain it between time slices once half full; closed loops
// at the end of each phase, so the ring must hold one phase. Counting is
// off during set-up.
class Tracer {
public:
    // Holds a whole closed-loop phase of the costliest world seen (~200k
    // events), which is drained only when the phase ends.
    static constexpr std::size_t kCapacity = std::size_t{1} << 20;

    Tracer(const sim::Simulator& sim, Layers& layers)
        : sink_(sim, kCapacity), scoped_(&sink_), layers_(layers) {}
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;
    ~Tracer() { drain(); }

    void set_counting(bool on) {
        drain();
        counting_ = on;
        if (!on) {
            spans_.clear();
        }
    }

    void maybe_drain() {
        if (sink_.size() >= kCapacity / 2) {
            drain();
        }
    }

    void drain() {
        if (counting_) {
            layers_.dropped += sink_.dropped();
            for (std::size_t i = 0; i < sink_.size(); ++i) {
                consume(sink_.event(i));
            }
        }
        sink_.clear();
    }

private:
    struct Span {
        sim::Time begin = 0;
        sim::Time first_reply = -1;
        sim::Time last_reply = -1;
        util::NodeId origin = 0;
        bool lookup = false;
    };

    void consume(const obs::TraceEvent& e) {
        ++layers_.by_kind[static_cast<std::size_t>(e.kind)];
        switch (e.kind) {
            case obs::EventKind::kSpanBegin:
                spans_[e.trace] = Span{e.t, -1, -1, e.node, e.a == 1};
                break;
            // A reply arrived: a reverse-path reply reached the origin, or
            // a routed reply packet was delivered there.
            case obs::EventKind::kReplyDelivered:
            case obs::EventKind::kPacketDeliver: {
                const auto it = spans_.find(e.trace);
                if (it != spans_.end() && e.node == it->second.origin) {
                    if (it->second.first_reply < 0) {
                        it->second.first_reply = e.t;
                    }
                    it->second.last_reply = e.t;
                }
                break;
            }
            case obs::EventKind::kSpanEnd: {
                const auto it = spans_.find(e.trace);
                if (it == spans_.end()) {
                    break;
                }
                const Span s = it->second;
                spans_.erase(it);
                if (!s.lookup) {
                    break;
                }
                if (s.first_reply >= 0) {
                    layers_.first_reply_ns.push_back(s.first_reply - s.begin);
                    layers_.replied_span_ns +=
                        static_cast<double>(e.t - s.begin);
                    layers_.after_last_reply_ns +=
                        static_cast<double>(e.t - s.last_reply);
                }
                break;
            }
            default:
                break;
        }
    }

    obs::TraceSink sink_;
    obs::ScopedTraceSink scoped_;
    Layers& layers_;
    bool counting_ = false;
    std::unordered_map<obs::TraceId, Span> spans_;
};

// Wall-clock timer around one API call; a no-op outside traced passes.
class CallTimer {
public:
    CallTimer(Layers* layers, double Layers::*sum, std::uint64_t Layers::*n)
        : layers_(layers), sum_(sum), n_(n),
          t0_(layers != nullptr ? wall_now() : 0.0) {}
    CallTimer(const CallTimer&) = delete;
    CallTimer& operator=(const CallTimer&) = delete;
    ~CallTimer() {
        if (layers_ != nullptr) {
            layers_->*sum_ += wall_now() - t0_;
            ++(layers_->*n_);
        }
    }

private:
    Layers* layers_;
    double Layers::*sum_;
    std::uint64_t Layers::*n_;
    double t0_;
};

// ---------------------------------------------------------- host gauge --

// Resident set of the process in bytes, from /proc/self/statm.
std::uint64_t current_rss_bytes() {
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr) {
        return 0;
    }
    unsigned long long size = 0;
    unsigned long long resident = 0;
    const int got = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    return got == 2 ? resident * static_cast<std::uint64_t>(
                                     sysconf(_SC_PAGESIZE))
                    : 0;
}

// A fixed reference job whose speed follows the host's. On a shared VM
// the simulator's CPU time drifts up to 2x for minutes at a time as
// neighbours load the memory system, while a pure compute loop or a
// pointer chase hardly moves with it. Random lookups in a large hash
// table do move with it (correlation 0.96 over 46 passes of
// scale_churn_100k), so each world's CPU time is reported next to the
// median time of this job, sampled while the world runs, and run.py
// scales the world's times by it. The job does not change with the
// program under test, so a faster simulator still reads faster.
class HostGauge {
public:
    static constexpr std::uint64_t kEntries = std::uint64_t{1} << 20;
    static constexpr int kLookups = 5000;

    HostGauge() {
        const std::uint64_t before = current_rss_bytes();
        table_.reserve(kEntries);
        for (std::uint64_t i = 0; i < kEntries; ++i) {
            table_.emplace(key(i), i);
        }
        resident_bytes_ = current_rss_bytes() - before;
    }

    // CPU seconds of kLookups lookups; each sample reads fresh keys.
    double sample() {
        const double t0 = cpu_now();
        std::uint64_t sum = 0;
        for (int i = 0; i < kLookups; ++i) {
            cursor_ = (cursor_ + 7919) & (kEntries - 1);
            sum += table_.find(key(cursor_))->second;
        }
        const double t = cpu_now() - t0;
        sink_ = sink_ + sum;
        return t;
    }

    // Memory the table holds, left out of the reported peak RSS.
    std::uint64_t resident_bytes() const { return resident_bytes_; }

private:
    static std::uint64_t key(std::uint64_t i) {
        return i * 0x9e3779b97f4a7c15ULL;
    }
    std::unordered_map<std::uint64_t, std::uint64_t> table_;
    std::uint64_t cursor_ = 0;
    std::uint64_t resident_bytes_ = 0;
    volatile std::uint64_t sink_ = 0;
};

HostGauge& host_gauge() {
    static HostGauge gauge;
    return gauge;
}

// ---------------------------------------------------------- trial kit --

// CPU time of a measured section, with host gauge samples at its start,
// at its end and at marks (time-slice ends, op completions) at least
// kEvery apart. Gauge time is not section time.
class Section {
public:
    static constexpr double kEvery = 0.05;  // CPU seconds between samples

    Section() {
        gauges_.push_back(host_gauge().sample());
        last_ = cpu_now();
        next_sample_ = last_ + kEvery;
    }
    void mark() {
        const double now = cpu_now();
        total_ += now - last_;
        if (now >= next_sample_) {
            gauges_.push_back(host_gauge().sample());
            next_sample_ = cpu_now() + kEvery;
        }
        last_ = cpu_now();
    }
    // Ends the section: returns its CPU seconds and stores the median
    // gauge sample in *gauge.
    double take(double* gauge) {
        total_ += cpu_now() - last_;
        gauges_.push_back(host_gauge().sample());
        std::sort(gauges_.begin(), gauges_.end());
        const std::size_t mid = gauges_.size() / 2;
        *gauge = gauges_.size() % 2 == 1
                     ? gauges_[mid]
                     : 0.5 * (gauges_[mid - 1] + gauges_[mid]);
        return total_;
    }

private:
    double last_ = 0.0;
    double next_sample_ = 0.0;
    double total_ = 0.0;
    std::vector<double> gauges_;
};

// CPU time of one trial's set-up and of its measured section (teardown
// is in neither), and the host gauge read while it ran.
struct TrialTimes {
    double setup_s = 0.0;
    double run_s = 0.0;
    double gauge_s = 0.0;
};

// Advances the simulator to `until` in slices, draining the trace ring
// and marking the section between slices. Slicing run_until is
// behaviour-neutral: it only stops the loop at slice boundaries, with no
// events of its own.
void run_to(net::World& world, sim::Time until, Tracer* tracer,
            Section* section = nullptr) {
    const sim::Time slice = 500 * sim::kMillisecond;
    sim::Simulator& sim = world.simulator();
    while (sim.now() < until) {
        sim.run_until(std::min(until, sim.now() + slice));
        if (tracer != nullptr) {
            tracer->maybe_drain();
        }
        if (section != nullptr) {
            section->mark();
        }
    }
}

// Child seeds of one run: trial k of a pass always gets the same seeds.
std::uint64_t child_seed(std::uint64_t seed, std::uint64_t k,
                         std::uint64_t salt) {
    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + k * 0xbf58476d1ce4e5b9ULL +
                  salt);
    return rng();
}

// ------------------------------------------------------------ kv_zipf --

// The bench_frontier measured shape: n=150 static nodes with oracle
// neighbors and the abstract link, RANDOM x RANDOM at the optimizer's
// sizes for a 90% read mix, the per-key quorum cache on, every key
// pre-seeded, then an open-loop Poisson stream of Zipf(0.99) reads and
// writes.
struct KvConfig {
    std::size_t n = 150;
    std::size_t keys = 200;
    double read_fraction = 0.9;
    double arrival_rate = 20.0;  // ops per virtual second
    sim::Time horizon = 144 * sim::kSecond;
    sim::Time drain = 40 * sim::kSecond;
    std::size_t trials = 5;
};

// Open-loop generator: arrivals are simulator events, so the generator is
// never late and each latency counts from the scheduled arrival. The
// stream matches svc::KvWorkloadDriver's, but that driver keeps latencies
// in log buckets (1/16 octave, so every seed reads the same p50 bucket)
// and does not look at the values reads return, which this one checks.
class KvLoad {
public:
    KvLoad(net::World& world, svc::KvService& kv, const KvConfig& cfg,
           std::uint64_t seed, Det& det, Layers* layers)
        : world_(world), kv_(kv), cfg_(cfg), zipf_(cfg.keys, 0.99),
          rng_(seed), det_(det), layers_(layers) {}
    KvLoad(const KvLoad&) = delete;
    KvLoad& operator=(const KvLoad&) = delete;

    // Pre-seed write of every key (set-up, not measured): one sequential
    // write per key, recorded so reads of it validate.
    void preseed() {
        for (util::Key key = 1; key <= cfg_.keys; ++key) {
            bool done = false;
            const auto data = static_cast<std::uint32_t>(0x80000000u | key);
            writes_.emplace(data, Written{key, 0});
            const util::NodeId origin = world_.alive_set().select(
                rng_.index(world_.alive_count()));
            kv_.write(origin, key, data,
                      [this, data, &done](const svc::KvWriteResult& r) {
                          if (r.ok) {
                              writes_[data].version = r.version;
                          }
                          done = true;
                      });
            const sim::Time deadline =
                world_.simulator().now() + 120 * sim::kSecond;
            while (!done && world_.simulator().now() < deadline &&
                   world_.simulator().step()) {
            }
            if (!done) {
                throw std::runtime_error("kv_zipf: pre-seed write hung");
            }
        }
    }

    void run(Tracer* tracer, Section& section) {
        sim::Simulator& sim = world_.simulator();
        end_of_arrivals_ = sim.now() + cfg_.horizon;
        schedule_next();
        run_to(world_, end_of_arrivals_ + cfg_.drain, tracer, &section);
        if (arrival_ != sim::kInvalidEvent) {
            sim.cancel(arrival_);
        }
        // Censor what is still in flight: it waited (now - issued) at
        // least, and counts as failed.
        const sim::Time now = sim.now();
        for (Op& op : ops_) {
            if (op.done) {
                continue;
            }
            op.done = true;
            ++det_.censored;
            (op.read ? det_.read_failed : det_.write_failed) += 1;
            (op.read ? det_.read_ns : det_.write_ns)
                .push_back(now - op.issued);
        }
        det_.check("kv.issued_eq_completed_plus_censored",
                   det_.reads + det_.writes == det_.completed + det_.censored,
                   "issued != completed + censored");
        validate_reads();
    }

private:
    struct Op {
        sim::Time issued = 0;
        util::Key key = 0;
        std::uint32_t data = 0;  // writes: the unique payload written
        bool read = false;
        bool done = false;
    };
    struct Written {
        util::Key key = 0;
        std::uint32_t version = 0;  // 0 until the write reports it
    };
    struct ReadSeen {
        util::Key key = 0;
        core::Versioned value;
    };

    void schedule_next() {
        sim::Simulator& sim = world_.simulator();
        const sim::Time when =
            sim.now() + sim::from_seconds(rng_.exponential(cfg_.arrival_rate));
        if (when >= end_of_arrivals_) {
            arrival_ = sim::kInvalidEvent;
            return;
        }
        arrival_ = sim.schedule_at(when, [this] {
            arrival_ = sim::kInvalidEvent;
            arrive();
        });
    }

    void arrive() {
        const util::Key key = 1 + zipf_.sample(rng_);
        const bool read = rng_.bernoulli(cfg_.read_fraction);
        const util::NodeId origin =
            world_.alive_set().select(rng_.index(world_.alive_count()));
        schedule_next();
        const std::size_t index = ops_.size();
        Op op;
        op.issued = world_.simulator().now();
        op.key = key;
        op.read = read;
        if (read) {
            ++det_.reads;
            ops_.push_back(op);
            const CallTimer timer(layers_, &Layers::read_call_s,
                                  &Layers::read_calls);
            kv_.read(origin, key, [this, index](const svc::KvReadResult& r) {
                Op& o = ops_[index];
                if (o.done) {
                    return;
                }
                o.done = true;
                ++det_.completed;
                det_.read_ns.push_back(world_.simulator().now() - o.issued);
                if (!r.ok) {
                    ++det_.read_failed;
                    return;
                }
                seen_.push_back(ReadSeen{o.key, r.value});
            });
        } else {
            ++det_.writes;
            op.data = static_cast<std::uint32_t>(index + 1);
            writes_.emplace(op.data, Written{key, 0});
            ops_.push_back(op);
            const CallTimer timer(layers_, &Layers::write_call_s,
                                  &Layers::write_calls);
            kv_.write(origin, key, op.data,
                      [this, index](const svc::KvWriteResult& r) {
                          Op& o = ops_[index];
                          if (o.done) {
                              return;
                          }
                          o.done = true;
                          ++det_.completed;
                          det_.write_ns.push_back(world_.simulator().now() -
                                                  o.issued);
                          det_.check("kv.no_version_overflow", !r.overflow,
                                     "a write hit the version ceiling");
                          if (r.ok || (!r.overflow && !r.inconclusive)) {
                              writes_[o.data].version = r.version;
                          }
                          if (!r.ok) {
                              ++det_.write_failed;
                          }
                      });
        }
    }

    // Every ok read returns a (version, data) some write to that key
    // produced: the payload names the write, and the version matches the
    // one that write reported (when it reported one).
    void validate_reads() {
        std::uint64_t bad = 0;
        for (const ReadSeen& r : seen_) {
            const auto it = writes_.find(r.value.data);
            const bool ok = it != writes_.end() && it->second.key == r.key &&
                            r.value.version >= 1 &&
                            (it->second.version == 0 ||
                             it->second.version == r.value.version);
            bad += ok ? 0 : 1;
        }
        det_.wrong += bad;
        det_.check("kv.reads_return_written_values", bad == 0,
                   std::to_string(bad) + " reads returned a value no write "
                                         "to that key produced");
    }

    net::World& world_;
    svc::KvService& kv_;
    const KvConfig& cfg_;
    svc::ZipfSampler zipf_;
    util::Rng rng_;
    Det& det_;
    Layers* layers_;
    std::vector<Op> ops_;
    std::unordered_map<std::uint32_t, Written> writes_;
    std::vector<ReadSeen> seen_;
    sim::Time end_of_arrivals_ = 0;
    sim::EventId arrival_ = sim::kInvalidEvent;
};

TrialTimes kv_trial(const KvConfig& cfg, std::uint64_t seed, Det& det,
                   Layers* layers) {
    TrialTimes times;
    const double t0 = cpu_now();
    net::WorldParams wp;
    wp.n = cfg.n;
    wp.seed = child_seed(seed, 0, 1);
    wp.oracle_neighbors = true;
    net::World world(wp);
    // The trace ring is allocated outside the timed set-up.
    const double ta = cpu_now();
    std::unique_ptr<Tracer> tracer;
    if (layers != nullptr) {
        tracer = std::make_unique<Tracer>(world.simulator(), *layers);
    }
    const double untimed = cpu_now() - ta;
    // Full membership view: optimizer sizes may exceed 2*sqrt(n).
    membership::OracleMembershipParams mp;
    mp.view_size = cfg.n;
    membership::OracleMembership membership(world, mp);
    core::OptimizerParams op;
    op.n = cfg.n;
    op.eps = 0.05;
    op.load_weight = 1.0;
    op.kinds = {core::StrategyKind::kRandom};
    core::WorkloadProfile profile;
    profile.tau = 1.0 / (1.0 - cfg.read_fraction);
    const core::OptimizerResult sizing = core::optimize_quorums(op, profile);
    core::BiquorumSpec spec;
    spec.eps = 0.05;
    spec.advertise.kind = core::StrategyKind::kRandom;
    spec.advertise.monotonic_store = true;
    spec.advertise.quorum_size = sizing.best.advertise;
    spec.lookup.kind = core::StrategyKind::kRandom;
    spec.lookup.collect_all_replies = true;
    spec.lookup.quorum_size = sizing.best.lookup;
    core::LocationService location(world, spec, &membership);
    svc::KvParams kp;
    kp.cache_quorums = true;
    svc::KvService kv(location, kp);
    KvLoad load(world, kv, cfg, child_seed(seed, 0, 2), det, layers);
    const double t1 = cpu_now();
    world.start();
    const double t2 = cpu_now();
    load.preseed();
    const double t3 = cpu_now();

    const TxCounters tx0 = tx_counters(world);
    const auto k0 = kernel_values(world.kernel_stats());
    const std::uint64_t hits0 = kv.cache_hits();
    const std::uint64_t misses0 = kv.cache_misses();
    const std::uint64_t inval0 = kv.cache_invalidations();
    const sim::Time v0 = world.simulator().now();
    if (tracer) {
        tracer->set_counting(true);
    }
    Section section;
    load.run(tracer.get(), section);
    times.run_s = section.take(&times.gauge_s);
    if (tracer) {
        tracer->set_counting(false);
    }
    add_tx_delta(det, tx0, tx_counters(world));
    add_kernel_delta(det.kernel, k0, kernel_values(world.kernel_stats()));
    det.cache_hits += kv.cache_hits() - hits0;
    det.cache_misses += kv.cache_misses() - misses0;
    det.cache_invalidations += kv.cache_invalidations() - inval0;
    det.mrw_load_sum += core::summarize_load(location.biquorum().context())
                            .mrw_load;
    const double window = sim::to_seconds(world.simulator().now() - v0);
    det.node_seconds += window * static_cast<double>(cfg.n);
    det.arena_high_water =
        std::max<std::uint64_t>(det.arena_high_water,
                                world.arena_high_water());
    if (layers != nullptr) {
        layers->world_build_s += t1 - t0 - untimed;
        layers->start_s += t2 - t1;
        layers->preseed_s += t3 - t2;
    }
    times.setup_s = t3 - t0 - untimed;
    return times;
}

// -------------------------------------------------- paper_walks_80211 --

// The paper's §8 setup at full fidelity: SINR PHY + CSMA/CA MAC, ticked
// random-waypoint mobility at 0.5-2 m/s, hello-driven neighbor tables,
// RANDOM advertise x UNIQUE-PATH lookup with reply-path local repair.
// Closed loop: one op at a time, lookups from 25 querying nodes.
struct WalksConfig {
    std::size_t n = 80;
    // 90 writes a pass, so the write tail is p75. About 8% of advertises
    // wait ~2.2 s on a route-discovery retry; a p90 tail would flip
    // between that mode and the fast one from seed to seed.
    std::size_t advertises = 10;
    std::size_t lookups = 600;
    std::size_t lookers = 25;
    sim::Time warmup = 15 * sim::kSecond;
    sim::Time spacing = 100 * sim::kMillisecond;
    std::size_t trials = 9;
};

TrialTimes walks_trial(const WalksConfig& cfg, std::uint64_t seed, Det& det,
                      Layers* layers) {
    TrialTimes times;
    const double t0 = cpu_now();
    net::WorldParams wp;
    wp.n = cfg.n;
    wp.seed = child_seed(seed, 0, 3);
    wp.fidelity = net::Fidelity::kFull;
    wp.oracle_neighbors = false;
    wp.mobile = true;
    wp.waypoint.min_speed = 0.5;
    wp.waypoint.max_speed = 2.0;
    wp.waypoint.pause = 30 * sim::kSecond;
    wp.heartbeat = 10 * sim::kSecond;
    net::World world(wp);
    // The trace ring is allocated outside the timed set-up.
    const double ta = cpu_now();
    std::unique_ptr<Tracer> tracer;
    if (layers != nullptr) {
        tracer = std::make_unique<Tracer>(world.simulator(), *layers);
    }
    const double untimed = cpu_now() - ta;
    membership::OracleMembership membership(world);
    core::BiquorumSpec spec;
    spec.eps = 0.05;
    spec.advertise.kind = core::StrategyKind::kRandom;
    spec.lookup.kind = core::StrategyKind::kUniquePath;
    spec.lookup.reply_local_repair = true;
    spec.lookup.reply_repair_ttl = 3;
    spec.lookup.reply_global_repair_fallback = true;
    core::LocationService location(world, spec, &membership);
    const sim::Time op_timeout = 20 * sim::kSecond;
    location.biquorum().context().op_timeout = op_timeout;
    util::Rng rng(child_seed(seed, 0, 4));
    const double t1 = cpu_now();
    world.start();
    const double t2 = cpu_now();
    run_to(world, world.simulator().now() + cfg.warmup, tracer.get());
    const double t3 = cpu_now();

    const TxCounters tx0 = tx_counters(world);
    const auto k0 = kernel_values(world.kernel_stats());
    const sim::Time v0 = world.simulator().now();
    if (tracer) {
        tracer->set_counting(true);
    }
    Section section;
    const std::uint64_t issued0 = det.reads + det.writes;
    const std::uint64_t completed0 = det.completed;
    std::vector<util::Key> keys;
    core::run_sequential(
        world, cfg.advertises, cfg.spacing, op_timeout,
        [&](std::size_t i, std::function<void()> next) {
            const util::NodeId origin = world.alive_set().select(
                rng.index(world.alive_count()));
            const util::Key key = 1000 + i;
            keys.push_back(key);
            ++det.writes;
            const sim::Time issued = world.simulator().now();
            location.advertise(
                origin, key, key * 7 + 1,
                [&det, &world, &section, issued,
                 next = std::move(next)](const core::AccessResult& r) {
                    section.mark();
                    ++det.completed;
                    det.write_ns.push_back(world.simulator().now() - issued);
                    det.write_failed += r.ok ? 0 : 1;
                    next();
                });
        });
    // Let advertise stragglers finish inside the advertise phase.
    run_to(world, world.simulator().now() + 2 * sim::kSecond, tracer.get(),
           &section);
    std::vector<util::NodeId> lookers;
    for (const std::size_t idx : rng.sample_without_replacement(
             world.alive_count(), std::min(cfg.lookers, world.alive_count()))) {
        lookers.push_back(world.alive_set().select(idx));
    }
    std::uint64_t wrong_values = 0;
    core::run_sequential(
             world, cfg.lookups, cfg.spacing, op_timeout,
             [&](std::size_t, std::function<void()> next) {
                 const util::Key key = keys[rng.index(keys.size())];
                 const util::NodeId origin =
                     lookers[rng.index(lookers.size())];
                 ++det.reads;
                 ++det.lookups;
                 const sim::Time issued = world.simulator().now();
                 location.lookup(
                     origin, key,
                     [&det, &world, &section, &wrong_values, issued, key,
                      next = std::move(next)](const core::AccessResult& r) {
                         section.mark();
                         ++det.completed;
                         det.read_ns.push_back(world.simulator().now() -
                                               issued);
                         det.hits += r.ok ? 1 : 0;
                         det.intersections += r.intersected ? 1 : 0;
                         det.read_failed += r.ok ? 0 : 1;
                         if (r.ok && r.value != key * 7 + 1) {
                             ++wrong_values;
                         }
                         next();
                     });
             });
    times.run_s = section.take(&times.gauge_s);
    if (tracer) {
        tracer->set_counting(false);
    }
    det.check("walks.every_op_resolved",
              det.completed - completed0 == det.reads + det.writes - issued0,
              "an op never resolved before the closed loop's deadline");
    det.wrong += wrong_values;
    det.check("walks.lookups_return_advertised_value", wrong_values == 0,
              std::to_string(wrong_values) + " hits returned a wrong value");
    add_tx_delta(det, tx0, tx_counters(world));
    add_kernel_delta(det.kernel, k0, kernel_values(world.kernel_stats()));
    det.mrw_load_sum += core::summarize_load(location.biquorum().context())
                            .mrw_load;
    det.floor_sum += location.biquorum().intersection_guarantee();
    const double window = sim::to_seconds(world.simulator().now() - v0);
    det.node_seconds += window * static_cast<double>(cfg.n);
    det.arena_high_water =
        std::max<std::uint64_t>(det.arena_high_water,
                                world.arena_high_water());
    if (layers != nullptr) {
        layers->world_build_s += t1 - t0 - untimed;
        layers->start_s += t2 - t1;
        layers->warmup_s += t3 - t2;
    }
    times.setup_s = t3 - t0 - untimed;
    return times;
}

// --------------------------------------------------- scale_churn_100k --

// The bench_scale shape: n=100k, abstract link, lazy mobility, 10 s
// heartbeats, steady fail/revive churn. Its ops are one-hop: reads are
// broadcasts (latency to the first receiver), writes are acknowledged
// unicasts to a random hello-table neighbor (latency to the MAC-level
// ack or failure). Churn actions count as ops that fail when a revive
// is refused.
struct ScaleConfig {
    std::size_t n = 100'000;
    sim::Time warmup = 10 * sim::kSecond;
    sim::Time window = 30 * sim::kSecond;
    sim::Time drain = 1 * sim::kSecond;
    double broadcast_rate = 40.0;  // per virtual second
    double unicast_rate = 200.0;   // per virtual second
};

struct Probe final : net::AppMessage {
    std::uint64_t op = 0;
    bool broadcast = false;
};

class ScaleLoad {
public:
    ScaleLoad(net::World& world, const ScaleConfig& cfg, std::uint64_t seed,
              Det& det)
        : world_(world), cfg_(cfg), rng_(seed),
          churn_rng_(seed ^ 0x9e3779b9ULL), det_(det),
          batch_(cfg.n / 2000 + 1) {}
    ScaleLoad(const ScaleLoad&) = delete;
    ScaleLoad& operator=(const ScaleLoad&) = delete;

    // Receivers time broadcast probes; revived nodes get the handler back
    // through the spawn listener (shutdown clears app handlers).
    void install() {
        for (util::NodeId id = 0; id < world_.node_count(); ++id) {
            attach(id);
        }
        world_.add_spawn_listener([this](util::NodeId id) { attach(id); });
    }

    void start_churn() { churn_tick(); }

    void run(Tracer* tracer, Section& section) {
        sim::Simulator& sim = world_.simulator();
        counting_ = true;
        end_ = sim.now() + cfg_.window;
        schedule(true);
        schedule(false);
        run_to(world_, end_, tracer, &section);
        counting_ = false;
        run_to(world_, end_ + cfg_.drain, tracer, &section);
        const sim::Time now = sim.now();
        for (Pending& p : ops_) {
            if (p.done) {
                continue;
            }
            p.done = true;
            ++det_.censored;
            (p.broadcast ? det_.read_failed : det_.write_failed) += 1;
            (p.broadcast ? det_.read_ns : det_.write_ns)
                .push_back(now - p.issued);
        }
        const std::size_t alive = world_.alive_count();
        det_.check("scale.population_in_churn_band",
                   alive > cfg_.n - 3 * batch_ && alive <= cfg_.n,
                   "alive=" + std::to_string(alive) + " left the churn band");
        det_.check("scale.issued_eq_completed_plus_censored",
                   det_.reads + det_.writes == det_.completed + det_.censored,
                   "issued != completed + censored");
    }

private:
    struct Pending {
        sim::Time issued = 0;
        bool broadcast = false;
        bool done = false;
    };

    void attach(util::NodeId id) {
        world_.stack(id).add_app_handler(
            [this](util::NodeId, util::NodeId, const net::AppMsgPtr& m) {
                const auto* probe = dynamic_cast<const Probe*>(m.get());
                if (probe == nullptr) {
                    return false;
                }
                if (probe->broadcast) {
                    complete(probe->op, true);
                }
                return true;
            });
    }

    void complete(std::uint64_t op, bool ok) {
        Pending& p = ops_[op];
        if (p.done) {
            return;
        }
        p.done = true;
        ++det_.completed;
        (p.broadcast ? det_.read_ns : det_.write_ns)
            .push_back(world_.simulator().now() - p.issued);
        if (!ok) {
            (p.broadcast ? det_.read_failed : det_.write_failed) += 1;
        }
    }

    // Fails `batch_` random alive nodes and revives as many failed ones
    // every virtual second, so the population stays steady.
    void churn_tick() {
        for (std::size_t i = 0; i < batch_; ++i) {
            world_.fail_node(world_.alive_set().select(
                churn_rng_.index(world_.alive_count())));
            det_.other_ops += counting_ ? 1 : 0;
        }
        const std::size_t n = world_.node_count();
        for (std::size_t i = 0; i < batch_ && world_.alive_count() < n; ++i) {
            auto id = static_cast<util::NodeId>(churn_rng_.index(n));
            while (world_.alive(id)) {
                id = static_cast<util::NodeId>((id + 1) % n);
            }
            const bool revived = world_.revive_node(id);
            if (counting_) {
                ++det_.other_ops;
                det_.other_failed += revived ? 0 : 1;
            }
        }
        // pqs-lint: fire-and-forget(the load outlives every run of the
        // simulator; the chain dies with the event queue at teardown)
        world_.simulator().schedule_in(sim::kSecond, [this] { churn_tick(); });
    }

    void schedule(bool broadcast) {
        sim::Simulator& sim = world_.simulator();
        const double rate = broadcast ? cfg_.broadcast_rate : cfg_.unicast_rate;
        const sim::Time when =
            sim.now() + sim::from_seconds(rng_.exponential(rate));
        if (when >= end_) {
            return;
        }
        sim.schedule_at(when, [this, broadcast] {
            issue(broadcast);
            schedule(broadcast);
        });
    }

    void issue(bool broadcast) {
        const util::NodeId from =
            world_.alive_set().select(rng_.index(world_.alive_count()));
        const std::uint64_t op = ops_.size();
        ops_.push_back(Pending{world_.simulator().now(), broadcast, false});
        auto probe = std::make_shared<Probe>();
        probe->op = op;
        probe->broadcast = broadcast;
        net::NodeStack& stack = world_.stack(from);
        if (broadcast) {
            ++det_.reads;
            stack.send_broadcast(std::move(probe));
            return;
        }
        ++det_.writes;
        // Sorted so the pick never depends on hash-table order.
        std::vector<util::NodeId> neighbors = stack.neighbors();
        std::sort(neighbors.begin(), neighbors.end());
        if (neighbors.empty()) {
            complete(op, false);
            return;
        }
        const util::NodeId to = neighbors[rng_.index(neighbors.size())];
        stack.send_unicast(to, std::move(probe),
                           [this, op](bool acked) { complete(op, acked); });
    }

    net::World& world_;
    const ScaleConfig& cfg_;
    util::Rng rng_;
    util::Rng churn_rng_;
    Det& det_;
    std::size_t batch_;
    std::vector<Pending> ops_;
    sim::Time end_ = 0;
    bool counting_ = false;
};

TrialTimes scale_trial(const ScaleConfig& cfg, std::uint64_t seed, Det& det,
                      Layers* layers) {
    TrialTimes times;
    const double t0 = cpu_now();
    net::WorldParams wp;
    wp.n = cfg.n;
    wp.seed = child_seed(seed, 0, 5);
    wp.avg_degree = 10.0;
    wp.fidelity = net::Fidelity::kAbstract;
    // The RGG connectivity threshold grows with log n; d_avg=10 at 100k
    // is often disconnected, and connectivity is not the subject here.
    wp.ensure_connected = false;
    wp.mobile = true;
    wp.waypoint.lazy = true;
    wp.waypoint.min_speed = 0.5;
    wp.waypoint.max_speed = 2.0;
    wp.waypoint.pause = 30 * sim::kSecond;
    wp.heartbeat = 10 * sim::kSecond;
    net::World world(wp);
    // The trace ring is allocated outside the timed set-up.
    const double ta = cpu_now();
    std::unique_ptr<Tracer> tracer;
    if (layers != nullptr) {
        tracer = std::make_unique<Tracer>(world.simulator(), *layers);
    }
    const double untimed = cpu_now() - ta;
    ScaleLoad load(world, cfg, child_seed(seed, 0, 6), det);
    load.install();
    const double t1 = cpu_now();
    world.start();
    load.start_churn();
    const double t2 = cpu_now();
    run_to(world, world.simulator().now() + cfg.warmup, tracer.get());
    const double t3 = cpu_now();

    const TxCounters tx0 = tx_counters(world);
    const auto k0 = kernel_values(world.kernel_stats());
    const sim::Time v0 = world.simulator().now();
    if (tracer) {
        tracer->set_counting(true);
    }
    Section section;
    load.run(tracer.get(), section);
    times.run_s = section.take(&times.gauge_s);
    if (tracer) {
        tracer->set_counting(false);
    }
    add_tx_delta(det, tx0, tx_counters(world));
    add_kernel_delta(det.kernel, k0, kernel_values(world.kernel_stats()));
    const double window = sim::to_seconds(world.simulator().now() - v0);
    det.node_seconds += window * static_cast<double>(cfg.n);
    det.arena_high_water =
        std::max<std::uint64_t>(det.arena_high_water,
                                world.arena_high_water());
    if (layers != nullptr) {
        layers->world_build_s += t1 - t0 - untimed;
        layers->start_s += t2 - t1;
        layers->warmup_s += t3 - t2;
    }
    times.setup_s = t3 - t0 - untimed;
    return times;
}

// --------------------------------------------------------------- main --

struct Workload {
    const char* name;
    std::size_t nodes;
    std::size_t trials;
    std::function<TrialTimes(std::uint64_t, Det&, Layers*)> trial;
};

std::vector<Workload> workloads() {
    static const KvConfig kv;
    static const WalksConfig walks;
    static const ScaleConfig scale;
    return {
        {"kv_zipf", kv.n, kv.trials,
         [](std::uint64_t s, Det& d, Layers* l) {
             return kv_trial(kv, s, d, l);
         }},
        {"paper_walks_80211", walks.n, walks.trials,
         [](std::uint64_t s, Det& d, Layers* l) {
             return walks_trial(walks, s, d, l);
         }},
        {"scale_churn_100k", scale.n, 1,
         [](std::uint64_t s, Det& d, Layers* l) {
             return scale_trial(scale, s, d, l);
         }},
    };
}

struct Pass {
    bool traced = false;
    // One entry per trial: CPU seconds of set-up and of the measured
    // section, and the median host gauge sample while it ran.
    std::vector<double> setup_s;
    std::vector<double> run_s;
    std::vector<double> gauge_s;
    std::uint64_t fingerprint = 0;
};

void write_layers(Json& j, const Layers& l) {
    j.open('{');
    j.key("by_kind").open('{');
    for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
        j.field(obs::event_kind_name(static_cast<obs::EventKind>(k)),
                l.by_kind[k]);
    }
    j.close('}');
    j.field("dropped", l.dropped);
    j.field("replied_span_ns", l.replied_span_ns);
    j.field("after_last_reply_ns", l.after_last_reply_ns);
    j.array("first_reply_ns", l.first_reply_ns);
    j.field("world_build_s", l.world_build_s).field("start_s", l.start_s);
    j.field("warmup_s", l.warmup_s).field("preseed_s", l.preseed_s);
    j.field("read_call_s", l.read_call_s).field("read_calls", l.read_calls);
    j.field("write_call_s", l.write_call_s);
    j.field("write_calls", l.write_calls);
    j.close('}');
}

int run(int argc, char** argv) {
    std::string name;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* value = argv[i + 1];
        if (flag == "--workload") {
            name = value;
        } else if (flag == "--seed") {
            seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--seconds") {
            seconds = std::strtod(value, nullptr);
        } else if (flag == "--trace") {
            trace = std::atoi(value);
        }
    }
    const Workload* workload = nullptr;
    const std::vector<Workload> all = workloads();
    for (const Workload& w : all) {
        if (name == w.name) {
            workload = &w;
        }
    }
    if (workload == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1) ||
        argc != 9) {
        std::fprintf(stderr,
                     "usage: perfbench_driver --workload "
                     "kv_zipf|paper_walks_80211|scale_churn_100k --seed N "
                     "--seconds S --trace 0|1\n");
        return 2;
    }

    std::vector<Pass> passes;
    std::string det_json;
    Layers layers;
    bool have_layers = false;
    // Taken after the first pass, which is untraced: the trace ring must
    // not count toward the program's memory, nor the host gauge's table,
    // built here, before any world.
    std::uint64_t peak_rss = 0;
    const std::uint64_t gauge_rss = host_gauge().resident_bytes();
    const double start = wall_now();
    double spent = 0.0;
    // Alternate untraced/traced with --trace 1; stop when the next pass
    // would overrun the budget (always at least one pair or one pass).
    const std::size_t min_passes = trace == 1 ? 2 : 1;
    while (passes.size() < min_passes ||
           spent + spent / static_cast<double>(passes.size()) <= seconds) {
        Pass pass;
        pass.traced = trace == 1 && passes.size() % 2 == 1;
        Det det;
        Layers pass_layers;
        Layers* lp = pass.traced ? &pass_layers : nullptr;
        for (std::size_t k = 0; k < workload->trials; ++k) {
            const std::uint64_t ops0 = det.reads + det.writes + det.other_ops;
            const double msgs0 = det.data_tx + det.routing_tx;
            const TrialTimes w = workload->trial(child_seed(seed, k, 0), det, lp);
            det.trial_ops.push_back(det.reads + det.writes + det.other_ops -
                                    ops0);
            det.trial_msgs.push_back(det.data_tx + det.routing_tx - msgs0);
            pass.setup_s.push_back(w.setup_s);
            pass.run_s.push_back(w.run_s);
            pass.gauge_s.push_back(w.gauge_s);
        }
        Json j;
        det.write(j);
        pass.fingerprint = fnv1a(j.text());
        if (det_json.empty()) {
            det_json = j.text();
        }
        if (pass.traced && !have_layers) {
            layers = std::move(pass_layers);
            have_layers = true;
        }
        passes.push_back(std::move(pass));
        if (passes.size() == 1) {
            peak_rss = util::peak_rss_bytes() -
                       std::min(gauge_rss, util::peak_rss_bytes());
        }
        spent = wall_now() - start;
    }

    Json out;
    out.open('{');
    out.key("workload").str(workload->name);
    out.field("seed", seed).field("trace", static_cast<std::uint64_t>(trace));
    out.field("nodes", static_cast<std::uint64_t>(workload->nodes));
    out.field("trials", static_cast<std::uint64_t>(workload->trials));
    out.field("peak_rss_bytes", peak_rss);
    out.key("passes").open('[');
    for (const Pass& p : passes) {
        out.open('{');
        out.key("traced").boolean(p.traced);
        out.array("setup_s", p.setup_s);
        out.array("run_s", p.run_s);
        out.array("gauge_s", p.gauge_s);
        char hex[20];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(p.fingerprint));
        out.key("fingerprint").str(hex);
        out.close('}');
    }
    out.close(']');
    std::string text = out.text();
    text += ", \"det\": " + det_json;
    if (have_layers) {
        Json lj;
        write_layers(lj, layers);
        text += ", \"layers\": " + lj.text();
    }
    text += "}\n";
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
}

}  // namespace
}  // namespace pqs::perfbench

int main(int argc, char** argv) {
    try {
        return pqs::perfbench::run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
