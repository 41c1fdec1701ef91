/**
 * @file
 * End-to-end benchmark of the PyPIM stack. Four tensor programs run
 * through the public Device/Tensor API; every pass is checked against
 * a host reference. README.md describes the workloads and metrics;
 * run.py builds this program and turns its record into the result.
 *
 * Usage:
 *   perfbench --workload cordic|sort|io|fleet --seed N --seconds S
 *             --trace 0|1
 *
 * One run: several cold starts (fresh Device, input upload, first
 * pass), then warm passes on the last device for S seconds. With
 * --trace 0 it reports the end-to-end metrics; with --trace 1 it
 * alternates bare and traced passes and reports the per-layer
 * metrics. Spans are recorded here, around the benchmark's own calls
 * into the tensor layer; the other layers are read from the counters
 * the program exports. Prints one JSON object on stdout.
 */
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sched.h>

#include "pim/pypim.hpp"
#include "theory/model.hpp"

using namespace pypim;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** splitmix64: inputs depend on the seed alone, not on the C++
 *  library's distributions. */
class Gen
{
  public:
    explicit Gen(uint64_t seed) : s_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    float
    floatIn(float lo, float hi)
    {
        const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
        return lo + static_cast<float>((hi - lo) * u);
    }

  private:
    uint64_t s_;
};

/**
 * @p n draws with no two equal neighbours. An upload writes a run of
 * equal values as one masked write, so a repeated neighbour would make
 * the upload's micro-op count, and pim_cycles, depend on the seed.
 */
template <typename T, typename Draw>
std::vector<T>
distinctNeighbours(size_t n, Draw &&draw)
{
    std::vector<T> v;
    v.reserve(n);
    while (v.size() < n) {
        const T x = draw();
        if (v.empty() || x != v.back())
            v.push_back(x);
    }
    return v;
}

// --------------------------------------------------------------- spans

enum SpanClass
{
    kUpload,
    kCompute,
    kReduce,
    kSort,
    kReadback,
    kFlush,
    kNumSpans
};

const char *const kSpanNames[kNumSpans] = {
    "upload", "compute", "reduce", "sort", "readback", "flush"};

/** Host seconds spent in the tensor calls of each class during one
 *  pass. When off, the wrapped call runs bare. */
struct Spans
{
    bool on = false;
    std::array<double, kNumSpans> sec{};

    template <typename Fn>
    decltype(auto)
    operator()(SpanClass c, Fn &&fn)
    {
        if (!on)
            return fn();
        struct Stop
        {
            Spans &s;
            SpanClass c;
            Clock::time_point t0;
            ~Stop() { s.sec[c] += secondsSince(t0); }
        } stop{*this, c, Clock::now()};
        return fn();
    }
};

// ----------------------------------------------------------- workloads

/** The configuration every workload pins: the library defaults,
 *  spelled out so no PYPIM_* variable can change them. */
EngineConfig
pinnedConfig()
{
    EngineConfig c;
    c.kind = EngineKind::Serial;
    c.threads = 1;
    c.pipeline = false;
    c.traceCache = true;
    c.devices = 1;
    c.affinity = false;
    c.storage = XbarStorage::Paged;
    c.bulkIo = true;
    c.compiledReplay = true;
    c.faults.clear();
    c.verifyState = false;
    c.transport = TransportKind::Inproc;
    return c;
}

Geometry
tableIII(uint32_t crossbars)
{
    Geometry g;
    g.numCrossbars = crossbars;
    return g;
}

/** A tensor program. upload() places inputs that stay resident across
 *  passes; pass() runs the program once and checks its output. */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual Geometry geometry() const = 0;
    virtual EngineConfig config() const { return pinnedConfig(); }
    virtual void upload(Device &, Spans &) {}
    virtual bool pass(Device &dev, Spans &sp) = 0;
    /** Drop device-resident tensors before their device dies. */
    virtual void release() {}
};

/** Fig. 13 CORDIC sine: 16 rotation-mode iterations over the whole
 *  memory of 16 crossbars. */
class Cordic : public Workload
{
  public:
    explicit Cordic(uint64_t seed)
    {
        Gen g(seed);
        angles_ = distinctNeighbours<float>(
            kN, [&] { return g.floatIn(-1.5707f, 1.5707f); });
        double k = 1.0;
        for (int i = 0; i < kIters; ++i)
            k *= std::sqrt(1.0 + std::ldexp(1.0, -2 * i));
        kinv_ = static_cast<float>(1.0 / k);
    }

    Geometry geometry() const override { return tableIII(16); }

    void
    upload(Device &dev, Spans &sp) override
    {
        z0_ = sp(kUpload, [&] { return Tensor::fromVector(angles_, &dev); });
    }

    bool
    pass(Device &dev, Spans &sp) override
    {
        std::vector<float> sines;
        {
            Tensor y;
            sp(kCompute, [&] {
                Tensor z = z0_.clone();
                Tensor x = Tensor::full(kN, kinv_, &dev);
                y = Tensor::zeros(kN, DType::Float32, &dev);
                for (int k = 0; k < kIters; ++k) {
                    const float ang =
                        static_cast<float>(std::atan(std::ldexp(1.0, -k)));
                    const float p2 =
                        static_cast<float>(std::ldexp(1.0, -k));
                    Tensor d = z >= 0.0f;
                    Tensor xs = x * p2;
                    Tensor ys = y * p2;
                    Tensor xn = where(d, x - ys, x + ys);
                    Tensor yn = where(d, y + xs, y - xs);
                    Tensor zn = where(d, z - ang, z + ang);
                    x = xn;
                    y = yn;
                    z = zn;
                }
            });
            sines = sp(kReadback, [&] { return y.toFloatVector(); });
        }
        sp(kFlush, [&] { dev.flush(); });
        if (sines.size() != kN)
            return false;
        for (size_t i = 0; i < kN; ++i)
            if (!(std::fabs(sines[i] - std::sin(double(angles_[i]))) <=
                  1e-3))
                return false;
        return true;
    }

    void release() override { z0_ = Tensor(); }

  private:
    static constexpr size_t kN = 16 * 1024;
    static constexpr int kIters = 16;
    std::vector<float> angles_;
    float kinv_ = 0.0f;
    Tensor z0_;
};

/** Fig. 13 FP sort: bitonic sort of 256 float32 values. */
class Sort : public Workload
{
  public:
    explicit Sort(uint64_t seed)
    {
        Gen g(seed);
        in_ = distinctNeighbours<float>(
            kN, [&] { return g.floatIn(-1e3f, 1e3f); });
        ref_ = in_;
        std::sort(ref_.begin(), ref_.end());
    }

    Geometry geometry() const override { return tableIII(16); }

    bool
    pass(Device &dev, Spans &sp) override
    {
        std::vector<float> out;
        {
            Tensor t = sp(kUpload,
                          [&] { return Tensor::fromVector(in_, &dev); });
            sp(kSort, [&] { t.sort(); });
            out = sp(kReadback, [&] { return t.toFloatVector(); });
        }
        sp(kFlush, [&] { dev.flush(); });
        // Non-decreasing and the input's multiset together mean equal
        // to the host's sorted copy.
        return out == ref_;
    }

  private:
    static constexpr size_t kN = 256;
    std::vector<float> in_, ref_;
};

/** Host round trip on 1,024 crossbars: upload two 1Mi-element int32
 *  tensors, XOR them, read the result back. */
class Io : public Workload
{
  public:
    explicit Io(uint64_t seed)
    {
        Gen g(seed);
        auto draw = [&] { return static_cast<int32_t>(g.next()); };
        a_ = distinctNeighbours<int32_t>(kN, draw);
        b_ = distinctNeighbours<int32_t>(kN, draw);
        ref_.resize(kN);
        for (size_t i = 0; i < kN; ++i)
            ref_[i] = a_[i] ^ b_[i];
    }

    Geometry geometry() const override { return tableIII(1024); }

    bool
    pass(Device &dev, Spans &sp) override
    {
        std::vector<int32_t> out;
        {
            Tensor a = sp(kUpload,
                          [&] { return Tensor::fromVector(a_, &dev); });
            Tensor b = sp(kUpload,
                          [&] { return Tensor::fromVector(b_, &dev); });
            Tensor c = sp(kCompute, [&] { return a ^ b; });
            out = sp(kReadback, [&] { return c.toIntVector(); });
        }
        sp(kFlush, [&] { dev.flush(); });
        return out == ref_;
    }

  private:
    static constexpr size_t kN = 1u << 20;
    std::vector<int32_t> a_, b_, ref_;
};

/** Fig. 13 FP sum and product reduce over 16,384 floats, sharded
 *  across two socket worker processes. */
class Fleet : public Workload
{
  public:
    /** Relative tolerance against the double-precision host
     *  reduction; a float32 product of 16Ki factors accumulates up to
     *  16Ki half-ulp roundings (about 1e-3). */
    static constexpr double kRelTol = 2e-3;

    explicit Fleet(uint64_t seed)
    {
        Gen g(seed);
        s_ = distinctNeighbours<float>(kN,
                                       [&] { return g.floatIn(0.f, 1.f); });
        m_ = distinctNeighbours<float>(
            kN, [&] { return g.floatIn(0.9f, 1.1f); });
        refSum_ = 0.0;
        refProd_ = 1.0;
        for (size_t i = 0; i < kN; ++i) {
            refSum_ += s_[i];
            refProd_ *= m_[i];
        }
    }

    Geometry geometry() const override { return tableIII(16); }

    EngineConfig
    config() const override
    {
        EngineConfig c = pinnedConfig();
        c.devices = 2;
        c.transport = TransportKind::Socket;
        return c;
    }

    void
    upload(Device &dev, Spans &sp) override
    {
        sp(kUpload, [&] {
            ts_ = Tensor::fromVector(s_, &dev);
            tm_ = Tensor::fromVector(m_, &dev);
        });
    }

    bool
    pass(Device &dev, Spans &sp) override
    {
        const double sum = sp(kReduce, [&] { return ts_.sum<float>(); });
        const double prod = sp(kReduce, [&] { return tm_.prod<float>(); });
        sp(kFlush, [&] { dev.flush(); });
        return std::fabs(sum - refSum_) <= kRelTol * std::fabs(refSum_) &&
               std::fabs(prod - refProd_) <= kRelTol * std::fabs(refProd_);
    }

    void
    release() override
    {
        ts_ = Tensor();
        tm_ = Tensor();
    }

  private:
    static constexpr size_t kN = 16 * 1024;
    std::vector<float> s_, m_;
    double refSum_ = 0.0, refProd_ = 1.0;
    Tensor ts_, tm_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "cordic")
        return std::make_unique<Cordic>(seed);
    if (name == "sort")
        return std::make_unique<Sort>(seed);
    if (name == "io")
        return std::make_unique<Io>(seed);
    if (name == "fleet")
        return std::make_unique<Fleet>(seed);
    return nullptr;
}

// ------------------------------------------------------------- memory

/** Peak resident memory of this process in bytes (VmHWM). */
uint64_t
selfPeakRssBytes()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    return 0;
}

/**
 * Private resident memory of this process's live children (the socket
 * transport's shard workers) in bytes. A forked worker's own VmHWM
 * would count every page it shares with the host since the fork, so
 * only the pages it owns are added to the host's peak.
 */
uint64_t
childrenPrivateBytes()
{
    namespace fs = std::filesystem;
    uint64_t total = 0;
    std::error_code ec;
    for (const auto &task : fs::directory_iterator("/proc/self/task", ec)) {
        std::ifstream children(task.path() / "children");
        std::string pid;
        while (children >> pid) {
            std::ifstream f("/proc/" + pid + "/smaps_rollup");
            std::string line;
            while (std::getline(f, line))
                if (line.rfind("Private_", 0) == 0)
                    total += std::strtoull(
                                 line.c_str() + line.find(':') + 1,
                                 nullptr, 10) *
                             1024;
        }
    }
    return total;
}

// -------------------------------------------------------- measurement

/** Architectural counters of one pass: the part of Stats that the
 *  simulated design defines, compared exactly across passes. */
struct Arch
{
    std::array<uint64_t, Stats::numClasses> ops{};
    std::array<uint64_t, Stats::numClasses> cycles{};
    uint64_t gates = 0;
    uint64_t inits = 0;

    explicit Arch(const Stats &s)
        : ops(s.opCount), cycles(s.cycleCount), gates(s.logicGates),
          inits(s.logicInits) {}
    bool operator==(const Arch &) const = default;
};

WireTelemetry
operator-(const WireTelemetry &a, const WireTelemetry &b)
{
    WireTelemetry d;
    d.bytesTx = a.bytesTx - b.bytesTx;
    d.bytesRx = a.bytesRx - b.bytesRx;
    d.roundTrips = a.roundTrips - b.roundTrips;
    d.traceInstalls = a.traceInstalls - b.traceInstalls;
    d.traceHits = a.traceHits - b.traceHits;
    d.exchanges = a.exchanges - b.exchanges;
    d.exchangeNs = a.exchangeNs - b.exchangeNs;
    return d;
}

/** Everything observed over one pass. Counter deltas cover exactly
 *  the pass: the stats fetch (a round trip under the socket
 *  transport) happens outside the wire-telemetry window. */
struct PassRecord
{
    bool ok = false;
    bool traced = false;
    double wall = 0.0;
    std::array<double, kNumSpans> spans{};
    Stats sim;
    Stats drv;
    WireTelemetry wire;
    uint64_t boundaryMoves = 0;
};

PassRecord
runPass(Device &dev, Workload &w, bool traced)
{
    PassRecord r;
    const Stats sim0 = dev.stats();
    const Stats drv0 = dev.driver().stats();
    const WireTelemetry wire0 = dev.group().wireTelemetry();
    const uint64_t bm0 = dev.group().traffic().boundaryMoves;
    Spans sp;
    sp.on = traced;
    const auto t0 = Clock::now();
    r.ok = w.pass(dev, sp);
    r.wall = secondsSince(t0);
    r.traced = traced;
    r.spans = sp.sec;
    r.wire = dev.group().wireTelemetry() - wire0;
    r.boundaryMoves = dev.group().traffic().boundaryMoves - bm0;
    r.drv = dev.driver().stats() - drv0;
    r.sim = dev.stats() - sim0;
    return r;
}

/** One cold start: Device construction, input upload and the first
 *  pass, which fills the stream and trace caches, compiles replay
 *  programs and, under the socket transport, forks the workers and
 *  installs the traces. */
struct ColdRecord
{
    double construct = 0.0;
    double upload = 0.0;
    double firstPass = 0.0;
    double total = 0.0;
    PassRecord pass;
};

std::unique_ptr<Device>
coldStart(Workload &w, ColdRecord &c)
{
    const auto t0 = Clock::now();
    auto dev = std::make_unique<Device>(w.geometry(),
                                        Driver::Mode::Parallel, w.config());
    c.construct = secondsSince(t0);
    Spans bare;
    w.upload(*dev, bare);
    c.upload = secondsSince(t0) - c.construct;
    c.pass = runPass(*dev, w, false);
    c.total = secondsSince(t0);
    c.firstPass = c.total - c.construct - c.upload;
    return dev;
}

// -------------------------------------------------------------- output

class JsonObject
{
  public:
    JsonObject &
    num(const std::string &k, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        return raw(k, buf);
    }
    JsonObject &
    str(const std::string &k, const std::string &v)
    {
        return raw(k, "\"" + v + "\"");
    }
    JsonObject &
    boolean(const std::string &k, bool v)
    {
        return raw(k, v ? "true" : "false");
    }
    JsonObject &
    metric(const std::string &k, double v, const std::string &unit)
    {
        JsonObject m;
        m.num("value", v).str("unit", unit);
        return raw(k, m.text());
    }
    JsonObject &
    raw(const std::string &k, const std::string &v)
    {
        os_ << (first_ ? "" : ", ") << '"' << k << "\": " << v;
        first_ = false;
        return *this;
    }
    std::string text() const { return "{" + os_.str() + "}"; }

  private:
    std::ostringstream os_;
    bool first_ = true;
};

std::string
configJson(const Workload &w)
{
    const EngineConfig c = w.config();
    const Geometry g = w.geometry();
    JsonObject geo;
    geo.num("rows", g.rows)
        .num("cols", g.cols)
        .num("partitions", g.partitions)
        .num("crossbars", g.numCrossbars);
    JsonObject o;
    o.str("engine", engineKindName(c.kind))
        .num("threads", c.threads)
        .boolean("pipeline", c.pipeline)
        .boolean("trace_cache", c.traceCache)
        .num("devices", c.devices)
        .boolean("affinity", c.affinity)
        .str("storage", xbarStorageName(c.storage))
        .boolean("bulk_io", c.bulkIo)
        .boolean("compiled_replay", c.compiledReplay)
        .str("faults", c.faults)
        .boolean("verify_state", c.verifyState)
        .str("transport", transportKindName(c.transport))
        .raw("geometry", geo.text());
    return o.text();
}

uint64_t
opsOf(const Stats &s, OpClass c)
{
    return s.opCount[static_cast<size_t>(c)];
}

std::string
archJson(const Stats &s)
{
    JsonObject ops;
    for (size_t c = 0; c < Stats::numClasses; ++c)
        ops.num(opClassName(static_cast<OpClass>(c)), s.opCount[c]);
    JsonObject o;
    o.num("pim_cycles", s.totalCycles()).raw("ops", ops.text());
    return o.text();
}

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
};

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload")
            o.workload = v;
        else if (k == "--seed")
            o.seed = std::strtoull(v, &end, 10);
        else if (k == "--seconds")
            o.seconds = std::strtod(v, &end);
        else if (k == "--trace")
            o.trace = static_cast<int>(std::strtol(v, &end, 10));
        else
            return false;
        if (end && *end)
            return false;
    }
    return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0 &&
           (o.trace == 0 || o.trace == 1);
}

/**
 * Pin this process, and so every shard worker it forks, to the last
 * CPU it may run on. The workloads are single-threaded; fleet's host
 * and workers mostly wait on each other, and letting them wake each
 * other across CPUs of a shared virtual machine made its pass time
 * vary between runs several times more than on one CPU.
 */
void
pinToOneCpu()
{
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            sched_setaffinity(0, sizeof one, &one);
            return;
        }
    }
}

/** Cold starts per run; setup_s is their median. */
constexpr int kColdStarts = 3;
/** Warm passes per run at least, however long they take. */
constexpr size_t kMinPasses = 8;

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload cordic|sort|io|fleet "
                     "--seed N --seconds S --trace 0|1\n");
        return 2;
    }
    auto w = makeWorkload(opt.workload, opt.seed);
    if (!w) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    const bool traced = opt.trace == 1;
    pinToOneCpu();

    uint64_t attempted = 0, failed = 0;
    uint64_t workersPeak = 0;

    // Cold starts: each on a fresh device; the last one is kept warm.
    std::vector<ColdRecord> colds(kColdStarts);
    std::unique_ptr<Device> dev;
    for (auto &c : colds) {
        if (dev) {
            w->release();
            dev.reset();
        }
        dev = coldStart(*w, c);
        ++attempted;
        failed += c.pass.ok ? 0 : 1;
        workersPeak = std::max(workersPeak, childrenPrivateBytes());
    }

    // Warm passes. The traced run alternates bare and traced passes
    // so drift on the host hits both halves alike.
    std::vector<PassRecord> passes;
    const auto warm0 = Clock::now();
    while (passes.size() < kMinPasses || secondsSince(warm0) < opt.seconds) {
        passes.push_back(runPass(*dev, *w, traced && passes.size() % 2));
        ++attempted;
        failed += passes.back().ok ? 0 : 1;
    }

    // Architecture guard: every warm pass simulates the same work.
    const Arch arch0(passes.front().sim);
    bool archStable = true;
    for (const auto &p : passes) {
        if (!(Arch(p.sim) == arch0)) {
            archStable = false;
            if (p.ok)
                ++failed;
        }
    }

    const Stats &sim = passes.front().sim;
    const Stats &drv = passes.front().drv;
    const double microOps = static_cast<double>(sim.totalOps());
    const double pimCycles = static_cast<double>(sim.totalCycles());

    std::vector<double> bareWall, tracedWall, coverage;
    std::array<std::vector<double>, kNumSpans> spans;
    for (const auto &p : passes) {
        (p.traced ? tracedWall : bareWall).push_back(p.wall);
        if (!p.traced)
            continue;
        double covered = 0.0;
        for (int c = 0; c < kNumSpans; ++c) {
            spans[c].push_back(p.spans[c]);
            covered += p.spans[c];
        }
        coverage.push_back(covered / p.wall);
    }
    std::vector<double> setup, construct, upload, firstPass;
    for (const auto &c : colds) {
        setup.push_back(c.total);
        construct.push_back(c.construct);
        upload.push_back(c.upload);
        firstPass.push_back(c.firstPass);
    }
    workersPeak = std::max(workersPeak, childrenPrivateBytes());

    JsonObject m;
    if (!traced) {
        const double wall = median(bareWall);
        const double rss = static_cast<double>(selfPeakRssBytes() +
                                               workersPeak);
        m.metric("wall_s", wall, "s")
            .metric("sim_ops_per_s", microOps / wall, "1/s")
            .metric("pim_cycles", pimCycles, "cycles")
            .metric("setup_s", median(setup), "s")
            .metric("peak_rss_mb", rss / 1e6, "MB");
    } else {
        std::array<double, kNumSpans> span{};
        for (int c = 0; c < kNumSpans; ++c) {
            span[c] = median(spans[c]);
            m.metric(std::string("pim.") + kSpanNames[c] + "_s", span[c],
                     "s");
        }
        m.metric("pim.span_coverage", median(coverage), "ratio");

        // Every host read or write instruction is one Read or Write
        // micro-op; the rest are R-type and Move instructions.
        const uint64_t ioOps =
            opsOf(sim, OpClass::Read) + opsOf(sim, OpClass::Write);
        const double instrs = static_cast<double>(drv.instructions);
        const uint64_t fused = dev->driver().stats().fusionWaw +
                               dev->driver().stats().fusionInitChain +
                               dev->driver().stats().fusionWindow +
                               dev->driver().stats().fusionWriteStripe;
        m.metric("driver.instructions", instrs, "count")
            .metric("driver.ops_per_instr", microOps / instrs, "ops")
            .metric("driver.trace_hits", drv.traceCacheHits, "count")
            .metric("driver.trace_misses", drv.traceCacheMisses, "count")
            .metric("driver.trace_hit_ratio",
                    drv.traceCacheHits / (instrs - double(ioOps)), "ratio")
            .metric("driver.cold_trace_misses",
                    colds.back().pass.drv.traceCacheMisses, "count")
            .metric("driver.fused_ops", fused, "count")
            .metric("driver.stream_cache_entries",
                    dev->driver().streamCacheSize(), "count");

        const double simSpan = span[kCompute] + span[kReduce] +
                               span[kSort] + span[kFlush];
        m.metric("sim.micro_ops", microOps, "count")
            .metric("sim.ops.logic_h", opsOf(sim, OpClass::LogicH), "count")
            .metric("sim.ops.logic_v", opsOf(sim, OpClass::LogicV), "count")
            .metric("sim.ops.move", opsOf(sim, OpClass::Move), "count")
            .metric("sim.ops.write", opsOf(sim, OpClass::Write), "count")
            .metric("sim.ops.read", opsOf(sim, OpClass::Read), "count")
            .metric("sim.ops.mask",
                    opsOf(sim, OpClass::CrossbarMask) +
                        opsOf(sim, OpClass::RowMask),
                    "count")
            .metric("sim.host_ns_per_op",
                    microOps > ioOps ? simSpan * 1e9 / (microOps - ioOps)
                                     : 0.0,
                    "ns");

        const StorageGauges g = dev->group().storageGauges();
        m.metric("sim.storage.resident_mb", g.residentBytes / 1e6, "MB")
            .metric("sim.storage.blocks_present", g.blocksPresent, "count")
            .metric("sim.storage.blocks_elided", g.blocksElided, "count");

        const double words = static_cast<double>(drv.ioWordsTransposed);
        m.metric("sim.io.words_transposed", words, "count")
            .metric("sim.io.drains", drv.ioDrains, "count")
            .metric("sim.io.ns_per_word",
                    words > 0 ? (span[kUpload] + span[kReadback]) * 1e9 /
                                    words
                              : 0.0,
                    "ns");

        const WireTelemetry &wire = passes.front().wire;
        std::vector<double> exchange;
        for (const auto &p : passes)
            exchange.push_back(p.wire.exchangeNs * 1e-9);
        m.metric("sim.group.boundary_moves", passes.front().boundaryMoves,
                 "count")
            .metric("sim.wire.round_trips", wire.roundTrips, "count")
            .metric("sim.wire.round_trips_per_instr",
                    wire.roundTrips / instrs, "ratio")
            .metric("sim.wire.bytes_tx", wire.bytesTx, "B")
            .metric("sim.wire.bytes_rx", wire.bytesRx, "B")
            .metric("sim.wire.cold_bytes_tx",
                    colds.back().pass.wire.bytesTx, "B")
            .metric("sim.wire.trace_installs", wire.traceInstalls, "count")
            .metric("sim.wire.trace_hits", wire.traceHits, "count")
            .metric("sim.wire.exchange_s", median(exchange), "s");

        const Geometry geo = w->geometry();
        m.metric("theory.cycles", theory::theoreticalCycles(sim, geo),
                 "cycles")
            .metric("theory.overhead",
                    pimCycles / theory::conventionCycles(sim, geo) - 1.0,
                    "ratio");

        m.metric("setup.construct_s", median(construct), "s")
            .metric("setup.upload_s", median(upload), "s")
            .metric("setup.first_pass_s", median(firstPass), "s")
            .metric("trace.overhead_s",
                    median(tracedWall) - median(bareWall), "s");
    }

    w->release();
    dev.reset();

    std::ostringstream walls;
    for (const auto &p : passes)
        walls << (walls.tellp() ? ", " : "") << p.wall;
    JsonObject out;
    out.str("workload", opt.workload)
        .raw("seed", std::to_string(opt.seed))
        .num("trace", opt.trace)
        .raw("config", configJson(*w))
        .num("cold_starts", kColdStarts)
        .num("warm_passes", static_cast<double>(passes.size()))
        .raw("pass_wall_s", "[" + walls.str() + "]")
        .num("attempted", static_cast<double>(attempted))
        .num("failed", static_cast<double>(failed))
        .boolean("arch_stable", archStable)
        .raw("arch", archJson(sim))
        .raw("cold_arch", archJson(colds.back().pass.sim))
        .raw("metrics", m.text());
    std::printf("%s\n", out.text().c_str());
    return 0;
}
