/**
 * @file
 * Shared infrastructure for the PyPIM benchmark suite.
 *
 * Every bench reproduces a piece of the paper's evaluation (§VI,
 * Fig. 13): it measures the micro-op/cycle counts of a workload on the
 * bit-accurate simulator, derives throughput with the paper's Eq. (1)
 * (parallelism = rows of the Table III deployment, 64M, at 300 MHz),
 * computes the theoretical-PIM bound from the same stream, and
 * reports the host driver's generation-rate headroom.
 *
 * The simulated crossbar COUNT does not affect the latency of
 * broadcast instruction streams, so benches run on a small memory
 * (16-64 crossbars) and report throughput at the 64k-crossbar
 * deployment scale — exactly the normalisation the paper's artifact
 * describes (appendix E / Eq. 1).
 */
#ifndef PYPIM_BENCH_BENCH_COMMON_HPP
#define PYPIM_BENCH_BENCH_COMMON_HPP

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "pim/pypim.hpp"
#include "sim/sink.hpp"
#include "theory/model.hpp"

namespace pypim::bench
{

/** Table III crossbar geometry with a simulation-friendly memory. */
inline Geometry
benchGeometry(uint32_t crossbars = 16)
{
    Geometry g;
    g.numCrossbars = crossbars;
    return g;
}

/**
 * Process-wide execution-engine selection for bench simulators.
 * Defaults from the PYPIM_* environment (EngineConfig::fromEnv;
 * serial when unset); overridable on the command line via
 * applyEngineFlags.
 */
inline EngineConfig &
engineConfig()
{
    static EngineConfig cfg = EngineConfig::fromEnv();
    return cfg;
}

/**
 * Output path of the machine-readable benchmark record (--json=PATH);
 * empty when no JSON output was requested.
 */
inline std::string &
jsonOutPath()
{
    static std::string path;
    return path;
}

/**
 * Parse and strip --threads=N, --trace-cache=on|off, --devices=N,
 * --bulk-io=on|off, --transport=inproc|socket and --json=PATH from
 * argv (before benchmark::Initialize, which rejects unknown flags),
 * storing the result in engineConfig() / jsonOutPath(). The trace
 * cache and bulk I/O have no environment variable; the other flags
 * override their PYPIM_* variable. Invalid values abort, exactly like
 * the environment path — a typo must never silently benchmark the
 * wrong configuration.
 */
inline void
applyEngineFlags(int &argc, char **argv)
{
    EngineConfig &cfg = engineConfig();
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        if (arg.rfind("--json=", 0) == 0) {
            jsonOutPath() = arg.substr(7);
            fatalIf(jsonOutPath().empty(),
                    "--json=: expected a file path");
        } else if (arg.rfind("--trace-cache=", 0) == 0) {
            const std::string v = arg.substr(14);
            if (v == "on" || v == "1")
                cfg.traceCache = true;
            else if (v == "off" || v == "0")
                cfg.traceCache = false;
            else
                fatal("--trace-cache=" + v + ": expected on|off");
        } else if (arg.rfind("--threads=", 0) == 0) {
            const char *s = arg.c_str() + 10;
            char *end = nullptr;
            const long n = std::strtol(s, &end, 10);
            fatalIf(*s == '\0' || *end != '\0' || n < 0 ||
                        n > 1 << 20,
                    "--threads=" + arg.substr(10) +
                        ": expected a non-negative integer");
            cfg.threads = static_cast<uint32_t>(n);
        } else if (arg.rfind("--devices=", 0) == 0) {
            const char *s = arg.c_str() + 10;
            char *end = nullptr;
            const long n = std::strtol(s, &end, 10);
            fatalIf(*s == '\0' || *end != '\0' || n < 1 ||
                        n > 1 << 16 || (n & (n - 1)) != 0,
                    "--devices=" + arg.substr(10) +
                        ": expected a power-of-two sub-device count");
            cfg.devices = static_cast<uint32_t>(n);
        } else if (arg.rfind("--bulk-io=", 0) == 0) {
            const std::string v = arg.substr(10);
            if (v == "on" || v == "1")
                cfg.bulkIo = true;
            else if (v == "off" || v == "0")
                cfg.bulkIo = false;
            else
                fatal("--bulk-io=" + v + ": expected on|off");
        } else if (arg.rfind("--transport=", 0) == 0) {
            const std::string v = arg.substr(12);
            if (v == "inproc")
                cfg.transport = TransportKind::Inproc;
            else if (v == "socket")
                cfg.transport = TransportKind::Socket;
            else
                fatal("--transport=" + v + ": expected inproc|socket");
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
}

/** One-line engine banner for bench output. */
inline void
printEngineBanner()
{
    const EngineConfig &cfg = engineConfig();
    std::printf("simulator: %u replay threads", cfg.resolvedThreads());
    std::printf(", trace cache %s", cfg.traceCache ? "on" : "off");
    std::printf(", %s storage", xbarStorageName(cfg.storage));
    std::printf(", bulk I/O %s", cfg.bulkIo ? "on" : "off");
    std::printf(", %s transport", transportKindName(cfg.transport));
    if (cfg.devices > 1)
        std::printf(", %u sub-devices", cfg.devices);
    std::printf("  [--threads=N --trace-cache=on|off --devices=N "
                "--bulk-io=on|off --transport=inproc|socket "
                "--json=PATH or PYPIM_THREADS/PYPIM_DEVICES/"
                "PYPIM_TRANSPORT]\n");
}

/**
 * Minimal JSON emitter for the machine-readable bench records
 * (BENCH_<name>.json): nested objects/arrays with comma bookkeeping;
 * keys and string values are plain identifiers, so no escaping is
 * needed.
 */
class Json
{
  public:
    void
    beginObject(const char *key = nullptr)
    {
        open(key, '{');
    }
    void
    beginArray(const char *key = nullptr)
    {
        open(key, '[');
    }
    void
    end()
    {
        s_ += stack_.back();
        stack_.pop_back();
        comma_ = true;
    }
    void
    field(const char *key, const char *v)
    {
        prefix(key);
        s_ += '"';
        s_ += v;
        s_ += '"';
    }
    void
    field(const char *key, const std::string &v)
    {
        field(key, v.c_str());
    }
    void
    field(const char *key, double v)
    {
        prefix(key);
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6g", v);
        s_ += buf;
    }
    void
    field(const char *key, uint64_t v)
    {
        prefix(key);
        s_ += std::to_string(v);
    }
    void
    field(const char *key, uint32_t v)
    {
        field(key, static_cast<uint64_t>(v));
    }
    void
    field(const char *key, bool v)
    {
        prefix(key);
        s_ += v ? "true" : "false";
    }

    /** Write the document to @p path (fatal on I/O failure). */
    void
    writeTo(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        fatalIf(f == nullptr, "cannot open " + path + " for writing");
        std::fputs(s_.c_str(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("wrote benchmark record to %s\n", path.c_str());
    }

    const std::string &str() const { return s_; }

  private:
    void
    prefix(const char *key)
    {
        if (comma_)
            s_ += ", ";
        comma_ = true;
        if (key) {
            s_ += '"';
            s_ += key;
            s_ += "\": ";
        }
    }
    void
    open(const char *key, char c)
    {
        prefix(key);
        s_ += c;
        stack_.push_back(c == '{' ? '}' : ']');
        comma_ = false;
    }

    std::string s_;
    std::vector<char> stack_;
    bool comma_ = false;
};

/** Common config header of every JSON bench record. */
inline void
jsonConfig(Json &j, const Geometry &g)
{
    const EngineConfig &cfg = engineConfig();
    j.beginObject("config");
    j.field("threads", cfg.resolvedThreads());
    j.field("trace_cache", cfg.traceCache);
    j.field("devices", cfg.devices);
    j.field("storage", xbarStorageName(cfg.storage));
    j.field("bulk_io", cfg.bulkIo);
    j.field("transport", transportKindName(cfg.transport));
    j.field("crossbars", g.numCrossbars);
    j.field("rows", g.rows);
    j.field("partitions", g.partitions);
    j.end();
}

/**
 * One "KEY: N kB" line from /proc/self/status; 0 when the file or the
 * key is unavailable (non-Linux hosts) — callers print the value as
 * best-effort observability, never gate on it.
 */
inline uint64_t
procStatusKb(const char *key)
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    const size_t klen = std::strlen(key);
    char line[256];
    uint64_t kb = 0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::strncmp(line, key, klen) == 0) {
            kb = std::strtoull(line + klen, nullptr, 10);
            break;
        }
    }
    std::fclose(f);
    return kb;
}

/** Peak resident set size [kB] of this process (VmHWM); 0 if unknown. */
inline uint64_t
peakRssKb()
{
    return procStatusKb("VmHWM:");
}

/** Current resident set size [kB] (VmRSS); 0 if unknown. */
inline uint64_t
currentRssKb()
{
    return procStatusKb("VmRSS:");
}

/** Storage-gauge sub-object of a JSON bench record. */
inline void
jsonStorageGauges(Json &j, const char *key, const StorageGauges &g)
{
    j.beginObject(key);
    j.field("blocks_total", g.blocksTotal);
    j.field("blocks_present", g.blocksPresent);
    j.field("blocks_elided", g.blocksElided);
    j.field("cow_shared", g.cowShared);
    j.field("resident_bytes", g.residentBytes);
    j.field("slab_crossbars", g.slabCrossbars);
    j.end();
}

/**
 * Timing skeleton shared by the end-to-end measurements: invoke
 * @p body repeatedly until @p minSeconds of wall clock have elapsed,
 * then @p drain — inside the timed window, so a socket group pays for
 * all work it streamed — and return {reps, seconds}.
 */
template <typename BodyFn, typename DrainFn>
inline std::pair<uint64_t, double>
timedReps(BodyFn &&body, DrainFn &&drain, double minSeconds)
{
    using clock = std::chrono::steady_clock;
    uint64_t reps = 0;
    const auto t0 = clock::now();
    double elapsed = 0.0;
    do {
        body();
        ++reps;
        elapsed = std::chrono::duration<double>(clock::now() - t0)
                      .count();
    } while (elapsed < minSeconds);
    drain();
    elapsed = std::chrono::duration<double>(clock::now() - t0).count();
    return {reps, elapsed};
}

/** Full-scale deployment (Table III: 64k crossbars, 64M rows). */
inline const Geometry &
deployment()
{
    static const Geometry g = tableIIIGeometry();
    return g;
}

/** One row of a Figure-13-style result table. */
struct Fig13Row
{
    std::string name;
    uint64_t measuredCycles = 0;
    uint64_t theoryCycles = 0;      //!< amortised-INIT lower bound
    uint64_t conventionCycles = 0;  //!< AritPIM-convention count
    uint64_t streamOps = 0;     //!< micro-ops in the measured stream
    double driverRate = 0.0;    //!< host micro-op generation rate [1/s]
};

/** Print a Figure-13 panel plus the paper's summary statistics. */
inline void
printFig13(const char *title, const std::vector<Fig13Row> &rows)
{
    const Geometry &dep = deployment();
    const double rowsP = static_cast<double>(dep.totalRows());
    std::printf("\n=== %s ===\n", title);
    std::printf("Eq. (1): throughput = parallelism (%.0fM rows) / "
                "latency [cycles] * %.0f MHz\n",
                rowsP / 1e6, dep.clockHz / 1e6);
    std::printf("gapA = overhead vs the AritPIM-convention count "
                "(gates + inits; the paper's 5%%/16%% metric);\n"
                "gapL = distance from the amortised-INIT lower "
                "bound\n");
    std::printf("%-18s %10s %10s %6s %6s | %12s %12s %12s %9s\n",
                "benchmark", "cycles", "theory", "gapA", "gapL",
                "PyPIM[OP/s]", "theory[OP/s]", "driver[OP/s]",
                "headroom");
    double gapASum = 0.0, gapAMax = 0.0, headMin = 1e300;
    for (const auto &r : rows) {
        const double pTput =
            theory::throughput(r.measuredCycles, dep.totalRows(), dep);
        const double tTput =
            theory::throughput(r.theoryCycles, dep.totalRows(), dep);
        const double dTput =
            rowsP * r.driverRate / static_cast<double>(r.streamOps);
        const double gapA =
            100.0 * (static_cast<double>(r.measuredCycles) /
                         static_cast<double>(r.conventionCycles) -
                     1.0);
        const double gapL =
            100.0 * (static_cast<double>(r.measuredCycles) /
                         static_cast<double>(r.theoryCycles) -
                     1.0);
        const double headroom = dTput / pTput;
        gapASum += gapA;
        gapAMax = std::max(gapAMax, gapA);
        headMin = std::min(headMin, headroom);
        std::printf("%-18s %10llu %10llu %5.1f%% %5.0f%% | %12.3e "
                    "%12.3e %12.3e %8.2fx\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.measuredCycles),
                    static_cast<unsigned long long>(r.theoryCycles),
                    gapA, gapL, pTput, tTput, dTput, headroom);
    }
    std::printf("summary: mean integration overhead %.2f%% "
                "(worst %.2f%%) [paper: 5%% / 16%%]; min driver "
                "headroom %.2fx [paper: 6.8x worst]\n",
                gapASum / static_cast<double>(rows.size()), gapAMax,
                headMin);
}

/**
 * Host micro-op generation rate [ops/s]: repeatedly translate the
 * instruction stream emitted by @p emitAll into a memory buffer (the
 * artifact's "ideal chip" harness, appendix E).
 */
template <typename Fn>
double
generationRate(const Geometry &geo, Driver::Mode mode, Fn &&emitAll,
               double minSeconds = 0.2)
{
    BufferSink sink(1 << 16);
    Driver drv(sink, geo, mode);
    emitAll(drv);  // warm-up; also sizes one repetition
    const uint64_t opsPerRep = sink.total();
    using clock = std::chrono::steady_clock;
    uint64_t reps = 0;
    const auto t0 = clock::now();
    double elapsed = 0.0;
    do {
        emitAll(drv);
        ++reps;
        elapsed = std::chrono::duration<double>(clock::now() - t0)
                      .count();
    } while (elapsed < minSeconds);
    return static_cast<double>(reps * opsPerRep) / elapsed;
}

/** Fill register @p slot of every thread with random words. */
inline void
fillRegister(Simulator &sim, uint32_t slot, Rng &rng,
             bool floatData = false)
{
    const Geometry &g = sim.geometry();
    for (uint32_t w = 0; w < g.numCrossbars; ++w) {
        for (uint32_t r = 0; r < g.rows; ++r) {
            uint32_t v = rng.word();
            if (floatData) {
                // Finite, well-scaled floats.
                union { uint32_t u; float f; } x;
                x.f = (static_cast<float>(v % 100000) - 50000.0f) / 7.0f;
                v = x.u;
            }
            sim.crossbar(w).writeRow(slot, v, r);
        }
    }
}

/** Full-mask R-type instruction for the given geometry. */
inline RTypeInstr
fullInstr(const Geometry &g, ROp op, DType dt, uint8_t rd = 2,
          uint8_t ra = 0, uint8_t rb = 1, uint8_t rc = 3)
{
    RTypeInstr in;
    in.op = op;
    in.dtype = dt;
    in.rd = rd;
    in.ra = ra;
    in.rb = rb;
    in.rc = rc;
    in.warps = Range::all(g.numCrossbars);
    in.rows = Range::all(g.rows);
    return in;
}

} // namespace pypim::bench

#endif // PYPIM_BENCH_BENCH_COMMON_HPP
