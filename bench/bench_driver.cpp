/**
 * @file
 * Host-driver throughput (paper §VI-B "Host Driver Runtime" and
 * artifact appendix E): micro-operations are rerouted to a memory
 * buffer instead of the simulator, measuring the maximal rate at which
 * the host can generate the stream. The chip consumes one broadcast
 * op per cycle at 300 MHz; as long as the generation rate exceeds
 * that, "a hardware controller is not necessary" — the paper's claim.
 *
 * The trace-build panel times the layer between the driver and
 * replay: building a recorded stream into a frozen trace, decoded and
 * compiled into replay programs in one pass, per source op, as a
 * trace-cache miss pays it, plus the trace's LogicH sections per
 * source op before and after the replay compiler's liveness scan. The
 * cold build starts from an empty expansion table every rep (a fresh
 * Device's first miss); the warm build reuses one table whose every
 * word already validated (a later miss on the same Device, or another
 * trace of the same words).
 */
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "sim/batch_trace.hpp"
#include "sim/htree.hpp"
#include "sim/replay_program.hpp"

using namespace pypim;
using namespace pypim::bench;

namespace
{

struct Case
{
    const char *name;
    ROp op;
    DType dt;
};

const Case kCases[] = {
    {"int add", ROp::Add, DType::Int32},
    {"int mul", ROp::Mul, DType::Int32},
    {"int div", ROp::Div, DType::Int32},
    {"int <", ROp::Lt, DType::Int32},
    {"fp add", ROp::Add, DType::Float32},
    {"fp mul", ROp::Mul, DType::Float32},
    {"fp div", ROp::Div, DType::Float32},
    {"mux", ROp::Mux, DType::Int32},
};

/** One row of the trace-build panel. */
struct TraceBuildRow
{
    const char *name;
    uint64_t sourceOps;
    /** Build (decode and compile) per source op, from an empty and
     *  from a warm expansion table. */
    double buildNs, buildWarmNs;
    /** LogicH sections per source op before and after the replay
     *  compiler's liveness scan (ReplayProgram::Liveness). */
    double sectionsIn, sectionsOut;
};

/**
 * Trace-build panel: the driver's self-contained fp32 add and mul
 * streams (Table III geometry) built (compileBatchTrace) into a fresh
 * BatchTrace per rep, as a trace-cache miss does. "build" starts
 * every rep from an empty ExpansionTable, so it validates each
 * distinct LogicH word once per rep; "warm" builds through one table
 * kept across reps. Times are host nanoseconds per source op; not a
 * gate. The two section columns are the LogicH sections per source op
 * before and after the compiler's liveness scan.
 */
std::vector<TraceBuildRow>
traceBuildReport(double minSeconds = 0.2)
{
    using clock = std::chrono::steady_clock;
    const auto ns = [](clock::duration d) {
        return std::chrono::duration<double, std::nano>(d).count();
    };
    const Geometry g = benchGeometry();
    const HTree htree(g.numCrossbars);
    std::printf("\n=== Trace build (decode + compile per source op, "
                "cold and warm expansion table; %u crossbars) ===\n",
                g.numCrossbars);
    std::printf("%-10s %10s %12s %12s %9s %9s\n", "kernel", "src ops",
                "build [ns]", "warm [ns]", "secs/op", "live/op");
    std::vector<TraceBuildRow> rows;
    for (const Case &c : kCases) {
        if (c.dt != DType::Float32 ||
            (c.op != ROp::Add && c.op != ROp::Mul))
            continue;
        StreamRecorder cap;
        {
            Driver drv(cap, g, Driver::Mode::Parallel);
            drv.setTraceCacheEnabled(false);
            drv.execute(fullInstr(g, c.op, c.dt));
        }
        const std::vector<Word> &ops = cap.ops;
        ReplayProgram::Liveness live;
        ExpansionTable warm(g);
        // One timed build through @p table, added to @p total.
        const auto build = [&](ExpansionTable &table, double &total) {
            BatchTrace t;
            MaskState mask;
            mask.reset(g);
            const auto t0 = clock::now();
            compileBatchTrace(ops.data(), ops.size(), g, htree, table,
                              mask, t);
            total += ns(clock::now() - t0);
            live = t.liveness;
        };
        double coldNs = 0, warmNs = 0;
        const uint64_t reps = timedReps(
            [&] {
                ExpansionTable cold(g);
                build(cold, coldNs);
            },
            [] {}, minSeconds).first;
        build(warm, warmNs);
        warmNs = 0;
        const uint64_t warmReps = timedReps(
            [&] { build(warm, warmNs); }, [] {}, minSeconds).first;
        const double src = static_cast<double>(ops.size());
        rows.push_back({c.name, ops.size(),
                        coldNs / (static_cast<double>(reps) * src),
                        warmNs / (static_cast<double>(warmReps) * src),
                        static_cast<double>(live.sections) / src,
                        static_cast<double>(live.replayed()) / src});
        const TraceBuildRow &r = rows.back();
        std::printf("%-10s %10llu %12.1f %12.1f %9.2f %9.2f\n", r.name,
                    static_cast<unsigned long long>(r.sourceOps),
                    r.buildNs, r.buildWarmNs, r.sectionsIn,
                    r.sectionsOut);
    }
    return rows;
}

/**
 * Steady-state warm-cache throughput: one repeated instruction (int
 * Mul by default: the heaviest common kernel) runs end-to-end against
 * the simulator in three driver configurations — translation every
 * rep (all caches off), the stream cache alone (byte replay, full
 * decode every rep), and the trace cache on top (decode-once shared
 * handles). Every configuration's destination register is
 * checksummed: cached replay MUST be bit-identical to fresh
 * translation, and the function fails (returns false) when it is not
 * — the CI bench smoke step relies on that. The --json record carries
 * this table and the trace-build panel @p build.
 */
bool
steadyStateReport(const std::vector<TraceBuildRow> &build,
                  double minSeconds = 0.3)
{
    struct Config
    {
        const char *name;
        bool streamCache, traceCache;
    };
    constexpr size_t kNumConfigs = 3;
    const Config kConfigs[kNumConfigs] = {
        {"no caches (translate)", false, false},
        {"stream cache only", true, false},
        {"trace cache", true, true},
    };

    const Geometry g = benchGeometry(16);
    const EngineConfig cfg = engineConfig();
    const RTypeInstr in = fullInstr(g, ROp::Mul, DType::Int32);
    std::printf("\n=== Warm-cache steady-state throughput (repeated "
                "int mul, %u crossbars, %u replay threads) ===\n",
                g.numCrossbars, cfg.resolvedThreads());

    double rates[kNumConfigs] = {};
    uint64_t checksums[kNumConfigs] = {};
    uint64_t hits[kNumConfigs] = {};
    for (size_t c = 0; c < kNumConfigs; ++c) {
        const Config &conf = kConfigs[c];
        Simulator sim(g, cfg);
        Rng rng(1234);
        fillRegister(sim, 0, rng);
        fillRegister(sim, 1, rng);
        Driver drv(sim, g, Driver::Mode::Parallel);
        drv.setStreamCacheEnabled(conf.streamCache);
        drv.setTraceCacheEnabled(conf.traceCache);
        // Warm: record + build + first replay outside the window.
        drv.execute(in);
        drv.execute(in);
        sim.flush();
        const auto [reps, elapsed] = timedReps(
            [&] { drv.execute(in); }, [&] { sim.flush(); },
            minSeconds);
        rates[c] = static_cast<double>(reps) / elapsed;
        hits[c] = drv.stats().traceCacheHits;
        uint64_t ck = 0;
        for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
            for (uint32_t row = 0; row < g.rows; row += 3)
                ck = ck * 1099511628211ull ^
                     sim.crossbar(xb).read(in.rd, row);
        checksums[c] = ck;
    }
    // Speedups are against the stream-cache row, so the table prints
    // once every configuration has run.
    std::printf("%-24s %12s %9s %8s\n", "configuration", "instr/s",
                "speedup", "hits");
    for (size_t c = 0; c < kNumConfigs; ++c)
        std::printf("%-24s %12.1f %8.2fx %8llu\n", kConfigs[c].name,
                    rates[c], rates[c] / rates[1],
                    static_cast<unsigned long long>(hits[c]));
    const bool identical =
        checksums[0] == checksums[1] && checksums[0] == checksums[2];
    const double speedup = rates[2] / rates[1];
    std::printf("warm-cache speedup (trace cache over stream cache "
                "only): %.2fx [gauge: >=1.3x]; results bit-identical: "
                "%s\n",
                speedup, identical ? "yes" : "NO — BUG");

    if (!jsonOutPath().empty()) {
        Json j;
        j.beginObject();
        j.field("bench", "bench_driver");
        jsonConfig(j, g);
        j.beginArray("steady_state");
        for (size_t c = 0; c < kNumConfigs; ++c) {
            j.beginObject();
            j.field("name", kConfigs[c].name);
            j.field("instr_per_s", rates[c]);
            j.field("speedup_vs_stream_cache", rates[c] / rates[1]);
            j.field("trace_cache_hits", hits[c]);
            j.end();
        }
        j.end();
        j.field("warm_cache_speedup", speedup);
        j.field("bit_identical", identical);
        j.beginArray("trace_build");
        for (const TraceBuildRow &r : build) {
            j.beginObject();
            j.field("name", r.name);
            j.field("source_ops", r.sourceOps);
            j.field("build_ns_per_op", r.buildNs);
            j.field("build_warm_ns_per_op", r.buildWarmNs);
            j.field("sections_per_op", r.sectionsIn);
            j.field("live_sections_per_op", r.sectionsOut);
            j.end();
        }
        j.end();
        j.end();
        j.writeTo(jsonOutPath());
    }
    return identical;
}

void
generate(benchmark::State &state, ROp op, DType dt)
{
    const Geometry g = benchGeometry();
    BufferSink sink(1 << 16);
    Driver drv(sink, g, Driver::Mode::Parallel);
    const RTypeInstr in = fullInstr(g, op, dt);
    uint64_t ops = 0;
    for (auto _ : state) {
        const uint64_t before = sink.total();
        drv.execute(in);
        ops += sink.total() - before;
    }
    state.SetItemsProcessed(static_cast<int64_t>(ops));
    state.counters["micro-ops/instr"] = static_cast<double>(
        ops / std::max<uint64_t>(1, state.iterations()));
}

} // namespace

BENCHMARK_CAPTURE(generate, int_add, ROp::Add, DType::Int32);
BENCHMARK_CAPTURE(generate, int_mul, ROp::Mul, DType::Int32);
BENCHMARK_CAPTURE(generate, fp_add, ROp::Add, DType::Float32);
BENCHMARK_CAPTURE(generate, fp_mul, ROp::Mul, DType::Float32);
BENCHMARK_CAPTURE(generate, fp_div, ROp::Div, DType::Float32);

int
main(int argc, char **argv)
{
    applyEngineFlags(argc, argv);
    benchmark::Initialize(&argc, argv);
    // The driver bench streams into a memory buffer (no simulator),
    // but accepts the shared engine flags so sweep scripts can pass
    // one uniform command line to every bench target.
    printEngineBanner();

    const Geometry g = benchGeometry();
    const double chipRate = static_cast<double>(g.clockHz);

    std::printf("=== Host driver maximal throughput (artifact "
                "appendix E) ===\n");
    std::printf("chip consumption rate: %.0f M micro-ops/s "
                "(1 op/cycle at %.0f MHz)\n",
                chipRate / 1e6, chipRate / 1e6);
    std::printf("%-10s %16s %16s %10s\n", "kernel", "ops/instr",
                "gen rate [M/s]", "headroom");
    double headMin = 1e300;
    for (const Case &c : kCases) {
        const RTypeInstr in = fullInstr(g, c.op, c.dt);
        // Ops per instruction.
        CountingSink cnt;
        {
            Driver d(cnt, g, Driver::Mode::Parallel);
            d.execute(in);
        }
        const uint64_t perInstr = cnt.stats().totalOps();
        const double rate = generationRate(
            g, Driver::Mode::Parallel,
            [&](Driver &dd) { dd.execute(in); });
        const double headroom = rate / chipRate;
        headMin = std::min(headMin, headroom);
        std::printf("%-10s %16llu %16.1f %9.2fx\n", c.name,
                    static_cast<unsigned long long>(perInstr),
                    rate / 1e6, headroom);
    }
    std::printf("minimum headroom: %.2fx -> the host driver is %s a "
                "bottleneck (paper: 6.8x worst case)\n",
                headMin, headMin >= 1.0 ? "NOT" : "POTENTIALLY");

    const std::vector<TraceBuildRow> build = traceBuildReport();
    const bool identical = steadyStateReport(build);

    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    // Non-zero exit when cached replay diverged from fresh
    // translation: the CI bench smoke step asserts bit-identity.
    return identical ? 0 : 1;
}
