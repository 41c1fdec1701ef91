/**
 * @file
 * Ablation of the partition parallelism forms (paper §II-B, §III-D1,
 * Fig. 4 and Fig. 7): bit-serial vs bit-parallel element-parallel
 * arithmetic, swept over the partition count N.
 *
 * Three configurations per (op, N):
 *  - serial/no-partitions: every micro-op performs one gate (the
 *    partition-free AritPIM baseline),
 *  - serial/partitions: ripple algorithms with bulk-initialised lanes,
 *  - parallel: carry-lookahead addition (Brent-Kung) and carry-save
 *    multiplication using periodic semi-parallel operations.
 *
 * Expected shape: addition O(N) -> O(log N), multiplication
 * O(N^2) -> O(N log N) (AritPIM reports ~14x for N = 32 multiplication
 * against the no-partition baseline).
 */
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

using namespace pypim;
using namespace pypim::bench;

namespace
{

Geometry
ablationGeometry(uint32_t partitions)
{
    Geometry g;
    g.partitions = partitions;
    g.wordBits = partitions;
    g.cols = std::min<uint32_t>(1024, 64 * partitions);
    g.numCrossbars = 4;
    g.rows = 64;
    g.userRegs = std::min<uint32_t>(14, g.slots() - 18);
    return g;
}

uint64_t
latency(const Geometry &g, Driver::Mode mode, bool partitions, ROp op)
{
    CountingSink sink;
    Driver drv(sink, g, mode);
    drv.setPartitionsEnabled(partitions);
    drv.execute(fullInstr(g, op, DType::Int32));
    return sink.stats().totalOps();
}

/**
 * Trace-cache ablation: warm steady-state throughput of one repeated
 * instruction with the stream cache alone and with the trace cache on
 * top, with the driver's observability counters (trace-cache
 * hits/misses, INIT1 sections the replay compiler fused and dead
 * sections it dropped). --no-trace-cache drops the trace-cache row,
 * pinning the ablation baseline.
 */
void
traceCacheAblation(bool allowTraceCache)
{
    const Geometry g = benchGeometry(16);
    const RTypeInstr in = fullInstr(g, ROp::Mul, DType::Int32);
    std::printf("=== Trace-cache ablation (repeated int mul, %u "
                "crossbars) ===\n",
                g.numCrossbars);
    std::printf("%-26s %10s %8s | %8s %8s %8s %8s\n", "config",
                "instr/s", "speedup", "hits", "misses", "fused", "dead");
    double base = 0.0;
    StorageGauges gauges;
    for (const bool cache : {false, true}) {
        if (cache && !allowTraceCache)
            continue;
        Simulator sim(g, engineConfig());
        Rng rng(5);
        fillRegister(sim, 0, rng);
        fillRegister(sim, 1, rng);
        Driver drv(sim, g, Driver::Mode::Parallel);
        drv.setTraceCacheEnabled(cache);
        drv.execute(in);  // warm: record + build
        sim.flush();
        const auto [reps, elapsed] = timedReps(
            [&] { drv.execute(in); }, [&] { sim.flush(); }, 0.2);
        const double rate = static_cast<double>(reps) / elapsed;
        if (base == 0.0)
            base = rate;
        const Stats &s = drv.stats();
        std::printf("%-26s %10.1f %7.2fx | %8llu %8llu %8llu %8llu\n",
                    cache ? "trace cache" : "stream cache only", rate,
                    rate / base,
                    static_cast<unsigned long long>(s.traceCacheHits),
                    static_cast<unsigned long long>(s.traceCacheMisses),
                    static_cast<unsigned long long>(s.sectionsFused),
                    static_cast<unsigned long long>(s.sectionsDead));
        gauges = sim.storageGauges();
    }
    // Footprint of the last (most featureful) configuration, plus the
    // process high-water mark: the storage observability hook for
    // ablation runs.
    std::printf("storage [%s]: blocks %llu/%llu present, %llu "
                "slab crossbars, resident %.2f MB; "
                "peak RSS %.1f MB\n\n",
                xbarStorageName(engineConfig().storage),
                static_cast<unsigned long long>(gauges.blocksPresent),
                static_cast<unsigned long long>(gauges.blocksTotal),
                static_cast<unsigned long long>(gauges.slabCrossbars),
                static_cast<double>(gauges.residentBytes) / 1e6,
                static_cast<double>(peakRssKb()) / 1e3);
}

/**
 * Bulk I/O footer: one tensor round-trip on the configured engine,
 * reporting the driver's bulk-transfer observability counters
 * (--bulk-io=off shows zero transfers — the element-wise oracle).
 */
void
bulkIoFooter()
{
    const Geometry g = benchGeometry(16);
    Device dev(g, Driver::Mode::Parallel, engineConfig());
    std::vector<int32_t> host(g.totalRows());
    Rng rng(13);
    for (auto &v : host)
        v = static_cast<int32_t>(rng.word());
    Tensor t = Tensor::fromVector(host, &dev);
    const bool ok = t.toIntVector() == host;
    const Stats &ds = dev.driver().stats();
    std::printf("bulk I/O [%s]: %llu reads, %llu writes, %llu words "
                "transposed, %llu drains over a %llu-element "
                "round-trip (%s)\n\n",
                dev.driver().bulkIoEnabled() ? "on" : "off",
                static_cast<unsigned long long>(ds.bulkReads),
                static_cast<unsigned long long>(ds.bulkWrites),
                static_cast<unsigned long long>(ds.ioWordsTransposed),
                static_cast<unsigned long long>(ds.ioDrains),
                static_cast<unsigned long long>(host.size()),
                ok ? "values verified" : "VALUE MISMATCH — BUG");
}

} // namespace

int
main(int argc, char **argv)
{
    // Ablation flag: strip before benchmark::Initialize (which
    // rejects unknown flags), after the shared engine flags.
    bool allowTraceCache = true;
    {
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            const std::string arg(argv[i]);
            if (arg == "--no-trace-cache")
                allowTraceCache = false;
            else
                argv[out++] = argv[i];
        }
        argc = out;
    }
    applyEngineFlags(argc, argv);
    benchmark::Initialize(&argc, argv);
    printEngineBanner();

    traceCacheAblation(allowTraceCache);
    bulkIoFooter();

    std::printf("=== Partition-parallelism ablation (paper Fig. 4 / "
                "II-B) ===\n");
    std::printf("latency in micro-ops (= cycles) per element-parallel "
                "instruction\n\n");
    for (const char *opName : {"addition", "multiplication"}) {
        const ROp op =
            std::string(opName) == "addition" ? ROp::Add : ROp::Mul;
        std::printf("%-14s %6s %12s %12s %12s %8s %8s\n", opName, "N",
                    "serial-noP", "serial", "parallel", "ser/par",
                    "noP/par");
        for (uint32_t n : {8u, 16u, 32u}) {
            const Geometry g = ablationGeometry(n);
            const uint64_t noPart =
                latency(g, Driver::Mode::Serial, false, op);
            const uint64_t serial =
                latency(g, Driver::Mode::Serial, true, op);
            const uint64_t parallel =
                latency(g, Driver::Mode::Parallel, true, op);
            std::printf("%-14s %6u %12llu %12llu %12llu %7.2fx "
                        "%7.2fx\n",
                        "", n,
                        static_cast<unsigned long long>(noPart),
                        static_cast<unsigned long long>(serial),
                        static_cast<unsigned long long>(parallel),
                        static_cast<double>(serial) / parallel,
                        static_cast<double>(noPart) / parallel);
        }
        std::printf("\n");
    }

    // Half-gates encoding ablation: how much larger would the
    // operation stream be if every periodic op had to be issued as
    // single gates (i.e., without the paper's compact partition
    // format)?
    {
        const Geometry g = ablationGeometry(32);
        const uint64_t withFormat =
            latency(g, Driver::Mode::Parallel, true, ROp::Add);
        const uint64_t withoutFormat =
            latency(g, Driver::Mode::Parallel, false, ROp::Add);
        std::printf("half-gates periodic encoding: parallel int add "
                    "needs %llu ops with the partition format vs %llu "
                    "single-gate ops without (%.2fx compression)\n",
                    static_cast<unsigned long long>(withFormat),
                    static_cast<unsigned long long>(withoutFormat),
                    static_cast<double>(withoutFormat) / withFormat);
    }

    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
