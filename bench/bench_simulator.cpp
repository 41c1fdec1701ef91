/**
 * @file
 * Simulator performance (paper §VI: the GPU-accelerated simulator; our
 * CPU substitute uses the same condensed bit-packed storage). Reports
 * the host-side micro-op execution rate as the simulated memory scales
 * in crossbar count and rows — the quantities that determine the cost
 * of one broadcast logic op (O(crossbars * rows/64) word operations) —
 * and sweeps the replay thread count of a prepared trace (compiled,
 * crossbar-major) against the op-major raw stream, to show how
 * simulation throughput scales with cache blocking and host cores
 * the way real PIM scales with independent compute arrays. The
 * storage sweep
 * gauges paged (block-elided) crossbar storage against
 * the dense slab — throughput parity on dense data, resident-byte
 * reduction on sparse data, and max-geometry scaling past what dense
 * slabs can allocate. The replay panel times the compiled-replay
 * executor alone, in every ISA build the host supports and on both
 * storage forms.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "sim/batch_trace.hpp"
#include "sim/checkpoint.hpp"
#include "sim/replay_program.hpp"
#include "sim/serialize.hpp"

using namespace pypim;
using namespace pypim::bench;

namespace
{

/** Execute a mixed micro-op heavy instruction (float add). */
void
simScaling(benchmark::State &state)
{
    Geometry g = benchGeometry(static_cast<uint32_t>(state.range(0)));
    g.rows = static_cast<uint32_t>(state.range(1));
    Simulator sim(g, engineConfig());
    Driver drv(sim, g, Driver::Mode::Parallel);
    Rng rng(3);
    fillRegister(sim, 0, rng, true);
    fillRegister(sim, 1, rng, true);
    const RTypeInstr in = fullInstr(g, ROp::Add, DType::Float32);
    uint64_t ops = 0;
    for (auto _ : state) {
        sim.stats().clear();
        drv.execute(in);
        ops += sim.stats().totalOps();
    }
    state.SetItemsProcessed(static_cast<int64_t>(ops));
    state.counters["simulated_threads"] =
        static_cast<double>(g.totalRows());
}

/** The raw-logic batch the logic-rate benchmarks replay. */
std::vector<Word>
logicBatch(const Geometry &g, int pairs = 512)
{
    const Word init = MicroOp::logicH(Gate::Init1, 0, 0,
                                      g.column(4, 0),
                                      g.partitions - 1, 1).encode();
    const Word nor = MicroOp::logicH(Gate::Nor, g.column(0, 0),
                                     g.column(1, 0), g.column(4, 0),
                                     g.partitions - 1, 1).encode();
    std::vector<Word> batch;
    batch.reserve(2 * static_cast<size_t>(pairs));
    for (int i = 0; i < pairs; ++i) {
        batch.push_back(init);
        batch.push_back(nor);
    }
    return batch;
}

/** Raw logic micro-op execution rate (single periodic NOR). */
void
rawLogicOps(benchmark::State &state)
{
    Geometry g = benchGeometry(static_cast<uint32_t>(state.range(0)));
    Simulator sim(g, engineConfig());
    const std::vector<Word> batch = logicBatch(g);
    for (auto _ : state)
        sim.performBatch(batch.data(), batch.size());
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(batch.size()));
}

/** The logic batch as one prepared trace: both masks lead, so the
 *  stream is self-contained. */
std::shared_ptr<const BatchTrace>
logicTrace(Simulator &sim)
{
    const Geometry &g = sim.geometry();
    std::vector<Word> ops = {
        MicroOp::crossbarMask(Range::all(g.numCrossbars)).encode(),
        MicroOp::rowMask(Range::all(g.rows)).encode(),
    };
    const std::vector<Word> body = logicBatch(g);
    ops.insert(ops.end(), body.begin(), body.end());
    return sim.prepareTrace(ops.data(), ops.size());
}

/** Compiled trace replay rate: Args({crossbars, threads}). */
void
tracedLogicOps(benchmark::State &state)
{
    Geometry g = benchGeometry(static_cast<uint32_t>(state.range(0)));
    Simulator sim(g, EngineConfig{}.withThreads(
                         static_cast<uint32_t>(state.range(1))));
    const auto trace = logicTrace(sim);
    for (auto _ : state)
        sim.submitTrace(trace);
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(trace->stats.totalOps()));
    state.counters["threads"] =
        static_cast<double>(sim.engine().threads());
}

/** Move-op execution rate (H-tree transfers). */
void
moveOps(benchmark::State &state)
{
    Geometry g = benchGeometry(static_cast<uint32_t>(state.range(0)));
    Simulator sim(g, engineConfig());
    std::vector<Word> batch;
    batch.push_back(
        MicroOp::crossbarMask(Range(0, g.numCrossbars / 2 - 1, 1))
            .encode());
    for (int i = 0; i < 256; ++i)
        batch.push_back(MicroOp::move(g.numCrossbars / 2,
                                      static_cast<uint32_t>(i) %
                                          g.rows,
                                      0, 0, 1).encode());
    for (auto _ : state)
        sim.performBatch(batch.data(), batch.size());
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * 256);
}

/** Micro-ops per second of @p pass, which replays @p ops micro-ops. */
template <typename Pass>
double
replayRate(Pass &&pass, uint64_t ops, double minSeconds = 0.25)
{
    pass();  // warm-up
    using clock = std::chrono::steady_clock;
    uint64_t reps = 0;
    const auto t0 = clock::now();
    double elapsed = 0.0;
    do {
        pass();
        ++reps;
        elapsed = std::chrono::duration<double>(clock::now() - t0)
                      .count();
    } while (elapsed < minSeconds);
    return static_cast<double>(reps * ops) / elapsed;
}

/**
 * Replay-thread scaling sweep: the headline table for the engine.
 * Broadcast logic dominates every workload in the repo, so the sweep
 * replays the canonical INIT+NOR batch as one prepared trace — the
 * form every warm driver instruction takes — at 1, 2, 4 and 8
 * threads, against the same batch applied op-major as a raw stream.
 * Speedups over the op-major reference come from two separable
 * mechanisms, both visible here: the one-thread row isolates
 * compiled crossbar-major replay (cache blocking + the compiler's
 * INIT/NOR fusion), and the wider rows add crossbar parallelism on
 * top. The
 * 1024-crossbar row is the scaling gauge: op-major replay streams
 * the whole 128 MB array through the cache once per op there, while
 * crossbar-major keeps a 128 KB crossbar hot for the entire segment.
 */
void
engineSweep(Json *json)
{
    if (json)
        json->beginArray("engine_sweep");
    std::printf("\n=== Replay-thread scaling sweep (INIT+NOR "
                "batch, 1024 rows) ===\n");
    std::printf("host hardware concurrency: %u\n",
                std::thread::hardware_concurrency());
    std::printf("%-10s %14s | %7s %25s %8s\n", "crossbars",
                "raw [Kop/s]", "threads",
                "trace [Kop/s] (speedup)", "balance");
    for (uint32_t crossbars : {16u, 64u, 256u, 1024u}) {
        const Geometry g = benchGeometry(crossbars);
        const std::vector<Word> batch = logicBatch(g);
        double rawRate = 0.0;
        {
            Simulator sim(g);
            rawRate = replayRate(
                [&] { sim.performBatch(batch.data(), batch.size()); },
                batch.size());
        }
        if (json) {
            json->beginObject();
            json->field("crossbars", crossbars);
            json->field("raw_ops_per_s", rawRate);
            json->beginArray("trace");
        }
        bool first = true;
        for (uint32_t threads : {1u, 2u, 4u, 8u}) {
            Simulator sim(g, EngineConfig{}.withThreads(threads));
            const auto trace = logicTrace(sim);
            const double rate =
                replayRate([&] { sim.submitTrace(trace); },
                           trace->stats.totalOps());
            if (json) {
                json->beginObject();
                json->field("threads", threads);
                json->field("ops_per_s", rate);
                json->field("speedup", rate / rawRate);
                json->end();
            }
            // Pool load balance: min/max applied work across workers
            // (1.00 = perfectly even; the one-thread row keeps no
            // diagnostics).
            uint64_t lo = UINT64_MAX, hi = 0;
            for (const Stats &w : sim.engine().shardWork()) {
                lo = std::min(lo, w.totalOps());
                hi = std::max(hi, w.totalOps());
            }
            if (first)
                std::printf("%-10u %14.2f", crossbars, rawRate / 1e3);
            else
                std::printf("%-10s %14s", "", "");
            std::printf(" | %7u %15.2f (%5.2fx) %7.2f\n", threads,
                        rate / 1e3, rate / rawRate,
                        hi ? static_cast<double>(lo) /
                                 static_cast<double>(hi)
                           : 0.0);
            first = false;
        }
        if (json) {
            json->end();  // trace
            json->end();  // row
        }
    }
    if (json)
        json->end();  // engine_sweep
    std::printf("(speedups above one thread require free host cores; "
                "the one-thread rows and the 1024-crossbar row are the "
                "scaling gauges; raw = the batch applied op-major)\n");
}

/**
 * End-to-end (driver translation + engine replay) micro-ops per
 * second for one engine config: repeated driver-translated fp-add
 * instructions with the stream cache off, so every rep really
 * translates. @p checksum digests the destination register so
 * compared runs can assert bit-identical results.
 */
double
endToEndRate(const Geometry &g, const EngineConfig &ec,
             uint64_t &checksum, double minSeconds = 0.3,
             StorageGauges *gauges = nullptr)
{
    Simulator sim(g, ec);
    Rng rng(11);
    fillRegister(sim, 0, rng, true);
    fillRegister(sim, 1, rng, true);
    Driver drv(sim, g, Driver::Mode::Parallel);
    drv.setStreamCacheEnabled(false);
    const RTypeInstr in = fullInstr(g, ROp::Add, DType::Float32);
    drv.execute(in);  // warm-up
    sim.flush();
    sim.stats().clear();
    const auto [reps, elapsed] = timedReps(
        [&] { drv.execute(in); }, [&] { sim.flush(); }, minSeconds);
    (void)reps;
    const uint64_t ops = sim.stats().totalOps();
    checksum = 0;
    for (uint32_t xb = 0; xb < g.numCrossbars; xb += 7)
        for (uint32_t row = 0; row < g.rows; row += 97)
            checksum = checksum * 1099511628211ull ^
                       sim.crossbar(xb).read(in.rd, row);
    if (gauges)
        *gauges = sim.storageGauges();
    return static_cast<double>(ops) / elapsed;
}

/**
 * Multi-device sharding sweep: the same end-to-end workload (driver
 * fp-add translation + replay plus a periodic boundary-crossing
 * inter-warp move) runs on one logical Device sharded across 1, 2
 * and 4 sub-device Simulators (sim/device_group.hpp). Results MUST
 * be bit-identical at every device count — the function returns
 * false otherwise, and the CI bench smoke step exits non-zero on it.
 * The move column shows the cost of the explicit boundary
 * exchange (the only inter-device traffic).
 */
bool
deviceSweep(Json *json, double minSeconds = 0.25)
{
    const Geometry g = benchGeometry(16);
    std::printf("\n=== Multi-device sharding sweep (driver fp-add + "
                "boundary moves, %u crossbars) ===\n", g.numCrossbars);
    std::printf("%-10s %14s %12s %14s %10s\n", "devices",
                "instr/s", "boundary", "xfers/move op", "identical");
    if (json)
        json->beginArray("device_sweep");
    uint64_t ckRef = 0;
    bool allIdentical = true;
    for (uint32_t devices : {1u, 2u, 4u}) {
        // Pinned in-process: this sweep measures engine scaling and
        // seeds/digests crossbar state directly, which worker
        // processes don't expose; transportSweep owns the socket
        // dimension.
        const EngineConfig ec = engineConfig()
                                    .withDevices(devices)
                                    .withTransport(TransportKind::Inproc);
        Device dev(g, Driver::Mode::Parallel, ec);
        Rng rng(29);
        for (uint32_t w = 0; w < g.numCrossbars; ++w)
            for (uint32_t r = 0; r < g.rows; ++r) {
                dev.group().crossbar(w).writeRow(0, rng.word(), r);
                dev.group().crossbar(w).writeRow(1, rng.word(), r);
            }
        const RTypeInstr in = fullInstr(g, ROp::Add, DType::Int32);
        MoveInstr mv;
        mv.kind = MoveInstr::Kind::InterWarp;
        mv.srcReg = 2;
        mv.dstReg = 3;
        mv.srcRow = 1;
        mv.dstRow = 2;
        mv.warps = Range(0, g.numCrossbars / 2 - 1, 1);
        mv.dstStartWarp = g.numCrossbars / 2;  // crosses every cut
        dev.driver().execute(in);  // warm-up (records + builds trace)
        dev.flush();
        dev.group().clearStats();
        uint64_t instrs = 0;
        const auto [reps, elapsed] = timedReps(
            [&] {
                for (int k = 0; k < 8; ++k)
                    dev.driver().execute(in);
                dev.driver().execute(mv);
                instrs += 9;
            },
            [&] { dev.flush(); }, minSeconds);
        (void)reps;
        uint64_t ck = 0;
        for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
            for (uint32_t row = 0; row < g.rows; row += 3)
                ck = ck * 1099511628211ull ^
                     dev.group().crossbar(xb).read(in.rd, row) ^
                     (dev.group().crossbar(xb).read(mv.dstReg, mv.dstRow)
                      * 0x9E3779B97F4A7C15ull);
        if (devices == 1)
            ckRef = ck;
        const bool identical = ck == ckRef;
        allIdentical = allIdentical && identical;
        const auto &tr = dev.group().traffic();
        const double xfersPerMove =
            tr.boundaryMoves
                ? static_cast<double>(tr.boundaryTransfers) /
                      static_cast<double>(tr.boundaryMoves)
                : 0.0;
        std::printf("%-10u %14.1f %12llu %14.1f %10s\n", devices,
                    static_cast<double>(instrs) / elapsed,
                    static_cast<unsigned long long>(tr.boundaryMoves),
                    xfersPerMove, identical ? "yes" : "NO — BUG");
        if (json) {
            json->beginObject();
            json->field("devices", devices);
            json->field("instr_per_s",
                        static_cast<double>(instrs) / elapsed);
            json->field("move_ops", tr.moveOps);
            json->field("move_transfers", tr.moveTransfers);
            json->field("boundary_moves", tr.boundaryMoves);
            json->field("boundary_transfers", tr.boundaryTransfers);
            json->field("bit_identical", identical);
            json->end();
        }
    }
    if (json)
        json->end();
    std::printf("(boundary = Moves needing a cross-device exchange — "
                "the only inter-device traffic; 'identical' checks "
                "bit-equality of result and move-destination "
                "registers against the monolithic device)\n");
    return allIdentical;
}

/**
 * Paged-vs-dense crossbar-storage sweep (the ISSUE 6 gauges), three
 * panels sharing one contract: every dense/paged pair of runs MUST be
 * bit-identical — the function returns false otherwise and the CI
 * bench smoke step exits non-zero on it.
 *
 *  1. dense-data worst case: the end-to-end fp-add workload fills
 *     every row, so every paged crossbar fills past the promotion
 *     share and replays on the dense slab — warm replay within ~5% of
 *     dense is the acceptance gauge;
 *  2. row-sparse residency: the same workload touching only the first
 *     512 rows of a 8192-row geometry — one 512-row block per live
 *     column — where paged resident bytes drop by the untouched-block
 *     ratio (>=5x is the acceptance gauge);
 *  3. max-geometry scaling (paged only): simulators up to the paper's
 *     full 64k-crossbar deployment touch a 16-crossbar working set;
 *     the dense-equivalent slab size is COMPUTED, never allocated —
 *     at 64k crossbars it exceeds 8 GB while the paged simulator
 *     stays in the megabyte range.
 */
bool storageSweep(Json *json);

/** Panel-2 helper: run the row-sparse workload (only the first
 *  @p touchedRows rows are ever written) and digest the result. */
uint64_t
sparseStorageChecksum(const Geometry &g, const EngineConfig &ec,
                      uint32_t touchedRows, StorageGauges &gauges)
{
    Simulator sim(g, ec);
    Rng rng(17);
    for (uint32_t w = 0; w < g.numCrossbars; ++w)
        for (uint32_t r = 0; r < touchedRows; ++r) {
            sim.crossbar(w).writeRow(0, rng.word(), r);
            sim.crossbar(w).writeRow(1, rng.word(), r);
        }
    Driver drv(sim, g, Driver::Mode::Parallel);
    RTypeInstr in = fullInstr(g, ROp::Add, DType::Int32);
    in.rows = Range(0, touchedRows - 1, 1);
    drv.execute(in);
    sim.flush();
    uint64_t ck = 0;
    for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
        for (uint32_t row = 0; row < touchedRows; ++row)
            ck = ck * 1099511628211ull ^
                 sim.crossbar(xb).read(in.rd, row);
    gauges = sim.storageGauges();
    return ck;
}

bool
storageSweep(Json *json)
{
    bool identical = true;
    if (json)
        json->beginObject("storage_sweep");

    // Panel 1: dense-data throughput parity (worst case for paged).
    // The two storages alternate over kRounds rounds, so a slow phase
    // of the host lands on both; the ratio is taken per round.
    {
        const Geometry g = benchGeometry(64);
        constexpr uint32_t kRounds = 5;
        bool ok = true;
        StorageGauges sgDense, sgPaged;
        std::vector<double> rDense, rPaged, ratio;
        for (uint32_t round = 0; round < kRounds; ++round) {
            uint64_t ckDense = 0, ckPaged = 0;
            rDense.push_back(endToEndRate(
                g, engineConfig().withStorage(XbarStorage::Dense),
                ckDense, 0.3, &sgDense));
            rPaged.push_back(endToEndRate(
                g, engineConfig().withStorage(XbarStorage::Paged),
                ckPaged, 0.3, &sgPaged));
            ratio.push_back(rPaged.back() / rDense.back());
            ok = ok && ckDense == ckPaged;
        }
        const auto median = [](std::vector<double> v) {
            std::sort(v.begin(), v.end());
            return v[v.size() / 2];
        };
        const auto [lo, hi] =
            std::minmax_element(ratio.begin(), ratio.end());
        identical = identical && ok;
        std::printf("\n=== Crossbar-storage sweep: dense-data "
                    "end-to-end (fp-add, %u crossbars, median of %u "
                    "alternating rounds) ===\n",
                    g.numCrossbars, kRounds);
        std::printf("%-8s %14s %16s %8s %10s\n", "storage", "Kop/s",
                    "resident [MB]", "slabs", "identical");
        std::printf("%-8s %14.2f %16.2f %8llu %10s\n", "dense",
                    median(rDense) / 1e3,
                    static_cast<double>(sgDense.residentBytes) / 1e6,
                    static_cast<unsigned long long>(
                        sgDense.slabCrossbars),
                    "-");
        std::printf("%-8s %14.2f %16.2f %8llu %10s\n", "paged",
                    median(rPaged) / 1e3,
                    static_cast<double>(sgPaged.residentBytes) / 1e6,
                    static_cast<unsigned long long>(
                        sgPaged.slabCrossbars),
                    ok ? "yes" : "NO — BUG");
        std::printf("(paged/dense warm throughput: median %.3f, min "
                    "%.3f, max %.3f over the rounds — at least 0.95 is "
                    "the overhead gauge on fully-dense data, where every "
                    "paged crossbar promotes to the slab)\n",
                    median(ratio), *lo, *hi);
        if (json) {
            json->beginObject("dense_data");
            json->field("rounds", kRounds);
            json->field("dense_ops_per_s", median(rDense));
            json->field("paged_ops_per_s", median(rPaged));
            json->field("paged_over_dense", median(ratio));
            json->field("paged_over_dense_min", *lo);
            json->field("paged_over_dense_max", *hi);
            jsonStorageGauges(*json, "dense_gauges", sgDense);
            jsonStorageGauges(*json, "paged_gauges", sgPaged);
            json->field("bit_identical", ok);
            json->end();
        }
    }

    // Panel 2: row-sparse residency at a tall geometry.
    {
        Geometry g = benchGeometry(64);
        g.rows = 8192;  // 16 blocks per column; the workload touches 1
        const uint32_t touched = 512;
        StorageGauges sgDense, sgPaged;
        const uint64_t ckDense = sparseStorageChecksum(
            g, engineConfig().withStorage(XbarStorage::Dense), touched,
            sgDense);
        const uint64_t ckPaged = sparseStorageChecksum(
            g, engineConfig().withStorage(XbarStorage::Paged), touched,
            sgPaged);
        const bool ok = ckDense == ckPaged;
        identical = identical && ok;
        const double ratio =
            static_cast<double>(sgDense.residentBytes) /
            static_cast<double>(std::max<uint64_t>(
                1, sgPaged.residentBytes));
        std::printf("\n=== Crossbar-storage sweep: row-sparse "
                    "residency (%u of %u rows touched) ===\n", touched,
                    g.rows);
        std::printf("dense resident %.2f MB, paged resident %.2f MB "
                    "(%.1fx smaller; >=5x is the residency gauge), "
                    "blocks present %llu / %llu, slab crossbars "
                    "%llu, identical %s\n",
                    static_cast<double>(sgDense.residentBytes) / 1e6,
                    static_cast<double>(sgPaged.residentBytes) / 1e6,
                    ratio,
                    static_cast<unsigned long long>(
                        sgPaged.blocksPresent),
                    static_cast<unsigned long long>(
                        sgPaged.blocksTotal),
                    static_cast<unsigned long long>(
                        sgPaged.slabCrossbars),
                    ok ? "yes" : "NO — BUG");
        if (json) {
            json->beginObject("row_sparse");
            json->field("rows", g.rows);
            json->field("touched_rows", touched);
            jsonStorageGauges(*json, "dense_gauges", sgDense);
            jsonStorageGauges(*json, "paged_gauges", sgPaged);
            json->field("dense_over_paged_bytes", ratio);
            json->field("bit_identical", ok);
            json->end();
        }
    }

    // Panel 3: max-geometry scaling, paged only. The dense-equivalent
    // slab is computed arithmetically — allocating it at 64k crossbars
    // (>8 GB) is exactly what this storage mode exists to avoid.
    {
        std::printf("\n=== Crossbar-storage sweep: max geometry "
                    "(paged, 16-crossbar working set) ===\n");
        std::printf("%-10s %18s %16s %8s %12s\n", "crossbars",
                    "dense-equiv [MB]", "resident [MB]", "ratio",
                    "RSS [MB]");
        if (json)
            json->beginArray("max_geometry");
        for (uint32_t crossbars : {4096u, 16384u, 65536u}) {
            const Geometry g = benchGeometry(crossbars);
            EngineConfig ec;  // serial, synchronous: the panel gauges
            ec.storage = XbarStorage::Paged;  // bytes, not op rate
            Simulator sim(g, ec);
            std::vector<Word> batch;
            batch.push_back(
                MicroOp::crossbarMask(Range(0, 15, 1)).encode());
            batch.push_back(MicroOp::rowMask(Range(0, 127, 1)).encode());
            const Word init =
                MicroOp::logicH(Gate::Init1, 0, 0, g.column(4, 0),
                                g.partitions - 1, 1).encode();
            const Word nor =
                MicroOp::logicH(Gate::Nor, g.column(0, 0),
                                g.column(1, 0), g.column(4, 0),
                                g.partitions - 1, 1).encode();
            for (int i = 0; i < 64; ++i) {
                batch.push_back(init);
                batch.push_back(nor);
            }
            sim.performBatch(batch.data(), batch.size());
            const StorageGauges sg = sim.storageGauges();
            const uint64_t denseEquiv =
                static_cast<uint64_t>(g.numCrossbars) * g.cols *
                ((g.rows + 63) / 64) * 8;
            std::printf("%-10u %18.1f %16.3f %7.0fx %12.1f\n",
                        crossbars,
                        static_cast<double>(denseEquiv) / 1e6,
                        static_cast<double>(sg.residentBytes) / 1e6,
                        static_cast<double>(denseEquiv) /
                            static_cast<double>(std::max<uint64_t>(
                                1, sg.residentBytes)),
                        static_cast<double>(currentRssKb()) / 1e3);
            if (json) {
                json->beginObject();
                json->field("crossbars", crossbars);
                json->field("dense_equivalent_bytes", denseEquiv);
                jsonStorageGauges(*json, "gauges", sg);
                json->field("current_rss_kb", currentRssKb());
                json->end();
            }
        }
        if (json)
            json->end();  // max_geometry
        std::printf("(the 64k-crossbar dense-equivalent slab exceeds "
                    "8 GB — geometries that OOM under dense run in "
                    "megabytes under paged storage)\n");
    }

    if (json) {
        json->field("peak_rss_kb", peakRssKb());
        json->end();  // storage_sweep
    }
    return identical;
}

/**
 * Bulk tensor I/O sweep (the ISSUE 7 acceptance gauge): a 1 Mi-element
 * int tensor round-trips host -> device -> host through the
 * element-wise oracle (bulk I/O off: one ReadInstr dispatch and one
 * drain point per element on readback) and through
 * the bulk block-transfer path (the tile-transpose gather/scatter
 * kernels of the active build, Crossbar::replayBuild(), whose name the
 * JSON record carries as transpose_build; ONE drain per transfer).
 * Values AND architectural Stats
 * MUST be bit-identical — the function returns false otherwise and
 * the CI bench smoke step exits non-zero on it. >=10x on the readback
 * is the acceptance gauge on a >=1M-element tensor.
 */
bool
ioSweep(Json *json)
{
    const Geometry g = benchGeometry(1024);
    const uint64_t n = g.totalRows();  // 1 Mi elements
    std::vector<int32_t> host(n);
    Rng rng(41);
    for (auto &v : host)
        v = static_cast<int32_t>(rng.word());
    std::printf("\n=== Bulk tensor I/O sweep (%llu-element int "
                "tensor, %u crossbars, %s tile transposes) ===\n",
                static_cast<unsigned long long>(n), g.numCrossbars,
                Crossbar::replayBuild().name);
    std::printf("%-12s %12s %14s %10s\n", "path", "upload [s]",
                "readback [s]", "identical");
    double upload[2] = {0, 0}, readback[2] = {0, 0};
    uint64_t checksum[2] = {0, 0}, instrs[2] = {0, 0};
    Stats arch[2];
    uint64_t wordsTransposed = 0, drains = 0, bulkXfers = 0;
    using clock = std::chrono::steady_clock;
    for (const bool bulk : {false, true}) {
        EngineConfig ec = engineConfig();
        ec.bulkIo = bulk;
        Device dev(g, Driver::Mode::Parallel, ec);
        const auto t0 = clock::now();
        Tensor t = Tensor::fromVector(host, &dev);
        dev.flush();
        const auto t1 = clock::now();
        const std::vector<int32_t> back = t.toIntVector();
        const auto t2 = clock::now();
        dev.flush();
        uint64_t ck = 14695981039346656037ull;
        for (const int32_t v : back)
            ck = ck * 1099511628211ull ^ static_cast<uint32_t>(v);
        const int k = bulk ? 1 : 0;
        upload[k] = std::chrono::duration<double>(t1 - t0).count();
        readback[k] = std::chrono::duration<double>(t2 - t1).count();
        checksum[k] = ck;
        arch[k] = dev.stats();
        instrs[k] = dev.driver().stats().instructions;
        if (bulk) {
            const Stats &ds = dev.driver().stats();
            wordsTransposed = ds.ioWordsTransposed;
            drains = ds.ioDrains;
            bulkXfers = ds.bulkReads + ds.bulkWrites;
        }
    }
    const bool identical = checksum[0] == checksum[1] &&
                           arch[0] == arch[1] &&
                           instrs[0] == instrs[1];
    std::printf("%-12s %12.3f %14.3f %10s\n", "elementwise",
                upload[0], readback[0], "-");
    std::printf("%-12s %12.3f %14.3f %10s\n", "bulk", upload[1],
                readback[1], identical ? "yes" : "NO — BUG");
    std::printf("bulk speedup: upload %.1fx, readback %.1fx (>=10x "
                "readback on >=1M elements is the ISSUE 7 gauge)\n",
                upload[0] / upload[1], readback[0] / readback[1]);
    std::printf("bulk counters: %llu transfers, %llu words "
                "transposed, %llu drains ('identical' checks values, "
                "architectural Stats and driver instruction counts "
                "against the element-wise oracle)\n",
                static_cast<unsigned long long>(bulkXfers),
                static_cast<unsigned long long>(wordsTransposed),
                static_cast<unsigned long long>(drains));
    if (json) {
        json->beginObject("io_sweep");
        json->field("elements", n);
        json->field("transpose_build", Crossbar::replayBuild().name);
        json->field("elementwise_upload_s", upload[0]);
        json->field("elementwise_readback_s", readback[0]);
        json->field("bulk_upload_s", upload[1]);
        json->field("bulk_readback_s", readback[1]);
        json->field("upload_speedup", upload[0] / upload[1]);
        json->field("readback_speedup", readback[0] / readback[1]);
        json->field("bulk_transfers", bulkXfers);
        json->field("io_words_transposed", wordsTransposed);
        json->field("io_drains", drains);
        json->field("bit_identical", identical);
        json->end();
    }
    return identical;
}

/**
 * Checkpoint sweep (the ISSUE 9 acceptance gauge): save/restore
 * latency and file size as resident data grows, across dense/paged
 * storage and 1/2/4 sub-devices. Every row round-trips through a
 * fresh device and re-encodes both group images: the function returns
 * false unless crossbar state, mask state and architectural Stats
 * come back bit-identical — the CI bench smoke step exits non-zero
 * on it. The paged/dense pair at equal fill levels also demonstrates
 * the canonical encoding: identical bytes on disk from either
 * representation.
 */
bool
checkpointSweep(Json *json)
{
    const Geometry g = benchGeometry(64);
    const std::string path =
        "/tmp/pypim_bench_ckpt_" + std::to_string(::getpid()) +
        ".bin";
    std::printf("\n=== Checkpoint sweep (%u crossbars, save + "
                "restore round trip) ===\n", g.numCrossbars);
    std::printf("%-7s %-8s %6s %14s %12s %10s %12s %10s\n",
                "storage", "devices", "slots", "resident [MB]",
                "file [MB]", "save [ms]", "restore [ms]",
                "identical");
    if (json)
        json->beginArray("checkpoint_sweep");
    bool allIdentical = true;
    using clock = std::chrono::steady_clock;
    for (const XbarStorage st :
         {XbarStorage::Dense, XbarStorage::Paged}) {
        for (const uint32_t devices : {1u, 2u, 4u}) {
            // Pinned in-process: seeds crossbar state directly,
            // which worker processes don't expose (transportSweep
            // covers checkpointing over the socket transport).
            const EngineConfig ec = engineConfig()
                                        .withDevices(devices)
                                        .withStorage(st)
                                        .withTransport(
                                            TransportKind::Inproc);
            for (const uint32_t slots : {1u, 4u, 8u}) {
                Device dev(g, Driver::Mode::Parallel, ec);
                Rng rng(slots * 7 + devices);
                for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
                    for (uint32_t s = 0; s < slots; ++s)
                        for (uint32_t r = 0; r < g.rows; ++r)
                            dev.group().crossbar(xb).writeRow(
                                s, rng.word(), r);
                const uint64_t resident =
                    dev.group().storageGauges().residentBytes;

                const auto t0 = clock::now();
                const uint64_t bytes = dev.checkpoint(path);
                const auto t1 = clock::now();
                Device back(g, Driver::Mode::Parallel, ec);
                back.restore(path);
                const auto t2 = clock::now();

                const bool identical =
                    encodeCheckpoint(buildGroupImage(dev.group())) ==
                    encodeCheckpoint(buildGroupImage(back.group()));
                allIdentical = allIdentical && identical;
                const double saveMs =
                    std::chrono::duration<double, std::milli>(t1 - t0)
                        .count();
                const double restoreMs =
                    std::chrono::duration<double, std::milli>(t2 - t1)
                        .count();
                std::printf(
                    "%-7s %-8u %6u %14.2f %12.2f %10.2f %12.2f %10s\n",
                    xbarStorageName(st), devices, slots,
                    static_cast<double>(resident) / 1e6,
                    static_cast<double>(bytes) / 1e6, saveMs,
                    restoreMs, identical ? "yes" : "NO — BUG");
                if (json) {
                    json->beginObject();
                    json->field("storage", xbarStorageName(st));
                    json->field("devices", devices);
                    json->field("slots_filled", slots);
                    json->field("resident_bytes", resident);
                    json->field("checkpoint_bytes", bytes);
                    json->field("save_ms", saveMs);
                    json->field("restore_ms", restoreMs);
                    json->field("bit_identical", identical);
                    json->end();
                }
            }
        }
    }
    std::remove(path.c_str());
    if (json)
        json->end();
    std::printf("(file size tracks LIVE data, not geometry; "
                "'identical' re-encodes both devices' canonical "
                "images — state, masks and Stats — after the round "
                "trip)\n");
    return allIdentical;
}

/** Lowest driver trace-hit ratio a warm socket-fleet float sum may
 *  read (an in-run count ratio, never a time). */
constexpr double kMinWarmSumHitRatio = 0.5;

/**
 * Driver trace-hit ratio of a warm float sum (Fig. 13's reduce) over
 * every thread of @p g under @p ec: trace-cache hits per driver
 * instruction of the second of two identical sums. Most of a sum's
 * instructions are the moves of its captured folds, so this is the
 * share that replays by signature instead of as raw batches.
 */
double
warmSumHitRatio(const Geometry &g, const EngineConfig &ec)
{
    Device dev(g, Driver::Mode::Parallel, ec);
    Rng rng(67);
    const Tensor t = Tensor::fromVector(
        rng.floatVec(static_cast<size_t>(g.rows) * g.numCrossbars, 0.f,
                     1.f),
        &dev);
    benchmark::DoNotOptimize(t.sum<float>());  // captures, installs
    const Stats before = dev.driver().stats();
    benchmark::DoNotOptimize(t.sum<float>());
    const Stats &after = dev.driver().stats();
    return static_cast<double>(after.traceCacheHits -
                               before.traceCacheHits) /
           static_cast<double>(after.instructions - before.instructions);
}

/**
 * Shard-transport sweep: the cross-process socket fleet against the
 * in-process group it must be observationally identical to, at 2 and
 * 4 workers. The measured phase reports the latency/bandwidth cost
 * model of the wire — frame bytes per second, synchronous round trips
 * per instruction, worker-cache trace hits and the mean wall time of
 * a boundary-Move exchange phase — and a separate fixed-shape
 * verification epoch (fresh device, exactly one program) re-encodes
 * the canonical checkpoint image so rep-count differences cannot leak
 * into the bit-identity check. Each socket fleet also runs a warm
 * float sum, whose driver trace-hit ratio must reach
 * kMinWarmSumHitRatio. Returns false on any divergence or a ratio
 * below the gate; the CI bench smoke step exits non-zero on it.
 */
bool
transportSweep(Json *json)
{
    const Geometry g = benchGeometry(16);
    std::printf("\n=== Shard transport sweep (tensor fp-add + "
                "boundary moves, %u crossbars) ===\n", g.numCrossbars);
    std::printf("%-9s %-8s %12s %11s %10s %10s %11s %10s\n",
                "transport", "devices", "instr/s", "wire MB/s",
                "rt/instr", "hits", "exch [us]", "identical");
    if (json)
        json->beginArray("transport_sweep");
    bool allIdentical = true;
    double sumHitRatio[2] = {0, 0};  // socket fleets at 2 and 4 workers

    const auto fillOperands = [](std::vector<int32_t> &va,
                                 std::vector<int32_t> &vb) {
        Rng rng(61);
        for (size_t i = 0; i < va.size(); ++i) {
            va[i] = static_cast<int32_t>(rng.word());
            vb[i] = static_cast<int32_t>(rng.word() | 1);
        }
    };
    MoveInstr mv;
    mv.kind = MoveInstr::Kind::InterWarp;
    mv.srcReg = 2;
    mv.dstReg = 3;
    mv.srcRow = 1;
    mv.dstRow = 2;
    mv.warps = Range(0, g.numCrossbars / 2 - 1, 1);
    mv.dstStartWarp = g.numCrossbars / 2;  // crosses every cut

    // Fixed-shape canonical image: fresh device, one program, so the
    // comparison is independent of how many reps the timer ran.
    const auto canonicalImage = [&](const EngineConfig &ec) {
        Device dev(g, Driver::Mode::Parallel, ec);
        std::vector<int32_t> va(2048), vb(2048);
        fillOperands(va, vb);
        Tensor a = Tensor::fromVector(va, &dev);
        Tensor b = Tensor::fromVector(vb, &dev);
        Tensor c = a * b + a;
        benchmark::DoNotOptimize(c.toIntVector());
        dev.driver().execute(mv);
        dev.flush();
        return encodeCheckpoint(buildGroupImage(dev.group()));
    };

    for (const uint32_t devices : {2u, 4u}) {
        std::vector<uint8_t> imgRef;
        for (const TransportKind tk :
             {TransportKind::Inproc, TransportKind::Socket}) {
            const EngineConfig ec = engineConfig()
                                        .withDevices(devices)
                                        .withTransport(tk);
            Device dev(g, Driver::Mode::Parallel, ec);
            std::vector<int32_t> va(2048), vb(2048);
            fillOperands(va, vb);
            Tensor a = Tensor::fromVector(va, &dev);
            Tensor b = Tensor::fromVector(vb, &dev);
            {
                // Warm-up: builds the traces and (socket) ships each
                // signature across the wire once per worker.
                Tensor c = a * b + a;
                benchmark::DoNotOptimize(c.toIntVector());
            }
            uint64_t instrs = 0;
            const auto [reps, elapsed] = timedReps(
                [&] {
                    Tensor c = a * b + a;
                    benchmark::DoNotOptimize(c.toIntVector());
                    dev.driver().execute(mv);
                    instrs += 4;
                },
                [&] { dev.flush(); }, 0.25);
            (void)reps;
            const WireTelemetry wt = dev.group().wireTelemetry();

            const std::vector<uint8_t> img = canonicalImage(ec);
            if (tk == TransportKind::Inproc)
                imgRef = img;
            const bool identical = img == imgRef;
            allIdentical = allIdentical && identical;
            if (tk == TransportKind::Socket)
                sumHitRatio[devices / 4] = warmSumHitRatio(g, ec);

            const double wireMBs =
                static_cast<double>(wt.bytesTx + wt.bytesRx) / 1e6 /
                elapsed;
            const double rtPerInstr =
                static_cast<double>(wt.roundTrips) /
                static_cast<double>(instrs);
            const double exchUs =
                wt.exchanges ? static_cast<double>(wt.exchangeNs) /
                                   static_cast<double>(wt.exchanges) /
                                   1e3
                             : 0.0;
            std::printf("%-9s %-8u %12.1f %11.2f %10.2f %10llu "
                        "%11.2f %10s\n",
                        transportKindName(tk), devices,
                        static_cast<double>(instrs) / elapsed, wireMBs,
                        rtPerInstr,
                        static_cast<unsigned long long>(wt.traceHits),
                        exchUs, identical ? "yes" : "NO — BUG");
            if (json) {
                json->beginObject();
                json->field("transport", transportKindName(tk));
                json->field("devices", devices);
                json->field("instr_per_s",
                            static_cast<double>(instrs) / elapsed);
                json->field("wire_tx_bytes", wt.bytesTx);
                json->field("wire_rx_bytes", wt.bytesRx);
                json->field("round_trips", wt.roundTrips);
                json->field("trace_installs", wt.traceInstalls);
                json->field("trace_hits", wt.traceHits);
                json->field("exchanges", wt.exchanges);
                json->field("exchange_ns", wt.exchangeNs);
                json->field("bit_identical", identical);
                if (tk == TransportKind::Socket)
                    json->field("warm_sum_trace_hit_ratio",
                                sumHitRatio[devices / 4]);
                json->end();
            }
        }
    }
    if (json)
        json->end();
    bool hitsOk = true;
    for (const uint32_t devices : {2u, 4u}) {
        const double r = sumHitRatio[devices / 4];
        const bool ok = r >= kMinWarmSumHitRatio;
        hitsOk = hitsOk && ok;
        std::printf("warm float sum over %u crossbars, socket x%u: "
                    "driver trace-hit ratio %.3f (gate >= %.2f: %s)\n",
                    g.numCrossbars, devices, r, kMinWarmSumHitRatio,
                    ok ? "ok" : "BELOW — captured folds replay raw");
    }
    std::printf("(wire MB/s = framed bytes both directions over the "
                "measured phase; rt/instr = synchronous round trips "
                "per driver instruction; hits = warm-trace replays "
                "served from a worker cache without reshipping the "
                "image; exch [us] = mean wall time of one Move "
                "group's stage/broadcast/land exchange; 'identical' "
                "re-runs "
                "a fixed program on a fresh fleet and compares "
                "canonical checkpoint images against inproc)\n");
    return allIdentical && hitsOk;
}

/**
 * Replay panel (one layer: the compiled-replay executor). The driver's
 * fp32 add and mul streams at the Table III geometry are compiled once
 * (as a trace-cache miss does), then replayed segment by
 * segment straight onto 16 crossbars, with no engine, by every
 * executor build the host supports (its ReplayBuild::run entry, which
 * runs the executor on the crossbar's form as it is), in both storage
 * forms: slab crossbars (Dense) and Paged crossbars on the block-table
 * form. Either program alone densifies half the block grid, so
 * through Crossbar::replayProgram a Paged crossbar would promote at
 * its second replay whatever its seed; the build entry never
 * promotes, so every table row replays the table form. It
 * reports the LogicH sections per source op before and after the
 * compiler's liveness scan, the HPass instructions (merged LogicH
 * passes) one crossbar replays, sections per HPass, and host ns per
 * replayed section (the whole replay time, writes and vertical runs
 * included, over the sections). Each (form, build) replays once from
 * one seeded state first; the function returns false unless every
 * final state checksum equals the first slab build's, unless no table
 * crossbar was promoted, and unless the liveness scan removed at
 * least one section from each stream (count gates, never a time gate).
 */
bool
replayPanel(Json *json, double minSeconds = 0.2)
{
    const Geometry g = benchGeometry();
    std::printf("\n=== Compiled replay per ISA build and storage form "
                "(%u crossbars, %u rows; host pick: %s) ===\n",
                g.numCrossbars, g.rows, Crossbar::replayBuild().name);
    std::printf("%-8s %-6s %-10s %8s %8s %8s %10s %12s %10s\n", "kernel",
                "form", "build", "secs/op", "live/op", "HPass",
                "secs/HPass", "ns/section", "identical");
    if (json)
        json->beginArray("replay");
    bool ok = true;
    const struct
    {
        const char *name;
        ROp op;
    } kernels[] = {{"fp add", ROp::Add}, {"fp mul", ROp::Mul}};
    for (const auto &k : kernels) {
        StreamRecorder cap;
        {
            Driver drv(cap, g, Driver::Mode::Parallel);
            drv.setTraceCacheEnabled(false);
            drv.execute(fullInstr(g, k.op, DType::Float32));
        }
        Simulator prep(g, EngineConfig::serial());
        const auto trace =
            prep.prepareTrace(cap.ops.data(), cap.ops.size());
        if (!trace) {
            std::printf("%-8s stream is not self-contained — BUG\n",
                        k.name);
            ok = false;
            continue;
        }
        // The liveness scan must have removed sections from the
        // driver's stream: zero means the pass silently stopped firing.
        const ReplayProgram::Liveness &live = trace->liveness;
        const double src = static_cast<double>(cap.ops.size());
        const double secsPerOp = static_cast<double>(live.sections) / src;
        const double livePerOp = static_cast<double>(live.replayed()) / src;
        const bool livenessFired = live.fused + live.dead > 0;
        ok = ok && livenessFired;
        if (!livenessFired)
            std::printf("%-8s liveness removed no section — BUG\n",
                        k.name);
        // The work one crossbar replays (full warps: every crossbar
        // runs every instruction).
        uint64_t hpass = 0, sections = 0;
        for (const ReplayProgram &prog : trace->programs)
            for (const ReplayProgram::Instr &in : prog.instrs)
                if (in.kind == ReplayProgram::Kind::HPass) {
                    ++hpass;
                    sections += in.count;
                }
        const auto replayAll = [&](Simulator &sim,
                                   const Crossbar::ReplayBuild &b) {
            for (const ReplayProgram &prog : trace->programs)
                for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
                    b.run(sim.crossbar(xb), prog, xb, nullptr);
        };
        if (json) {
            json->beginObject();
            json->field("kernel", k.name);
            json->field("sections_per_op", secsPerOp);
            json->field("live_sections_per_op", livePerOp);
            json->field("sections_fused", live.fused);
            json->field("sections_dead", live.dead);
            json->field("hpass_instrs", hpass);
            json->field("sections_per_hpass",
                        hpass ? static_cast<double>(sections) / hpass
                              : 0.0);
            json->beginArray("builds");
        }
        const struct
        {
            const char *name;
            XbarStorage storage;
        } forms[] = {{"slab", XbarStorage::Dense},
                     {"table", XbarStorage::Paged}};
        bool haveRef = false;
        uint64_t ckRef = 0;
        for (const auto &f : forms) {
            for (const Crossbar::ReplayBuild &b :
                 Crossbar::replayBuilds()) {
                if (!b.supported())
                    continue;
                Simulator sim(g, EngineConfig::serial().withStorage(
                                     f.storage));
                Rng rng(2024);
                for (uint32_t slot = 0; slot < 4; ++slot)
                    fillRegister(sim, slot, rng, true);
                replayAll(sim, b);
                uint64_t ck = 0;
                for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
                    ck = ck * 0x100000001B3ull ^
                         sim.crossbar(xb).stateChecksum();
                if (!haveRef) {
                    ckRef = ck;
                    haveRef = true;
                }
                const bool identical = ck == ckRef;
                const auto [reps, elapsed] =
                    timedReps([&] { replayAll(sim, b); }, [] {}, minSeconds);
                const bool formKept =
                    f.storage == XbarStorage::Dense ||
                    sim.storageGauges().slabCrossbars == 0;
                ok = ok && identical && formKept;
                const double nsPerSection =
                    elapsed * 1e9 / (static_cast<double>(reps) * sections *
                                     g.numCrossbars);
                std::printf(
                    "%-8s %-6s %-10s %8.2f %8.2f %8llu %10.2f %12.2f "
                    "%10s\n",
                    k.name, f.name, b.name, secsPerOp, livePerOp,
                    static_cast<unsigned long long>(hpass),
                    hpass ? static_cast<double>(sections) / hpass : 0.0,
                    nsPerSection, identical ? "yes" : "NO — BUG");
                if (!formKept)
                    std::printf("%-8s %-6s %-10s a table crossbar was "
                                "promoted — BUG\n",
                                k.name, f.name, b.name);
                if (json) {
                    json->beginObject();
                    json->field("form", f.name);
                    json->field("build", b.name);
                    json->field("ns_per_section", nsPerSection);
                    json->field("bit_identical", identical);
                    json->end();
                }
            }
        }
        if (json) {
            json->end();  // builds
            json->end();  // kernel row
        }
    }
    if (json)
        json->end();
    std::printf("(secs/op, live/op = LogicH sections per source op "
                "before and after the liveness scan; HPass = merged "
                "LogicH pass one crossbar replays; 'identical' compares "
                "each final state checksum with the first slab "
                "build's)\n");
    return ok;
}

} // namespace

BENCHMARK(simScaling)
    ->Args({4, 1024})
    ->Args({16, 1024})
    ->Args({64, 1024})
    ->Args({16, 64})
    ->Args({16, 256})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(rawLogicOps)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(tracedLogicOps)
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4})
    ->Args({64, 8})
    ->Args({256, 4})
    ->Args({256, 8});
BENCHMARK(moveOps)->Arg(16)->Arg(64);

int
main(int argc, char **argv)
{
    applyEngineFlags(argc, argv);
    benchmark::Initialize(&argc, argv);
    printEngineBanner();
    Json json;
    Json *j = jsonOutPath().empty() ? nullptr : &json;
    if (j) {
        j->beginObject();
        j->field("bench", "bench_simulator");
        jsonConfig(*j, benchGeometry());
    }
    engineSweep(j);
    const bool devicesIdentical = deviceSweep(j);
    const bool storageIdentical = storageSweep(j);
    const bool ioIdentical = ioSweep(j);
    const bool checkpointIdentical = checkpointSweep(j);
    const bool transportOk = transportSweep(j);
    const bool replayOk = replayPanel(j);
    if (j) {
        j->end();
        j->writeTo(jsonOutPath());
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    // Non-zero exit when sub-device execution diverged from the
    // monolithic device, paged storage diverged from dense, the bulk
    // I/O path diverged from the element-wise oracle, a checkpoint
    // failed to restore bit-identical, the cross-process socket fleet
    // diverged from the in-process group or replayed under half of a
    // warm float sum by trace, two replay ISA builds or storage forms
    // left different states, a table-form replay row promoted, or the
    // replay compiler's liveness scan removed
    // no section from the fp32 add or mul stream: the CI bench smoke
    // step asserts all of them.
    return devicesIdentical && storageIdentical && ioIdentical &&
                   checkpointIdentical && transportOk &&
                   replayOk
               ? 0
               : 1;
}
