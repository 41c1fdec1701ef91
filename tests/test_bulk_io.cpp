/**
 * @file
 * Bulk tensor I/O tests (sim/bulk_io.hpp): the batched
 * gather/scatter transfer path must be bit-identical to the
 * element-wise oracle in VALUES and in architectural Stats —
 * per-crossbar (fuzzed gather/scatter vs read/writeRow on both
 * storage modes, block seams, absent blocks, elision preservation)
 * and end-to-end (full tensor programs on bulk-on vs bulk-off
 * devices across storage x device-count x engine), plus the drain
 * contract (ONE drain point per transfer per sub-device) and the
 * equal-value run coalescing shared by both settings.
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "driver/driver.hpp"
#include "pim/pypim.hpp"
#include "sim/crossbar.hpp"
#include "sim/simulator.hpp"

using namespace pypim;

namespace
{

Geometry
multiGeometry()
{
    Geometry g = testGeometry();
    g.numCrossbars = 16;  // 4 level-1 H-tree groups of 4
    return g;
}

// --- crossbar-level kernel parity ----------------------------------------

TEST(CrossbarBulk, FuzzedGatherMatchesScalarRead)
{
    for (XbarStorage st : {XbarStorage::Dense, XbarStorage::Paged}) {
        const Geometry g = testGeometry();
        Crossbar xb(g, st);
        Rng rng(123);
        for (int k = 0; k < 200; ++k)
            xb.writeRow(rng.word() % g.slots(), rng.word(),
                        rng.word() % g.rows);
        for (int it = 0; it < 400; ++it) {
            const uint32_t slot = rng.word() % g.slots();
            const uint32_t row = rng.word() % g.rows;
            const uint32_t count = 1 + rng.word() % (g.rows - row);
            std::vector<uint32_t> out(count, 0xdeadbeef);
            xb.gatherRows(slot, row, count, out.data());
            for (uint32_t i = 0; i < count; ++i)
                ASSERT_EQ(out[i], xb.read(slot, row + i))
                    << xbarStorageName(st) << " slot " << slot
                    << " row " << row + i << " of [" << row << ", "
                    << row + count << ")";
        }
    }
}

TEST(CrossbarBulk, FuzzedScatterMatchesScalarWrite)
{
    for (XbarStorage st : {XbarStorage::Dense, XbarStorage::Paged}) {
        const Geometry g = testGeometry();
        Crossbar bulk(g, st);
        Crossbar oracle(g, XbarStorage::Dense);
        Rng rng(321);
        for (int k = 0; k < 100; ++k) {
            const uint32_t slot = rng.word() % g.slots();
            const uint32_t row = rng.word() % g.rows;
            const uint32_t v = rng.word();
            bulk.writeRow(slot, v, row);
            oracle.writeRow(slot, v, row);
        }
        for (int it = 0; it < 300; ++it) {
            const uint32_t slot = rng.word() % g.slots();
            const uint32_t row = rng.word() % g.rows;
            const uint32_t count = 1 + rng.word() % (g.rows - row);
            // Bias towards zeros so the elision fast paths (all-zero
            // windows, clear-only planes) are exercised.
            std::vector<uint32_t> vals(count);
            const bool allZero = rng.word() % 4 == 0;
            for (uint32_t i = 0; i < count; ++i)
                vals[i] = allZero || rng.word() % 3 == 0 ? 0
                                                         : rng.word();
            bulk.scatterRows(slot, row, count, vals.data());
            for (uint32_t i = 0; i < count; ++i)
                oracle.writeRow(slot, vals[i], row + i);
        }
        EXPECT_TRUE(bulk.sameState(oracle)) << xbarStorageName(st);
    }
}

TEST(CrossbarBulk, PagedBlockSeamsAndAbsentBlocks)
{
    // 2048 rows = 4 paged blocks per column; populate only blocks 1
    // and 3 so gathers and scatters cross absent/present seams.
    Geometry g = testGeometry();
    g.rows = 2048;
    Crossbar paged(g, XbarStorage::Paged);
    Crossbar oracle(g, XbarStorage::Dense);
    Rng rng(9);
    for (uint32_t row = 512; row < 1024; row += 7) {
        const uint32_t v = rng.word();
        paged.writeRow(3, v, row);
        oracle.writeRow(3, v, row);
    }
    for (uint32_t row = 1536; row < 2048; row += 5) {
        const uint32_t v = rng.word();
        paged.writeRow(3, v, row);
        oracle.writeRow(3, v, row);
    }
    // Gather over an all-absent region zero-fills without a single
    // transpose (and, being const, cannot densify anything).
    std::vector<uint32_t> buf(g.rows, 0xdeadbeef);
    EXPECT_EQ(paged.gatherRows(3, 0, 256, buf.data()), 0u);
    for (uint32_t i = 0; i < 256; ++i)
        ASSERT_EQ(buf[i], 0u);
    // Windows crossing the 512-row block seam, and the full column.
    for (auto [row, count] : {std::pair<uint32_t, uint32_t>{400, 300},
                              {1000, 600},
                              {1530, 20},
                              {0, 2048}}) {
        paged.gatherRows(3, row, count, buf.data());
        for (uint32_t i = 0; i < count; ++i)
            ASSERT_EQ(buf[i], oracle.read(3, row + i))
                << "row " << row + i;
    }
    // Scatter across the seam into an absent block densifies exactly
    // the touched region and matches the scalar oracle.
    std::vector<uint32_t> vals(700);
    for (auto &v : vals)
        v = rng.word();
    paged.scatterRows(3, 300, 700, vals.data());
    for (uint32_t i = 0; i < 700; ++i)
        oracle.writeRow(3, vals[i], 300 + i);
    EXPECT_TRUE(paged.sameState(oracle));
}

TEST(CrossbarBulk, ScatterZerosPreservesElision)
{
    const Geometry g = testGeometry();
    Crossbar xb(g, XbarStorage::Paged);
    std::vector<uint32_t> zeros(g.rows, 0);
    // An all-zero upload to a pristine crossbar transposes nothing
    // and materialises nothing.
    EXPECT_EQ(xb.scatterRows(2, 0, g.rows, zeros.data()), 0u);
    EXPECT_EQ(xb.storageGauges().blocksPresent, 0u);
    // After densification an all-zero scatter only clears in place.
    xb.writeRow(2, 0xffffffffu, 5);
    EXPECT_GT(xb.storageGauges().blocksPresent, 0u);
    xb.scatterRows(2, 0, g.rows, zeros.data());
    for (uint32_t r = 0; r < g.rows; ++r)
        ASSERT_EQ(xb.read(2, r), 0u);
}

// --- driver-level seam ---------------------------------------------------

TEST(DriverBulk, ReadFallsBackUntilMasksAreKnown)
{
    const Geometry g = testGeometry();
    Simulator sim(g);
    Driver drv(sim, g);
    std::vector<uint32_t> buf(4, 0);
    // A fresh builder has no cached masks: the read planner cannot
    // replicate readWord's dedup decisions, so the driver declines.
    EXPECT_FALSE(drv.readBulk(0, 0, 0, 1, 4, buf.data()));
    EXPECT_EQ(drv.stats().bulkReads, 0u);
    WriteInstr w;
    w.reg = 0;
    w.value = 7;
    w.warps = Range::all(g.numCrossbars);
    w.rows = Range::all(g.rows);
    drv.execute(w);
    EXPECT_TRUE(drv.readBulk(0, 0, 0, 1, 4, buf.data()));
    for (uint32_t v : buf)
        EXPECT_EQ(v, 7u);
    EXPECT_EQ(drv.stats().bulkReads, 1u);
    EXPECT_EQ(drv.stats().ioDrains, 1u);
}

TEST(DriverBulk, WriteWorksWithUnknownMasks)
{
    const Geometry g = testGeometry();
    Simulator sim(g);
    Driver drv(sim, g);
    const std::vector<uint32_t> vals = {1, 2, 3, 4, 5};
    drv.writeBulk(3, 1, 10, 1, vals.size(), vals.data());
    for (uint32_t i = 0; i < vals.size(); ++i)
        EXPECT_EQ(sim.crossbar(1).read(3, 10 + i), vals[i]);
    EXPECT_EQ(drv.stats().bulkWrites, 1u);
    EXPECT_EQ(drv.stats().instructions, vals.size());
}

// --- end-to-end parity: bulk on vs the element-wise oracle ---------------

struct EngineCase
{
    const char *name;
    EngineConfig cfg;
};

const EngineCase &
engineCase(size_t i)
{
    static const EngineCase cases[] = {
        {"threads1", EngineConfig::serial()},
        {"threads2", EngineConfig{}.withThreads(2)},
    };
    return cases[i];
}
constexpr size_t numEngineCases = 2;

/**
 * One representative tensor program: random uploads, arithmetic, a
 * full readback, a strided-view readback, a strided-view upload and
 * a final readback. The length is chosen to end mid-warp AND
 * mid-transpose-window (partial final windows on every path).
 */
std::vector<int32_t>
runProgram(Device &dev, uint64_t seed, uint64_t n)
{
    Rng rng(seed);
    std::vector<int32_t> a(n), b(n);
    for (uint64_t i = 0; i < n; ++i) {
        a[i] = static_cast<int32_t>(rng.word());
        b[i] = static_cast<int32_t>(rng.word());
    }
    Tensor ta = Tensor::fromVector(a, &dev);
    Tensor tb = Tensor::fromVector(b, &dev);
    Tensor tc = ta + tb;
    std::vector<int32_t> out = tc.toIntVector();
    Tensor view = tc.every(3, 1);
    const std::vector<int32_t> vv = view.toIntVector();
    out.insert(out.end(), vv.begin(), vv.end());
    std::vector<int32_t> upd(vv.size());
    for (size_t i = 0; i < vv.size(); ++i)
        upd[i] = vv[i] ^ 0x5a5a;
    view.setVector(upd);
    const std::vector<int32_t> fin = tc.toIntVector();
    out.insert(out.end(), fin.begin(), fin.end());
    return out;
}

class BulkIoParity : public ::testing::TestWithParam<size_t>
{
};

TEST_P(BulkIoParity, BulkMatchesElementwiseEverywhere)
{
    const EngineCase &ec = engineCase(GetParam());
    const Geometry g = multiGeometry();
    for (XbarStorage st : {XbarStorage::Dense, XbarStorage::Paged}) {
        for (uint32_t devices : {1u, 2u, 4u}) {
            EngineConfig on =
                ec.cfg.withDevices(devices).withStorage(st);
            on.bulkIo = true;
            EngineConfig off = on;
            off.bulkIo = false;
            Device devOn(g, Driver::Mode::Parallel, on);
            Device devOff(g, Driver::Mode::Parallel, off);
            const auto got = runProgram(devOn, 77, 700);
            const auto want = runProgram(devOff, 77, 700);
            // The element loop's final mask restore is still batched
            // in the driver; stats compare at a flush point.
            devOn.flush();
            devOff.flush();
            ASSERT_EQ(got, want)
                << ec.name << " x" << devices << " "
                << xbarStorageName(st);
            // Architectural statistics are bit-identical: the bulk
            // path records exactly what the element loop executes.
            EXPECT_EQ(devOn.stats(), devOff.stats())
                << ec.name << " x" << devices << " "
                << xbarStorageName(st);
            // Driver accounting: count instructions either way.
            EXPECT_EQ(devOn.driver().stats().instructions,
                      devOff.driver().stats().instructions);
            EXPECT_GT(devOn.driver().stats().bulkReads, 0u);
            EXPECT_GT(devOn.driver().stats().bulkWrites, 0u);
            EXPECT_EQ(devOff.driver().stats().bulkReads, 0u);
            EXPECT_EQ(devOff.driver().stats().bulkWrites, 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Engines, BulkIoParity,
                         ::testing::Range<size_t>(0, numEngineCases));

// --- drain contract and coalescing ---------------------------------------

TEST(BulkIoDrains, OneDrainPerTransferPerSubDevice)
{
    const Geometry g = multiGeometry();
    const EngineConfig cfg =
        EngineConfig{}.withDevices(2);
    Device dev(g, Driver::Mode::Parallel, cfg);
    std::vector<int32_t> v(300);
    for (size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<int32_t>(i * 2654435761u);
    Tensor t = Tensor::fromVector(v, &dev);
    const Stats &ds = dev.driver().stats();
    EXPECT_EQ(ds.bulkWrites, 1u);
    EXPECT_EQ(ds.ioDrains, 2u);  // one drain per sub-device
    EXPECT_EQ(t.toIntVector(), v);
    EXPECT_EQ(ds.bulkReads, 1u);
    EXPECT_EQ(ds.ioDrains, 4u);
    EXPECT_GT(ds.ioWordsTransposed, 0u);
}

TEST(BulkIoCoalescing, ConstantUploadCostsRunsNotElements)
{
    const Geometry g = multiGeometry();
    for (bool bulk : {true, false}) {
        EngineConfig cfg;
        cfg.bulkIo = bulk;
        Device dev(g, Driver::Mode::Parallel, cfg);
        const std::vector<int32_t> v(
            static_cast<size_t>(g.rows) * g.numCrossbars, 42);
        const uint64_t before = dev.driver().stats().instructions;
        Tensor t = Tensor::fromVector(v, &dev);
        // Equal consecutive values coalesce into one masked Range
        // write per warp — on BOTH knob settings (shared planner).
        EXPECT_EQ(dev.driver().stats().instructions - before,
                  g.numCrossbars)
            << "bulk=" << bulk;
        EXPECT_EQ(t.toIntVector(), v) << "bulk=" << bulk;
    }
}

} // namespace
