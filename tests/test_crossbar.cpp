/**
 * @file
 * Bit-level crossbar semantics: stateful logic (output switches only
 * 1 -> 0), strided read/write, vertical ops, row masking — every
 * behavioural test runs under BOTH storage representations
 * (TEST_P over XbarStorage), so the dense slab stays the oracle the
 * paged mode is continuously checked against. These cases drive ops
 * directly, never through replay entry, so a Paged crossbar here
 * never promotes and the table form of the kernels stays covered. The
 * PagedCrossbar suite adds the storage-specific surface: zero-block
 * elision, transparent densification, block-boundary addressing,
 * compact() re-elision and a fuzzed parity loop over every primitive.
 * The AdaptiveCrossbar suite covers promotion to the dense slab:
 * parity with the Dense oracle across the switch through both replay
 * tiers, canonical images loaded across it in both directions, and
 * demotion by compact(). Every slab, however it was built, starts on
 * a Crossbar::kSlabAlign boundary. State is rewound the way a
 * checkpoint restore does it: the canonical walk out, resetState()
 * and loadBlock() back in.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/batch_trace.hpp"
#include "sim/crossbar.hpp"
#include "sim/replay_program.hpp"
#include "sim/serialize.hpp"
#include "sim/simulator.hpp"
#include "uarch/partition.hpp"

using namespace pypim;

namespace
{

HalfGates
gateOn(const Geometry &geo, Gate g, uint32_t a, uint32_t b,
       uint32_t out)
{
    const uint32_t pOut = out / geo.partitionWidth();
    return expandLogicH(MicroOp::logicH(g, a, b, out, pOut, 0), geo);
}

/** The canonical records of @p x: what a checkpoint stores for it. */
std::vector<BlockRecord>
imageOf(const Crossbar &x)
{
    std::vector<BlockRecord> img;
    x.forEachNonZeroBlock(
        [&](uint32_t col, uint32_t b, const uint64_t *w, uint32_t n) {
            img.push_back({col, b, std::vector<uint64_t>(w, w + n)});
        });
    return img;
}

/** Rewind @p x to @p img the way a checkpoint restore does. */
void
loadImage(Crossbar &x, const std::vector<BlockRecord> &img)
{
    x.resetState();
    for (const BlockRecord &r : img)
        x.loadBlock(r.col, r.block, r.words.data(),
                    static_cast<uint32_t>(r.words.size()));
}

class CrossbarTest : public ::testing::TestWithParam<XbarStorage>
{
  protected:
    CrossbarTest()
        : geo(testGeometry()),
          xb(geo, GetParam()),
          fullMask(Range::all(geo.rows).expand(geo.rows))
    {
    }

    HalfGates
    gate(Gate g, uint32_t a, uint32_t b, uint32_t out)
    {
        return gateOn(geo, g, a, b, out);
    }

    Geometry geo;
    Crossbar xb;
    std::vector<uint64_t> fullMask;
};

} // namespace

TEST_P(CrossbarTest, NorTruthTable)
{
    // Columns 0, 1 as inputs; column 2 as output; rows 0..3 hold the
    // four input combinations.
    for (uint32_t r = 0; r < 4; ++r) {
        xb.setBit(r, 0, r & 1);
        xb.setBit(r, 1, (r >> 1) & 1);
        xb.setBit(r, 2, true);  // INIT1
    }
    xb.logicH(gate(Gate::Nor, 0, 1, 2), fullMask);
    EXPECT_TRUE(xb.bit(0, 2));    // NOR(0,0) = 1
    EXPECT_FALSE(xb.bit(1, 2));   // NOR(1,0) = 0
    EXPECT_FALSE(xb.bit(2, 2));   // NOR(0,1) = 0
    EXPECT_FALSE(xb.bit(3, 2));   // NOR(1,1) = 0
}

TEST_P(CrossbarTest, StatefulOutputOnlySwitchesDown)
{
    // Output NOT initialised to 1: NOR(0,0) cannot switch it up.
    xb.setBit(0, 0, false);
    xb.setBit(0, 1, false);
    xb.setBit(0, 2, false);  // stale 0
    xb.logicH(gate(Gate::Nor, 0, 1, 2), fullMask);
    EXPECT_FALSE(xb.bit(0, 2)) << "stateful logic must not set 0 -> 1";
}

TEST_P(CrossbarTest, NotGate)
{
    xb.setBit(0, 5, true);
    xb.setBit(1, 5, false);
    xb.setBit(0, 9, true);
    xb.setBit(1, 9, true);
    xb.logicH(gate(Gate::Not, 5, 5, 9), fullMask);
    EXPECT_FALSE(xb.bit(0, 9));
    EXPECT_TRUE(xb.bit(1, 9));
}

TEST_P(CrossbarTest, InitGates)
{
    xb.setBit(0, 7, false);
    xb.logicH(gate(Gate::Init1, 0, 0, 7), fullMask);
    EXPECT_TRUE(xb.bit(0, 7));
    xb.logicH(gate(Gate::Init0, 0, 0, 7), fullMask);
    EXPECT_FALSE(xb.bit(0, 7));
}

TEST_P(CrossbarTest, RowMaskSkipsDeselectedRows)
{
    // Only even rows selected (isolation voltage on odd rows).
    const auto mask = Range(0, geo.rows - 2, 2).expand(geo.rows);
    for (uint32_t r = 0; r < geo.rows; ++r) {
        xb.setBit(r, 0, true);
        xb.setBit(r, 2, true);
    }
    xb.logicH(gate(Gate::Not, 0, 0, 2), mask);
    for (uint32_t r = 0; r < geo.rows; ++r)
        EXPECT_EQ(xb.bit(r, 2), r % 2 == 1) << "row " << r;
}

TEST_P(CrossbarTest, ParallelPatternActsPerPartition)
{
    // NOR(slot0, slot1) -> slot2 in all 32 partitions in one op.
    const HalfGates hg = expandLogicH(
        MicroOp::logicH(Gate::Nor, geo.column(0, 0), geo.column(1, 0),
                        geo.column(2, 0), geo.partitions - 1, 1), geo);
    xb.writeRow(0, 0x0F0F0F0F, 3);
    xb.writeRow(1, 0x00FF00FF, 3);
    xb.writeRow(2, 0xFFFFFFFF, 3);  // INIT1 all bits
    xb.logicH(hg, fullMask);
    EXPECT_EQ(xb.read(2, 3), ~(0x0F0F0F0Fu | 0x00FF00FFu));
}

TEST_P(CrossbarTest, StridedReadWriteRoundTrip)
{
    xb.writeRow(4, 0xCAFEBABE, 10);
    EXPECT_EQ(xb.read(4, 10), 0xCAFEBABEu);
    // Bit p of the word lives in partition p (paper Fig. 6).
    EXPECT_EQ(xb.bit(10, geo.column(4, 1)), (0xCAFEBABEu >> 1) & 1);
    EXPECT_EQ(xb.bit(10, geo.column(4, 31)), (0xCAFEBABEu >> 31) & 1);
}

TEST_P(CrossbarTest, MaskedWriteAffectsSelectedRowsOnly)
{
    const auto mask = Range(8, 24, 8).expand(geo.rows);
    xb.write(3, 0x12345678, mask);
    EXPECT_EQ(xb.read(3, 8), 0x12345678u);
    EXPECT_EQ(xb.read(3, 16), 0x12345678u);
    EXPECT_EQ(xb.read(3, 24), 0x12345678u);
    EXPECT_EQ(xb.read(3, 9), 0u);
}

TEST_P(CrossbarTest, VerticalNotTransfersBetweenRows)
{
    // Vertical NOT moves (inverted) slot data from row 2 to row 40.
    xb.writeRow(6, 0xA5A5A5A5, 2);
    xb.writeRow(6, 0xFFFFFFFF, 40);  // INIT1 destination
    xb.logicV(Gate::Not, 2, 40, 6);
    EXPECT_EQ(xb.read(6, 40), ~0xA5A5A5A5u);
    // Source row unchanged.
    EXPECT_EQ(xb.read(6, 2), 0xA5A5A5A5u);
}

TEST_P(CrossbarTest, VerticalInit)
{
    xb.logicV(Gate::Init1, 0, 17, 5);
    EXPECT_EQ(xb.read(5, 17), 0xFFFFFFFFu);
    xb.logicV(Gate::Init0, 0, 17, 5);
    EXPECT_EQ(xb.read(5, 17), 0u);
}

TEST_P(CrossbarTest, VerticalNotRespectsStatefulSemantics)
{
    xb.writeRow(6, 0xFFFFFFFF, 2);
    xb.writeRow(6, 0x0000FFFF, 40);  // half stale-0 destination
    xb.logicV(Gate::Not, 2, 40, 6);
    // NOT(1) = 0 everywhere; stale zeros stay zero.
    EXPECT_EQ(xb.read(6, 40), 0u);
    xb.writeRow(6, 0x00000000, 2);
    xb.writeRow(6, 0x0000FFFF, 40);
    xb.logicV(Gate::Not, 2, 40, 6);
    // NOT(0) = 1, but only pre-initialised cells can show it.
    EXPECT_EQ(xb.read(6, 40), 0x0000FFFFu);
}

TEST_P(CrossbarTest, ImageRestoreRoundTrip)
{
    xb.writeRow(3, 0xABCD1234, 7);
    const std::vector<BlockRecord> img = imageOf(xb);
    const uint64_t sum = xb.stateChecksum();
    xb.writeRow(3, 0x55555555, 7);
    xb.writeRow(4, 0xFFFFFFFF, 8);
    EXPECT_NE(xb.stateChecksum(), sum);
    loadImage(xb, img);
    EXPECT_EQ(xb.stateChecksum(), sum);
    EXPECT_EQ(xb.read(3, 7), 0xABCD1234u);
    EXPECT_EQ(xb.read(4, 8), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Storage, CrossbarTest,
    ::testing::Values(XbarStorage::Dense, XbarStorage::Paged),
    [](const auto &info) { return xbarStorageName(info.param); });

// ---------------------------------------------------------------------
// Paged-specific storage semantics. A taller geometry gives each
// column multiple 512-row blocks, so block-table addressing, elision
// and boundary handling are all exercised.

namespace
{

Geometry
tallGeometry()
{
    Geometry g = testGeometry();
    g.rows = 2048;  // 32 words = 4 blocks per column
    return g;
}

/** 64-bit word from the 32-bit test RNG. */
uint64_t
word64(Rng &rng)
{
    return (static_cast<uint64_t>(rng.word()) << 32) | rng.word();
}

} // namespace

TEST(PagedCrossbar, UntouchedCrossbarIsResidentFree)
{
    const Geometry geo = tallGeometry();
    const Crossbar xb(geo, XbarStorage::Paged);
    const StorageGauges g = xb.storageGauges();
    EXPECT_EQ(g.blocksPresent, 0u);
    EXPECT_EQ(g.residentBytes, 0u) << "lazy table/pool: an untouched "
                                      "crossbar must cost no bytes";
    // Reads of never-touched state are architectural zeros.
    EXPECT_EQ(xb.read(0, 0), 0u);
    EXPECT_EQ(xb.read(3, geo.rows - 1), 0u);
    EXPECT_FALSE(xb.bit(600, 17));
}

TEST(PagedCrossbar, ZeroPreservingOpsStayElided)
{
    const Geometry geo = tallGeometry();
    Crossbar xb(geo, XbarStorage::Paged);
    const auto fullMask = Range::all(geo.rows).expand(geo.rows);
    // INIT0 and NOR/NOT over all-absent inputs into an absent output
    // are algebra on zeros: nothing may densify.
    xb.logicH(gateOn(geo, Gate::Init0, 0, 0, 9), fullMask);
    xb.logicH(gateOn(geo, Gate::Nor, 0, 1, 9), fullMask);
    xb.logicH(gateOn(geo, Gate::Not, 2, 2, 9), fullMask);
    xb.write(4, 0, fullMask);  // writing zeros is zero-preserving too
    EXPECT_EQ(xb.storageGauges().blocksPresent, 0u);
    // ... but the architectural state is what dense would hold: NOR
    // over a stale-0 output stays 0 even though NOR(0,0) = 1.
    EXPECT_FALSE(xb.bit(0, 9));
    // A present input does not densify an absent output either: NOR
    // can only clear it.
    xb.setBit(0, 0, true);
    xb.logicH(gateOn(geo, Gate::Nor, 0, 1, 9), fullMask);
    xb.logicH(gateOn(geo, Gate::Not, 0, 0, 9), fullMask);
    EXPECT_EQ(xb.storageGauges().blocksPresent, 1u);
    EXPECT_FALSE(xb.bit(1, 9));
}

TEST(PagedCrossbar, DensificationTouchesOnlyMaskedBlocks)
{
    const Geometry geo = tallGeometry();
    Crossbar xb(geo, XbarStorage::Paged);
    // Rows 512..1023 are exactly block 1 of each touched column.
    const auto mask = Range(512, 1023, 1).expand(geo.rows);
    xb.write(5, 0xFFFFFFFFu, mask);
    const StorageGauges g = xb.storageGauges();
    // One 32-bit slot = 32 columns; each densified only in block 1.
    EXPECT_EQ(g.blocksPresent, 32u);
    EXPECT_EQ(xb.read(5, 512), 0xFFFFFFFFu);
    EXPECT_EQ(xb.read(5, 1023), 0xFFFFFFFFu);
    EXPECT_EQ(xb.read(5, 511), 0u);
    EXPECT_EQ(xb.read(5, 1024), 0u);
}

TEST(PagedCrossbar, BlockBoundaryRowsMatchDense)
{
    const Geometry geo = tallGeometry();
    Crossbar paged(geo, XbarStorage::Paged);
    Crossbar dense(geo, XbarStorage::Dense);
    // Straddle every 512-row block seam, including the last row.
    for (const uint32_t row : {0u, 511u, 512u, 1023u, 1024u, 1535u,
                               1536u, 2047u}) {
        paged.writeRow(2, 0xC0FFEE00u | row, row);
        dense.writeRow(2, 0xC0FFEE00u | row, row);
    }
    const auto seam = Range(511, 1536, 1).expand(geo.rows);
    paged.logicH(gateOn(geo, Gate::Init1, 0, 0, 33), seam);
    dense.logicH(gateOn(geo, Gate::Init1, 0, 0, 33), seam);
    paged.logicV(Gate::Not, 511, 512, 2);
    dense.logicV(Gate::Not, 511, 512, 2);
    EXPECT_TRUE(paged.sameState(dense));
    EXPECT_EQ(paged.read(2, 2047), 0xC0FFEE00u | 2047u);
}

TEST(PagedCrossbar, CompactReElidesDecayedBlocks)
{
    const Geometry geo = tallGeometry();
    Crossbar xb(geo, XbarStorage::Paged);
    const auto mask = Range(0, 511, 1).expand(geo.rows);
    // Densify block 0 of slot 6's columns with ones...
    const HalfGates init1 = expandLogicH(
        MicroOp::logicH(Gate::Init1, 0, 0, geo.column(6, 0),
                        geo.partitions - 1, 1), geo);
    xb.logicH(init1, mask);
    const uint64_t present = xb.storageGauges().blocksPresent;
    EXPECT_EQ(present, 32u);
    EXPECT_EQ(xb.compact(), 0u) << "live blocks must survive compact";
    // ... decay them back to zero: the blocks stay materialised (ops
    // never re-elide inline) until an explicit compact() sweep.
    const HalfGates init0 = expandLogicH(
        MicroOp::logicH(Gate::Init0, 0, 0, geo.column(6, 0),
                        geo.partitions - 1, 1), geo);
    xb.logicH(init0, mask);
    EXPECT_EQ(xb.storageGauges().blocksPresent, present);
    EXPECT_EQ(xb.compact(), present);
    const StorageGauges after = xb.storageGauges();
    EXPECT_EQ(after.blocksPresent, 0u);
    EXPECT_EQ(after.blocksElided, after.blocksTotal);
    // Round trip: the crossbar is architecturally unchanged and can
    // densify again.
    EXPECT_EQ(xb.read(6, 100), 0u);
    xb.writeRow(6, 0x5A5A5A5Au, 100);
    EXPECT_EQ(xb.read(6, 100), 0x5A5A5A5Au);
}

namespace
{

/** Canonical non-zero-block walk of a crossbar, flattened for
 *  comparison. */
std::vector<uint64_t>
walkOf(const Crossbar &x)
{
    std::vector<uint64_t> out;
    x.forEachNonZeroBlock(
        [&](uint32_t col, uint32_t b, const uint64_t *w, uint32_t n) {
            out.push_back((static_cast<uint64_t>(col) << 32) | b);
            out.insert(out.end(), w, w + n);
        });
    return out;
}

/**
 * 400 random ops on a Paged crossbar and the Dense oracle, every
 * slot they name below @p slots, with compact() and image round trips
 * mixed in: every primitive, write bursts, bulk gather/scatter
 * windows (all-zero ones and ones starting mid-word) and single bits
 * included. Returns whether the paged crossbar ended as a slab.
 */
bool
fuzzParityWithDense(uint32_t slots)
{
    const Geometry geo = tallGeometry();
    Crossbar paged(geo, XbarStorage::Paged);
    Crossbar dense(geo, XbarStorage::Dense);
    Rng rng(20240604);
    const uint32_t maskWords = (geo.rows + 63) / 64;
    std::vector<uint64_t> mask(maskWords);
    const std::vector<uint64_t> allRows(maskWords, ~0ull);
    for (uint32_t iter = 0; iter < 400; ++iter) {
        // Sparse random row mask: mostly zero words, so ops keep
        // hitting absent/present block mixtures.
        for (auto &w : mask)
            w = rng.word() % 4 == 0 ? word64(rng) : 0;
        const uint32_t kind = rng.word() % 12;
        if (kind < 2) {
            const uint32_t slot = rng.word() % slots;
            const uint32_t v = rng.word();
            paged.write(slot, v, mask);
            dense.write(slot, v, mask);
        } else if (kind < 5) {
            const Gate g = kind == 2   ? Gate::Nor
                           : kind == 3 ? Gate::Init1
                                       : Gate::Init0;
            // Inputs must live in the gate's partition span: pick one
            // partition and three intra-partition columns.
            const uint32_t pw = geo.partitionWidth();
            const uint32_t base = (rng.word() % geo.partitions) * pw;
            const uint32_t a = base + rng.word() % slots;
            const uint32_t b = base + rng.word() % slots;
            const uint32_t out = base + rng.word() % slots;
            const HalfGates hg = gateOn(geo, g, a, b, out);
            paged.logicH(hg, mask);
            dense.logicH(hg, mask);
        } else if (kind < 6) {
            const uint32_t slot = rng.word() % slots;
            const uint32_t src = rng.word() % geo.rows;
            const uint32_t dst = rng.word() % geo.rows;
            if (src == dst)
                continue;
            paged.logicV(Gate::Not, src, dst, slot);
            dense.logicV(Gate::Not, src, dst, slot);
        } else if (kind == 6) {
            const uint32_t slot = rng.word() % slots;
            const uint32_t row = rng.word() % geo.rows;
            const uint32_t v = rng.word();
            paged.writeRow(slot, v, row);
            dense.writeRow(slot, v, row);
        } else if (kind == 7) {
            // Compaction and a round trip of the paged crossbar's own
            // image must both be architecturally invisible.
            paged.compact();
            EXPECT_EQ(walkOf(paged), walkOf(dense)) << "iter " << iter;
            loadImage(paged, imageOf(paged));
            EXPECT_EQ(walkOf(paged), walkOf(dense)) << "iter " << iter;
        } else if (kind < 10) {
            // Up to three writes of distinct slots, under the sparse
            // mask or an all-ones one.
            const uint32_t n = 1 + rng.word() % 3;
            const uint32_t first = rng.word() % slots;
            const std::vector<uint64_t> &m = kind == 8 ? mask : allRows;
            for (uint32_t i = 0; i < n && i < slots; ++i) {
                const uint32_t v = rng.word();
                paged.write((first + i) % slots, v, m);
                dense.write((first + i) % slots, v, m);
            }
        } else if (kind == 10) {
            // Bulk window starting anywhere in a word, a third of them
            // all-zero (pure clears). Then gather a random window back
            // from both.
            const uint32_t slot = rng.word() % slots;
            const uint32_t row = rng.word() % geo.rows;
            const uint32_t count = rng.word() % std::min<uint32_t>(
                                       200, geo.rows - row + 1);
            const bool zeros = rng.word() % 3 == 0;
            std::vector<uint32_t> vals(count);
            for (uint32_t &v : vals)
                v = zeros ? 0 : rng.word();
            paged.scatterRows(slot, row, count, vals.data());
            dense.scatterRows(slot, row, count, vals.data());
            const uint32_t from = rng.word() % geo.rows;
            const uint32_t len = rng.word() % std::min<uint32_t>(
                                     200, geo.rows - from + 1);
            std::vector<uint32_t> outP(len), outD(len);
            paged.gatherRows(slot, from, len, outP.data());
            dense.gatherRows(slot, from, len, outD.data());
            EXPECT_EQ(outP, outD) << "iter " << iter;
        } else {
            // Single bits in a column of the slots in use.
            const uint32_t col = (rng.word() % geo.wordBits) *
                                     geo.partitionWidth() +
                                 rng.word() % slots;
            const uint32_t row = rng.word() % geo.rows;
            const bool v = rng.word() & 1;
            paged.setBit(row, col, v);
            dense.setBit(row, col, v);
            const uint32_t probe = rng.word() % geo.rows;
            EXPECT_EQ(paged.bit(probe, col), dense.bit(probe, col))
                << "iter " << iter;
        }
        if (iter % 32 == 0) {
            EXPECT_TRUE(paged.sameState(dense)) << "iter " << iter;
        }
    }
    EXPECT_TRUE(paged.sameState(dense));
    // Spot-check strided readback through both paths.
    for (uint32_t slot = 0; slot < geo.slots(); slot += 5)
        for (uint32_t row = 0; row < geo.rows; row += 97)
            EXPECT_EQ(paged.read(slot, row), dense.read(slot, row))
                << "slot " << slot << " row " << row;
    return paged.isSlab();
}

} // namespace

TEST(PagedCrossbar, FuzzedSparseParityWithDense)
{
    // A quarter of the slots keeps the crossbar under the promotion
    // threshold, so every op runs on the paged kernels.
    EXPECT_FALSE(fuzzParityWithDense(tallGeometry().slots() / 4));
}

TEST(PagedCrossbar, FuzzedFillParityWithDense)
{
    // Every slot: the crossbar fills up and is promoted part-way.
    EXPECT_TRUE(fuzzParityWithDense(tallGeometry().slots()));
}

// ---------------------------------------------------------------------
// Adaptive Paged storage: a crossbar is promoted to the dense slab at
// replay entry once half of its block grid is present. Across the
// switch it must stay bit-identical to the Dense oracle, and
// storage() must keep reporting the configured policy.

namespace
{

/**
 * Fill step @p k on crossbar 0: INIT1 every row of slot k, which makes
 * every block of its 32 columns present, then NOR the two previous
 * slots into it under a strided row mask so the data is not uniform.
 * Prepared (and compiled) on a serial simulator.
 */
std::shared_ptr<const BatchTrace>
fillStep(const Geometry &geo, uint32_t k)
{
    const uint32_t last = geo.partitions - 1;
    std::vector<Word> ops;
    ops.push_back(MicroOp::crossbarMask(Range::single(0)).encode());
    ops.push_back(MicroOp::rowMask(Range::all(geo.rows)).encode());
    ops.push_back(MicroOp::logicH(Gate::Init1, 0, 0, geo.column(k, 0),
                                  last, 1)
                      .encode());
    if (k >= 2) {
        const uint32_t start = k % 7;
        const uint32_t stop =
            start + (geo.rows - 1 - start) / 3 * 3;
        ops.push_back(
            MicroOp::rowMask(Range(start, stop, 3)).encode());
        ops.push_back(MicroOp::logicH(Gate::Nor, geo.column(k - 1, 0),
                                      geo.column(k - 2, 0),
                                      geo.column(k, 0), last, 1)
                          .encode());
    }
    Simulator sim(geo, EngineConfig::serial());
    return sim.prepareTrace(ops.data(), ops.size());
}

/** Replay every compiled segment of @p t on @p xb as crossbar 0. */
void
replayOn(Crossbar &xb, const BatchTrace &t)
{
    for (const ReplayProgram &prog : t.programs)
        xb.replayProgram(prog, 0, nullptr);
}

/** Run fill steps [from, to) on every crossbar in @p xbs. */
void
fill(const Geometry &geo, std::initializer_list<Crossbar *> xbs,
     uint32_t from, uint32_t to)
{
    for (uint32_t k = from; k < to; ++k) {
        const auto t = fillStep(geo, k);
        for (Crossbar *xb : xbs)
            replayOn(*xb, *t);
    }
}

/** Bit-identity in every form a caller can observe. */
::testing::AssertionResult
identical(const Crossbar &a, const Crossbar &b)
{
    if (!a.sameState(b) || !b.sameState(a))
        return ::testing::AssertionFailure() << "sameState differs";
    if (a.stateChecksum() != b.stateChecksum())
        return ::testing::AssertionFailure() << "checksum differs";
    if (walkOf(a) != walkOf(b))
        return ::testing::AssertionFailure() << "block walk differs";
    return ::testing::AssertionSuccess();
}

// Four 512-row blocks per column, so one slot is 128 blocks and the
// half-grid threshold (2,048 of 4,096 blocks) is 16 filled slots.
constexpr uint32_t kSlotsAtThreshold = 16;

/**
 * Every block the canonical walk of slab crossbar @p x visits starts
 * on a kSlabAlign boundary. Columns here are a multiple of eight
 * words, so that holds iff the slab itself is aligned. At least one
 * block must be walked.
 */
::testing::AssertionResult
slabAligned(const Crossbar &x)
{
    uint64_t blocks = 0, misaligned = 0;
    x.forEachNonZeroBlock(
        [&](uint32_t, uint32_t, const uint64_t *w, uint32_t) {
            ++blocks;
            misaligned +=
                reinterpret_cast<uintptr_t>(w) % Crossbar::kSlabAlign != 0;
        });
    if (blocks == 0)
        return ::testing::AssertionFailure() << "no block walked";
    if (misaligned)
        return ::testing::AssertionFailure()
               << misaligned << " of " << blocks << " blocks misaligned";
    return ::testing::AssertionSuccess();
}

} // namespace

TEST(AdaptiveCrossbar, FillAcrossThresholdMatchesDenseOracle)
{
    const Geometry geo = tallGeometry();
    // A program checks the threshold once, at its entry, so the step
    // after the one that fills half the grid promotes.
    Crossbar xb(geo, XbarStorage::Paged);
    Crossbar oracle(geo, XbarStorage::Dense);
    for (uint32_t k = 0; k < geo.slots(); ++k) {
        fill(geo, {&xb, &oracle}, k, k + 1);
        ASSERT_EQ(xb.isSlab(), k >= kSlotsAtThreshold) << "step " << k;
        ASSERT_TRUE(identical(xb, oracle)) << "step " << k;
        ASSERT_TRUE(slabAligned(oracle)) << "step " << k;
        if (xb.isSlab()) {
            ASSERT_TRUE(slabAligned(xb)) << "step " << k;
        }
        ASSERT_EQ(xb.storage(), XbarStorage::Paged);
        ASSERT_EQ(xb.storageGauges().slabCrossbars,
                  xb.isSlab() ? 1u : 0u);
    }
    // A slab counts its whole grid as present, as Dense does.
    const StorageGauges g = xb.storageGauges();
    EXPECT_EQ(g.blocksPresent, g.blocksTotal);
    EXPECT_EQ(g.blocksElided, 0u);
    EXPECT_EQ(oracle.storageGauges().slabCrossbars, 1u);
    for (uint32_t slot = 0; slot < geo.slots(); slot += 3)
        for (uint32_t row = 0; row < geo.rows; row += 131)
            ASSERT_EQ(xb.read(slot, row), oracle.read(slot, row));
}

TEST(AdaptiveCrossbar, ProgramNeverPromotesMidway)
{
    // One program: INIT1 fills half the grid, then writes and more
    // gates follow. The writes must not promote the crossbar: the
    // gates after them would run paged kernels on a slab.
    const Geometry geo = tallGeometry();
    const uint32_t last = geo.partitions - 1;
    std::vector<Word> ops;
    ops.push_back(MicroOp::crossbarMask(Range::single(0)).encode());
    ops.push_back(MicroOp::rowMask(Range::all(geo.rows)).encode());
    for (uint32_t k = 0; k < kSlotsAtThreshold; ++k)
        ops.push_back(MicroOp::logicH(Gate::Init1, 0, 0,
                                      geo.column(k, 0), last, 1)
                          .encode());
    ops.push_back(MicroOp::write(20, 0x12345678u).encode());
    ops.push_back(MicroOp::write(21, 0x0F0F0F0Fu).encode());
    ops.push_back(MicroOp::rowMask(Range(1, geo.rows - 1, 2)).encode());
    ops.push_back(MicroOp::write(22, 0xCAFEF00Du).encode());
    ops.push_back(MicroOp::write(23, 0x00FF00FFu).encode());
    ops.push_back(MicroOp::logicH(Gate::Init1, 0, 0, geo.column(24, 0),
                                  last, 1)
                      .encode());
    ops.push_back(MicroOp::logicH(Gate::Nor, geo.column(20, 0),
                                  geo.column(22, 0), geo.column(24, 0),
                                  last, 1)
                      .encode());
    Simulator sim(geo, EngineConfig::serial());
    const auto t = sim.prepareTrace(ops.data(), ops.size());
    ASSERT_NE(t, nullptr);
    ASSERT_EQ(t->segments.size(), 1u);
    Crossbar xb(geo, XbarStorage::Paged);
    Crossbar oracle(geo, XbarStorage::Dense);
    replayOn(xb, *t);
    replayOn(oracle, *t);
    EXPECT_FALSE(xb.isSlab()) << "promotion happens at program entry";
    EXPECT_TRUE(identical(xb, oracle));
    replayOn(xb, *t);
    replayOn(oracle, *t);
    EXPECT_TRUE(xb.isSlab());
    EXPECT_TRUE(identical(xb, oracle));
}

TEST(AdaptiveCrossbar, ImagesLoadAcrossPromotionBothWays)
{
    const Geometry geo = tallGeometry();
    Crossbar xb(geo, XbarStorage::Paged);
    Crossbar at10(geo, XbarStorage::Dense);
    Crossbar at20(geo, XbarStorage::Dense);
    fill(geo, {&xb, &at10, &at20}, 0, 10);
    ASSERT_FALSE(xb.isSlab());
    const std::vector<BlockRecord> paged = imageOf(xb);
    fill(geo, {&xb, &at20}, 10, 20);
    ASSERT_TRUE(xb.isSlab());
    const std::vector<BlockRecord> slab = imageOf(xb);

    // An image taken while paged loads into the promoted slab, which
    // keeps its form until compact() demotes it.
    loadImage(xb, paged);
    EXPECT_TRUE(xb.isSlab());
    EXPECT_TRUE(identical(xb, at10));
    EXPECT_GT(xb.compact(), 0u);
    EXPECT_FALSE(xb.isSlab());
    EXPECT_EQ(xb.storage(), XbarStorage::Paged);
    EXPECT_TRUE(identical(xb, at10));
    // It continues exactly like the oracle, promoting again on the way.
    fill(geo, {&xb}, 10, 20);
    EXPECT_TRUE(xb.isSlab());
    EXPECT_TRUE(identical(xb, at20));

    // An image taken from the slab loads into a paged crossbar, which
    // promotes at its next replay entry.
    Crossbar fresh(geo, XbarStorage::Paged);
    fill(geo, {&fresh}, 0, 3);
    loadImage(fresh, slab);
    EXPECT_FALSE(fresh.isSlab()) << "loadBlock never promotes";
    EXPECT_TRUE(identical(fresh, at20));
    fill(geo, {&fresh, &xb}, 20, 21);
    EXPECT_TRUE(fresh.isSlab());
    EXPECT_TRUE(identical(fresh, xb));

    // The Dense oracle loads either image.
    Crossbar dense(geo, XbarStorage::Dense);
    loadImage(dense, paged);
    EXPECT_TRUE(identical(dense, at10));
    loadImage(dense, slab);
    EXPECT_TRUE(identical(dense, at20));
}

TEST(AdaptiveCrossbar, CompactDemotesADecayedSlab)
{
    const Geometry geo = tallGeometry();
    const auto fullMask = Range::all(geo.rows).expand(geo.rows);
    Crossbar xb(geo, XbarStorage::Paged);
    Crossbar oracle(geo, XbarStorage::Dense);
    fill(geo, {&xb, &oracle}, 0, 5);
    const std::vector<BlockRecord> early = imageOf(xb);  // pre-promotion
    Crossbar at5(geo, XbarStorage::Dense);
    loadImage(at5, imageOf(oracle));
    fill(geo, {&xb, &oracle}, 5, 21);
    ASSERT_TRUE(xb.isSlab());
    // Full: compact() keeps the slab and elides nothing.
    EXPECT_EQ(xb.compact(), 0u);
    EXPECT_TRUE(xb.isSlab());

    // Clear slots 0..5: 15 non-zero slots are left, just under the
    // threshold, so the next compact() demotes.
    for (uint32_t k = 0; k <= 5; ++k) {
        const HalfGates init0 = expandLogicH(
            MicroOp::logicH(Gate::Init0, 0, 0, geo.column(k, 0),
                            geo.partitions - 1, 1),
            geo);
        xb.logicH(init0, fullMask);
        oracle.logicH(init0, fullMask);
    }
    ASSERT_TRUE(xb.isSlab()) << "ops never demote";
    const uint64_t nonZero = 128u * 15;
    EXPECT_EQ(xb.compact(), 4096u - nonZero);
    EXPECT_FALSE(xb.isSlab());
    EXPECT_EQ(xb.storage(), XbarStorage::Paged);
    const StorageGauges g = xb.storageGauges();
    EXPECT_EQ(g.blocksPresent, nonZero);
    EXPECT_EQ(g.slabCrossbars, 0u);
    EXPECT_TRUE(identical(xb, oracle));
    // Paged again: continuing replay matches and re-promotes.
    fill(geo, {&xb, &oracle}, 21, 24);
    EXPECT_TRUE(xb.isSlab());
    EXPECT_TRUE(identical(xb, oracle));

    // An image from before the promotion loads into the slab, and the
    // next compact() demotes it again.
    loadImage(xb, early);
    EXPECT_TRUE(identical(xb, at5));
    EXPECT_EQ(xb.compact(), 4096u - 128u * 5);
    EXPECT_FALSE(xb.isSlab());
    EXPECT_TRUE(identical(xb, at5));
}

TEST(AdaptiveCrossbar, SlabsAreCacheLineAligned)
{
    const Geometry geo = tallGeometry();
    // Construction: a Dense crossbar is a slab from the start.
    Crossbar dense(geo, XbarStorage::Dense);
    dense.setBit(0, 0, true);
    EXPECT_TRUE(slabAligned(dense));

    // Promotion builds the slab.
    Crossbar xb(geo, XbarStorage::Paged);
    fill(geo, {&xb}, 0, kSlotsAtThreshold + 1);
    ASSERT_TRUE(xb.isSlab());
    EXPECT_TRUE(slabAligned(xb));

    // Loading a full image into a slab keeps it in place.
    loadImage(dense, imageOf(xb));
    EXPECT_TRUE(slabAligned(dense));

    // compact() keeps a full slab; a demoted one promotes to a new slab.
    EXPECT_EQ(xb.compact(), 0u);
    EXPECT_TRUE(slabAligned(xb));
    const auto fullMask = Range::all(geo.rows).expand(geo.rows);
    for (uint32_t k = 0; k <= kSlotsAtThreshold; ++k)
        xb.logicH(expandLogicH(MicroOp::logicH(Gate::Init0, 0, 0,
                                               geo.column(k, 0),
                                               geo.partitions - 1, 1),
                               geo),
                  fullMask);
    EXPECT_GT(xb.compact(), 0u);
    ASSERT_FALSE(xb.isSlab());
    fill(geo, {&xb}, 0, kSlotsAtThreshold + 1);
    ASSERT_TRUE(xb.isSlab());
    EXPECT_TRUE(slabAligned(xb));
}
