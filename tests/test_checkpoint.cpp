/**
 * @file
 * Checkpoint/restore tests (sim/serialize.hpp, sim/checkpoint.hpp,
 * Device::checkpoint/restore): fuzzed round trips must be
 * bit-identical in crossbar state, mask state and architectural Stats
 * at one and two replay threads x storage — including restores
 * into a DIFFERENT sub-device count than the checkpoint was taken
 * from — with the canonical encoding producing byte-identical files
 * from dense and paged sources, corrupt files failing loudly, and COW
 * snapshots surviving compact().
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "pim/pypim.hpp"
#include "sim/checkpoint.hpp"
#include "sim/serialize.hpp"

using namespace pypim;

namespace
{

Geometry
ckptGeometry()
{
    Geometry g = testGeometry();
    g.numCrossbars = 16;  // shardable to 1/2/4 sub-devices
    return g;
}

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

/** Unique scratch file per test, removed by the guard. */
class TempFile
{
  public:
    explicit TempFile(const std::string &tag)
        : path_(::testing::TempDir() + "pypim_" + tag + "_" +
                std::to_string(reinterpret_cast<uintptr_t>(this)) +
                ".ckpt")
    {
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Every byte of the file at @p path. */
std::vector<uint8_t>
fileBytes(const std::string &path)
{
    std::vector<uint8_t> buf;
    FILE *fp = std::fopen(path.c_str(), "rb");
    EXPECT_NE(fp, nullptr) << path;
    if (!fp)
        return buf;
    uint8_t chunk[4096];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, fp)) > 0)
        buf.insert(buf.end(), chunk, chunk + n);
    std::fclose(fp);
    return buf;
}

/** A tensor program leaving non-trivial state behind (live
 *  allocations, warm stream cache, advanced masks and stats). */
std::vector<int32_t>
runProgram(Device &dev, uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<int32_t> va(n), vb(n);
    for (size_t i = 0; i < n; ++i) {
        va[i] = static_cast<int32_t>(rng.word());
        vb[i] = static_cast<int32_t>(rng.word() | 1);
    }
    Tensor a = Tensor::fromVector(va, &dev);
    Tensor b = Tensor::fromVector(vb, &dev);
    Tensor c = a * b + a;
    Tensor d = c - (a & b);
    return d.toIntVector();
}

/** Driver-level continuation that needs no allocator (fixed regs),
 *  exercising the restored stream cache and mask state. */
std::vector<uint32_t>
runContinuation(Device &dev)
{
    const Geometry &g = dev.geometry();
    RTypeInstr in;
    in.op = ROp::Add;
    in.dtype = DType::Int32;
    in.rd = 2;
    in.ra = 0;
    in.rb = 1;
    in.warps = Range::all(g.numCrossbars);
    in.rows = Range::all(g.rows);
    dev.driver().execute(in);
    in.op = ROp::Mul;
    in.rd = 3;
    in.rb = 2;
    dev.driver().execute(in);
    dev.flush();
    std::vector<uint32_t> out;
    out.reserve(static_cast<size_t>(g.numCrossbars) * g.rows);
    for (uint32_t w = 0; w < g.numCrossbars; ++w)
        for (uint32_t r = 0; r < g.rows; ++r)
            out.push_back(dev.group().crossbar(w).read(3, r));
    return out;
}

::testing::AssertionResult
sameDeviceState(Device &a, Device &b)
{
    a.flush();
    b.flush();
    if (a.group().remote() || b.group().remote()) {
        // Worker processes own the crossbars under the socket
        // transport; the canonical checkpoint image (which carries
        // mask state too) is the transport-transparent identity once
        // the informational source-config header fields are
        // normalized.
        auto stateBytes = [](const SimulatorGroup &grp) {
            CheckpointImage img = buildGroupImage(grp);
            img.storage = XbarStorage::Paged;
            img.deviceCount = 1;
            return encodeCheckpoint(img);
        };
        if (stateBytes(a.group()) != stateBytes(b.group()))
            return ::testing::AssertionFailure()
                   << "canonical state images diverged";
    } else {
        for (uint32_t xb = 0; xb < a.geometry().numCrossbars; ++xb)
            if (!a.group().crossbar(xb).sameState(
                    b.group().crossbar(xb)))
                return ::testing::AssertionFailure()
                       << "crossbar " << xb << " diverged";
        if (a.simulator().crossbarMask() !=
                b.simulator().crossbarMask() ||
            a.simulator().rowMask() != b.simulator().rowMask())
            return ::testing::AssertionFailure()
                   << "mask state diverged";
    }
    if (!(a.stats() == b.stats()))
        return ::testing::AssertionFailure()
               << "architectural stats diverged";
    return ::testing::AssertionSuccess();
}

class CheckpointRoundTrip : public ::testing::TestWithParam<size_t>
{
};

} // namespace

// --- fuzzed round trips ---------------------------------------------------

TEST_P(CheckpointRoundTrip, BitIdenticalAcrossDeviceCountsAndStorage)
{
    const EngineCase &ec = engineCase(GetParam());
    const Geometry g = ckptGeometry();
    for (XbarStorage srcSt : {XbarStorage::Dense, XbarStorage::Paged}) {
        for (uint32_t srcDev : {1u, 2u, 4u}) {
            Device src(g, Driver::Mode::Parallel,
                       ec.cfg.withDevices(srcDev).withStorage(srcSt));
            runProgram(src, 42 + srcDev, 600);
            TempFile f("roundtrip");
            const uint64_t bytes = src.checkpoint(f.path());
            EXPECT_GT(bytes, 0u);
            EXPECT_EQ(src.faultStats().checkpointBytes, bytes);

            // Restore into the OTHER storage mode and every device
            // count — the image is canonical and global-coordinate.
            const XbarStorage dstSt = srcSt == XbarStorage::Dense
                                          ? XbarStorage::Paged
                                          : XbarStorage::Dense;
            for (uint32_t dstDev : {1u, 2u, 4u}) {
                Device dst(g, Driver::Mode::Parallel,
                           ec.cfg.withDevices(dstDev)
                               .withStorage(dstSt));
                dst.restore(f.path());
                ASSERT_TRUE(sameDeviceState(src, dst))
                    << ec.name << " " << srcDev << "->" << dstDev;
                // Host layers came along: allocator occupancy and
                // the memoised driver translations.
                EXPECT_EQ(dst.allocator().liveAllocations(),
                          src.allocator().liveAllocations());
                EXPECT_EQ(dst.allocator().slotsInUse(),
                          src.allocator().slotsInUse());
                EXPECT_EQ(dst.driver().streamCacheSize(),
                          src.driver().streamCacheSize());
                EXPECT_EQ(dst.driver().stats().instructions,
                          src.driver().stats().instructions);
            }
            // Divergence check: the restored device must CONTINUE
            // identically, not just compare equal at the instant.
            Device cont(g, Driver::Mode::Parallel,
                        ec.cfg.withDevices(srcDev == 4 ? 1 : 4)
                            .withStorage(dstSt));
            cont.restore(f.path());
            EXPECT_EQ(runContinuation(cont), runContinuation(src))
                << ec.name;
            EXPECT_TRUE(sameDeviceState(src, cont)) << ec.name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Engines, CheckpointRoundTrip,
                         ::testing::Range<size_t>(0, numEngineCases));

// --- canonical encoding ---------------------------------------------------

TEST(CheckpointDriverMasks, RestoredBuilderAdoptsTheSourceMasks)
{
    // The gate builder deduplicates mask ops against the masks it
    // knows, so a restored driver must know exactly what the source
    // driver knew — a known mask stays known (no redundant re-emit),
    // an unknown one stays unknown (no skipped emit). At 256 rows the
    // tensors cover part of one crossbar's rows, where a mismatch
    // shows in the Stats of the next step.
    Geometry g = ckptGeometry();
    g.rows = 256;
    for (bool sourceRan : {false, true}) {
        SCOPED_TRACE(sourceRan ? "known masks" : "unknown masks");
        Device src(g, Driver::Mode::Parallel, EngineConfig::serial());
        if (sourceRan)
            (void)runProgram(src, 5, 200);
        ASSERT_EQ(src.driver().builder().masksKnown(), sourceRan);
        TempFile f("driver_masks");
        src.checkpoint(f.path());
        Device restored(g, Driver::Mode::Parallel, EngineConfig::serial());
        (void)runProgram(restored, 77, 150);  // a different timeline
        restored.restore(f.path());
        EXPECT_EQ(restored.driver().builder().knownWarpMask(),
                  src.driver().builder().knownWarpMask());
        EXPECT_EQ(restored.driver().builder().knownRowMask(),
                  src.driver().builder().knownRowMask());
        EXPECT_EQ(runProgram(restored, 6, 200), runProgram(src, 6, 200));
        EXPECT_TRUE(sameDeviceState(restored, src));
    }
}

TEST(CheckpointEncoding, DenseAndPagedProduceIdenticalBytes)
{
    const Geometry g = ckptGeometry();
    for (uint32_t devices : {1u, 2u}) {
        EngineConfig cfg = EngineConfig{}.withDevices(devices);
        Device dense(g, Driver::Mode::Parallel,
                     cfg.withStorage(XbarStorage::Dense));
        Device paged(g, Driver::Mode::Parallel,
                     cfg.withStorage(XbarStorage::Paged));
        runProgram(dense, 7, 500);
        runProgram(paged, 7, 500);
        dense.flush();
        paged.flush();
        CheckpointImage di = buildGroupImage(dense.group());
        CheckpointImage pi = buildGroupImage(paged.group());
        // The storage byte is informational source metadata — align
        // it so the comparison targets the canonical payload.
        di.storage = pi.storage;
        EXPECT_EQ(encodeCheckpoint(di), encodeCheckpoint(pi))
            << "devices=" << devices;
    }
}

TEST(CheckpointEncoding, PromotionLeavesTheBytesUnchanged)
{
    // storage() reports the configured policy, so the image header
    // says Paged whether or not a crossbar has been promoted to the
    // slab, and the canonical block walk is the same in both forms.
    const Geometry g = ckptGeometry();
    const EngineConfig cfg =
        EngineConfig{}.withStorage(XbarStorage::Paged);
    Device promoted(g, Driver::Mode::Parallel, cfg);
    runProgram(promoted, 5, 700);
    promoted.flush();
    ASSERT_GT(promoted.group().storageGauges().slabCrossbars, 0u);
    TempFile fa("promoted");
    promoted.checkpoint(fa.path());
    EXPECT_EQ(loadCheckpoint(fa.path()).storage, XbarStorage::Paged);

    // The same state loaded into a fresh paged device: restore loads
    // blocks, which never promotes.
    Device paged(g, Driver::Mode::Parallel, cfg);
    paged.restore(fa.path());
    ASSERT_EQ(paged.group().storageGauges().slabCrossbars, 0u);
    TempFile fb("paged");
    paged.checkpoint(fb.path());
    EXPECT_EQ(fileBytes(fa.path()), fileBytes(fb.path()));

    // The restored device promotes as it replays on; the same
    // continuation on both still checkpoints to identical bytes.
    EXPECT_EQ(runContinuation(paged), runContinuation(promoted));
    EXPECT_GT(paged.group().storageGauges().slabCrossbars, 0u);
    TempFile fa2("promoted2"), fb2("paged2");
    promoted.checkpoint(fa2.path());
    paged.checkpoint(fb2.path());
    EXPECT_EQ(fileBytes(fa2.path()), fileBytes(fb2.path()));
}

TEST(CheckpointEncoding, ImageIsPresentBlocksOnly)
{
    // A near-empty device encodes to O(live data), not O(geometry):
    // one touched register out of a 16-crossbar space stays small.
    const Geometry g = ckptGeometry();
    Device dev(g);
    Tensor t = Tensor::full(4ull, static_cast<int32_t>(9), &dev);
    dev.flush();
    const CheckpointImage img = buildGroupImage(dev.group());
    size_t words = 0;
    for (const CrossbarImage &ci : img.crossbars)
        for (const BlockRecord &b : ci.blocks)
            words += b.words.size();
    const size_t denseWords = static_cast<size_t>(g.numCrossbars) *
                              g.cols * ((g.rows + 63) / 64);
    EXPECT_LT(words, denseWords / 8)
        << "image should elide untouched state";
}

// --- loud failure on damage -----------------------------------------------

TEST(CheckpointCorruption, DamagedFilesFailLoudly)
{
    const Geometry g = ckptGeometry();
    Device dev(g);
    runProgram(dev, 3, 400);
    TempFile f("corrupt");
    const uint64_t bytes = dev.checkpoint(f.path());
    ASSERT_GT(bytes, 64u);

    auto readAll = [&] {
        FILE *fp = std::fopen(f.path().c_str(), "rb");
        EXPECT_NE(fp, nullptr);
        std::vector<uint8_t> buf(bytes);
        EXPECT_EQ(std::fread(buf.data(), 1, bytes, fp), bytes);
        std::fclose(fp);
        return buf;
    };
    auto writeAll = [&](const std::vector<uint8_t> &buf) {
        FILE *fp = std::fopen(f.path().c_str(), "wb");
        ASSERT_NE(fp, nullptr);
        ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), fp),
                  buf.size());
        std::fclose(fp);
    };
    const std::vector<uint8_t> good = readAll();

    // Flipped payload byte -> CRC failure.
    std::vector<uint8_t> bad = good;
    bad[bad.size() / 2] ^= 0x40;
    writeAll(bad);
    EXPECT_THROW(loadCheckpoint(f.path()), Error);

    // Truncation -> loud failure.
    bad = good;
    bad.resize(bad.size() - 9);
    writeAll(bad);
    EXPECT_THROW(loadCheckpoint(f.path()), Error);

    // Bad magic -> loud failure.
    bad = good;
    bad[0] ^= 0xFF;
    writeAll(bad);
    EXPECT_THROW(loadCheckpoint(f.path()), Error);

    // Trailing junk -> loud failure.
    bad = good;
    bad.push_back(0);
    writeAll(bad);
    EXPECT_THROW(loadCheckpoint(f.path()), Error);

    // The original still loads and restores.
    writeAll(good);
    Device fresh(g);
    fresh.restore(f.path());
    EXPECT_TRUE(sameDeviceState(dev, fresh));

    // Geometry mismatch is refused before any state is touched.
    Geometry other = g;
    other.numCrossbars = 4;
    Device wrong(other);
    EXPECT_THROW(wrong.restore(f.path()), Error);
}

TEST(CheckpointCorruption, DecodeRejectsGarbage)
{
    EXPECT_THROW(decodeCheckpoint({}), Error);
    EXPECT_THROW(decodeCheckpoint({1, 2, 3, 4, 5, 6, 7, 8}), Error);
    EXPECT_THROW(loadCheckpoint("/nonexistent/path/x.ckpt"), Error);
}

// --- bounded decode and the frame checksum --------------------------------

namespace
{

/**
 * A small fixed image built field by field, independent of the driver
 * and the simulator: two crossbars, one with a short tail block.
 */
CheckpointImage
fixedImage()
{
    CheckpointImage img;
    img.geo = ckptGeometry();
    img.maskXb = Range(1, 9, 2);
    img.maskRow = Range(0, 31, 1);
    img.archStats.instructions = 7;
    img.archStats.logicGates = 1234;
    img.archStats.wireBytesTx = 99;
    for (uint32_t xb : {2u, 11u}) {
        CrossbarImage ci;
        ci.xb = xb;
        for (uint32_t col : {3u, 640u}) {
            BlockRecord b;
            b.col = col;
            b.words.assign(col == 3 ? 1 : 8, 0);
            for (size_t w = 0; w < b.words.size(); ++w)
                b.words[w] = 0x9E3779B97F4A7C15ull * (xb + col + w + 1);
            ci.blocks.push_back(b);
        }
        img.crossbars.push_back(ci);
    }
    img.allocState = {1, 2, 3};
    return img;
}

/** The bytewise CRC-32 (reflected 0xEDB88320), the reference that
 *  the slicing-by-8 crc32 must reproduce. */
uint32_t
crc32Bytewise(const uint8_t *p, size_t n)
{
    uint32_t c = 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

void
putLE(std::vector<uint8_t> &bytes, size_t at, uint64_t v, int n)
{
    for (int i = 0; i < n; ++i)
        bytes[at + i] = static_cast<uint8_t>(v >> (8 * i));
}

/** Offset of the first section header: magic, version, six u32
 *  geometry fields, clock, storage byte, device and section counts. */
constexpr size_t kFirstSection = 8 + 4 + 6 * 4 + 8 + 1 + 4 + 4;

// encodeCheckpoint(fixedImage()) as the bytewise-CRC format wrote it
// (format version 3).
constexpr size_t kPinnedSize = 636;
constexpr uint32_t kPinnedCrc = 0x779F6B08u;

/** Offset of the header of the first section tagged @p tag. */
size_t
sectionAt(const std::vector<uint8_t> &bytes, uint32_t tag)
{
    size_t at = kFirstSection;
    for (;;) {
        uint64_t len = 0;
        for (int i = 0; i < 8; ++i)
            len |= static_cast<uint64_t>(bytes[at + 4 + i]) << (8 * i);
        if (bytes[at] == tag)
            return at;
        at += 16 + len;
    }
}

/** Decoding @p bytes must fail with a "checkpoint: ..." error. */
::testing::AssertionResult
failsAsCheckpointError(const std::vector<uint8_t> &bytes)
{
    try {
        decodeCheckpoint(bytes);
    } catch (const Error &e) {
        if (std::string(e.what()).find("checkpoint: ") != std::string::npos)
            return ::testing::AssertionSuccess() << e.what();
        return ::testing::AssertionFailure() << "message: " << e.what();
    }
    return ::testing::AssertionFailure() << "decoded";
}

} // namespace

TEST(CheckpointCorruption, OversizedLengthsAndCountsFailLoudly)
{
    const std::vector<uint8_t> good = encodeCheckpoint(fixedImage());
    ASSERT_NO_THROW(decodeCheckpoint(good));

    // The first section's length, 2^62: rejected before allocating.
    std::vector<uint8_t> bad = good;
    putLE(bad, kFirstSection + 4, 1ull << 62, 8);
    EXPECT_TRUE(failsAsCheckpointError(bad));

    // The crossbar and block counts, 2^32 - 1, with the section CRC
    // recomputed so the counts are what fails.
    constexpr uint32_t kSecCrossbars = 3;
    const size_t sec = sectionAt(good, kSecCrossbars);
    const size_t payload = sec + 16;
    uint64_t len = 0;
    for (int i = 0; i < 8; ++i)
        len |= static_cast<uint64_t>(good[sec + 4 + i]) << (8 * i);
    for (size_t countAt : {payload, payload + 8}) {
        bad = good;
        putLE(bad, countAt, 0xFFFFFFFFu, 4);
        putLE(bad, sec + 12, crc32(bad.data() + payload, len), 4);
        EXPECT_TRUE(failsAsCheckpointError(bad))
            << "count at payload offset " << countAt - payload;
    }
}

TEST(CheckpointCrc, SlicingBy8MatchesTheBytewiseReference)
{
    const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    EXPECT_EQ(crc32(check, sizeof(check)), 0xCBF43926u);
    Rng rng(4096);
    std::vector<uint8_t> buf(4096 + 8);
    for (uint8_t &b : buf)
        b = static_cast<uint8_t>(rng.word());
    for (int i = 0; i < 300; ++i) {
        const size_t n = i < 64 ? i : rng.word() % 4097;
        for (size_t start = 0; start < 8; ++start)
            ASSERT_EQ(crc32(buf.data() + start, n),
                      crc32Bytewise(buf.data() + start, n))
                << n << " bytes at offset " << start;
    }
}

TEST(CheckpointCrc, FixedImageBytesArePinned)
{
    // Checkpoint files and wire frames embed crc32 values: a change to
    // the checksum or the encoding shows here as changed bytes.
    const std::vector<uint8_t> bytes = encodeCheckpoint(fixedImage());
    EXPECT_EQ(bytes.size(), kPinnedSize);
    EXPECT_EQ(crc32Bytewise(bytes.data(), bytes.size()), kPinnedCrc);
}

// --- compact() under live COW snapshots -----------------------------------

TEST(CheckpointCompact, CompactUnderLiveSnapshotsPreservesImages)
{
    const Geometry g = ckptGeometry();
    for (uint32_t devices : {2u, 4u}) {
        Device dev(g, Driver::Mode::Parallel,
                   EngineConfig::serial()
                       .withDevices(devices)
                       .withStorage(XbarStorage::Paged));
        runProgram(dev, 11, 800);
        dev.flush();

        // Live COW snapshots of every crossbar, held across the
        // mutation + compact below.
        std::vector<Crossbar::Snapshot> snaps;
        for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
            snaps.push_back(dev.group().crossbar(xb).snapshot());
        const CheckpointImage before = buildGroupImage(dev.group());

        // Decay state back to zero (blocks eligible for re-elision),
        // then compact under the live snapshots.
        for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
            for (uint32_t r = 0; r < g.rows; ++r)
                for (uint32_t s = 0; s < 4; ++s)
                    dev.group().crossbar(xb).writeRow(s, 0, r);
        dev.group().compactStorage();

        // The held snapshots still carry the pre-compact state.
        for (uint32_t xb = 0; xb < g.numCrossbars; ++xb) {
            dev.group().crossbar(xb).restore(snaps[xb]);
            ASSERT_TRUE(
                dev.group().crossbar(xb).sameState(snaps[xb]))
                << "devices=" << devices << " xb=" << xb;
        }
        // And the image built from them equals the pre-mutation one.
        const CheckpointImage after = buildGroupImage(dev.group());
        EXPECT_EQ(encodeCheckpoint(before), encodeCheckpoint(after))
            << "devices=" << devices;
    }
}
