/**
 * @file
 * Shard-transport wire tests (sim/transport.hpp, sim/trace_wire.hpp):
 * the framed protocol must reject EVERY damaged message loudly —
 * single-bit flips anywhere in a frame, truncation at every length,
 * byte reorderings and trailing garbage all throw pypim::Error before
 * any state is applied; worker-side typed exceptions cross the wire
 * and rethrow as the matching error class; trace images survive a
 * round trip bit-exactly, carry no compiled programs (the receiver
 * compiles) but the entry state of an entry-dependent trace, and
 * reject corruption, forged epilogues and hulls and old versions on
 * every worker, while only a worker whose slice the trace touches
 * compiles it; and the live
 * fork/socketpair fleet ships each frozen trace once per worker,
 * surfaces a killed worker as a DeviceFault and rebuilds it through
 * checkpoint restore and journaled recovery. A worker bounds every
 * count a message claims before it allocates for it. A worker answers
 * a state fetch with its owned slice as an encoded checkpoint image,
 * and the fleet's merged image is byte-identical to the in-process
 * group's at 2 and 4 devices.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <dirent.h>
#include <fstream>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "pim/pypim.hpp"
#include "sim/batch_trace.hpp"
#include "sim/checkpoint.hpp"
#include "sim/device_group.hpp"
#include "sim/htree.hpp"
#include "sim/replay_program.hpp"
#include "sim/serialize.hpp"
#include "sim/shard_worker.hpp"
#include "sim/trace_wire.hpp"
#include "sim/transport.hpp"

using namespace pypim;

namespace
{

/** buildWireTrace through a fresh host expansion table. */
std::shared_ptr<const BatchTrace>
hostTrace(const Word *ops, size_t n, const Geometry &g, const HTree &ht,
          const EntryMasks *entry = nullptr)
{
    ExpansionTable table(g);
    return buildWireTrace(ops, n, g, ht, table, entry);
}

/** decodeTraceWire as a worker owning every crossbar installs it,
 *  through a fresh expansion table. */
std::shared_ptr<const BatchTrace>
installWhole(const uint8_t *img, size_t n, const Geometry &g,
             const HTree &ht)
{
    ExpansionTable table(g);
    return decodeTraceWire(img, n, g, ht, table, 0, g.numCrossbars);
}

/** Move items of @p t: the host's scan and a worker's build both hold
 *  them (only a build also holds segment items). */
size_t
moveItems(const BatchTrace &t)
{
    return std::count_if(t.items.begin(), t.items.end(),
                         [](const BatchTrace::Item &i) {
                             return i.kind == BatchTrace::Item::Kind::Move;
                         });
}

/** Small self-contained stream leading with both masks, as the trace
 *  wire codec requires of a frozen batch. */
std::vector<Word>
tracedStream(const Geometry &g)
{
    std::vector<Word> ops;
    ops.push_back(
        MicroOp::crossbarMask(Range::all(g.numCrossbars)).encode());
    ops.push_back(MicroOp::rowMask(Range::all(g.rows)).encode());
    ops.push_back(MicroOp::write(2, 0xDEADBEEFu).encode());
    ops.push_back(MicroOp::write(3, 41).encode());
    const uint32_t out = g.column(4, 0);
    ops.push_back(MicroOp::logicH(Gate::Init1, 0, 0, out,
                                  g.partitions - 1, 1)
                      .encode());
    ops.push_back(MicroOp::logicH(Gate::Nor, g.column(2, 0),
                                  g.column(3, 0), g.column(5, 0),
                                  g.partitions - 1, 1)
                      .encode());
    return ops;
}

/**
 * A self-contained stream confined to crossbars [0, @p per), the
 * first worker's slice when each worker owns @p per: writes, lane
 * gates and a Move inside the slice.
 */
std::vector<Word>
sliceStream(const Geometry &g, uint32_t per)
{
    const uint32_t out = g.column(4, 0);
    return {
        MicroOp::crossbarMask(Range(0, per - 1, 1)).encode(),
        MicroOp::rowMask(Range::all(g.rows)).encode(),
        MicroOp::write(2, 0xDEADBEEFu).encode(),
        MicroOp::write(3, 41).encode(),
        MicroOp::logicH(Gate::Init1, 0, 0, out, g.partitions - 1, 1)
            .encode(),
        MicroOp::logicH(Gate::Nor, g.column(2, 0), g.column(3, 0), out,
                        g.partitions - 1, 1)
            .encode(),
        MicroOp::crossbarMask(Range(0, per / 2 - 1, 1)).encode(),
        MicroOp::move(per / 2, 0, 1, 4, 5).encode(),
    };
}

/** The entry mask state the entry-carrying images decode from. */
EntryMasks
wireEntry(const Geometry &g)
{
    return {Range(1, g.numCrossbars - 1, 2), Range(0, g.rows - 2, 2)};
}

/** tracedStream without its leading masks: only valid from an entry
 *  state, as a captured move sequence is. */
std::vector<Word>
entryStream(const Geometry &g)
{
    const std::vector<Word> ops = tracedStream(g);
    return std::vector<Word>(ops.begin() + 2, ops.end());
}

/** One image of each shape: self-contained and entry-carrying. */
std::vector<std::vector<uint8_t>>
wireImages(const Geometry &g, const HTree &ht)
{
    const std::vector<Word> ops = tracedStream(g);
    const std::vector<Word> eops = entryStream(g);
    const EntryMasks entry = wireEntry(g);
    return {encodeTraceWire(
                *hostTrace(ops.data(), ops.size(), g, ht)),
            encodeTraceWire(*hostTrace(eops.data(), eops.size(), g,
                                            ht, &entry))};
}

/** Byte offset of the entry flag in a version-5 image: magic,
 *  version, signature, four geometry words. */
constexpr size_t kEntryFlagAt = 4 + 4 + 8 + 16;

/** Byte offset of the crossbar hull (two u32) in a version-5 image of
 *  @p nOps source ops: it sits right before the op count (u64) and
 *  the ops, which end the image. */
size_t
hullAt(const std::vector<uint8_t> &img, size_t nOps)
{
    return img.size() - 8 * nOps - 8 - 8;
}

/** Reference frame used by the fuzz battery. */
std::vector<uint8_t>
sampleFrame()
{
    std::vector<uint8_t> payload(48);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<uint8_t>(i * 37 + 5);
    return encodeFrame(kMsgSubmit, payload.data(), payload.size());
}

/** PIDs of every live child process (the forked shard workers), via
 *  /proc — empty when the kernel lacks CONFIG_PROC_CHILDREN. */
std::vector<pid_t>
liveChildren()
{
    std::vector<pid_t> pids;
    DIR *tasks = ::opendir("/proc/self/task");
    if (!tasks)
        return pids;
    while (struct dirent *e = ::readdir(tasks)) {
        if (e->d_name[0] == '.')
            continue;
        std::ifstream f(std::string("/proc/self/task/") + e->d_name +
                        "/children");
        pid_t p = 0;
        while (f >> p)
            pids.push_back(p);
    }
    ::closedir(tasks);
    return pids;
}

} // namespace

// --- frame codec ----------------------------------------------------------

TEST(WireFrame, RoundTripCarriesTypeAndPayload)
{
    const std::vector<uint8_t> payload = {9, 0, 255, 3, 128};
    const std::vector<uint8_t> bytes =
        encodeFrame(kMsgBulkRead, payload.data(), payload.size());
    ASSERT_EQ(bytes.size(), kFrameHeader + payload.size());
    const WireFrame f = decodeFrame(bytes.data(), bytes.size());
    EXPECT_EQ(f.type, kMsgBulkRead);
    EXPECT_EQ(f.payload, payload);
}

TEST(WireFrame, EmptyPayloadRoundTrips)
{
    const std::vector<uint8_t> bytes =
        encodeFrame(kMsgFlush, nullptr, 0);
    ASSERT_EQ(bytes.size(), kFrameHeader);
    const WireFrame f = decodeFrame(bytes.data(), bytes.size());
    EXPECT_EQ(f.type, kMsgFlush);
    EXPECT_TRUE(f.payload.empty());
}

TEST(WireFrame, EncodeRejectsUnknownType)
{
    EXPECT_THROW(encodeFrame(42, nullptr, 0), InternalError);
    EXPECT_THROW(encodeFrame(0, nullptr, 0), InternalError);
}

TEST(WireFrame, EveryBitFlipIsRejected)
{
    // The checksum covers header and payload: no single-bit flip may
    // decode, even one that lands on another valid type or length.
    const std::vector<uint8_t> frame = sampleFrame();
    for (size_t i = 0; i < frame.size(); ++i) {
        for (int b = 0; b < 8; ++b) {
            std::vector<uint8_t> bad = frame;
            bad[i] ^= static_cast<uint8_t>(1u << b);
            EXPECT_THROW(decodeFrame(bad.data(), bad.size()), Error)
                << "flip survived at byte " << i << " bit " << b;
        }
    }
}

TEST(WireFrame, EveryTruncationIsRejected)
{
    const std::vector<uint8_t> frame = sampleFrame();
    for (size_t n = 0; n < frame.size(); ++n)
        EXPECT_THROW(decodeFrame(frame.data(), n), Error)
            << "truncation to " << n << " bytes survived";
}

TEST(WireFrame, TrailingBytesAreRejected)
{
    std::vector<uint8_t> frame = sampleFrame();
    frame.push_back(0);
    EXPECT_THROW(decodeFrame(frame.data(), frame.size()), Error);
}

TEST(WireFrame, ByteReorderIsRejected)
{
    // Swapping any two differing bytes (a reordered wire) must fail
    // the checksum or a field guard — never decode.
    const std::vector<uint8_t> frame = sampleFrame();
    for (size_t i = 0; i < frame.size(); ++i) {
        for (size_t j = i + 1; j < frame.size(); ++j) {
            if (frame[i] == frame[j])
                continue;
            std::vector<uint8_t> bad = frame;
            std::swap(bad[i], bad[j]);
            EXPECT_THROW(decodeFrame(bad.data(), bad.size()), Error)
                << "swap " << i << "<->" << j << " survived";
        }
    }
}

// --- typed error forwarding -----------------------------------------------

TEST(WireError, KindsMapToTypedExceptions)
{
    const auto rethrow = [](uint8_t kind, const std::string &msg) {
        rethrowWireError(encodeWireError(kind, msg));
    };
    EXPECT_THROW(rethrow(kErrUser, "u"), Error);
    EXPECT_THROW(rethrow(kErrInternal, "i"), InternalError);
    EXPECT_THROW(rethrow(kErrFault, "f"), DeviceFault);
    EXPECT_THROW(rethrow(kErrCorruption, "c"), StateCorruption);
    EXPECT_THROW(rethrow(kErrInjected, "j"), InjectedFault);
    // Unknown kinds degrade to the base class, never to silence.
    EXPECT_THROW(rethrow(99, "x"), Error);
}

TEST(WireError, MessageSurvivesTheWire)
{
    try {
        rethrowWireError(
            encodeWireError(kErrCorruption, "crossbar 3 diverged"));
        FAIL() << "did not throw";
    } catch (const StateCorruption &e) {
        EXPECT_STREQ(e.what(), "crossbar 3 diverged");
    }
}

TEST(WireError, MalformedPayloadThrowsLoudly)
{
    const std::vector<uint8_t> good =
        encodeWireError(kErrUser, "boom");
    for (size_t n = 0; n < good.size(); ++n) {
        const std::vector<uint8_t> bad(good.begin(), good.begin() + n);
        EXPECT_THROW(rethrowWireError(bad), Error)
            << "truncation to " << n << " bytes survived";
    }
}

// --- untrusted counts ------------------------------------------------------

TEST(WorkerBounds, OversizedCountsAreRejectedBeforeAllocating)
{
    // A worker served in a thread over a socketpair (no fork, so this
    // also runs under TSan). Every count below exceeds
    // vector::max_size: an unchecked worker would fail with a bare
    // length_error; a bounded one names the count it refused.
    const Geometry g = testGeometry();
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::thread worker([&] {
        runShardWorker(fds[1], g, EngineConfig::serial(), 0,
                       g.numCrossbars, 0);
    });
    const auto send = [&](uint32_t type, const std::vector<uint8_t> &p) {
        sendFrame(fds[0], type, p.data(), p.size());
    };
    const auto expectErrorNaming = [&](uint64_t count) {
        const WireFrame reply = recvFrame(fds[0]);
        ASSERT_EQ(reply.type, uint32_t{kMsgErr});
        try {
            rethrowWireError(reply.payload);
        } catch (const Error &e) {
            EXPECT_NE(std::string(e.what()).find(std::to_string(count)),
                      std::string::npos)
                << e.what();
        }
    };

    // Bulk write claiming 2^62 values, carrying none.
    BulkIoSpec spec;
    spec.count = uint64_t{1} << 62;
    ByteWriter bw;
    writeBulkSpec(bw, spec);
    send(kMsgBulkWrite, bw.take());
    expectErrorNaming(spec.count);

    // Bulk read of 2^62 elements from a 256-row device.
    ByteWriter br;
    writeBulkSpec(br, spec);
    send(kMsgBulkRead, br.take());
    expectErrorNaming(spec.count);

    // Submit claiming 2^61 + 1 ops with one op word: n * 8 wraps to 8.
    // Submits are asynchronous, so the error goes sticky and the next
    // flush reports it.
    const uint64_t n = (uint64_t{1} << 61) + 1;
    ByteWriter sw;
    sw.u64(n);
    sw.u64(0);
    send(kMsgSubmit, sw.take());
    send(kMsgFlush, {});
    expectErrorNaming(n);

    send(kMsgShutdown, {});
    worker.join();
    ::close(fds[0]);
}

TEST(WorkerState, FetchReplyIsTheOwnedSliceImage)
{
    // A worker owning crossbars [4, 8) of 16, served in a thread. It
    // restores the records it owns from a whole-device image and
    // answers a state fetch with exactly those, as an encoded
    // checkpoint image the file codec decodes.
    Geometry g = testGeometry();
    g.numCrossbars = 16;
    CheckpointImage img;
    img.geo = g;
    img.maskXb = Range(2, 14, 4);
    img.maskRow = Range(1, g.rows - 1, 2);
    img.archStats.recordN(OpClass::Write, 7);
    for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
        img.crossbars.push_back(
            {xb, {{xb, 0, {0x1000u + xb}}, {g.cols - 1, 0, {~0ull}}}});
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::thread worker(
        [&] { runShardWorker(fds[1], g, EngineConfig::serial(), 4, 4, 1); });
    const std::vector<uint8_t> bytes = encodeCheckpoint(img);
    sendFrame(fds[0], kMsgStateRestore, bytes.data(), bytes.size());
    EXPECT_EQ(recvFrame(fds[0]).type, uint32_t{kMsgStateRestore});
    sendFrame(fds[0], kMsgStateFetch, nullptr, 0);
    const WireFrame reply = recvFrame(fds[0]);
    sendFrame(fds[0], kMsgShutdown, nullptr, 0);
    worker.join();
    ::close(fds[0]);

    ASSERT_EQ(reply.type, uint32_t{kMsgStateFetch});
    const CheckpointImage slice = decodeCheckpoint(reply.payload);
    EXPECT_EQ(slice.geo, g);
    EXPECT_EQ(slice.maskXb, img.maskXb);
    EXPECT_EQ(slice.maskRow, img.maskRow);
    EXPECT_EQ(slice.archStats, img.archStats);
    ASSERT_EQ(slice.crossbars.size(), 4u);
    for (uint32_t i = 0; i < 4; ++i) {
        const CrossbarImage &want = img.crossbars[4 + i];
        EXPECT_EQ(slice.crossbars[i].xb, want.xb);
        ASSERT_EQ(slice.crossbars[i].blocks.size(), want.blocks.size());
        for (size_t b = 0; b < want.blocks.size(); ++b) {
            EXPECT_EQ(slice.crossbars[i].blocks[b].col,
                      want.blocks[b].col);
            EXPECT_EQ(slice.crossbars[i].blocks[b].words,
                      want.blocks[b].words);
        }
    }
}

// --- trace wire format ----------------------------------------------------

TEST(TraceWire, SignatureIsContentAddressed)
{
    const Geometry g = testGeometry();
    const std::vector<Word> ops = tracedStream(g);
    const uint64_t sig = traceSignature(ops.data(), ops.size());
    EXPECT_NE(sig, 0u);
    EXPECT_EQ(sig, traceSignature(ops.data(), ops.size()));
    std::vector<Word> other = ops;
    other[3] = MicroOp::write(3, 42).encode();
    EXPECT_NE(sig, traceSignature(other.data(), other.size()));
    // One stream decoded from two entry states gets two addresses.
    const EntryMasks a = wireEntry(g);
    EntryMasks b = a;
    b.row = Range(1, g.rows - 1, 2);
    const uint64_t sigA = traceSignature(ops.data(), ops.size(), &a);
    EXPECT_NE(sigA, sig) << "entry state must be part of the identity";
    EXPECT_NE(sigA, traceSignature(ops.data(), ops.size(), &b));
    EXPECT_EQ(sigA, traceSignature(ops.data(), ops.size(), &a));
}

TEST(TraceWire, RoundTripRebuildsIdenticalTrace)
{
    const Geometry g = testGeometry();
    const HTree ht(g.numCrossbars);
    const std::vector<Word> ops = tracedStream(g);
    const std::shared_ptr<const BatchTrace> t =
        hostTrace(ops.data(), ops.size(), g, ht);
    ASSERT_TRUE(t);
    EXPECT_EQ(t->wireSig, traceSignature(ops.data(), ops.size()));
    const std::vector<uint8_t> img = encodeTraceWire(*t);
    const std::shared_ptr<const BatchTrace> d =
        installWhole(img.data(), img.size(), g, ht);
    ASSERT_TRUE(d);
    EXPECT_EQ(d->wireSig, t->wireSig);
    EXPECT_TRUE(d->stats == t->stats);
    EXPECT_TRUE(d->finalXb == t->finalXb);
    EXPECT_TRUE(d->finalRow == t->finalRow);
    EXPECT_EQ(moveItems(*d), moveItems(*t));
    EXPECT_FALSE(d->hasEntry);
    EXPECT_TRUE(d->sourceOps.empty())
        << "an installed trace replays by signature, not from source";
}

TEST(TraceWire, EntryImageRoundTrips)
{
    const Geometry g = testGeometry();
    const HTree ht(g.numCrossbars);
    const std::vector<Word> ops = entryStream(g);
    const EntryMasks entry = wireEntry(g);
    // Not self-contained: wireable only with its entry state.
    EXPECT_EQ(hostTrace(ops.data(), ops.size(), g, ht), nullptr);
    const std::shared_ptr<const BatchTrace> t =
        hostTrace(ops.data(), ops.size(), g, ht, &entry);
    ASSERT_TRUE(t);
    EXPECT_TRUE(t->hasEntry);
    EXPECT_EQ(t->wireSig, traceSignature(ops.data(), ops.size(), &entry));
    const std::vector<uint8_t> img = encodeTraceWire(*t);
    const std::shared_ptr<const BatchTrace> d =
        installWhole(img.data(), img.size(), g, ht);
    ASSERT_TRUE(d);
    EXPECT_EQ(d->wireSig, t->wireSig);
    EXPECT_TRUE(d->hasEntry);
    EXPECT_TRUE(d->entryXb == entry.xb);
    EXPECT_TRUE(d->entryRow == entry.row);
    EXPECT_TRUE(d->stats == t->stats);
    EXPECT_TRUE(d->finalXb == t->finalXb);
    EXPECT_TRUE(d->finalRow == t->finalRow);
    EXPECT_EQ(moveItems(*d), moveItems(*t));
    EXPECT_TRUE(d->sourceOps.empty());
}

TEST(TraceWire, HostTraceHoldsNoPrograms)
{
    // The host only ships the source stream and walks the Move items:
    // it scans, so it compiles nothing.
    const Geometry g = testGeometry();
    const HTree ht(g.numCrossbars);
    const std::vector<Word> ops = tracedStream(g);
    const std::shared_ptr<const BatchTrace> t =
        hostTrace(ops.data(), ops.size(), g, ht);
    ASSERT_TRUE(t);
    EXPECT_TRUE(t->programs.empty());
    EXPECT_TRUE(t->items.empty());
    EXPECT_TRUE(t->hull.meets(0, g.numCrossbars));
    EXPECT_EQ(t->sourceOps, ops);
}

TEST(TraceWire, OldVersionIsRejected)
{
    // Version 1 images carried compiled programs, version 2 ones no
    // entry flag, version 3 ones a fusion flag and version 4 ones no
    // crossbar hull; a worker must refuse each rather than misread
    // it.
    const Geometry g = testGeometry();
    const HTree ht(g.numCrossbars);
    const std::vector<Word> ops = tracedStream(g);
    const std::shared_ptr<const BatchTrace> t =
        hostTrace(ops.data(), ops.size(), g, ht);
    ASSERT_TRUE(t);
    for (const uint8_t version : {1, 2, 3, 4}) {
        std::vector<uint8_t> img = encodeTraceWire(*t);
        ASSERT_NO_THROW(installWhole(img.data(), img.size(), g, ht));
        // Magic (u32), then the little-endian u32 version.
        img[4] = version;
        img[5] = img[6] = img[7] = 0;
        EXPECT_THROW(installWhole(img.data(), img.size(), g, ht),
                     Error)
            << "version " << int(version);
    }
}

TEST(TraceWire, ImagesAreVersion5)
{
    // Magic (u32), then the little-endian u32 version, for both image
    // shapes.
    const Geometry g = testGeometry();
    const HTree ht(g.numCrossbars);
    for (const std::vector<uint8_t> &img : wireImages(g, ht)) {
        ASSERT_GT(img.size(), kEntryFlagAt);
        EXPECT_EQ(img[4], 5u);
        EXPECT_EQ(img[5] | img[6] | img[7], 0u);
        EXPECT_LE(img[kEntryFlagAt], 1u);
    }
}

TEST(TraceWire, Version4ImageFailsLoudly)
{
    // A genuine version-4 image: the version-5 layout with version 4
    // and no crossbar hull before the op count. The decoder must name
    // the version, not misread the op count as the hull.
    const Geometry g = testGeometry();
    const HTree ht(g.numCrossbars);
    const size_t nOps[] = {tracedStream(g).size(), entryStream(g).size()};
    size_t shape = 0;
    for (std::vector<uint8_t> img : wireImages(g, ht)) {
        img[4] = 4;
        const size_t at = hullAt(img, nOps[shape++]);
        img.erase(img.begin() + at, img.begin() + at + 8);
        try {
            installWhole(img.data(), img.size(), g, ht);
            ADD_FAILURE() << "a version-4 image decoded";
        } catch (const Error &e) {
            EXPECT_NE(std::string(e.what()).find("unsupported version 4"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(TraceWire, Version3ImageFailsLoudly)
{
    // A genuine version-3 image: the version-4 layout with version 3
    // and the fusion flag byte that came before the entry flag. The
    // decoder must name the version, not misread the flag as the
    // entry flag.
    const Geometry g = testGeometry();
    const HTree ht(g.numCrossbars);
    const size_t nOps[] = {tracedStream(g).size(), entryStream(g).size()};
    size_t shape = 0;
    for (std::vector<uint8_t> img : wireImages(g, ht)) {
        img[4] = 3;
        const size_t at = hullAt(img, nOps[shape++]);
        img.erase(img.begin() + at, img.begin() + at + 8);
        img.insert(img.begin() + kEntryFlagAt, 1);
        try {
            installWhole(img.data(), img.size(), g, ht);
            ADD_FAILURE() << "a version-3 image decoded";
        } catch (const Error &e) {
            EXPECT_NE(std::string(e.what()).find("unsupported version 3"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(TraceWire, MalformedEntryFlagIsRejected)
{
    const Geometry g = testGeometry();
    const HTree ht(g.numCrossbars);
    for (std::vector<uint8_t> img : wireImages(g, ht)) {
        ASSERT_LE(img[kEntryFlagAt], 1u);
        img[kEntryFlagAt] = 2;
        try {
            installWhole(img.data(), img.size(), g, ht);
            ADD_FAILURE() << "entry flag 2 survived";
        } catch (const Error &e) {
            EXPECT_NE(std::string(e.what()).find("entry flag"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(TraceWire, EntryMaskOutsideTheGeometryIsRejected)
{
    // An image whose entry crossbar or row mask the geometry cannot
    // hold — re-signed, so only the range check can catch it.
    const Geometry g = testGeometry();
    const HTree ht(g.numCrossbars);
    const std::vector<Word> ops = entryStream(g);
    const EntryMasks good = wireEntry(g);
    const std::vector<uint8_t> img = encodeTraceWire(
        *hostTrace(ops.data(), ops.size(), g, ht, &good));
    EntryMasks wideXb = good;
    wideXb.xb.stop = g.numCrossbars + 1;
    EntryMasks wideRow = good;
    wideRow.row.stop = g.rows;
    EntryMasks zeroStep = good;
    zeroStep.xb.step = 0;
    for (const EntryMasks &bad : {wideXb, wideRow, zeroStep}) {
        ByteWriter w;
        w.u64(traceSignature(ops.data(), ops.size(), &bad));
        writeRange(w, bad.xb);
        writeRange(w, bad.row);
        const std::vector<uint8_t> patch = w.take();
        std::vector<uint8_t> forged = img;
        std::copy(patch.begin(), patch.begin() + 8, forged.begin() + 8);
        std::copy(patch.begin() + 8, patch.end(),
                  forged.begin() + kEntryFlagAt + 1);
        try {
            installWhole(forged.data(), forged.size(), g, ht);
            ADD_FAILURE() << "out-of-geometry entry mask survived";
        } catch (const Error &e) {
            EXPECT_NE(std::string(e.what()).find("entry mask outside"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(TraceWire, WorkerCompiledTraceReplaysLikePrepareTrace)
{
    // A worker compiles the trace it rebuilt from the image; the
    // programs must match what an in-process prepareTrace compiles,
    // and both must replay to the same state and Stats.
    Geometry g = testGeometry();
    g.numCrossbars = 16;
    const HTree ht(g.numCrossbars);
    Rng rng(2024);
    std::vector<Word> ops = tracedStream(g);
    for (int i = 0; i < 40; ++i) {
        const uint32_t a = rng.word() % 8, b = 8 + rng.word() % 8;
        const uint32_t r0 = rng.word() % 4, step = 1 + rng.word() % 3;
        ops.push_back(
            MicroOp::rowMask(
                Range(r0, r0 + (g.rows - 1 - r0) / step * step, step))
                .encode());
        ops.push_back(MicroOp::logicH(Gate::Init1, 0, 0,
                                      g.column(b, 0), g.partitions - 1,
                                      1)
                          .encode());
        ops.push_back(MicroOp::logicH(Gate::Nor, g.column(a, 0),
                                      g.column((a + 1) % 8, 0),
                                      g.column(b, 0), g.partitions - 1,
                                      1)
                          .encode());
        ops.push_back(MicroOp::write(a, rng.word()).encode());
        ops.push_back(MicroOp::logicV(Gate::Not, rng.word() % g.rows,
                                      rng.word() % g.rows, b)
                          .encode());
    }
    // The same stream self-contained, and from an entry state without
    // its leading masks.
    const EntryMasks entry{Range(1, 13, 4), Range(0, g.rows - 1, 3)};
    const std::vector<Word> eops(ops.begin() + 2, ops.end());
    const std::vector<Word> enter = {
        MicroOp::crossbarMask(entry.xb).encode(),
        MicroOp::rowMask(entry.row).encode(),
    };
    for (const EntryMasks *e :
         {static_cast<const EntryMasks *>(nullptr), &entry}) {
        SCOPED_TRACE(e ? "entry" : "self-contained");
        const std::vector<Word> &src = e ? eops : ops;
        const std::vector<uint8_t> img = encodeTraceWire(
            *hostTrace(src.data(), src.size(), g, ht, e));
        const std::shared_ptr<const BatchTrace> worker =
            installWhole(img.data(), img.size(), g, ht);
        Simulator inproc(g, EngineConfig::serial());
        const std::shared_ptr<const BatchTrace> local =
            inproc.prepareTrace(src.data(), src.size(), e);
        ASSERT_TRUE(worker);
        ASSERT_TRUE(local);
        EXPECT_EQ(worker->hasEntry, e != nullptr);
        ASSERT_EQ(worker->programs.size(), local->programs.size());
        for (size_t p = 0; p < local->programs.size(); ++p) {
            const ReplayProgram &w = worker->programs[p];
            const ReplayProgram &l = local->programs[p];
            EXPECT_EQ(w.instrs.size(), l.instrs.size());
            EXPECT_EQ(w.sections.size(), l.sections.size());
            EXPECT_EQ(w.pairs.size(), l.pairs.size());
            EXPECT_EQ(w.vgates.size(), l.vgates.size());
            // Compiled on one thread, equal masks are one interned copy.
            EXPECT_EQ(w.masks, l.masks);
        }

        Simulator a(g, EngineConfig::serial());
        Simulator b(g, EngineConfig::serial());
        Rng seed(7);
        for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
            for (uint32_t row = 0; row < g.rows; ++row)
                for (uint32_t slot = 0; slot < 16; ++slot) {
                    const uint32_t v = seed.word();
                    a.crossbar(xb).writeRow(slot, v, row);
                    b.crossbar(xb).writeRow(slot, v, row);
                }
        for (int rep = 0; rep < 2; ++rep) {
            if (e) {
                a.performBatch(enter.data(), enter.size());
                b.performBatch(enter.data(), enter.size());
            }
            a.submitTrace(worker);
            b.submitTrace(local);
        }
        for (uint32_t xb = 0; xb < g.numCrossbars; ++xb)
            ASSERT_TRUE(a.crossbar(xb).sameState(b.crossbar(xb)))
                << "crossbar " << xb;
        EXPECT_TRUE(a.stats() == b.stats());
    }
}

TEST(TraceWire, StreamWithoutLeadingMasksIsNotWireable)
{
    const Geometry g = testGeometry();
    const HTree ht(g.numCrossbars);
    const std::vector<Word> ops = {MicroOp::write(2, 7).encode()};
    EXPECT_EQ(hostTrace(ops.data(), ops.size(), g, ht),
              nullptr);
}

TEST(TraceWire, EveryBitFlipIsRejected)
{
    // Every field of an image is guarded (magic/version/geometry
    // checks, the entry flag and masks, the signature over the source
    // ops and entry state, and the architectural epilogue cross-check
    // against the rebuilt trace), so any single-bit flip must throw.
    const Geometry g = testGeometry();
    const HTree ht(g.numCrossbars);
    for (const std::vector<uint8_t> &img : wireImages(g, ht)) {
        SCOPED_TRACE(img[kEntryFlagAt] ? "entry image" : "plain image");
        for (size_t i = 0; i < img.size(); ++i) {
            for (int b = 0; b < 8; ++b) {
                std::vector<uint8_t> bad = img;
                bad[i] ^= static_cast<uint8_t>(1u << b);
                EXPECT_THROW(
                    installWhole(bad.data(), bad.size(), g, ht), Error)
                    << "flip survived at byte " << i << " bit " << b;
            }
        }
    }
}

TEST(TraceWire, EveryTruncationIsRejected)
{
    const Geometry g = testGeometry();
    const HTree ht(g.numCrossbars);
    for (std::vector<uint8_t> img : wireImages(g, ht)) {
        SCOPED_TRACE(img[kEntryFlagAt] ? "entry image" : "plain image");
        for (size_t n = 0; n < img.size(); ++n)
            EXPECT_THROW(installWhole(img.data(), n, g, ht), Error)
                << "truncation to " << n << " bytes survived";
        img.push_back(0);
        EXPECT_THROW(installWhole(img.data(), img.size(), g, ht),
                     Error)
            << "trailing byte survived";
    }
}

TEST(TraceWire, OnlyWorkersWhoseSliceTheTraceTouchesCompileIt)
{
    // Every worker decodes an installed trace once and cross-checks
    // its epilogue; only a worker whose slice the hull meets compiles
    // it. The others hold the scan: same Stats, masks and entry state,
    // no programs.
    Geometry g = testGeometry();
    g.numCrossbars = 16;
    const HTree ht(g.numCrossbars);
    for (const uint32_t devices : {2u, 4u}) {
        SCOPED_TRACE(std::to_string(devices) + " workers");
        const uint32_t per = g.numCrossbars / devices;
        const std::vector<Word> ops = sliceStream(g, per);
        const std::shared_ptr<const BatchTrace> host =
            hostTrace(ops.data(), ops.size(), g, ht);
        ASSERT_TRUE(host);
        EXPECT_TRUE(host->hull.meets(0, per));
        EXPECT_FALSE(host->hull.meets(per, g.numCrossbars));
        const std::vector<uint8_t> img = encodeTraceWire(*host);
        for (uint32_t d = 0; d < devices; ++d) {
            ExpansionTable table(g);
            const std::shared_ptr<const BatchTrace> t = decodeTraceWire(
                img.data(), img.size(), g, ht, table, d * per, per);
            ASSERT_TRUE(t);
            EXPECT_EQ(t->programs.empty(), d != 0) << "worker " << d;
            EXPECT_EQ(t->liveness.sections > 0, d == 0) << "worker " << d;
            EXPECT_GT(table.size(), 0u)
                << "worker " << d << " must validate every word";
            EXPECT_TRUE(t->stats == host->stats) << "worker " << d;
            EXPECT_TRUE(t->finalXb == host->finalXb) << "worker " << d;
            EXPECT_TRUE(t->finalRow == host->finalRow) << "worker " << d;
            EXPECT_EQ(t->wireSig, host->wireSig) << "worker " << d;
        }
    }

    // A Move's destinations belong to the hull: a trace whose work
    // stays on the first half but whose Move lands on the second is
    // compiled by both halves' workers.
    const uint32_t half = g.numCrossbars / 2;
    const std::vector<Word> ops = {
        MicroOp::crossbarMask(Range(0, half - 1, 1)).encode(),
        MicroOp::rowMask(Range::all(g.rows)).encode(),
        MicroOp::write(2, 7).encode(),
        MicroOp::move(half, 0, 1, 2, 3).encode(),
    };
    const std::vector<uint8_t> img =
        encodeTraceWire(*hostTrace(ops.data(), ops.size(), g, ht));
    for (uint32_t d = 0; d < 2; ++d) {
        ExpansionTable table(g);
        EXPECT_FALSE(decodeTraceWire(img.data(), img.size(), g, ht,
                                     table, d * half, half)
                         ->programs.empty())
            << "half " << d;
    }
}

TEST(TraceWire, ForgedEpilogueFailsOnEveryWorker)
{
    // Stats, final masks and the hull are not part of the signature,
    // so only the decode's cross-check can catch a forged epilogue —
    // on a worker that only scans the trace as on the one that
    // compiles it. A forged hull also flips which workers compile:
    // the whole array makes every worker compile, an empty hull none.
    Geometry g = testGeometry();
    g.numCrossbars = 16;
    const HTree ht(g.numCrossbars);
    const uint32_t per = g.numCrossbars / 4;
    const std::vector<Word> ops = sliceStream(g, per);
    const std::shared_ptr<const BatchTrace> host =
        hostTrace(ops.data(), ops.size(), g, ht);
    ASSERT_TRUE(host);
    BatchTrace forgedStats = *host;
    forgedStats.stats.opCount[size_t(OpClass::Write)] += 1;
    BatchTrace forgedXb = *host;
    forgedXb.finalXb = Range::all(g.numCrossbars);
    BatchTrace forgedRow = *host;
    forgedRow.finalRow = Range(0, g.rows - 2, 2);
    BatchTrace forgedWide = *host;
    forgedWide.hull = CrossbarHull{0, g.numCrossbars};
    BatchTrace forgedEmpty = *host;
    forgedEmpty.hull = CrossbarHull{};
    const std::pair<const BatchTrace *, const char *> forgeries[] = {
        {&forgedStats, "architectural stats"},
        {&forgedXb, "final mask state"},
        {&forgedRow, "final mask state"},
        {&forgedWide, "crossbar hull"},
        {&forgedEmpty, "crossbar hull"},
    };
    for (const auto &[forged, what] : forgeries) {
        const std::vector<uint8_t> img = encodeTraceWire(*forged);
        for (uint32_t d = 0; d < 4; ++d) {
            ExpansionTable table(g);
            try {
                decodeTraceWire(img.data(), img.size(), g, ht, table,
                                d * per, per);
                ADD_FAILURE() << "forged " << what << " installed on "
                              << "worker " << d;
            } catch (const Error &e) {
                EXPECT_NE(std::string(e.what()).find(what),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(TraceWire, WrongGeometryIsRejected)
{
    const Geometry g = testGeometry();
    const HTree ht(g.numCrossbars);
    const std::vector<Word> ops = tracedStream(g);
    const std::shared_ptr<const BatchTrace> t =
        hostTrace(ops.data(), ops.size(), g, ht);
    ASSERT_TRUE(t);
    const std::vector<uint8_t> img = encodeTraceWire(*t);
    Geometry g2 = g;
    g2.numCrossbars *= 4;
    const HTree ht2(g2.numCrossbars);
    EXPECT_THROW(installWhole(img.data(), img.size(), g2, ht2),
                 Error);
}

// --- live fleet -----------------------------------------------------------

#if defined(__SANITIZE_THREAD__)
#define PYPIM_SKIP_UNDER_TSAN() \
    GTEST_SKIP() << "fork-based transport tests do not run under TSan"
#else
#define PYPIM_SKIP_UNDER_TSAN() (void)0
#endif

TEST(SocketFleet, TraceCrossesTheWireOncePerWorker)
{
    PYPIM_SKIP_UNDER_TSAN();
    Geometry g = testGeometry();
    g.numCrossbars = 16;
    const EngineConfig cfg = EngineConfig::serial()
                                 .withDevices(2)
                                 .withTransport(TransportKind::Socket);
    SimulatorGroup grp(g, cfg);
    ASSERT_TRUE(grp.remote());
    const std::vector<Word> ops = tracedStream(g);
    const std::shared_ptr<const BatchTrace> trace =
        grp.prepareTrace(ops.data(), ops.size());
    ASSERT_TRUE(trace);
    for (int i = 0; i < 3; ++i)
        grp.submitTrace(trace);
    grp.flush();
    const WireTelemetry t = grp.wireTelemetry();
    EXPECT_EQ(t.traceInstalls, 2u)
        << "each signature must be transmitted at most once per worker";
    EXPECT_EQ(t.traceHits, 4u)
        << "replays after the first are install-free per worker";
    EXPECT_GT(t.bytesTx, 0u);
    EXPECT_GT(t.bytesRx, 0u);
    EXPECT_GT(t.roundTrips, 0u);

    // Same trace replayed by the in-process group: the architectural
    // stats and the canonical state image must be bit-identical (the
    // wire counters live OUTSIDE Stats precisely to keep this true).
    SimulatorGroup ref(g, EngineConfig::serial().withDevices(2));
    const std::shared_ptr<const BatchTrace> refTrace =
        ref.prepareTrace(ops.data(), ops.size());
    ASSERT_TRUE(refTrace);
    for (int i = 0; i < 3; ++i)
        ref.submitTrace(refTrace);
    ref.flush();
    EXPECT_TRUE(grp.stats() == ref.stats());
    EXPECT_EQ(encodeCheckpoint(buildGroupImage(grp)),
              encodeCheckpoint(buildGroupImage(ref)));
}

TEST(SocketFleet, TraceInsideOneSliceMatchesInProcessOnEveryWorker)
{
    // A trace confined to worker 0's slice is compiled there only; the
    // other workers replay its scan. Every worker's Stats and masks
    // must still equal the in-process group's, and the merged image
    // must stay byte-identical.
    PYPIM_SKIP_UNDER_TSAN();
    Geometry g = testGeometry();
    g.numCrossbars = 16;
    for (const uint32_t devices : {2u, 4u}) {
        SCOPED_TRACE(std::to_string(devices) + " workers");
        const uint32_t per = g.numCrossbars / devices;
        const std::vector<Word> ops = sliceStream(g, per);
        const EngineConfig cfg = EngineConfig::serial().withDevices(devices);
        SimulatorGroup ref(g, cfg);
        const std::shared_ptr<const BatchTrace> refTrace =
            ref.prepareTrace(ops.data(), ops.size());
        ASSERT_TRUE(refTrace);
        SocketTransport fleet(g, EngineConfig::serial(), devices, per);
        const HTree ht(g.numCrossbars);
        const std::shared_ptr<const BatchTrace> trace =
            hostTrace(ops.data(), ops.size(), g, ht);
        ASSERT_TRUE(trace);
        for (int i = 0; i < 3; ++i) {
            ref.submitTrace(refTrace);
            fleet.submitTraceAll(*trace);
        }
        ref.flush();
        fleet.flushAll();
        EXPECT_EQ(fleet.telemetry().traceInstalls, devices);
        for (uint32_t d = 0; d < devices; ++d) {
            Range xb, row;
            const Simulator &sub = ref.sub(d);
            EXPECT_TRUE(fleet.fetchStats(d, &xb, &row) == sub.stats())
                << "worker " << d;
            EXPECT_TRUE(xb == sub.crossbarMask()) << "worker " << d;
            EXPECT_TRUE(row == sub.rowMask()) << "worker " << d;
        }
        EXPECT_EQ(encodeCheckpoint(fleet.fetchImage()),
                  encodeCheckpoint(buildGroupImage(ref)));
    }
}

TEST(SocketFleet, ForgedEpilogueFailsLoudlyOnAWorkerOutsideTheSlice)
{
    // A forged epilogue for a trace outside worker 1's slice: worker
    // 1 never compiles it, yet its install must fail, sticky, and
    // surface at the next sync point rather than be adopted.
    PYPIM_SKIP_UNDER_TSAN();
    Geometry g = testGeometry();
    g.numCrossbars = 16;
    const uint32_t per = g.numCrossbars / 2;
    const HTree ht(g.numCrossbars);
    const std::vector<Word> ops = sliceStream(g, per);
    BatchTrace forged = *hostTrace(ops.data(), ops.size(), g, ht);
    forged.stats.opCount[size_t(OpClass::LogicH)] += 1;
    SocketTransport fleet(g, EngineConfig::serial(), 2, per);
    fleet.submitTraceAll(forged);
    for (uint32_t d = 0; d < 2; ++d) {
        try {
            fleet.fetchStats(d);
            ADD_FAILURE() << "worker " << d << " adopted a forged trace";
        } catch (const Error &e) {
            EXPECT_NE(std::string(e.what()).find("architectural stats"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(SocketFleet, FetchedImageIsByteIdenticalToInProcess)
{
    PYPIM_SKIP_UNDER_TSAN();
    Geometry g = testGeometry();
    g.numCrossbars = 16;
    const auto run = [&](Device &dev) {
        Rng rng(2024);
        std::vector<int32_t> va(g.totalRows()), vb(g.totalRows());
        for (size_t i = 0; i < va.size(); ++i) {
            va[i] = static_cast<int32_t>(rng.word());
            vb[i] = static_cast<int32_t>(rng.word());
        }
        Tensor a = Tensor::fromVector(va, &dev);
        Tensor b = Tensor::fromVector(vb, &dev);
        Tensor c = (a ^ b) + a;
        dev.flush();
        return encodeCheckpoint(buildGroupImage(dev.group()));
    };
    for (const uint32_t devices : {2u, 4u}) {
        const EngineConfig inproc = EngineConfig::serial().withDevices(devices);
        Device local(g, Driver::Mode::Parallel, inproc);
        Device remote(g, Driver::Mode::Parallel,
                      inproc.withTransport(TransportKind::Socket));
        ASSERT_TRUE(remote.group().remote());
        const std::vector<uint8_t> want = run(local);
        EXPECT_EQ(run(remote), want) << devices << " devices";
        // Every worker's slice holds state, so none may go missing.
        const CheckpointImage img = decodeCheckpoint(want);
        const uint32_t per = g.numCrossbars / devices;
        for (uint32_t d = 0; d < devices; ++d) {
            bool seen = false;
            for (const CrossbarImage &ci : img.crossbars)
                seen = seen || ci.xb / per == d;
            EXPECT_TRUE(seen) << "slice " << d << " of " << devices;
        }
        // A restore broadcast and a fetch round-trip the image.
        restoreGroupImage(remote.group(), img);
        EXPECT_EQ(encodeCheckpoint(buildGroupImage(remote.group())), want)
            << devices << " devices";
    }
}

TEST(SocketFleet, KilledWorkerSurfacesAsDeviceFaultAndRestores)
{
    PYPIM_SKIP_UNDER_TSAN();
    Geometry g = testGeometry();
    g.numCrossbars = 16;
    const EngineConfig cfg = EngineConfig::serial()
                                 .withDevices(2)
                                 .withTransport(TransportKind::Socket);
    SimulatorGroup grp(g, cfg);
    const std::vector<Word> ops = tracedStream(g);
    grp.submitBatch(ops.data(), ops.size());
    grp.flush();
    const CheckpointImage img = buildGroupImage(grp);
    const std::vector<uint8_t> before = encodeCheckpoint(img);

    const std::vector<pid_t> workers = liveChildren();
    if (workers.empty())
        GTEST_SKIP() << "/proc/self/task/*/children unavailable";
    for (const pid_t p : workers)
        ::kill(p, SIGKILL);
    EXPECT_THROW(
        {
            // The broken pipe may surface on the send or the reply:
            // either way it must be the recoverable WorkerDied, a
            // DeviceFault — not a silent hang or a raw errno.
            grp.flush();
            (void)grp.stats();
        },
        DeviceFault);

    // Restore respawns the dead workers and replays the image; the
    // rebuilt fleet must serve the identical canonical state.
    restoreGroupImage(grp, img);
    EXPECT_EQ(encodeCheckpoint(buildGroupImage(grp)), before);
}

TEST(SocketFleet, InjectedFaultIsRecoveredAcrossTheWire)
{
    PYPIM_SKIP_UNDER_TSAN();
    Geometry g = testGeometry();
    g.numCrossbars = 16;
    const EngineConfig socket = EngineConfig::serial()
                                    .withDevices(2)
                                    .withTransport(TransportKind::Socket);
    // The worker hits fail=N, goes sticky, and replies a typed
    // InjectedFault at the next sync — which the host-side recovery
    // seam turns into restore + journal replay, exactly as in-process.
    Device faulty(g, Driver::Mode::Parallel,
                  socket.withFaults("seed=3:fail=4").withVerifyState());
    Device clean(g, Driver::Mode::Parallel, socket);
    const auto run = [](Device &dev) {
        Rng rng(99);
        std::vector<int32_t> va(64), vb(64);
        for (size_t i = 0; i < va.size(); ++i) {
            va[i] = static_cast<int32_t>(rng.word());
            vb[i] = static_cast<int32_t>(rng.word() | 1);
        }
        Tensor a = Tensor::fromVector(va, &dev);
        Tensor b = Tensor::fromVector(vb, &dev);
        Tensor c = a * b + a;
        std::vector<int32_t> out = c.toIntVector();
        Tensor d = (c ^ b) - a;
        const std::vector<int32_t> tail = d.toIntVector();
        out.insert(out.end(), tail.begin(), tail.end());
        return out;
    };
    EXPECT_EQ(run(faulty), run(clean));
    const Stats fs = faulty.faultStats();
    EXPECT_GE(fs.faultsDetected, 1u);
    EXPECT_GE(fs.recoveries, 1u);
    EXPECT_GE(fs.faultsInjected, 1u);
    EXPECT_GT(fs.wireBytesTx, 0u)
        << "transport telemetry must fold into the fault report";
    EXPECT_GT(fs.wireRoundTrips, 0u);
}
