#include "sim/shard_worker.hpp"

#include <exception>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "common/error.hpp"
#include "sim/batch_trace.hpp"
#include "sim/bulk_io.hpp"
#include "sim/checkpoint.hpp"
#include "sim/crossbar.hpp"
#include "sim/fault.hpp"
#include "sim/serialize.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_wire.hpp"
#include "sim/transport.hpp"

namespace pypim
{

namespace
{

/** Map the in-flight exception to its wire kind (most derived first). */
uint8_t
classifyCurrent(std::string &msg)
{
    try {
        throw;
    } catch (const StateCorruption &e) {
        msg = e.what();
        return kErrCorruption;
    } catch (const InjectedFault &e) {
        msg = e.what();
        return kErrInjected;
    } catch (const DeviceFault &e) {
        msg = e.what();
        return kErrFault;
    } catch (const InternalError &e) {
        msg = e.what();
        return kErrInternal;
    } catch (const std::exception &e) {
        msg = e.what();
        return kErrUser;
    } catch (...) {
        msg = "unknown worker exception";
        return kErrInternal;
    }
}

/** Everything one worker process owns. */
struct WorkerContext
{
    WorkerContext(const Geometry &geo, const EngineConfig &sub,
                  uint32_t sliceLo, uint32_t sliceCount,
                  uint32_t deviceIndex)
        : geo(geo), sim(geo, sub, sliceLo, sliceCount)
    {
        // Mirror the in-process group's per-sub-device wiring: the
        // injector keys on (deviceIndex, slice) so the socket fleet
        // sees the same deterministic fault schedule.
        if (!sub.faults.empty()) {
            const FaultSpec spec = FaultSpec::parse(sub.faults);
            auto i = std::make_shared<FaultInjector>(
                spec, deviceIndex, sliceLo, sliceCount, geo);
            if (i->active()) {
                sim.setFaultInjector(i);
                injector = std::move(i);
            }
        }
        if (sub.verifyState)
            sim.setVerifyState(true);
    }

    Geometry geo;
    Simulator sim;
    std::shared_ptr<FaultInjector> injector;
    /** Content-addressed trace cache: each signature installed once. */
    std::unordered_map<uint64_t, std::shared_ptr<const BatchTrace>>
        traces;
};

// --- async handlers (no reply; errors go sticky) -----------------------

void
handleSubmit(WorkerContext &ctx, const WireFrame &f)
{
    ByteReader r(f.payload);
    const uint64_t n = r.u64();
    // Division, not n * 8: the product wraps for n >= 2^61.
    fatalIf(n != r.remaining() / 8 || r.remaining() % 8 != 0,
            "submit: op count " + std::to_string(n) +
                " does not match the payload");
    std::vector<Word> ops(static_cast<size_t>(n));
    for (Word &op : ops)
        op = r.u64();
    ctx.sim.submitBatch(ops.data(), ops.size());
}

void
handleTraceInstall(WorkerContext &ctx, const WireFrame &f)
{
    // Every worker scans and cross-checks the trace; only one whose
    // slice the trace touches builds and compiles it.
    auto trace = decodeTraceWire(f.payload.data(), f.payload.size(),
                                 ctx.geo, ctx.sim.htree(),
                                 ctx.sim.expansions(), ctx.sim.sliceLo(),
                                 ctx.sim.sliceCount());
    ctx.traces[trace->wireSig] = std::move(trace);
}

void
handleTraceReplay(WorkerContext &ctx, const WireFrame &f)
{
    ByteReader r(f.payload);
    const uint64_t sig = r.u64();
    r.expectEnd("trace replay");
    const auto it = ctx.traces.find(sig);
    panicIf(it == ctx.traces.end(),
            "trace replay: signature never installed in this worker");
    ctx.sim.submitTrace(it->second);
}

void
handleCellWrite(WorkerContext &ctx, const WireFrame &f)
{
    ByteReader r(f.payload);
    const uint32_t n = r.u32();
    fatalIf(n > r.remaining() / 16, "cell write: count exceeds payload");
    std::vector<CellWrite> cells(n);
    for (CellWrite &c : cells) {
        c.xb = r.u32();
        c.slot = r.u32();
        c.value = r.u32();
        c.row = r.u32();
    }
    r.expectEnd("cell write");
    // Verifies, lands, re-blesses: a fault injected since the last
    // bless is detected here, not adopted.
    ctx.sim.writeCells(cells);
}

// --- sync handlers (build the reply payload; errors reply kMsgErr) -----

std::vector<uint8_t>
handleFlush(WorkerContext &ctx)
{
    ctx.sim.flush();
    return {};
}

std::vector<uint8_t>
handleRead(WorkerContext &ctx, const WireFrame &f)
{
    ByteReader r(f.payload);
    const Word op = r.u64();
    r.expectEnd("read");
    ByteWriter w;
    w.u32(ctx.sim.performRead(op));
    return w.take();
}

std::vector<uint8_t>
handleBulkRead(WorkerContext &ctx, const WireFrame &f)
{
    ByteReader r(f.payload);
    const BulkIoSpec spec = readBulkSpec(r);
    r.expectEnd("bulk read");
    fatalIf(spec.count > ctx.geo.totalRows(),
            "bulk read: count " + std::to_string(spec.count) +
                " exceeds the device's rows");
    // Elements outside the owned slice stay zero; the host ORs the
    // per-worker buffers together.
    std::vector<uint32_t> values(static_cast<size_t>(spec.count), 0);
    BulkIoTelemetry tel;
    ctx.sim.readBulk(spec, values.data(), tel);
    ByteWriter w;
    w.u64(spec.count);
    for (uint32_t v : values)
        w.u32(v);
    w.u64(tel.wordsTransposed);
    w.u64(tel.drains);
    return w.take();
}

std::vector<uint8_t>
handleBulkWrite(WorkerContext &ctx, const WireFrame &f)
{
    ByteReader r(f.payload);
    const BulkIoSpec spec = readBulkSpec(r);
    fatalIf(spec.count > r.remaining() / 4,
            "bulk write: count " + std::to_string(spec.count) +
                " exceeds the payload");
    std::vector<uint32_t> values(static_cast<size_t>(spec.count));
    for (uint32_t &v : values)
        v = r.u32();
    r.expectEnd("bulk write");
    BulkIoTelemetry tel;
    ctx.sim.writeBulk(spec, values.data(), tel);
    ByteWriter w;
    w.u64(tel.wordsTransposed);
    w.u64(tel.drains);
    return w.take();
}

std::vector<uint8_t>
handleCellRead(WorkerContext &ctx, const WireFrame &f)
{
    ByteReader r(f.payload);
    const uint32_t n = r.u32();
    fatalIf(n > r.remaining() / 12, "cell read: count exceeds payload");
    struct Addr
    {
        uint32_t xb, slot, row;
    };
    std::vector<Addr> addrs(n);
    for (Addr &a : addrs) {
        a.xb = r.u32();
        a.slot = r.u32();
        a.row = r.u32();
    }
    r.expectEnd("cell read");
    // Const access: staging reads must not mark the checksum
    // baseline stale (the landing write verifies against it).
    const Simulator &sim = ctx.sim;
    ByteWriter w;
    w.u32(n);
    for (const Addr &a : addrs)
        w.u32(sim.crossbar(a.xb).read(a.slot, a.row));
    return w.take();
}

std::vector<uint8_t>
handleStats(WorkerContext &ctx)
{
    const Stats &s = ctx.sim.stats();
    ByteWriter w;
    writeStats(w, s);
    writeRange(w, ctx.sim.crossbarMask());
    writeRange(w, ctx.sim.rowMask());
    w.u64(ctx.injector ? ctx.injector->injected() : 0);
    return w.take();
}

std::vector<uint8_t>
handleStateFetch(WorkerContext &ctx)
{
    CheckpointImage img;
    captureSlice(ctx.sim, img);
    return encodeCheckpoint(img);
}

std::vector<uint8_t>
handleStateRestore(WorkerContext &ctx, const WireFrame &f)
{
    // The worker-side half of restoreGroupImage, clipped to the owned
    // slice.
    restoreSlice(ctx.sim, decodeCheckpoint(f.payload));
    return {};
}

std::vector<uint8_t>
handleGauges(WorkerContext &ctx)
{
    const StorageGauges g = ctx.sim.storageGauges();
    ByteWriter w;
    w.u64(g.blocksTotal);
    w.u64(g.blocksPresent);
    w.u64(g.blocksElided);
    w.u64(g.residentBytes);
    w.u64(g.slabCrossbars);
    return w.take();
}

std::vector<uint8_t>
handleCompact(WorkerContext &ctx)
{
    ByteWriter w;
    w.u64(ctx.sim.compactStorage());
    return w.take();
}

void
workerLoop(int fd, WorkerContext &ctx)
{
    bool sticky = false;
    uint8_t stickyKind = kErrUser;
    std::string stickyMsg;

    for (;;) {
        WireFrame f;
        try {
            f = recvFrame(fd);
        } catch (...) {
            // EOF or stream damage: nothing on this socket can be
            // trusted any more. Exit; the host sees a broken pipe.
            return;
        }

        switch (f.type) {
          // --- asynchronous: no reply, failures go sticky ------------
          case kMsgShutdown:
            return;
          case kMsgSuppress:
            // Applied even while sticky: recovery opens the
            // suppression window BEFORE it restores state.
            try {
                ByteReader r(f.payload);
                const bool on = r.u8() != 0;
                r.expectEnd("suppress");
                if (ctx.injector)
                    ctx.injector->setSuppressed(on);
            } catch (...) {
                if (!sticky) {
                    sticky = true;
                    stickyKind = classifyCurrent(stickyMsg);
                }
            }
            continue;
          case kMsgTraceInstall:
            // Applied even while sticky: pure cache data, and the host
            // tracks which signatures this worker holds.
            try {
                handleTraceInstall(ctx, f);
            } catch (...) {
                if (!sticky) {
                    sticky = true;
                    stickyKind = classifyCurrent(stickyMsg);
                }
            }
            continue;
          case kMsgSubmit:
          case kMsgTraceReplay:
          case kMsgCellWrite:
          case kMsgClearStats:
            if (sticky)
                continue;  // hold diverged state for the restore
            try {
                if (f.type == kMsgSubmit)
                    handleSubmit(ctx, f);
                else if (f.type == kMsgTraceReplay)
                    handleTraceReplay(ctx, f);
                else if (f.type == kMsgCellWrite)
                    handleCellWrite(ctx, f);
                else
                    ctx.sim.stats().clear();
            } catch (...) {
                sticky = true;
                stickyKind = classifyCurrent(stickyMsg);
            }
            continue;
          default:
            break;
        }

        // --- synchronous: reply in kind, or kMsgErr ------------------
        if (f.type == kMsgStateRestore) {
            // The recovery message: drop the sticky error and let the
            // restore rebuild the slice from the image.
            sticky = false;
        } else if (sticky) {
            try {
                const std::vector<uint8_t> err =
                    encodeWireError(stickyKind, stickyMsg);
                sendFrame(fd, kMsgErr, err.data(), err.size());
            } catch (...) {
                return;
            }
            continue;
        }

        std::vector<uint8_t> reply;
        bool ok = true;
        try {
            switch (f.type) {
              case kMsgFlush:
                reply = handleFlush(ctx);
                break;
              case kMsgRead:
                reply = handleRead(ctx, f);
                break;
              case kMsgBulkRead:
                reply = handleBulkRead(ctx, f);
                break;
              case kMsgBulkWrite:
                reply = handleBulkWrite(ctx, f);
                break;
              case kMsgCellRead:
                reply = handleCellRead(ctx, f);
                break;
              case kMsgStats:
                reply = handleStats(ctx);
                break;
              case kMsgStateFetch:
                reply = handleStateFetch(ctx);
                break;
              case kMsgStateRestore:
                reply = handleStateRestore(ctx, f);
                break;
              case kMsgGauges:
                reply = handleGauges(ctx);
                break;
              case kMsgCompact:
                reply = handleCompact(ctx);
                break;
              default:
                panic("shard worker: unhandled message type " +
                      std::to_string(f.type));
            }
        } catch (...) {
            ok = false;
            std::string msg;
            const uint8_t kind = classifyCurrent(msg);
            // Only the fault family poisons the worker (plus a failed
            // restore, which leaves half-rebuilt state): a plain user
            // Error leaves it serviceable, like the in-process sink.
            if (kind == kErrFault || kind == kErrCorruption ||
                kind == kErrInjected || f.type == kMsgStateRestore) {
                sticky = true;
                stickyKind = kind;
                stickyMsg = msg;
            }
            reply = encodeWireError(kind, msg);
        }
        try {
            sendFrame(fd, ok ? f.type : kMsgErr, reply.data(),
                      reply.size());
        } catch (...) {
            return;
        }
    }
}

} // namespace

void
runShardWorker(int fd, const Geometry &geo, const EngineConfig &sub,
               uint32_t sliceLo, uint32_t sliceCount,
               uint32_t deviceIndex) noexcept
{
    try {
        WorkerContext ctx(geo, sub, sliceLo, sliceCount, deviceIndex);
        workerLoop(fd, ctx);
    } catch (...) {
        // Construction failed: die silently; the host's next message
        // hits the broken pipe and surfaces WorkerDied.
    }
    ::close(fd);
}

} // namespace pypim
