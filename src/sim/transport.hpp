/**
 * @file
 * Shard transport: sub-devices as worker PROCESSES behind the
 * SimulatorGroup seam (PYPIM_TRANSPORT=socket).
 *
 * The in-process SimulatorGroup calls its slice Simulators directly;
 * the socket transport replaces those calls with a framed wire
 * protocol over per-worker Unix-domain socketpairs. Each worker is a
 * forked process running runShardWorker (sim/shard_worker.hpp) around
 * one slice Simulator; the host-side SocketTransport ports the full
 * OperationSink surface onto messages:
 *
 *  - submit/flush: micro-op batches stream asynchronously; errors a
 *    worker hits go sticky and surface at the next synchronous
 *    message (the report-at-sync contract), never silently;
 *  - frozen traces: content-addressed by traceSignature — the trace
 *    image (sim/trace_wire.hpp) crosses the wire ONCE per worker and
 *    replays from the worker's signature cache thereafter (the
 *    telemetry's traceHits counts cache-served replays);
 *  - boundary-Move exchange: one exchange per Move group
 *    (sim/device_group.hpp). Stage reads and land writes batch into
 *    one message per involved worker per exchange; the stage requests
 *    all go out before any reply is awaited;
 *  - bulk I/O: PR 7's packed images are the payload format;
 *  - Stats, storage gauges, compaction: synchronous queries;
 *  - checkpoint/restore: each worker captures and restores its own
 *    slice with the checkpoint layer's slice functions, and both
 *    directions carry encoded checkpoint images (sim/serialize.hpp):
 *    the host decodes and merges the fetched slices and broadcasts a
 *    restore — also the recovery path: a worker that
 *    dies mid-batch is detected by its broken pipe (WorkerDied, a
 *    DeviceFault), respawned fresh by the next restore, and rebuilt
 *    through the RecoverySink's journaled retry-with-restore.
 *
 * FRAMING. Every message is one frame:
 *
 *   u32 magic "PWFR" | u32 protocol version | u32 type |
 *   u64 payloadLen | u32 crc | payload
 *
 * using sim/serialize.hpp's ByteWriter/ByteReader; the checksum is
 * crc32(header prefix) ^ crc32(payload), so a single bit flip
 * ANYWHERE in the frame is detected even when it lands on another
 * valid field value. A damaged frame (bad magic/version/type, CRC
 * mismatch, truncation, trailing bytes) throws pypim::Error before
 * any state is applied —
 * fuzzed by tests/test_transport.cpp. Synchronous requests are
 * answered with a frame of the SAME type on success or kMsgErr
 * carrying the worker's typed exception, which the host rethrows as
 * the matching pypim error class.
 */
#ifndef PYPIM_SIM_TRANSPORT_HPP
#define PYPIM_SIM_TRANSPORT_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "sim/fault.hpp"
#include "sim/serialize.hpp"
#include "uarch/microop.hpp"
#include "uarch/range.hpp"

namespace pypim
{

struct BatchTrace;
struct BulkIoSpec;
struct CellWrite;
struct BulkIoTelemetry;
struct StorageGauges;

/** A shard worker process exited or its socket broke mid-protocol.
 *  A DeviceFault: the journaled retry-with-restore policy recovers
 *  it against a respawned worker. */
class WorkerDied : public DeviceFault
{
  public:
    using DeviceFault::DeviceFault;
};

// --- wire protocol constants (shared with the worker loop) -------------

constexpr uint32_t kFrameMagic = 0x50574652;  // "PWFR"
/** Bumped whenever a message layout changes. */
constexpr uint32_t kWireVersion = 2;
/** Frame header bytes: magic, version, type, payloadLen, crc. */
constexpr size_t kFrameHeader = 4 + 4 + 4 + 8 + 4;

enum : uint32_t
{
    kMsgSubmit = 1,        //!< u64 n | n op words (async)
    kMsgFlush = 2,         //!< empty -> kMsgFlush
    kMsgRead = 3,          //!< u64 op -> kMsgRead(u32 value)
    kMsgTraceInstall = 4,  //!< trace image (async)
    kMsgTraceReplay = 5,   //!< u64 sig (async)
    kMsgBulkRead = 6,      //!< spec -> values + telemetry
    kMsgBulkWrite = 7,     //!< spec + values -> telemetry
    kMsgCellRead = 8,      //!< staged boundary reads -> values
    kMsgCellWrite = 9,     //!< boundary landing writes (async)
    kMsgStats = 10,        //!< empty -> stats + masks + faults
    kMsgClearStats = 11,   //!< empty (async)
    kMsgStateFetch = 12,   //!< empty -> encoded slice CheckpointImage
    kMsgStateRestore = 13, //!< encoded CheckpointImage -> kMsgStateRestore
    kMsgGauges = 14,       //!< empty -> StorageGauges
    kMsgCompact = 15,      //!< empty -> u64 elided
    kMsgSuppress = 16,     //!< u8 on (async)
    kMsgShutdown = 17,     //!< empty (async; worker exits)
    kMsgErr = 100          //!< u8 kind | u64 len | message bytes
};

/** Worker-side exception classes carried by kMsgErr frames. */
enum : uint8_t
{
    kErrUser = 0,        //!< pypim::Error
    kErrInternal = 1,    //!< pypim::InternalError
    kErrFault = 2,       //!< pypim::DeviceFault
    kErrCorruption = 3,  //!< pypim::StateCorruption
    kErrInjected = 4     //!< pypim::InjectedFault
};

/** One decoded frame. */
struct WireFrame
{
    uint32_t type = 0;
    std::vector<uint8_t> payload;
};

/** Encode one frame (header + CRC + payload) into a byte image —
 *  exactly what crosses the socket. */
std::vector<uint8_t> encodeFrame(uint32_t type, const uint8_t *payload,
                                 size_t n);

/**
 * Decode a complete frame image, throwing pypim::Error on bad magic,
 * version, unknown type, length/truncation mismatch, CRC damage or
 * trailing bytes — the corruption surface the wire fuzz suite
 * bit-flips. Socket reads go through the same validation.
 */
WireFrame decodeFrame(const uint8_t *bytes, size_t n);

/** Throw the typed pypim exception a kMsgErr payload carries. */
[[noreturn]] void rethrowWireError(const std::vector<uint8_t> &payload);
/** Encode an exception kind + message as a kMsgErr payload. */
std::vector<uint8_t> encodeWireError(uint8_t kind,
                                     const std::string &message);

/** Blocking framed I/O over a socket fd (both sides use these).
 *  Throws pypim::Error on EOF / broken pipe. */
void sendFrame(int fd, uint32_t type, const uint8_t *payload, size_t n);
WireFrame recvFrame(int fd);

/** Bulk-transfer spec codec shared by host and worker (the payload of
 *  kMsgBulkRead / kMsgBulkWrite, ahead of any value words). */
void writeBulkSpec(ByteWriter &w, const BulkIoSpec &spec);
BulkIoSpec readBulkSpec(ByteReader &r);

/** Host-side transport counters (SimulatorGroup::wireTelemetry). */
struct WireTelemetry
{
    uint64_t bytesTx = 0;      //!< frame bytes sent to workers
    uint64_t bytesRx = 0;      //!< frame bytes received from workers
    uint64_t roundTrips = 0;   //!< synchronous request/response pairs
    uint64_t traceInstalls = 0; //!< trace images that crossed the wire
    uint64_t traceHits = 0;    //!< replays served from a worker cache
    uint64_t exchanges = 0;    //!< boundary exchanges (one per Move group)
    uint64_t exchangeNs = 0;   //!< wall time spent in those phases
};

/**
 * Host side of the socket shard transport: owns N forked worker
 * processes (one per sub-device slice) and speaks the framed protocol
 * with each. Created by SimulatorGroup when
 * EngineConfig::transport == TransportKind::Socket.
 */
class SocketTransport
{
  public:
    /** Fork @p devices workers, each simulating the slice
     *  [d*perDevice, (d+1)*perDevice) of @p geo with config @p sub
     *  (the group's per-sub-device config, faults included). */
    SocketTransport(const Geometry &geo, const EngineConfig &sub,
                    uint32_t devices, uint32_t perDevice);
    ~SocketTransport();

    SocketTransport(const SocketTransport &) = delete;
    SocketTransport &operator=(const SocketTransport &) = delete;

    uint32_t devices() const
    {
        return static_cast<uint32_t>(workers_.size());
    }

    // --- OperationSink surface -------------------------------------
    void submitAll(const Word *ops, size_t n);
    void flushAll();
    /** Broadcast the Read; return the owning worker's response. */
    uint32_t readAll(Word op, uint32_t owner);
    /** Install-once-replay-forever: send the trace image to workers
     *  that lack the signature, then replay by signature. */
    void submitTraceAll(const BatchTrace &trace);
    void bulkReadAll(const BulkIoSpec &spec, uint32_t *out,
                     BulkIoTelemetry &tel);
    void bulkWriteAll(const BulkIoSpec &spec, const uint32_t *values,
                      BulkIoTelemetry &tel);

    // --- boundary-Move exchange ------------------------------------
    struct CellAddr
    {
        uint32_t xb = 0, slot = 0, row = 0;
    };
    /**
     * Stage: read @p addrs[d] from every worker d with a non-empty
     * list into @p values[d]. Every request is sent before any reply
     * is awaited, so the workers stage in parallel: one round trip
     * per involved worker, overlapped. Every sent request's reply is
     * collected before the first error is rethrown, so the protocol
     * stays in step with the live workers.
     */
    void readCells(const std::vector<std::vector<CellAddr>> &addrs,
                   std::vector<std::vector<uint32_t>> &values);
    /** Land: write @p cells into worker @p d (async). */
    void writeCells(uint32_t d, const std::vector<CellWrite> &cells);
    /** Charge one boundary exchange's wall time to the telemetry. */
    void chargeExchange(uint64_t ns);

    // --- observability / state -------------------------------------
    /** Fetch worker @p d's replicated Stats block (a sync point). */
    Stats fetchStats(uint32_t d, Range *maskXb = nullptr,
                     Range *maskRow = nullptr,
                     uint64_t *faultsInjected = nullptr);
    void clearStatsAll();
    uint64_t faultsInjectedAll();
    StorageGauges gaugesAll();
    uint64_t compactAll();
    void suppressFaultsAll(bool on);

    /** Assemble the logical device's CheckpointImage from every
     *  worker's owned slice (masks/stats from worker 0 — the
     *  replication invariant). */
    CheckpointImage fetchImage();
    /** Respawn any dead worker (fresh state, empty trace cache) and
     *  broadcast @p img for each to restore its owned slice — the
     *  fleet recovery path. */
    void restoreImage(const CheckpointImage &img);

    const WireTelemetry &telemetry() const { return telemetry_; }

  private:
    struct Worker
    {
        int fd = -1;
        int64_t pid = -1;
        bool alive = false;
        /** Trace signatures installed in this worker's cache. */
        std::unordered_set<uint64_t> installed;
    };

    void spawn(uint32_t d);
    /** Mark worker @p d dead and throw WorkerDied. */
    [[noreturn]] void died(uint32_t d, const std::string &what);
    void send(uint32_t d, uint32_t type, const uint8_t *payload,
              size_t n);
    WireFrame recv(uint32_t d);
    /** Synchronous request: send, await the echo-typed reply, rethrow
     *  kMsgErr as the matching exception class. */
    WireFrame roundTrip(uint32_t d, uint32_t type,
                        const uint8_t *payload, size_t n);
    /** The reply half of roundTrip. */
    WireFrame awaitReply(uint32_t d, uint32_t type);

    Geometry geo_;
    EngineConfig sub_;
    uint32_t perDevice_;
    bool suppressed_ = false;
    std::vector<Worker> workers_;
    WireTelemetry telemetry_;
};

} // namespace pypim

#endif // PYPIM_SIM_TRANSPORT_HPP
