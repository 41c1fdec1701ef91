/**
 * @file
 * Multi-device fan-out: one logical PIM device sharded across N
 * independent Simulators at H-tree group boundaries.
 *
 * The ROADMAP's scale-out step: real PIM deployments aggregate
 * thousands of independent arrays, and the natural cut through the
 * paper's §III-F hierarchy is a 4-ary H-tree group boundary — the
 * crossbar space [0, numCrossbars) splits into N equal contiguous
 * slices, so each sub-device's crossbars share an id prefix and every
 * intra-slice H-tree route stays inside its sub-device.
 *
 * Execution model: BROADCAST EVERYTHING, APPLY THE OWNED SLICE.
 * Every submitted batch (and every cached shared BatchTrace handle)
 * is forwarded to all sub-devices unchanged, in GLOBAL crossbar
 * coordinates. Each sub-device advances the full mask state, records
 * the full architectural statistics (including the full-mask H-tree
 * cost of every Move — the top-level cost model is unchanged), and
 * applies state only to its slice (see Simulator's slice
 * constructor). Consequences:
 *
 *  - architectural Stats and mask state are REPLICATED — bit-identical
 *    on every sub-device and to a monolithic device, by construction;
 *  - a warm trace-cache hit submits ONE shared immutable BatchTrace
 *    to all sub-devices with zero re-decoding (the handles are
 *    geometry-bound, not slice-bound).
 *
 * The ONLY inter-device traffic is a Move whose (source, destination)
 * pair straddles a slice boundary. The group scans each raw batch
 * (tracking the in-stream crossbar mask) and cuts it at every such
 * Move. The cut opens a MOVE GROUP, which keeps absorbing the ops that
 * follow for as long as each one is a well-formed mask op or a valid
 * Move and the group stays HAZARD-FREE:
 *
 *  - no Move reads a (slot, row) that an earlier Move of the group
 *    writes;
 *  - no two Moves write the same (slot, row);
 *  - no Move reads the (slot, row) it writes (a self-overlapping
 *    shift chain is a group of one).
 *
 * Crossbars are ignored, which makes the rule conservative; the
 * written cells live in a reused table stamped per group, so the
 * check is O(1) per Move and allocation-free. A group ends before the
 * first op that breaks the rule — an invalid Move or ill-formed mask
 * included, so the valid prefix takes effect and the error is raised
 * exactly where the op-by-op path raises it. Each group runs ONE
 * host-mediated exchange that preserves the ops' sequential,
 * read-all-then-write-all semantics:
 *
 *   1. stage: read every boundary-crossing source value of the group
 *      from its owning sub-device (all prior ops have landed, none
 *      of the group's has been submitted, and no Move reads a cell an
 *      earlier one writes, so this observes what each Move would
 *      read). Under the socket transport every source
 *      worker gets its request before any reply is awaited;
 *   2. broadcast the group's ops once to all sub-devices: each one
 *      validates them, records the identical full-mask H-tree cycle
 *      cost of every Move and applies its intra-slice transfers;
 *   3. land: write the staged values into the destination
 *      sub-devices, one write per destination (after the broadcast,
 *      so the local application — which may READ a boundary
 *      destination as the source of a chained transfer — is
 *      complete; no two Moves write the same cell, so landing after
 *      the whole group equals landing after each Move). The landing
 *      verifies the destination's state checksums before it writes
 *      and re-blesses after (Simulator::writeCells), so a fault
 *      injected since the last bless is detected, not adopted.
 *
 * A group of one is the classic per-Move exchange; there is no
 * separate path for it.
 *
 * Boundary traffic is counted in traffic() — the observability and
 * test hook for "intra-group traffic never leaves its sub-device".
 * prepareTrace refuses (returns null for) streams containing a
 * boundary-crossing Move, so cached traces are always pure
 * broadcast; the driver transparently falls back to raw-stream replay
 * for such signatures. R-type translations contain no Moves; the
 * streams that hit this are captured move sequences (a reduction's
 * fold, a sort's inter-warp exchange), which arrive as ONE raw batch
 * and so cut into as few Move groups as the hazard rule allows.
 * Captured sequences WITHOUT a crossing Move (a fold whose partners
 * share a slice) are entry-dependent traces: decoded from the mask
 * state the driver captured them under, scanned for crossings from
 * that state, broadcast like any trace, and guarded on every slice by
 * Simulator::submitTrace's entry check.
 *
 * Error streams: a malformed op throws at the submit containing it,
 * after the valid prefix was forwarded (the engine's op-major
 * semantics). Sub-devices not yet fed when the first one throws may
 * diverge from that point on — error recovery across shards is
 * explicitly out of scope.
 *
 * TRANSPORT. The fan-out above is a TRANSPORT decision, selected by
 * EngineConfig::transport (PYPIM_TRANSPORT):
 *
 *  - INPROC (default): the N Simulators live in this process and are
 *    called directly — everything described so far.
 *  - SOCKET: the N slices live in forked worker processes behind
 *    sim/transport.hpp's framed protocol. sims_ stays EMPTY; the
 *    group keeps a host-side shadow of the replicated crossbar mask
 *    (seeding the same Move scan, so traffic() counts identically), a
 *    trace-build mirror for prepareTrace (sim/trace_wire.hpp — each
 *    frozen trace crosses the wire once per worker as its source
 *    stream, with its entry masks when it has them, the worker
 *    rebuilds and compiles it, and it then replays by signature), and
 *    each Move group's exchange stages/lands cell values through one
 *    wire message per involved worker per step.
 *    Architectural Stats, masks and state parity with inproc is
 *    bit-exact (the multi-device parity suite asserts it); the one
 *    contract difference is error TIMING:
 *    a worker-side submit error surfaces at the next synchronous
 *    message (flush/read/stats — the report-at-sync rule), not at the
 *    submit call itself. Direct state access (sub(), crossbar())
 *    throws — use the checkpoint-image path instead. A dead worker
 *    process surfaces as WorkerDied (a DeviceFault) and is respawned
 *    and rebuilt by the recovery layer's restore.
 */
#ifndef PYPIM_SIM_DEVICE_GROUP_HPP
#define PYPIM_SIM_DEVICE_GROUP_HPP

#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "sim/simulator.hpp"
#include "sim/sink.hpp"
#include "sim/transport.hpp"

namespace pypim
{

/** N-Simulator shard of one logical device behind the sink seam. */
class SimulatorGroup : public OperationSink
{
  public:
    /**
     * Shard @p geo's crossbar space across ec.devices sub-devices
     * (power of two; clamped to the crossbar count, so small test
     * geometries degrade gracefully instead of failing). Every
     * sub-device runs the engine configuration of @p ec, with the
     * thread budget divided among them.
     */
    SimulatorGroup(const Geometry &geo, const EngineConfig &ec);

    /** Cross-device traffic counters (scanned submissions; all zero
     *  while devices() == 1, where no scanning happens). */
    struct Traffic
    {
        uint64_t moveOps = 0;           //!< Move ops observed
        uint64_t moveTransfers = 0;     //!< per-crossbar-pair transfers
        uint64_t boundaryMoves = 0;     //!< Moves needing an exchange
        uint64_t boundaryTransfers = 0; //!< pairs crossing a boundary
        uint64_t exchanges = 0;         //!< Move groups exchanged
    };

    uint32_t devices() const { return devices_; }
    /** Crossbars per slice (numCrossbars / devices). */
    uint32_t crossbarsPerDevice() const { return perDevice_; }
    /** Sub-device owning global crossbar @p xb. */
    uint32_t deviceOf(uint32_t xb) const { return xb / perDevice_; }

    /** True iff the sub-devices live in worker processes (socket
     *  transport): direct state access — sub(), crossbar() — is
     *  unavailable; use fetchRemoteImage()/restoreRemoteImage(). */
    bool remote() const { return transport_ != nullptr; }
    const Geometry &geometry() const { return geo_; }

    Simulator &
    sub(uint32_t d)
    {
        fatalIf(remote(), "sub: state lives in worker processes under "
                          "the socket transport");
        return *sims_.at(d);
    }
    const Simulator &
    sub(uint32_t d) const
    {
        fatalIf(remote(), "sub: state lives in worker processes under "
                          "the socket transport");
        return *sims_.at(d);
    }

    /** Crossbar state by GLOBAL id, routed to the owning
     *  sub-device. */
    Crossbar &
    crossbar(uint32_t xb)
    {
        fatalIf(remote(), "crossbar: state lives in worker processes "
                          "under the socket transport");
        return sims_.at(deviceOf(xb))->crossbar(xb);
    }
    const Crossbar &
    crossbar(uint32_t xb) const
    {
        fatalIf(remote(), "crossbar: state lives in worker processes "
                          "under the socket transport");
        return sims_.at(deviceOf(xb))->crossbar(xb);
    }

    /**
     * Architectural statistics of the logical device: the counters
     * are replicated across sub-devices (every one sees the whole
     * stream), so this is sub-device 0's view — identical to a
     * monolithic device fed the same program. Read-only: mutating one
     * replica would break the invariant; reset with clearStats().
     */
    const Stats &
    stats()
    {
        if (remote()) {
            statsCache_ = transport_->fetchStats(0);
            return statsCache_;
        }
        return sims_[0]->stats();
    }
    const Stats &
    stats() const
    {
        if (remote()) {
            statsCache_ = transport_->fetchStats(0);
            return statsCache_;
        }
        return sims_[0]->stats();
    }

    /**
     * Clear the architectural counters on EVERY sub-device — the only
     * way to reset a sharded device without breaking the replicated-
     * stats invariant (clearing stats() alone would touch just
     * sub-device 0's view) — and the traffic() counters with them, so
     * a clear-then-measure phase deltas both consistently.
     */
    void
    clearStats()
    {
        if (remote())
            transport_->clearStatsAll();
        else
            for (auto &s : sims_)
                s->stats().clear();
        traffic_ = Traffic();
    }

    const Traffic &traffic() const { return traffic_; }

    /** Host-side wire counters: bytes, round trips, trace-cache wire
     *  hits, exchange latency (all zero under the inproc transport). */
    WireTelemetry
    wireTelemetry() const
    {
        return remote() ? transport_->telemetry() : WireTelemetry();
    }
    /** Copy the wire counters into @p s's shard-transport fields. */
    void
    foldWireStats(Stats &s) const
    {
        const WireTelemetry t = wireTelemetry();
        s.wireBytesTx = t.bytesTx;
        s.wireBytesRx = t.bytesRx;
        s.wireRoundTrips = t.roundTrips;
        s.wireTraceHits = t.traceHits;
    }

    /** Suppress/unsuppress every sub-device's fault injector — the
     *  recovery layer's re-replay window (works on both transports). */
    void suppressFaults(bool on);

    /** Assemble / restore the logical device's CheckpointImage over
     *  the wire — the socket transport's only state-access path (the
     *  checkpoint layer branches here instead of walking crossbar()).
     *  Restore also respawns any dead worker first. */
    CheckpointImage fetchRemoteImage() const;
    void restoreRemoteImage(const CheckpointImage &img);

    /** Faults injected so far across every sub-device's injector
     *  (EngineConfig::faults; 0 when injection is off). */
    uint64_t faultsInjected() const;

    /** Aggregate storage footprint across every sub-device.
     *  Observability only — see Simulator. */
    StorageGauges
    storageGauges() const
    {
        if (remote())
            return transport_->gaugesAll();
        StorageGauges g;
        for (const auto &s : sims_)
            g += s->storageGauges();
        return g;
    }

    /** Re-elide decayed all-zero blocks on every sub-device; returns
     *  the total number of blocks elided (0 for dense storage). */
    uint64_t
    compactStorage()
    {
        if (remote())
            return transport_->compactAll();
        uint64_t elided = 0;
        for (auto &s : sims_)
            elided += s->compactStorage();
        return elided;
    }

    // --- OperationSink ------------------------------------------------

    void performBatch(const Word *ops, size_t n) override;
    /** Fan out to every sub-device, splitting at boundary Moves. */
    void submitBatch(const Word *ops, size_t n) override;
    /** Sync point: every sub-device verifies its checksums, and a
     *  socket worker reports any error it is holding. */
    void flush() override;
    /** Broadcast for stats parity; response from the owning slice. */
    uint32_t performRead(Word op) override;
    /**
     * Build one shared trace (via sub-device 0, or the host's wire
     * mirror under the socket transport; builds touch no state) for
     * broadcast replay on every slice. Returns null for streams
     * containing a boundary-crossing Move, scanned from @p entry's
     * crossbar mask when given (the state the trace will replay
     * under) and from the live mask otherwise — those must go through
     * the scanning submitBatch path. An entry-dependent trace
     * (@p entry set) carries its entry state to every slice, over the
     * wire too, and each slice's submitTrace holds its live masks to
     * it.
     */
    std::shared_ptr<const BatchTrace>
    prepareTrace(const Word *ops, size_t n,
                 const EntryMasks *entry = nullptr) override;
    /** Submit the SAME shared handle to every sub-device. */
    void submitTrace(std::shared_ptr<const BatchTrace> trace) override;
    /**
     * Broadcast the bulk read to every sub-device: each applies the
     * identical pre-planned stats/mask delta (the replication
     * invariant) and fills only its owned warps of the shared @p out
     * buffer — the slices are disjoint and cover the geometry, so the
     * buffer is assembled exactly once with no copying. Telemetry
     * accumulates across sub-devices (N drains per transfer).
     */
    bool readBulk(const BulkIoSpec &spec, uint32_t *out,
                  BulkIoTelemetry &tel) override;
    /** Broadcast the bulk write (scatter mirror of readBulk). */
    bool writeBulk(const BulkIoSpec &spec, const uint32_t *values,
                   BulkIoTelemetry &tel) override;

  private:
    void forwardAll(const Word *ops, size_t n);
    /** True iff any (src, src+dist) pair leaves its slice (or the
     *  destination set leaves the geometry — forcing the exchange
     *  path, whose validation throws the standard error). Stops at
     *  the first crossing. */
    bool crossesBoundary(const Range &xb, int64_t dist) const;
    /** Raw-stream scan from crossbar mask @p xb: does any Move in
     *  @p ops cross a boundary? */
    bool streamCrossesBoundary(const Word *ops, size_t n,
                               const Range &xb) const;
    /**
     * Open a Move group at the boundary-crossing Move ops[@p first]
     * (under crossbar mask @p xb), absorb what the group rule admits,
     * run the group's stage/broadcast/land exchange and return the
     * index one past the group. Throws, touching nothing, if the
     * opening Move is invalid.
     */
    size_t exchangeGroup(const Word *ops, size_t n, size_t first,
                         Range xb);
    /** Hazard-table index of register @p slot, row @p row. */
    uint32_t
    cellOf(uint32_t slot, uint32_t row) const
    {
        return slot * geo_.rows + row;
    }
    /** Advance the shadow crossbar mask past a remotely-submitted
     *  stream (backward walk for its last valid CrossbarMask). */
    void updateShadowMask(const Word *ops, size_t n);

    /** The replicated live crossbar mask: under the socket transport
     *  the host-side shadow (same value, no wire query). */
    Range
    liveXb() const
    {
        return remote() ? shadowXb_ : sims_[0]->crossbarMask();
    }

    /**
     * THE raw-stream Move scan, shared by submitBatch (exchange
     * splitting + traffic counting, seeded from liveXb()) and
     * prepareTrace (boundary refusal, seeded from the stream's entry
     * state) so the two can never drift: tracks the in-stream
     * crossbar mask from the seed @p xb, skipping Moves under an
     * ill-formed mask (the sub-devices throw at the mask op when the
     * stream is forwarded). Invokes fn(i, op, xb, crossing) for every
     * analysable Move op; fn returns false to stop the scan early.
     */
    template <typename Fn>
    void
    scanMoves(const Word *ops, size_t n, Range xb, Fn &&fn) const
    {
        bool maskOk = xb.valid(geo_.numCrossbars);
        for (size_t i = 0; i < n; ++i) {
            const OpType t = enc::peekType(ops[i]);
            if (t == OpType::CrossbarMask) {
                xb = MicroOp::decode(ops[i]).range;
                maskOk = xb.valid(geo_.numCrossbars);
                continue;
            }
            if (t != OpType::Move || !maskOk)
                continue;
            const MicroOp op = MicroOp::decode(ops[i]);
            const int64_t dist =
                static_cast<int64_t>(op.dstStart) -
                static_cast<int64_t>(xb.start);
            if (!fn(i, op, xb, crossesBoundary(xb, dist)))
                return;
        }
    }

    Geometry geo_;
    uint32_t perDevice_;
    uint32_t devices_ = 1;
    /** In-process sub-devices; EMPTY under the socket transport. */
    std::vector<std::unique_ptr<Simulator>> sims_;
    /** Socket transport (PYPIM_TRANSPORT=socket). Mutable: wire round
     *  trips bump telemetry even on const observability queries. */
    mutable std::unique_ptr<SocketTransport> transport_;
    /** Host-side trace-build mirror for prepareTrace (socket mode). */
    std::unique_ptr<HTree> htree_;
    /** Host shadow of the replicated crossbar mask (socket mode):
     *  seeds the Move scan and the performRead owner. Best-effort on
     *  error streams, like the sub-device state itself. */
    Range shadowXb_;
    /** Scratch for stats() under the socket transport (fetched per
     *  query; the replicated block is worker 0's). */
    mutable Stats statsCache_;
    /** Per-sub-device fault injectors (empty when faults are off);
     *  also held by the sub-device that drives them. */
    std::vector<std::shared_ptr<FaultInjector>> injectors_;
    Traffic traffic_;

    // --- Move-group exchange scratch (reused: steady state allocates
    // nothing in process) ----------------------------------------------
    /** One boundary-crossing transfer of the open group. */
    struct Transfer
    {
        uint32_t src, dst, srcSlot, srcRow, dstSlot, dstRow, value;
    };
    std::vector<Transfer> transfers_;
    /** writtenIn_[cellOf(slot, row)] == group_ iff a Move of the open
     *  group writes that cell (sized slots x rows on first use). */
    std::vector<uint32_t> writtenIn_;
    uint32_t group_ = 0;
    /** Landing writes per destination sub-device. */
    std::vector<std::vector<CellWrite>> lands_;
    /** Socket staging: reads and values per source worker. */
    std::vector<std::vector<SocketTransport::CellAddr>> reads_;
    std::vector<std::vector<uint32_t>> values_;
};

} // namespace pypim

#endif // PYPIM_SIM_DEVICE_GROUP_HPP
