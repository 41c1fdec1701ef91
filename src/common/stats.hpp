/**
 * @file
 * Execution statistics collected by the simulator and the driver.
 *
 * The simulator counts micro-operations by type and accumulates the
 * cycle cost of each (1 cycle per broadcast op; H-tree moves may take
 * several cycles, see sim/htree.hpp). The paper's Figure 13 derives
 * throughput from exactly these counters via Eq. (1).
 */
#ifndef PYPIM_COMMON_STATS_HPP
#define PYPIM_COMMON_STATS_HPP

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace pypim
{

/** Micro-operation families (paper Fig. 5). */
enum class OpClass : uint8_t
{
    CrossbarMask = 0,
    RowMask,
    Read,
    Write,
    LogicH,
    LogicV,
    Move,
    NumClasses
};

/** Human-readable name of an OpClass. */
const char *opClassName(OpClass c);

/** Counter block for one execution window. */
struct Stats
{
    static constexpr size_t numClasses =
        static_cast<size_t>(OpClass::NumClasses);

    /** Micro-operations performed, by class. */
    std::array<uint64_t, numClasses> opCount{};
    /** Cycles consumed, by class (moves may cost >1 cycle). */
    std::array<uint64_t, numClasses> cycleCount{};
    /** Logic micro-ops performing NOR/NOT gates. */
    uint64_t logicGates = 0;
    /** Logic micro-ops performing INIT0/INIT1 initialisation. */
    uint64_t logicInits = 0;
    /** Macro-instructions executed by the driver. */
    uint64_t instructions = 0;

    // --- host-side trace-cache / fusion observability ----------------
    // Recorded by the DRIVER (which owns the trace cache), never by
    // the simulator: the simulator's architectural counters stay
    // engine- and cache-independent, which the parity suite checks by
    // exact equality.

    /**
     * Instructions served by replaying a pre-built trace: one per
     * R-type stream-cache hit, and n per hit of a captured n-move
     * sequence (Driver::execute(std::span<const MoveInstr>)).
     */
    uint64_t traceCacheHits = 0;
    /** Traces built (decode + fusion ran once for these): one per
     *  R-type signature or captured move sequence. */
    uint64_t traceCacheMisses = 0;
    /** Writes eliminated by Write-after-Write fusion. */
    uint64_t fusionWaw = 0;
    /** INIT1 micro-ops merged into a chain peer. */
    uint64_t fusionInitChain = 0;
    /** INIT1 micro-ops window-fused into a following NOR/NOT. */
    uint64_t fusionWindow = 0;
    /** Writes merged into an adjacent-Write partition stripe. */
    uint64_t fusionWriteStripe = 0;

    // --- host-side bulk-I/O observability ----------------------------
    // Also driver-only: the bulk transfer path records the SAME
    // architectural counters as the element-wise loop (the
    // stats-identity invariant, tests/test_bulk_io.cpp), so these
    // count host-side mechanics, not architecture.

    /** Bulk read transfers taken by the gather path. */
    uint64_t bulkReads = 0;
    /** Bulk write transfers taken by the scatter path. */
    uint64_t bulkWrites = 0;
    /** 64-bit words moved through the 64x64 bit transpose. */
    uint64_t ioWordsTransposed = 0;
    /** Drain points (checksum verifies) taken by bulk transfers (one
     *  per transfer per sub-device). */
    uint64_t ioDrains = 0;

    // --- host-side fault-tolerance observability ---------------------
    // Recorded by the recovery layer (pim/device + sim/checkpoint),
    // not by the replay loops: like the cache/bulk counters above,
    // the simulator's architectural counters stay fault-independent,
    // which the fault suite checks by exact equality against a
    // fault-free run.

    /** Faults the deterministic injector applied (PYPIM_FAULTS). */
    uint64_t faultsInjected = 0;
    /** Faults caught by checksum verify or replay failure. */
    uint64_t faultsDetected = 0;
    /** Successful restore + journal-replay recoveries. */
    uint64_t recoveries = 0;
    /** Bytes written by Device::checkpoint. */
    uint64_t checkpointBytes = 0;

    // --- host-side shard-transport observability ---------------------
    // Recorded by the socket transport (sim/transport.hpp), never by
    // the workers: the architectural counters stay transport-
    // independent, which the N-process parity suite checks by exact
    // equality against the inproc monolith. All zero under inproc.

    /** Payload + frame bytes sent to shard workers. */
    uint64_t wireBytesTx = 0;
    /** Payload + frame bytes received from shard workers. */
    uint64_t wireBytesRx = 0;
    /** Synchronous request/response round-trips taken. */
    uint64_t wireRoundTrips = 0;
    /** Trace replays served from a worker's signature cache (the
     *  trace image did NOT cross the wire again). */
    uint64_t wireTraceHits = 0;

    /** Record one micro-op of class @p c costing @p cycles cycles. */
    void
    record(OpClass c, uint64_t cycles = 1)
    {
        opCount[static_cast<size_t>(c)] += 1;
        cycleCount[static_cast<size_t>(c)] += cycles;
    }

    /**
     * Record @p n one-cycle micro-ops of class @p c in one counter
     * bump — the replay loops' bulk form (a write stripe applies wn
     * architectural Writes; a compiled pass applies a precomputed op
     * count per crossbar). Equivalent to calling record(c) n times.
     */
    void
    recordN(OpClass c, uint64_t n)
    {
        opCount[static_cast<size_t>(c)] += n;
        cycleCount[static_cast<size_t>(c)] += n;
    }

    /** Total micro-operations across all classes. */
    uint64_t totalOps() const;
    /** Total cycles across all classes. */
    uint64_t totalCycles() const;

    /** Reset all counters to zero. */
    void clear();

    /** this - other, element-wise (for profiling windows). */
    Stats operator-(const Stats &other) const;
    Stats &operator+=(const Stats &other);

    /** Exact equality (engine-parity tests compare whole blocks). */
    bool operator==(const Stats &other) const = default;

    /**
     * Element-wise sum of per-shard counter blocks. The execution
     * engine's thread pool keeps one Stats per worker so the hot
     * path records without synchronisation; merge when reporting.
     */
    static Stats merged(std::span<const Stats> shards);

    /** Multi-line human-readable summary. */
    std::string summary() const;
};

} // namespace pypim

#endif // PYPIM_COMMON_STATS_HPP
