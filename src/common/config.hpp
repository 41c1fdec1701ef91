/**
 * @file
 * PIM architecture geometry and clocking parameters.
 *
 * Default values follow Table III of the PyPIM paper: 1024x1024
 * crossbars with 32 transistor-delimited partitions, a 32-bit word,
 * and a 300 MHz broadcast clock. The full-scale memory has 64 k
 * crossbars (8 GB); tests and benches use smaller counts — cycle
 * counts of broadcast operations are independent of the crossbar
 * count, so throughput is reported via the paper's Eq. (1) using a
 * configurable "deployment parallelism".
 */
#ifndef PYPIM_COMMON_CONFIG_HPP
#define PYPIM_COMMON_CONFIG_HPP

#include <cstdint>
#include <string>

namespace pypim
{

/**
 * Geometry and clocking of a digital memristive PIM memory.
 *
 * Invariants (checked by validate()):
 *  - rows, cols, partitions are powers of two; cols % partitions == 0
 *  - wordBits == partitions (the paper's N; generalising to
 *    partitions != N is future work, paper §III-A)
 *  - wordBits <= 32: every host path carries a row's value in a
 *    uint32_t
 *  - numCrossbars is a power of four (H-tree arity, paper §III-F)
 *  - userRegs <= cols / partitions (register slots available per row)
 */
struct Geometry
{
    /** Rows per crossbar (h): threads per warp. */
    uint32_t rows = 1024;
    /** Columns per crossbar (w): bitlines. */
    uint32_t cols = 1024;
    /** Number of dynamically-connected partitions per row (N). */
    uint32_t partitions = 32;
    /** Architectural word size in bits; must equal partitions. */
    uint32_t wordBits = 32;
    /** Number of crossbar arrays (warps); power of 4 for the H-tree. */
    uint32_t numCrossbars = 16;
    /** Broadcast clock frequency in Hz (Table III: 300 MHz). */
    uint64_t clockHz = 300'000'000;
    /**
     * ISA-visible registers per thread (R, chosen at compile time
     * under w >= R*N, paper §IV fn. 3). The remaining cols/partitions
     * - userRegs slots are host-driver scratch; the floating-point
     * routines need at least 17 scratch lanes at their peak.
     */
    uint32_t userRegs = 14;

    /** Register slots per row (user + scratch). */
    uint32_t slots() const { return cols / partitions; }
    /** Scratch slots per row available to the driver. */
    uint32_t scratchSlots() const { return slots() - userRegs; }
    /** Columns per partition. */
    uint32_t partitionWidth() const { return cols / partitions; }

    /**
     * Column address of bit @p bit of register slot @p slot.
     * Strided format (paper Fig. 6): bit b lives in partition b.
     */
    uint32_t
    column(uint32_t slot, uint32_t bit) const
    {
        return bit * partitionWidth() + slot;
    }

    /** Register slot a column belongs to (inverse of column()). */
    uint32_t slotOf(uint32_t col) const
    {
        return col % partitionWidth();
    }

    /** Total threads (rows across all crossbars). */
    uint64_t totalRows() const
    {
        return static_cast<uint64_t>(rows) * numCrossbars;
    }

    /** Throw pypim::Error if any invariant is violated. */
    void validate() const;

    bool operator==(const Geometry &) const = default;
};

/** Full-scale deployment of Table III: 64 k crossbars, 8 GB, 64 M rows. */
Geometry tableIIIGeometry();

/** Small geometry for fast unit tests (64 rows, 4 crossbars). */
Geometry testGeometry();

/**
 * Retired engine selector. The simulator has one execution engine
 * (sim/engine.hpp); the enum keeps its one value only because
 * perfbench/perfbench.cpp sets EngineConfig::kind and prints
 * engineKindName. Both go with the next change to the benchmark.
 */
enum class EngineKind : uint8_t
{
    Serial = 0
};

const char *engineKindName(EngineKind k);

/**
 * Crossbar storage policy (sim/crossbar.hpp).
 *
 * Dense keeps every column as a flat ceil(rows/64)-word slab for the
 * crossbar's whole life — host RSS scales with geometry. It is the
 * parity oracle, selected in code only. Paged is adaptive per
 * crossbar: a crossbar starts as fixed-size blocks behind a
 * per-column block table where an all-zero block costs zero bytes
 * (BitMagic-style zero elision with transparent densification on
 * first non-zero write), so RSS scales with LIVE data; once half of
 * its block grid is present it is promoted to the dense slab and
 * replays on the dense kernels. Both are bit-identical by
 * construction; they differ only in memory footprint and replay
 * speed.
 */
enum class XbarStorage : uint8_t
{
    Dense = 0,
    Paged
};

const char *xbarStorageName(XbarStorage s);

/**
 * Shard transport behind the SimulatorGroup seam (sim/transport.hpp).
 *
 * Inproc (the default) is the classic in-process fan-out: sub-device
 * Simulators are owned directly and called through virtual dispatch.
 * Socket forks one shard worker PROCESS per sub-device and drives it
 * over a Unix-domain socket with length-prefixed CRC32-framed
 * messages: micro-op batches, content-addressed BatchTrace wire
 * images (each frozen trace crosses the wire once per worker),
 * boundary-Move exchanges, bulk gather/scatter payloads, Stats
 * collection and checkpoint/restore all go over the protocol — the
 * porting surface for cross-host fleets. Results, state and
 * architectural Stats are bit-identical across transports
 * (tests/test_transport.cpp).
 */
enum class TransportKind : uint8_t
{
    Inproc = 0,
    Socket
};

const char *transportKindName(TransportKind t);

/** Simulator execution-engine selection knob. */
struct EngineConfig
{
    /** Retired (see EngineKind): there is one engine. */
    EngineKind kind = EngineKind::Serial;
    /**
     * Host threads that replay compiled programs crossbar-parallel
     * (sim/engine.hpp); 0 means the hardware concurrency. 1 (the
     * default) replays inline on the calling thread. Raw micro-op
     * batches apply op-major on the calling thread at every count.
     */
    uint32_t threads = 1;
    /**
     * Must stay false: the Simulator executes synchronously, and
     * constructing a Simulator or SimulatorGroup with true throws
     * pypim::Error (rejectRetiredFields). The field remains only
     * because perfbench/perfbench.cpp sets it; it goes with the next
     * change to the benchmark.
     */
    bool pipeline = false;
    /**
     * Driver-level trace cache (sim/batch_trace.hpp): on a stream-
     * cache hit the driver submits a shared pre-built, compiled
     * BatchTrace instead of re-translating the memoised micro-op
     * stream — decode and compile once per instruction signature,
     * replay forever. On by default; Device forwards the flag to its
     * Driver. Cached replay is bit-identical to fresh translation on
     * every engine (test_engine_parity, test_trace_cache); tests
     * select the uncached oracle in code (no environment knob).
     */
    bool traceCache = true;
    /**
     * Number of sub-devices one logical Device shards its crossbar
     * space across (sim/device_group.hpp): the crossbar array is cut
     * into equal contiguous slices at 4-ary H-tree group boundaries
     * and each slice is simulated by an independent Simulator with its
     * own engine. Must be a power of
     * two; clamped to the geometry's crossbar count at construction.
     * 1 (the default) is the classic monolithic device. The thread
     * budget (@ref threads) applies to the LOGICAL device and is
     * divided across the sub-device engines.
     */
    uint32_t devices = 1;
    /**
     * Must stay false: replay threads are never pinned to cores, and
     * constructing a Simulator or SimulatorGroup with true throws
     * pypim::Error (rejectRetiredFields). The field remains only
     * because perfbench/perfbench.cpp sets it; it goes with the next
     * change to the benchmark.
     */
    bool affinity = false;
    /**
     * Crossbar storage policy of every sub-device simulator. Paged
     * (the default) allocates column blocks on first non-zero write,
     * so host RSS tracks live data instead of geometry, and promotes
     * a crossbar that fills up to the dense slab; Dense is the
     * flat-slab parity oracle, set in code (no environment knob).
     * Selecting one over the other never changes results, state
     * checksums or architectural statistics (test_crossbar,
     * test_geometry_sweep storage parity).
     */
    XbarStorage storage = XbarStorage::Paged;
    /**
     * Bulk host I/O (sim/bulk_io.hpp): tensor readback/upload moves
     * whole row blocks through the crossbars' tile-transpose
     * gather/scatter kernels with ONE drain point per transfer,
     * instead of one ReadInstr/WriteInstr dispatch (and one drain
     * point) per element. On by default; Device forwards the flag to
     * its Driver. The element-wise path stays the parity oracle, set
     * in code (no environment knob): both paths produce bit-identical
     * values AND bit-identical architectural Stats (test_bulk_io).
     */
    bool bulkIo = true;
    /**
     * Must stay true: every replayed segment is compiled into a
     * ReplayProgram (sim/replay_program.hpp), and constructing a
     * Simulator or SimulatorGroup with false throws pypim::Error
     * (rejectRetiredFields). The field remains only because
     * perfbench/perfbench.cpp sets it; it goes with the next change
     * to the benchmark.
     */
    bool compiledReplay = true;
    /**
     * Deterministic fault injection (sim/fault.hpp): a colon-
     * separated "key=value" spec, e.g. "seed=7:flip=25:stuck=2:
     * fail=3:poison=5:dev=1", parsed and validated by
     * FaultSpec::parse at device construction (a typo throws, it
     * never silently runs un-faulted). Empty (the default) disables
     * injection. Faults alone are INJECTED but not DETECTED — pair
     * with @ref verifyState for the detect-and-recover path, or
     * leave it off to exercise the sticky-error contract.
     */
    std::string faults;
    /**
     * Per-crossbar state checksums verified at batch and drain
     * points (sim/simulator.hpp), with journaled retry-with-restore
     * recovery in Device on detection. Off by default: the verify
     * pass walks live blocks, so it costs O(resident data) per
     * batch.
     */
    bool verifyState = false;
    /**
     * Shard transport of the SimulatorGroup (PYPIM_TRANSPORT):
     * Inproc (the default) runs sub-devices in-process; Socket runs
     * each sub-device in a forked worker process behind the framed
     * wire protocol of sim/transport.hpp. The worker count is
     * @ref devices — the transport shards exactly the crossbar slices
     * the in-process group would.
     */
    TransportKind transport = TransportKind::Inproc;

    static EngineConfig serial() { return {}; }

    /** Copy of this config replaying on @p n threads (0 = hardware
     *  concurrency). */
    EngineConfig
    withThreads(uint32_t n) const
    {
        EngineConfig c = *this;
        c.threads = n;
        return c;
    }

    /** Copy of this config sharded across @p n sub-devices. */
    EngineConfig
    withDevices(uint32_t n) const
    {
        EngineConfig c = *this;
        c.devices = n;
        return c;
    }

    /** Copy of this config with the given crossbar storage. */
    EngineConfig
    withStorage(XbarStorage s) const
    {
        EngineConfig c = *this;
        c.storage = s;
        return c;
    }

    /** Copy of this config with the given fault-injection spec. */
    EngineConfig
    withFaults(const std::string &spec) const
    {
        EngineConfig c = *this;
        c.faults = spec;
        return c;
    }

    /** Copy of this config with checksum verification toggled. */
    EngineConfig
    withVerifyState(bool on = true) const
    {
        EngineConfig c = *this;
        c.verifyState = on;
        return c;
    }

    /** Copy of this config with the given shard transport. */
    EngineConfig
    withTransport(TransportKind t) const
    {
        EngineConfig c = *this;
        c.transport = t;
        return c;
    }

    /**
     * Configuration from the environment: PYPIM_THREADS=N,
     * PYPIM_DEVICES=N (power of two), PYPIM_FAULTS=<spec>,
     * PYPIM_VERIFY_STATE=on|off|1|0 and PYPIM_TRANSPORT=inproc|socket
     * (worker count via PYPIM_DEVICES). Unset values fall back to the
     * defaults (one thread, one device, inproc transport); the
     * remaining fields have no knob and keep their defaults (trace
     * cache and bulk I/O on, paged storage). Unrecognised or
     * malformed values throw pypim::Error — a typo must never
     * silently misconfigure the stack.
     */
    static EngineConfig fromEnv();

    /** Worker count after resolving 0 to the hardware concurrency. */
    uint32_t resolvedThreads() const;
};

/** Throw pypim::Error if @p c sets a retired field away from its one
 *  supported value (EngineConfig::pipeline, ::compiledReplay,
 *  ::affinity). */
void rejectRetiredFields(const EngineConfig &c);

} // namespace pypim

#endif // PYPIM_COMMON_CONFIG_HPP
