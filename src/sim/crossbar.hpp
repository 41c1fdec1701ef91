/**
 * @file
 * Bit-level state of one memristive crossbar array.
 *
 * Storage is column-major: each bitline (column) is kept as
 * ceil(rows/64) 64-bit words, so one horizontal stateful-logic gate
 * over all rows costs O(rows/64) word operations — the CPU analogue of
 * the paper's condensed-format GPU optimisation (§VI "Memory"/"Logic").
 *
 * Two representations exist behind one interface:
 *
 *  - SLAB: one flat cols x wordsPerCol slab, the historical layout,
 *    kSlabAlign-aligned.
 *  - PAGED: each column is a run of kBlockWords-word BLOCKS behind a
 *    per-column block table into the crossbar's block pool. An all-zero
 *    block is the sentinel entry kAbsent and costs zero bytes; it
 *    densifies transparently on the first write that could set a bit
 *    in it, and an explicit compact() sweep re-elides blocks that
 *    have decayed back to all-zero. The table itself is allocated
 *    lazily on the first densification, so a never-written crossbar
 *    costs O(1) bytes — RSS scales with LIVE data, not with geometry
 *    (BitMagic-style zero elision).
 *
 * Every primitive (logic, writes, bulk transfer, compiled replay) is
 * written once, over a small block accessor with a slab form and a
 * table form (crossbar.cpp): the slab instantiation is the dense loop,
 * with every presence check folded away, and replays in the widest
 * ISA build the host supports. The table form reads the block table
 * and the pool inline too; only materialising an absent block leaves
 * the kernel (blockRW).
 *
 * XbarStorage picks the policy. Dense keeps the slab for life: it is
 * the parity oracle. Paged is ADAPTIVE per crossbar, the way
 * BitMagic picks a block format from observed fill: a crossbar starts
 * paged and keeps an exact count of its present blocks; once that
 * count reaches 1/kPromoteDivisor of its block grid, it is promoted
 * to the slab and replays on the dense kernels from then on. Sparse
 * crossbars stay paged, keeping zero elision. The rules:
 *
 *  - Promotion is checked only at replay entry, never inside a
 *    kernel that holds block pointers: at the entry of a compiled
 *    program (replayProgram), never between its instructions, and of
 *    each single replayed op (logicH, logicV and write), which is the
 *    only entry the engine's raw op-by-op path
 *    has. Direct state access (writeRow,
 *    setBit, bulk gather/scatter, loadBlock) never promotes.
 *    Promotion copies every present block into the slab and frees the
 *    table and the pool.
 *  - compact() is the only demotion: a promoted slab whose non-zero
 *    blocks fell below the threshold goes back to paged.
 *  - resetState() and loadBlock() keep the current representation.
 *  - storage() reports the CONFIGURED policy, never the current form,
 *    so checkpoint images (which record it) do not change when a
 *    crossbar promotes. isSlab() reports the current form.
 *
 * Zero-elision gives the table form a fast path for free: reading an
 * absent block yields zeros, so NOR/NOT with all-absent inputs
 * reduces to algebra on the output block (out &= ~mask needs no input
 * materialisation, and skips entirely when the output is absent too,
 * since stateful logic can only clear bits). Writes densify a block
 * only when the row mask actually selects a row inside it.
 *
 * State is captured and restored through the canonical walk alone:
 * forEachNonZeroBlock out, resetState() and loadBlock() back in (the
 * checkpoint layer, sim/checkpoint.hpp). The Simulator replays
 * synchronously, so a checkpoint walks the live crossbar between its
 * calls. A crossbar's blocks are only ever mutated by one thread at a
 * time (the engine's thread pool partitions work by crossbar), and
 * each crossbar owns its pool alone, so pool growth and promotion
 * during concurrent replay of DIFFERENT crossbars are race-free.
 *
 * Stateful-logic fidelity: NOT/NOR can only switch the output memristor
 * from 1 towards 0 (paper §II-A — the output is expected to be
 * initialised to logical one first). We model exactly that:
 * out_new = out_old AND NOT(OR of inputs). A driver that forgets the
 * INIT therefore computes device-accurate garbage, which the test
 * suite detects.
 */
#ifndef PYPIM_SIM_CROSSBAR_HPP
#define PYPIM_SIM_CROSSBAR_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/config.hpp"
#include "uarch/microop.hpp"
#include "uarch/partition.hpp"

namespace pypim
{

struct ReplayProgram;
struct Stats;
struct ReplayKernels;

/** Point-in-time storage footprint of a crossbar (or a sum of them).
 *  Pure observability — never part of the architectural Stats, whose
 *  exact equality the parity suites assert across storage modes. */
struct StorageGauges
{
    uint64_t blocksTotal = 0;    //!< cols * blocksPerCol
    uint64_t blocksPresent = 0;  //!< materialised blocks (slab: all)
    uint64_t blocksElided = 0;   //!< absent blocks costing zero bytes
    uint64_t residentBytes = 0;  //!< bytes actually allocated for state
    uint64_t slabCrossbars = 0;  //!< crossbars currently in slab form

    StorageGauges &
    operator+=(const StorageGauges &o)
    {
        blocksTotal += o.blocksTotal;
        blocksPresent += o.blocksPresent;
        blocksElided += o.blocksElided;
        residentBytes += o.residentBytes;
        slabCrossbars += o.slabCrossbars;
        return *this;
    }
};

/** One h x w crossbar array with stateful-logic semantics. */
class Crossbar
{
    // Block accessors and the read-only view (crossbar.cpp).
    struct SlabBlocks;
    struct TableBlocks;
    struct BlockImage;

  public:
    /** Words per paged block: 8 words = 512 rows of one column. */
    static constexpr uint32_t kBlockWords = 8;
    /** Block-table sentinel for an elided (all-zero) block. */
    static constexpr uint32_t kAbsent = UINT32_MAX;
    /**
     * A Paged crossbar is promoted to the slab once at least
     * 1/kPromoteDivisor of its block grid is present. At one half the
     * slab costs at most about 2x the pool blocks it replaces (less
     * once each block's table entry is counted), and in exchange every
     * replay runs the dense kernels with no block-table probe or pool
     * fetch. The share is fixed by block counts alone, not tuned to
     * any workload.
     */
    static constexpr uint32_t kPromoteDivisor = 2;
    /**
     * Byte alignment of the dense slab: one cache line, and one
     * AVX-512 register. At the Table III geometry a column is 16
     * words, so every column then
     * starts on a cache line and the executor's word loops never split
     * a vector load across two lines.
     */
    static constexpr size_t kSlabAlign = 64;
    /** Dense slab storage, kSlabAlign-aligned wherever the heap is. */
    using Slab =
        std::vector<uint64_t, AlignedAllocator<uint64_t, kSlabAlign>>;

    /**
     * @p storage defaults to Dense so direct constructions (unit
     * tests, host tooling) get the reference slab layout; the engine
     * stack passes EngineConfig::storage, whose default is the
     * adaptive Paged policy.
     */
    explicit Crossbar(const Geometry &geo,
                      XbarStorage storage = XbarStorage::Dense);

    // State is captured only through the canonical walk (file header),
    // never by an implicit deep copy. Moves are fine.
    Crossbar(const Crossbar &) = delete;
    Crossbar &operator=(const Crossbar &) = delete;
    Crossbar(Crossbar &&) = default;
    Crossbar &operator=(Crossbar &&) = default;

    /**
     * Execute an expanded horizontal logic op on all mask-selected
     * rows (@p rowMask is the realized row-mask bit vector).
     */
    void logicH(const HalfGates &hg, std::span<const uint64_t> rowMask);

    /**
     * Crossbar-major replay of one compiled segment
     * (sim/replay_program.hpp) on this crossbar (index @p self): every
     * instruction whose crossbar range selects it, in order, while
     * this crossbar's column-major state is hot in cache. Promotes a
     * filled paged crossbar first (file header), then dispatches once
     * into the executor's instantiation for {slab, table} x {all-full
     * masks, partial}. @p work, if non-null, accumulates the applied
     * architectural ops (one per op, however many of its sections the
     * compiler dropped): the thread pool's load-balance diagnostic.
     */
    void replayProgram(const ReplayProgram &prog, uint32_t self,
                       Stats *work);

    /**
     * One ISA build of the crossbar's host kernels: crossbar.cpp
     * compiles the one replayProgramT source once per build, each for
     * its own target, so the word loops vectorise at that ISA's width,
     * and pairs it with the host I/O tile transposes for that target.
     */
    struct ReplayBuild
    {
        const char *name;     //!< "x86-64-v4", "x86-64-v3" or "default"
        bool (*supported)();  //!< the host can run this build
        /** The executor on @p xb, whose representation is fixed. */
        void (*run)(Crossbar &xb, const ReplayProgram &prog,
                    uint32_t self, Stats *work);
        /** The host I/O tile transposes of gatherRows/scatterRows:
         *  64 rows of 32-bit host words to the 32 bit-plane words of
         *  those rows (bit k of plane p is bit p of row k), and back. */
        void (*scatterTile)(const uint32_t *values, uint64_t *planes);
        void (*gatherTile)(const uint64_t *planes, uint32_t *values);
    };

    /**
     * Every build compiled into this binary, widest ISA first. The
     * last, "default", runs on every host; on non-x86 hosts and other
     * compilers it is the only one.
     */
    static std::span<const ReplayBuild> replayBuilds();

    /**
     * The build replayProgram, gatherRows and scatterRows run: the
     * widest one the host supports, picked once per process, unless
     * useReplayBuild chose another.
     */
    static const ReplayBuild &replayBuild();

    /**
     * Make replayProgram, gatherRows and scatterRows run @p b (an
     * entry of replayBuilds()) from now on, process-wide: the seam
     * through which the tests and the benches drive every build the
     * host supports. Throws if the host cannot run @p b. Call it only
     * while no replay or transfer is running.
     */
    static void useReplayBuild(const ReplayBuild &b);

    /**
     * Execute a vertical logic op: gate from @p rowIn to @p rowOut on
     * the column at intra-partition index @p slot of every partition.
     */
    void logicV(Gate g, uint32_t rowIn, uint32_t rowOut, uint32_t slot);

    /** Strided N-bit write to all mask-selected rows (paper Fig. 6). */
    void write(uint32_t slot, uint32_t value,
               std::span<const uint64_t> rowMask);

    /** Strided N-bit read of one row. */
    uint32_t read(uint32_t slot, uint32_t row) const;

    /** Unconditional single-row N-bit write (used by move ops). */
    void writeRow(uint32_t slot, uint32_t value, uint32_t row);

    /**
     * Bulk strided read: the values of @p count consecutive rows
     * [row, row+count) of slot @p slot into @p out, converted from
     * column-major storage to the row-major host buffer one 64-row
     * window at a time by the active build's gather tile transpose
     * (ReplayBuild::gatherTile: AVX-512BW on x86-64-v4, otherwise two
     * 32x32 Hacker's Delight 7-3 transposes side by side) instead of
     * 64*wordBits single-bit probes. Each plane column's storage block
     * is fetched once per call and block. A window whose source words
     * are all zero (or absent) zero-fills the output with no
     * transpose, in either storage form.
     * Returns the 64-bit words moved through the transpose
     * (observability; 64 per transposed window).
     */
    uint64_t gatherRows(uint32_t slot, uint32_t row, uint32_t count,
                        uint32_t *out) const;

    /**
     * Bulk strided write of @p count consecutive rows from the
     * row-major @p values — the scatter inverse of gatherRows through
     * ReplayBuild::scatterTile, bit-identical to count writeRow calls.
     * The windows of one storage block transpose into a stack tile,
     * then each plane column's block is written once. Zero-elision is
     * preserved: a plane block receiving no set bit only clears, so
     * absent paged blocks stay absent (an all-zero upload never
     * densifies anything), and an all-zero window skips the transpose
     * entirely. Returns words transposed.
     */
    uint64_t scatterRows(uint32_t slot, uint32_t row, uint32_t count,
                         const uint32_t *values);

    /** Raw bit access for tests. */
    bool bit(uint32_t row, uint32_t col) const;
    void setBit(uint32_t row, uint32_t col, bool v);

    /**
     * Re-elide every materialised block that has decayed to all-zero
     * (writes clear bits in place — elision is never checked on the
     * hot path). A promoted slab whose non-zero blocks fell below the
     * promotion threshold is demoted back to paged; the slab's other
     * blocks count as elided. No-op for Dense storage. Returns blocks
     * elided.
     */
    uint64_t compact();

    /** Point-in-time storage footprint (never architectural state). */
    StorageGauges storageGauges() const;

    /**
     * CANONICAL walk of the state for serialization and checksums:
     * invoke @p fn for every block that holds at least one set bit,
     * ascending (col, block), with its words and used word count (the
     * tail block of a column may be short). A materialised all-zero
     * block is SKIPPED, and dense storage walks the same block grid —
     * so two crossbars in equal state produce the identical call
     * sequence regardless of storage mode or elision history (the
     * property that makes checkpoint images and state checksums
     * storage-independent).
     */
    void forEachNonZeroBlock(
        const std::function<void(uint32_t col, uint32_t b,
                                 const uint64_t *w, uint32_t n)> &fn)
        const;

    /**
     * Order-sensitive FNV-1a digest over the canonical non-zero-block
     * walk (positions + words). Equal states hash equal across
     * storage modes; the PYPIM_VERIFY_STATE machinery compares these
     * at batch and drain points to detect silent corruption.
     */
    uint64_t stateChecksum() const;

    /**
     * Reset to all-zero: a slab is zero-filled; paged frees every
     * present block (keeping the table and pool for reuse). The
     * restore path's first step before loadBlock replays an image.
     */
    void resetState();

    /**
     * Overwrite block @p b of column @p col with @p n words from
     * @p w (checkpoint restore). All-zero payloads are skipped rather
     * than densified.
     */
    void loadBlock(uint32_t col, uint32_t b, const uint64_t *w,
                   uint32_t n);

    /**
     * Bit-exact state comparison (engine-parity tests). Both crossbars
     * must share a geometry; storage modes may differ — an absent
     * block compares equal to an all-zero dense region, so a paged
     * crossbar checks against the dense oracle directly.
     */
    bool sameState(const Crossbar &other) const;

    const Geometry &geometry() const { return *geo_; }
    /** The configured storage policy (see file header): a promoted
     *  Paged crossbar still reports Paged. */
    XbarStorage storage() const { return storage_; }
    /** True while the state lives in the contiguous slab. */
    bool isSlab() const { return slab_; }

  private:
    /** Block id slot of (col, block) in the table. */
    size_t
    tableIndex(uint32_t col, uint32_t b) const
    {
        return static_cast<size_t>(col) * blocksPerCol_ + b;
    }

    /**
     * The table form's one out-of-line slow path (the block accessor
     * reads present blocks inline): mutable block words, materialising
     * a zeroed block if absent. May grow the pool and so move every
     * block: within one (section, block) step, fetch the read-only
     * input pointers only after the output's.
     */
    uint64_t *blockRW(uint32_t col, uint32_t b);

    /** Allocate the lazy block table on first densification (called
     *  only from blockRW). */
    void ensureTable();

    /** A fresh all-zero pool block: a recycled id or a new one. */
    uint32_t allocBlock();

    /** Blocks in the whole grid (cols * blocksPerCol). */
    uint64_t
    gridBlocks() const
    {
        return static_cast<uint64_t>(geo_->cols) * blocksPerCol_;
    }
    /** True once @p blocks fill the promotion share of the grid. */
    bool
    atPromoteShare(uint64_t blocks) const
    {
        return blocks * kPromoteDivisor >= gridBlocks();
    }
    /** Replay-entry check: promote a paged crossbar that has filled. */
    void
    maybePromote()
    {
        if (!slab_ && atPromoteShare(present_))
            promote();
    }
    /** Move every present block into a fresh slab; drop the table. */
    void promote();
    /** Free the table and the pool. */
    void releaseBlocks();

    /** Read-only view of the live state (slab or table). */
    BlockImage image() const;
    /** Call @p f with the accessor of the current form. */
    template <class F>
    void withBlocks(F &&f);
    /**
     * The compiled-replay executor: one body, instantiated over the
     * storage form and the all-masks-full fast path (crossbar.cpp
     * inlines all four into every ReplayBuild). kFull deletes the mask
     * blend from every inner loop; the kFull=false body still takes
     * the blend-free kernels per instruction when that instruction's
     * mask is full.
     */
    template <bool kPaged, bool kFull>
    void replayProgramT(const ReplayProgram &prog, uint32_t self,
                        Stats *work);
    /** The ISA builds of the executor (crossbar.cpp). */
    friend struct ReplayKernels;

    const Geometry *geo_;
    uint32_t wordsPerCol_;
    uint32_t blocksPerCol_;
    XbarStorage storage_;              //!< configured policy
    bool slab_;                        //!< current form: slab or paged
    uint32_t present_ = 0;             //!< paged: non-absent table ids
    Slab state_;                       //!< slab (empty if paged)
    std::vector<uint32_t> table_;      //!< paged block ids (lazy)
    std::vector<uint64_t> pool_;       //!< paged block words (lazy)
    std::vector<uint32_t> free_;       //!< freed pool block ids
};

} // namespace pypim

#endif // PYPIM_SIM_CROSSBAR_HPP
