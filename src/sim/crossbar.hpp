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
 *    kSlabAlign-aligned. Replay runs the dense kernels, with no
 *    per-block lookups, in the widest ISA build the host supports.
 *  - PAGED: each column is a run of kBlockWords-word BLOCKS behind a
 *    per-column block table into a refcounted BlockPool. An all-zero
 *    block is the sentinel entry kAbsent and costs zero bytes; it
 *    densifies transparently on the first write that could set a bit
 *    in it, and an explicit compact() sweep re-elides blocks that
 *    have decayed back to all-zero. The table itself is allocated
 *    lazily on the first densification, so a never-written crossbar
 *    costs O(1) bytes — RSS scales with LIVE data, not with geometry
 *    (BitMagic-style zero elision).
 *
 * XbarStorage picks the policy. Dense keeps the slab for life: it is
 * the parity oracle. Paged is ADAPTIVE per crossbar, the way
 * BitMagic picks a block format from observed fill: a crossbar starts
 * paged and keeps an exact count of its present blocks; once that
 * count reaches 1/kPromoteDivisor of its block grid, it is promoted
 * to the slab and replays on the dense kernels from then on. Sparse
 * crossbars stay paged, keeping zero elision and O(live data)
 * snapshots. The rules:
 *
 *  - Promotion is checked only at replay entry, never inside a
 *    kernel that holds block pointers: at the entry of a compiled
 *    program (replayProgram), never between its instructions, and of
 *    each single replayed op (logicH, logicV, write and writeStripe),
 *    which is the only entry the engine's raw op-by-op path
 *    has. Direct state access (writeRow,
 *    setBit, bulk gather/scatter, loadBlock) never promotes.
 *    Promotion copies every present block into the slab and drops the
 *    table and the crossbar's pool reference (live snapshots keep
 *    their own).
 *  - restore() takes on the snapshot's representation: a paged image
 *    makes the crossbar paged again, a slab image makes it a slab.
 *  - compact() is the only demotion: a promoted slab whose non-zero
 *    blocks fell below the threshold goes back to paged.
 *  - resetState() and loadBlock() keep the current representation.
 *  - storage() reports the CONFIGURED policy, never the current form,
 *    so checkpoint images (which record it) do not change when a
 *    crossbar promotes. isSlab() reports the current form.
 *
 * Zero-elision gives the paged replay loops a fast path for free:
 * reading an absent block yields zeros, so NOR/NOT with all-absent
 * inputs reduces to algebra on the output block (out &= ~mask needs
 * no input materialisation, and skips entirely when the output is
 * absent too, since stateful logic can only clear bits). Writes
 * densify a block only when the row mask actually selects a row
 * inside it.
 *
 * On top of the block table, snapshot() returns a refcounted
 * copy-on-write image sharing every present block with the live
 * crossbar: O(live data) checkpoint, O(shared blocks) compare, with
 * mutation after the snapshot cloning only the blocks it touches
 * (a slab crossbar's snapshot deep-copies the slab).
 * Refcounts are NOT atomic: snapshots must be created, restored and
 * destroyed only while no replay is mutating the source crossbar
 * (the Simulator replays synchronously, so between its calls), and a
 * crossbar's blocks are only ever mutated by one thread at a time
 * (the engine's thread pool partitions work by crossbar), so block
 * cloning — and promotion — during concurrent replay of DIFFERENT
 * crossbars is race-free.
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
#include <memory>
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
class BlockPool;
struct ReplayKernels;

/** One strided write of a stripe: slot @p slot takes @p value. */
struct StripeWrite
{
    uint32_t slot = 0;
    uint32_t value = 0;
};

/** Point-in-time storage footprint of a crossbar (or a sum of them).
 *  Pure observability — never part of the architectural Stats, whose
 *  exact equality the parity suites assert across storage modes. */
struct StorageGauges
{
    uint64_t blocksTotal = 0;    //!< cols * blocksPerCol
    uint64_t blocksPresent = 0;  //!< materialised blocks (slab: all)
    uint64_t blocksElided = 0;   //!< absent blocks costing zero bytes
    uint64_t cowShared = 0;      //!< present blocks shared with snapshots
    uint64_t residentBytes = 0;  //!< bytes actually allocated for state
    uint64_t slabCrossbars = 0;  //!< crossbars currently in slab form

    StorageGauges &
    operator+=(const StorageGauges &o)
    {
        blocksTotal += o.blocksTotal;
        blocksPresent += o.blocksPresent;
        blocksElided += o.blocksElided;
        cowShared += o.cowShared;
        residentBytes += o.residentBytes;
        slabCrossbars += o.slabCrossbars;
        return *this;
    }
};

/** One h x w crossbar array with stateful-logic semantics. */
class Crossbar
{
  public:
    /** Words per paged block: 8 words = 512 rows of one column. */
    static constexpr uint32_t kBlockWords = 8;
    /** Block-table sentinel for an elided (all-zero) block. */
    static constexpr uint32_t kAbsent = UINT32_MAX;
    /**
     * A Paged crossbar is promoted to the slab once at least
     * 1/kPromoteDivisor of its block grid is present. At one half the
     * slab costs at most about 2x the pool blocks it replaces (less
     * once each block's table entry and refcount are counted), and in
     * exchange every replay runs the dense kernels with no block-table
     * probe, pool fetch or copy-on-write check. The share is fixed by
     * block counts alone, not tuned to any workload.
     */
    static constexpr uint32_t kPromoteDivisor = 2;
    /**
     * Byte alignment of every dense slab (the live slab and a slab
     * Snapshot): one cache line, and one AVX-512 register. At the
     * Table III geometry a column is 16 words, so every column then
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

    // The pool is refcounted state: a bitwise copy would alias blocks
    // without owning them. Moves are fine (the source is emptied).
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
     * Blend-free stripe for an ALL-ONES realized row mask (every mask
     * word == ~0; SegmentTrace::rowMaskFull): each plane column
     * becomes a fill. Bit-identical to writeStripe under that mask.
     */
    void writeStripeFull(std::span<const StripeWrite> ws);

    /**
     * Crossbar-major replay of one compiled segment
     * (sim/replay_program.hpp) on this crossbar (index @p self): every
     * instruction whose crossbar range selects it, in order, while
     * this crossbar's column-major state is hot in cache. Promotes a
     * filled paged crossbar first (file header), then dispatches once
     * into a {slab, paged} x {all-full masks, partial} template
     * executor. @p work, if non-null, accumulates the applied
     * architectural ops (two for a fused INIT+gate pair, one per Write
     * of a stripe): the thread pool's load-balance diagnostic.
     */
    void replayProgram(const ReplayProgram &prog, uint32_t self,
                       Stats *work);

    /**
     * One ISA build of the compiled-replay executor: crossbar.cpp
     * compiles the one replayProgramT source once per build, each for
     * its own target, so the word loops vectorise at that ISA's width.
     */
    struct ReplayBuild
    {
        const char *name;     //!< "x86-64-v4", "x86-64-v3" or "default"
        bool (*supported)();  //!< the host can run this build
        /** The executor on @p xb, whose representation is fixed. */
        void (*run)(Crossbar &xb, const ReplayProgram &prog,
                    uint32_t self, Stats *work);
    };

    /**
     * Every build compiled into this binary, widest ISA first. The
     * last, "default", runs on every host; on non-x86 hosts and other
     * compilers it is the only one.
     */
    static std::span<const ReplayBuild> replayBuilds();

    /**
     * The build replayProgram runs: the widest one the host supports,
     * picked once per process, unless useReplayBuild chose another.
     */
    static const ReplayBuild &replayBuild();

    /**
     * Make replayProgram run @p b (an entry of replayBuilds()) from now
     * on, process-wide: the seam through which the tests and the replay
     * bench drive every build the host supports. Throws if the host
     * cannot run @p b. Call it only while no replay is running.
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

    /**
     * Apply a stripe of distinct-slot strided writes under one shared
     * row mask, partition-major: for each partition, all stripe
     * columns are written while the realized mask word is loaded once
     * (the replay form of the trace fuser's adjacent-Write merge).
     * Bit-identical to applying the writes in order — the slots are
     * pairwise distinct, so the strided column sets are disjoint.
     */
    void writeStripe(std::span<const StripeWrite> ws,
                     std::span<const uint64_t> rowMask);

    /** Strided N-bit read of one row. */
    uint32_t read(uint32_t slot, uint32_t row) const;

    /** Unconditional single-row N-bit write (used by move ops). */
    void writeRow(uint32_t slot, uint32_t value, uint32_t row);

    /**
     * Bulk strided read: the values of @p count consecutive rows
     * [row, row+count) of slot @p slot into @p out, converted from
     * column-major storage to the row-major host buffer 64 rows at a
     * time via an in-register 64x64 bit-matrix transpose (Hacker's
     * Delight 7-3 adapted to LSB-0 numbering) — ~64 word ops per 64
     * values instead of 64*wordBits single-bit probes. Paged fast
     * path: a window whose source blocks are all absent (or all zero)
     * zero-fills the output with no transpose and no block probes.
     * Returns the 64-bit words moved through the transpose
     * (observability; 64 per transposed window).
     */
    uint64_t gatherRows(uint32_t slot, uint32_t row, uint32_t count,
                        uint32_t *out) const;

    /**
     * Bulk strided write of @p count consecutive rows from the
     * row-major @p values — the scatter inverse of gatherRows,
     * bit-identical to count writeRow calls. Zero-elision is
     * preserved: a plane word receiving no set bit only clears, so
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
     * Refcounted copy-on-write image of the crossbar's full state at
     * the instant of the snapshot() call. Paged snapshots share every
     * present block with the source (O(live data) to take, zero block
     * copies); slab snapshots deep-copy the slab. A snapshot stays
     * valid after the source crossbar mutates or is destroyed.
     * Synchronisation contract: create/restore/destroy only while no
     * replay is mutating the SOURCE crossbar (see file header).
     */
    class Snapshot
    {
      public:
        Snapshot() = default;
        Snapshot(const Snapshot &o);
        Snapshot &operator=(const Snapshot &o);
        Snapshot(Snapshot &&o) noexcept;
        Snapshot &operator=(Snapshot &&o) noexcept;
        ~Snapshot();

        /** Strided N-bit read of one row, as Crossbar::read. */
        uint32_t read(uint32_t slot, uint32_t row) const;
        /** Raw bit access, as Crossbar::bit. */
        bool bit(uint32_t row, uint32_t col) const;

        /** Canonical non-zero-block walk of the snapshot image, as
         *  Crossbar::forEachNonZeroBlock. */
        void forEachNonZeroBlock(
            const std::function<void(uint32_t col, uint32_t b,
                                     const uint64_t *w, uint32_t n)>
                &fn) const;

      private:
        friend class Crossbar;
        /** Drop every block reference and empty the image. */
        void release();
        /** Words of block @p b of column @p col, or null if elided
         *  (slab snapshots are never elided). */
        const uint64_t *blockRO(uint32_t col, uint32_t b) const;

        const Geometry *geo_ = nullptr;
        uint32_t wordsPerCol_ = 0;
        uint32_t blocksPerCol_ = 0;
        std::shared_ptr<BlockPool> pool_;  //!< paged: shared block pool
        std::vector<uint32_t> table_;      //!< paged: refcounted ids
        Slab dense_;                       //!< dense: deep slab copy
    };

    /** Checkpoint the current state (see Snapshot). */
    Snapshot snapshot() const;

    /**
     * Restore the state captured by @p s, taken from a crossbar of
     * the same geometry. A Paged crossbar takes on the snapshot's
     * representation: a paged image, which must come from THIS
     * crossbar, is O(live data) to restore — the block table
     * re-adopts the snapshot's shared blocks, and later mutation
     * clones on write — and a slab image makes the crossbar a slab.
     * A Dense crossbar accepts slab images only.
     */
    void restore(const Snapshot &s);

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
     * Reset to all-zero: a slab is zero-filled; paged drops every
     * present block reference (keeping the table and pool for reuse).
     * The restore path's first step before loadBlock replays an image.
     */
    void resetState();

    /**
     * Overwrite block @p b of column @p col with @p n words from
     * @p w (checkpoint restore; COW-safe via blockRW). All-zero
     * payloads are skipped rather than densified.
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
    /** Bit-exact comparison against a snapshot of same geometry. */
    bool sameState(const Snapshot &s) const;

    const Geometry &geometry() const { return *geo_; }
    /** The configured storage policy (see file header): a promoted
     *  Paged crossbar still reports Paged. */
    XbarStorage storage() const { return storage_; }
    /** True while the state lives in the contiguous slab. */
    bool isSlab() const { return slab_; }

  private:
    uint64_t *colWords(uint32_t col)
    {
        return state_.data() + static_cast<size_t>(col) * wordsPerCol_;
    }
    const uint64_t *
    colWords(uint32_t col) const
    {
        return state_.data() + static_cast<size_t>(col) * wordsPerCol_;
    }

    /** Words in block @p b of a column (the tail block may be short). */
    uint32_t
    blockWords(uint32_t b) const
    {
        const uint32_t base = b * kBlockWords;
        return wordsPerCol_ - base < kBlockWords ? wordsPerCol_ - base
                                                 : kBlockWords;
    }

    /** Block id slot of (col, block) in the table. */
    size_t
    tableIndex(uint32_t col, uint32_t b) const
    {
        return static_cast<size_t>(col) * blocksPerCol_ + b;
    }

    /** Read-only block words, or null if absent. Never allocates. */
    const uint64_t *blockRO(uint32_t col, uint32_t b) const;
    /**
     * Mutable block words, materialising a zeroed block if absent and
     * cloning first if shared with a snapshot (copy-on-write). May
     * grow the pool: fetch ALL read-only input pointers AFTER the
     * output's blockRW within one (section, block) step.
     */
    uint64_t *blockRW(uint32_t col, uint32_t b);
    /**
     * Mutable block words of a PRESENT block, or null if absent —
     * for ops that can only clear bits (Init0, NOR/NOT outputs),
     * where an absent output stays absent. Clones if shared.
     */
    uint64_t *blockIfPresent(uint32_t col, uint32_t b);

    /** Allocate the lazy block table / pool on first densification. */
    void ensureTable();

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
    /**
     * Entry of one replayed op (the engine's raw op-by-op
     * path): promote a filled paged crossbar, then report whether the
     * op runs on the paged kernels. No block pointer is live at this
     * point.
     */
    bool
    pagedOpEntry()
    {
        maybePromote();
        return !slab_;
    }
    /** Move every present block into a fresh slab; drop the table. */
    void promote();
    /** Drop every block reference, the table and the pool reference. */
    void releaseBlocks();

    // Paged op bodies (crossbar.cpp); the public entry points branch
    // once per op so the dense loops stay byte-identical to the
    // historical implementation.
    void logicHPaged(const HalfGates &hg,
                     std::span<const uint64_t> rowMask);
    void writeStripeFullPaged(std::span<const StripeWrite> ws);
    /**
     * The compiled-replay executor, specialized over the storage
     * representation and the all-masks-full fast path (crossbar.cpp
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
    void writePaged(uint32_t slot, uint32_t value,
                    std::span<const uint64_t> rowMask);
    void writeStripePaged(std::span<const StripeWrite> ws,
                          std::span<const uint64_t> rowMask);
    void logicVPaged(Gate g, uint32_t rowIn, uint32_t rowOut,
                     uint32_t slot);
    uint64_t gatherRowsPaged(uint32_t slot, uint32_t row,
                             uint32_t count, uint32_t *out) const;
    uint64_t scatterRowsPaged(uint32_t slot, uint32_t row,
                              uint32_t count, const uint32_t *values);

    const Geometry *geo_;
    uint32_t wordsPerCol_;
    uint32_t blocksPerCol_;
    XbarStorage storage_;              //!< configured policy
    bool slab_;                        //!< current form: slab or paged
    uint32_t present_ = 0;             //!< paged: non-absent table ids
    uint64_t poolOwner_;               //!< tags this crossbar's pools
    Slab state_;                       //!< slab (empty if paged)
    std::vector<uint32_t> table_;      //!< paged block ids (lazy)
    std::shared_ptr<BlockPool> pool_;  //!< paged block pool (lazy)
};

} // namespace pypim

#endif // PYPIM_SIM_CROSSBAR_HPP
