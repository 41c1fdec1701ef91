#include "sim/crossbar.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <string>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "sim/replay_program.hpp"

// The x86-64-v3/v4 replay builds need GCC's target attribute with
// x86-64-vN arch names and __builtin_cpu_supports for them (GCC 12).
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    __GNUC__ >= 12
#define PYPIM_REPLAY_X86_BUILDS 1
#else
#define PYPIM_REPLAY_X86_BUILDS 0
#endif

namespace pypim
{

namespace
{

/** Max blocks per column: rows <= 65536 (geometry invariant) gives
 *  <= 1024 words <= 128 blocks — small enough for stack bitmaps. */
constexpr uint32_t kMaxBlocksPerCol =
    (65536 / 64 + Crossbar::kBlockWords - 1) / Crossbar::kBlockWords;

/** All-zero block every absent read resolves to. */
constexpr uint64_t kZeroBlock[Crossbar::kBlockWords] = {};

bool
allZero(const uint64_t *w, uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i)
        if (w[i])
            return false;
    return true;
}

/**
 * In-place 64x64 bit-matrix transpose: on return, bit p of x[k]
 * equals bit k of the old x[p]. Hacker's Delight 7-3 with the shift
 * directions flipped for this codebase's LSB-0 bit numbering (the
 * textbook form assumes MSB-0 and would compute the anti-diagonal
 * transpose here).
 */
void
transpose64(uint64_t x[64])
{
    uint64_t m = 0x00000000FFFFFFFFull;
    for (uint32_t j = 32; j; j >>= 1, m ^= m << j) {
        for (uint32_t k = 0; k < 64; k = (k + j + 1) & ~j) {
            const uint64_t t = ((x[k] >> j) ^ x[k | j]) & m;
            x[k] ^= t << j;
            x[k | j] ^= t;
        }
    }
}

/** 64-bit word mask selecting bits [off, off+take). */
uint64_t
windowMask(uint32_t off, uint32_t take)
{
    // take == 64 implies off == 0 (windows are 64-aligned after the
    // first), and 1ull << 64 would be UB.
    return take == 64 ? ~0ull : ((1ull << take) - 1) << off;
}

/** Source of Crossbar::poolOwner_ tags (0 is never handed out). */
std::atomic<uint64_t> nextPoolOwner{1};

} // namespace

/**
 * Refcounted pool of kBlockWords-word blocks backing one paged
 * crossbar and every snapshot taken from it. Freed slots are recycled
 * through a free list; alloc() always returns an all-zero block (the
 * invariant every densification relies on). Refcounts are plain
 * integers — see the synchronisation contract in crossbar.hpp. The
 * owner tag names the crossbar the pool belongs to: a crossbar drops
 * its pool when it promotes and builds a new one if it demotes, and
 * restore() accepts a snapshot of any of its own pools, but never one
 * of another crossbar's (two crossbars replaying concurrently must
 * never share a pool).
 */
class BlockPool
{
  public:
    explicit BlockPool(uint64_t owner) : owner_(owner) {}

    uint64_t owner() const { return owner_; }

    /** A fresh all-zero block with refcount 1. */
    uint32_t
    alloc()
    {
        if (!free_.empty()) {
            const uint32_t id = free_.back();
            free_.pop_back();
            refs_[id] = 1;
            uint64_t *w = words(id);
            std::fill(w, w + Crossbar::kBlockWords, 0);
            return id;
        }
        const uint32_t id = static_cast<uint32_t>(refs_.size());
        refs_.push_back(1);
        words_.resize(words_.size() + Crossbar::kBlockWords, 0);
        return id;
    }

    /** A copy of block @p id with refcount 1 (copy-on-write step). */
    uint32_t
    clone(uint32_t id)
    {
        const uint32_t nid = alloc();  // may grow words_: copy by index
        std::copy(words_.begin() +
                      static_cast<size_t>(id) * Crossbar::kBlockWords,
                  words_.begin() +
                      static_cast<size_t>(id + 1) * Crossbar::kBlockWords,
                  words_.begin() +
                      static_cast<size_t>(nid) * Crossbar::kBlockWords);
        return nid;
    }

    void ref(uint32_t id) { ++refs_[id]; }

    void
    unref(uint32_t id)
    {
        if (--refs_[id] == 0)
            free_.push_back(id);
    }

    uint32_t refCount(uint32_t id) const { return refs_[id]; }

    uint64_t *
    words(uint32_t id)
    {
        return words_.data() +
               static_cast<size_t>(id) * Crossbar::kBlockWords;
    }
    const uint64_t *
    words(uint32_t id) const
    {
        return words_.data() +
               static_cast<size_t>(id) * Crossbar::kBlockWords;
    }

    /** Bytes this pool holds allocated (block words + bookkeeping). */
    uint64_t
    residentBytes() const
    {
        return words_.capacity() * sizeof(uint64_t) +
               refs_.capacity() * sizeof(uint32_t) +
               free_.capacity() * sizeof(uint32_t);
    }

  private:
    uint64_t owner_;
    std::vector<uint64_t> words_;
    std::vector<uint32_t> refs_;
    std::vector<uint32_t> free_;
};

Crossbar::Crossbar(const Geometry &geo, XbarStorage storage)
    : geo_(&geo),
      wordsPerCol_((geo.rows + 63) / 64),
      blocksPerCol_((wordsPerCol_ + kBlockWords - 1) / kBlockWords),
      storage_(storage),
      slab_(storage == XbarStorage::Dense),
      poolOwner_(nextPoolOwner.fetch_add(1, std::memory_order_relaxed)),
      state_(slab_ ? static_cast<size_t>(geo.cols) * wordsPerCol_ : 0, 0)
{
    panicIf(blocksPerCol_ > kMaxBlocksPerCol,
            "crossbar: block table exceeds the geometry bound");
    // Paged: table_ and pool_ stay empty until the first
    // densification, so an untouched crossbar costs O(1) bytes — the
    // property the max-geometry sweep (bench_simulator) relies on.
}

// --- paged block plumbing -----------------------------------------------

void
Crossbar::ensureTable()
{
    if (!table_.empty())
        return;
    table_.assign(static_cast<size_t>(geo_->cols) * blocksPerCol_,
                  kAbsent);
    if (!pool_)
        pool_ = std::make_shared<BlockPool>(poolOwner_);
}

void
Crossbar::releaseBlocks()
{
    if (pool_)
        for (const uint32_t id : table_)
            if (id != kAbsent)
                pool_->unref(id);
    std::vector<uint32_t>().swap(table_);
    pool_.reset();
    present_ = 0;
}

void
Crossbar::promote()
{
    state_.assign(static_cast<size_t>(geo_->cols) * wordsPerCol_, 0);
    if (!table_.empty()) {
        for (uint32_t col = 0; col < geo_->cols; ++col) {
            for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                const uint32_t id = table_[tableIndex(col, b)];
                if (id == kAbsent)
                    continue;
                const uint64_t *w = pool_->words(id);
                std::copy(w, w + blockWords(b),
                          colWords(col) + b * kBlockWords);
            }
        }
    }
    // Snapshots that share these blocks hold their own pool pointer,
    // so dropping ours frees the pool only when nothing else uses it.
    releaseBlocks();
    slab_ = true;
}

const uint64_t *
Crossbar::blockRO(uint32_t col, uint32_t b) const
{
    if (table_.empty())
        return nullptr;
    const uint32_t id = table_[tableIndex(col, b)];
    return id == kAbsent ? nullptr : pool_->words(id);
}

uint64_t *
Crossbar::blockRW(uint32_t col, uint32_t b)
{
    ensureTable();
    uint32_t &id = table_[tableIndex(col, b)];
    if (id == kAbsent) {
        id = pool_->alloc();
        ++present_;
    } else if (pool_->refCount(id) > 1) {
        const uint32_t nid = pool_->clone(id);
        pool_->unref(id);
        id = nid;
    }
    return pool_->words(id);
}

uint64_t *
Crossbar::blockIfPresent(uint32_t col, uint32_t b)
{
    if (table_.empty())
        return nullptr;
    uint32_t &id = table_[tableIndex(col, b)];
    if (id == kAbsent)
        return nullptr;
    if (pool_->refCount(id) > 1) {
        const uint32_t nid = pool_->clone(id);
        pool_->unref(id);
        id = nid;
    }
    return pool_->words(id);
}

// --- horizontal logic ---------------------------------------------------

void
Crossbar::logicH(const HalfGates &hg, std::span<const uint64_t> rowMask)
{
    panicIf(rowMask.size() != wordsPerCol_,
            "logicH: row mask width mismatch");
    if (pagedOpEntry()) {
        logicHPaged(hg, rowMask);
        return;
    }
    for (uint32_t s = 0; s < hg.numSections; ++s) {
        const Section &sec = hg.sections[s];
        if (!sec.active())
            continue;
        uint64_t *out = colWords(static_cast<uint32_t>(sec.outCol));
        switch (hg.gate) {
          case Gate::Init0:
            for (uint32_t w = 0; w < wordsPerCol_; ++w)
                out[w] &= ~rowMask[w];
            break;
          case Gate::Init1:
            for (uint32_t w = 0; w < wordsPerCol_; ++w)
                out[w] |= rowMask[w];
            break;
          case Gate::Not:
          case Gate::Nor: {
            const uint64_t *inA =
                colWords(static_cast<uint32_t>(sec.inCol[0]));
            const uint64_t *inB = sec.numIn == 2
                ? colWords(static_cast<uint32_t>(sec.inCol[1]))
                : inA;
            for (uint32_t w = 0; w < wordsPerCol_; ++w)
                out[w] &= ~((inA[w] | inB[w]) & rowMask[w]);
            break;
          }
        }
    }
}

void
Crossbar::logicHPaged(const HalfGates &hg,
                      std::span<const uint64_t> rowMask)
{
    // A block where the realized row mask is all-zero is untouched by
    // every gate kind, so presence never has to change there; hoist
    // that test out of the section loop (the mask is shared).
    uint8_t maskNZ[kMaxBlocksPerCol];
    for (uint32_t b = 0; b < blocksPerCol_; ++b)
        maskNZ[b] =
            !allZero(rowMask.data() + b * kBlockWords, blockWords(b));

    for (uint32_t s = 0; s < hg.numSections; ++s) {
        const Section &sec = hg.sections[s];
        if (!sec.active())
            continue;
        const uint32_t outCol = static_cast<uint32_t>(sec.outCol);
        switch (hg.gate) {
          case Gate::Init0:
            // Can only clear bits: an absent output stays absent.
            for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                if (!maskNZ[b])
                    continue;
                uint64_t *out = blockIfPresent(outCol, b);
                if (!out)
                    continue;
                const uint64_t *m = rowMask.data() + b * kBlockWords;
                const uint32_t used = blockWords(b);
                for (uint32_t w = 0; w < used; ++w)
                    out[w] &= ~m[w];
            }
            break;
          case Gate::Init1:
            // Sets bits wherever the mask selects: densify exactly
            // the blocks the mask reaches into.
            for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                if (!maskNZ[b])
                    continue;
                uint64_t *out = blockRW(outCol, b);
                const uint64_t *m = rowMask.data() + b * kBlockWords;
                const uint32_t used = blockWords(b);
                for (uint32_t w = 0; w < used; ++w)
                    out[w] |= m[w];
            }
            break;
          case Gate::Not:
          case Gate::Nor: {
            const uint32_t inA = static_cast<uint32_t>(sec.inCol[0]);
            const uint32_t inB = sec.numIn == 2
                ? static_cast<uint32_t>(sec.inCol[1])
                : inA;
            for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                if (!maskNZ[b])
                    continue;
                // Absent inputs read as zero, so with both absent
                // out &= ~0 leaves the output block untouched — skip
                // before cloning anything. Absent output: stateful
                // logic only clears bits, stays absent.
                const bool aIn = blockRO(inA, b) != nullptr;
                const bool bIn = blockRO(inB, b) != nullptr;
                if (!aIn && !bIn)
                    continue;
                uint64_t *out = blockIfPresent(outCol, b);
                if (!out)
                    continue;
                // Fetch inputs AFTER the output's clone step: cloning
                // may grow the pool and move every block.
                const uint64_t *a =
                    aIn ? blockRO(inA, b) : kZeroBlock;
                const uint64_t *bb =
                    bIn ? blockRO(inB, b) : kZeroBlock;
                const uint64_t *m = rowMask.data() + b * kBlockWords;
                const uint32_t used = blockWords(b);
                for (uint32_t w = 0; w < used; ++w)
                    out[w] &= ~((a[w] | bb[w]) & m[w]);
            }
            break;
          }
        }
    }
}

// --- vertical logic -----------------------------------------------------

void
Crossbar::logicV(Gate g, uint32_t rowIn, uint32_t rowOut, uint32_t slot)
{
    if (pagedOpEntry()) {
        logicVPaged(g, rowIn, rowOut, slot);
        return;
    }
    // All loop-invariants hoisted: word indices, bit masks and the
    // gate dispatch are identical for every partition.
    const uint32_t pw = geo_->partitionWidth();
    const uint32_t numPart = geo_->partitions;
    const uint32_t outWord = rowOut / 64;
    const uint64_t outBit = 1ull << (rowOut % 64);
    switch (g) {
      case Gate::Init0:
        for (uint32_t p = 0; p < numPart; ++p)
            colWords(p * pw + slot)[outWord] &= ~outBit;
        break;
      case Gate::Init1:
        for (uint32_t p = 0; p < numPart; ++p)
            colWords(p * pw + slot)[outWord] |= outBit;
        break;
      case Gate::Not: {
        const uint32_t inWord = rowIn / 64;
        const uint32_t inShift = rowIn % 64;
        for (uint32_t p = 0; p < numPart; ++p) {
            uint64_t *words = colWords(p * pw + slot);
            if ((words[inWord] >> inShift) & 1)
                words[outWord] &= ~outBit;
        }
        break;
      }
      case Gate::Nor:
        panic("logicV: NOR is not supported vertically");
    }
}

void
Crossbar::logicVPaged(Gate g, uint32_t rowIn, uint32_t rowOut,
                      uint32_t slot)
{
    const uint32_t pw = geo_->partitionWidth();
    const uint32_t numPart = geo_->partitions;
    const uint32_t outWord = rowOut / 64;
    const uint32_t bOut = outWord / kBlockWords;
    const uint32_t relOut = outWord % kBlockWords;
    const uint64_t outBit = 1ull << (rowOut % 64);
    switch (g) {
      case Gate::Init0:
        for (uint32_t p = 0; p < numPart; ++p) {
            uint64_t *blk = blockIfPresent(p * pw + slot, bOut);
            if (blk)
                blk[relOut] &= ~outBit;
        }
        break;
      case Gate::Init1:
        for (uint32_t p = 0; p < numPart; ++p)
            blockRW(p * pw + slot, bOut)[relOut] |= outBit;
        break;
      case Gate::Not: {
        const uint32_t inWord = rowIn / 64;
        const uint32_t bIn = inWord / kBlockWords;
        const uint32_t relIn = inWord % kBlockWords;
        const uint32_t inShift = rowIn % 64;
        for (uint32_t p = 0; p < numPart; ++p) {
            const uint32_t col = p * pw + slot;
            const uint64_t *in = blockRO(col, bIn);
            // Extract the input bit BEFORE any clone can move blocks.
            const bool v = in && ((in[relIn] >> inShift) & 1);
            if (!v)
                continue;  // NOT(0)=1 cannot switch a stateful output
            uint64_t *out = blockIfPresent(col, bOut);
            if (out)
                out[relOut] &= ~outBit;
        }
        break;
      }
      case Gate::Nor:
        panic("logicV: NOR is not supported vertically");
    }
}

// --- compiled-program replay --------------------------------------------

template <bool kPaged, bool kFull>
[[gnu::always_inline]] inline void
Crossbar::replayProgramT(const ReplayProgram &prog, uint32_t self,
                         Stats *work)
{
    using SecKind = ReplayProgram::SecKind;
    const bool uni = prog.uniformXb;
    if (uni && !prog.xb.contains(self))
        return;
    if (work && uni) {
        // One crossbar range shared by every instruction: the whole
        // program's applied work charges in three counter bumps.
        if (prog.workWrites)
            work->recordN(OpClass::Write, prog.workWrites);
        if (prog.workLogicH)
            work->recordN(OpClass::LogicH, prog.workLogicH);
        if (prog.workLogicV)
            work->recordN(OpClass::LogicV, prog.workLogicV);
    }
    const uint32_t wpc = wordsPerCol_;
    const uint32_t pw = geo_->partitionWidth();
    uint8_t maskNZ[kMaxBlocksPerCol];
    for (const ReplayProgram::Instr &in : prog.instrs) {
        if (!uni) {
            if (!in.xb.contains(self))
                continue;
            if (work)
                work->recordN(in.cls, in.work);
        }
        switch (in.kind) {
          case ReplayProgram::Kind::HPass: {
            const ReplayProgram::PSection *secs =
                prog.sections.data() + in.off;
            const uint64_t *m = prog.maskWords.data() + in.maskOff;
            if ((kFull || in.maskFull) &&
                in.passKind != ReplayProgram::kMixedPass) {
                // Kind-homogeneous blend-free pass (the common case:
                // one op's sections share their gate, and merges
                // chain gates of one kind): the section-kind switch
                // hoists out of the column loop, leaving tight
                // per-kind loops — with a single-word body for
                // shallow (<= 64-row) dense columns.
                const auto pk = static_cast<SecKind>(in.passKind);
                if (!kPaged) {
                    uint64_t *base = colWords(0);
                    switch (pk) {
                      case SecKind::Init0:
                        for (uint32_t s = 0; s < in.count; ++s) {
                            uint64_t *out =
                                base +
                                static_cast<size_t>(secs[s].outCol) *
                                    wpc;
                            std::fill(out, out + wpc, 0);
                        }
                        break;
                      case SecKind::Init1:
                        for (uint32_t s = 0; s < in.count; ++s) {
                            uint64_t *out =
                                base +
                                static_cast<size_t>(secs[s].outCol) *
                                    wpc;
                            std::fill(out, out + wpc, ~0ull);
                        }
                        break;
                      case SecKind::NotNor:
                        if (wpc == 1) {
                            for (uint32_t s = 0; s < in.count; ++s)
                                base[secs[s].outCol] &=
                                    ~(base[secs[s].inA] |
                                      base[secs[s].inB]);
                            break;
                        }
                        for (uint32_t s = 0; s < in.count; ++s) {
                            const ReplayProgram::PSection &sec =
                                secs[s];
                            uint64_t *out =
                                base +
                                static_cast<size_t>(sec.outCol) * wpc;
                            const uint64_t *a =
                                base +
                                static_cast<size_t>(sec.inA) * wpc;
                            const uint64_t *b =
                                base +
                                static_cast<size_t>(sec.inB) * wpc;
                            for (uint32_t w = 0; w < wpc; ++w)
                                out[w] &= ~(a[w] | b[w]);
                        }
                        break;
                      case SecKind::FusedNotNor:
                        if (wpc == 1) {
                            for (uint32_t s = 0; s < in.count; ++s)
                                base[secs[s].outCol] =
                                    ~(base[secs[s].inA] |
                                      base[secs[s].inB]);
                            break;
                        }
                        for (uint32_t s = 0; s < in.count; ++s) {
                            const ReplayProgram::PSection &sec =
                                secs[s];
                            uint64_t *out =
                                base +
                                static_cast<size_t>(sec.outCol) * wpc;
                            const uint64_t *a =
                                base +
                                static_cast<size_t>(sec.inA) * wpc;
                            const uint64_t *b =
                                base +
                                static_cast<size_t>(sec.inB) * wpc;
                            for (uint32_t w = 0; w < wpc; ++w)
                                out[w] = ~(a[w] | b[w]);
                        }
                        break;
                    }
                    break;
                }
                switch (pk) {
                  case SecKind::Init0:
                    for (uint32_t s = 0; s < in.count; ++s)
                        for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                            uint64_t *out =
                                blockIfPresent(secs[s].outCol, b);
                            if (out)
                                std::fill(out, out + blockWords(b),
                                          0);
                        }
                    break;
                  case SecKind::Init1:
                    for (uint32_t s = 0; s < in.count; ++s)
                        for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                            uint64_t *out = blockRW(secs[s].outCol, b);
                            std::fill(out, out + blockWords(b),
                                      ~0ull);
                        }
                    break;
                  case SecKind::NotNor:
                    for (uint32_t s = 0; s < in.count; ++s) {
                        const ReplayProgram::PSection &sec = secs[s];
                        for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                            const bool aIn =
                                blockRO(sec.inA, b) != nullptr;
                            const bool bIn =
                                blockRO(sec.inB, b) != nullptr;
                            if (!aIn && !bIn)
                                continue;
                            uint64_t *out =
                                blockIfPresent(sec.outCol, b);
                            if (!out)
                                continue;
                            // Inputs AFTER the output clone step.
                            const uint64_t *a =
                                aIn ? blockRO(sec.inA, b)
                                    : kZeroBlock;
                            const uint64_t *bb =
                                bIn ? blockRO(sec.inB, b)
                                    : kZeroBlock;
                            const uint32_t used = blockWords(b);
                            for (uint32_t w = 0; w < used; ++w)
                                out[w] &= ~(a[w] | bb[w]);
                        }
                    }
                    break;
                  case SecKind::FusedNotNor:
                    if (blocksPerCol_ == 1) {
                        // Shallow columns: one block per column, so
                        // the block loop and tail-length reload
                        // vanish from the hot path.
                        const uint32_t used = blockWords(0);
                        for (uint32_t s = 0; s < in.count; ++s) {
                            const ReplayProgram::PSection &sec =
                                secs[s];
                            uint64_t *out = blockRW(sec.outCol, 0);
                            const uint64_t *a = blockRO(sec.inA, 0);
                            const uint64_t *bb = blockRO(sec.inB, 0);
                            if (!a)
                                a = kZeroBlock;
                            if (!bb)
                                bb = kZeroBlock;
                            for (uint32_t w = 0; w < used; ++w)
                                out[w] = ~(a[w] | bb[w]);
                        }
                        break;
                    }
                    for (uint32_t s = 0; s < in.count; ++s) {
                        const ReplayProgram::PSection &sec = secs[s];
                        for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                            uint64_t *out = blockRW(sec.outCol, b);
                            const uint64_t *a = blockRO(sec.inA, b);
                            const uint64_t *bb = blockRO(sec.inB, b);
                            if (!a)
                                a = kZeroBlock;
                            if (!bb)
                                bb = kZeroBlock;
                            const uint32_t used = blockWords(b);
                            for (uint32_t w = 0; w < used; ++w)
                                out[w] = ~(a[w] | bb[w]);
                        }
                    }
                    break;
                }
                break;
            }
            if (kFull || in.maskFull) {
                // Blend-free pass: one section loop, no mask loads.
                for (uint32_t s = 0; s < in.count; ++s) {
                    const ReplayProgram::PSection &sec = secs[s];
                    if (!kPaged) {
                        uint64_t *out = colWords(sec.outCol);
                        switch (sec.kind) {
                          case SecKind::Init0:
                            std::fill(out, out + wpc, 0);
                            break;
                          case SecKind::Init1:
                            std::fill(out, out + wpc, ~0ull);
                            break;
                          case SecKind::NotNor: {
                            const uint64_t *a = colWords(sec.inA);
                            const uint64_t *b = colWords(sec.inB);
                            for (uint32_t w = 0; w < wpc; ++w)
                                out[w] &= ~(a[w] | b[w]);
                            break;
                          }
                          case SecKind::FusedNotNor: {
                            const uint64_t *a = colWords(sec.inA);
                            const uint64_t *b = colWords(sec.inB);
                            for (uint32_t w = 0; w < wpc; ++w)
                                out[w] = ~(a[w] | b[w]);
                            break;
                          }
                        }
                        continue;
                    }
                    switch (sec.kind) {
                      case SecKind::Init0:
                        for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                            uint64_t *out =
                                blockIfPresent(sec.outCol, b);
                            if (out)
                                std::fill(out, out + blockWords(b),
                                          0);
                        }
                        break;
                      case SecKind::Init1:
                        for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                            uint64_t *out = blockRW(sec.outCol, b);
                            std::fill(out, out + blockWords(b),
                                      ~0ull);
                        }
                        break;
                      case SecKind::NotNor:
                        for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                            const bool aIn =
                                blockRO(sec.inA, b) != nullptr;
                            const bool bIn =
                                blockRO(sec.inB, b) != nullptr;
                            if (!aIn && !bIn)
                                continue;
                            uint64_t *out =
                                blockIfPresent(sec.outCol, b);
                            if (!out)
                                continue;
                            // Inputs AFTER the output clone step.
                            const uint64_t *a =
                                aIn ? blockRO(sec.inA, b)
                                    : kZeroBlock;
                            const uint64_t *bb =
                                bIn ? blockRO(sec.inB, b)
                                    : kZeroBlock;
                            const uint32_t used = blockWords(b);
                            for (uint32_t w = 0; w < used; ++w)
                                out[w] &= ~(a[w] | bb[w]);
                        }
                        break;
                      case SecKind::FusedNotNor:
                        for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                            uint64_t *out = blockRW(sec.outCol, b);
                            const uint64_t *a = blockRO(sec.inA, b);
                            const uint64_t *bb = blockRO(sec.inB, b);
                            if (!a)
                                a = kZeroBlock;
                            if (!bb)
                                bb = kZeroBlock;
                            const uint32_t used = blockWords(b);
                            for (uint32_t w = 0; w < used; ++w)
                                out[w] = ~(a[w] | bb[w]);
                        }
                        break;
                    }
                }
                break;
            }
            // Partial mask: the mask-nonzero block scan runs once for
            // the whole pass.
            if (kPaged)
                for (uint32_t b = 0; b < blocksPerCol_; ++b)
                    maskNZ[b] = !allZero(m + b * kBlockWords,
                                         blockWords(b));
            for (uint32_t s = 0; s < in.count; ++s) {
                const ReplayProgram::PSection &sec = secs[s];
                if (!kPaged) {
                    uint64_t *out = colWords(sec.outCol);
                    switch (sec.kind) {
                      case SecKind::Init0:
                        for (uint32_t w = 0; w < wpc; ++w)
                            out[w] &= ~m[w];
                        break;
                      case SecKind::Init1:
                        for (uint32_t w = 0; w < wpc; ++w)
                            out[w] |= m[w];
                        break;
                      case SecKind::NotNor: {
                        const uint64_t *a = colWords(sec.inA);
                        const uint64_t *b = colWords(sec.inB);
                        for (uint32_t w = 0; w < wpc; ++w)
                            out[w] &= ~((a[w] | b[w]) & m[w]);
                        break;
                      }
                      case SecKind::FusedNotNor: {
                        const uint64_t *a = colWords(sec.inA);
                        const uint64_t *b = colWords(sec.inB);
                        for (uint32_t w = 0; w < wpc; ++w)
                            out[w] = (out[w] & ~m[w]) |
                                     (~(a[w] | b[w]) & m[w]);
                        break;
                      }
                    }
                    continue;
                }
                switch (sec.kind) {
                  case SecKind::Init0:
                    for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                        if (!maskNZ[b])
                            continue;
                        uint64_t *out = blockIfPresent(sec.outCol, b);
                        if (!out)
                            continue;
                        const uint64_t *mb = m + b * kBlockWords;
                        const uint32_t used = blockWords(b);
                        for (uint32_t w = 0; w < used; ++w)
                            out[w] &= ~mb[w];
                    }
                    break;
                  case SecKind::Init1:
                    for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                        if (!maskNZ[b])
                            continue;
                        uint64_t *out = blockRW(sec.outCol, b);
                        const uint64_t *mb = m + b * kBlockWords;
                        const uint32_t used = blockWords(b);
                        for (uint32_t w = 0; w < used; ++w)
                            out[w] |= mb[w];
                    }
                    break;
                  case SecKind::NotNor:
                    for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                        if (!maskNZ[b])
                            continue;
                        const bool aIn =
                            blockRO(sec.inA, b) != nullptr;
                        const bool bIn =
                            blockRO(sec.inB, b) != nullptr;
                        if (!aIn && !bIn)
                            continue;
                        uint64_t *out = blockIfPresent(sec.outCol, b);
                        if (!out)
                            continue;
                        const uint64_t *a =
                            aIn ? blockRO(sec.inA, b) : kZeroBlock;
                        const uint64_t *bb =
                            bIn ? blockRO(sec.inB, b) : kZeroBlock;
                        const uint64_t *mb = m + b * kBlockWords;
                        const uint32_t used = blockWords(b);
                        for (uint32_t w = 0; w < used; ++w)
                            out[w] &= ~((a[w] | bb[w]) & mb[w]);
                    }
                    break;
                  case SecKind::FusedNotNor:
                    for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                        if (!maskNZ[b])
                            continue;
                        uint64_t *out = blockRW(sec.outCol, b);
                        const uint64_t *a = blockRO(sec.inA, b);
                        const uint64_t *bb = blockRO(sec.inB, b);
                        if (!a)
                            a = kZeroBlock;
                        if (!bb)
                            bb = kZeroBlock;
                        const uint64_t *mb = m + b * kBlockWords;
                        const uint32_t used = blockWords(b);
                        for (uint32_t w = 0; w < used; ++w)
                            out[w] = (out[w] & ~mb[w]) |
                                     (~(a[w] | bb[w]) & mb[w]);
                    }
                    break;
                }
            }
            break;
          }
          case ReplayProgram::Kind::WStripe: {
            // The representation was fixed at program entry: call the
            // paged bodies directly, because the public entries may
            // promote, and the instructions after this one would then
            // run paged kernels on a slab.
            const std::span<const StripeWrite> ws{
                prog.pairs.data() + in.off, in.count};
            const std::span<const uint64_t> mask{
                prog.maskWords.data() + in.maskOff, wpc};
            if (kFull || in.maskFull) {
                if (kPaged)
                    writeStripeFullPaged(ws);
                else
                    writeStripeFull(ws);
            } else {
                if (kPaged)
                    writeStripePaged(ws, mask);
                else
                    writeStripe(ws, mask);
            }
            break;
          }
          case ReplayProgram::Kind::VRun: {
            // Pre-decoded run, applied column-major: every gate of
            // the run touches one partition column while its words
            // are hot (the compiler made the run's range uniform).
            const ReplayProgram::VGate *gs =
                prog.vgates.data() + in.off;
            for (uint32_t part = 0; part < geo_->partitions; ++part) {
                const uint32_t col = part * pw + in.slot;
                if (kPaged) {
                    for (uint32_t k = 0; k < in.count; ++k) {
                        const ReplayProgram::VGate &g = gs[k];
                        const uint32_t bOut =
                            g.outWord / kBlockWords;
                        const uint32_t relOut =
                            g.outWord % kBlockWords;
                        switch (g.gate) {
                          case Gate::Init0: {
                            uint64_t *blk = blockIfPresent(col, bOut);
                            if (blk)
                                blk[relOut] &= ~g.outBit;
                            break;
                          }
                          case Gate::Init1:
                            blockRW(col, bOut)[relOut] |= g.outBit;
                            break;
                          case Gate::Not: {
                            const uint64_t *inb =
                                blockRO(col, g.inWord / kBlockWords);
                            const bool v =
                                inb &&
                                ((inb[g.inWord % kBlockWords] >>
                                  g.inShift) &
                                 1);
                            if (!v)
                                break;
                            uint64_t *out = blockIfPresent(col, bOut);
                            if (out)
                                out[relOut] &= ~g.outBit;
                            break;
                          }
                          case Gate::Nor:
                            break;  // unreachable: rejected earlier
                        }
                    }
                    continue;
                }
                uint64_t *words = colWords(col);
                for (uint32_t k = 0; k < in.count; ++k) {
                    const ReplayProgram::VGate &g = gs[k];
                    switch (g.gate) {
                      case Gate::Init0:
                        words[g.outWord] &= ~g.outBit;
                        break;
                      case Gate::Init1:
                        words[g.outWord] |= g.outBit;
                        break;
                      case Gate::Not:
                        if ((words[g.inWord] >> g.inShift) & 1)
                            words[g.outWord] &= ~g.outBit;
                        break;
                      case Gate::Nor:
                        break;  // unreachable: rejected earlier
                    }
                }
            }
            break;
          }
        }
    }
}

/**
 * The ISA builds of the compiled-replay executor. Each entry is the one
 * replayProgramT source, forced inline into a function compiled for
 * one target, so its word loops vectorise at that ISA's register width
 * (at -O3, which is how Release and the end-to-end benchmark build).
 * Only these entries carry a target attribute: every inline or
 * template function the executor calls without inlining it (std::fill,
 * the block-table helpers) keeps the default target, so no code shared
 * with other translation units is ever built for an ISA the host may
 * lack. The builds are picked through a plain table, never an ifunc,
 * so tests can run each one and sanitizer builds need no resolver.
 *
 * To add a build: one entry with its target attribute, and one row in
 * kReplayBuilds (widest ISA first) whose supported() tests the host
 * for that target with __builtin_cpu_supports.
 */
struct ReplayKernels
{
    /** The four specialisations; the representation is fixed. */
    [[gnu::always_inline]] static inline void
    dispatch(Crossbar &x, const ReplayProgram &prog, uint32_t self,
             Stats *work)
    {
        if (!x.slab_) {
            if (prog.allMasksFull)
                x.replayProgramT<true, true>(prog, self, work);
            else
                x.replayProgramT<true, false>(prog, self, work);
        } else {
            if (prog.allMasksFull)
                x.replayProgramT<false, true>(prog, self, work);
            else
                x.replayProgramT<false, false>(prog, self, work);
        }
    }

#if PYPIM_REPLAY_X86_BUILDS
    [[gnu::target("arch=x86-64-v4")]] static void
    x86v4(Crossbar &x, const ReplayProgram &prog, uint32_t self,
          Stats *work)
    {
        dispatch(x, prog, self, work);
    }
    static bool hostV4() { return __builtin_cpu_supports("x86-64-v4"); }

    [[gnu::target("arch=x86-64-v3")]] static void
    x86v3(Crossbar &x, const ReplayProgram &prog, uint32_t self,
          Stats *work)
    {
        dispatch(x, prog, self, work);
    }
    static bool hostV3() { return __builtin_cpu_supports("x86-64-v3"); }
#endif

    static void
    base(Crossbar &x, const ReplayProgram &prog, uint32_t self,
         Stats *work)
    {
        dispatch(x, prog, self, work);
    }
    static bool always() { return true; }
};

namespace
{

const Crossbar::ReplayBuild kReplayBuilds[] = {
#if PYPIM_REPLAY_X86_BUILDS
    {"x86-64-v4", &ReplayKernels::hostV4, &ReplayKernels::x86v4},
    {"x86-64-v3", &ReplayKernels::hostV3, &ReplayKernels::x86v3},
#endif
    {"default", &ReplayKernels::always, &ReplayKernels::base},
};

/** The build replayProgram runs (first use picks the host's widest). */
std::atomic<const Crossbar::ReplayBuild *> &
activeReplayBuild()
{
    static std::atomic<const Crossbar::ReplayBuild *> active{[] {
        for (const Crossbar::ReplayBuild &b : kReplayBuilds)
            if (b.supported())
                return &b;
        return &kReplayBuilds[std::size(kReplayBuilds) - 1];
    }()};
    return active;
}

} // namespace

std::span<const Crossbar::ReplayBuild>
Crossbar::replayBuilds()
{
    return kReplayBuilds;
}

const Crossbar::ReplayBuild &
Crossbar::replayBuild()
{
    return *activeReplayBuild().load(std::memory_order_relaxed);
}

void
Crossbar::useReplayBuild(const ReplayBuild &b)
{
    fatalIf(!b.supported(), std::string("replay build '") + b.name +
                                "' needs an ISA this host lacks");
    activeReplayBuild().store(&b, std::memory_order_relaxed);
}

void
Crossbar::replayProgram(const ReplayProgram &prog, uint32_t self,
                        Stats *work)
{
    // One dispatch per (segment, crossbar) into the specialization
    // lattice: the storage test and the blend-vs-fill choice are
    // decided in the build, outside the hot loops.
    maybePromote();
    activeReplayBuild().load(std::memory_order_relaxed)->run(*this, prog,
                                                              self, work);
}

// --- strided read/write -------------------------------------------------

void
Crossbar::write(uint32_t slot, uint32_t value,
                std::span<const uint64_t> rowMask)
{
    panicIf(rowMask.size() != wordsPerCol_,
            "write: row mask width mismatch");
    if (pagedOpEntry()) {
        writePaged(slot, value, rowMask);
        return;
    }
    const uint32_t pw = geo_->partitionWidth();
    for (uint32_t p = 0; p < geo_->wordBits; ++p) {
        uint64_t *words = colWords(p * pw + slot);
        if ((value >> p) & 1) {
            for (uint32_t w = 0; w < wordsPerCol_; ++w)
                words[w] |= rowMask[w];
        } else {
            for (uint32_t w = 0; w < wordsPerCol_; ++w)
                words[w] &= ~rowMask[w];
        }
    }
}

void
Crossbar::writePaged(uint32_t slot, uint32_t value,
                     std::span<const uint64_t> rowMask)
{
    uint8_t maskNZ[kMaxBlocksPerCol];
    for (uint32_t b = 0; b < blocksPerCol_; ++b)
        maskNZ[b] =
            !allZero(rowMask.data() + b * kBlockWords, blockWords(b));
    const uint32_t pw = geo_->partitionWidth();
    for (uint32_t p = 0; p < geo_->wordBits; ++p) {
        const uint32_t col = p * pw + slot;
        const bool set = (value >> p) & 1;
        for (uint32_t b = 0; b < blocksPerCol_; ++b) {
            if (!maskNZ[b])
                continue;  // no selected row in this block
            const uint64_t *m = rowMask.data() + b * kBlockWords;
            const uint32_t used = blockWords(b);
            if (set) {
                uint64_t *blk = blockRW(col, b);
                for (uint32_t w = 0; w < used; ++w)
                    blk[w] |= m[w];
            } else {
                // Writing a 0 bit only clears: absent stays absent.
                uint64_t *blk = blockIfPresent(col, b);
                if (!blk)
                    continue;
                for (uint32_t w = 0; w < used; ++w)
                    blk[w] &= ~m[w];
            }
        }
    }
}

void
Crossbar::writeStripe(std::span<const StripeWrite> ws,
                      std::span<const uint64_t> rowMask)
{
    panicIf(rowMask.size() != wordsPerCol_,
            "writeStripe: row mask width mismatch");
    if (pagedOpEntry()) {
        writeStripePaged(ws, rowMask);
        return;
    }
    // Partition-major: every stripe column of partition p is written
    // while the mask words are hot. The slots are pairwise distinct
    // (fuser invariant), so the column sets are disjoint and this
    // order is bit-identical to sequential application.
    const uint32_t pw = geo_->partitionWidth();
    for (uint32_t p = 0; p < geo_->wordBits; ++p) {
        for (const StripeWrite &sw : ws) {
            uint64_t *words = colWords(p * pw + sw.slot);
            if ((sw.value >> p) & 1) {
                for (uint32_t w = 0; w < wordsPerCol_; ++w)
                    words[w] |= rowMask[w];
            } else {
                for (uint32_t w = 0; w < wordsPerCol_; ++w)
                    words[w] &= ~rowMask[w];
            }
        }
    }
}

void
Crossbar::writeStripePaged(std::span<const StripeWrite> ws,
                           std::span<const uint64_t> rowMask)
{
    uint8_t maskNZ[kMaxBlocksPerCol];
    for (uint32_t b = 0; b < blocksPerCol_; ++b)
        maskNZ[b] =
            !allZero(rowMask.data() + b * kBlockWords, blockWords(b));
    const uint32_t pw = geo_->partitionWidth();
    for (uint32_t p = 0; p < geo_->wordBits; ++p) {
        for (const StripeWrite &sw : ws) {
            const uint32_t col = p * pw + sw.slot;
            const bool set = (sw.value >> p) & 1;
            for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                if (!maskNZ[b])
                    continue;
                const uint64_t *m = rowMask.data() + b * kBlockWords;
                const uint32_t used = blockWords(b);
                if (set) {
                    uint64_t *blk = blockRW(col, b);
                    for (uint32_t w = 0; w < used; ++w)
                        blk[w] |= m[w];
                } else {
                    uint64_t *blk = blockIfPresent(col, b);
                    if (!blk)
                        continue;
                    for (uint32_t w = 0; w < used; ++w)
                        blk[w] &= ~m[w];
                }
            }
        }
    }
}

void
Crossbar::writeStripeFull(std::span<const StripeWrite> ws)
{
    if (pagedOpEntry()) {
        writeStripeFullPaged(ws);
        return;
    }
    const uint32_t pw = geo_->partitionWidth();
    for (uint32_t p = 0; p < geo_->wordBits; ++p) {
        for (const StripeWrite &sw : ws) {
            uint64_t *words = colWords(p * pw + sw.slot);
            std::fill(words, words + wordsPerCol_,
                      (sw.value >> p) & 1 ? ~0ull : 0);
        }
    }
}

void
Crossbar::writeStripeFullPaged(std::span<const StripeWrite> ws)
{
    const uint32_t pw = geo_->partitionWidth();
    for (uint32_t p = 0; p < geo_->wordBits; ++p) {
        for (const StripeWrite &sw : ws) {
            const uint32_t col = p * pw + sw.slot;
            if ((sw.value >> p) & 1) {
                for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                    uint64_t *blk = blockRW(col, b);
                    std::fill(blk, blk + blockWords(b), ~0ull);
                }
            } else {
                for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                    uint64_t *blk = blockIfPresent(col, b);
                    if (blk)
                        std::fill(blk, blk + blockWords(b), 0);
                }
            }
        }
    }
}

uint32_t
Crossbar::read(uint32_t slot, uint32_t row) const
{
    const uint32_t pw = geo_->partitionWidth();
    const uint32_t off = row % 64;
    uint32_t value = 0;
    if (!slab_) {
        if (table_.empty())
            return 0;  // never densified: architectural zeros
        const uint32_t wIdx = row / 64;
        const uint32_t b = wIdx / kBlockWords;
        const uint32_t rel = wIdx % kBlockWords;
        // The planes' table entries are a constant stride apart —
        // index directly instead of re-deriving the block pointer
        // through blockRO per bit.
        const size_t base =
            static_cast<size_t>(slot) * blocksPerCol_ + b;
        const size_t stride =
            static_cast<size_t>(pw) * blocksPerCol_;
        const BlockPool &pool = *pool_;
        for (uint32_t p = 0; p < geo_->wordBits; ++p) {
            const uint32_t id = table_[base + p * stride];
            if (id != kAbsent)
                value |= static_cast<uint32_t>(
                             (pool.words(id)[rel] >> off) & 1)
                         << p;
        }
        return value;
    }
    // Same hoist for the dense slab: one base pointer + plane stride.
    const uint64_t *word =
        state_.data() + static_cast<size_t>(slot) * wordsPerCol_ +
        row / 64;
    const size_t stride = static_cast<size_t>(pw) * wordsPerCol_;
    for (uint32_t p = 0; p < geo_->wordBits; ++p)
        value |= static_cast<uint32_t>((word[p * stride] >> off) & 1)
                 << p;
    return value;
}

void
Crossbar::writeRow(uint32_t slot, uint32_t value, uint32_t row)
{
    const uint32_t pw = geo_->partitionWidth();
    const uint64_t bit = 1ull << (row % 64);
    if (!slab_) {
        if (value == 0 && table_.empty())
            return;  // clearing architectural zeros: no-op
        const uint32_t wIdx = row / 64;
        const uint32_t b = wIdx / kBlockWords;
        const uint32_t rel = wIdx % kBlockWords;
        for (uint32_t p = 0; p < geo_->wordBits; ++p) {
            const uint32_t col = p * pw + slot;
            if ((value >> p) & 1) {
                blockRW(col, b)[rel] |= bit;
            } else {
                uint64_t *blk = blockIfPresent(col, b);
                if (blk)
                    blk[rel] &= ~bit;
            }
        }
        return;
    }
    uint64_t *word =
        state_.data() + static_cast<size_t>(slot) * wordsPerCol_ +
        row / 64;
    const size_t stride = static_cast<size_t>(pw) * wordsPerCol_;
    for (uint32_t p = 0; p < geo_->wordBits; ++p) {
        if ((value >> p) & 1)
            word[p * stride] |= bit;
        else
            word[p * stride] &= ~bit;
    }
}

// --- bulk gather/scatter ------------------------------------------------

uint64_t
Crossbar::gatherRows(uint32_t slot, uint32_t row, uint32_t count,
                     uint32_t *out) const
{
    panicIf(static_cast<uint64_t>(row) + count > geo_->rows,
            "gatherRows: row window exceeds crossbar height");
    if (count == 0)
        return 0;
    if (!slab_)
        return gatherRowsPaged(slot, row, count, out);

    const uint32_t pw = geo_->partitionWidth();
    const uint64_t *col0 =
        state_.data() + static_cast<size_t>(slot) * wordsPerCol_;
    const size_t stride = static_cast<size_t>(pw) * wordsPerCol_;
    uint64_t transposed = 0;
    uint32_t done = 0;
    while (done < count) {
        const uint32_t r = row + done;
        const uint32_t wIdx = r / 64;
        const uint32_t off = r % 64;
        const uint32_t take = std::min<uint32_t>(64 - off, count - done);
        uint64_t m[64];
        uint32_t p = 0;
        for (; p < geo_->wordBits; ++p)
            m[p] = col0[p * stride + wIdx];
        for (; p < 64; ++p)
            m[p] = 0;
        transpose64(m);
        transposed += 64;
        for (uint32_t k = 0; k < take; ++k)
            out[done + k] = static_cast<uint32_t>(m[off + k]);
        done += take;
    }
    return transposed;
}

uint64_t
Crossbar::gatherRowsPaged(uint32_t slot, uint32_t row, uint32_t count,
                          uint32_t *out) const
{
    if (table_.empty()) {
        std::fill(out, out + count, 0u);
        return 0;
    }
    const uint32_t pw = geo_->partitionWidth();
    const size_t stride = static_cast<size_t>(pw) * blocksPerCol_;
    const BlockPool &pool = *pool_;
    uint64_t transposed = 0;
    uint32_t done = 0;
    while (done < count) {
        const uint32_t r = row + done;
        const uint32_t wIdx = r / 64;
        const uint32_t off = r % 64;
        const uint32_t take = std::min<uint32_t>(64 - off, count - done);
        const uint32_t b = wIdx / kBlockWords;
        const uint32_t rel = wIdx % kBlockWords;
        const size_t base =
            static_cast<size_t>(slot) * blocksPerCol_ + b;
        uint64_t m[64];
        uint64_t any = 0;
        uint32_t p = 0;
        for (; p < geo_->wordBits; ++p) {
            const uint32_t id = table_[base + p * stride];
            m[p] = id == kAbsent ? 0 : pool.words(id)[rel];
            any |= m[p];
        }
        for (; p < 64; ++p)
            m[p] = 0;
        if (!any) {
            // Absent (or decayed-to-zero) source window: the values
            // are architectural zeros — no transpose needed.
            std::fill(out + done, out + done + take, 0u);
            done += take;
            continue;
        }
        transpose64(m);
        transposed += 64;
        for (uint32_t k = 0; k < take; ++k)
            out[done + k] = static_cast<uint32_t>(m[off + k]);
        done += take;
    }
    return transposed;
}

uint64_t
Crossbar::scatterRows(uint32_t slot, uint32_t row, uint32_t count,
                      const uint32_t *values)
{
    panicIf(static_cast<uint64_t>(row) + count > geo_->rows,
            "scatterRows: row window exceeds crossbar height");
    if (count == 0)
        return 0;
    if (!slab_)
        return scatterRowsPaged(slot, row, count, values);

    const uint32_t pw = geo_->partitionWidth();
    uint64_t *col0 =
        state_.data() + static_cast<size_t>(slot) * wordsPerCol_;
    const size_t stride = static_cast<size_t>(pw) * wordsPerCol_;
    uint64_t transposed = 0;
    uint32_t done = 0;
    while (done < count) {
        const uint32_t r = row + done;
        const uint32_t wIdx = r / 64;
        const uint32_t off = r % 64;
        const uint32_t take = std::min<uint32_t>(64 - off, count - done);
        const uint64_t wmask = windowMask(off, take);
        uint64_t m[64] = {};
        uint64_t any = 0;
        for (uint32_t k = 0; k < take; ++k) {
            m[off + k] = values[done + k];
            any |= m[off + k];
        }
        if (!any) {
            // All-zero input window: pure clear, no transpose.
            for (uint32_t p = 0; p < geo_->wordBits; ++p)
                col0[p * stride + wIdx] &= ~wmask;
            done += take;
            continue;
        }
        transpose64(m);
        transposed += 64;
        for (uint32_t p = 0; p < geo_->wordBits; ++p) {
            uint64_t &w = col0[p * stride + wIdx];
            w = (w & ~wmask) | m[p];
        }
        done += take;
    }
    return transposed;
}

uint64_t
Crossbar::scatterRowsPaged(uint32_t slot, uint32_t row, uint32_t count,
                           const uint32_t *values)
{
    const uint32_t pw = geo_->partitionWidth();
    uint64_t transposed = 0;
    uint32_t done = 0;
    while (done < count) {
        const uint32_t r = row + done;
        const uint32_t wIdx = r / 64;
        const uint32_t off = r % 64;
        const uint32_t take = std::min<uint32_t>(64 - off, count - done);
        const uint64_t wmask = windowMask(off, take);
        const uint32_t b = wIdx / kBlockWords;
        const uint32_t rel = wIdx % kBlockWords;
        uint64_t m[64] = {};
        uint64_t any = 0;
        for (uint32_t k = 0; k < take; ++k) {
            m[off + k] = values[done + k];
            any |= m[off + k];
        }
        if (!any) {
            // All-zero input window clears present blocks only —
            // absent blocks stay absent (elision preserved).
            for (uint32_t p = 0; p < geo_->wordBits; ++p) {
                uint64_t *blk = blockIfPresent(p * pw + slot, b);
                if (blk)
                    blk[rel] &= ~wmask;
            }
            done += take;
            continue;
        }
        transpose64(m);
        transposed += 64;
        for (uint32_t p = 0; p < geo_->wordBits; ++p) {
            const uint32_t col = p * pw + slot;
            if (m[p]) {
                // blockRW may relocate the pool — no caching across
                // planes.
                uint64_t *blk = blockRW(col, b);
                blk[rel] = (blk[rel] & ~wmask) | m[p];
            } else {
                uint64_t *blk = blockIfPresent(col, b);
                if (blk)
                    blk[rel] &= ~wmask;
            }
        }
        done += take;
    }
    return transposed;
}

bool
Crossbar::bit(uint32_t row, uint32_t col) const
{
    if (!slab_) {
        const uint32_t wIdx = row / 64;
        const uint64_t *blk = blockRO(col, wIdx / kBlockWords);
        return blk &&
               ((blk[wIdx % kBlockWords] >> (row % 64)) & 1);
    }
    return (colWords(col)[row / 64] >> (row % 64)) & 1;
}

void
Crossbar::setBit(uint32_t row, uint32_t col, bool v)
{
    const uint64_t bit = 1ull << (row % 64);
    if (!slab_) {
        const uint32_t wIdx = row / 64;
        const uint32_t b = wIdx / kBlockWords;
        const uint32_t rel = wIdx % kBlockWords;
        if (v) {
            blockRW(col, b)[rel] |= bit;
        } else {
            uint64_t *blk = blockIfPresent(col, b);
            if (blk)
                blk[rel] &= ~bit;
        }
        return;
    }
    uint64_t *words = colWords(col);
    if (v)
        words[row / 64] |= bit;
    else
        words[row / 64] &= ~bit;
}

// --- snapshots, compaction, comparison ----------------------------------

Crossbar::Snapshot::Snapshot(const Snapshot &o)
    : geo_(o.geo_),
      wordsPerCol_(o.wordsPerCol_),
      blocksPerCol_(o.blocksPerCol_),
      pool_(o.pool_),
      table_(o.table_),
      dense_(o.dense_)
{
    if (pool_)
        for (const uint32_t id : table_)
            if (id != kAbsent)
                pool_->ref(id);
}

Crossbar::Snapshot &
Crossbar::Snapshot::operator=(const Snapshot &o)
{
    if (this != &o) {
        Snapshot tmp(o);
        *this = std::move(tmp);
    }
    return *this;
}

Crossbar::Snapshot::Snapshot(Snapshot &&o) noexcept
    : geo_(o.geo_),
      wordsPerCol_(o.wordsPerCol_),
      blocksPerCol_(o.blocksPerCol_),
      pool_(std::move(o.pool_)),
      table_(std::move(o.table_)),
      dense_(std::move(o.dense_))
{
    o.table_.clear();  // the destructor must not double-unref
    o.dense_.clear();
}

Crossbar::Snapshot &
Crossbar::Snapshot::operator=(Snapshot &&o) noexcept
{
    if (this != &o) {
        release();
        geo_ = o.geo_;
        wordsPerCol_ = o.wordsPerCol_;
        blocksPerCol_ = o.blocksPerCol_;
        pool_ = std::move(o.pool_);
        table_ = std::move(o.table_);
        dense_ = std::move(o.dense_);
        o.table_.clear();
        o.dense_.clear();
    }
    return *this;
}

Crossbar::Snapshot::~Snapshot() { release(); }

void
Crossbar::Snapshot::release()
{
    if (pool_)
        for (const uint32_t id : table_)
            if (id != kAbsent)
                pool_->unref(id);
    pool_.reset();
    table_.clear();
    dense_.clear();
}

const uint64_t *
Crossbar::Snapshot::blockRO(uint32_t col, uint32_t b) const
{
    if (!dense_.empty())
        return dense_.data() +
               static_cast<size_t>(col) * wordsPerCol_ +
               static_cast<size_t>(b) * kBlockWords;
    if (table_.empty())
        return nullptr;
    const uint32_t id =
        table_[static_cast<size_t>(col) * blocksPerCol_ + b];
    return id == kAbsent ? nullptr : pool_->words(id);
}

uint32_t
Crossbar::Snapshot::read(uint32_t slot, uint32_t row) const
{
    const uint32_t pw = geo_->partitionWidth();
    const uint32_t wIdx = row / 64;
    const uint32_t b = wIdx / kBlockWords;
    const uint32_t rel = wIdx % kBlockWords;
    uint32_t value = 0;
    for (uint32_t p = 0; p < geo_->wordBits; ++p) {
        const uint64_t *blk = blockRO(p * pw + slot, b);
        const uint32_t v =
            blk ? static_cast<uint32_t>((blk[rel] >> (row % 64)) & 1)
                : 0;
        value |= v << p;
    }
    return value;
}

bool
Crossbar::Snapshot::bit(uint32_t row, uint32_t col) const
{
    const uint32_t wIdx = row / 64;
    const uint64_t *blk = blockRO(col, wIdx / kBlockWords);
    return blk && ((blk[wIdx % kBlockWords] >> (row % 64)) & 1);
}

Crossbar::Snapshot
Crossbar::snapshot() const
{
    Snapshot s;
    s.geo_ = geo_;
    s.wordsPerCol_ = wordsPerCol_;
    s.blocksPerCol_ = blocksPerCol_;
    if (slab_) {
        s.dense_ = state_;
        return s;
    }
    // O(live data): share every present block, bumping its refcount.
    // Subsequent mutation of the source clones exactly the blocks it
    // touches (blockRW/blockIfPresent check refCount > 1).
    s.pool_ = pool_;
    s.table_ = table_;
    if (pool_)
        for (const uint32_t id : s.table_)
            if (id != kAbsent)
                pool_->ref(id);
    return s;
}

void
Crossbar::restore(const Snapshot &s)
{
    panicIf(s.wordsPerCol_ != wordsPerCol_ ||
                (s.geo_ && s.geo_->cols != geo_->cols),
            "restore: snapshot from a different geometry");
    if (storage_ == XbarStorage::Dense) {
        panicIf(s.dense_.empty() && !s.table_.empty(),
                "restore: paged snapshot into a dense crossbar");
        if (s.dense_.empty())
            std::fill(state_.begin(), state_.end(), 0);
        else
            state_ = s.dense_;
        return;
    }
    // Adaptive crossbar: take on the snapshot's representation.
    if (!s.dense_.empty()) {
        releaseBlocks();
        state_ = s.dense_;
        slab_ = true;
        return;
    }
    panicIf(s.pool_ && s.pool_->owner() != poolOwner_,
            "restore: snapshot was taken from a different crossbar");
    if (slab_) {
        Slab().swap(state_);
        slab_ = false;
    }
    // Re-adopt the snapshot's shared blocks: ref the incoming set
    // first so self-restore never transiently frees a block. The
    // snapshot may hold an older pool of this crossbar (one from
    // before a promotion); every id then moves over to that pool.
    if (s.pool_)
        for (const uint32_t id : s.table_)
            if (id != kAbsent)
                s.pool_->ref(id);
    if (pool_)
        for (const uint32_t id : table_)
            if (id != kAbsent)
                pool_->unref(id);
    table_ = s.table_;
    if (s.pool_)
        pool_ = s.pool_;
    present_ = static_cast<uint32_t>(
        table_.size() - std::count(table_.begin(), table_.end(), kAbsent));
}

uint64_t
Crossbar::compact()
{
    if (storage_ == XbarStorage::Dense)
        return 0;
    if (slab_) {
        // The only demotion: a promoted slab that has decayed below
        // the promotion share goes back to paged, keeping only its
        // non-zero blocks.
        uint64_t nonZero = 0;
        for (uint32_t col = 0; col < geo_->cols; ++col)
            for (uint32_t b = 0; b < blocksPerCol_; ++b)
                nonZero += !allZero(colWords(col) + b * kBlockWords,
                                    blockWords(b));
        if (atPromoteShare(nonZero))
            return 0;
        Slab slab;
        slab.swap(state_);
        slab_ = false;
        for (uint32_t col = 0; col < geo_->cols; ++col) {
            for (uint32_t b = 0; b < blocksPerCol_; ++b) {
                const uint64_t *w = slab.data() +
                                    static_cast<size_t>(col) * wordsPerCol_ +
                                    b * kBlockWords;
                if (!allZero(w, blockWords(b)))
                    std::copy(w, w + blockWords(b), blockRW(col, b));
            }
        }
        return gridBlocks() - nonZero;
    }
    if (table_.empty())
        return 0;
    uint64_t elided = 0;
    for (uint32_t col = 0; col < geo_->cols; ++col) {
        for (uint32_t b = 0; b < blocksPerCol_; ++b) {
            uint32_t &id = table_[tableIndex(col, b)];
            if (id == kAbsent)
                continue;
            if (allZero(pool_->words(id), blockWords(b))) {
                pool_->unref(id);
                id = kAbsent;
                ++elided;
            }
        }
    }
    present_ -= static_cast<uint32_t>(elided);
    return elided;
}

void
Crossbar::forEachNonZeroBlock(
    const std::function<void(uint32_t col, uint32_t b,
                             const uint64_t *w, uint32_t n)> &fn) const
{
    for (uint32_t col = 0; col < geo_->cols; ++col) {
        for (uint32_t b = 0; b < blocksPerCol_; ++b) {
            const uint64_t *w = slab_
                ? colWords(col) + b * kBlockWords
                : blockRO(col, b);
            if (!w)
                continue;
            const uint32_t used = blockWords(b);
            if (allZero(w, used))
                continue;
            fn(col, b, w, used);
        }
    }
}

void
Crossbar::Snapshot::forEachNonZeroBlock(
    const std::function<void(uint32_t col, uint32_t b,
                             const uint64_t *w, uint32_t n)> &fn) const
{
    for (uint32_t col = 0; col < (geo_ ? geo_->cols : 0); ++col) {
        for (uint32_t b = 0; b < blocksPerCol_; ++b) {
            const uint64_t *w = blockRO(col, b);
            if (!w)
                continue;
            const uint32_t base = b * kBlockWords;
            const uint32_t used = wordsPerCol_ - base < kBlockWords
                ? wordsPerCol_ - base
                : kBlockWords;
            if (allZero(w, used))
                continue;
            fn(col, b, w, used);
        }
    }
}

uint64_t
Crossbar::stateChecksum() const
{
    // FNV-1a over (col, block, words): position-sensitive so a block
    // moving columns changes the digest, and canonical-walk-based so
    // dense and paged in equal state digest equal.
    uint64_t h = 0xCBF29CE484222325ull;
    const auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001B3ull;
        }
    };
    forEachNonZeroBlock(
        [&](uint32_t col, uint32_t b, const uint64_t *w, uint32_t n) {
            mix((static_cast<uint64_t>(col) << 32) | b);
            for (uint32_t i = 0; i < n; ++i)
                mix(w[i]);
        });
    return h;
}

void
Crossbar::resetState()
{
    if (slab_) {
        std::fill(state_.begin(), state_.end(), 0);
        return;
    }
    for (uint32_t &id : table_) {
        if (id != kAbsent) {
            pool_->unref(id);
            id = kAbsent;
        }
    }
    present_ = 0;
}

void
Crossbar::loadBlock(uint32_t col, uint32_t b, const uint64_t *w,
                    uint32_t n)
{
    panicIf(col >= geo_->cols || b >= blocksPerCol_ ||
                n > blockWords(b),
            "loadBlock: record outside this crossbar's geometry");
    if (allZero(w, n))
        return;  // canonical images never carry these anyway
    if (slab_) {
        uint64_t *dst = colWords(col) + b * kBlockWords;
        std::copy(w, w + n, dst);
        return;
    }
    uint64_t *dst = blockRW(col, b);
    std::copy(w, w + n, dst);
    // A short tail record leaves the block's trailing words whatever
    // blockRW materialised; alloc() zeroes fresh blocks, and restore
    // resets state first, so the tail is zero either way.
}

StorageGauges
Crossbar::storageGauges() const
{
    StorageGauges g;
    const uint64_t total = gridBlocks();
    g.blocksTotal = total;
    if (slab_) {
        // The flat slab materialises everything.
        g.blocksPresent = total;
        g.residentBytes = state_.capacity() * sizeof(uint64_t);
        g.slabCrossbars = 1;
        return g;
    }
    for (const uint32_t id : table_) {
        if (id == kAbsent)
            continue;
        ++g.blocksPresent;
        if (pool_->refCount(id) > 1)
            ++g.cowShared;
    }
    g.blocksElided = total - g.blocksPresent;
    g.residentBytes = table_.capacity() * sizeof(uint32_t) +
                      (pool_ ? pool_->residentBytes() : 0);
    return g;
}

bool
Crossbar::sameState(const Crossbar &other) const
{
    if (slab_ && other.slab_)
        return state_ == other.state_;
    // Canonical per-block walk: an absent block equals an all-zero
    // materialised one, so dense-vs-paged comparison is direct and
    // paged-vs-paged touches only present blocks.
    for (uint32_t col = 0; col < geo_->cols; ++col) {
        for (uint32_t b = 0; b < blocksPerCol_; ++b) {
            const uint64_t *a = slab_
                ? colWords(col) + b * kBlockWords
                : blockRO(col, b);
            const uint64_t *bw =
                other.slab_
                    ? other.colWords(col) + b * kBlockWords
                    : other.blockRO(col, b);
            if (a == bw)
                continue;  // shared block (or both absent)
            const uint32_t used = blockWords(b);
            if (!a) {
                if (!allZero(bw, used))
                    return false;
            } else if (!bw) {
                if (!allZero(a, used))
                    return false;
            } else if (!std::equal(a, a + used, bw)) {
                return false;
            }
        }
    }
    return true;
}

bool
Crossbar::sameState(const Snapshot &s) const
{
    for (uint32_t col = 0; col < geo_->cols; ++col) {
        for (uint32_t b = 0; b < blocksPerCol_; ++b) {
            const uint64_t *a = slab_
                ? colWords(col) + b * kBlockWords
                : blockRO(col, b);
            const uint64_t *bw = s.blockRO(col, b);
            if (a == bw)
                continue;
            const uint32_t used = blockWords(b);
            if (!a) {
                if (!allZero(bw, used))
                    return false;
            } else if (!bw) {
                if (!allZero(a, used))
                    return false;
            } else if (!std::equal(a, a + used, bw)) {
                return false;
            }
        }
    }
    return true;
}

} // namespace pypim
