#include "sim/crossbar.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <string>
#include <type_traits>

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

#if PYPIM_REPLAY_X86_BUILDS
#include <immintrin.h>
#endif

// Marks every function the replay executor calls on its hot path,
// accessor methods included: GCC inlines a function into a caller built
// for another target (the x86-64-v3/v4 builds) only when it is
// always_inline, and only inlined word loops vectorise at that width.
#define PYPIM_KERNEL [[gnu::always_inline]] inline

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

/** Words in block @p b of a column of @p wpc words (the tail block
 *  may be short). */
PYPIM_KERNEL uint32_t
blockLen(uint32_t wpc, uint32_t b)
{
    const uint32_t base = b * Crossbar::kBlockWords;
    return wpc - base < Crossbar::kBlockWords ? wpc - base
                                              : Crossbar::kBlockWords;
}

/** Words of block @p id of a paged crossbar's @p pool. */
template <class W>
PYPIM_KERNEL W *
poolBlock(W *pool, uint32_t id)
{
    return pool + static_cast<size_t>(id) * Crossbar::kBlockWords;
}

PYPIM_KERNEL bool
allZero(const uint64_t *w, uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i)
        if (w[i])
            return false;
    return true;
}

/** One stage of the tile transpose: swap the off-diagonal J x J
 *  blocks of every 2J x 2J block, @p m selecting their low halves. */
template <uint32_t J>
PYPIM_KERNEL void
transposeStage(uint64_t x[32], uint64_t m)
{
    for (uint32_t base = 0; base < 32; base += 2 * J) {
        for (uint32_t k = base; k < base + J; ++k) {
            const uint64_t t = ((x[k] >> J) ^ x[k + J]) & m;
            x[k] ^= t << J;
            x[k + J] ^= t;
        }
    }
}

/**
 * The host I/O tile transpose: 64 rows of 32-bit host words <-> 32
 * bit-plane words of the same 64 rows (bit k of plane p is bit p of
 * row k). Rows k and k+32 share word k of the tile, so the last five
 * stages of Hacker's Delight 7-3 (shift directions flipped for this
 * codebase's LSB-0 bit numbering) run two 32x32 transposes side by
 * side. The transform is its own inverse: gather and scatter share it.
 */
PYPIM_KERNEL void
transposeTile(uint64_t x[32])
{
    transposeStage<16>(x, 0x0000FFFF0000FFFFull);
    transposeStage<8>(x, 0x00FF00FF00FF00FFull);
    transposeStage<4>(x, 0x0F0F0F0F0F0F0F0Full);
    transposeStage<2>(x, 0x3333333333333333ull);
    transposeStage<1>(x, 0x5555555555555555ull);
}

/** Portable scatter tile: 64 host words to 32 plane words. */
void
scatterTilePortable(const uint32_t *values, uint64_t *planes)
{
    for (uint32_t k = 0; k < 32; ++k)
        planes[k] = values[k] | static_cast<uint64_t>(values[k + 32]) << 32;
    transposeTile(planes);
}

/** Portable gather tile: 32 plane words to 64 host words. */
void
gatherTilePortable(const uint64_t *planes, uint32_t *values)
{
    uint64_t x[32];
    std::copy_n(planes, 32, x);
    transposeTile(x);
    for (uint32_t k = 0; k < 32; ++k) {
        values[k] = static_cast<uint32_t>(x[k]);
        values[k + 32] = static_cast<uint32_t>(x[k] >> 32);
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

} // namespace

Crossbar::Crossbar(const Geometry &geo, XbarStorage storage)
    : geo_(&geo),
      wordsPerCol_((geo.rows + 63) / 64),
      blocksPerCol_((wordsPerCol_ + kBlockWords - 1) / kBlockWords),
      storage_(storage),
      slab_(storage == XbarStorage::Dense),
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
}

uint32_t
Crossbar::allocBlock()
{
    if (!free_.empty()) {
        const uint32_t id = free_.back();
        free_.pop_back();
        std::fill_n(poolBlock(pool_.data(), id), kBlockWords, 0);
        return id;
    }
    const auto id = static_cast<uint32_t>(pool_.size() / kBlockWords);
    pool_.resize(pool_.size() + kBlockWords, 0);
    return id;
}

void
Crossbar::releaseBlocks()
{
    std::vector<uint32_t>().swap(table_);
    std::vector<uint64_t>().swap(pool_);
    std::vector<uint32_t>().swap(free_);
    present_ = 0;
}

uint64_t *
Crossbar::blockRW(uint32_t col, uint32_t b)
{
    ensureTable();
    uint32_t &id = table_[tableIndex(col, b)];
    if (id == kAbsent) {
        id = allocBlock();
        ++present_;
    }
    return poolBlock(pool_.data(), id);
}

// --- block accessors ----------------------------------------------------

/**
 * The seam between the kernels and the storage: every mutating
 * primitive below is one template body over one of these two
 * accessors. Sweep access walks a column as blocks() blocks of
 * words(b) words, block b starting at word b * kBlockWords (the slab
 * is one block of wordsPerCol_ words, so b is always 0 there). Point
 * access addresses one word by its index in the column.
 *
 *  - ro() never returns null: an absent block reads as kZeroBlock.
 *  - rw() materialises an absent block.
 *  - ifPresent() returns null for an absent block: an op that can only
 *    clear bits leaves it absent.
 *
 * rw() may grow the pool and so move every block: within one
 * (section, block) step, fetch inputs with ro() only AFTER the
 * output's rw(). present() and ifPresent() never move a block.
 * kElides is false for the slab, so its presence checks and the
 * mask-nonzero block scan fold away, and blocks() == 1 folds the
 * block loop: the slab instantiation is the dense loop.
 */
struct Crossbar::SlabBlocks
{
    static constexpr bool kElides = false;

    uint64_t *base;
    uint32_t wpc;

    explicit SlabBlocks(Crossbar &x)
        : base(x.state_.data()), wpc(x.wordsPerCol_)
    {
    }

    static constexpr uint32_t blocks() { return 1; }
    static constexpr bool present(uint32_t, uint32_t) { return true; }
    PYPIM_KERNEL uint32_t words(uint32_t) const { return wpc; }
    PYPIM_KERNEL uint64_t *
    col(uint32_t c) const
    {
        return base + static_cast<size_t>(c) * wpc;
    }
    PYPIM_KERNEL const uint64_t *
    ro(uint32_t c, uint32_t) const
    {
        return col(c);
    }
    PYPIM_KERNEL uint64_t *rw(uint32_t c, uint32_t) const { return col(c); }
    PYPIM_KERNEL uint64_t *
    ifPresent(uint32_t c, uint32_t) const
    {
        return col(c);
    }

    PYPIM_KERNEL uint64_t
    wordRO(uint32_t c, uint32_t w) const
    {
        return col(c)[w];
    }
    PYPIM_KERNEL uint64_t *
    wordRW(uint32_t c, uint32_t w) const
    {
        return col(c) + w;
    }
    PYPIM_KERNEL uint64_t *
    wordIfPresent(uint32_t c, uint32_t w) const
    {
        return col(c) + w;
    }
};

/**
 * The table form reads the block table and the pool's words inline;
 * only rw() of an absent block leaves the kernel, through the one
 * out-of-line slow path blockRW.
 */
struct Crossbar::TableBlocks
{
    static constexpr bool kElides = true;

    Crossbar &x;

    explicit TableBlocks(Crossbar &xb) : x(xb) {}

    PYPIM_KERNEL uint32_t blocks() const { return x.blocksPerCol_; }
    PYPIM_KERNEL uint32_t
    words(uint32_t b) const
    {
        return blockLen(x.wordsPerCol_, b);
    }
    /** Block id of (c, b); kAbsent before the first densification. */
    PYPIM_KERNEL uint32_t
    id(uint32_t c, uint32_t b) const
    {
        return x.table_.empty()
                   ? kAbsent
                   : x.table_[static_cast<size_t>(c) * x.blocksPerCol_ + b];
    }
    PYPIM_KERNEL bool
    present(uint32_t c, uint32_t b) const
    {
        return id(c, b) != kAbsent;
    }
    PYPIM_KERNEL const uint64_t *
    ro(uint32_t c, uint32_t b) const
    {
        const uint32_t i = id(c, b);
        return i == kAbsent ? kZeroBlock : poolBlock(x.pool_.data(), i);
    }
    PYPIM_KERNEL uint64_t *
    rw(uint32_t c, uint32_t b) const
    {
        const uint32_t i = id(c, b);
        return i != kAbsent ? poolBlock(x.pool_.data(), i) : x.blockRW(c, b);
    }
    PYPIM_KERNEL uint64_t *
    ifPresent(uint32_t c, uint32_t b) const
    {
        const uint32_t i = id(c, b);
        return i == kAbsent ? nullptr : poolBlock(x.pool_.data(), i);
    }

    PYPIM_KERNEL uint64_t
    wordRO(uint32_t c, uint32_t w) const
    {
        return ro(c, w / kBlockWords)[w % kBlockWords];
    }
    PYPIM_KERNEL uint64_t *
    wordRW(uint32_t c, uint32_t w) const
    {
        return rw(c, w / kBlockWords) + w % kBlockWords;
    }
    PYPIM_KERNEL uint64_t *
    wordIfPresent(uint32_t c, uint32_t w) const
    {
        uint64_t *blk = ifPresent(c, w / kBlockWords);
        return blk ? blk + w % kBlockWords : nullptr;
    }
};

template <class F>
void
Crossbar::withBlocks(F &&f)
{
    if (slab_)
        f(SlabBlocks(*this));
    else
        f(TableBlocks(*this));
}

/**
 * Read-only view of the live state, the slab or the block table: the
 * const reads and the whole-state walks are written once over it.
 */
struct Crossbar::BlockImage
{
    uint32_t cols;
    uint32_t wpc;
    uint32_t bpc;
    const uint64_t *slab;   //!< the dense image, or null
    const uint32_t *table;  //!< block ids; null with no slab: all zero
    const uint64_t *pool;   //!< the block pool's words

    /** Words of grid block @p b of column @p col, or null if absent
     *  (a slab image is never absent). */
    const uint64_t *
    block(uint32_t col, uint32_t b) const
    {
        if (slab)
            return slab + static_cast<size_t>(col) * wpc +
                   static_cast<size_t>(b) * kBlockWords;
        if (!table)
            return nullptr;
        const uint32_t id = table[static_cast<size_t>(col) * bpc + b];
        return id == kAbsent ? nullptr : poolBlock(pool, id);
    }

    /** Word @p w of column @p col (zero in an absent block). */
    uint64_t
    word(uint32_t col, uint32_t w) const
    {
        const uint64_t *blk = block(col, w / kBlockWords);
        return blk ? blk[w % kBlockWords] : 0;
    }

    /** The strided N-bit value of @p row in slot @p slot. */
    uint32_t
    read(const Geometry &geo, uint32_t slot, uint32_t row) const
    {
        const uint32_t pw = geo.partitionWidth();
        uint32_t value = 0;
        for (uint32_t p = 0; p < geo.wordBits; ++p)
            value |= static_cast<uint32_t>(
                         (word(p * pw + slot, row / 64) >> (row % 64)) & 1)
                     << p;
        return value;
    }

    bool
    bit(uint32_t row, uint32_t col) const
    {
        return (word(col, row / 64) >> (row % 64)) & 1;
    }

    /** The canonical walk (Crossbar::forEachNonZeroBlock). */
    template <class F>
    void
    forEachNonZero(F &&fn) const
    {
        for (uint32_t col = 0; col < cols; ++col) {
            for (uint32_t b = 0; b < bpc; ++b) {
                const uint64_t *w = block(col, b);
                const uint32_t n = blockLen(wpc, b);
                if (w && !allZero(w, n))
                    fn(col, b, w, n);
            }
        }
    }

    /** Bit-exact equality: an absent block equals an all-zero one. */
    bool
    sameAs(const BlockImage &o) const
    {
        for (uint32_t col = 0; col < cols; ++col) {
            for (uint32_t b = 0; b < bpc; ++b) {
                const uint64_t *x = block(col, b);
                const uint64_t *y = o.block(col, b);
                if (x == y)
                    continue;  // both absent, or the same crossbar
                const uint32_t n = blockLen(wpc, b);
                const bool same = !x   ? allZero(y, n)
                                  : !y ? allZero(x, n)
                                       : std::equal(x, x + n, y);
                if (!same)
                    return false;
            }
        }
        return true;
    }
};

Crossbar::BlockImage
Crossbar::image() const
{
    return {geo_->cols,
            wordsPerCol_,
            blocksPerCol_,
            slab_ ? state_.data() : nullptr,
            table_.empty() ? nullptr : table_.data(),
            pool_.data()};
}

void
Crossbar::promote()
{
    Slab slab(static_cast<size_t>(geo_->cols) * wordsPerCol_, 0);
    image().forEachNonZero(
        [&](uint32_t col, uint32_t b, const uint64_t *w, uint32_t n) {
            std::copy(w, w + n,
                      slab.data() + static_cast<size_t>(col) * wordsPerCol_ +
                          b * kBlockWords);
        });
    releaseBlocks();
    state_.swap(slab);
    slab_ = true;
}

// --- kernels ------------------------------------------------------------

namespace
{

using SecKind = ReplayProgram::SecKind;
using PSection = ReplayProgram::PSection;

/** True when accessor form B elides blocks and @p p is absent. */
template <class B>
PYPIM_KERNEL bool
absent(const uint64_t *p)
{
    return B::kElides && !p;
}

/**
 * One block of one section: the word kernel of every LogicH gate, of
 * every strided-write bit plane (an Init1 or Init0 of its column) and
 * of the compiled passes. @p m is the block's realized mask words
 * (kMasked only), @p n its word count.
 */
template <SecKind K, bool kMasked, class B>
PYPIM_KERNEL void
blockStep(const B &st, uint32_t out, uint32_t inA, uint32_t inB,
          uint32_t b, uint32_t n, const uint64_t *m)
{
    if constexpr (K == SecKind::Init0) {
        // Can only clear bits: an absent output stays absent.
        uint64_t *o = st.ifPresent(out, b);
        if (absent<B>(o))
            return;
        for (uint32_t w = 0; w < n; ++w)
            o[w] = kMasked ? o[w] & ~m[w] : 0;
    } else if constexpr (K == SecKind::Init1) {
        uint64_t *o = st.rw(out, b);
        for (uint32_t w = 0; w < n; ++w)
            o[w] = kMasked ? o[w] | m[w] : ~0ull;
    } else if constexpr (K == SecKind::NotNor) {
        // Absent inputs read as zero, so with both absent out &= ~0
        // leaves the output untouched. An absent output stays absent
        // (stateful logic only clears).
        if (!st.present(inA, b) && !st.present(inB, b))
            return;
        uint64_t *o = st.ifPresent(out, b);
        if (absent<B>(o))
            return;
        const uint64_t *a = st.ro(inA, b);
        const uint64_t *c = st.ro(inB, b);
        for (uint32_t w = 0; w < n; ++w)
            o[w] &= kMasked ? ~((a[w] | c[w]) & m[w]) : ~(a[w] | c[w]);
    } else {
        // Fused INIT1 + NOT/NOR can set bits: the output densifies,
        // which may move blocks, so the inputs are fetched after it.
        uint64_t *o = st.rw(out, b);
        const uint64_t *a = st.ro(inA, b);
        const uint64_t *c = st.ro(inB, b);
        for (uint32_t w = 0; w < n; ++w)
            o[w] = kMasked ? (o[w] & ~m[w]) | (~(a[w] | c[w]) & m[w])
                           : ~(a[w] | c[w]);
    }
}

/**
 * The mask-nonzero block scan: where the realized mask is all-zero a
 * block is untouched by every op, so its presence never has to
 * change. Run once per mask, never per section; the slab has none.
 */
template <class B>
PYPIM_KERNEL void
scanMask(const B &st, const uint64_t *m, uint8_t *nz)
{
    if constexpr (B::kElides)
        for (uint32_t b = 0; b < st.blocks(); ++b)
            nz[b] = !allZero(m + b * Crossbar::kBlockWords, st.words(b));
}

/** One section over the whole column: every block the mask reaches
 *  (@p nz from scanMask, used only when masked). */
template <SecKind K, bool kMasked, class B>
PYPIM_KERNEL void
sectionStep(const B &st, uint32_t out, uint32_t inA, uint32_t inB,
            const uint64_t *m, const uint8_t *nz)
{
    for (uint32_t b = 0; b < st.blocks(); ++b) {
        if (kMasked && B::kElides && !nz[b])
            continue;  // no selected row in this block
        blockStep<K, kMasked>(st, out, inA, inB, b, st.words(b),
                              kMasked ? m + b * Crossbar::kBlockWords
                                      : nullptr);
    }
}

/** One compiled section, its kind decided per section. */
template <bool kMasked, class B>
PYPIM_KERNEL void
sectionAny(const B &st, const PSection &sec, const uint64_t *m,
           const uint8_t *nz)
{
    switch (sec.kind) {
      case SecKind::Init0:
        sectionStep<SecKind::Init0, kMasked>(st, sec.outCol, sec.inA,
                                             sec.inB, m, nz);
        break;
      case SecKind::Init1:
        sectionStep<SecKind::Init1, kMasked>(st, sec.outCol, sec.inA,
                                             sec.inB, m, nz);
        break;
      case SecKind::NotNor:
        sectionStep<SecKind::NotNor, kMasked>(st, sec.outCol, sec.inA,
                                              sec.inB, m, nz);
        break;
      case SecKind::FusedNotNor:
        sectionStep<SecKind::FusedNotNor, kMasked>(st, sec.outCol,
                                                   sec.inA, sec.inB, m,
                                                   nz);
        break;
    }
}

/**
 * A kind-homogeneous blend-free pass (the common case: one op's
 * sections share their gate, and merges chain gates of one kind): the
 * kind switch is hoisted out of the section loop. Single-block columns
 * (every slab; tables up to 512 rows) lose the block loop, and
 * single-word columns (<= 64 rows) the word loop.
 */
template <SecKind K, class B>
PYPIM_KERNEL void
passStep(const B &st, const PSection *secs, uint32_t count)
{
    if (st.blocks() == 1) {
        const uint32_t n = st.words(0);
        if (n == 1) {
            for (uint32_t s = 0; s < count; ++s)
                blockStep<K, false>(st, secs[s].outCol, secs[s].inA,
                                    secs[s].inB, 0, 1, nullptr);
            return;
        }
        for (uint32_t s = 0; s < count; ++s)
            blockStep<K, false>(st, secs[s].outCol, secs[s].inA,
                                secs[s].inB, 0, n, nullptr);
        return;
    }
    for (uint32_t s = 0; s < count; ++s)
        sectionStep<K, false>(st, secs[s].outCol, secs[s].inA,
                              secs[s].inB, nullptr, nullptr);
}

/** Strided write of @p value to @p slot: bit p of the value goes to
 *  the slot's column in partition p. */
template <bool kMasked, class B>
PYPIM_KERNEL void
writeStep(const B &st, const Geometry &geo, uint32_t slot,
          uint32_t value, const uint64_t *m, const uint8_t *nz)
{
    const uint32_t pw = geo.partitionWidth();
    for (uint32_t p = 0; p < geo.wordBits; ++p) {
        const uint32_t col = p * pw + slot;
        if ((value >> p) & 1)
            sectionStep<SecKind::Init1, kMasked>(st, col, col, col, m, nz);
        else
            sectionStep<SecKind::Init0, kMasked>(st, col, col, col, m, nz);
    }
}

/** One vertical gate on column @p col (point access). */
template <class B>
PYPIM_KERNEL void
vGate(const B &st, uint32_t col, Gate g, uint32_t inWord,
      uint32_t inShift, uint32_t outWord, uint64_t outBit)
{
    switch (g) {
      case Gate::Init0: {
        uint64_t *o = st.wordIfPresent(col, outWord);
        if (!absent<B>(o))
            *o &= ~outBit;
        break;
      }
      case Gate::Init1:
        *st.wordRW(col, outWord) |= outBit;
        break;
      case Gate::Not: {
        // NOT(0) = 1 cannot switch a stateful output.
        if (!((st.wordRO(col, inWord) >> inShift) & 1))
            break;
        uint64_t *o = st.wordIfPresent(col, outWord);
        if (!absent<B>(o))
            *o &= ~outBit;
        break;
      }
      case Gate::Nor:
        break;  // unreachable: rejected by every caller
    }
}

/** word = (word & ~mask) | bits, where @p bits lies within @p mask.
 *  With no bit to set, an absent block stays absent. */
template <class B>
PYPIM_KERNEL void
storeBits(const B &st, uint32_t col, uint32_t w, uint64_t mask,
          uint64_t bits)
{
    uint64_t *o = bits ? st.wordRW(col, w) : st.wordIfPresent(col, w);
    if (!absent<B>(o))
        *o = (*o & ~mask) | bits;
}

} // namespace

// --- op-major entries ---------------------------------------------------

void
Crossbar::logicH(const HalfGates &hg, std::span<const uint64_t> rowMask)
{
    panicIf(rowMask.size() != wordsPerCol_,
            "logicH: row mask width mismatch");
    maybePromote();
    withBlocks([&](const auto &st) {
        const uint64_t *m = rowMask.data();
        uint8_t nz[kMaxBlocksPerCol];
        scanMask(st, m, nz);
        for (uint32_t s = 0; s < hg.numSections; ++s) {
            const Section &sec = hg.sections[s];
            if (!sec.active())
                continue;
            const auto out = static_cast<uint32_t>(sec.outCol);
            switch (hg.gate) {
              case Gate::Init0:
                sectionStep<SecKind::Init0, true>(st, out, out, out, m,
                                                  nz);
                break;
              case Gate::Init1:
                sectionStep<SecKind::Init1, true>(st, out, out, out, m,
                                                  nz);
                break;
              case Gate::Not:
              case Gate::Nor: {
                const auto a = static_cast<uint32_t>(sec.inCol[0]);
                const uint32_t b = sec.numIn == 2
                    ? static_cast<uint32_t>(sec.inCol[1])
                    : a;
                sectionStep<SecKind::NotNor, true>(st, out, a, b, m, nz);
                break;
              }
            }
        }
    });
}

void
Crossbar::logicV(Gate g, uint32_t rowIn, uint32_t rowOut, uint32_t slot)
{
    panicIf(g == Gate::Nor, "logicV: NOR is not supported vertically");
    maybePromote();
    const uint32_t pw = geo_->partitionWidth();
    withBlocks([&](const auto &st) {
        for (uint32_t p = 0; p < geo_->partitions; ++p)
            vGate(st, p * pw + slot, g, rowIn / 64, rowIn % 64,
                  rowOut / 64, 1ull << (rowOut % 64));
    });
}

void
Crossbar::write(uint32_t slot, uint32_t value,
                std::span<const uint64_t> rowMask)
{
    panicIf(rowMask.size() != wordsPerCol_,
            "write: row mask width mismatch");
    maybePromote();
    withBlocks([&](const auto &st) {
        uint8_t nz[kMaxBlocksPerCol];
        scanMask(st, rowMask.data(), nz);
        writeStep<true>(st, *geo_, slot, value, rowMask.data(), nz);
    });
}

// --- compiled-program replay --------------------------------------------

template <bool kPaged, bool kFull>
PYPIM_KERNEL void
Crossbar::replayProgramT(const ReplayProgram &prog, uint32_t self,
                         Stats *work)
{
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
    // The representation was fixed at program entry: the kernels run
    // directly, never through the public entries, which may promote.
    const std::conditional_t<kPaged, TableBlocks, SlabBlocks> st(*this);
    const uint32_t pw = geo_->partitionWidth();
    uint8_t maskNZ[kMaxBlocksPerCol];
    for (const ReplayProgram::Instr &in : prog.instrs) {
        if (!uni) {
            if (!in.xb.contains(self))
                continue;
            if (work)
                work->recordN(in.cls, in.work);
        }
        const bool full = kFull || in.maskFull;
        switch (in.kind) {
          case ReplayProgram::Kind::HPass: {
            const PSection *secs = prog.sections.data() + in.off;
            const uint64_t *m = prog.masks[in.operand].get();
            if (!full) {
                scanMask(st, m, maskNZ);
                for (uint32_t s = 0; s < in.count; ++s)
                    sectionAny<true>(st, secs[s], m, maskNZ);
                break;
            }
            switch (in.passKind) {
              case static_cast<uint8_t>(SecKind::Init0):
                passStep<SecKind::Init0>(st, secs, in.count);
                break;
              case static_cast<uint8_t>(SecKind::Init1):
                passStep<SecKind::Init1>(st, secs, in.count);
                break;
              case static_cast<uint8_t>(SecKind::NotNor):
                passStep<SecKind::NotNor>(st, secs, in.count);
                break;
              case static_cast<uint8_t>(SecKind::FusedNotNor):
                passStep<SecKind::FusedNotNor>(st, secs, in.count);
                break;
              default:  // kMixedPass
                for (uint32_t s = 0; s < in.count; ++s)
                    sectionAny<false>(st, secs[s], nullptr, nullptr);
            }
            break;
          }
          case ReplayProgram::Kind::Write: {
            const ReplayProgram::WritePair &w = prog.pairs[in.off];
            if (full) {
                writeStep<false>(st, *geo_, w.slot, w.value, nullptr,
                                 nullptr);
            } else {
                const uint64_t *m = prog.masks[in.operand].get();
                scanMask(st, m, maskNZ);
                writeStep<true>(st, *geo_, w.slot, w.value, m, maskNZ);
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
                const uint32_t col = part * pw + in.operand;
                for (uint32_t k = 0; k < in.count; ++k)
                    vGate(st, col, gs[k].gate, gs[k].inWord,
                          gs[k].inShift, gs[k].outWord,
                          1ull << gs[k].outShift);
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
 * template function the executor calls without inlining it (the table
 * form's slow path, blockRW, which runs only on an absent block) keeps
 * the default target, so no code shared with other translation units
 * is ever built for an ISA the host may lack. The builds are picked
 * through a plain table, never an ifunc, so tests can run each one and
 * sanitizer builds need no resolver.
 *
 * The same rows pick the host I/O tile transposes of gatherRows and
 * scatterRows: the x86-64-v4 row runs the AVX-512BW bodies below, the
 * others the portable body (built for x86-64-v3 it measured slower
 * than the default build, so the v3 row shares the default's).
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

    /**
     * The byte network of the v4 tile transposes: four registers of
     * 16 host words each <-> four registers each holding one byte of
     * all 64 words, in word order. Each step (a 4x4 byte transpose in
     * every 128-bit lane, a 4x4 dword transpose across the register, a
     * 4x4 lane transpose across the four registers) is its own
     * inverse, so the gather runs the steps in reverse order. The
     * zero-masking forms under a full mask compile to the plain
     * instructions; GCC 12's unmasked forms warn about their
     * uninitialised pass-through operand.
     */
    [[gnu::always_inline, gnu::target("arch=x86-64-v4")]] static inline void
    byteShuffle(__m512i z[4])
    {
        const __m512i idx = _mm512_maskz_broadcast_i32x4(
            0xFFFF, _mm_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14,
                                  3, 7, 11, 15));
        for (uint32_t j = 0; j < 4; ++j)
            z[j] = _mm512_shuffle_epi8(z[j], idx);
    }
    [[gnu::always_inline, gnu::target("arch=x86-64-v4")]] static inline void
    dwordShuffle(__m512i z[4])
    {
        const __m512i idx = _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2,
                                              6, 10, 14, 3, 7, 11, 15);
        for (uint32_t j = 0; j < 4; ++j)
            z[j] = _mm512_maskz_permutexvar_epi32(0xFFFF, idx, z[j]);
    }
    [[gnu::always_inline, gnu::target("arch=x86-64-v4")]] static inline void
    laneShuffle(__m512i z[4])
    {
        const __m512i a = _mm512_maskz_shuffle_i64x2(0xFF, z[0], z[1], 0x44);
        const __m512i b = _mm512_maskz_shuffle_i64x2(0xFF, z[0], z[1], 0xEE);
        const __m512i c = _mm512_maskz_shuffle_i64x2(0xFF, z[2], z[3], 0x44);
        const __m512i d = _mm512_maskz_shuffle_i64x2(0xFF, z[2], z[3], 0xEE);
        z[0] = _mm512_maskz_shuffle_i64x2(0xFF, a, c, 0x88);
        z[1] = _mm512_maskz_shuffle_i64x2(0xFF, a, c, 0xDD);
        z[2] = _mm512_maskz_shuffle_i64x2(0xFF, b, d, 0x88);
        z[3] = _mm512_maskz_shuffle_i64x2(0xFF, b, d, 0xDD);
    }

    /** AVX-512BW scatter tile: byte B of the 64 words, one byte per
     *  lane, yields planes 8B+7 .. 8B as its lanes' top bits while
     *  it doubles (vpmovb2m, then a byte add shifts the next bit up). */
    [[gnu::target("arch=x86-64-v4")]] static void
    scatterTileV4(const uint32_t *values, uint64_t *planes)
    {
        __m512i z[4];
        for (uint32_t j = 0; j < 4; ++j)
            z[j] = _mm512_loadu_si512(values + 16 * j);
        byteShuffle(z);
        dwordShuffle(z);
        laneShuffle(z);
        for (uint32_t b = 0; b < 4; ++b) {
            __m512i x = z[b];
            for (uint32_t i = 8; i--;) {
                planes[8 * b + i] =
                    _cvtmask64_u64(_mm512_movepi8_mask(x));
                x = _mm512_add_epi8(x, x);
            }
        }
    }

    /** AVX-512BW gather tile: byte B of the 64 words is built from
     *  planes 8B+7 .. 8B, doubling and then adding 1 under the plane
     *  as a byte mask. */
    [[gnu::target("arch=x86-64-v4")]] static void
    gatherTileV4(const uint64_t *planes, uint32_t *values)
    {
        const __m512i one = _mm512_set1_epi8(1);
        __m512i z[4];
        for (uint32_t b = 0; b < 4; ++b) {
            __m512i x = _mm512_setzero_si512();
            for (uint32_t i = 8; i--;) {
                x = _mm512_add_epi8(x, x);
                x = _mm512_mask_add_epi8(
                    x, _cvtu64_mask64(planes[8 * b + i]), x, one);
            }
            z[b] = x;
        }
        laneShuffle(z);
        dwordShuffle(z);
        byteShuffle(z);
        for (uint32_t j = 0; j < 4; ++j)
            _mm512_storeu_si512(values + 16 * j, z[j]);
    }
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
    {"x86-64-v4", &ReplayKernels::hostV4, &ReplayKernels::x86v4,
     &ReplayKernels::scatterTileV4, &ReplayKernels::gatherTileV4},
    {"x86-64-v3", &ReplayKernels::hostV3, &ReplayKernels::x86v3,
     &scatterTilePortable, &gatherTilePortable},
#endif
    {"default", &ReplayKernels::always, &ReplayKernels::base,
     &scatterTilePortable, &gatherTilePortable},
};

/** The build replayProgram and the tile transposes run (first use
 *  picks the host's widest). */
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


// --- point access and bulk gather/scatter -------------------------------

uint32_t
Crossbar::read(uint32_t slot, uint32_t row) const
{
    return image().read(*geo_, slot, row);
}

void
Crossbar::writeRow(uint32_t slot, uint32_t value, uint32_t row)
{
    const uint32_t pw = geo_->partitionWidth();
    const uint64_t bit = 1ull << (row % 64);
    withBlocks([&](const auto &st) {
        for (uint32_t p = 0; p < geo_->wordBits; ++p)
            storeBits(st, p * pw + slot, row / 64, bit,
                      (value >> p) & 1 ? bit : 0);
    });
}

uint64_t
Crossbar::gatherRows(uint32_t slot, uint32_t row, uint32_t count,
                     uint32_t *out) const
{
    panicIf(static_cast<uint64_t>(row) + count > geo_->rows,
            "gatherRows: row window exceeds crossbar height");
    const auto gatherTile =
        activeReplayBuild().load(std::memory_order_relaxed)->gatherTile;
    const BlockImage img = image();
    const uint32_t pw = geo_->partitionWidth();
    const uint32_t planes = geo_->wordBits;
    // tile[i] holds the plane words of the block's i-th window; planes
    // past the word width read as zero.
    uint64_t tile[kBlockWords][32];
    for (auto &t : tile)
        std::fill(t + planes, t + 32, 0);
    uint64_t transposed = 0;
    const uint32_t end = row + count;
    for (uint32_t r = row; r < end;) {
        // One grid block at a time: each plane column's block is
        // fetched once, then its windows transpose from the tile.
        const uint32_t w0 = r / 64;
        const uint32_t b = w0 / kBlockWords;
        const uint32_t blockEnd =
            std::min(end, (b + 1) * kBlockWords * 64);
        const uint32_t n = (blockEnd - 1) / 64 - w0 + 1;
        for (uint32_t p = 0; p < planes; ++p) {
            const uint64_t *blk = img.block(p * pw + slot, b);
            for (uint32_t i = 0; i < n; ++i)
                tile[i][p] = blk ? blk[w0 % kBlockWords + i] : 0;
        }
        for (uint32_t i = 0; r < blockEnd; ++i) {
            const uint32_t off = r % 64;
            const uint32_t take = std::min(64 - off, blockEnd - r);
            uint32_t *dst = out + (r - row);
            uint64_t any = 0;
            for (uint32_t p = 0; p < planes; ++p)
                any |= tile[i][p];
            // An absent (or all-zero) source window reads zeros as it
            // is: no transpose needed.
            if (!any) {
                std::fill_n(dst, take, 0u);
            } else if (take == 64) {
                gatherTile(tile[i], dst);
                transposed += 64;
            } else {
                uint32_t v[64];
                gatherTile(tile[i], v);
                std::copy_n(v + off, take, dst);
                transposed += 64;
            }
            r += take;
        }
    }
    return transposed;
}

uint64_t
Crossbar::scatterRows(uint32_t slot, uint32_t row, uint32_t count,
                      const uint32_t *values)
{
    panicIf(static_cast<uint64_t>(row) + count > geo_->rows,
            "scatterRows: row window exceeds crossbar height");
    const auto scatterTile =
        activeReplayBuild().load(std::memory_order_relaxed)->scatterTile;
    const uint32_t pw = geo_->partitionWidth();
    const uint32_t planes = geo_->wordBits;
    uint64_t transposed = 0;
    withBlocks([&](const auto &st) {
        using B = std::decay_t<decltype(st)>;
        const uint32_t end = row + count;
        for (uint32_t r = row; r < end;) {
            // One grid block at a time: its windows transpose into the
            // tile, then each plane column's block is written once.
            const uint32_t w0 = r / 64;
            const uint32_t blockEnd =
                std::min(end, (w0 / kBlockWords + 1) * kBlockWords * 64);
            uint64_t tile[kBlockWords][32];
            uint64_t keep[kBlockWords];
            uint32_t n = 0;
            for (; r < blockEnd; ++n) {
                const uint32_t off = r % 64;
                const uint32_t take = std::min(64 - off, blockEnd - r);
                const uint32_t *src = values + (r - row);
                uint32_t pad[64];
                if (take < 64) {
                    std::fill_n(pad, 64, 0u);
                    std::copy_n(src, take, pad + off);
                    src = pad;
                }
                uint32_t any = 0;
                for (uint32_t k = 0; k < 64; ++k)
                    any |= src[k];
                // An all-zero input window only clears: no transpose.
                if (any) {
                    scatterTile(src, tile[n]);
                    transposed += 64;
                } else {
                    std::fill_n(tile[n], 32, 0);
                }
                keep[n] = ~windowMask(off, take);
                r += take;
            }
            for (uint32_t p = 0; p < planes; ++p) {
                uint64_t bits = 0;
                for (uint32_t i = 0; i < n; ++i)
                    bits |= tile[i][p];
                // With no bit to set the block is only cleared, so an
                // absent block stays absent. The block pointer is used
                // before the next column's rw() can grow the pool.
                const uint32_t col = p * pw + slot;
                uint64_t *o =
                    bits ? st.wordRW(col, w0) : st.wordIfPresent(col, w0);
                if (absent<B>(o))
                    continue;
                for (uint32_t i = 0; i < n; ++i)
                    o[i] = (o[i] & keep[i]) | tile[i][p];
            }
        }
    });
    return transposed;
}

bool
Crossbar::bit(uint32_t row, uint32_t col) const
{
    return image().bit(row, col);
}

void
Crossbar::setBit(uint32_t row, uint32_t col, bool v)
{
    const uint64_t bit = 1ull << (row % 64);
    withBlocks([&](const auto &st) {
        storeBits(st, col, row / 64, bit, v ? bit : 0);
    });
}

// --- compaction, the canonical walk, comparison -----------------------

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
        image().forEachNonZero(
            [&](uint32_t, uint32_t, const uint64_t *, uint32_t) {
                ++nonZero;
            });
        if (atPromoteShare(nonZero))
            return 0;
        const BlockImage slab = image();
        Slab old;
        old.swap(state_);  // keeps the buffer slab points into
        slab_ = false;
        slab.forEachNonZero(
            [&](uint32_t col, uint32_t b, const uint64_t *w, uint32_t n) {
                std::copy(w, w + n, blockRW(col, b));
            });
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
            if (allZero(poolBlock(pool_.data(), id),
                        blockLen(wordsPerCol_, b))) {
                free_.push_back(id);
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
    image().forEachNonZero(fn);
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
    image().forEachNonZero(
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
            free_.push_back(id);
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
                n > blockLen(wordsPerCol_, b),
            "loadBlock: record outside this crossbar's geometry");
    if (allZero(w, n))
        return;  // canonical images never carry these anyway
    // A short tail record leaves the block's trailing words as they
    // were; allocBlock() zeroes fresh blocks, and restore resets state
    // first, so the tail is zero either way.
    withBlocks([&](const auto &st) {
        std::copy(w, w + n, st.wordRW(col, b * kBlockWords));
    });
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
    g.blocksPresent = present_;
    g.blocksElided = total - g.blocksPresent;
    g.residentBytes = table_.capacity() * sizeof(uint32_t) +
                      pool_.capacity() * sizeof(uint64_t) +
                      free_.capacity() * sizeof(uint32_t);
    return g;
}

bool
Crossbar::sameState(const Crossbar &other) const
{
    return image().sameAs(other.image());
}

} // namespace pypim
