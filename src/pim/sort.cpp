/**
 * @file
 * Bitonic sorting network over PIM tensors (paper §VI "Sorting"):
 * sorting expressed as a sequence of parallel compare-and-swap
 * operations [Batcher 1968] plus data movement between elements.
 *
 * Every substage (k, j) builds the exchanged partner tensor
 * (partner_i = work_{i XOR j}) with intra-warp vertical moves (j <
 * rows; warp-parallel) or distributed H-tree moves (j >= rows), then
 * performs the compare-and-swap as a handful of elementwise
 * instructions: one comparison, direction/lane masks derived from an
 * index tensor with bitwise ops, and three muxes. The movement is
 * thread-serial, which is exactly why sorting throughput sits orders
 * of magnitude below elementwise arithmetic in Fig. 13.
 */
#include "pim/tensor.hpp"

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "pim/lowering.hpp"

namespace pypim
{

namespace
{

/** partner_i = t_{i XOR j} for a canonical power-of-two tensor. */
Tensor
exchange(const Tensor &t, uint64_t j)
{
    Device &dev = t.device();
    const uint32_t rows = dev.geometry().rows;
    const uint64_t n = t.size();
    Tensor out = lowering::allocLikePattern(t, t.dtype());
    const Allocation &a = t.allocation();

    if (j < rows) {
        // Partners share a warp; the row mapping is identical in every
        // warp, so each row pair is one warp-parallel move. The whole
        // exchange goes to the driver as one sequence: captured the
        // first time, replayed as one compiled trace after that.
        MoveInstr mv;
        mv.kind = MoveInstr::Kind::IntraWarp;
        mv.srcReg = static_cast<uint8_t>(t.reg());
        mv.dstReg = static_cast<uint8_t>(out.reg());
        mv.warps = Range(a.warpStart, a.warpStart + a.warpCount - 1, 1);
        const uint32_t lim =
            static_cast<uint32_t>(std::min<uint64_t>(rows, n));
        std::vector<MoveInstr> moves(lim, mv);
        for (uint32_t r = 0; r < lim; ++r) {
            moves[r].srcRow = r ^ static_cast<uint32_t>(j);
            moves[r].dstRow = r;
        }
        dev.driver().execute(std::span<const MoveInstr>(moves));
        return out;
    }

    // Partners sit jw warps apart: distributed H-tree moves, one pair
    // of (split) move instructions per row, issued as one sequence.
    const uint32_t jw = static_cast<uint32_t>(j / rows);
    std::vector<uint32_t> clearSet, setSet;
    for (uint32_t w = 0; w < a.warpCount; ++w) {
        if (w & jw)
            setSet.push_back(a.warpStart + w);
        else
            clearSet.push_back(a.warpStart + w);
    }
    std::vector<MoveInstr> moves;
    for (uint32_t r = 0; r < rows; ++r) {
        lowering::interWarpMoves(moves, clearSet, jw, r, r, t.reg(),
                                 out.reg());
        lowering::interWarpMoves(moves, setSet,
                                 -static_cast<int64_t>(jw), r, r,
                                 t.reg(), out.reg());
    }
    dev.driver().execute(std::span<const MoveInstr>(moves));
    return out;
}

} // namespace

void
Tensor::sort()
{
    fatalIf(!valid(), "sort: invalid tensor");
    if (len_ <= 1)
        return;
    fatalIf(!isPow2(len_),
            "sort: bitonic sorting requires a power-of-two length");
    Device &dev = device();

    Tensor work = clone();
    Tensor idx = Tensor::iota(len_, &dev).materializeLike(work);

    for (uint64_t k = 2; k <= len_; k <<= 1) {
        // Ascending block mask: bit k of the element index clear.
        Tensor asc =
            (idx & fullLike(idx, static_cast<int32_t>(k))) == 0;
        for (uint64_t j = k >> 1; j >= 1; j >>= 1) {
            Tensor left =
                (idx & fullLike(idx, static_cast<int32_t>(j))) == 0;
            Tensor partner = exchange(work, j);
            Tensor cmp = work < partner;
            // Keep the minimum iff this element is the left partner of
            // an ascending block (or the right partner of a descending
            // one).
            Tensor cond = asc == left;
            Tensor mn = where(cmp, work, partner);
            Tensor mx = where(cmp, partner, work);
            work = where(cond, mn, mx);
        }
    }
    assignFrom(work);
}

Tensor
Tensor::sorted() const
{
    Tensor out = clone();
    out.sort();
    return out;
}

} // namespace pypim
