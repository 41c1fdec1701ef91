/**
 * @file
 * Internal lowering engine of the tensor library: view-to-mask segment
 * decomposition, position alignment checks, and the move planner that
 * realises "automatic data movement between views" (paper §V-A).
 *
 * Lowering strategies for moving a view's elements onto a target
 * position pattern, fastest applicable first:
 *  1. identical positions               -> register Copy instructions
 *  2. same rows, constant warp distance -> one inter-warp move per row
 *  3. same warps, warp-uniform row map  -> warp-parallel intra-warp
 *                                          moves (one per row pair)
 *  4. same warps, non-uniform           -> per-warp intra-warp moves
 *  5. anything else                     -> host gather (read + write
 *                                          per element; the correct
 *                                          but slow fall-back)
 *
 * Strategies 2-4 issue all of their moves as one captured sequence.
 */
#ifndef PYPIM_PIM_LOWERING_HPP
#define PYPIM_PIM_LOWERING_HPP

#include <vector>

#include "pim/tensor.hpp"

namespace pypim::lowering
{

/** One broadcastable piece of a view: a warp range + a row mask. */
struct Segment
{
    Range warps;
    Range rows;
    uint64_t firstElement = 0;  //!< view element index of rows.start
};

/** Decompose a view into mask segments (warp groups with equal
 *  local row patterns). */
std::vector<Segment> segments(const Tensor &t);

/** True iff a and b occupy exactly the same threads element-wise. */
bool samePositions(const Tensor &a, const Tensor &b);

/**
 * Allocate a fresh tensor whose element i sits at exactly
 * @p pattern's element-i thread (same warps, same rows).
 */
Tensor allocLikePattern(const Tensor &pattern, DType dtype);

/**
 * Emit one R-type instruction per segment of @p out. All operands
 * must be position-aligned with @p out (panics otherwise).
 */
void rtypeOp(ROp op, DType dtype, const Tensor &out, const Tensor &a,
             const Tensor *b = nullptr, const Tensor *c = nullptr);

/** Move src's element values onto dst's threads (same length). */
void moveElements(const Tensor &src, const Tensor &dst);

/**
 * Append to @p out the inter-warp move instructions for an arbitrary
 * source warp set (compressed into arithmetic ranges and split to
 * power-of-4 steps). The caller issues them, as one sequence.
 */
void interWarpMoves(std::vector<MoveInstr> &out,
                    const std::vector<uint32_t> &srcWarps, int64_t dist,
                    uint32_t srcRow, uint32_t dstRow, uint32_t srcReg,
                    uint32_t dstReg);

} // namespace pypim::lowering

#endif // PYPIM_PIM_LOWERING_HPP
