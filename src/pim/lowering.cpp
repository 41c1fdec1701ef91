#include "pim/lowering.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace pypim::lowering
{

std::vector<Segment>
segments(const Tensor &t)
{
    panicIf(!t.valid(), "segments: invalid tensor");
    const uint32_t rows = t.device().geometry().rows;
    const Allocation &a = t.allocation();
    const uint64_t step = t.viewStep();

    struct WarpPattern
    {
        uint32_t warp;
        uint32_t r0;
        uint32_t count;
        uint64_t firstElement;
    };
    std::vector<WarpPattern> pats;
    uint64_t e = 0;
    while (e < t.size()) {
        const uint64_t s = t.storageRow(e);
        const uint32_t warp = a.warpStart + static_cast<uint32_t>(s / rows);
        const uint32_t r0 = static_cast<uint32_t>(s % rows);
        // Elements that stay within this warp.
        const uint64_t maxK = (rows - 1 - r0) / step + 1;
        const uint32_t k = static_cast<uint32_t>(
            std::min<uint64_t>(maxK, t.size() - e));
        pats.push_back({warp, r0, k, e});
        e += k;
    }
    // Merge consecutive warps with identical local patterns.
    std::vector<Segment> out;
    size_t i = 0;
    while (i < pats.size()) {
        size_t j = i + 1;
        while (j < pats.size() && pats[j].warp == pats[j - 1].warp + 1 &&
               pats[j].r0 == pats[i].r0 && pats[j].count == pats[i].count) {
            ++j;
        }
        Segment seg;
        seg.warps = Range(pats[i].warp, pats[j - 1].warp, 1);
        seg.rows = Range(pats[i].r0,
                         pats[i].r0 +
                             (pats[i].count - 1) *
                                 static_cast<uint32_t>(step),
                         static_cast<uint32_t>(std::max<uint64_t>(step, 1)));
        seg.firstElement = pats[i].firstElement;
        out.push_back(seg);
        i = j;
    }
    return out;
}

bool
samePositions(const Tensor &a, const Tensor &b)
{
    if (!a.valid() || !b.valid() || a.size() != b.size())
        return false;
    if (&a.device() != &b.device())
        return false;
    if (a.absoluteRow(0) != b.absoluteRow(0))
        return false;
    return a.size() == 1 || a.viewStep() == b.viewStep();
}

Tensor
allocLikePattern(const Tensor &pattern, DType dtype)
{
    Device &dev = pattern.device();
    const uint32_t rows = dev.geometry().rows;
    const uint64_t firstRow = pattern.absoluteRow(0);
    const uint64_t lastRow = pattern.absoluteRow(pattern.size() - 1);
    const uint32_t warpFirst = static_cast<uint32_t>(firstRow / rows);
    const uint32_t warpLast = static_cast<uint32_t>(lastRow / rows);
    const Allocation a = dev.allocator().allocAt(
        warpFirst, warpLast - warpFirst + 1, pattern.size());
    auto st = std::make_shared<TensorStorage>(dev, a, dtype);
    const uint64_t viewStart =
        firstRow - static_cast<uint64_t>(warpFirst) * rows;
    return Tensor::wrap(std::move(st), viewStart, pattern.viewStep(),
                        pattern.size());
}

void
rtypeOp(ROp op, DType dtype, const Tensor &out, const Tensor &a,
        const Tensor *b, const Tensor *c)
{
    panicIf(!samePositions(out, a) || (b && !samePositions(out, *b)) ||
            (c && !samePositions(out, *c)),
            "rtypeOp: operands are not position-aligned");
    Device &dev = out.device();
    RTypeInstr in;
    in.op = op;
    in.dtype = dtype;
    in.rd = static_cast<uint8_t>(out.reg());
    in.ra = static_cast<uint8_t>(a.reg());
    in.rb = static_cast<uint8_t>(b ? b->reg() : 0);
    in.rc = static_cast<uint8_t>(c ? c->reg() : 0);
    for (const auto &seg : segments(out)) {
        in.warps = seg.warps;
        in.rows = seg.rows;
        dev.driver().execute(in);
    }
}

namespace
{

/** Split an arithmetic warp range into power-of-4-step ranges and
 *  append one inter-warp move per piece. */
void
appendMoveRanges(std::vector<MoveInstr> &out, const Range &src,
                 int64_t dist, uint32_t srcRow, uint32_t dstRow,
                 uint32_t srcReg, uint32_t dstReg)
{
    if (!isPow4(src.step)) {
        // step = 2 * 4^k: the odd and even halves are both pow4.
        const Range evens(src.start,
                          src.count() >= 2
                              ? src.at(((src.count() - 1) / 2) * 2)
                              : src.start,
                          src.step * 2);
        appendMoveRanges(out, evens, dist, srcRow, dstRow, srcReg,
                         dstReg);
        if (src.count() >= 2) {
            const Range odds(src.start + src.step,
                             src.at(((src.count() - 2) / 2) * 2 + 1),
                             src.step * 2);
            appendMoveRanges(out, odds, dist, srcRow, dstRow, srcReg,
                             dstReg);
        }
        return;
    }
    MoveInstr mv;
    mv.kind = MoveInstr::Kind::InterWarp;
    mv.srcReg = static_cast<uint8_t>(srcReg);
    mv.dstReg = static_cast<uint8_t>(dstReg);
    mv.srcRow = srcRow;
    mv.dstRow = dstRow;
    mv.warps = src;
    mv.dstStartWarp = static_cast<uint32_t>(src.start + dist);
    out.push_back(mv);
}

} // namespace

void
interWarpMoves(std::vector<MoveInstr> &out,
               const std::vector<uint32_t> &srcWarps, int64_t dist,
               uint32_t srcRow, uint32_t dstRow, uint32_t srcReg,
               uint32_t dstReg)
{
    // Greedily compress the sorted warp list into arithmetic ranges.
    size_t i = 0;
    while (i < srcWarps.size()) {
        if (i + 1 == srcWarps.size()) {
            appendMoveRanges(out, Range::single(srcWarps[i]), dist,
                             srcRow, dstRow, srcReg, dstReg);
            break;
        }
        const uint32_t stride = srcWarps[i + 1] - srcWarps[i];
        size_t j = i + 1;
        while (j + 1 < srcWarps.size() &&
               srcWarps[j + 1] - srcWarps[j] == stride) {
            ++j;
        }
        appendMoveRanges(out, Range(srcWarps[i], srcWarps[j], stride),
                         dist, srcRow, dstRow, srcReg, dstReg);
        i = j + 1;
    }
}

namespace
{

/** Strategy 5: correct-but-slow host gather. */
void
hostGather(const Tensor &src, const Tensor &dst)
{
    Device &dev = src.device();
    for (uint64_t i = 0; i < src.size(); ++i) {
        const auto [sw, sr] = src.position(i);
        const auto [dw, dr] = dst.position(i);
        ReadInstr rd;
        rd.reg = static_cast<uint8_t>(src.reg());
        rd.warp = sw;
        rd.row = sr;
        const uint32_t v = dev.driver().execute(rd);
        WriteInstr w;
        w.reg = static_cast<uint8_t>(dst.reg());
        w.value = v;
        w.warps = Range::single(dw);
        w.rows = Range::single(dr);
        dev.driver().execute(w);
    }
}

} // namespace

void
moveElements(const Tensor &src, const Tensor &dst)
{
    panicIf(src.size() != dst.size(), "moveElements: length mismatch");
    Device &dev = src.device();
    panicIf(&dev != &dst.device(),
            "moveElements: tensors on different devices");
    const uint64_t n = src.size();

    // Strategy 1: identical thread positions -> register copy.
    if (samePositions(src, dst)) {
        if (src.reg() != dst.reg() ||
            src.storage()->alloc.warpStart != dst.storage()->alloc.warpStart)
            rtypeOp(ROp::Copy, src.dtype(), dst, src);
        return;
    }

    // Classify the element-wise position mapping.
    bool rowsEqual = true;
    bool warpDistConst = true;
    bool warpsEqual = true;
    int64_t dist = 0;
    for (uint64_t i = 0; i < n; ++i) {
        const auto [sw, sr] = src.position(i);
        const auto [dw, dr] = dst.position(i);
        if (sr != dr)
            rowsEqual = false;
        const int64_t d = static_cast<int64_t>(dw) - sw;
        if (i == 0)
            dist = d;
        else if (d != dist)
            warpDistConst = false;
        if (d != 0)
            warpsEqual = false;
    }

    // Each strategy below issues its moves as one captured sequence
    // (Driver::execute(std::span<const MoveInstr>)): one compiled
    // trace where the sink can replay one, else one raw batch, which
    // a multi-device group exchanges as few Move groups.
    std::vector<MoveInstr> moves;

    // Strategy 2: same rows, constant warp distance -> one (split)
    // inter-warp move per distinct row.
    if (rowsEqual && warpDistConst && dist != 0) {
        std::vector<std::vector<uint32_t>> byRow(
            dev.geometry().rows);
        for (uint64_t i = 0; i < n; ++i) {
            const auto [sw, sr] = src.position(i);
            byRow[sr].push_back(sw);
        }
        for (uint32_t r = 0; r < byRow.size(); ++r) {
            if (byRow[r].empty())
                continue;
            std::sort(byRow[r].begin(), byRow[r].end());
            interWarpMoves(moves, byRow[r], dist, r, r, src.reg(),
                           dst.reg());
        }
        dev.driver().execute(std::span<const MoveInstr>(moves));
        return;
    }

    if (warpsEqual) {
        // Group (srcRow -> dstRow) pairs per warp.
        struct PerWarp
        {
            uint32_t warp;
            std::vector<std::pair<uint32_t, uint32_t>> pairs;
        };
        std::vector<PerWarp> perWarp;
        for (uint64_t i = 0; i < n; ++i) {
            const auto [sw, sr] = src.position(i);
            const auto [dw, dr] = dst.position(i);
            (void)dw;
            if (perWarp.empty() || perWarp.back().warp != sw)
                perWarp.push_back({sw, {}});
            perWarp.back().pairs.push_back({sr, dr});
        }
        // Strategy 3: identical row mapping in every warp, contiguous
        // warp span -> warp-parallel intra-warp moves.
        bool uniform = true;
        for (size_t k = 1; k < perWarp.size(); ++k) {
            if (perWarp[k].pairs != perWarp[0].pairs ||
                perWarp[k].warp != perWarp[k - 1].warp + 1) {
                uniform = false;
                break;
            }
        }
        MoveInstr mv;
        mv.kind = MoveInstr::Kind::IntraWarp;
        mv.srcReg = static_cast<uint8_t>(src.reg());
        mv.dstReg = static_cast<uint8_t>(dst.reg());
        if (uniform) {
            mv.warps = Range(perWarp.front().warp, perWarp.back().warp, 1);
            for (const auto &[sr, dr] : perWarp[0].pairs) {
                mv.srcRow = sr;
                mv.dstRow = dr;
                moves.push_back(mv);
            }
        } else {
            // Strategy 4: per-warp thread-serial moves.
            for (const auto &pw : perWarp) {
                mv.warps = Range::single(pw.warp);
                for (const auto &[sr, dr] : pw.pairs) {
                    mv.srcRow = sr;
                    mv.dstRow = dr;
                    moves.push_back(mv);
                }
            }
        }
        dev.driver().execute(std::span<const MoveInstr>(moves));
        return;
    }

    // Strategy 5: arbitrary remapping.
    hostGather(src, dst);
}

} // namespace pypim::lowering
