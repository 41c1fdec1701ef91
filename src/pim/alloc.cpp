#include "pim/alloc.hpp"

#include <algorithm>
#include <string>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "sim/serialize.hpp"

namespace pypim
{

MemoryManager::MemoryManager(const Geometry &geo, uint32_t devices)
    : geo_(&geo),
      sliceWarps_(geo.numCrossbars /
                  std::max(1u, std::min(devices, geo.numCrossbars))),
      used_(geo.userRegs,
            std::vector<bool>(geo.numCrossbars, false))
{
}

bool
MemoryManager::rangeFree(uint32_t reg, uint32_t warpStart,
                         uint32_t warpCount) const
{
    for (uint32_t w = warpStart; w < warpStart + warpCount; ++w)
        if (used_[reg][w])
            return false;
    return true;
}

void
MemoryManager::markRange(uint32_t reg, uint32_t warpStart,
                         uint32_t warpCount, bool used)
{
    for (uint32_t w = warpStart; w < warpStart + warpCount; ++w)
        used_[reg][w] = used;
}

Allocation
MemoryManager::allocAt(uint32_t warpStart, uint32_t warpCount,
                       uint64_t elements)
{
    fatalIf(warpCount == 0 || elements == 0,
            "alloc: empty tensors are not allocatable");
    fatalIf(warpStart + warpCount > geo_->numCrossbars,
            "alloc: warp range out of bounds");
    fatalIf(elements > static_cast<uint64_t>(warpCount) * geo_->rows,
            "alloc: elements exceed the warp range capacity");
    for (uint32_t reg = 0; reg < geo_->userRegs; ++reg) {
        if (!rangeFree(reg, warpStart, warpCount))
            continue;
        markRange(reg, warpStart, warpCount, true);
        ++live_;
        slotsInUse_ += warpCount;
        return Allocation{reg, warpStart, warpCount, elements};
    }
    fatal("out of PIM memory: no free register covers warps [" +
          std::to_string(warpStart) + ", " +
          std::to_string(warpStart + warpCount) + ")");
}

Allocation
MemoryManager::alloc(uint64_t elements, const Allocation *hint)
{
    fatalIf(elements == 0, "alloc: empty tensors are not allocatable");
    const uint32_t warps = static_cast<uint32_t>(
        divCeil(elements, geo_->rows));
    if (warps > geo_->numCrossbars)
        fatal("alloc: tensor of " + std::to_string(elements) +
              " elements exceeds the memory (" +
              std::to_string(static_cast<uint64_t>(geo_->numCrossbars) *
                             geo_->rows) + " threads)");
    // Reference-tensor alignment (paper §V-A): try the hinted warp
    // range first so subsequent arithmetic needs no fall-back copy.
    if (hint && hint->warpCount >= warps &&
        hint->warpStart + warps <= geo_->numCrossbars) {
        for (uint32_t reg = 0; reg < geo_->userRegs; ++reg) {
            if (rangeFree(reg, hint->warpStart, warps)) {
                markRange(reg, hint->warpStart, warps, true);
                ++live_;
                slotsInUse_ += warps;
                return Allocation{reg, hint->warpStart, warps, elements};
            }
        }
    }
    // Shard-aware first fit across registers and warp offsets: the
    // first pass admits only ranges fully inside one sub-device
    // slice, so tensor traffic stays intra-device whenever the memory
    // allows it (tensors wider than a slice, and a fragmented memory,
    // fall through to the unrestricted pass and stripe).
    const bool fitsSlice = warps <= sliceWarps_;
    for (int pass = fitsSlice ? 0 : 1; pass < 2; ++pass) {
        const bool withinSlice = pass == 0;
        for (uint32_t reg = 0; reg < geo_->userRegs; ++reg) {
            for (uint32_t w = 0; w + warps <= geo_->numCrossbars;
                 ++w) {
                if (withinSlice &&
                    w / sliceWarps_ != (w + warps - 1) / sliceWarps_)
                    continue;
                if (rangeFree(reg, w, warps)) {
                    markRange(reg, w, warps, true);
                    ++live_;
                    slotsInUse_ += warps;
                    return Allocation{reg, w, warps, elements};
                }
            }
        }
    }
    fatal("out of PIM memory: no register/warp range fits " +
          std::to_string(elements) + " elements");
}

std::vector<uint8_t>
MemoryManager::exportState() const
{
    ByteWriter w;
    w.u32(static_cast<uint32_t>(used_.size()));
    w.u32(used_.empty()
              ? 0
              : static_cast<uint32_t>(used_[0].size()));
    w.u32(live_);
    w.u64(slotsInUse_);
    // Bit-packed occupancy, register-major (8 warps per byte).
    uint8_t acc = 0;
    int nbits = 0;
    for (const auto &reg : used_) {
        for (bool b : reg) {
            acc |= static_cast<uint8_t>(b) << nbits;
            if (++nbits == 8) {
                w.u8(acc);
                acc = 0;
                nbits = 0;
            }
        }
    }
    if (nbits)
        w.u8(acc);
    return w.take();
}

void
MemoryManager::importState(const std::vector<uint8_t> &blob)
{
    if (blob.empty()) {
        for (auto &reg : used_)
            std::fill(reg.begin(), reg.end(), false);
        live_ = 0;
        slotsInUse_ = 0;
        return;
    }
    ByteReader r(blob);
    const uint32_t regs = r.u32();
    const uint32_t warps = r.u32();
    fatalIf(regs != used_.size() ||
                (regs != 0 && warps != used_[0].size()),
            "allocator restore: occupancy shape mismatch");
    const uint32_t live = r.u32();
    const uint64_t slots = r.u64();
    uint8_t acc = 0;
    int nbits = 0;
    for (auto &reg : used_) {
        for (size_t w = 0; w < reg.size(); ++w) {
            if (nbits == 0) {
                acc = r.u8();
                nbits = 8;
            }
            reg[w] = acc & 1;
            acc >>= 1;
            --nbits;
        }
    }
    r.expectEnd("allocator state");
    live_ = live;
    slotsInUse_ = slots;
}

void
MemoryManager::free(const Allocation &a)
{
    panicIf(a.reg >= geo_->userRegs ||
            a.warpStart + a.warpCount > geo_->numCrossbars,
            "free: allocation out of range");
    for (uint32_t w = a.warpStart; w < a.warpStart + a.warpCount; ++w)
        panicIf(!used_[a.reg][w], "free: slot already free");
    markRange(a.reg, a.warpStart, a.warpCount, false);
    --live_;
    slotsInUse_ -= a.warpCount;
}

} // namespace pypim
