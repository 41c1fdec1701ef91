#include "sim/simulator.hpp"

#include "common/error.hpp"
#include "sim/batch_trace.hpp"
#include "sim/bulk_io.hpp"
#include "sim/fault.hpp"
#include "sim/replay_program.hpp"

namespace pypim
{

Simulator::Simulator(const Geometry &geo, const EngineConfig &ec)
    : Simulator(geo, ec, 0, geo.numCrossbars)
{
}

Simulator::Simulator(const Geometry &geo, const EngineConfig &ec,
                     uint32_t sliceLo, uint32_t sliceCount)
    : geo_(geo),
      sliceLo_(sliceLo),
      htree_(geo.numCrossbars),
      expansions_(geo)
{
    geo_.validate();
    fatalIf(sliceCount == 0 || sliceCount > geo_.numCrossbars ||
                sliceLo > geo_.numCrossbars - sliceCount,
            "simulator: crossbar slice [" + std::to_string(sliceLo) +
                ", " + std::to_string(sliceLo + sliceCount) +
                ") outside the geometry");
    xbs_.reserve(sliceCount);
    for (uint32_t i = 0; i < sliceCount; ++i)
        xbs_.emplace_back(geo_, ec.storage);
    mask_.reset(geo_);
    setEngine(ec);
}

void
Simulator::checkOwned(uint32_t i) const
{
    if (!ownsCrossbar(i))
        fatal("crossbar " + std::to_string(i) +
                  " is outside this simulator's slice [" +
                  std::to_string(sliceLo_) + ", " +
                  std::to_string(sliceLo_ + sliceCount()) +
                  "); route through the owning sub-device "
                  "(SimulatorGroup::crossbar)");
}

StorageGauges
Simulator::storageGauges() const
{
    StorageGauges g;
    for (const Crossbar &xb : xbs_)
        g += xb.storageGauges();
    return g;
}

uint64_t
Simulator::compactStorage()
{
    uint64_t elided = 0;
    for (Crossbar &xb : xbs_)
        elided += xb.compact();
    return elided;
}

void
Simulator::setEngine(const EngineConfig &ec)
{
    // The crossbar state (and with it the storage representation)
    // survives the swap: ec.storage is applied at construction only.
    rejectRetiredFields(ec);
    engine_ = std::make_unique<ExecutionEngine>(
        geo_, xbs_, sliceLo_, htree_, mask_, stats_,
        ec.resolvedThreads());
}

// --- fault-tolerance plumbing -------------------------------------------

void
Simulator::verifyChecksums()
{
    if (!verifyState_)
        return;
    if (checksumsStale_) {
        // The host mutated state directly (non-const crossbar());
        // adopt what it left rather than flagging it as corruption.
        blessChecksums();
        return;
    }
    for (size_t i = 0; i < xbs_.size(); ++i) {
        if (xbs_[i].stateChecksum() != checksums_[i])
            throw StateCorruption(
                "state corruption detected: crossbar " +
                std::to_string(sliceLo_ + i) +
                " diverged from its blessed checksum");
    }
}

void
Simulator::blessChecksums()
{
    checksums_.resize(xbs_.size());
    for (size_t i = 0; i < xbs_.size(); ++i)
        checksums_[i] = xbs_[i].stateChecksum();
    checksumsStale_ = false;
}

void
Simulator::postReplayHook()
{
    if (verifyState_)
        blessChecksums();
    if (injector_) {
        injector_->maybeFail();
        injector_->corrupt(xbs_);
    }
}

template <typename Fn>
void
Simulator::replayGuarded(Fn &&fn)
{
    verifyChecksums();
    try {
        fn();
    } catch (...) {
        // A malformed op threw after its valid prefix replayed: that
        // prefix is legitimate state, not corruption — bless it so
        // the error stays a user error at the next verify point.
        if (verifyState_)
            blessChecksums();
        throw;
    }
    postReplayHook();
}

void
Simulator::setVerifyState(bool on)
{
    verifyState_ = on;
    if (on)
        blessChecksums();
    else
        checksums_.clear();
}

void
Simulator::setFaultInjector(std::shared_ptr<FaultInjector> inj)
{
    injector_ = std::move(inj);
}

void
Simulator::restoreArchState(const Range &maskXb, const Range &maskRow,
                            const Stats &stats)
{
    mask_.xb = maskXb;
    mask_.setRow(maskRow, geo_.rows);
    stats_ = stats;
}

void
Simulator::rebaselineChecksums()
{
    if (verifyState_)
        blessChecksums();
}

void
Simulator::performBatch(const Word *ops, size_t n)
{
    replayGuarded([&] { engine_->execute(ops, n); });
}

void
Simulator::flush()
{
    // Drain-point verify: faults injected after the last batch's
    // bless (or corruption from any other source) surface here, at a
    // sync point, never silently.
    verifyChecksums();
}

std::shared_ptr<const BatchTrace>
Simulator::prepareTrace(const Word *ops, size_t n,
                        const EntryMasks *entry)
{
    if (!entry && !leadsWithMasks(ops, n))
        return nullptr;
    auto batch = std::make_shared<BatchTrace>();
    // Decode on a local mask state — prepareTrace never touches the
    // live mask. A self-contained stream re-establishes both masks
    // before using them, so power-on decodes it exactly as any entry
    // state would; otherwise the caller names the entry state and
    // submitTrace holds the live masks to it.
    MaskState local;
    local.reset(geo_);
    if (entry) {
        entry->xb.validate(geo_.numCrossbars, "crossbar");
        entry->row.validate(geo_.rows, "row");
        local.xb = entry->xb;
        local.setRow(entry->row, geo_.rows);
        batch->hasEntry = true;
        batch->entryXb = entry->xb;
        batch->entryRow = entry->row;
    }
    try {
        buildBatchTrace(ops, n, geo_, htree_, expansions_, local,
                        *batch);
    } catch (...) {
        // Match the accounting of an uncached submit, which records
        // the valid prefix before throwing.
        stats_ += batch->stats;
        throw;
    }
    // Lower the segments into flat replay programs before the batch
    // freezes; replay reads nothing else, so the decode arenas go.
    compileBatchTrace(*batch, geo_);
    releaseSegmentArenas(*batch);
    return batch;
}

void
Simulator::submitTrace(std::shared_ptr<const BatchTrace> trace)
{
    panicIf(trace == nullptr, "submitTrace: null trace");
    panicIf(trace->geoRows != geo_.rows ||
                trace->geoCols != geo_.cols ||
                trace->geoPartitions != geo_.partitions ||
                trace->geoCrossbars != geo_.numCrossbars,
            "submitTrace: trace was built for a different geometry");
    // Entry guard: a trace decoded from an entry mask state replays
    // correctly only under that state.
    panicIf(trace->hasEntry && (!(mask_.xb == trace->entryXb) ||
                                !(mask_.row == trace->entryRow)),
            "submitTrace: live masks differ from the trace's entry "
            "mask state");
    stats_ += trace->stats;
    mask_.xb = trace->finalXb;
    mask_.setRow(trace->finalRow, geo_.rows);
    replayGuarded([&] { engine_->replayBatch(*trace); });
}

bool
Simulator::readBulk(const BulkIoSpec &spec, uint32_t *out,
                    BulkIoTelemetry &tel)
{
    // The one drain point of the transfer, as the first per-element
    // performRead of the oracle loop would be.
    verifyChecksums();
    // Apply the pre-planned architectural effect — the submitTrace
    // pattern: the stats delta and final mask state were computed by
    // the planner, identically on every sub-device.
    stats_ += spec.stats;
    mask_.xb = spec.finalXb;
    mask_.setRow(spec.finalRow, geo_.rows);
    tel.wordsTransposed += engine_->executeReadBulk(spec, out);
    tel.drains += 1;
    return true;
}

bool
Simulator::writeBulk(const BulkIoSpec &spec, const uint32_t *values,
                     BulkIoTelemetry &tel)
{
    verifyChecksums();
    stats_ += spec.stats;
    mask_.xb = spec.finalXb;
    mask_.setRow(spec.finalRow, geo_.rows);
    tel.wordsTransposed += engine_->applyWriteBulk(spec, values);
    tel.drains += 1;
    // The scatter is a legitimate host mutation: re-bless.
    if (verifyState_)
        blessChecksums();
    return true;
}

void
Simulator::writeCells(std::span<const CellWrite> cells)
{
    verifyChecksums();
    for (const CellWrite &c : cells) {
        checkOwned(c.xb);
        xbs_[c.xb - sliceLo_].writeRow(c.slot, c.value, c.row);
    }
    // The landing is a legitimate mutation: re-bless.
    if (verifyState_)
        blessChecksums();
}

uint32_t
Simulator::performRead(Word op)
{
    verifyChecksums();
    return engine_->executeRead(MicroOp::decode(op));
}

void
Simulator::perform(const MicroOp &op)
{
    const Word w = op.encode();
    performBatch(&w, 1);
}

uint32_t
Simulator::read(const MicroOp &op)
{
    return engine_->executeRead(op);
}

} // namespace pypim
