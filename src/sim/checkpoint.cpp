#include "sim/checkpoint.hpp"

#include <string>
#include <type_traits>

#include "common/error.hpp"
#include "sim/device_group.hpp"
#include "sim/fault.hpp"

namespace pypim
{

void
captureSlice(const Simulator &sim, CheckpointImage &img)
{
    img.geo = sim.geometry();
    img.storage = sim.crossbar(sim.sliceLo()).storage();
    // Replicated across sub-devices (the group invariant): every
    // slice's view is the logical device's.
    img.maskXb = sim.crossbarMask();
    img.maskRow = sim.rowMask();
    img.archStats = sim.stats();
    // The Simulator is synchronous: no replay runs between its calls,
    // so the live crossbars are walked directly, canonically, and
    // dense and paged storage produce the identical records.
    const uint32_t lo = sim.sliceLo();
    for (uint32_t xb = lo; xb < lo + sim.sliceCount(); ++xb) {
        CrossbarImage ci;
        ci.xb = xb;
        sim.crossbar(xb).forEachNonZeroBlock(
            [&](uint32_t col, uint32_t b, const uint64_t *w, uint32_t n) {
                ci.blocks.push_back(
                    BlockRecord{col, b, std::vector<uint64_t>(w, w + n)});
            });
        if (!ci.blocks.empty())
            img.crossbars.push_back(std::move(ci));
    }
}

void
restoreSlice(Simulator &sim, const CheckpointImage &img)
{
    fatalIf(img.geo != sim.geometry(),
            "restore: checkpoint geometry does not match this device");
    for (const CrossbarImage &ci : img.crossbars)
        if (ci.xb >= img.geo.numCrossbars)
            fatal("restore: crossbar record " + std::to_string(ci.xb) +
                  " outside the geometry");
    sim.restoreArchState(img.maskXb, img.maskRow, img.archStats);
    // Zero everything owned, then load the owned records. Records are
    // global-coordinate, so any source device count reassembles by
    // ownership alone.
    const uint32_t lo = sim.sliceLo();
    for (uint32_t xb = lo; xb < lo + sim.sliceCount(); ++xb)
        sim.crossbar(xb).resetState();
    for (const CrossbarImage &ci : img.crossbars) {
        if (!sim.ownsCrossbar(ci.xb))
            continue;
        Crossbar &xb = sim.crossbar(ci.xb);
        for (const BlockRecord &rec : ci.blocks)
            xb.loadBlock(rec.col, rec.block, rec.words.data(),
                         static_cast<uint32_t>(rec.words.size()));
    }
    // The rewrite went through non-const crossbar(), which marks the
    // checksum baseline stale: re-bless so verification resumes from
    // the restored state.
    sim.rebaselineChecksums();
}

CheckpointImage
buildGroupImage(const SimulatorGroup &group)
{
    // Socket transport: the slices live in worker processes, each of
    // which captures its own slice and ships it as a checkpoint image.
    if (group.remote())
        return group.fetchRemoteImage();
    CheckpointImage img;
    for (uint32_t d = 0; d < group.devices(); ++d)
        captureSlice(group.sub(d), img);
    img.deviceCount = group.devices();
    return img;
}

void
restoreGroupImage(SimulatorGroup &group, const CheckpointImage &img)
{
    fatalIf(img.geo != group.geometry(),
            "restore: checkpoint geometry does not match this device");
    // Socket transport: broadcast the image — each worker restores its
    // owned slice (respawning any dead worker first, which is the
    // WorkerDied recovery path).
    if (group.remote()) {
        group.restoreRemoteImage(img);
        return;
    }
    for (uint32_t d = 0; d < group.devices(); ++d)
        restoreSlice(group.sub(d), img);
}

RecoverySink::RecoverySink(SimulatorGroup &group,
                           const EngineConfig &ec)
    : group_(group), enabled_(ec.verifyState)
{
    if (enabled_)
        baseline_ = buildGroupImage(group_);
}

void
RecoverySink::rebaseline()
{
    if (!enabled_)
        return;
    baseline_ = buildGroupImage(group_);
    journal_.clear();
    terminal_ = nullptr;
    needRecover_ = false;
}

void
RecoverySink::setSuppressed(bool on)
{
    group_.suppressFaults(on);
}

void
RecoverySink::applyCall(const Call &c)
{
    switch (c.kind) {
      case Call::Kind::Batch:
        group_.submitBatch(c.ops.data(), c.ops.size());
        break;
      case Call::Kind::Trace:
        group_.submitTrace(c.trace);
        break;
      case Call::Kind::Read:
        group_.performRead(c.readOp);  // response discarded: only the
        break;                         // stats/mask effect matters
      case Call::Kind::BulkRead: {
        std::vector<uint32_t> scratch(c.spec.count);
        BulkIoTelemetry tel;
        group_.readBulk(c.spec, scratch.data(), tel);
        break;
      }
      case Call::Kind::BulkWrite: {
        BulkIoTelemetry tel;
        group_.writeBulk(c.spec, c.values.data(), tel);
        break;
      }
    }
}

void
RecoverySink::recover()
{
    // Runs under the caller's fault suppression (runRecovered).
    restoreGroupImage(group_, baseline_);
    for (const Call &c : journal_)
        applyCall(c);
    // Surface re-replay faults here (inside the retry loop), not at
    // some later unrelated call.
    group_.flush();
    needRecover_ = false;
    ++stats_.recoveries;
    // The flush above verified the re-replayed state, so it is a
    // known-good rollback point: advance the baseline and drop the
    // journal. Without this, every recovery re-replays from the LAST
    // CHECKPOINT — quadratic in program length under a sustained
    // fault rate; with it, each re-replay covers only the calls since
    // the previous fault. (Cost: one walk of the live state per
    // recovery.)
    baseline_ = buildGroupImage(group_);
    journal_.clear();
}

template <typename Fn>
auto
RecoverySink::runRecovered(Fn &&fn)
{
    if (terminal_)
        std::rethrow_exception(terminal_);
    for (uint32_t attempt = 0;; ++attempt) {
        try {
            if (!needRecover_)
                return fn();
            // One-shot and random fault classes are suppressed during
            // the re-replay AND the retried call: a retry models a
            // re-run that does not hit the same transient. Stuck-at
            // pins stay active — persistent damage does not heal
            // because the host retried, which is exactly how the retry
            // cap gets exhausted and the failure goes terminal.
            setSuppressed(true);
            try {
                recover();
                if constexpr (std::is_void_v<decltype(fn())>) {
                    fn();
                    setSuppressed(false);
                    return;
                } else {
                    auto result = fn();
                    setSuppressed(false);
                    return result;
                }
            } catch (...) {
                setSuppressed(false);
                throw;
            }
        } catch (const DeviceFault &) {
            // Detected corruption or an injected failure — the
            // recoverable family. Anything else (user Error,
            // InternalError) propagates untouched.
            ++stats_.faultsDetected;
            needRecover_ = true;
            if (attempt + 1 >= kRetryCap) {
                terminal_ = std::current_exception();
                std::rethrow_exception(terminal_);
            }
        }
    }
}

void
RecoverySink::performBatch(const Word *ops, size_t n)
{
    if (!enabled_) {
        group_.performBatch(ops, n);
        return;
    }
    runRecovered([&] { group_.performBatch(ops, n); });
    Call c;
    c.kind = Call::Kind::Batch;
    c.ops.assign(ops, ops + n);
    journal_.push_back(std::move(c));
}

void
RecoverySink::submitBatch(const Word *ops, size_t n)
{
    if (!enabled_) {
        group_.submitBatch(ops, n);
        return;
    }
    runRecovered([&] { group_.submitBatch(ops, n); });
    Call c;
    c.kind = Call::Kind::Batch;
    c.ops.assign(ops, ops + n);
    journal_.push_back(std::move(c));
}

void
RecoverySink::flush()
{
    if (!enabled_) {
        group_.flush();
        return;
    }
    // No journal entry: a flush has no architectural effect, but it
    // is where checksum mismatches and a socket worker's sticky
    // faults surface — the retry loop turns them into a recovery.
    runRecovered([&] { group_.flush(); });
}

uint32_t
RecoverySink::performRead(Word op)
{
    if (!enabled_)
        return group_.performRead(op);
    const uint32_t v = runRecovered([&] { return group_.performRead(op); });
    Call c;
    c.kind = Call::Kind::Read;
    c.readOp = op;
    journal_.push_back(std::move(c));
    return v;
}

std::shared_ptr<const BatchTrace>
RecoverySink::prepareTrace(const Word *ops, size_t n,
                           const EntryMasks *entry)
{
    // Builds touch no architectural state: no journal, no guard. An
    // entry-dependent trace stays valid in the journal: recovery
    // replays it from the restored mask state it was submitted under.
    return group_.prepareTrace(ops, n, entry);
}

void
RecoverySink::submitTrace(std::shared_ptr<const BatchTrace> trace)
{
    if (!enabled_) {
        group_.submitTrace(std::move(trace));
        return;
    }
    runRecovered([&] { group_.submitTrace(trace); });
    Call c;
    c.kind = Call::Kind::Trace;
    c.trace = std::move(trace);
    journal_.push_back(std::move(c));
}

bool
RecoverySink::readBulk(const BulkIoSpec &spec, uint32_t *out,
                       BulkIoTelemetry &tel)
{
    if (!enabled_)
        return group_.readBulk(spec, out, tel);
    const bool ok =
        runRecovered([&] { return group_.readBulk(spec, out, tel); });
    if (ok) {
        Call c;
        c.kind = Call::Kind::BulkRead;
        c.spec = spec;
        journal_.push_back(std::move(c));
    }
    return ok;
}

bool
RecoverySink::writeBulk(const BulkIoSpec &spec,
                        const uint32_t *values, BulkIoTelemetry &tel)
{
    if (!enabled_)
        return group_.writeBulk(spec, values, tel);
    const bool ok = runRecovered(
        [&] { return group_.writeBulk(spec, values, tel); });
    if (ok) {
        Call c;
        c.kind = Call::Kind::BulkWrite;
        c.spec = spec;
        c.values.assign(values, values + spec.count);
        journal_.push_back(std::move(c));
    }
    return ok;
}

} // namespace pypim
