#include "sim/device_group.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "sim/batch_trace.hpp"
#include "sim/bulk_io.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/trace_wire.hpp"

namespace pypim
{

SimulatorGroup::SimulatorGroup(const Geometry &geo,
                               const EngineConfig &ec)
    : geo_(geo)
{
    geo_.validate();
    // Before any fork: a worker must never be the first to object.
    rejectRetiredFields(ec);
    uint32_t n = std::max(1u, ec.devices);
    fatalIf(!isPow2(n),
            "devices: " + std::to_string(n) +
                " is not a power of two (slices cut the crossbar "
                "space at H-tree group boundaries)");
    // Clamp instead of failing: the knob is a deployment-scale
    // setting, and a 4-crossbar test geometry under PYPIM_DEVICES=16
    // should shard as far as the geometry allows (one crossbar per
    // sub-device), not abort the suite.
    n = std::min(n, geo_.numCrossbars);
    perDevice_ = geo_.numCrossbars / n;
    // The thread budget is per LOGICAL device: divide it across the
    // sub-device engines so devices=N never oversubscribes the host
    // N-fold (each pool further clamps to its slice size).
    EngineConfig sub = ec;
    if (n > 1)
        sub.threads = std::max(1u, ec.resolvedThreads() / n);
    devices_ = n;
    reads_.resize(n);
    lands_.resize(n);

    if (ec.transport == TransportKind::Socket) {
        // Validate the fault spec HERE, pre-fork: a PYPIM_FAULTS typo
        // must throw at device construction, not surface later as a
        // mysteriously dead worker.
        if (!ec.faults.empty())
            (void)FaultSpec::parse(ec.faults);
        // The slices live in worker processes (each mirrors the
        // per-sub-device wiring below for its own Simulator); the host
        // keeps a trace-build mirror and the power-on shadow mask.
        htree_ = std::make_unique<HTree>(geo_.numCrossbars);
        expansions_ = std::make_unique<ExpansionTable>(geo_);
        shadowXb_ = Range::all(geo_.numCrossbars);
        transport_ =
            std::make_unique<SocketTransport>(geo_, sub, n, perDevice_);
        return;
    }

    sims_.reserve(n);
    for (uint32_t d = 0; d < n; ++d)
        sims_.push_back(std::make_unique<Simulator>(
            geo_, sub, d * perDevice_, perDevice_));

    // Fault tolerance: the spec is validated HERE (a PYPIM_FAULTS
    // typo throws at device construction, never silently runs
    // un-faulted), and checksum verification is enabled per
    // sub-device. Injection without verifyState is INJECTED but not
    // DETECTED — the configuration the sticky-error tests exercise.
    if (!ec.faults.empty()) {
        const FaultSpec spec = FaultSpec::parse(ec.faults);
        for (uint32_t d = 0; d < n; ++d) {
            auto inj = std::make_shared<FaultInjector>(
                spec, d, d * perDevice_, perDevice_, geo_);
            if (inj->active()) {
                sims_[d]->setFaultInjector(inj);
                injectors_.push_back(std::move(inj));
            }
        }
    }
    if (ec.verifyState)
        for (auto &s : sims_)
            s->setVerifyState(true);
}

uint64_t
SimulatorGroup::faultsInjected() const
{
    if (remote())
        return transport_->faultsInjectedAll();
    uint64_t total = 0;
    for (const auto &inj : injectors_)
        total += inj->injected();
    return total;
}

void
SimulatorGroup::suppressFaults(bool on)
{
    if (remote()) {
        transport_->suppressFaultsAll(on);
        return;
    }
    for (const auto &inj : injectors_)
        inj->setSuppressed(on);
}

CheckpointImage
SimulatorGroup::fetchRemoteImage() const
{
    panicIf(!remote(),
            "fetchRemoteImage: inproc state is walked directly");
    return transport_->fetchImage();
}

void
SimulatorGroup::restoreRemoteImage(const CheckpointImage &img)
{
    panicIf(!remote(),
            "restoreRemoteImage: inproc state is walked directly");
    transport_->restoreImage(img);
    shadowXb_ = img.maskXb;
}

void
SimulatorGroup::forwardAll(const Word *ops, size_t n)
{
    if (n == 0)
        return;
    if (remote()) {
        transport_->submitAll(ops, n);
        return;
    }
    for (auto &s : sims_)
        s->submitBatch(ops, n);
}

void
SimulatorGroup::updateShadowMask(const Word *ops, size_t n)
{
    for (size_t i = n; i-- > 0;) {
        if (enc::peekType(ops[i]) != OpType::CrossbarMask)
            continue;
        const Range r = MicroOp::decode(ops[i]).range;
        if (r.valid(geo_.numCrossbars)) {
            shadowXb_ = r;
            return;
        }
        // An ill-formed mask op throws in the workers; keep walking
        // for the last valid one before it (best effort — an error
        // stream leaves sub-device state diverged anyway).
    }
}

bool
SimulatorGroup::crossesBoundary(const Range &xb, int64_t dist) const
{
    if (dist == 0)
        return false;
    for (uint64_t src = xb.start; src <= xb.stop; src += xb.step) {
        const int64_t dst = static_cast<int64_t>(src) + dist;
        if (dst < 0 || dst >= geo_.numCrossbars ||
            deviceOf(static_cast<uint32_t>(dst)) !=
                deviceOf(static_cast<uint32_t>(src)))
            return true;
    }
    return false;
}

size_t
SimulatorGroup::exchangeGroup(const Word *ops, size_t n, size_t first,
                              Range xb)
{
    const auto t0 = std::chrono::steady_clock::now();
    // The opening Move: same validation (and failure point) as the
    // engine's doMove — an invalid one throws here, before any
    // crossbar is touched by it.
    const MicroOp head = MicroOp::decode(ops[first]);
    const int64_t headDist = validateMove(head, xb, geo_);
    if (writtenIn_.empty())
        writtenIn_.assign(static_cast<size_t>(geo_.slots()) * geo_.rows,
                          0);
    if (++group_ == 0) {  // stamp wrap-around: forget every old group
        std::fill(writtenIn_.begin(), writtenIn_.end(), 0u);
        group_ = 1;
    }
    transfers_.clear();
    uint64_t crossing = 0;
    const auto add = [&](const MicroOp &op, const Range &mask,
                         int64_t dist) {
        writtenIn_[cellOf(op.dstIdx, op.dstRow)] = group_;
        const size_t before = transfers_.size();
        mask.forEach([&](uint32_t src) {
            const uint32_t dst = static_cast<uint32_t>(src + dist);
            if (deviceOf(src) != deviceOf(dst))
                transfers_.push_back({src, dst, op.srcIdx, op.srcRow,
                                      op.dstIdx, op.dstRow, 0});
        });
        crossing += transfers_.size() != before;
    };
    add(head, xb, headDist);

    // Absorb the mask ops and valid, hazard-free Moves that follow. A
    // Move that reads the cell it writes stays a group of one.
    size_t end = first + 1;
    bool open = cellOf(head.srcIdx, head.srcRow) !=
                cellOf(head.dstIdx, head.dstRow);
    for (; open && end < n; ++end) {
        const OpType t = enc::peekType(ops[end]);
        if (t == OpType::CrossbarMask || t == OpType::RowMask) {
            const bool isXb = t == OpType::CrossbarMask;
            const Range r = MicroOp::decode(ops[end]).range;
            // An ill-formed mask must throw in the sub-devices after
            // the group took effect, as it does op by op.
            if (!r.valid(isXb ? geo_.numCrossbars : geo_.rows))
                break;
            if (isXb)
                xb = r;
            continue;
        }
        if (t != OpType::Move)
            break;
        const MicroOp op = MicroOp::decode(ops[end]);
        int64_t dist = 0;
        try {
            dist = validateMove(op, xb, geo_);
        } catch (const Error &) {
            break;  // raised when the scan reaches it, after the group
        }
        const uint32_t rd = cellOf(op.srcIdx, op.srcRow);
        const uint32_t wr = cellOf(op.dstIdx, op.dstRow);
        if (rd == wr || writtenIn_[rd] == group_ ||
            writtenIn_[wr] == group_)
            break;
        add(op, xb, dist);
    }

    // 1. Stage every crossing source value from the pre-group state:
    // the ops before the group have been forwarded, none of it has,
    // and no Move of the group reads a cell an earlier one writes.
    // Const access leaves the owning sub-device's checksum baseline
    // alone. Storage-transparent: a read of a
    // still-absent paged block yields 0.
    if (remote()) {
        for (auto &r : reads_)
            r.clear();
        for (const Transfer &t : transfers_)
            reads_[deviceOf(t.src)].push_back({t.src, t.srcSlot,
                                               t.srcRow});
        transport_->readCells(reads_, values_);
        std::vector<size_t> next(devices_, 0);
        for (Transfer &t : transfers_) {
            const uint32_t d = deviceOf(t.src);
            t.value = values_[d][next[d]++];
        }
    } else {
        for (Transfer &t : transfers_) {
            const Simulator &s = *sims_[deviceOf(t.src)];
            t.value = s.crossbar(t.src).read(t.srcSlot, t.srcRow);
        }
    }

    // 2. Broadcast the group's ops once: every sub-device validates
    // them, records the identical full-mask H-tree cost of each Move
    // and applies its intra-slice transfers.
    forwardAll(ops + first, end - first);

    // 3. Land every staged value, one write per destination
    // sub-device. The broadcast has returned (or, on a worker, ran
    // before the landing message), so the destination's local
    // application — which may READ a boundary destination as
    // the source of a chained intra-slice transfer — is complete; no
    // two Moves of the group write the same cell, so landing after
    // all of them equals landing after each.
    for (auto &l : lands_)
        l.clear();
    for (const Transfer &t : transfers_)
        lands_[deviceOf(t.dst)].push_back(
            {t.dst, t.dstSlot, t.value, t.dstRow});
    for (uint32_t d = 0; d < devices_; ++d) {
        if (lands_[d].empty())
            continue;
        if (remote())
            transport_->writeCells(d, lands_[d]);
        else
            sims_[d]->writeCells(lands_[d]);
    }

    if (remote())
        transport_->chargeExchange(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
    ++traffic_.exchanges;
    traffic_.boundaryMoves += crossing;
    traffic_.boundaryTransfers += transfers_.size();
    return end;
}

void
SimulatorGroup::submitBatch(const Word *ops, size_t n)
{
    if (devices_ == 1) {
        if (remote()) {
            forwardAll(ops, n);
            updateShadowMask(ops, n);
        } else {
            sims_[0]->submitBatch(ops, n);
        }
        return;
    }
    // Split the batch at every boundary-crossing Move (one peek per
    // word; decode only for mask and Move ops): everything between
    // two cuts is a plain broadcast; each cut opens a Move group that
    // goes through the host-mediated exchange. Moves a group absorbed
    // are only counted when the scan passes them.
    size_t chunk = 0;  // start of the not-yet-forwarded tail
    scanMoves(ops, n, liveXb(),
              [&](size_t i, const MicroOp &, const Range &xb,
                  bool crossing) {
                  ++traffic_.moveOps;
                  traffic_.moveTransfers += xb.count();
                  if (crossing && i >= chunk) {
                      forwardAll(ops + chunk, i - chunk);
                      chunk = exchangeGroup(ops, n, i, xb);
                  }
                  return true;
              });
    forwardAll(ops + chunk, n - chunk);
    if (remote())
        updateShadowMask(ops, n);
}

void
SimulatorGroup::performBatch(const Word *ops, size_t n)
{
    submitBatch(ops, n);
    flush();
}

void
SimulatorGroup::flush()
{
    if (remote()) {
        transport_->flushAll();
        return;
    }
    for (auto &s : sims_)
        s->flush();
}

uint32_t
SimulatorGroup::performRead(Word op)
{
    // Broadcast: every sub-device validates and counts the
    // Read (keeping the replicated-stats invariant); only the slice
    // owning the masked crossbar holds the data.
    if (remote())
        return transport_->readAll(op, deviceOf(shadowXb_.start));
    const uint32_t owner = deviceOf(sims_[0]->crossbarMask().start);
    uint32_t value = 0;
    for (uint32_t d = 0; d < sims_.size(); ++d) {
        const uint32_t v = sims_[d]->performRead(op);
        if (d == owner)
            value = v;
    }
    return value;
}

bool
SimulatorGroup::readBulk(const BulkIoSpec &spec, uint32_t *out,
                         BulkIoTelemetry &tel)
{
    // Broadcast: every sub-device applies the identical stats/mask
    // delta and gathers its owned warps into the shared buffer.
    if (remote()) {
        transport_->bulkReadAll(spec, out, tel);
        shadowXb_ = spec.finalXb;
        return true;
    }
    for (auto &s : sims_)
        if (!s->readBulk(spec, out, tel))
            return false;
    return true;
}

bool
SimulatorGroup::writeBulk(const BulkIoSpec &spec,
                          const uint32_t *values, BulkIoTelemetry &tel)
{
    if (remote()) {
        transport_->bulkWriteAll(spec, values, tel);
        shadowXb_ = spec.finalXb;
        return true;
    }
    for (auto &s : sims_)
        if (!s->writeBulk(spec, values, tel))
            return false;
    return true;
}

bool
SimulatorGroup::streamCrossesBoundary(const Word *ops, size_t n,
                                      const Range &xb) const
{
    bool found = false;
    scanMoves(ops, n, xb,
              [&](size_t, const MicroOp &, const Range &,
                  bool crossing) {
                  found = crossing;
                  return !found;  // stop at the first crossing
              });
    return found;
}

std::shared_ptr<const BatchTrace>
SimulatorGroup::prepareTrace(const Word *ops, size_t n,
                             const EntryMasks *entry)
{
    // A trace replays blindly on every slice; a boundary-crossing
    // Move needs the scanning exchange, so such streams stay on the
    // raw path (the caller falls back transparently). The cheap raw
    // scan runs BEFORE the expensive build+compile, so a refused
    // signature costs one peek pass per attempt, not a discarded
    // trace construction. (R-type streams contain no Moves; only a
    // captured move sequence with inter-warp moves can hit this.) An
    // entry-dependent trace only ever replays under its entry masks,
    // so that is the state its Moves are judged from.
    if (devices_ > 1 &&
        streamCrossesBoundary(ops, n, entry ? entry->xb : liveXb()))
        return nullptr;
    // Under the socket transport the trace is built on the host's
    // mirror and stamped with its wire identity, so submitTrace can
    // install it once per worker and replay by signature thereafter.
    if (remote())
        return buildWireTrace(ops, n, geo_, *htree_, *expansions_,
                              entry);
    // Building touches no simulated state, and the handle is bound to
    // the (shared) geometry, not a slice: build once via sub-device 0.
    return sims_[0]->prepareTrace(ops, n, entry);
}

void
SimulatorGroup::submitTrace(std::shared_ptr<const BatchTrace> trace)
{
    panicIf(trace == nullptr, "submitTrace: null trace");
    if (devices_ > 1) {
        for (const BatchTrace::Item &item : trace->items) {
            if (item.kind != BatchTrace::Item::Kind::Move)
                continue;
            ++traffic_.moveOps;
            traffic_.moveTransfers += item.xb.count();
        }
    }
    if (remote()) {
        transport_->submitTraceAll(*trace);
        // A prepared trace is self-contained (leads with both masks),
        // so its final mask state is the stream's.
        shadowXb_ = trace->finalXb;
        return;
    }
    for (auto &s : sims_)
        s->submitTrace(trace);
}

} // namespace pypim
