/**
 * @file
 * Versioned BatchTrace wire format — the other half of the fleet wire
 * protocol (sim/serialize.hpp built the state half in PR 9).
 *
 * A frozen BatchTrace crosses a shard-transport link as one
 * self-contained image, content-addressed by traceSignature() (FNV-1a
 * of the source micro-op words and the entry mask state, so identical workloads produce identical wire addresses and
 * one stream decoded from two entry states gets two). The image
 * carries:
 *
 *  - the RAW SOURCE STREAM: the receiver decodes it deterministically,
 *    once: it compiles it on its own arenas (compileBatchTrace,
 *    sim/batch_trace.hpp) when the shipped crossbar hull meets the
 *    receiver's slice, the one place it changes state, and scans it
 *    (scanBatchTrace) otherwise;
 *  - the ENTRY MASK STATE of an entry-dependent trace (a captured
 *    move sequence, OperationSink::prepareTrace's @c entry): a flag
 *    and, when set, both entry Ranges. The receiver decodes from them
 *    and stamps them on its trace, so Simulator::submitTrace's entry
 *    guard holds inside the worker;
 *  - the batch's architectural epilogue (Stats, final masks) and the
 *    host scan's crossbar hull as a CROSS-CHECK: every receiver's
 *    decode must reproduce them exactly, at either depth, so a
 *    sender/receiver decode divergence fails loudly instead of
 *    silently corrupting the replicated-stats invariant, and a forged
 *    hull cannot choose the depth.
 *
 * Neither end compiles what it does not replay. The sender (the
 * socket host) only scans: it ships the source stream and walks the
 * Move items. A receiver whose slice the hull misses installs the
 * scan as it is — Stats, final masks, entry guard and no programs —
 * and submits it through Simulator::submitTrace like any trace, so
 * its Stats, masks, fault-injector draws and state checks match the
 * in-process group's. Both ends decode through their owner's
 * ExpansionTable (sim/segment_trace.hpp).
 *
 * Nothing else: compiled programs never cross the wire. Every field
 * of the image is therefore either guarded by a check or an input to
 * the decode the checks verify, and a worker never installs offsets or
 * column indices it did not derive itself. A worker keeps only the
 * installed trace: the source stream is the host encoder's.
 *
 * Framing (CRC, length prefix) is the transport's job
 * (sim/transport.hpp); this codec still magic/version-guards and
 * bounds-checks every field and throws pypim::Error on any damage —
 * a corrupt trace image must never install partial state.
 */
#ifndef PYPIM_SIM_TRACE_WIRE_HPP
#define PYPIM_SIM_TRACE_WIRE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "uarch/microop.hpp"

namespace pypim
{

struct BatchTrace;
struct EntryMasks;
class ExpansionTable;
class HTree;

/** Content address of a frozen trace: FNV-1a over the source micro-op
 *  words and, when given, the entry mask state. */
uint64_t traceSignature(const Word *ops, size_t n,
                        const EntryMasks *entry = nullptr);

/**
 * Build a frozen, wire-addressable BatchTrace from a self-contained
 * stream WITHOUT a Simulator: the host-side mirror of
 * Simulator::prepareTrace for transports whose sub-device state lives
 * elsewhere, with the same @p entry contract. Returns null when
 * @p entry is not given and the stream does not lead with both masks;
 * otherwise the trace is scanned from the entry state (or power-on)
 * through @p table and stamped with its wire identity
 * (BatchTrace::wireSig/sourceOps). It holds no programs: the host
 * never replays it, it only ships the source stream and walks the
 * Move items. Unlike the Simulator path, a malformed stream throws
 * without any stats side effect — the caller owns no counters.
 */
std::shared_ptr<const BatchTrace>
buildWireTrace(const Word *ops, size_t n, const Geometry &geo,
               const HTree &htree, ExpansionTable &table,
               const EntryMasks *entry = nullptr);

/** Encode @p trace (which must carry its wire identity) into one
 *  self-contained image. */
std::vector<uint8_t> encodeTraceWire(const BatchTrace &trace);

/**
 * Decode an image produced by encodeTraceWire into a frozen trace for
 * @p geo, installed as the owner of crossbars
 * [@p sliceLo, @p sliceLo + @p sliceCount) replays it (a socket
 * worker's install path). Verifies the magic/version/geometry guards,
 * the entry flag and masks and the signature, then decodes the stream
 * once through @p table: compiled if the shipped hull meets the
 * slice, scanned (no programs) otherwise. Cross-checks the decode's
 * Stats, final masks and hull against the image's. The result carries
 * the image's entry state (BatchTrace::hasEntry/entryXb/entryRow) and
 * its wireSig, but no source stream. Throws pypim::Error on any
 * mismatch or truncation, including an image of another version.
 */
std::shared_ptr<const BatchTrace>
decodeTraceWire(const uint8_t *bytes, size_t n, const Geometry &geo,
                const HTree &htree, ExpansionTable &table,
                uint32_t sliceLo, uint32_t sliceCount);

} // namespace pypim

#endif // PYPIM_SIM_TRACE_WIRE_HPP
