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
 *  - the RAW SOURCE STREAM: the receiver rebuilds the trace
 *    deterministically with buildBatchTrace on its own arenas and
 *    compiles it there (compileBatchTrace), where it replays;
 *  - the ENTRY MASK STATE of an entry-dependent trace (a captured
 *    move sequence, OperationSink::prepareTrace's @c entry): a flag
 *    and, when set, both entry Ranges. The receiver decodes from them
 *    and stamps them on its trace, so Simulator::submitTrace's entry
 *    guard holds inside the worker;
 *  - the batch's architectural epilogue (Stats, final masks) as a
 *    CROSS-CHECK: the rebuilt trace must reproduce it exactly, so a
 *    sender/receiver decode divergence fails loudly instead of
 *    silently corrupting the replicated-stats invariant.
 *
 * Nothing else: compiled programs never cross the wire. Every field
 * of the image is therefore either guarded by a check or an input to
 * the rebuild the checks verify, and a worker never installs offsets
 * or column indices it did not derive itself. A worker keeps only the
 * compiled trace: the source stream is the host encoder's.
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
 * otherwise the trace is built from the entry state (or power-on),
 * stamped with its wire identity (BatchTrace::wireSig/sourceOps) and
 * stripped of its segment arenas: the host never replays it, it only
 * ships the source stream and walks the Move items. Unlike the Simulator path, a
 * malformed stream throws without any stats side effect — the caller
 * owns no counters.
 */
std::shared_ptr<const BatchTrace>
buildWireTrace(const Word *ops, size_t n, const Geometry &geo,
               const HTree &htree, const EntryMasks *entry = nullptr);

/** Encode @p trace (which must carry its wire identity) into one
 *  self-contained image. */
std::vector<uint8_t> encodeTraceWire(const BatchTrace &trace);

/**
 * Decode an image produced by encodeTraceWire into a freshly rebuilt
 * frozen trace for @p geo, verifying the magic/version/geometry
 * guards, the entry flag and masks, the signature, and the
 * architectural epilogue cross-check, then compiles it for replay (a
 * socket worker's install path). The result carries the image's entry
 * state (BatchTrace::hasEntry/entryXb/entryRow) and its wireSig, but
 * no source stream. Throws pypim::Error on any mismatch or
 * truncation, including an image of another version.
 */
std::shared_ptr<const BatchTrace>
decodeTraceWire(const uint8_t *bytes, size_t n, const Geometry &geo,
                const HTree &htree);

} // namespace pypim

#endif // PYPIM_SIM_TRACE_WIRE_HPP
