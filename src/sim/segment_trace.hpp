/**
 * @file
 * The LogicH expansion table: each distinct LogicH word validated and
 * expanded once per owner.
 *
 * A LogicH word expands (expandLogicH) into up to one half-gate
 * section per partition, validated against the restricted partition
 * model. The table stores every word that validated as a compact run
 * of its ACTIVE sections only, back to back in one flat arena, and
 * hands out runs by offset into that arena. The replay compiler
 * (sim/replay_program.hpp) reads a LogicH op's sections from there
 * while it lowers the op's segment: no per-segment copy of a run
 * exists.
 */
#ifndef PYPIM_SIM_SEGMENT_TRACE_HPP
#define PYPIM_SIM_SEGMENT_TRACE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "uarch/microop.hpp"

namespace pypim
{

/**
 * One active section of a LogicH expansion: its output column and
 * input columns. A gate with fewer than two inputs repeats its last
 * operand (inA = outCol for INIT, inB = inA for NOT), the shape of
 * ReplayProgram::PSection, so consumers visiting all three columns
 * stay exact. Columns fit 16 bits (cols <= 1024 by the op format).
 */
struct ActiveSection
{
    uint16_t outCol = 0;
    uint16_t inA = 0, inB = 0;
    bool operator==(const ActiveSection &) const = default;
};

/**
 * Header of one LogicH expansion: @ref count active sections at
 * offset @ref off of its ExpansionTable's section arena, in ascending
 * partition order.
 */
struct HalfGateRun
{
    uint32_t off = 0;
    uint16_t count = 0;
    Gate gate = Gate::Nor;
    bool operator==(const HalfGateRun &) const = default;
};

/**
 * Expansion table of one decoder: LogicH word -> its validated compact
 * run. The half-gates expansion (expandLogicH) validates a word
 * against the restricted partition model; the table pays that once
 * per distinct word for as long as its owner lives, however many
 * segments and traces use the word. Only a word that validated is
 * stored, so a malformed word throws the same message every time it
 * is seen.
 *
 * The owner is the object that decodes: a Simulator (in process and
 * in each shard worker) or a socket SimulatorGroup's host mirror. The
 * table lives and dies with it and is never process-wide, so a fresh
 * Device starts cold. It is bound to one geometry, whose columns and
 * partitions shape every run.
 *
 * Storage is flat: one open-addressing slot array, with no heap node
 * per word, that doubles at three-quarter load, and one section arena
 * that only grows, so a run's offset stays valid for the table's
 * life. Both start empty and grow on demand. Not thread-safe: its
 * owner decodes on one thread.
 */
class ExpansionTable
{
  public:
    explicit ExpansionTable(const Geometry &geo) : geo_(geo) {}

    const Geometry &geometry() const { return geo_; }

    /** Distinct words stored (each validated once). */
    size_t size() const { return used_; }

    /**
     * Validate LogicH word @p w, expanding it only if the table has
     * never seen it (throws InternalError, storing nothing, if it is
     * malformed), and return its run.
     */
    HalfGateRun intern(Word w);

    /** Active sections of run @p r (valid until the next intern). */
    std::span<const ActiveSection>
    run(const HalfGateRun &r) const
    {
        return {sections_.data() + r.off, r.count};
    }

  private:
    /** One stored word; run.count 0 marks an empty slot. */
    struct Slot
    {
        Word word = 0;
        HalfGateRun run;
    };

    /** The slot holding @p w, or the empty slot where it belongs. */
    Slot &find(Word w);
    /** Double the slot array (first use: allocate it). */
    void grow();

    Geometry geo_;
    std::vector<Slot> slots_;
    std::vector<ActiveSection> sections_;
    size_t used_ = 0;
    int shift_ = 64;
};

} // namespace pypim

#endif // PYPIM_SIM_SEGMENT_TRACE_HPP
