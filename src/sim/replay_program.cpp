#include "sim/replay_program.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "sim/batch_trace.hpp"
#include "sim/segment_trace.hpp"

namespace pypim
{

namespace
{

/** Sections per merged pass: bounds the pass-local footprint so an
 *  executor (host or device) can stage a pass in fixed storage. */
constexpr uint32_t kMaxPassSections = 256;

/** Small column bitset (cols <= 1024 by the micro-op format). */
struct ColSet
{
    uint64_t w[1024 / 64] = {};

    void
    clear(uint32_t words)
    {
        std::fill(w, w + words, 0);
    }
    void set(uint32_t c) { w[c / 64] |= 1ull << (c % 64); }
    bool
    intersects(const ColSet &o, uint32_t words) const
    {
        for (uint32_t i = 0; i < words; ++i)
            if (w[i] & o.w[i])
                return true;
        return false;
    }
    void
    merge(const ColSet &o, uint32_t words)
    {
        for (uint32_t i = 0; i < words; ++i)
            w[i] |= o.w[i];
    }
};

/**
 * Row-mask snapshots interned per compiling thread. Programs of
 * different traces replay mostly the same few row masks: a captured
 * move sequence selects one row per move, and the traces of one
 * algorithm revisit the same rows (perfbench `sort` compiles 3,862
 * snapshots per device, of 257 distinct masks). So each distinct mask
 * is stored once, shared by every program that holds it, and freed
 * with the last of them. The table keeps weak references only, and
 * sweeps out expired ones as it grows. It is per thread, so it needs
 * no lock; programs that outlive it, or move to another thread, keep
 * their masks.
 */
class MaskIntern
{
  public:
    ReplayProgram::Mask
    intern(const uint64_t *w, uint32_t n)
    {
        uint64_t h = 0xCBF29CE484222325ull;
        for (uint32_t i = 0; i < n; ++i)
            h = (h ^ w[i]) * 0x100000001B3ull;
        const auto [lo, hi] = table_.equal_range(h);
        auto reuse = table_.end();  //!< an expired entry of this hash
        for (auto it = lo; it != hi; ++it) {
            const ReplayProgram::Mask m = it->second.mask.lock();
            if (!m)
                reuse = it;
            else if (it->second.n == n && std::equal(w, w + n, m.get()))
                return m;
        }
        const std::shared_ptr<uint64_t[]> m =
            std::make_shared<uint64_t[]>(n);
        std::copy(w, w + n, m.get());
        if (reuse != table_.end()) {
            // A mask that comes back after its programs died (a new
            // device compiling the same traces) takes its old entry.
            reuse->second = Entry{n, m};
            return m;
        }
        if (table_.size() >= sweepAt_) {
            std::erase_if(table_, [](const auto &e) {
                return e.second.mask.expired();
            });
            sweepAt_ = 2 * table_.size() + kMinSweep;
        }
        table_.emplace(h, Entry{n, m});
        return m;
    }

  private:
    static constexpr size_t kMinSweep = 1024;

    struct Entry
    {
        uint32_t n;
        std::weak_ptr<const uint64_t[]> mask;
    };
    std::unordered_multimap<uint64_t, Entry> table_;  //!< content hash
    size_t sweepAt_ = kMinSweep;
};

/**
 * Closed-pass dedup table of one compile: section-run content hash ->
 * the first run stored with that hash. Open addressing, sized from
 * the segment's LogicH count (a bound on its passes) so it never
 * grows mid-compile. One table per compiling thread, reused across
 * segments, so steady-state compiling never reaches the heap.
 */
class RunTable
{
  public:
    /** A section run; count 0 marks an empty slot (a closed pass
     *  with no sections is never looked up). */
    struct Run
    {
        uint32_t off = 0, count = 0;
    };

    void
    reset(size_t passes)
    {
        const size_t cap =
            std::bit_ceil(std::max<size_t>(16, 2 * passes));
        slots_.assign(cap, Slot{});
        shift_ = 64 - std::countr_zero(cap);
    }

    /** Run stored under @p h, inserting @p run when there is none;
     *  @p fresh reports which. */
    const Run &
    findOrInsert(uint64_t h, const Run &run, bool &fresh)
    {
        size_t i = static_cast<size_t>((h * 0x9E3779B97F4A7C15ull) >>
                                       shift_);
        const size_t m = slots_.size() - 1;
        while (slots_[i].run.count != 0 && slots_[i].hash != h)
            i = (i + 1) & m;
        fresh = slots_[i].run.count == 0;
        if (fresh)
            slots_[i] = Slot{h, run};
        return slots_[i].run;
    }

  private:
    struct Slot
    {
        uint64_t hash = 0;
        Run run;
    };
    std::vector<Slot> slots_;
    int shift_ = 60;
};

ReplayProgram::SecKind
sectionKind(const HalfGateRun &hg)
{
    switch (hg.gate) {
      case Gate::Init0: return ReplayProgram::SecKind::Init0;
      case Gate::Init1: return ReplayProgram::SecKind::Init1;
      default:          return ReplayProgram::SecKind::NotNor;
    }
}

bool
isGate(ReplayProgram::SecKind k)
{
    return k == ReplayProgram::SecKind::NotNor ||
           k == ReplayProgram::SecKind::FusedNotNor;
}

/** LivenessScan::kinds entry of a section the scan dropped. */
constexpr uint8_t kDropped = 0xFF;

/**
 * Section-level liveness scan of one segment (the rules are in the
 * header): one forward pass over the ops in stream order. Number the
 * sections of every LogicH op consecutively, in op order; section k
 * ends with kinds[k] = the SecKind it replays as, or kDropped. Per
 * column, lastWrite_ holds the last section that wrote it, forgotten
 * once anything touches the column: so a section it names is always
 * live and untouched, the one condition both rewrites share. One scan
 * per compiling thread, reused across segments, so steady-state
 * compiling never reaches the heap; it keeps one byte per section.
 */
class LivenessScan
{
  public:
    std::vector<uint8_t> kinds;

    ReplayProgram::Liveness
    run(const SegmentTrace &t, const Geometry &geo)
    {
        using SecKind = ReplayProgram::SecKind;
        ReplayProgram::Liveness live;
        for (const TraceOp &op : t.ops)
            if (op.type == OpType::LogicH)
                live.sections += t.halfGates[op.hg].count;
        kinds.resize(live.sections);
        lastWrite_.assign(geo.cols, LastWrite{});

        const uint32_t pw = geo.partitionWidth();
        const auto touch = [&](uint32_t col) {
            lastWrite_[col].sec = -1;
        };
        const auto touchSlot = [&](uint32_t slot) {
            for (uint32_t b = 0; b < geo.wordBits; ++b)
                touch(geo.column(slot, b));
        };
        int32_t k = 0;
        for (uint32_t j = 0; j < t.ops.size(); ++j) {
            const TraceOp &op = t.ops[j];
            switch (op.type) {
              case OpType::Write:
                touchSlot(op.index);
                break;
              case OpType::LogicV:
                for (uint32_t part = 0; part < geo.partitions; ++part)
                    touch(part * pw + op.index);
                break;
              case OpType::LogicH: {
                const HalfGateRun &hg = t.halfGates[op.hg];
                const SecKind opKind = sectionKind(hg);
                const bool maskFull = t.rowMaskFull[op.rowMask] != 0;
                for (const ActiveSection &sec : t.run(hg)) {
                    SecKind kind = opKind;
                    const uint32_t c = sec.outCol;
                    bool readsOut = false;
                    if (isGate(kind)) {
                        readsOut = sec.inA == c || sec.inB == c;
                        if (sec.inA != c)
                            touch(sec.inA);
                        if (sec.inB != c)
                            touch(sec.inB);
                    }
                    LastWrite &w = lastWrite_[c];
                    if (kind == SecKind::NotNor && !readsOut &&
                        w.sec >= 0 &&
                        kinds[w.sec] ==
                            static_cast<uint8_t>(SecKind::Init1)) {
                        // INIT1->NOR: the INIT1 moves forward to the
                        // gate past nothing that touches the column.
                        const TraceOp &init = t.ops[w.op];
                        if (init.rowMask == op.rowMask &&
                            init.xb == op.xb) {
                            kinds[w.sec] = kDropped;
                            ++live.fused;
                            kind = SecKind::FusedNotNor;
                            w.sec = -1;  // nothing left to kill
                        }
                    }
                    // A NotNor, or a gate reading its output, is no
                    // full write: it reads the column's old value, so
                    // the earlier write stays live.
                    const bool fullWrite =
                        kind == SecKind::Init0 ||
                        kind == SecKind::Init1 ||
                        (kind == SecKind::FusedNotNor && !readsOut);
                    if (fullWrite && w.sec >= 0) {
                        // Dead store: every cell the earlier section
                        // wrote is overwritten before anything reads
                        // it.
                        const TraceOp &prev = t.ops[w.op];
                        if ((maskFull || prev.rowMask == op.rowMask) &&
                            op.xb.containsAll(prev.xb)) {
                            kinds[w.sec] = kDropped;
                            ++live.dead;
                        }
                    }
                    kinds[k] = static_cast<uint8_t>(kind);
                    w = {k++, j};
                }
                break;
              }
              default:
                break;  // unreachable: segments hold work ops only
            }
        }
        return live;
    }

  private:
    /** A column's last write: section (-1: none live) and its op. */
    struct LastWrite
    {
        int32_t sec = -1;
        uint32_t op = 0;
    };
    std::vector<LastWrite> lastWrite_;
};

} // namespace

void
compileSegmentProgram(const SegmentTrace &t, const Geometry &geo,
                      ReplayProgram &p)
{
    p.instrs.clear();
    p.sections.clear();
    p.pairs.clear();
    p.vgates.clear();
    p.wordsPerMask = t.wordsPerMask;
    p.xbLo = t.xbLo;
    p.xbHi = t.xbHi;
    // Snapshot id k indexes masks. Each is replaced in place, so a
    // recompiled program still holds the masks it keeps while they are
    // interned again, and allocates nothing.
    thread_local MaskIntern intern;
    p.masks.resize(t.wordsPerMask ? t.rowWords.size() / t.wordsPerMask
                                  : 0);
    for (size_t k = 0; k < p.masks.size(); ++k)
        p.masks[k] = intern.intern(t.rowWords.data() + k * t.wordsPerMask,
                                   t.wordsPerMask);

    // Liveness first: the merge below sees only the sections the
    // scan kept, with their final kinds.
    thread_local LivenessScan scan;
    p.liveness = scan.run(t, geo);
    uint32_t section = 0;  //!< first scan section of the next LogicH op

    const uint32_t colWords = (geo.cols + 63) / 64;
    // Column footprint of the OPEN pass: merging keeps every merged
    // op's reads and writes pairwise disjoint from the others', so
    // the pass's sections are order-independent (see header).
    ColSet passOuts, passIns;
    int64_t open = -1;  //!< index of the growing HPass, or -1

    // Closed HPass section runs by content hash -> the first run with
    // that hash. A closed run equal to an earlier one, field by field,
    // is dropped and the pass points at the earlier copy: a captured
    // move sequence repeats the same lane NOTs under a new row mask
    // for every move.
    thread_local RunTable runs;
    runs.reset(static_cast<size_t>(
        std::count_if(t.ops.begin(), t.ops.end(), [](const TraceOp &op) {
            return op.type == OpType::LogicH;
        })));
    const auto sameSection = [](const ReplayProgram::PSection &a,
                                const ReplayProgram::PSection &b) {
        return a.kind == b.kind && a.outCol == b.outCol &&
               a.inA == b.inA && a.inB == b.inB;
    };
    const auto closePass = [&] {
        if (open < 0)
            return;
        ReplayProgram::Instr &pass = p.instrs[open];
        open = -1;
        if (pass.count == 0)
            return;
        uint64_t h = pass.count;
        for (uint32_t k = 0; k < pass.count; ++k) {
            const ReplayProgram::PSection &ps = p.sections[pass.off + k];
            h = (h ^ (static_cast<uint64_t>(ps.kind) << 48 |
                      static_cast<uint64_t>(ps.outCol) << 32 |
                      static_cast<uint64_t>(ps.inA) << 16 | ps.inB)) *
                0x9E3779B97F4A7C15ull;
        }
        bool fresh = false;
        const RunTable::Run &run =
            runs.findOrInsert(h, {pass.off, pass.count}, fresh);
        if (fresh || run.count != pass.count)
            return;
        for (uint32_t k = 0; k < pass.count; ++k)
            if (!sameSection(p.sections[run.off + k],
                             p.sections[pass.off + k]))
                return;
        // The closed pass's sections are the arena's tail.
        p.sections.resize(pass.off);
        pass.off = run.off;
    };

    for (const TraceOp &op : t.ops) {
        switch (op.type) {
          case OpType::Write: {
            closePass();
            ReplayProgram::Instr in;
            in.kind = ReplayProgram::Kind::Write;
            in.cls = OpClass::Write;
            in.operand = op.rowMask;
            in.maskFull = t.rowMaskFull[op.rowMask];
            in.off = static_cast<uint32_t>(p.pairs.size());
            in.count = 1;
            in.work = 1;
            in.xb = op.xb;
            p.pairs.push_back({op.index, op.value});
            p.instrs.push_back(in);
            break;
          }
          case OpType::LogicH: {
            const HalfGateRun &hg = t.halfGates[op.hg];
            const std::span<const ActiveSection> secs = t.run(hg);
            const uint8_t *kinds = scan.kinds.data() + section;
            section += hg.count;
            // Candidate footprint of the sections the scan kept. A
            // stateful gate also READS its output (out_new = out_old
            // & ...), but only its OWN — covered by keeping candidate
            // outs disjoint from everything already in the pass.
            ColSet candOuts, candIns;
            candOuts.clear(colWords);
            candIns.clear(colWords);
            uint32_t kept = 0;
            for (uint32_t k = 0; k < hg.count; ++k) {
                if (kinds[k] == kDropped)
                    continue;
                ++kept;
                candOuts.set(secs[k].outCol);
                if (isGate(static_cast<ReplayProgram::SecKind>(
                        kinds[k]))) {
                    candIns.set(secs[k].inA);
                    candIns.set(secs[k].inB);
                }
            }
            if (kept == 0 && open >= 0 && p.instrs[open].xb == op.xb) {
                // Every section dropped: the op still applies, so its
                // work rides on the open pass over the same crossbars.
                ++p.instrs[open].work;
                break;
            }
            bool merged = false;
            if (open >= 0) {
                ReplayProgram::Instr &pass = p.instrs[open];
                merged = pass.operand == op.rowMask && pass.xb == op.xb &&
                         pass.count + kept <= kMaxPassSections &&
                         !candIns.intersects(passOuts, colWords) &&
                         !candOuts.intersects(passOuts, colWords) &&
                         !candOuts.intersects(passIns, colWords);
            }
            if (!merged) {
                closePass();
                ReplayProgram::Instr in;
                in.kind = ReplayProgram::Kind::HPass;
                in.cls = OpClass::LogicH;
                in.operand = op.rowMask;
                in.maskFull = t.rowMaskFull[op.rowMask];
                in.off = static_cast<uint32_t>(p.sections.size());
                in.xb = op.xb;
                p.instrs.push_back(in);
                open = static_cast<int64_t>(p.instrs.size()) - 1;
                passOuts.clear(colWords);
                passIns.clear(colWords);
            }
            ReplayProgram::Instr &pass = p.instrs[open];
            for (uint32_t k = 0; k < hg.count; ++k) {
                if (kinds[k] == kDropped)
                    continue;
                ReplayProgram::PSection ps;
                ps.kind = static_cast<ReplayProgram::SecKind>(kinds[k]);
                ps.outCol = secs[k].outCol;
                ps.inA = secs[k].inA;
                ps.inB = secs[k].inB;
                if (pass.count == 0)
                    pass.passKind = kinds[k];
                else if (pass.passKind != kinds[k])
                    pass.passKind = ReplayProgram::kMixedPass;
                p.sections.push_back(ps);
                ++pass.count;
            }
            ++pass.work;
            passOuts.merge(candOuts, colWords);
            passIns.merge(candIns, colWords);
            break;
          }
          case OpType::LogicV: {
            closePass();
            ReplayProgram::VGate g;
            g.gate = op.gate;
            g.inWord = static_cast<uint16_t>(op.rowIn / 64);
            g.inShift = static_cast<uint8_t>(op.rowIn % 64);
            g.outWord = static_cast<uint16_t>(op.rowOut / 64);
            g.outShift = static_cast<uint8_t>(op.rowOut % 64);
            // Extend the trailing run when slot and crossbar range
            // match; any grouping is bit-identical (each gate touches
            // one column, and per-column order is preserved), so
            // breaking at an xb change keeps instructions uniform.
            if (!p.instrs.empty() &&
                p.instrs.back().kind == ReplayProgram::Kind::VRun &&
                p.instrs.back().operand == op.index &&
                p.instrs.back().xb == op.xb) {
                ReplayProgram::Instr &run = p.instrs.back();
                ++run.count;
                ++run.work;
            } else {
                ReplayProgram::Instr in;
                in.kind = ReplayProgram::Kind::VRun;
                in.cls = OpClass::LogicV;
                in.maskFull = 1;  // LogicV addresses rows directly
                in.off = static_cast<uint32_t>(p.vgates.size());
                in.count = 1;
                in.operand = op.index;
                in.work = 1;
                in.xb = op.xb;
                p.instrs.push_back(in);
            }
            p.vgates.push_back(g);
            break;
          }
          default:
            break;  // unreachable: segments hold work ops only
        }
    }
    closePass();

    // A pass left with no section (it only carries work) reads no
    // mask, so it never costs the program its blend-free executor.
    p.allMasksFull =
        std::all_of(p.instrs.begin(), p.instrs.end(),
                    [](const ReplayProgram::Instr &in) {
                        return in.maskFull != 0 ||
                               (in.kind == ReplayProgram::Kind::HPass &&
                                in.count == 0);
                    });
    p.uniformXb =
        !p.instrs.empty() &&
        std::all_of(p.instrs.begin(), p.instrs.end(),
                    [&](const ReplayProgram::Instr &in) {
                        return in.xb == p.instrs.front().xb;
                    });
    p.xb = p.instrs.empty() ? Range() : p.instrs.front().xb;
    p.workWrites = p.workLogicH = p.workLogicV = 0;
    for (const ReplayProgram::Instr &in : p.instrs) {
        switch (in.cls) {
          case OpClass::Write:  p.workWrites += in.work; break;
          case OpClass::LogicH: p.workLogicH += in.work; break;
          default:              p.workLogicV += in.work; break;
        }
    }
}

void
compileBatchTrace(BatchTrace &batch, const Geometry &geo)
{
    batch.programs.resize(batch.segments.size());
    batch.liveness = {};
    for (size_t s = 0; s < batch.segments.size(); ++s) {
        compileSegmentProgram(batch.segments[s], geo,
                              batch.programs[s]);
        batch.liveness += batch.programs[s].liveness;
    }
}

void
releaseSegmentArenas(BatchTrace &batch)
{
    for (SegmentTrace &t : batch.segments) {
        std::vector<TraceOp>().swap(t.ops);
        std::vector<HalfGateRun>().swap(t.halfGates);
        std::vector<ActiveSection>().swap(t.sections);
        std::vector<uint64_t>().swap(t.rowWords);
        std::vector<uint8_t>().swap(t.rowMaskFull);
    }
    // A frozen program never grows again: drop its push_back slack.
    for (ReplayProgram &p : batch.programs) {
        p.instrs.shrink_to_fit();
        p.sections.shrink_to_fit();
        p.pairs.shrink_to_fit();
        p.vgates.shrink_to_fit();
        p.masks.shrink_to_fit();
    }
}

} // namespace pypim
