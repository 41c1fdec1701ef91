#include "sim/fault.hpp"

#include <cstdlib>

#include "sim/crossbar.hpp"

namespace pypim
{

namespace
{

uint64_t
parseU64(const std::string &key, const std::string &val)
{
    fatalIf(val.empty(), "PYPIM_FAULTS: empty value for '" + key + "'");
    errno = 0;
    char *end = nullptr;
    const unsigned long long n = std::strtoull(val.c_str(), &end, 10);
    fatalIf(end != val.c_str() + val.size() || errno == ERANGE ||
                val[0] == '-' || val[0] == '+',
            "PYPIM_FAULTS: '" + val + "' is not a non-negative integer "
            "(key '" + key + "')");
    return n;
}

} // namespace

FaultSpec
FaultSpec::parse(const std::string &s)
{
    FaultSpec spec;
    size_t pos = 0;
    while (pos < s.size()) {
        size_t colon = s.find(':', pos);
        if (colon == std::string::npos)
            colon = s.size();
        const std::string field = s.substr(pos, colon - pos);
        pos = colon + 1;
        if (field.empty())
            continue;
        const size_t eq = field.find('=');
        fatalIf(eq == std::string::npos,
                "PYPIM_FAULTS: field '" + field +
                    "' is not key=value");
        const std::string key = field.substr(0, eq);
        const std::string val = field.substr(eq + 1);
        if (key == "seed") {
            spec.seed = parseU64(key, val);
        } else if (key == "flip") {
            const uint64_t p = parseU64(key, val);
            fatalIf(p > 100,
                    "PYPIM_FAULTS: flip=" + val +
                        " is not a percentage in [0, 100]");
            spec.flipPct = static_cast<uint32_t>(p);
        } else if (key == "stuck") {
            const uint64_t k = parseU64(key, val);
            fatalIf(k > 1024,
                    "PYPIM_FAULTS: stuck=" + val +
                        " exceeds 1024 pins");
            spec.stuckBits = static_cast<uint32_t>(k);
        } else if (key == "fail") {
            spec.failAtBatch = parseU64(key, val);
        } else if (key == "poison") {
            spec.poisonAtBatch = parseU64(key, val);
        } else if (key == "dev") {
            const uint64_t d = parseU64(key, val);
            fatalIf(d > INT32_MAX, "PYPIM_FAULTS: dev=" + val +
                                       " out of range");
            spec.device = static_cast<int32_t>(d);
        } else {
            fatal("PYPIM_FAULTS: unknown key '" + key +
                  "' (expected seed|flip|stuck|fail|poison|dev)");
        }
    }
    return spec;
}

FaultInjector::FaultInjector(const FaultSpec &spec,
                             uint32_t deviceIndex, uint32_t sliceLo,
                             uint32_t sliceCount, const Geometry &geo)
    : spec_(spec), sliceCount_(sliceCount), geo_(&geo),
      // Derive a distinct, reproducible stream per sub-device: the
      // same spec at a different PYPIM_DEVICES count targets the same
      // slice differently, but re-running the same configuration is
      // always bit-identical.
      rng_(spec.seed * 0x9E3779B97F4A7C15ull + deviceIndex + 1)
{
    (void)sliceLo;
    active_ = spec.any() && (spec.device < 0 ||
                             static_cast<uint32_t>(spec.device) ==
                                 deviceIndex);
}

void
FaultInjector::maybeFail()
{
    if (!active_)
        return;
    ++batch_;
    if (suppressed_ || failFired_ ||
        spec_.failAtBatch == 0 || batch_ != spec_.failAtBatch)
        return;
    failFired_ = true;
    ++injected_;
    throw InjectedFault("injected fault: sub-device replay failed at "
                        "batch " + std::to_string(batch_));
}

void
FaultInjector::corrupt(std::vector<Crossbar> &xbs)
{
    if (!active_ || xbs.empty())
        return;
    const uint32_t rows = geo_->rows;
    const uint32_t cols = geo_->cols;

    // Persistent stuck-at pins: chosen once, forced after EVERY batch
    // (also during recovery replay — hardware damage does not heal).
    if (spec_.stuckBits != 0 && stuck_.empty()) {
        stuck_.reserve(spec_.stuckBits);
        for (uint32_t i = 0; i < spec_.stuckBits; ++i) {
            StuckPin p;
            p.xb = static_cast<uint32_t>(rng_() % xbs.size());
            p.row = static_cast<uint32_t>(rng_() % rows);
            p.col = static_cast<uint32_t>(rng_() % cols);
            p.value = (rng_() & 1) != 0;
            stuck_.push_back(p);
        }
    }
    for (const StuckPin &p : stuck_) {
        Crossbar &xb = xbs[p.xb];
        if (xb.bit(p.row, p.col) != p.value) {
            xb.setBit(p.row, p.col, p.value);
            ++injected_;
        }
    }

    if (suppressed_)
        return;

    // Transient single-bit upset with per-batch probability flip%.
    if (spec_.flipPct != 0 &&
        rng_() % 100 < spec_.flipPct) {
        const uint32_t x = static_cast<uint32_t>(rng_() % xbs.size());
        const uint32_t r = static_cast<uint32_t>(rng_() % rows);
        const uint32_t c = static_cast<uint32_t>(rng_() % cols);
        xbs[x].setBit(r, c, !xbs[x].bit(r, c));
        ++injected_;
    }

    // One-shot multi-bit scribble (a corrupted hand-off buffer).
    if (!poisonFired_ && spec_.poisonAtBatch != 0 &&
        batch_ >= spec_.poisonAtBatch) {
        poisonFired_ = true;
        const uint32_t x = static_cast<uint32_t>(rng_() % xbs.size());
        for (int i = 0; i < 16; ++i) {
            const uint32_t r = static_cast<uint32_t>(rng_() % rows);
            const uint32_t c = static_cast<uint32_t>(rng_() % cols);
            xbs[x].setBit(r, c, !xbs[x].bit(r, c));
        }
        ++injected_;
    }
}

} // namespace pypim
