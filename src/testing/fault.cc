#include "testing/fault.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace amnesiac {

std::string_view
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::HistCorrupt:  return "HistCorrupt";
      case FaultKind::SFileCorrupt: return "SFileCorrupt";
      case FaultKind::DropRec:      return "DropRec";
      case FaultKind::StaleRec:     return "StaleRec";
      case FaultKind::CacheEvict:   return "CacheEvict";
      case FaultKind::NumKinds:     break;
    }
    return "?";
}

bool
parseFaultKind(std::string_view name, FaultKind &out)
{
    for (std::uint8_t k = 0;
         k < static_cast<std::uint8_t>(FaultKind::NumKinds); ++k) {
        if (name == faultKindName(static_cast<FaultKind>(k))) {
            out = static_cast<FaultKind>(k);
            return true;
        }
    }
    return false;
}

bool
isPlacementOnly(FaultKind kind)
{
    return kind == FaultKind::CacheEvict;
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t rng_seed)
    : _plan(std::move(plan)), _rng(rng_seed)
{
}

void
FaultInjector::run(AmnesicMachine &machine, std::uint64_t max_instrs)
{
    machine.setFaultHooks(this);
    bool evicts = std::any_of(_plan.begin(), _plan.end(),
                              [](const FaultSpec &spec) {
                                  return spec.kind == FaultKind::CacheEvict;
                              });
    if (!evicts) {
        machine.run(max_instrs);
        return;
    }
    for (std::uint64_t executed = 0;
         executed < max_instrs && !machine.halted(); ++executed) {
        onStep(machine, machine.stats().dynInstrs);
        machine.step();
    }
}

bool
FaultInjector::firedOnlyPlacementFaults() const
{
    for (const InjectedFault &f : _injected)
        if (!isPlacementOnly(f.kind))
            return false;
    return true;
}

std::string
FaultInjector::describe() const
{
    if (_injected.empty())
        return "no faults fired";
    std::ostringstream os;
    for (std::size_t i = 0; i < _injected.size(); ++i) {
        const InjectedFault &f = _injected[i];
        if (i)
            os << "; ";
        os << faultKindName(f.kind) << "#" << f.specIndex << " @event "
           << f.atEvent << " site " << f.site << " x" << f.hits;
    }
    return os.str();
}

bool
FaultInjector::alreadyFired(std::size_t spec_index) const
{
    for (const InjectedFault &f : _injected)
        if (f.specIndex == spec_index)
            return true;
    return false;
}

InjectedFault &
FaultInjector::record(std::size_t spec_index, std::uint64_t at_event,
                      std::uint64_t site)
{
    for (InjectedFault &f : _injected) {
        if (f.specIndex == spec_index) {
            ++f.hits;
            return f;
        }
    }
    InjectedFault entry;
    entry.specIndex = spec_index;
    entry.kind = _plan[spec_index].kind;
    entry.atEvent = at_event;
    entry.site = site;
    entry.hits = 1;
    _injected.push_back(entry);
    return _injected.back();
}

bool
FaultInjector::onRecCheckpoint(std::uint32_t leaf_addr, std::uint32_t,
                               bool fresh, std::uint64_t &v0,
                               std::uint64_t &v1)
{
    std::uint64_t event = _recEvents++;
    bool commit = true;
    for (std::size_t i = 0; i < _plan.size(); ++i) {
        const FaultSpec &spec = _plan[i];
        switch (spec.kind) {
          case FaultKind::HistCorrupt:
            if (event == spec.trigger) {
                (spec.lane == 0 ? v0 : v1) ^= spec.mask;
                record(i, event, leaf_addr);
            }
            break;
          case FaultKind::DropRec:
            // Persistent from the trigger on — a dead checkpoint port.
            // Dropping a single mid-stream REC is indistinguishable
            // from StaleRec; dropping the rest of the stream is what
            // leaves Hist cold and forces the Condition-II fallback.
            if (event >= spec.trigger) {
                record(i, event, leaf_addr);
                commit = false;
            }
            break;
          case FaultKind::StaleRec:
            // Only suppressing an *update* leaves stale data behind; a
            // suppressed first write is just a (recorded) drop.
            if (event >= spec.trigger && !fresh) {
                record(i, event, leaf_addr);
                commit = false;
            }
            break;
          case FaultKind::SFileCorrupt:
          case FaultKind::CacheEvict:
          case FaultKind::NumKinds:
            break;
        }
    }
    return commit;
}

void
FaultInjector::onSliceValue(std::uint32_t slice_pc, std::uint32_t,
                            std::uint64_t &value)
{
    std::uint64_t event = _valueEvents++;
    for (std::size_t i = 0; i < _plan.size(); ++i) {
        const FaultSpec &spec = _plan[i];
        if (spec.kind == FaultKind::SFileCorrupt &&
            event == spec.trigger) {
            value ^= spec.mask;
            record(i, event, slice_pc);
        }
    }
}

void
FaultInjector::onStep(Machine &machine, std::uint64_t executed_instrs)
{
    for (std::size_t i = 0; i < _plan.size(); ++i) {
        const FaultSpec &spec = _plan[i];
        // ">=" with one-shot dedup: dynInstrs advances by a whole
        // slice traversal at a time, so the exact trigger index may
        // never be observed.
        if (spec.kind != FaultKind::CacheEvict ||
            executed_instrs < spec.trigger || alreadyFired(i))
            continue;
        std::uint64_t words = machine.program().dataImage.size();
        AMNESIAC_ASSERT(words > 0, "CacheEvict needs data memory");
        std::uint64_t addr = _rng.nextBelow(words) * 8;
        machine.mutableHierarchy().invalidateLine(addr);
        record(i, executed_instrs, addr);
    }
}

}  // namespace amnesiac
