/**
 * @file
 * FaultPlan parsing and injection (see fault.hh for the grammar).
 */

#include "fault/fault.hh"

#include <atomic>
#include <cctype>
#include <cmath>
#include <optional>

#include "common/strings.hh"

namespace nb::fault
{

namespace
{

std::atomic<FaultPlan *> globalPlan{nullptr};

std::optional<Site>
siteFromName(const std::string &name)
{
    if (name == "assemble")
        return Site::Assemble;
    if (name == "decode")
        return Site::Decode;
    if (name == "execute")
        return Site::Execute;
    if (name == "worker-pickup")
        return Site::WorkerPickup;
    if (name == "report-write")
        return Site::ReportWrite;
    return std::nullopt;
}

std::uint64_t
parsePlanNumber(const std::string &text, const char *what)
{
    auto value = parseInt(text);
    if (!value || *value < 0)
        fatal("fault plan: bad ", what, " '", text, "'");
    return static_cast<std::uint64_t>(*value);
}

} // namespace

const char *
siteName(Site site)
{
    switch (site) {
      case Site::Assemble: return "assemble";
      case Site::Decode: return "decode";
      case Site::Execute: return "execute";
      case Site::WorkerPickup: return "worker-pickup";
      case Site::ReportWrite: return "report-write";
    }
    return "unknown";
}

FaultPlan
FaultPlan::parse(const std::string &text)
{
    FaultPlan plan;
    plan.text_ = text;
    std::uint64_t seed = 1;
    for (const std::string &raw : split(text, ',')) {
        std::string entry = trim(raw);
        if (entry.empty())
            continue;
        if (entry.rfind("seed:", 0) == 0) {
            seed = parsePlanNumber(entry.substr(5), "seed");
            continue;
        }
        // site[@CYCLE][~PROB][:transient|:permanent][:xCOUNT]
        FaultSpec spec;
        std::size_t head = entry.find_first_of("@~:");
        std::string name = entry.substr(0, head);
        auto site = siteFromName(name);
        if (!site)
            fatal("fault plan: unknown site '", name, "' in '", entry,
                  "' (sites: assemble, decode, execute, ",
                  "worker-pickup, report-write)");
        spec.site = *site;
        std::string rest =
            head == std::string::npos ? "" : entry.substr(head);
        while (!rest.empty()) {
            char tag = rest[0];
            std::size_t next = rest.find_first_of("@~:", 1);
            std::string field = rest.substr(1, next - 1);
            rest = next == std::string::npos ? "" : rest.substr(next);
            if (tag == '@') {
                if (spec.site != Site::Execute)
                    fatal("fault plan: '@' cycle offsets only apply ",
                          "to the execute site ('", entry, "')");
                spec.atCycle = parsePlanNumber(field, "cycle offset");
            } else if (tag == '~') {
                double p = 0.0;
                try {
                    p = std::stod(field);
                } catch (const std::exception &) {
                    fatal("fault plan: bad probability '", field, "'");
                }
                if (!(p >= 0.0 && p <= 1.0))
                    fatal("fault plan: probability out of [0,1]: '",
                          field, "'");
                spec.probability = static_cast<std::uint64_t>(
                    std::llround(p * 4294967296.0));
            } else if (field == "transient") {
                spec.transient = true;
            } else if (field == "permanent") {
                spec.transient = false;
            } else if (!field.empty() && field[0] == 'x') {
                spec.count =
                    parsePlanNumber(field.substr(1), "count");
                if (spec.count == 0)
                    fatal("fault plan: zero count in '", entry, "'");
            } else {
                fatal("fault plan: unknown modifier ':", field,
                      "' in '", entry, "'");
            }
        }
        plan.entries_.push_back(spec);
    }
    plan.state_->remaining.reserve(plan.entries_.size());
    for (const FaultSpec &spec : plan.entries_)
        plan.state_->remaining.push_back(spec.count);
    plan.state_->rng = seed ? seed : 1;
    return plan;
}

void
FaultPlan::arrive(Site site, std::uint64_t cycles)
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const FaultSpec &spec = entries_[i];
        if (spec.site != site || state_->remaining[i] == 0)
            continue;
        if (site == Site::Execute && cycles < spec.atCycle)
            continue;
        if (spec.probability < (std::uint64_t(1) << 32) &&
            (xorshift64(state_->rng) & 0xFFFFFFFFu) >=
                spec.probability)
            continue;
        if (state_->remaining[i] != ~std::uint64_t(0))
            --state_->remaining[i];
        ++state_->injected[static_cast<unsigned>(site)];
        throw InjectedFault(site, spec.transient);
    }
}

std::uint64_t
FaultPlan::injected(Site site) const
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->injected[static_cast<unsigned>(site)];
}

bool
FaultPlan::targets(Site site) const
{
    for (const FaultSpec &spec : entries_)
        if (spec.site == site)
            return true;
    return false;
}

FaultPlan *
activePlan()
{
    return globalPlan.load(std::memory_order_relaxed);
}

FaultPlan *
setActivePlan(FaultPlan *plan)
{
    return globalPlan.exchange(plan, std::memory_order_acq_rel);
}

} // namespace nb::fault
