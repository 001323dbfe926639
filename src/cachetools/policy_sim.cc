/**
 * @file
 * Policy-simulator implementation.
 */

#include "policy_sim.hh"

#include <bit>
#include <map>

#include "common/logging.hh"
#include "common/strings.hh"

namespace nb::cachetools
{

std::vector<SeqAccess>
parseAccessSeq(const std::string &text)
{
    std::vector<SeqAccess> seq;
    std::map<std::string, int> ids;
    for (auto token : splitWhitespace(text)) {
        SeqAccess acc;
        if (iequals(token, "<wbinvd>")) {
            acc.wbinvd = true;
            acc.block = -1;
            acc.measured = false;
            seq.push_back(acc);
            continue;
        }
        if (!token.empty() && token.back() == '?') {
            acc.measured = false;
            token.pop_back();
        }
        if (token.empty())
            fatal("empty block name in access sequence");
        auto [it, inserted] =
            ids.try_emplace(token, static_cast<int>(ids.size()));
        acc.block = it->second;
        seq.push_back(acc);
    }
    return seq;
}

std::string
accessSeqToString(const std::vector<SeqAccess> &seq)
{
    std::string out;
    for (const auto &acc : seq) {
        if (!out.empty())
            out += " ";
        if (acc.wbinvd) {
            out += "<wbinvd>";
            continue;
        }
        // Two appends, not operator+: GCC 12's -Wrestrict sees a
        // false-positive overlap in the temporary at -O3.
        out += "B";
        out += std::to_string(acc.block);
        if (!acc.measured)
            out += "?";
    }
    return out;
}

PolicySim::PolicySim(const std::string &policy, unsigned assoc, Rng *rng)
    : policy_(policy, assoc, 1, rng), tags_(assoc)
{
    policy_.reset(0);
}

bool
PolicySim::access(int block)
{
    for (cache::WayMask m = valid_; m != 0; m &= m - 1) {
        auto w = static_cast<unsigned>(std::countr_zero(m));
        if (tags_[w] == block) {
            policy_.onHit(0, w, valid_);
            return true;
        }
    }
    unsigned way = policy_.insertWay(0, valid_);
    NB_ASSERT(way < tags_.size(), "policy returned bad way");
    tags_[way] = block;
    valid_ |= cache::WayMask{1} << way;
    policy_.onInsert(0, way, valid_);
    return false;
}

void
PolicySim::flush()
{
    valid_ = 0;
    policy_.reset(0);
}

unsigned
PolicySim::runSequence(const std::vector<SeqAccess> &seq)
{
    unsigned hits = 0;
    for (const auto &acc : seq) {
        if (acc.wbinvd) {
            flush();
            continue;
        }
        bool hit = access(acc.block);
        if (acc.measured && hit)
            ++hits;
    }
    return hits;
}

double
simulatedHits(const std::string &policy_name, unsigned assoc,
              const std::vector<SeqAccess> &seq, Rng *rng, unsigned reps)
{
    NB_ASSERT(reps >= 1, "need at least one repetition");
    PolicySim sim(policy_name, assoc, rng);
    double total = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        sim.flush();
        total += sim.runSequence(seq);
    }
    return total / reps;
}

} // namespace nb::cachetools
