/**
 * @file
 * Implementation of the measurement aggregates.
 */

#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "logging.hh"

namespace nb
{

Aggregate
parseAggregate(const std::string &name)
{
    if (name == "min")
        return Aggregate::Minimum;
    if (name == "max")
        return Aggregate::Maximum;
    if (name == "med" || name == "median")
        return Aggregate::Median;
    if (name == "avg" || name == "trimmed")
        return Aggregate::TrimmedMean;
    if (name == "mean")
        return Aggregate::Mean;
    fatal("unknown aggregate function '", name,
          "' (expected min, max, med, avg, or mean)");
}

const char *
aggregateName(Aggregate agg)
{
    switch (agg) {
      case Aggregate::Minimum:
        return "min";
      case Aggregate::Maximum:
        return "max";
      case Aggregate::Median:
        return "med";
      case Aggregate::TrimmedMean:
        return "avg";
      case Aggregate::Mean:
        return "mean";
    }
    panic("unreachable aggregate value");
}

double
applyAggregate(Aggregate agg, std::vector<double> values)
{
    switch (agg) {
      case Aggregate::Minimum:
        return minimum(values);
      case Aggregate::Maximum:
        return maximum(values);
      case Aggregate::Median:
        return median(std::move(values));
      case Aggregate::TrimmedMean:
        return trimmedMean(std::move(values));
      case Aggregate::Mean:
        return mean(values);
    }
    panic("unreachable aggregate value");
}

double
maximum(const std::vector<double> &values)
{
    NB_ASSERT(!values.empty(), "maximum of empty vector");
    return *std::max_element(values.begin(), values.end());
}

double
minimum(const std::vector<double> &values)
{
    NB_ASSERT(!values.empty(), "minimum of empty vector");
    return *std::min_element(values.begin(), values.end());
}

double
median(std::vector<double> values)
{
    NB_ASSERT(!values.empty(), "median of empty vector");
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    if (n % 2 == 1)
        return values[n / 2];
    return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
trimmedMean(std::vector<double> values, double trim_fraction)
{
    NB_ASSERT(!values.empty(), "trimmedMean of empty vector");
    NB_ASSERT(trim_fraction >= 0.0 && trim_fraction < 0.5,
              "trim fraction must be in [0, 0.5)");
    std::sort(values.begin(), values.end());
    auto cut = static_cast<std::size_t>(
        std::floor(values.size() * trim_fraction));
    // Always keep at least one value.
    while (cut > 0 && values.size() - 2 * cut < 1)
        --cut;
    double sum = std::accumulate(
        values.begin() + cut, values.end() - cut, 0.0);
    return sum / static_cast<double>(values.size() - 2 * cut);
}

double
mean(const std::vector<double> &values)
{
    NB_ASSERT(!values.empty(), "mean of empty vector");
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

double
stddev(const std::vector<double> &values)
{
    if (values.size() < 2)
        return 0.0;
    double m = mean(values);
    double acc = 0.0;
    for (double v : values)
        acc += (v - m) * (v - m);
    return std::sqrt(acc / static_cast<double>(values.size()));
}

void
RunningStats::add(double value)
{
    if (count_ == 0) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
}

double
RunningStats::min() const
{
    NB_ASSERT(count_ > 0, "min of empty RunningStats");
    return min_;
}

double
RunningStats::max() const
{
    NB_ASSERT(count_ > 0, "max of empty RunningStats");
    return max_;
}

double
RunningStats::mean() const
{
    NB_ASSERT(count_ > 0, "mean of empty RunningStats");
    return mean_;
}

double
RunningStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

} // namespace nb
