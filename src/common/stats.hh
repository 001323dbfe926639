/**
 * @file
 * Aggregate functions applied to repeated benchmark measurements
 * (paper §III-C): minimum, median, and arithmetic mean excluding the top
 * and bottom 20% of values, plus general summary statistics used by the
 * analysis tools.
 */

#ifndef NB_COMMON_STATS_HH
#define NB_COMMON_STATS_HH

#include <cstddef>
#include <string>
#include <vector>

namespace nb
{

/** Aggregate applied over the per-run measurements (paper §III-C). */
enum class Aggregate
{
    Minimum,
    /** Maximum: the worst run. Not in the paper's default set; the
     *  plan/decode policy-inference split pairs it with Minimum to
     *  detect non-deterministic measurements. */
    Maximum,
    Median,
    /** Arithmetic mean excluding the top and bottom 20% of the values. */
    TrimmedMean,
    /** Plain arithmetic mean (not in the paper's default set; useful for
     *  tests and for averaging non-deterministic cache experiments). */
    Mean,
};

/** Parse an aggregate name ("min", "med", "avg", "mean"). */
Aggregate parseAggregate(const std::string &name);

/** Human-readable name of an aggregate. */
const char *aggregateName(Aggregate agg);

/** Apply @p agg to @p values; values may arrive in any order. */
double applyAggregate(Aggregate agg, std::vector<double> values);

/** Maximum of a non-empty vector. */
double maximum(const std::vector<double> &values);

/** Minimum of a non-empty vector. */
double minimum(const std::vector<double> &values);

/** Median of a non-empty vector (mean of middle two for even sizes). */
double median(std::vector<double> values);

/** Mean excluding the top and bottom @p trim_fraction of values. */
double trimmedMean(std::vector<double> values, double trim_fraction = 0.20);

/** Plain arithmetic mean of a non-empty vector. */
double mean(const std::vector<double> &values);

/** Population standard deviation; 0 for vectors of size < 2. */
double stddev(const std::vector<double> &values);

/** Online min/max/mean/variance accumulator (Welford). */
class RunningStats
{
  public:
    void add(double value);

    std::size_t count() const { return count_; }
    double min() const;
    double max() const;
    double mean() const;
    double variance() const;
    double stddev() const;

  private:
    std::size_t count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

} // namespace nb

#endif // NB_COMMON_STATS_HH
