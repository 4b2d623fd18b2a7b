/**
 * @file
 * The benchmark's workloads and the record stream they write.
 *
 * The perfbench binary runs one workload per process. It writes one
 * JSON object per line on stdout: a "meta" record, one "setup" record
 * per timed set-up, one "pass" record per timed pass over the
 * workload's cells, an optional "layers" record (traced build), and
 * an "end" record with peak RSS and the check tally. run.py turns the
 * stream into medians and the metric report; the binary itself never
 * writes a file.
 */

#ifndef PERFBENCH_WORKLOADS_HH_
#define PERFBENCH_WORKLOADS_HH_

#include <cstdint>
#include <string>

namespace perfbench {

/** Command-line options of the perfbench binary. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** Passes continue while the next is expected to end within this
     * many seconds of the first pass's start; one pass always runs. */
    double seconds = 10.0;
    /** Upper bound on passes (the traced run uses 1). */
    int maxPasses = 1000000;
    /** Small inputs for the benchmark's own test. */
    bool shortMode = false;
    /** Attribute host time to layers (traced build only). */
    bool traced = false;
};

/** One JSON object, built field by field. */
class JsonLine
{
  public:
    JsonLine &num(const std::string &key, double value);
    JsonLine &integer(const std::string &key, int64_t value);
    JsonLine &str(const std::string &key, const std::string &value);
    /** `json` must already be valid JSON. */
    JsonLine &raw(const std::string &key, const std::string &json);
    std::string text() const { return body_ + "}"; }
    /** Writes the object as one stdout line. */
    void emit() const;

  private:
    void key(const std::string &k);
    std::string body_ = "{";
};

/**
 * Tally of correctness checks. A unit is one simulated cell or one
 * codec operation; it fails if any of its conditions is false, and
 * each failed condition is named on stderr.
 */
class Checks
{
  public:
    /** Starts a unit; conditions go to the unit opened last. */
    void begin(const std::string &unit);
    void expect(const std::string &what, bool ok);
    int64_t attempted() const { return attempted_; }
    int64_t failed() const { return failed_; }

  private:
    std::string unit_;
    bool unitFailed_ = false;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
};

/** 64-bit FNV-1a over the exact bits of what is added. */
class Fingerprint
{
  public:
    Fingerprint &add(const void *data, std::size_t len);
    Fingerprint &add(double v);
    Fingerprint &add(int64_t v);
    uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

double nowSeconds();

/** Runs `opts.workload`; returns false if the name is unknown. */
bool runWorkload(const Options &opts, Checks &checks);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH_
