// Spans, percentiles and the metric table the benchmark prints.
#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated percentile of `values` (p in [0, 1]); 0 when empty.
double Percentile(std::vector<double> values, double p);

/// True when at least ten of `count` samples lie beyond percentile `p`.
bool PercentileSupported(size_t count, double p);

double Mean(const std::vector<double>& values);

/// Spans of the traced replay: name, start, end, parent and request id,
/// kept in memory and written out when the replay ends. Single-threaded.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index of the enclosing span, -1 for a root
    uint32_t request;
  };

  /// Opens a span under the innermost open span.
  int32_t Begin(const char* name);
  void End(int32_t span);
  void set_request(uint32_t request) { request_ = request; }
  uint32_t request() const { return request_; }

  /// Durations in microseconds of every span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  double TotalUs(const std::string& name) const;

  /// One JSON object per line. False when the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  int64_t Now() const;

  const Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint32_t request_ = 0;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), span_(recorder->Begin(name)) {}
  ~ScopedSpan() { recorder_->End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t span_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Ordered metric table: name -> value with unit.
class MetricTable {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  /// Records the median as `<name>.p50` and, where ten samples lie beyond
  /// it, the 90th percentile as `<name>.p90`. A percentile the series
  /// cannot support (an empty series: the layer did not run) reads 0.
  void SetTiming(const std::string& name, const std::vector<double>& values,
                 const std::string& unit);
  /// Records only the median, for series too short for a high
  /// percentile (0 when empty).
  void SetMedian(const std::string& name, const std::vector<double>& values,
                 const std::string& unit);
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
