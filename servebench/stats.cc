#include "stats.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace servebench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

bool PercentileSupported(size_t count, double p) {
  return static_cast<double>(count) * (1.0 - p) >= 10.0 - 1e-9;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

int64_t SpanRecorder::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int32_t SpanRecorder::Begin(const char* name) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, Now(), 0, parent, request_});
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int32_t span) {
  spans_[span].end_ns = Now();
  open_.pop_back();
}

std::vector<double> SpanRecorder::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back((span.end_ns - span.start_ns) * 1e-3);
  }
  return out;
}

double SpanRecorder::TotalUs(const std::string& name) const {
  const std::vector<double> durations = DurationsUs(name);
  return std::accumulate(durations.begin(), durations.end(), 0.0);
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request\":%u}\n",
                 i, span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 span.request);
  }
  return std::fclose(out) == 0;
}

void MetricTable::SetTiming(const std::string& name,
                            const std::vector<double>& values,
                            const std::string& unit) {
  SetMedian(name, values, unit);
  Set(name + ".p90",
      PercentileSupported(values.size(), 0.9) ? Percentile(values, 0.9) : 0.0,
      unit);
}

void MetricTable::SetMedian(const std::string& name,
                            const std::vector<double>& values,
                            const std::string& unit) {
  Set(name + ".p50", Percentile(values, 0.5), unit);
}

}  // namespace servebench
