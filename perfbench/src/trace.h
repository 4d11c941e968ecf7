// The traced run's span log: the benchmark's own spans (round, input copy,
// public call, output check, baseline) with the engine's per-worker phase
// spans from the telemetry Report hung beneath each call.  Spans are kept in
// memory and written out once, as a Chrome trace, when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t id = 0;      // 1-based; 0 = no parent
  std::uint32_t parent = 0;
  std::uint32_t round = 0;   // spans of one round share it
  std::uint32_t track = 0;   // 0 = the benchmark client, 1 + w = engine worker w
  std::string name;
  std::int64_t begin_ns = 0;  // steady_clock
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  // Record a finished span; returns its id.
  std::uint32_t add(std::uint32_t parent, std::uint32_t round,
                    std::uint32_t track, std::string name,
                    std::int64_t begin_ns, std::int64_t end_ns);

  // Set the end of a span recorded before its children (e.g. a round).
  void close(std::uint32_t id, std::int64_t end_ns) { spans_[id - 1].end_ns = end_ns; }

  const std::vector<Span>& spans() const { return spans_; }

  // {"traceEvents":[...]} with one complete ("X") event per span; args
  // carry the round, span and parent ids.  False + *error on I/O failure.
  bool write_chrome_trace(const std::string& path, std::string* error) const;

  // Per span name: count, total and self time in ms, where a span's self
  // time is its duration minus the part of it its children cover.
  struct SelfRow {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::vector<SelfRow> self_times() const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
