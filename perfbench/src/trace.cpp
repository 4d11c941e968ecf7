#include "trace.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/json.h"
#include "telemetry/trace_export.h"

namespace perfbench {

std::uint32_t SpanLog::add(std::uint32_t parent, std::uint32_t round,
                           std::uint32_t track, std::string name,
                           std::int64_t begin_ns, std::int64_t end_ns) {
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back({id, parent, round, track, std::move(name), begin_ns,
                    std::max(begin_ns, end_ns)});
  return id;
}

bool SpanLog::write_chrome_trace(const std::string& path,
                                 std::string* error) const {
  const auto meta = [](const char* name, std::uint32_t tid, std::string value) {
    wfsort::Json ev = wfsort::Json::object();
    ev.set("name", name);
    ev.set("ph", "M");
    ev.set("pid", 1);
    ev.set("tid", static_cast<std::uint64_t>(tid));
    wfsort::Json args = wfsort::Json::object();
    args.set("name", std::move(value));
    ev.set("args", std::move(args));
    return ev;
  };
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().begin_ns;
  std::uint32_t max_track = 0;
  wfsort::Json events = wfsort::Json::array();
  events.push_back(meta("process_name", 0, "perfbench"));
  for (const Span& s : spans_) {
    max_track = std::max(max_track, s.track);
    wfsort::Json args = wfsort::Json::object();
    args.set("round", static_cast<std::uint64_t>(s.round));
    args.set("span", static_cast<std::uint64_t>(s.id));
    args.set("parent", static_cast<std::uint64_t>(s.parent));
    wfsort::Json ev = wfsort::Json::object();
    ev.set("name", s.name);
    ev.set("ph", "X");
    ev.set("pid", 1);
    ev.set("tid", static_cast<std::uint64_t>(s.track));
    // Chrome trace timestamps are microseconds; keep the ns digits.
    ev.set("ts", static_cast<double>(s.begin_ns - t0) / 1e3);
    ev.set("dur", static_cast<double>(s.end_ns - s.begin_ns) / 1e3);
    ev.set("args", std::move(args));
    events.push_back(std::move(ev));
  }
  for (std::uint32_t t = 0; t <= max_track; ++t) {
    events.push_back(meta("thread_name", t,
                          t == 0 ? std::string("client") : "worker " + std::to_string(t - 1)));
  }
  wfsort::Json doc = wfsort::telemetry::chrome_trace_doc();
  doc.set("traceEvents", std::move(events));
  return wfsort::telemetry::write_text_file(path, doc.dump_compact() + "\n", error);
}

std::vector<SpanLog::SelfRow> SpanLog::self_times() const {
  // Children's intervals per parent, then the union each parent covers.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size() + 1);
  for (const Span& s : spans_) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.begin_ns, s.end_ns);
  }
  std::map<std::string, SelfRow> rows;
  for (const Span& s : spans_) {
    auto& iv = kids[s.id];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.begin_ns;
    for (auto [b, e] : iv) {
      b = std::max(b, reach);
      e = std::min(e, s.end_ns);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    SelfRow& r = rows[s.name];
    r.name = s.name;
    ++r.count;
    r.total_ms += static_cast<double>(s.end_ns - s.begin_ns) / 1e6;
    r.self_ms += static_cast<double>(s.end_ns - s.begin_ns - covered) / 1e6;
  }
  std::vector<SelfRow> out;
  out.reserve(rows.size());
  for (auto& [name, row] : rows) out.push_back(std::move(row));
  return out;
}

}  // namespace perfbench
