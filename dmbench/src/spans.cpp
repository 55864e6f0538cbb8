#include "spans.h"

#include <chrono>
#include <fstream>

namespace dmbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SecondsSince(uint64_t start_ns) {
  return 1e-9 * static_cast<double>(NowNs() - start_ns);
}

size_t SpanRecorder::Open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : static_cast<int>(open_.back());
  s.op = op_;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::Close(size_t id) {
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double SpanRecorder::Seconds(size_t op, const std::string& name) const {
  uint64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.op == op && s.name == name) ns += s.end_ns - s.start_ns;
  }
  return 1e-9 * static_cast<double>(ns);
}

double SpanRecorder::ChildSeconds(size_t parent) const {
  uint64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.parent == static_cast<int>(parent)) ns += s.end_ns - s.start_ns;
  }
  return 1e-9 * static_cast<double>(ns);
}

std::map<std::string, double> SpanRecorder::SecondsByName(
    size_t op, const std::string& skip) const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    if (s.op == op && s.name != skip) {
      out[s.name] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
      << "\",\"op\":" << s.op << ",\"parent\":" << s.parent
      << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}";
  }
  f << "\n]\n";
  return static_cast<bool>(f);
}

}  // namespace dmbench
