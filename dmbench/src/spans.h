// Spans the benchmark records around its own calls into each layer during
// a traced replay. Spans stay in memory and are written out once, when the
// run ends; nothing is recorded inside the program.
#ifndef DMBENCH_SPANS_H_
#define DMBENCH_SPANS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dmbench {

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;  ///< Index of the enclosing span, -1 at top level.
  size_t op = 0;    ///< Op the span belongs to.
};

/// Single-threaded span recorder: spans nest by call structure on the
/// benchmark's thread (the program's pool threads never open spans).
class SpanRecorder {
 public:
  /// Spans opened from now on belong to op `op`.
  void BeginOp(size_t op) { op_ = op; }
  size_t Open(std::string name);
  void Close(size_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Σ seconds of the spans named `name` that belong to `op`.
  double Seconds(size_t op, const std::string& name) const;
  /// Σ seconds of the direct children of span `parent`.
  double ChildSeconds(size_t parent) const;
  /// Σ seconds per span name over `op`'s spans, except `skip`.
  std::map<std::string, double> SecondsByName(size_t op,
                                              const std::string& skip) const;

  /// Writes every span as a JSON array; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  size_t op_ = 0;
};

/// Opens a span for the lifetime of the scope; records nothing when `rec` is
/// null, so one code path serves plain and replayed ops.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name)
      : rec_(rec), id_(rec != nullptr ? rec->Open(std::move(name)) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  size_t id_;
};

/// Monotonic clock reading in nanoseconds.
uint64_t NowNs();

/// Seconds elapsed since `start_ns` (a NowNs() reading).
double SecondsSince(uint64_t start_ns);

}  // namespace dmbench

#endif  // DMBENCH_SPANS_H_
