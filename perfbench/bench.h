// Shared harness of the vdb wall-clock benchmark: the workload interface,
// host timing helpers, and the span tracer used by traced runs.
//
// Every workload is a closed loop driven from this process through vdb's
// public entry points. An untraced run measures the end-to-end metrics; a
// traced run wraps each call into a vdb layer in a span and reports the
// per-layer metrics. See perfbench/README.md.

#ifndef VDB_PERFBENCH_BENCH_H_
#define VDB_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace vdb::perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
double MillisSince(Clock::time_point start);

/// User + system CPU seconds of the whole process so far.
double ProcessCpuSeconds();

/// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Nearest-rank quantile, q in [0, 1] (0 when empty).
double Quantile(std::vector<double> values, double q);

// ---------------------------------------------------------------------------
// Tracing

/// One recorded span: a call into one layer, with its host interval, the
/// span that caused it (-1 for an operation's root) and the operation it
/// belongs to. Names are string literals.
struct Span {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t op = 0;
};

/// Spans of one thread. Not thread-safe: each client thread takes its own
/// buffer from the Tracer.
class TraceBuffer {
 public:
  explicit TraceBuffer(Clock::time_point epoch) : epoch_(epoch) {}

  /// Opens a span under the innermost open one and returns its index.
  int32_t Open(const char* name);
  void Close(int32_t index);

  /// Tags the spans opened from now on with operation id `op`.
  void BeginOp(uint64_t op) { op_ = op; }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t NowNs() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t op_ = 0;
};

/// RAII span; a null buffer makes it a no-op, so one code path serves the
/// traced and the untraced loop.
class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer* buffer, const char* name)
      : buffer_(buffer), index_(buffer ? buffer->Open(name) : -1) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceBuffer* buffer_;
  int32_t index_;
};

/// Layer self times must sum to operation wall time within this share.
constexpr double kCoverageTolerance = 0.10;

/// Aggregate over all spans of one name.
struct LayerTime {
  uint64_t spans = 0;
  double total_ms = 0.0;  // inclusive
  double self_ms = 0.0;   // minus the time covered by direct children
  std::vector<double> durations_ms;
};

/// Aggregates over a traced run.
struct TraceSummary {
  /// Non-root spans, by layer name.
  std::map<std::string, LayerTime> layers;
  /// Root spans, by operation kind.
  std::map<std::string, LayerTime> ops;
  /// Summed self time of the non-root spans, by operation kind.
  std::map<std::string, double> layer_self_ms;

  /// Mean inclusive duration of a layer's spans, in ms (0 if none).
  double MeanMs(const std::string& layer) const;
  double MedianMs(const std::string& layer) const;
  /// Summed layer self time / summed operation wall time for one
  /// operation kind (0 if it never ran).
  double Coverage(const std::string& op_kind) const;
};

/// Owns the per-thread buffers of one traced run.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// A new buffer for the calling thread; valid for the Tracer's lifetime.
  TraceBuffer* NewBuffer();

  /// A process-unique operation id (thread-safe).
  uint64_t NextOp();

  TraceSummary Summarize() const;

  /// Writes every span as one JSON object per line.
  Status WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
  uint64_t next_op_ = 1;
};

/// Tags the next root span on `buffer` with a fresh operation id and
/// returns `buffer` (null when untraced).
inline TraceBuffer* StartOp(Tracer* tracer, TraceBuffer* buffer) {
  if (tracer != nullptr && buffer != nullptr) {
    buffer->BeginOp(tracer->NextOp());
  }
  return buffer;
}

// ---------------------------------------------------------------------------
// Metrics

/// Named metric values with their units, in insertion order. Setting a
/// name again overwrites its value.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// Every per-layer metric at 0 with its unit, in report order. Workloads
/// start from this and overwrite what they measure.
void ZeroLayerMetrics(MetricSet* out);

// ---------------------------------------------------------------------------
// Workloads

/// What one closed-loop run of a workload observed.
struct LoopStats {
  /// Host latency of each completed operation, in ms.
  std::vector<double> latencies_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Wall and process CPU time of the loop.
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// First failure, for the report.
  std::string first_error;

  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
};

/// One benchmark workload. The harness calls TearDown + SetUp several
/// times (SetUp timed, the last instance kept), then Verify once, then Run
/// for the measured loop(s), then CheckReference; in a traced run
/// LayerMetrics follows.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Releases what the previous SetUp built. Not timed.
  virtual void TearDown() = 0;

  /// Builds the data and the system under test from scratch. Timed as
  /// setup_s, so it runs no check and no oracle.
  virtual Status SetUp() = 0;

  /// Takes the first executions, checks them against what it can check
  /// cheaply, and warms caches. Not timed.
  virtual Status Verify() = 0;

  /// Checks the first executions against an independent reference. Called
  /// once after the measured loops and after peak_rss_mb is read, so the
  /// reference's time and memory stay out of every metric.
  virtual Status CheckReference() { return Status::OK(); }

  /// Runs the closed loop for `seconds`. With a tracer, every operation
  /// is a root span and each call into a vdb layer a child span.
  virtual LoopStats Run(double seconds, Tracer* tracer) = 0;

  /// Fills the per-layer metrics of a traced run (after ZeroLayerMetrics).
  /// May record more spans into `tracer` (e.g. a probe replay).
  virtual Status LayerMetrics(const LoopStats& traced, Tracer* tracer,
                              MetricSet* out) = 0;

  /// Adds what this workload measured during its SetUp calls.
  virtual void SetUpMetrics(MetricSet* out) { (void)out; }
};

std::unique_ptr<Workload> MakeOlapWarm(uint64_t seed);
std::unique_ptr<Workload> MakeOlapCold4t(uint64_t seed);
std::unique_ptr<Workload> MakeAdvisorSearch(uint64_t seed);
std::unique_ptr<Workload> MakeTenantsWire(uint64_t seed,
                                          const std::string& tenants_path);

}  // namespace vdb::perfbench

#endif  // VDB_PERFBENCH_BENCH_H_
