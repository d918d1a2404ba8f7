// Shared pieces of the repository benchmark: arguments, in-memory spans,
// sample statistics, the metric report, the correctness ledger, and the thin
// helpers through which every workload calls into the library's layers.
//
// Spans are recorded from the benchmark's own calls into each layer's public
// functions (advise, the Pipeline and ShardedPipeline constructors,
// Pipeline::multiply / unpermute_rows, spgemm, stack/split_columns,
// fingerprint, get_or_build, submit, snapshot save/load, ...); the set-up's
// reorder, clustering and format times come from the pipelines' own
// PipelineStats. Tracing is off for the end-to-end run and on for the
// separate per-layer run; a disabled span costs one branch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/advisor.hpp"
#include "core/pipeline.hpp"
#include "fault/status.hpp"
#include "matrix/csr.hpp"

namespace rb {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Short self-test size: tiny inputs, a fraction of a second of measuring.
  bool smoke = false;
  /// Where the span file and temporary snapshots go (inside the checkout).
  std::string out_dir = ".";
};

/// Independent sub-seed number `stream` of the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- spans -------------------------------------------------------------------

struct SpanRecord {
  const char* name = nullptr;  // layer.function, a string literal
  const char* tag = nullptr;   // matrix role, a string that outlives the run
  std::int64_t start_ns = 0;   // since the tracer's epoch
  std::int64_t end_ns = -1;    // -1 while open
  std::int32_t parent = -1;    // enclosing span on the same thread
  std::int32_t thread = 0;
  std::uint64_t request = 0;   // 0 = not part of a served request
};

/// Per-layer totals derived from the spans: a layer's self time is its
/// span's duration minus the part of that interval its child spans cover.
struct LayerTimes {
  std::size_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

struct SpanCheck {
  std::size_t spans = 0;
  std::size_t unclosed = 0;
  std::size_t outside_parent = 0;  // child not inside its parent's interval
  double min_self_ms = 0;
};

class Tracer {
 public:
  /// Closes its span on destruction; inert when tracing is off.
  class Scope {
   public:
    Scope(Tracer* tracer, std::int32_t id) : tracer_(tracer), id_(id) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close_(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t id_;
  };

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] Scope span(const char* name, const char* tag = nullptr,
                           std::uint64_t request = 0);

  /// Durations (ms) of the closed spans called `name` (and `tag`, if given),
  /// in recording order.
  [[nodiscard]] std::vector<double> durations_ms(const char* name,
                                                 const char* tag = nullptr) const;

  /// Durations of `name` spans that have no child span.
  [[nodiscard]] std::vector<double> leaf_durations_ms(const char* name) const;

  [[nodiscard]] std::vector<SpanRecord> records() const;

  /// Self and total time per span name, plus the nesting check.
  [[nodiscard]] std::vector<std::pair<std::string, LayerTimes>> layer_times(
      SpanCheck* check) const;

  /// Chrome trace_event JSON ("X" events; args carry id, parent, request).
  void write_chrome_trace(const std::string& path) const;

 private:
  void close_(std::int32_t id);

  std::atomic<bool> enabled_{false};
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// The process-wide tracer every helper records into.
Tracer& tracer();

// --- samples -----------------------------------------------------------------

class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void merge(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  [[nodiscard]] std::size_t n() const { return v_.size(); }
  /// Middle value; the mean of the two middle values for an even count.
  [[nodiscard]] double median() const;
  /// Nearest-rank 95th percentile.
  [[nodiscard]] double p95() const;
  /// How many samples lie beyond p95() (the guide asks for at least ten).
  [[nodiscard]] std::size_t beyond_p95() const;
  [[nodiscard]] double sum() const;

 private:
  std::vector<double> v_;
};

double median_of(std::vector<double> v);

// --- report ------------------------------------------------------------------

/// Every number the run produces, in insertion order. `label` is "measured"
/// for timings and "computed" for exactly repeating counters.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0, const std::string& label = "measured");
  /// An exactly repeating counter, labelled "computed".
  void count(const std::string& name, double value,
             const std::string& unit = "count");
  void add_median(const std::string& name, const Samples& s,
                  const std::string& unit = "ms");
  /// Environment and configuration record (string or number values).
  void env(const std::string& key, const std::string& value);
  void env(const std::string& key, double value);
  [[nodiscard]] double value(const std::string& name) const;
  [[nodiscard]] std::string metrics_json() const;
  [[nodiscard]] std::string env_json() const;

 private:
  struct Entry {
    std::string name, unit, label;
    double value = 0;
    std::size_t samples = 0;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> env_;  // raw JSON values
};

std::string json_number(double v);
std::string json_string(const std::string& s);

// --- correctness ledger ------------------------------------------------------

/// Counts attempted operations, thrown or refused ones and wrong products.
/// Thread-safe.
class Ledger {
 public:
  void attempt(std::uint64_t n = 1) { attempted_.fetch_add(n); }
  void error(const std::exception_ptr& e);
  void mismatch(const std::string& what);
  /// Check a product in caller space against its row-wise reference: same
  /// pattern, values within 1e-9.
  void expect_close(const cw::Csr& got, const cw::Csr& want, const char* what);
  /// Check a product bit for bit against the digest of one already checked.
  void expect_digest(const cw::Csr& got, std::uint64_t want, const char* what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_.load(); }
  [[nodiscard]] std::uint64_t failed() const {
    return errors_total_.load() + mismatches_.load();
  }
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_.load(); }
  [[nodiscard]] std::string first_problem() const;

 private:
  std::atomic<std::uint64_t> attempted_{0}, mismatches_{0}, errors_total_{0};
  mutable std::mutex mu_;
  std::string first_problem_;  // guarded by mu_
};

/// 64-bit digest of a product's shape, pattern and values. Equal digests
/// stand for operator== (values are hashed by their bits, -0.0 as 0.0), so a
/// run keeps eight bytes per checked product instead of the product.
std::uint64_t digest(const cw::Csr& c);

// --- layer helpers -----------------------------------------------------------

/// A stable C string equal to `s`, for span tags that must outlive the
/// caller's strings (the span file is written after the workload returns).
const char* intern(const std::string& s);

/// A generated input matrix and its role name (the metric suffix and span
/// tag).
struct Input {
  std::string role;
  cw::Csr a;
  const char* tag = nullptr;  // intern(role)
};

/// Generated input: structure from a gen/ generator, values reseeded with
/// randomize_values.
Input make_input(const std::string& role, cw::Csr a, std::uint64_t value_seed);

/// Prepare `a` with `opt` through the library's own path, the Pipeline
/// constructor (prepare_rows in rows-only mode), under a core.prepare span.
/// Its reorder, clustering and format times are the ones the pipeline
/// records in its PipelineStats.
std::shared_ptr<const cw::Pipeline> prepare(
    const cw::Csr& a, const cw::PipelineOptions& opt, const char* tag,
    cw::PermutationMode mode = cw::PermutationMode::kSymmetric);

/// The system's own plan choice: advise(a) → prepare().
std::shared_ptr<const cw::Pipeline> prepare_advised(const cw::Csr& a,
                                                    const char* tag);

/// C = A×B in the caller's index space: Pipeline::multiply then
/// unpermute_rows, each under its span. `multiply_ms` gets the multiply
/// alone; `kernel` the kernel's symbolic/numeric split.
cw::Csr multiply_direct(const cw::Pipeline& p, const cw::Csr& b,
                        const char* tag, double* multiply_ms = nullptr,
                        cw::SpgemmStats* kernel = nullptr);

/// Per-matrix samples of a phase's direct rounds: the whole product call,
/// the pipeline's multiply and its kernel split, and — in traced runs — the
/// row-wise baseline timed right after it, under the same conditions.
struct MatrixSamples {
  Samples product_ms;  // multiply + unpermute
  Samples multiply_ms, symbolic_ms, numeric_ms;
  Samples rowwise_ms, rowwise_symbolic_ms, rowwise_numeric_ms;
  double output_nnz = 0;
};

/// multiply_direct, with its times added to `s` when `sample` is set.
cw::Csr sampled_multiply(const cw::Pipeline& p, const cw::Csr& b, const char* tag,
                         bool sample, MatrixSamples* s);

/// Time the row-wise Gustavson baseline spgemm(a, b) (caller space, current
/// OpenMP width) into `s`, under an spgemm.rowwise span.
void sample_rowwise(const cw::Csr& a, const cw::Csr& b, const char* tag,
                    MatrixSamples* s);

/// Exactly repeating work counts of one multiply through a prepared
/// pipeline, computed from the structures (no timing).
struct KernelCounts {
  double products = 0;      // intermediate products (flops / 2)
  double lane_probes = 0;   // accumulator probes of the plan's kernel
  double b_row_fetches = 0; // B rows read: Σ distinct columns per cluster
  double a_nnz = 0;
  double clusters = 0;      // clusters of the clustered format (0 row-wise)
  double clustered_rows = 0;
  double b_bytes = 0;       // bytes of B the plan's kernel reads
};

/// The per-layer kernel numbers of a workload, summed over its matrices.
struct KernelLayers {
  KernelCounts counts;
  double multiply_ms = 0, unpermute_ms = 0, symbolic_ms = 0, numeric_ms = 0,
         rowwise_ms = 0, output_nnz = 0, csr_bytes = 0, clustered_bytes = 0;
};

/// Emit one matrix's per-layer numbers (suffix `.<role>`): the medians of
/// its multiply (and its symbolic/numeric split), of its unpermute span and
/// of the row-wise baseline with the speedup over it (when sampled), its
/// output nnz and the computed work counts of multiplying it by `b`. Adds
/// them to `total`.
void report_matrix_layers(Report& r, const Input& in, const cw::Pipeline& p,
                          const cw::Csr& b, const MatrixSamples& s,
                          KernelLayers* total);

/// Emit the workload totals (no suffix) that BENCHMARK.json lists.
void report_layer_totals(Report& r, const KernelLayers& total, std::size_t rounds);

/// Environment record of one B operand: its bytes and their ratio to the
/// L2 and last-level cache sizes.
void record_b_bytes(Report& r, const std::string& role, std::size_t bytes);

/// Environment record of the plan the advisor chose for `role`.
void record_plan(Report& r, const std::string& role, const cw::Recommendation& rec);

/// Cache size in bytes (level 2 or 3) as the C library reports it; 0 if
/// unknown.
double cache_bytes(int level);

/// Peak resident memory of this process since the last reset_peak_rss()
/// (or since it started), MiB.
double peak_rss_mb();

/// Restart the peak at the current resident size, once the references the
/// harness alone needs are freed. Returns false where the kernel refuses.
bool reset_peak_rss();

/// Emit the set-up layers of the pipelines `prepared`: core.advise_ms from
/// the advise spans recorded so far; core.prepare_ms (their whole
/// preprocessing), reorder.ms, core.cluster_ms and matrix.format_ms summed
/// from their PipelineStats; and matrix.permute_ms from one probe permute of
/// each prepared matrix by its order (the constructor's permutes are timed
/// inside its reorder and clustering steps, not apart).
void report_setup_layers(Report& r,
                         const std::vector<std::shared_ptr<const cw::Pipeline>>& prepared);

// --- workloads ---------------------------------------------------------------

/// Each workload measures for about args.seconds, checks every product it
/// times, and fills `r` with its end-to-end metrics (untraced run) or its
/// per-layer metrics plus obs.trace_overhead_pct (traced run).
void run_square_reuse(const Args& args, Report& r, Ledger& ledger);
void run_prep_amortize(const Args& args, Report& r, Ledger& ledger);
void run_serve_frontier(const Args& args, Report& r, Ledger& ledger);
void run_serve_sharded(const Args& args, Report& r, Ledger& ledger);

}  // namespace rb
