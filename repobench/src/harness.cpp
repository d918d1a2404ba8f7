#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "common/rng.hpp"
#include "core/advisor.hpp"
#include "gen/generators.hpp"
#include "matrix/csr_cluster.hpp"
#include "spgemm/spgemm.hpp"

namespace rb {

using namespace cw;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + stream;
  splitmix64(state);
  return splitmix64(state);
}

// --- spans -------------------------------------------------------------------

namespace {

std::atomic<std::int32_t> next_thread_index{0};

struct ThreadSpans {
  std::int32_t index = next_thread_index.fetch_add(1);
  std::vector<std::int32_t> open;  // this thread's span stack
};

ThreadSpans& thread_spans() {
  thread_local ThreadSpans ts;
  return ts;
}

bool same(const char* a, const char* b) {
  if (a == nullptr || b == nullptr) return a == b;
  return std::strcmp(a, b) == 0;
}

}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

Tracer::Scope Tracer::span(const char* name, const char* tag,
                           std::uint64_t request) {
  if (!enabled()) return Scope(nullptr, -1);
  ThreadSpans& ts = thread_spans();
  SpanRecord rec;
  rec.name = name;
  rec.tag = tag;
  rec.thread = ts.index;
  rec.parent = ts.open.empty() ? -1 : ts.open.back();
  rec.request = request;
  std::int32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Children inherit their parent's request id.
    if (rec.request == 0 && rec.parent >= 0)
      rec.request = spans_[static_cast<std::size_t>(rec.parent)].request;
    rec.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - epoch_)
                       .count();
    id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(rec);
  }
  ts.open.push_back(id);
  return Scope(this, id);
}

void Tracer::close_(std::int32_t id) {
  const std::int64_t end =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
          .count();
  ThreadSpans& ts = thread_spans();
  if (!ts.open.empty() && ts.open.back() == id) ts.open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<SpanRecord> Tracer::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::durations_ms(const char* name, const char* tag) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& s : spans_) {
    if (s.end_ns < 0 || !same(s.name, name)) continue;
    if (tag != nullptr && !same(s.tag, tag)) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

std::vector<double> Tracer::leaf_durations_ms(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<char> has_child(spans_.size(), 0);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0) has_child[static_cast<std::size_t>(s.parent)] = 1;
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_ns < 0 || has_child[i] || !same(s.name, name)) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

std::vector<std::pair<std::string, LayerTimes>> Tracer::layer_times(
    SpanCheck* check) const {
  const std::vector<SpanRecord> spans = records();
  std::vector<std::vector<std::int32_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      children[static_cast<std::size_t>(spans[i].parent)].push_back(
          static_cast<std::int32_t>(i));
  SpanCheck c;
  c.spans = spans.size();
  std::map<std::string, LayerTimes> by_name;
  bool first_self = true;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.end_ns < 0) {
      ++c.unclosed;
      continue;
    }
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::int32_t k : children[i]) {
      const SpanRecord& ch = spans[static_cast<std::size_t>(k)];
      if (ch.end_ns < 0) continue;
      if (ch.start_ns < s.start_ns || ch.end_ns > s.end_ns) ++c.outside_parent;
      iv.emplace_back(std::max(ch.start_ns, s.start_ns),
                      std::min(ch.end_ns, s.end_ns));
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_b = 0, cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (e <= b) continue;
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    const double total = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    const double self = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-6;
    if (first_self || self < c.min_self_ms) c.min_self_ms = self;
    first_self = false;
    LayerTimes& lt = by_name[s.name];
    ++lt.count;
    lt.total_ms += total;
    lt.self_ms += self;
  }
  if (check != nullptr) *check = c;
  return {by_name.begin(), by_name.end()};
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const std::vector<SpanRecord> spans = records();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i > 0) out << ",\n";
    const std::int64_t end = s.end_ns < 0 ? s.start_ns : s.end_ns;
    out << "{\"name\":" << json_string(s.name) << ",\"ph\":\"X\",\"pid\":1"
        << ",\"tid\":" << s.thread
        << ",\"ts\":" << json_number(static_cast<double>(s.start_ns) * 1e-3)
        << ",\"dur\":" << json_number(static_cast<double>(end - s.start_ns) * 1e-3)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request
        << ",\"closed\":" << (s.end_ns < 0 ? "false" : "true");
    if (s.tag != nullptr) out << ",\"tag\":" << json_string(s.tag);
    out << "}}";
  }
  out << "]}\n";
}

// --- samples -----------------------------------------------------------------

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Samples::median() const { return median_of(v_); }

namespace {
std::size_t p95_rank(std::size_t n) {  // 1-based nearest rank
  return static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(n)));
}
}  // namespace

double Samples::p95() const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  return s[p95_rank(s.size()) - 1];
}

std::size_t Samples::beyond_p95() const {
  return v_.empty() ? 0 : v_.size() - p95_rank(v_.size());
}

double Samples::sum() const {
  double t = 0;
  for (double x : v_) t += x;
  return t;
}

// --- report ------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  std::string s(buf, res.ptr);
  // Shortest round-trip form; make sure it still reads as a JSON number.
  if (s.find_first_of(".eE") == std::string::npos && s != "0" && s != "-0")
    s += ".0";
  return s;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

void Report::add(const std::string& name, double value, const std::string& unit,
                 std::size_t samples, const std::string& label) {
  for (Entry& e : metrics_) {
    if (e.name == name) {
      e = {name, unit, label, value, samples};
      return;
    }
  }
  metrics_.push_back({name, unit, label, value, samples});
}

void Report::count(const std::string& name, double value, const std::string& unit) {
  add(name, value, unit, 0, "computed");
}

void Report::add_median(const std::string& name, const Samples& s,
                        const std::string& unit) {
  add(name, s.median(), unit, s.n());
}

void Report::env(const std::string& key, const std::string& value) {
  env_.emplace_back(key, json_string(value));
}

void Report::env(const std::string& key, double value) {
  env_.emplace_back(key, json_number(value));
}

double Report::value(const std::string& name) const {
  for (const Entry& e : metrics_)
    if (e.name == name) return e.value;
  throw std::runtime_error("metric not recorded: " + name);
}

std::string Report::metrics_json() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    if (i > 0) os << ", ";
    os << json_string(e.name) << ": {\"value\": " << json_number(e.value)
       << ", \"unit\": " << json_string(e.unit)
       << ", \"label\": " << json_string(e.label);
    if (e.samples > 0) os << ", \"samples\": " << e.samples;
    os << "}";
  }
  os << "}";
  return os.str();
}

std::string Report::env_json() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < env_.size(); ++i) {
    if (i > 0) os << ", ";
    os << json_string(env_[i].first) << ": " << env_[i].second;
  }
  os << "}";
  return os.str();
}

// --- ledger ------------------------------------------------------------------

void Ledger::error(const std::exception_ptr& e) {
  const fault::Status st = fault::status_of(e);
  errors_total_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (first_problem_.empty())
    first_problem_ = std::string("error ") + fault::to_string(st.code) + ": " +
                     st.message;
}

void Ledger::mismatch(const std::string& what) {
  mismatches_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (first_problem_.empty()) first_problem_ = "wrong product: " + what;
}

void Ledger::expect_close(const Csr& got, const Csr& want, const char* what) {
  if (!got.approx_equal(want, 1e-9))
    mismatch(std::string(what) + " differs from the row-wise reference");
}

void Ledger::expect_digest(const Csr& got, std::uint64_t want, const char* what) {
  if (digest(got) != want)
    mismatch(std::string(what) + " is not bit-identical to its checked product");
}

std::string Ledger::first_problem() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_problem_;
}

namespace {

struct Digest {
  std::uint64_t h = 0x6a09e667f3bcc909ULL;
  void word(std::uint64_t w) {
    h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
  }
  template <typename T>
  void words(const ArraySegment<T>& seg) {
    word(seg.size());
    const T* p = seg.data();
    for (std::size_t i = 0; i < seg.size(); ++i) {
      if constexpr (std::is_floating_point_v<T>) {
        const double v = p[i] == 0 ? 0.0 : static_cast<double>(p[i]);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        word(bits);
      } else {
        word(static_cast<std::uint64_t>(p[i]));
      }
    }
  }
};

}  // namespace

std::uint64_t digest(const Csr& c) {
  Digest d;
  d.word(static_cast<std::uint64_t>(c.nrows()));
  d.word(static_cast<std::uint64_t>(c.ncols()));
  d.words(c.row_ptr());
  d.words(c.col_idx());
  d.words(c.values());
  return d.h;
}

// --- layer helpers -----------------------------------------------------------

const char* intern(const std::string& s) {
  static std::mutex mu;
  static std::set<std::string> strings;  // node-based: pointers stay valid
  std::lock_guard<std::mutex> lock(mu);
  return strings.insert(s).first->c_str();
}

Input make_input(const std::string& role, Csr a, std::uint64_t value_seed) {
  randomize_values(a, value_seed);
  return {role, std::move(a), intern(role)};
}

std::shared_ptr<const Pipeline> prepare(const Csr& a, const PipelineOptions& opt,
                                        const char* tag, PermutationMode mode) {
  auto s = tracer().span("core.prepare", tag);
  return std::make_shared<const Pipeline>(mode == PermutationMode::kRowsOnly
                                              ? Pipeline::prepare_rows(a, opt)
                                              : Pipeline(a, opt));
}

std::shared_ptr<const Pipeline> prepare_advised(const Csr& a, const char* tag) {
  Recommendation rec;
  {
    auto s = tracer().span("core.advise", tag);
    rec = advise(a);
  }
  return prepare(a, rec.pipeline_options(), tag);
}

Csr multiply_direct(const Pipeline& p, const Csr& b, const char* tag,
                    double* multiply_ms, SpgemmStats* kernel) {
  Tracer& t = tracer();
  Csr c;
  {
    auto s = t.span("core.multiply", tag);
    const Clock::time_point t0 = Clock::now();
    c = p.multiply(b, kernel);
    if (multiply_ms != nullptr) *multiply_ms = ms_since(t0);
  }
  auto s = t.span("core.unpermute", tag);
  return p.unpermute_rows(c);
}

Csr sampled_multiply(const Pipeline& p, const Csr& b, const char* tag, bool sample,
                     MatrixSamples* s) {
  double multiply_ms = 0;
  SpgemmStats st;
  const Clock::time_point t0 = Clock::now();
  Csr c = multiply_direct(p, b, tag, &multiply_ms, &st);
  if (sample) {
    s->product_ms.add(ms_since(t0));
    s->multiply_ms.add(multiply_ms);
    s->symbolic_ms.add(st.symbolic_seconds * 1e3);
    s->numeric_ms.add(st.numeric_seconds * 1e3);
  }
  s->output_nnz = static_cast<double>(c.nnz());
  return c;
}

void sample_rowwise(const Csr& a, const Csr& b, const char* tag, MatrixSamples* s) {
  SpgemmStats st;
  auto span = tracer().span("spgemm.rowwise", tag);
  const Clock::time_point t0 = Clock::now();
  const Csr c = spgemm(a, b, Accumulator::kHash, &st);
  s->rowwise_ms.add(ms_since(t0));
  s->rowwise_symbolic_ms.add(st.symbolic_seconds * 1e3);
  s->rowwise_numeric_ms.add(st.numeric_seconds * 1e3);
}

namespace {

/// Exactly repeating work counts of one multiply by `b` through `p`.
KernelCounts count_kernel(const Pipeline& p, const Csr& b) {
  const Csr& a = p.matrix();
  const bool symmetric = p.mode() == PermutationMode::kSymmetric;
  // Pipeline::multiply feeds the kernel B with its rows in the prepared
  // order (symmetric mode) or unchanged (rows-only mode).
  auto b_row = [&](index_t j) -> double {
    const index_t src = symmetric ? p.order()[static_cast<std::size_t>(j)] : j;
    return static_cast<double>(b.row_nnz(src));
  };
  KernelCounts k;
  k.a_nnz = static_cast<double>(a.nnz());
  for (index_t r = 0; r < a.nrows(); ++r)
    for (index_t j : a.row_cols(r)) k.products += b_row(j);
  if (p.clustered()) {
    const CsrCluster& cc = *p.clustered();
    k.clusters = cc.num_clusters();
    k.clustered_rows = cc.nrows();
    const auto& cols = cc.col_idx();
    for (std::size_t i = 0; i < cols.size(); ++i) k.lane_probes += b_row(cols[i]);
    k.b_row_fetches = static_cast<double>(cols.size());
  } else {
    k.lane_probes = k.products;
    k.b_row_fetches = k.a_nnz;
  }
  k.b_bytes = k.b_row_fetches * 2 * sizeof(offset_t) +
              k.lane_probes * (sizeof(index_t) + sizeof(value_t));
  return k;
}

void emit_counts(Report& r, const std::string& sfx, const KernelCounts& k) {
  r.count("core.clusters" + sfx, k.clusters);
  r.add("core.mean_cluster_rows" + sfx,
        k.clusters > 0 ? k.clustered_rows / k.clusters : 1.0, "rows", 0, "computed");
  r.add("core.b_reuse" + sfx, k.b_row_fetches > 0 ? k.a_nnz / k.b_row_fetches : 0,
        "ratio", 0, "computed");
  r.count("accumulator.probes" + sfx, k.lane_probes);
  r.count("accumulator.probes_rowwise" + sfx, k.products);
  r.count("spgemm.flops" + sfx, 2 * k.products);
  r.count("core.b_row_fetches" + sfx, k.b_row_fetches);
  r.count("core.b_bytes" + sfx, k.b_bytes, "B");
  r.add("core.ops_per_byte" + sfx, k.b_bytes > 0 ? 2 * k.products / k.b_bytes : 0,
        "flop/B", 0, "computed");
}
}  // namespace

void report_matrix_layers(Report& r, const Input& in, const Pipeline& p,
                          const Csr& b, const MatrixSamples& s, KernelLayers* total) {
  const std::string sfx = "." + in.role;
  const std::vector<double> unpermute = tracer().durations_ms("core.unpermute", in.tag);
  const double csr = static_cast<double>(p.matrix().memory_bytes());
  const double clustered =
      p.clustered() ? static_cast<double>(p.clustered()->memory_bytes()) : 0;
  const double multiply = s.multiply_ms.median();
  r.add_median("core.multiply_ms" + sfx, s.multiply_ms);
  r.add("core.unpermute_ms" + sfx, median_of(unpermute), "ms", unpermute.size());
  r.add_median("core.symbolic_ms" + sfx, s.symbolic_ms);
  r.add_median("core.numeric_ms" + sfx, s.numeric_ms);
  if (s.rowwise_ms.n() > 0) {
    const double rowwise = s.rowwise_ms.median();
    r.add_median("spgemm.rowwise_ms" + sfx, s.rowwise_ms);
    r.add_median("spgemm.symbolic_ms" + sfx, s.rowwise_symbolic_ms);
    r.add_median("spgemm.numeric_ms" + sfx, s.rowwise_numeric_ms);
    r.add("core.speedup_vs_rowwise" + sfx, multiply > 0 ? rowwise / multiply : 0, "x");
    total->rowwise_ms += rowwise;
  }
  r.count("spgemm.output_nnz" + sfx, s.output_nnz);
  r.count("matrix.csr_bytes" + sfx, csr, "B");
  r.count("matrix.clustered_bytes" + sfx, clustered, "B");
  const KernelCounts k = count_kernel(p, b);
  emit_counts(r, sfx, k);

  KernelCounts& t = total->counts;
  t.products += k.products;
  t.lane_probes += k.lane_probes;
  t.b_row_fetches += k.b_row_fetches;
  t.a_nnz += k.a_nnz;
  t.clusters += k.clusters;
  t.clustered_rows += k.clustered_rows;
  t.b_bytes += k.b_bytes;
  total->multiply_ms += multiply;
  total->unpermute_ms += median_of(unpermute);
  total->symbolic_ms += s.symbolic_ms.median();
  total->numeric_ms += s.numeric_ms.median();
  total->output_nnz += s.output_nnz;
  total->csr_bytes += csr;
  total->clustered_bytes += clustered;
}

void report_layer_totals(Report& r, const KernelLayers& t, std::size_t rounds) {
  r.add("core.multiply_ms", t.multiply_ms, "ms", rounds);
  r.add("core.unpermute_ms", t.unpermute_ms, "ms", rounds);
  r.add("core.symbolic_ms", t.symbolic_ms, "ms", rounds);
  r.add("core.numeric_ms", t.numeric_ms, "ms", rounds);
  r.add("spgemm.rowwise_ms", t.rowwise_ms, "ms", rounds);
  r.add("core.speedup_vs_rowwise",
        t.multiply_ms > 0 ? t.rowwise_ms / t.multiply_ms : 0, "x");
  r.count("spgemm.output_nnz", t.output_nnz);
  r.count("matrix.csr_bytes", t.csr_bytes, "B");
  r.count("matrix.clustered_bytes", t.clustered_bytes, "B");
  emit_counts(r, "", t.counts);
}

double cache_bytes(int level) {
  const long v = sysconf(level == 2 ? _SC_LEVEL2_CACHE_SIZE : _SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<double>(v) : 0.0;
}

void record_b_bytes(Report& r, const std::string& role, std::size_t bytes) {
  const double b = static_cast<double>(bytes);
  r.env("b_bytes." + role, b);
  if (cache_bytes(2) > 0) r.env("b_over_l2." + role, b / cache_bytes(2));
  if (cache_bytes(3) > 0) r.env("b_over_llc." + role, b / cache_bytes(3));
}

void record_plan(Report& r, const std::string& role, const Recommendation& rec) {
  r.env("plan." + role, std::string(to_string(rec.reorder)) + "+" + to_string(rec.scheme));
}

double peak_rss_mb() {
  // VmHWM is this process image's own high-water mark, which
  // reset_peak_rss() can restart; getrusage's ru_maxrss cannot be reset and
  // would carry the launching process's peak across exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

bool reset_peak_rss() {
  malloc_trim(0);  // hand freed heap back first, so it leaves the RSS
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // 5: reset the peak resident set size to the current one
  clear.flush();
  return static_cast<bool>(clear);
}

void report_setup_layers(Report& r, const std::vector<std::shared_ptr<const Pipeline>>& prepared) {
  const std::vector<double> advise = tracer().durations_ms("core.advise");
  double advise_ms = 0;
  for (double x : advise) advise_ms += x;
  r.add("core.advise_ms", advise_ms, "ms", advise.size());
  double prepare_ms = 0, reorder_ms = 0, cluster_ms = 0, format_ms = 0, permute_ms = 0;
  for (const auto& p : prepared) {
    const PipelineStats& st = p->stats();
    prepare_ms += st.preprocess_seconds() * 1e3;
    reorder_ms += st.reorder_seconds * 1e3;
    cluster_ms += st.cluster_seconds * 1e3;
    format_ms += st.format_seconds * 1e3;
    auto s = tracer().span("matrix.permute");
    const Clock::time_point t0 = Clock::now();
    const Csr moved = p->mode() == PermutationMode::kRowsOnly
                          ? p->matrix().permute_rows(p->order())
                          : p->matrix().permute_symmetric(p->order());
    permute_ms += ms_since(t0);
  }
  const std::size_t n = prepared.size();
  r.add("core.prepare_ms", prepare_ms, "ms", n);
  r.add("reorder.ms", reorder_ms, "ms", n);
  r.add("core.cluster_ms", cluster_ms, "ms", n);
  r.add("matrix.format_ms", format_ms, "ms", n);
  r.add("matrix.permute_ms", permute_ms, "ms", n);
}

}  // namespace rb
