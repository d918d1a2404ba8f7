// The two repeated-A² workloads: square-reuse (the advisor's plan, kernel
// bound) and prep-amortize (HP + hierarchical from raw, set-up bound).
//
// Both run one client thread that, after each set-up, multiplies every
// prepared matrix by itself in rounds. A round returns each product in the
// caller's original index space (Pipeline::multiply + unpermute_rows). On
// these two workloads the client's request is one round, so the request
// metrics read the round samples.
#include <functional>
#include <optional>
#include <string>

#include "common/parallel.hpp"
#include "core/advisor.hpp"
#include "gen/generators.hpp"
#include "harness.hpp"
#include "spgemm/spgemm.hpp"

namespace rb {

using namespace cw;

namespace {

using Prepared = std::vector<std::shared_ptr<const Pipeline>>;
using SetupFn = std::function<Prepared(const std::vector<Input>&)>;

struct MatrixWorkload {
  std::vector<Input> inputs;
  SetupFn setup;
  int cycles = 0;            // set-ups per run (setup_s is their median)
  int rounds_per_cycle = 0;  // raw_to_products_s = set-up + these rounds
};

struct PhaseResult {
  Samples setup_s, raw_to_products_s, round_ms;
  std::vector<MatrixSamples> per_matrix;
  Prepared prepared;  // the last set-up's pipelines
  bool peak_reset = false;
};

/// Checks each matrix's A×A products without holding a reference: the first
/// product is compared with a row-wise spgemm in caller space (built then,
/// outside the timed region, and dropped) and its digest is kept; every later
/// product, from any set-up and either phase, must match that digest bit for
/// bit, so rebuilt pipelines must give identical products.
class ProductChecks {
 public:
  explicit ProductChecks(std::size_t n) : digests_(n) {}
  void check(const Input& in, std::size_t i, const Csr& c, Ledger& ledger) {
    if (digests_[i]) {
      ledger.expect_digest(c, *digests_[i], in.tag);
      return;
    }
    ledger.expect_close(c, spgemm(in.a, in.a), in.tag);
    digests_[i] = digest(c);
  }

 private:
  std::vector<std::optional<std::uint64_t>> digests_;
};

/// `cycles` set-ups spread evenly over `budget_s`: each set-up replaces the
/// previous one and is followed by rounds_per_cycle rounds
/// (raw_to_products_s), then by sampled rounds until its share of the budget
/// has passed, so that set-ups and rounds both sample the whole run (the
/// machine runs at a few speed levels, each lasting seconds). The first
/// round after a set-up warms caches and counts toward raw_to_products_s
/// only. With `baseline`, each sampled product is followed by the row-wise
/// baseline on the same matrix (traced runs only: it is not part of the
/// round). The peak resident size restarts after the first cycle, once its
/// row-wise references are freed; later cycles repeat its set-up. The reset
/// trims the heap, so one unsampled round follows it.
PhaseResult run_phase(const MatrixWorkload& w, int cycles, double budget_s,
                      bool baseline, ProductChecks& checks, Ledger& ledger) {
  PhaseResult res;
  res.per_matrix.resize(w.inputs.size());
  auto round = [&](bool sample) {
    double round_ms = 0;
    for (std::size_t i = 0; i < w.inputs.size(); ++i) {
      const Input& in = w.inputs[i];
      MatrixSamples& s = res.per_matrix[i];
      ledger.attempt();
      try {
        const Clock::time_point t0 = Clock::now();
        const Csr c = sampled_multiply(*res.prepared[i], in.a, in.tag, sample, &s);
        round_ms += ms_since(t0);
        checks.check(in, i, c, ledger);
        if (sample && baseline) sample_rowwise(in.a, in.a, in.tag, &s);
      } catch (...) {
        ledger.error(std::current_exception());
      }
    }
    if (sample) res.round_ms.add(round_ms);
    return round_ms;
  };

  const Clock::time_point start = Clock::now();
  for (int cycle = 0; cycle < cycles; ++cycle) {
    res.prepared.clear();  // free the previous set-up before the next one
    const Clock::time_point t0 = Clock::now();
    res.prepared = w.setup(w.inputs);
    const double setup_ms = ms_since(t0);
    double products_ms = 0;
    for (int r = 0; r < w.rounds_per_cycle; ++r) products_ms += round(r > 0);
    res.setup_s.add(setup_ms * 1e-3);
    res.raw_to_products_s.add((setup_ms + products_ms) * 1e-3);
    if (cycle == 0) {
      res.peak_reset = reset_peak_rss();
      round(false);  // the reset trims the heap: refault it outside the samples
    }
    while (ms_since(start) * 1e-3 < budget_s * (cycle + 1) / cycles) round(true);
  }
  return res;
}

void report_end_to_end(Report& r, const PhaseResult& ph) {
  r.add_median("setup_s", ph.setup_s, "s");
  r.add_median("raw_to_products_s", ph.raw_to_products_s, "s");
  r.add("round_ms_p50", ph.round_ms.median(), "ms", ph.round_ms.n());
  r.add("round_ms_p95", ph.round_ms.p95(), "ms", ph.round_ms.n());
  r.add("round_ms_p95.samples_beyond", static_cast<double>(ph.round_ms.beyond_p95()),
        "count");
  r.add("request_ms_p50", ph.round_ms.median(), "ms", ph.round_ms.n());
  r.add("request_ms_p95", ph.round_ms.p95(), "ms", ph.round_ms.n());
  r.add("throughput_rps", 1e3 * static_cast<double>(ph.round_ms.n()) / ph.round_ms.sum(),
        "req/s", ph.round_ms.n());
}

/// Per-layer numbers of the traced phase plus the out-of-loop probes: the
/// row-wise baseline at one thread, the B-row permute Pipeline::multiply
/// performs, and the computed work counts.
void report_layers(Report& r, const MatrixWorkload& w, const PhaseResult& ph) {
  report_setup_layers(r, ph.prepared);
  KernelLayers total;
  double bw_in = 0, bw_out = 0;
  for (std::size_t i = 0; i < w.inputs.size(); ++i) {
    const Input& in = w.inputs[i];
    const Pipeline& p = *ph.prepared[i];
    const std::string sfx = "." + in.role;
    report_matrix_layers(r, in, p, in.a, ph.per_matrix[i], &total);

    // The plain baseline: row-wise at one thread.
    MatrixSamples one_thread;
    const int width = num_threads();
    set_num_threads(1);
    sample_rowwise(in.a, in.a, in.tag, &one_thread);
    set_num_threads(width);
    r.add_median("spgemm.rowwise_1t_ms" + sfx, one_thread.rowwise_ms);

    std::vector<double> perm_ms;
    for (int k = 0; k < 3; ++k) {
      auto s = tracer().span("matrix.b_permute", in.tag);
      const Clock::time_point t0 = Clock::now();
      const Csr pb = in.a.permute_rows(p.order());
      perm_ms.push_back(ms_since(t0));
    }
    r.add("matrix.b_permute_ms" + sfx, median_of(perm_ms), "ms", perm_ms.size());
    bw_in += in.a.bandwidth();
    bw_out += p.matrix().bandwidth();
  }
  report_layer_totals(r, total, ph.round_ms.n());
  r.add("reorder.bandwidth_ratio", bw_in > 0 ? bw_out / bw_in : 0, "ratio", 0,
        "computed");
}

void run_matrix_workload(const Args& args, const MatrixWorkload& w, Report& r,
                         Ledger& ledger) {
  r.env("setup_cycles", w.cycles);
  r.env("rounds_per_cycle", w.rounds_per_cycle);
  for (const Input& in : w.inputs) {
    record_b_bytes(r, in.role, in.a.memory_bytes());
    r.env("nnz." + in.role, static_cast<double>(in.a.nnz()));
  }
  ProductChecks checks(w.inputs.size());
  if (!args.trace) {
    const PhaseResult ph = run_phase(w, w.cycles, args.seconds, false, checks, ledger);
    r.env("peak_rss_reset", ph.peak_reset ? "after the first set-up cycle" : "no");
    report_end_to_end(r, ph);
    return;
  }
  // Traced run: an untraced half, then the same phase with spans on. The
  // difference between the two is the tracing overhead. Both interleave the
  // row-wise baseline, so they differ only in the spans.
  double untraced_p50 = 0;
  {
    const PhaseResult a = run_phase(w, 1, args.seconds / 2, true, checks, ledger);
    untraced_p50 = a.round_ms.median();
  }
  tracer().enable(true);
  const PhaseResult b = run_phase(w, 1, args.seconds / 2, true, checks, ledger);
  r.add("obs.trace_overhead_pct",
        untraced_p50 > 0 ? (b.round_ms.median() / untraced_p50 - 1) * 100 : 0, "%");
  report_layers(r, w, b);
}

}  // namespace

void run_square_reuse(const Args& args, Report& r, Ledger& ledger) {
  const std::uint64_t s = args.seed;
  MatrixWorkload w;
  // Each A (which is also its own B) is over the 2 MiB L2 at full size.
  // Structures are fixed (the suite's generator seeds) so that runs on
  // different seeds compare; the seed draws the values.
  if (args.smoke) {
    w.inputs.push_back(make_input(
        "lattice", block_expand(gen_lattice4d(4, 4, 4, 4), 3, 102),
        derive_seed(s, 2)));
    w.inputs.push_back(make_input("mesh", gen_grid3d(8, 8, 8, 27), derive_seed(s, 3)));
    w.inputs.push_back(make_input(
        "powerlaw", gen_rmat(11, 1, 0.45, 0.22, 0.22, 105),
        derive_seed(s, 5)));
  } else {
    w.inputs.push_back(make_input(
        "lattice", block_expand(gen_lattice4d(8, 8, 8, 6), 3, 102),
        derive_seed(s, 2)));
    w.inputs.push_back(make_input("mesh", gen_grid3d(22, 22, 22, 27), derive_seed(s, 3)));
    w.inputs.push_back(make_input(
        "powerlaw", gen_rmat(16, 1, 0.45, 0.22, 0.22, 105),
        derive_seed(s, 5)));
  }
  w.setup = [](const std::vector<Input>& inputs) {
    Prepared p;
    for (const Input& in : inputs) p.push_back(prepare_advised(in.a, in.tag));
    return p;
  };
  // Set-up plus its unsampled first round take ~0.6 s against ~0.2 s rounds:
  // few set-ups leave the run to the round samples that round_ms_p95 needs.
  w.cycles = 4;
  w.rounds_per_cycle = 3;
  for (const Input& in : w.inputs) record_plan(r, in.role, advise(in.a));
  run_matrix_workload(args, w, r, ledger);
}

void run_prep_amortize(const Args& args, Report& r, Ledger& ledger) {
  const std::uint64_t s = args.seed;
  MatrixWorkload w;
  // Smaller than the small suite so HP takes seconds, not half a minute.
  if (args.smoke) {
    w.inputs.push_back(make_input(
        "lattice", block_expand(gen_lattice4d(2, 2, 2, 4), 3, 102),
        derive_seed(s, 12)));
    w.inputs.push_back(make_input("mesh", gen_grid3d(5, 5, 5, 27), derive_seed(s, 13)));
  } else {
    w.inputs.push_back(make_input(
        "lattice", block_expand(gen_lattice4d(4, 4, 4, 8), 3, 102),
        derive_seed(s, 12)));
    w.inputs.push_back(make_input("mesh", gen_grid3d(12, 12, 12, 27), derive_seed(s, 13)));
  }
  // The paper's best single ordering plus its headline scheme, fixed: the
  // advisor never picks HP on these families.
  w.setup = [](const std::vector<Input>& inputs) {
    PipelineOptions opt;
    opt.reorder = ReorderAlgo::kHP;
    opt.scheme = ClusterScheme::kHierarchical;
    Prepared p;
    for (const Input& in : inputs) p.push_back(prepare(in.a, opt, in.tag));
    return p;
  };
  w.cycles = 5;
  w.rounds_per_cycle = 20;  // the paper's "less than 20 SpGEMMs" horizon
  r.env("plan", "HP+hierarchical");
  run_matrix_workload(args, w, r, ledger);
}

}  // namespace rb
