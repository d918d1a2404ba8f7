// The two closed-loop serving workloads: serve-frontier (many prepared
// matrices behind the registry and ServeEngine) and serve-sharded (one larger
// matrix as K row-block shards behind ShardedEngine, loaded from a v3
// sharded snapshot).
//
// The loops are closed because the callers this path serves (BC/BFS
// iterations) wait for each product before sending the next. Each client
// checks its product bit for bit against the digest of the unbatched
// multiply after its latency sample is taken; that check is the client's
// think time.
//
// Request traffic: payloads have the shape the repository's own serving
// benches send (bench/serve_throughput, bench/shard_scaling and cwtool
// serve-bench: 32 columns, at most 3 entries per row), and the flat engine
// batches up to 16 requests, as serve_throughput's batch-window sweep does.
// The corpus size, its Zipf popularity and the payloads per matrix are this
// benchmark's own choices, not taken from a measured trace.
//
// Both workloads also time a direct round: every prepared matrix (or shard)
// multiplied once by a request payload without the serving layer
// (Pipeline::multiply + unpermute_rows, then the gather for shards), one
// after another at one engine worker's OpenMP width. Its samples give
// round_ms_* on these workloads and the base for the serving overheads.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <thread>
#include <unistd.h>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/advisor.hpp"
#include "gen/generators.hpp"
#include "harness.hpp"
#include "serve/engine.hpp"
#include "serve/fingerprint.hpp"
#include "shard/engine.hpp"
#include "shard/snapshot.hpp"
#include "spgemm/spgemm.hpp"
#include "spgemm/stacked.hpp"

namespace rb {

using namespace cw;

namespace {

using CsrPtr = std::shared_ptr<const Csr>;

constexpr index_t kPayloadCols = 32;   // tall-skinny B: frontier width
constexpr index_t kPayloadRowNnz = 3;  // entries per B row, at most
constexpr int kPayloads = 4;           // distinct Bs per prepared matrix
constexpr std::size_t kMinRounds = 200;  // ten samples beyond round_ms_p95

int client_count() { return std::max(1, hardware_threads()); }

/// Results of one closed loop, merged over its clients (and slices).
struct LoopResult {
  Samples latency_ms;
  std::vector<std::pair<std::size_t, double>> by_matrix;  // (matrix, latency)
  double seconds = 0;

  void merge(const LoopResult& o) {
    latency_ms.merge(o.latency_ms);
    by_matrix.insert(by_matrix.end(), o.by_matrix.begin(), o.by_matrix.end());
    seconds += o.seconds;
  }
};

constexpr int kSlices = 10;  // slices of a phase (see run_slices)

/// Engine counters summed over the closed-loop slices of a phase (each
/// slice's delta, as set-ups replace the engine between slices). Errors are
/// the flat engine's, or the sharded engine's per request.
struct ServeCounters {
  double completed = 0, batches = 0, stacked = 0, windows = 0, timeouts = 0,
         busy_s = 0, hits = 0, misses = 0, evictions = 0, cold_multiplies = 0,
         shard_multiplies = 0;
  std::array<std::uint64_t, fault::kNumErrorCodes> errors{};

  void add(const serve::EngineStats& b, const serve::EngineStats& a) {
    completed += static_cast<double>(a.completed - b.completed);
    batches += static_cast<double>(a.batches - b.batches);
    stacked += static_cast<double>(a.stacked_requests - b.stacked_requests);
    windows += static_cast<double>(a.windows_opened - b.windows_opened);
    timeouts += static_cast<double>(a.window_timeouts - b.window_timeouts);
    busy_s += a.busy_seconds - b.busy_seconds;
    hits += static_cast<double>(a.registry.hits - b.registry.hits);
    misses += static_cast<double>(a.registry.misses - b.registry.misses);
    evictions += static_cast<double>(a.registry.evictions - b.registry.evictions);
  }
  void add(const shard::ShardedEngineStats& b, const shard::ShardedEngineStats& a) {
    cold_multiplies += static_cast<double>(a.cold_multiplies - b.cold_multiplies);
    shard_multiplies += static_cast<double>(a.shard_multiplies - b.shard_multiplies);
    add_errors(b.errors, a.errors);
  }
  void add_errors(const std::array<std::uint64_t, fault::kNumErrorCodes>& b,
                  const std::array<std::uint64_t, fault::kNumErrorCodes>& a) {
    for (std::size_t i = 0; i < errors.size(); ++i) errors[i] += a[i] - b[i];
  }
};

/// Set-ups, direct rounds and the closed loop interleaved over kSlices
/// equal slices of `budget_s`, so that each samples the whole phase: the
/// machine runs at a few speed levels, each lasting seconds, and samples
/// taken in one block read only the levels of that block. `cycles` set-ups
/// (1 or a divisor of kSlices) open evenly spaced slices: each replaces the
/// previous one (`setup()`, timed into setup_s) and is followed by four
/// direct rounds, the last three sampled (raw_to_products_s = set-up + the
/// four). Every slice then runs sampled direct rounds up to its share of
/// kMinRounds or half of what is left of the slice, and `loop(seconds,
/// slice)` for the rest. Returns the slices' loop results merged.
template <typename Setup, typename Round, typename Loop>
LoopResult run_slices(double budget_s, int cycles, const Samples& rounds,
                      Samples* setup_s, Samples* r2p_s, Setup&& setup, Round&& round,
                      Loop&& loop) {
  const Clock::time_point start = Clock::now();
  const int every = std::max(1, kSlices / cycles);
  const double slice_s = budget_s / kSlices;
  LoopResult all;
  for (int i = 0; i < kSlices; ++i) {
    if (i % every == 0 && i / every < cycles) {
      const Clock::time_point t0 = Clock::now();
      setup();
      const double setup_ms = ms_since(t0);
      double products_ms = 0;
      for (int r = 0; r < 4; ++r) products_ms += round(r > 0);
      setup_s->add(setup_ms * 1e-3);
      r2p_s->add((setup_ms + products_ms) * 1e-3);
    }
    const double end_s = slice_s * (i + 1);
    const double rounds_until = 0.5 * (ms_since(start) * 1e-3 + end_s);
    const std::size_t want = kMinRounds * static_cast<std::size_t>(i + 1) / kSlices;
    while (rounds.n() < want && ms_since(start) * 1e-3 < rounds_until) round(true);
    all.merge(loop(std::max(end_s - ms_since(start) * 1e-3, 0.25 * slice_s),
                   static_cast<std::uint64_t>(i)));
  }
  return all;
}

/// Request ids of the traced spans, unique over the run.
std::atomic<std::uint64_t> next_request{1};

/// Run `clients` closed-loop clients for `seconds`, drawing from request
/// stream `seed`. `request(rng, &matrix, &payload)` sends one request, names
/// what it sent and returns the product (or throws); `check(matrix, payload,
/// c)` runs after the latency sample is taken.
template <typename Request, typename Check>
LoopResult closed_loop(int clients, double seconds, std::uint64_t seed,
                       Ledger& ledger, Request&& request, Check&& check) {
  std::vector<LoopResult> per(static_cast<std::size_t>(clients));
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int cl = 0; cl < clients; ++cl) {
    threads.emplace_back([&, cl] {
      // Clients × their OpenMP width <= nproc, like the engine's workers:
      // an inline prepare on a registry miss runs at this width.
      set_num_threads(std::max(1, hardware_threads() / clients));
      Rng rng(derive_seed(seed, 1000 + static_cast<std::uint64_t>(cl)));
      LoopResult& mine = per[static_cast<std::size_t>(cl)];
      while (Clock::now() < end) {
        ledger.attempt();
        std::size_t matrix = 0;
        int payload = 0;
        Csr c;
        const Clock::time_point t0 = Clock::now();
        try {
          auto s = tracer().span("serve.request", nullptr, next_request.fetch_add(1));
          c = request(rng, &matrix, &payload);
        } catch (...) {
          ledger.error(std::current_exception());
          continue;
        }
        const double ms = ms_since(t0);
        mine.latency_ms.add(ms);
        mine.by_matrix.emplace_back(matrix, ms);
        check(matrix, payload, c);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult all;
  for (const LoopResult& r : per) all.merge(r);
  all.seconds = ms_since(start) * 1e-3;
  return all;
}

void report_loop(Report& r, const LoopResult& loop) {
  r.add("request_ms_p50", loop.latency_ms.median(), "ms", loop.latency_ms.n());
  r.add("request_ms_p95", loop.latency_ms.p95(), "ms", loop.latency_ms.n());
  r.add("request_ms_p95.samples_beyond",
        static_cast<double>(loop.latency_ms.beyond_p95()), "count");
  r.add("throughput_rps", static_cast<double>(loop.latency_ms.n()) / loop.seconds,
        "req/s", loop.latency_ms.n());
}

void report_rounds(Report& r, const Samples& setup_s, const Samples& r2p_s,
                   const Samples& round_ms) {
  r.add_median("setup_s", setup_s, "s");
  r.add_median("raw_to_products_s", r2p_s, "s");
  r.add("round_ms_p50", round_ms.median(), "ms", round_ms.n());
  r.add("round_ms_p95", round_ms.p95(), "ms", round_ms.n());
  r.add("round_ms_p95.samples_beyond", static_cast<double>(round_ms.beyond_p95()), "count");
}

/// Engine counters as the per-layer ratios, over the closed loop.
void report_engine(Report& r, const ServeCounters& c, int workers, double seconds) {
  r.add("serve.completed", c.completed, "count");
  r.add("serve.batches", c.batches, "count");
  r.add("serve.batch_mean", c.batches > 0 ? c.completed / c.batches : 0, "req/batch");
  r.add("serve.stacked_frac", c.completed > 0 ? c.stacked / c.completed : 0, "fraction");
  r.add("serve.window_timeout_frac", c.windows > 0 ? c.timeouts / c.windows : 0,
        "fraction");
  r.add("serve.busy_frac", c.busy_s / (seconds * workers), "fraction");
  for (std::size_t i = 1; i < fault::kNumErrorCodes; ++i)
    r.add(std::string("fault.errors.") +
              fault::code_label(static_cast<fault::ErrorCode>(i)),
          static_cast<double>(c.errors[i]), "count");
}

// --- serve-frontier ----------------------------------------------------------

struct Frontier {
  std::vector<Input> corpus;
  std::vector<double> cumulative;  // skewed popularity, by corpus index
  std::size_t hot = 0;             // the registry holds corpus[0, hot)
  std::vector<std::vector<CsrPtr>> payloads;  // [matrix][payload]
  // Digests of the unbatched multiply + unpermute, each checked against a
  // row-wise spgemm when it was made.
  std::vector<std::vector<std::uint64_t>> expected;
  std::size_t capacity_bytes = 0;
};

Frontier make_frontier(const Args& args, Ledger& ledger) {
  const std::uint64_t s = args.seed;
  Frontier f;
  auto add = [&](const char* role, Csr a) {
    f.corpus.push_back(make_input(role, std::move(a), derive_seed(s, 200 + f.corpus.size())));
  };
  // Ordered by popularity. The advisor keeps some row-wise, clusters others.
  // Structures are fixed so that runs on different seeds compare; the seed
  // draws the values, the payloads and the request sequence.
  const index_t k = args.smoke ? 1 : 2;  // size step
  add("lattice", block_expand(gen_lattice4d(3 * k, 3 * k, 3 * k, 3 * k), 3, 102));
  add("mesh", gen_grid3d(8 * k, 8 * k, 8 * k, 27));
  add("powerlaw", gen_rmat(args.smoke ? 10 : 13, 2, 0.45, 0.22, 0.22, 105));
  add("trimesh", gen_tri_mesh(50 * k, 50 * k, true, 106));
  add("banded", gen_banded(4000 * k, 32, 0.15, 101));
  add("road", gen_road_network(10000 * k, 3, 113));
  add("grid2d", gen_grid2d(60 * k, 60 * k, 9));
  add("blockdiag", gen_block_diag(3000 * k, 12, 2.0, 127));
  double acc = 0;
  for (std::size_t i = 0; i < f.corpus.size(); ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), 1.2);
    f.cumulative.push_back(acc);
  }
  for (double& c : f.cumulative) c /= acc;
  f.hot = f.corpus.size() - 2;

  for (std::size_t m = 0; m < f.corpus.size(); ++m) {
    const Csr& a = f.corpus[m].a;
    const Pipeline p(a, advise(a).pipeline_options());
    f.payloads.emplace_back();
    f.expected.emplace_back();
    for (int q = 0; q < kPayloads; ++q) {
      auto b = std::make_shared<const Csr>(gen_request_payload(
          a.ncols(), kPayloadCols, kPayloadRowNnz,
          derive_seed(s, 300 + 16 * m + static_cast<std::uint64_t>(q))));
      Csr c = p.unpermute_rows(p.multiply(*b));
      ledger.expect_close(c, spgemm(a, *b), f.corpus[m].tag);
      f.payloads[m].push_back(std::move(b));
      f.expected[m].push_back(digest(c));
    }
    if (m < f.hot) f.capacity_bytes += serve::pipeline_memory_bytes(p);
  }
  f.capacity_bytes += f.capacity_bytes / 20;
  return f;
}

struct FrontierPhase {
  Samples setup_s, r2p_s, round_ms;
  std::vector<MatrixSamples> per_matrix;  // the hot set's direct multiplies
  LoopResult loop;
  ServeCounters counters;
  std::vector<std::shared_ptr<const Pipeline>> hot;  // the last set-up's
};

serve::EngineOptions frontier_engine_options(const Frontier& f) {
  serve::EngineOptions o;
  // Engine workers × OpenMP threads per worker <= nproc.
  o.num_workers = std::max(1, hardware_threads() / 2);
  o.omp_threads_per_worker = std::max(1, hardware_threads() / o.num_workers);
  o.max_batch = 16;
  o.batch_window = std::chrono::microseconds(200);
  o.registry.capacity_bytes = f.capacity_bytes;
  return o;
}

/// `cycles` set-ups, direct rounds and the closed loop, interleaved by
/// run_slices. With `baseline`, each sampled direct product is followed by
/// the row-wise baseline on the same operands.
FrontierPhase run_frontier_phase(const Args& args, const Frontier& f, int cycles,
                                 double budget_s, bool baseline, Report* layers,
                                 Ledger& ledger) {
  FrontierPhase ph;
  const std::size_t hot = f.hot;
  ph.per_matrix.resize(hot);
  std::unique_ptr<serve::ServeEngine> engine;
  const serve::EngineOptions eopt = frontier_engine_options(f);
  // A direct round: each hot matrix times its first payload, one after
  // another at the OpenMP width one engine worker gets, so that
  // serve.overhead_ms compares like with like.
  auto round = [&](bool sample) {
    const int width = num_threads();
    set_num_threads(eopt.omp_threads_per_worker);
    double total = 0;
    for (std::size_t m = 0; m < hot; ++m) {
      const Input& in = f.corpus[m];
      const Csr& b = *f.payloads[m][0];
      ledger.attempt();
      try {
        const Clock::time_point t0 = Clock::now();
        const Csr c = sampled_multiply(*ph.hot[m], b, in.tag, sample, &ph.per_matrix[m]);
        total += ms_since(t0);
        ledger.expect_digest(c, f.expected[m][0], in.tag);
        if (sample && baseline) sample_rowwise(in.a, b, in.tag, &ph.per_matrix[m]);
      } catch (...) {
        ledger.error(std::current_exception());
      }
    }
    set_num_threads(width);
    if (sample) ph.round_ms.add(total);
    return total;
  };
  // Set-up: engine start, then advise → prepare → admit for the hot set.
  // A traced run records its layers here; its set-up time is not reported.
  auto setup = [&] {
    ph.hot.clear();
    engine.reset();
    engine = std::make_unique<serve::ServeEngine>(eopt);
    for (std::size_t m = 0; m < hot; ++m) {
      const Input& in = f.corpus[m];
      serve::Fingerprint fp;
      {
        auto s = tracer().span("serve.fingerprint", in.tag);
        fp = serve::fingerprint(in.a);
      }
      auto s = tracer().span("serve.get_or_build", in.tag);
      ph.hot.push_back(engine->registry()->get_or_build(
          fp, [&in] { return prepare_advised(in.a, in.tag); }));
    }
    if (layers != nullptr) report_setup_layers(*layers, ph.hot);
  };
  // One request: skewed draw, fingerprint, registry resolve (a miss
  // prepares inline), submit, wait.
  auto request = [&](Rng& rng, std::size_t* matrix, int* payload) {
    const double u = rng.uniform();
    const auto pick = std::lower_bound(f.cumulative.begin(), f.cumulative.end(), u);
    *matrix = std::min(static_cast<std::size_t>(pick - f.cumulative.begin()),
                       f.corpus.size() - 1);
    *payload = static_cast<int>(rng.index(kPayloads));
    const Input& in = f.corpus[*matrix];
    serve::Fingerprint fp;
    {
      auto s = tracer().span("serve.fingerprint", in.tag);
      fp = serve::fingerprint(in.a);
    }
    std::shared_ptr<const Pipeline> p;
    {
      auto s = tracer().span("serve.get_or_build", in.tag);
      p = engine->registry()->get_or_build(
          fp, [&in] { return prepare_advised(in.a, in.tag); });
    }
    std::future<Csr> fut;
    {
      auto s = tracer().span("serve.submit", in.tag);
      fut = engine->submit(std::move(p),
                           f.payloads[*matrix][static_cast<std::size_t>(*payload)]);
    }
    auto s = tracer().span("serve.wait", in.tag);
    return fut.get();
  };
  auto check = [&](std::size_t m, int q, const Csr& c) {
    ledger.expect_digest(c, f.expected[m][static_cast<std::size_t>(q)], f.corpus[m].tag);
  };
  auto loop = [&](double loop_s, std::uint64_t slice) {
    const serve::EngineStats before = engine->stats();
    LoopResult res = closed_loop(client_count(), loop_s, derive_seed(args.seed, 900 + slice),
                                 ledger, request, check);
    const serve::EngineStats after = engine->stats();
    ph.counters.add(before, after);
    ph.counters.add_errors(before.errors, after.errors);
    return res;
  };
  ph.loop = run_slices(budget_s, cycles, ph.round_ms, &ph.setup_s, &ph.r2p_s, setup, round,
                       loop);
  engine->shutdown();
  return ph;
}

// Stack/split replay: the batch shapes the engine formed, replayed directly.
void report_stack_split(Report& r, const Frontier& f, const FrontierPhase& ph,
                        double batch_mean, Ledger& ledger) {
  const std::size_t k = std::max<std::size_t>(
      2, std::min<std::size_t>(kPayloads, static_cast<std::size_t>(std::lround(batch_mean))));
  for (std::size_t m = 0; m < f.hot; ++m) {
    std::vector<const Csr*> bs;
    for (std::size_t q = 0; q < k; ++q) bs.push_back(f.payloads[m][q].get());
    for (int rep = 0; rep < 5; ++rep) {
      ColumnStack stack;
      {
        auto s = tracer().span("spgemm.stack_columns", f.corpus[m].tag);
        stack = stack_columns(bs);
      }
      const Csr product = ph.hot[m]->multiply(stack.panel);
      std::vector<Csr> parts;
      {
        auto s = tracer().span("spgemm.split_columns", f.corpus[m].tag);
        parts = split_columns(product, stack.offsets);
      }
      if (rep == 0) {
        for (std::size_t q = 0; q < k; ++q)
          ledger.expect_digest(ph.hot[m]->unpermute_rows(parts[q]), f.expected[m][q],
                               "stacked slice");
      }
    }
  }
  const std::vector<double> st = tracer().durations_ms("spgemm.stack_columns");
  const std::vector<double> sp = tracer().durations_ms("spgemm.split_columns");
  r.add("spgemm.stack_ms", median_of(st), "ms", st.size());
  r.add("spgemm.split_ms", median_of(sp), "ms", sp.size());
  r.add("spgemm.replay_batch", static_cast<double>(k), "count");
}

}  // namespace

void run_serve_frontier(const Args& args, Report& r, Ledger& ledger) {
  const Frontier f = make_frontier(args, ledger);
  r.env("peak_rss_reset", reset_peak_rss() ? "after the references" : "no");
  const serve::EngineOptions eopt = frontier_engine_options(f);
  r.env("clients", client_count());
  r.env("engine_workers", eopt.num_workers);
  r.env("omp_threads_per_worker", eopt.omp_threads_per_worker);
  r.env("batch_window_us", static_cast<double>(eopt.batch_window.count()));
  r.env("max_batch", static_cast<double>(eopt.max_batch));
  r.env("payload_cols", static_cast<double>(kPayloadCols));
  r.env("payload_row_nnz", static_cast<double>(kPayloadRowNnz));
  r.env("registry_capacity_bytes", static_cast<double>(f.capacity_bytes));
  r.env("corpus", static_cast<double>(f.corpus.size()));
  r.env("hot_set", static_cast<double>(f.hot));
  for (std::size_t m = 0; m < f.corpus.size(); ++m) {
    const Input& in = f.corpus[m];
    record_b_bytes(r, in.role, f.payloads[m][0]->memory_bytes());
    record_plan(r, in.role, advise(in.a));
  }
  const double secs = args.seconds;
  if (!args.trace) {
    const FrontierPhase ph = run_frontier_phase(args, f, kSlices, secs, false, nullptr, ledger);
    report_rounds(r, ph.setup_s, ph.r2p_s, ph.round_ms);
    report_loop(r, ph.loop);
    const ServeCounters& c = ph.counters;
    r.add("serve.registry_hit_rate",
          c.hits + c.misses > 0 ? c.hits / (c.hits + c.misses) : 0, "fraction");
    return;
  }
  double untraced_p50 = 0;
  {
    const FrontierPhase a = run_frontier_phase(args, f, 1, secs / 2, true, nullptr, ledger);
    untraced_p50 = a.loop.latency_ms.median();
  }
  tracer().enable(true);
  const FrontierPhase b = run_frontier_phase(args, f, 1, secs / 2, true, &r, ledger);
  const double traced_p50 = b.loop.latency_ms.median();
  r.add("obs.trace_overhead_pct",
        untraced_p50 > 0 ? (traced_p50 / untraced_p50 - 1) * 100 : 0, "%");

  // Serving layers, from the closed loop's spans and the engine counters.
  const auto us = [](std::vector<double> v) { return median_of(std::move(v)) * 1e3; };
  const std::vector<double> fps = tracer().durations_ms("serve.fingerprint");
  const std::vector<double> hits = tracer().leaf_durations_ms("serve.get_or_build");
  const std::vector<double> subs = tracer().durations_ms("serve.submit");
  r.add("serve.fingerprint_us", us(fps), "us", fps.size());
  r.add("serve.lookup_us", us(hits), "us", hits.size());
  r.add("serve.submit_us", us(subs), "us", subs.size());
  const ServeCounters& c = b.counters;
  r.add("serve.registry_hit_rate",
        c.hits + c.misses > 0 ? c.hits / (c.hits + c.misses) : 0, "fraction");
  r.add("serve.registry_hits", c.hits, "count");
  r.add("serve.registry_misses", c.misses, "count");
  r.add("serve.evictions", c.evictions, "count");
  report_engine(r, c, eopt.num_workers, b.loop.seconds);

  // serve.overhead_ms: each request's latency minus the direct multiply +
  // unpermute of its matrix; the median over requests.
  std::vector<double> direct(f.corpus.size(), 0);
  for (std::size_t i = 0; i < f.hot; ++i) direct[i] = b.per_matrix[i].product_ms.median();
  std::vector<double> overhead;
  for (const auto& [mi, ms] : b.loop.by_matrix)
    if (mi < f.hot) overhead.push_back(ms - direct[mi]);
  r.add("serve.overhead_ms", median_of(overhead), "ms", overhead.size());
  report_loop(r, b.loop);

  KernelLayers d;
  for (std::size_t i = 0; i < f.hot; ++i)
    report_matrix_layers(r, f.corpus[i], *b.hot[i], *f.payloads[i][0], b.per_matrix[i], &d);
  report_layer_totals(r, d, b.round_ms.n());
  report_stack_split(r, f, b, r.value("serve.batch_mean"), ledger);
}

// --- serve-sharded -----------------------------------------------------------

namespace {

struct Sharded {
  Input input;
  std::vector<CsrPtr> payloads;
  // Digests of the sequential scatter/gather reference, each checked
  // against a row-wise spgemm when it was made.
  std::vector<std::uint64_t> expected;
  shard::PlanOptions plan;
  PipelineOptions opt;
  std::vector<const char*> shard_tags;
};

/// The sharded pipeline as the library builds it: RowBlockPlan::build,
/// extract_block and a rows-only Pipeline per shard, under one span.
shard::ShardedPipeline build_sharded(const Sharded& w) {
  auto s = tracer().span("shard.build");
  return shard::ShardedPipeline(w.input.a, w.plan, w.opt);
}

struct ShardedPhase {
  Samples setup_s, r2p_s, round_ms;
  std::vector<MatrixSamples> per_shard;  // traced direct rounds only
  MatrixSamples whole;  // the unsharded row-wise baseline
  LoopResult loop;
  ServeCounters counters;
  std::shared_ptr<const shard::ShardedPipeline> loaded;
};

shard::ShardedEngineOptions sharded_engine_options(std::size_t capacity) {
  shard::ShardedEngineOptions o;
  o.num_workers = std::max(1, hardware_threads());
  o.omp_threads_per_worker = 1;  // workers × threads per worker = nproc
  o.gather_workers = 2;
  o.max_batch = 8;
  // No batch window: a request's K sub-requests each target a different
  // shard pipeline, so a window would only park a worker on the chance that
  // another client's request reaches the same shard, and makes latency hang
  // on arrival alignment. serve-frontier measures the window.
  o.batch_window = std::chrono::microseconds(0);
  // Budget for every shard with room to spare, prefaulted on admission:
  // paging stays off the measured path.
  o.registry.capacity_bytes = capacity;
  o.registry.prefault_on_admit = true;
  return o;
}

/// Same shape as run_frontier_phase; the baseline is the unsharded row-wise
/// multiply.
ShardedPhase run_sharded_phase(const Args& args, const Sharded& w, int cycles,
                               double budget_s, bool baseline, Report* layers,
                               Ledger& ledger) {
  ShardedPhase ph;
  const std::string path = args.out_dir + "/sharded-" + std::to_string(::getpid()) + ".cwsnap";
  std::unique_ptr<shard::ShardedEngine> engine;
  const index_t k = w.plan.num_shards;
  ph.per_shard.resize(static_cast<std::size_t>(k));

  // A direct round: the scatter/gather of ShardedPipeline::multiply, one
  // shard after another at the OpenMP width one shard worker gets.
  auto round = [&](bool sample) {
    ledger.attempt();
    const Csr& b = *w.payloads[0];
    const int width = num_threads();
    set_num_threads(sharded_engine_options(0).omp_threads_per_worker);
    double total = 0;
    try {
      const shard::ShardedPipeline& sp = *ph.loaded;
      const Clock::time_point t0 = Clock::now();
      std::vector<Csr> parts;
      for (index_t s = 0; s < k; ++s) {
        const std::size_t si = static_cast<std::size_t>(s);
        parts.push_back(sampled_multiply(*sp.shard(s), b, w.shard_tags[si], sample,
                                         &ph.per_shard[si]));
      }
      Csr c;
      {
        auto s = tracer().span("shard.gather");
        c = sp.gather(parts);
      }
      total = ms_since(t0);
      if (sample) ph.round_ms.add(total);
      ledger.expect_digest(c, w.expected[0], "sharded direct round");
      if (sample && baseline) sample_rowwise(w.input.a, b, w.input.tag, &ph.whole);
    } catch (...) {
      ledger.error(std::current_exception());
    }
    set_num_threads(width);
    return total;
  };

  // Set-up: plan + prepare shards, v3 snapshot save, mmap load, engine
  // start and registry admission. A traced run records its layers here; its
  // set-up time is not reported.
  auto setup = [&] {
    engine.reset();
    ph.loaded.reset();
    std::filesystem::remove(path);
    std::size_t capacity = 0;
    {
      const shard::ShardedPipeline built = build_sharded(w);
      capacity = 2 * built.memory_bytes();
      auto s = tracer().span("serve.snapshot_save");
      shard::save_sharded_pipeline_file(path, built);
    }
    {
      auto s = tracer().span("serve.snapshot_load");
      ph.loaded = std::make_shared<const shard::ShardedPipeline>(
          shard::load_sharded_pipeline_file(path));
    }
    engine = std::make_unique<shard::ShardedEngine>(sharded_engine_options(capacity));
    {
      auto s = tracer().span("serve.admit");
      engine->admit(*ph.loaded);
    }
    if (layers != nullptr) {
      std::vector<std::shared_ptr<const Pipeline>> shards;
      for (index_t s = 0; s < k; ++s) shards.push_back(ph.loaded->shard(s));
      report_setup_layers(*layers, shards);
    }
  };
  auto request = [&](Rng& rng, std::size_t* matrix, int* payload) {
    *matrix = 0;
    *payload = static_cast<int>(rng.index(static_cast<index_t>(w.payloads.size())));
    std::future<Csr> fut;
    {
      auto s = tracer().span("shard.submit");
      fut = engine->submit(ph.loaded, *w.payloads[static_cast<std::size_t>(*payload)]);
    }
    auto s = tracer().span("serve.wait");
    return fut.get();
  };
  auto check = [&](std::size_t, int q, const Csr& c) {
    ledger.expect_digest(c, w.expected[static_cast<std::size_t>(q)], "sharded product");
  };
  auto loop = [&](double loop_s, std::uint64_t slice) {
    const shard::ShardedEngineStats before = engine->stats();
    const serve::EngineStats shard_before = engine->shard_engine_stats();
    LoopResult res = closed_loop(client_count(), loop_s, derive_seed(args.seed, 900 + slice),
                                 ledger, request, check);
    ph.counters.add(before, engine->stats());
    ph.counters.add(shard_before, engine->shard_engine_stats());
    return res;
  };
  ph.loop = run_slices(budget_s, cycles, ph.round_ms, &ph.setup_s, &ph.r2p_s, setup, round,
                       loop);
  engine->shutdown();
  engine.reset();
  std::filesystem::remove(path);
  return ph;
}

}  // namespace

void run_serve_sharded(const Args& args, Report& r, Ledger& ledger) {
  const std::uint64_t s = args.seed;
  Sharded w;
  w.input = make_input("mesh",
                       args.smoke ? gen_grid3d(8, 8, 8, 27) : gen_grid3d(28, 28, 28, 27),
                       derive_seed(s, 41));
  w.plan.num_shards = 4;
  w.plan.strategy = shard::SplitStrategy::kBalanced;
  w.opt.reorder = ReorderAlgo::kOriginal;  // shards are rows-only pipelines
  w.opt.scheme = ClusterScheme::kHierarchical;
  for (index_t k = 0; k < w.plan.num_shards; ++k)
    w.shard_tags.push_back(intern("shard" + std::to_string(k)));
  {
    const shard::ShardedPipeline reference(w.input.a, w.plan, w.opt);
    for (int q = 0; q < 2 * kPayloads; ++q) {
      auto b = std::make_shared<const Csr>(gen_request_payload(
          w.input.a.ncols(), kPayloadCols, kPayloadRowNnz,
          derive_seed(s, 500 + static_cast<std::uint64_t>(q))));
      Csr c = reference.multiply(*b);
      ledger.expect_close(c, spgemm(w.input.a, *b), "sharded reference");
      w.payloads.push_back(std::move(b));
      w.expected.push_back(digest(c));
    }
  }
  r.env("peak_rss_reset", reset_peak_rss() ? "after the references" : "no");
  r.env("clients", client_count());
  r.env("shards", w.plan.num_shards);
  r.env("max_batch", static_cast<double>(sharded_engine_options(0).max_batch));
  r.env("payload_cols", static_cast<double>(kPayloadCols));
  r.env("payload_row_nnz", static_cast<double>(kPayloadRowNnz));
  r.env("plan", "rows-only hierarchical, balanced split");
  record_b_bytes(r, "payload", w.payloads[0]->memory_bytes());
  r.env("a_bytes.mesh", static_cast<double>(w.input.a.memory_bytes()));
  const double secs = args.seconds;
  if (!args.trace) {
    const ShardedPhase ph = run_sharded_phase(args, w, kSlices, secs, false, nullptr, ledger);
    report_rounds(r, ph.setup_s, ph.r2p_s, ph.round_ms);
    report_loop(r, ph.loop);
    r.add("io.cold_multiplies", ph.counters.cold_multiplies, "count");
    return;
  }
  double untraced_p50 = 0;
  {
    const ShardedPhase a = run_sharded_phase(args, w, 1, secs / 2, true, nullptr, ledger);
    untraced_p50 = a.loop.latency_ms.median();
  }
  tracer().enable(true);
  const ShardedPhase b = run_sharded_phase(args, w, 1, secs / 2, true, &r, ledger);
  const double traced_p50 = b.loop.latency_ms.median();
  r.add("obs.trace_overhead_pct",
        untraced_p50 > 0 ? (traced_p50 / untraced_p50 - 1) * 100 : 0, "%");
  report_loop(r, b.loop);

  const auto span_ms = [](const char* name) {
    const std::vector<double> v = tracer().durations_ms(name);
    return v.empty() ? 0.0 : v.front();
  };
  r.add("serve.snapshot_save_ms", span_ms("serve.snapshot_save"), "ms", 1);
  r.add("serve.snapshot_load_ms", span_ms("serve.snapshot_load"), "ms", 1);
  r.add("shard.build_ms", span_ms("shard.build"), "ms", 1);
  // The row-block plan alone, probed after the phase: the constructor does
  // not time its parts apart.
  std::vector<double> plan_ms;
  for (int rep = 0; rep < 3; ++rep) {
    auto sp = tracer().span("shard.plan");
    const Clock::time_point t0 = Clock::now();
    const shard::RowBlockPlan plan = shard::RowBlockPlan::build(w.input.a, w.plan);
    plan_ms.push_back(ms_since(t0));
  }
  r.add("shard.plan_ms", median_of(plan_ms), "ms", plan_ms.size());
  double max_ms = 0, sum_ms = 0;
  for (const MatrixSamples& sm : b.per_shard) {
    max_ms = std::max(max_ms, sm.product_ms.median());
    sum_ms += sm.product_ms.median();
  }
  const double mean_ms =
      b.per_shard.empty() ? 0 : sum_ms / static_cast<double>(b.per_shard.size());
  r.add("shard.multiply_ms_max", max_ms, "ms", b.round_ms.n());
  r.add("shard.imbalance", mean_ms > 0 ? max_ms / mean_ms : 0, "ratio", b.round_ms.n());
  r.add("shard.gather_overhead_ms", b.loop.latency_ms.median() - max_ms, "ms",
        b.loop.latency_ms.n());
  r.add("io.cold_multiplies", b.counters.cold_multiplies, "count");
  r.add("shard.multiplies", b.counters.shard_multiplies, "count");
  report_engine(r, b.counters, sharded_engine_options(0).num_workers, b.loop.seconds);

  KernelLayers d;
  const Csr& b0 = *w.payloads[0];
  for (index_t k = 0; k < w.plan.num_shards; ++k) {
    const std::size_t si = static_cast<std::size_t>(k);
    const Input in{w.shard_tags[si], Csr(), w.shard_tags[si]};
    report_matrix_layers(r, in, *b.loaded->shard(k), b0, b.per_shard[si], &d);
  }
  d.rowwise_ms = b.whole.rowwise_ms.median();
  r.add_median("spgemm.rowwise_ms." + w.input.role, b.whole.rowwise_ms);
  report_layer_totals(r, d, b.round_ms.n());
}

}  // namespace rb
