// Repository benchmark harness: one workload per invocation.
//
//   repobench --workload <square-reuse|prep-amortize|serve-frontier|serve-sharded>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]
//
// Prints one JSON report line: the environment record, every metric with its
// unit, label and sample count, the operation ledger, and (traced runs) the
// per-layer self times and the span nesting check. Exits 1 when any product
// was wrong or any operation failed.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common/parallel.hpp"
#include "harness.hpp"
#include "simd/dispatch.hpp"

namespace {

using namespace rb;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "repobench: %s\nusage: repobench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = value() != "0";
    else if (k == "--out-dir") a.out_dir = value();
    else if (k == "--smoke") a.smoke = true;
    else usage(("unknown argument " + k).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

void record_env(const Args& a, Report& r) {
  r.env("workload", a.workload);
  r.env("seed", static_cast<double>(a.seed));
  r.env("seconds", a.seconds);
  r.env("smoke", a.smoke ? "yes" : "no");
  r.env("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  r.env("omp_threads", cw::num_threads());
  r.env("simd.tier", cw::simd::to_string(cw::simd::active_tier()));
  r.env("l2_bytes", cache_bytes(2));
  r.env("llc_bytes", cache_bytes(3));
}

std::string layers_json(const std::vector<std::pair<std::string, LayerTimes>>& layers) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const auto& [name, lt] = layers[i];
    if (i > 0) os << ", ";
    os << json_string(name) << ": {\"count\": " << lt.count
       << ", \"total_ms\": " << json_number(lt.total_ms)
       << ", \"self_ms\": " << json_number(lt.self_ms) << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Report report;
  Ledger ledger;
  record_env(args, report);
  try {
    if (args.workload == "square-reuse") run_square_reuse(args, report, ledger);
    else if (args.workload == "prep-amortize") run_prep_amortize(args, report, ledger);
    else if (args.workload == "serve-frontier") run_serve_frontier(args, report, ledger);
    else if (args.workload == "serve-sharded") run_serve_sharded(args, report, ledger);
    else usage(("unknown workload " + args.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "repobench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 2;
  }
  const std::uint64_t attempted = ledger.attempted();
  const std::uint64_t failed = ledger.failed();
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  report.add("error_rate",
             attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0,
             "fraction", attempted);
  const bool correct = ledger.mismatches() == 0 && attempted > 0;

  std::ostringstream out;
  out << "{\"workload\": " << json_string(args.workload)
      << ", \"trace\": " << (args.trace ? "true" : "false")
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed;
  if (!ledger.first_problem().empty())
    out << ", \"problem\": " << json_string(ledger.first_problem());
  out << ", \"env\": " << report.env_json();
  if (args.trace) {
    const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    tracer().write_chrome_trace(path);
    SpanCheck check;
    const auto layers = tracer().layer_times(&check);
    out << ", \"span_file\": " << json_string(path)
        << ", \"span_check\": {\"spans\": " << check.spans
        << ", \"unclosed\": " << check.unclosed
        << ", \"outside_parent\": " << check.outside_parent
        << ", \"min_self_ms\": " << json_number(check.min_self_ms) << "}"
        << ", \"layers\": " << layers_json(layers);
  }
  out << ", \"metrics\": " << report.metrics_json() << "}";
  std::cout << out.str() << std::endl;
  return correct && failed == 0 ? 0 : 1;
}
