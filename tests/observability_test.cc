// End-to-end observability checks, run under `ctest -L observability`:
// a small decomposition traced in-process must yield a Chrome-trace JSON
// with nested spans for all three D-Tucker phases and a metrics snapshot
// with FLOP/call counters and per-sweep fit gauges; the dtucker_cli
// subprocess must produce the same artifacts via --trace-out/--metrics-out.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/metrics.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "data/generators.h"
#include "data/tensor_io.h"
#include "dtucker/dtucker.h"
#include "dtucker/engine.h"
#include "json_test_util.h"

namespace dtucker {
namespace {

using json_test::JsonParser;
using json_test::JsonValue;

// The X (complete) events of a parsed Chrome trace, keyed by name.
struct TraceIndex {
  std::set<std::string> names;
  // [start_us, end_us] per name occurrence.
  std::vector<std::pair<std::string, std::pair<double, double>>> intervals;
};

TraceIndex IndexTrace(const JsonValue& root) {
  TraceIndex index;
  const JsonValue& events = root.at("traceEvents");
  for (const JsonValue& ev : events.array) {
    if (!ev.Has("ph") || ev.at("ph").string_value != "X") continue;
    const std::string& name = ev.at("name").string_value;
    const double ts = ev.at("ts").number_value;
    const double dur = ev.at("dur").number_value;
    index.names.insert(name);
    index.intervals.emplace_back(name, std::make_pair(ts, ts + dur));
  }
  return index;
}

Result<TuckerDecomposition> RunSmallDecomposition(TuckerStats* stats) {
  Tensor x = MakeLowRankTensor({14, 12, 10}, {3, 3, 3}, 0.1, 7);
  DTuckerOptions opt;
  opt.tucker.ranks = {3, 3, 3};
  opt.tucker.max_iterations = 4;
  opt.tucker.tolerance = 0.0;  // Run every sweep so telemetry is deterministic.
  return DTucker(x, opt, stats);
}

TEST(ObservabilityTest, TraceShowsNestedSpansForAllThreePhases) {
  SetTraceEnabled(false);
  ClearTrace();
  SetTraceEnabled(true);
  TuckerStats stats;
  Result<TuckerDecomposition> dec = RunSmallDecomposition(&stats);
  SetTraceEnabled(false);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();

  std::ostringstream os;
  ExportChromeTrace(os);
  JsonValue root;
  ASSERT_TRUE(JsonParser::Parse(os.str(), &root));
  ASSERT_TRUE(root.Has("traceEvents"));
  const TraceIndex index = IndexTrace(root);

  // All three D-Tucker phases, the per-sweep spans, and the substrate
  // kernels underneath them.
  for (const char* phase :
       {"dtucker.approximation", "dtucker.initialization",
        "dtucker.iteration", "dtucker.sweep", "dtucker.slice_svd",
        "qr.cholqr2", "rsvd"}) {
    EXPECT_TRUE(index.names.count(phase)) << "missing span: " << phase;
  }

  // One sweep span per recorded sweep, each nested inside the iteration
  // phase's interval.
  std::pair<double, double> iteration{0, 0};
  for (const auto& [name, interval] : index.intervals) {
    if (name == "dtucker.iteration") iteration = interval;
  }
  int sweeps = 0;
  for (const auto& [name, interval] : index.intervals) {
    if (name != "dtucker.sweep") continue;
    ++sweeps;
    EXPECT_GE(interval.first, iteration.first);
    EXPECT_LE(interval.second, iteration.second + 1e-3);
  }
  EXPECT_EQ(sweeps, stats.iterations);
  ClearTrace();
}

TEST(ObservabilityTest, MetricsSnapshotReportsFlopsAndPerSweepFit) {
  TuckerStats stats;
  Result<TuckerDecomposition> dec = RunSmallDecomposition(&stats);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  RecordSweepMetrics(stats);
  ASSERT_FALSE(stats.sweep_history.empty());

  JsonValue root;
  ASSERT_TRUE(
      JsonParser::Parse(MetricsRegistry::Global().SnapshotJson(), &root));
  const JsonValue& counters = root.at("counters");
  EXPECT_GE(counters.at("gemm.calls").number_value, 1.0);
  EXPECT_GE(counters.at("gemm.flops").number_value, 1.0);
  EXPECT_GE(counters.at("qr.calls").number_value, 1.0);
  EXPECT_GE(counters.at("rsvd.calls").number_value, 1.0);

  const JsonValue& gauges = root.at("gauges");
  EXPECT_TRUE(gauges.Has("dtucker.sweep01.fit"));
  EXPECT_TRUE(gauges.Has("dtucker.sweep01.delta_fit"));
  EXPECT_TRUE(gauges.Has("dtucker.sweep01.subspace_iterations"));
  EXPECT_NEAR(gauges.at("dtucker.sweep01.fit").number_value,
              stats.sweep_history[0].fit, 1e-12);
  EXPECT_GT(gauges.at("process.peak_rss_bytes").number_value, 0.0);

  EXPECT_TRUE(root.at("phases").Has("dtucker.iteration"));
  EXPECT_GT(root.at("process").at("peak_rss_bytes").number_value, 0.0);
}

// Schema checks for a multi-rank Chrome trace: one pid lane per rank, the
// run's outermost span and drop count, and every flow hop bound to an
// existing span on its own (pid, tid) lane.
void CheckMultiRankTraceDocument(const JsonValue& root, int world_size) {
  ASSERT_TRUE(root.Has("traceEvents"));
  EXPECT_TRUE(root.at("otherData").Has("dropped_events"));
  EXPECT_TRUE(IndexTrace(root).names.count("method.run"))
      << "the solve's enclosing span must be in the trace";
  std::set<int> lane_pids;
  std::map<std::pair<int, int>, std::vector<std::pair<double, double>>> spans;
  struct Flow {
    int pid;
    int tid;
    double ts;
  };
  std::vector<Flow> flows;
  std::set<std::string> flow_phases;
  for (const JsonValue& ev : root.at("traceEvents").array) {
    const std::string& ph = ev.at("ph").string_value;
    if (ph == "M") {
      if (ev.at("name").string_value == "process_name") {
        lane_pids.insert(static_cast<int>(ev.at("pid").number_value));
      }
      continue;
    }
    const int pid = static_cast<int>(ev.at("pid").number_value);
    const int tid = static_cast<int>(ev.at("tid").number_value);
    const double ts = ev.at("ts").number_value;
    if (ph == "X") {
      spans[{pid, tid}].emplace_back(ts, ts + ev.at("dur").number_value);
    } else if (ph == "s" || ph == "t" || ph == "f") {
      EXPECT_TRUE(ev.Has("id"));
      flows.push_back(Flow{pid, tid, ts});
      flow_phases.insert(ph);
    }
  }
  for (int r = 0; r < world_size; ++r) {
    EXPECT_TRUE(lane_pids.count(r)) << "missing pid lane for rank " << r;
  }
  ASSERT_FALSE(flows.empty()) << "collectives must emit flow events";
  // Start on rank 0, finish on the last rank; middles only when size > 2.
  EXPECT_TRUE(flow_phases.count("s"));
  EXPECT_TRUE(flow_phases.count("f"));
  if (world_size > 2) {
    EXPECT_TRUE(flow_phases.count("t"));
  }
  for (const Flow& f : flows) {
    bool bound = false;
    const auto it = spans.find({f.pid, f.tid});
    if (it != spans.end()) {
      for (const auto& [start, end] : it->second) {
        bound = bound || (f.ts >= start - 1e-3 && f.ts <= end + 1e-3);
      }
    }
    EXPECT_TRUE(bound) << "flow hop at ts=" << f.ts << " on pid " << f.pid
                       << " tid " << f.tid
                       << " references no span on that lane";
  }
}

// Schema checks for a multi-rank metrics snapshot: one process-wide
// section (no per-rank copies), the run's sweep gauges and method phase,
// and per-op comm-wait histograms with monotone quantiles.
void CheckMultiRankMetricsDocument(const JsonValue& root) {
  for (const char* section :
       {"counters", "gauges", "histograms", "phases", "process"}) {
    EXPECT_TRUE(root.Has(section)) << "missing section " << section;
  }
  for (const char* per_rank : {"world_size", "ranks", "rollup"}) {
    EXPECT_FALSE(root.Has(per_rank))
        << "metrics must be reported once, not per rank: " << per_rank;
  }
  EXPECT_GE(root.at("counters").at("gemm.flops").number_value, 1.0);
  EXPECT_TRUE(root.at("gauges").Has("dtucker.sweep01.fit"));
  EXPECT_TRUE(root.at("phases").Has("method.D-Tucker"));
  int comm_wait_ops = 0;
  for (const auto& [name, h] : root.at("histograms").object) {
    const double p50 = h.at("p50").number_value;
    const double p90 = h.at("p90").number_value;
    const double p99 = h.at("p99").number_value;
    const double max = h.at("max").number_value;
    EXPECT_LE(p50, p90) << name;
    EXPECT_LE(p90, p99) << name;
    EXPECT_LE(p99, max) << name;
    if (name.rfind("comm.wait_ns.", 0) == 0 && h.at("count").number_value > 0)
      ++comm_wait_ops;
  }
  EXPECT_GE(comm_wait_ops, 2) << "per-op comm-wait quantiles";
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

// No "<path>.rank<r>" side files next to a multi-rank run's outputs.
void ExpectNoPerRankFiles(const std::string& path, int world_size) {
  for (int r = 0; r < world_size; ++r) {
    EXPECT_FALSE(FileExists(path + ".rank" + std::to_string(r)))
        << "per-rank file for rank " << r << " next to " << path;
  }
}

TEST(ObservabilityTelemetryTest, FourRankEngineRunFlushesCompleteDocuments) {
  // The plain --trace-out/--metrics-out flush after a 4-rank Engine solve:
  // the rank threads' lanes, flows and the solve's own spans land in one
  // trace, and the process-wide registry holds the whole run.
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "obs_engine4_trace.json";
  const std::string metrics_path = dir + "obs_engine4_metrics.json";
  FlagParser flags;
  AddTelemetryFlags(&flags);
  std::string trace_arg = "--trace-out=" + trace_path;
  std::string metrics_arg = "--metrics-out=" + metrics_path;
  char prog[] = "observability_test";
  char* argv[] = {prog, trace_arg.data(), metrics_arg.data()};
  ASSERT_TRUE(flags.Parse(3, argv).ok());

  SetTraceEnabled(false);
  ClearTrace();
  SetTraceRunId(4242);
  InitTelemetryFromFlags(flags);
  Tensor x = MakeLowRankTensor({14, 12, 12}, {3, 3, 3}, 0.1, 7);
  EngineOptions eopt;
  eopt.method_options.tucker.ranks = {3, 3, 3};
  eopt.method_options.tucker.max_iterations = 3;
  eopt.method_options.tucker.tolerance = 0.0;
  eopt.num_ranks = 4;
  Engine engine(std::move(eopt));
  Result<EngineRun> run = engine.Solve(x);
  const Status flushed = FlushTelemetryFromFlags(flags);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(flushed.ok()) << flushed.ToString();
  EXPECT_FALSE(TraceEnabled());

  JsonValue trace;
  const std::string trace_text = ReadFileOrDie(trace_path);
  ASSERT_TRUE(JsonParser::Parse(trace_text, &trace))
      << trace_text.substr(0, 2000);
  EXPECT_EQ(trace.at("otherData").at("run_id").string_value, "4242");
  CheckMultiRankTraceDocument(trace, 4);

  JsonValue metrics;
  ASSERT_TRUE(JsonParser::Parse(ReadFileOrDie(metrics_path), &metrics));
  CheckMultiRankMetricsDocument(metrics);
  ExpectNoPerRankFiles(trace_path, 4);
  ExpectNoPerRankFiles(metrics_path, 4);

  SetTraceRunId(0);
  ClearTrace();
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

#ifdef DTUCKER_CLI_PATH

TEST(ObservabilityCliTest, TraceOutAndMetricsOutWriteValidJson) {
  const std::string dir = ::testing::TempDir();
  const std::string tensor_path = dir + "obs_cli_tensor.dtnsr";
  const std::string trace_path = dir + "obs_cli_trace.json";
  const std::string metrics_path = dir + "obs_cli_metrics.json";

  Tensor x = MakeLowRankTensor({14, 12, 10}, {3, 3, 3}, 0.1, 7);
  ASSERT_TRUE(SaveTensor(x, tensor_path).ok());

  const std::string cmd = std::string(DTUCKER_CLI_PATH) +
                          " --op=decompose --tensor=" + tensor_path +
                          " --method=D-Tucker --rank=3 --iters=4" +
                          " --trace-out=" + trace_path +
                          " --metrics-out=" + metrics_path +
                          " > /dev/null";
  const int rc = std::system(cmd.c_str());
  ASSERT_EQ(rc, 0) << "command failed: " << cmd;

  // The trace file is a Perfetto-loadable Chrome trace with spans for all
  // three phases recorded by the subprocess.
  JsonValue trace;
  ASSERT_TRUE(JsonParser::Parse(ReadFileOrDie(trace_path), &trace));
  ASSERT_TRUE(trace.Has("traceEvents"));
  const TraceIndex index = IndexTrace(trace);
  for (const char* phase :
       {"method.run", "dtucker.approximation", "dtucker.initialization",
        "dtucker.iteration", "dtucker.sweep"}) {
    EXPECT_TRUE(index.names.count(phase)) << "missing span: " << phase;
  }

  // The metrics file has all four sections with the headline entries.
  JsonValue metrics;
  ASSERT_TRUE(JsonParser::Parse(ReadFileOrDie(metrics_path), &metrics));
  for (const char* section : {"counters", "gauges", "phases", "process"}) {
    EXPECT_TRUE(metrics.Has(section)) << "missing section: " << section;
  }
  EXPECT_GE(metrics.at("counters").at("gemm.flops").number_value, 1.0);
  EXPECT_TRUE(metrics.at("gauges").Has("dtucker.sweep01.fit"));
  EXPECT_TRUE(metrics.at("phases").Has("method.D-Tucker"));
  EXPECT_GT(metrics.at("process").at("peak_rss_bytes").number_value, 0.0);

  std::remove(tensor_path.c_str());
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

// Runs the CLI's decompose on a 14x12x12 tensor with --ranks=`ranks`,
// writing its trace and metrics next to `tag`-named files; returns the
// paths (trace, metrics).
std::pair<std::string, std::string> RunCliDecompose(const std::string& tag,
                                                    int ranks) {
  const std::string dir = ::testing::TempDir();
  const std::string tensor_path = dir + "obs_cli_" + tag + ".dtnsr";
  const std::string trace_path = dir + "obs_cli_" + tag + "_trace.json";
  const std::string metrics_path = dir + "obs_cli_" + tag + "_metrics.json";
  Tensor x = MakeLowRankTensor({14, 12, 12}, {3, 3, 3}, 0.1, 7);
  EXPECT_TRUE(SaveTensor(x, tensor_path).ok());
  const std::string cmd = std::string(DTUCKER_CLI_PATH) +
                          " --op=decompose --tensor=" + tensor_path +
                          " --method=D-Tucker --rank=3 --iters=3" +
                          " --ranks=" + std::to_string(ranks) +
                          " --trace-out=" + trace_path +
                          " --metrics-out=" + metrics_path + " > /dev/null";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << "command failed: " << cmd;
  std::remove(tensor_path.c_str());
  return {trace_path, metrics_path};
}

TEST(ObservabilityCliTest, FourRankRunWritesOneCompleteTraceAndMetricsFile) {
  const auto [trace_path, metrics_path] = RunCliDecompose("ranks4", 4);
  ExpectNoPerRankFiles(trace_path, 4);
  ExpectNoPerRankFiles(metrics_path, 4);

  JsonValue trace;
  ASSERT_TRUE(JsonParser::Parse(ReadFileOrDie(trace_path), &trace));
  CheckMultiRankTraceDocument(trace, 4);
  JsonValue metrics;
  ASSERT_TRUE(JsonParser::Parse(ReadFileOrDie(metrics_path), &metrics));
  CheckMultiRankMetricsDocument(metrics);

  // The counters are the process's own, counted once. The 4 rank threads
  // split the slice work and each repeats only the small trailing update
  // and core, so the run's GEMM flops sit between 1x and 2x those of a
  // 1-rank run of the same solve (four stacked copies would read >= 4x).
  const auto [trace1_path, metrics1_path] = RunCliDecompose("ranks1", 1);
  JsonValue metrics1;
  ASSERT_TRUE(JsonParser::Parse(ReadFileOrDie(metrics1_path), &metrics1));
  const double flops4 = metrics.at("counters").at("gemm.flops").number_value;
  const double flops1 = metrics1.at("counters").at("gemm.flops").number_value;
  EXPECT_GE(flops4, flops1);
  EXPECT_LT(flops4, 2 * flops1);

  for (const std::string& path :
       {trace_path, metrics_path, trace1_path, metrics1_path}) {
    std::remove(path.c_str());
  }
}

TEST(ObservabilityCliTest, BadFlagValuesExitNonzero) {
  // A malformed value and the retired --transport and --rank-procs flags
  // (now unknown) are all rejected with a nonzero exit, before any work
  // starts.
  for (const char* args :
       {"--threads=abc", "--op=decompose --ranks=2 --transport=file",
        "--op=decompose --ranks=2 --rank-procs"}) {
    const std::string cmd = std::string(DTUCKER_CLI_PATH) + " " + args +
                            " > /dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    ASSERT_NE(rc, -1) << cmd;
    EXPECT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) != 0) << cmd;
  }
}

#endif  // DTUCKER_CLI_PATH

}  // namespace
}  // namespace dtucker
