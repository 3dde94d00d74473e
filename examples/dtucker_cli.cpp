// dtucker_cli: a command-line tool around the library.
//
// Modes:
//   --op=generate  write a synthetic dataset tensor to --tensor
//   --op=ranks     suggest Tucker ranks for --tensor at --energy
//   --op=compress  run the D-Tucker approximation phase, save to --approx
//   --op=decompose decompose --tensor (or a saved --approx) with --method,
//                  save the decomposition to --output
//   --op=round     recompress a saved decomposition (--output) to --rank,
//                  writing --round_output
//   --op=info      describe a saved tensor / approximation / decomposition
//
// Examples:
//   dtucker_cli --op=generate --dataset=stock --scale=0.3 --tensor=/tmp/s.dtnsr
//   dtucker_cli --op=ranks --tensor=/tmp/s.dtnsr --energy=0.9
//   dtucker_cli --op=compress --tensor=/tmp/s.dtnsr --approx=/tmp/s.dtsa
//   dtucker_cli --op=decompose --approx=/tmp/s.dtsa --rank=8 --output=/tmp/s.dtdc
//   dtucker_cli --op=decompose --tensor=/tmp/s.dtnsr --method=Tucker-ALS
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/metrics.h"
#include "common/table_printer.h"
#include "common/telemetry.h"
#include "data/datasets.h"
#include "data/decomposition_io.h"
#include "data/tensor_io.h"
#include "dtucker/api.h"

namespace dtucker {
namespace {

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

int RunOp(const FlagParser& flags) {
  // 0 = all hardware threads, mirroring the SetBlasThreads convention.
  int num_threads = static_cast<int>(flags.GetInt("threads"));
  if (num_threads == 0) {
    num_threads =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  const std::string op = flags.GetString("op");

  if (op == "generate") {
    if (flags.GetString("tensor").empty()) {
      return Fail(Status::InvalidArgument("--tensor output path required"));
    }
    Result<Tensor> t =
        MakeDataset(flags.GetString("dataset"), flags.GetDouble("scale"));
    if (!t.ok()) return Fail(t.status());
    Status save = SaveTensor(t.value(), flags.GetString("tensor"));
    if (!save.ok()) return Fail(save);
    std::printf("wrote %s %s (%s)\n", flags.GetString("tensor").c_str(),
                t.value().ShapeString().c_str(),
                TablePrinter::FormatBytes(t.value().ByteSize()).c_str());
    return 0;
  }

  if (op == "ranks") {
    Result<Tensor> t = LoadTensor(flags.GetString("tensor"));
    if (!t.ok()) return Fail(t.status());
    Result<RankSuggestion> sug =
        SuggestRanks(t.value(), flags.GetDouble("energy"));
    if (!sug.ok()) return Fail(sug.status());
    TablePrinter table({"mode", "dim", "suggested rank", "energy kept"});
    for (std::size_t n = 0; n < sug.value().ranks.size(); ++n) {
      table.AddRow({std::to_string(n + 1),
                    std::to_string(t.value().dim(static_cast<Index>(n))),
                    std::to_string(sug.value().ranks[n]),
                    TablePrinter::FormatDouble(
                        sug.value().retained_energy[n] * 100, 2) +
                        "%"});
    }
    table.Print();
    return 0;
  }

  if (op == "compress") {
    Result<Tensor> t = LoadTensor(flags.GetString("tensor"));
    if (!t.ok()) return Fail(t.status());
    if (flags.GetString("approx").empty()) {
      return Fail(Status::InvalidArgument("--approx output path required"));
    }
    SliceApproximationOptions opt;
    opt.slice_rank = std::min<Index>(
        flags.GetInt("rank"), std::min(t.value().dim(0), t.value().dim(1)));
    opt.num_threads = num_threads;
    Result<SliceApproximation> approx = ApproximateSlices(t.value(), opt);
    if (!approx.ok()) return Fail(approx.status());
    Status save =
        SaveSliceApproximation(approx.value(), flags.GetString("approx"));
    if (!save.ok()) return Fail(save);
    std::printf("compressed %s -> %s (%s -> %s, %.1fx)\n",
                flags.GetString("tensor").c_str(),
                flags.GetString("approx").c_str(),
                TablePrinter::FormatBytes(t.value().ByteSize()).c_str(),
                TablePrinter::FormatBytes(approx.value().ByteSize()).c_str(),
                static_cast<double>(t.value().ByteSize()) /
                    static_cast<double>(approx.value().ByteSize()));
    return 0;
  }

  if (op == "decompose") {
    // Both paths go through the Engine facade: it owns the RunContext,
    // validates options, sets the BLAS width, and publishes telemetry.
    EngineOptions eopt;
    eopt.method_options.tucker.max_iterations =
        static_cast<int>(flags.GetInt("iters"));
    eopt.method_options.num_threads = num_threads;
    eopt.blas_threads = num_threads;
    eopt.method_options.sweep_callback = [](const SweepTelemetry& t) {
      std::printf("sweep %2d: fit %.6f (delta %+0.2e) in %.3fs, "
                  "%llu subspace iterations\n",
                  t.sweep, t.fit, t.delta_fit, t.seconds,
                  static_cast<unsigned long long>(t.subspace_iterations));
    };
    TuckerDecomposition dec;
    TuckerStats stats;
    double err = -1;
    if (!flags.GetString("approx").empty()) {
      // Query the compressed form directly (D-Tucker query phase).
      Result<SliceApproximation> approx =
          LoadSliceApproximation(flags.GetString("approx"));
      if (!approx.ok()) return Fail(approx.status());
      for (Index d : approx.value().shape) {
        eopt.method_options.tucker.ranks.push_back(
            std::min<Index>(flags.GetInt("rank"), d));
      }
      Engine engine(std::move(eopt));
      Result<EngineRun> r = engine.SolveApproximation(approx.value());
      if (!r.ok()) return Fail(r.status());
      if (!r.value().status.ok()) return Fail(r.value().status);
      stats = r.value().stats;
      dec = std::move(r).ValueOrDie().decomposition;
    } else {
      Result<Tensor> t = LoadTensor(flags.GetString("tensor"));
      if (!t.ok()) return Fail(t.status());
      Result<TuckerMethod> method =
          ParseTuckerMethod(flags.GetString("method"));
      if (!method.ok()) return Fail(method.status());
      eopt.method = method.value();
      for (Index n = 0; n < t.value().order(); ++n) {
        eopt.method_options.tucker.ranks.push_back(
            std::min<Index>(flags.GetInt("rank"), t.value().dim(n)));
      }
      Engine engine(std::move(eopt));
      Result<EngineRun> run = engine.Solve(t.value());
      if (!run.ok()) return Fail(run.status());
      if (!run.value().status.ok()) return Fail(run.value().status);
      err = run.value().relative_error;
      stats = run.value().stats;
      dec = std::move(run).ValueOrDie().decomposition;
    }
    std::printf("decomposition: core %s, %zu factors, %s\n",
                dec.core.ShapeString().c_str(), dec.factors.size(),
                TablePrinter::FormatBytes(dec.ByteSize()).c_str());
    if (err >= 0) std::printf("relative error: %.4e\n", err);
    if (!flags.GetString("output").empty()) {
      Status save = SaveDecomposition(dec, flags.GetString("output"));
      if (!save.ok()) return Fail(save);
      std::printf("saved to %s\n", flags.GetString("output").c_str());
    }
    return 0;
  }

  if (op == "round") {
    Result<TuckerDecomposition> dec =
        LoadDecomposition(flags.GetString("output"));
    if (!dec.ok()) return Fail(dec.status());
    std::vector<Index> new_ranks;
    for (Index r : dec.value().Ranks()) {
      new_ranks.push_back(std::min<Index>(flags.GetInt("rank"), r));
    }
    Result<TuckerDecomposition> rounded =
        RoundTucker(dec.value(), new_ranks);
    if (!rounded.ok()) return Fail(rounded.status());
    std::printf("rounded core %s -> %s (%s -> %s)\n",
                dec.value().core.ShapeString().c_str(),
                rounded.value().core.ShapeString().c_str(),
                TablePrinter::FormatBytes(dec.value().ByteSize()).c_str(),
                TablePrinter::FormatBytes(rounded.value().ByteSize()).c_str());
    if (flags.GetString("round_output").empty()) {
      return Fail(Status::InvalidArgument("--round_output path required"));
    }
    Status save =
        SaveDecomposition(rounded.value(), flags.GetString("round_output"));
    if (!save.ok()) return Fail(save);
    std::printf("saved to %s\n", flags.GetString("round_output").c_str());
    return 0;
  }

  if (op == "info") {
    bool described = false;
    if (!flags.GetString("tensor").empty()) {
      Result<Tensor> t = LoadTensor(flags.GetString("tensor"));
      if (!t.ok()) return Fail(t.status());
      std::printf("tensor %s: %s, %s, |X|_F = %.6e\n",
                  flags.GetString("tensor").c_str(),
                  t.value().ShapeString().c_str(),
                  TablePrinter::FormatBytes(t.value().ByteSize()).c_str(),
                  t.value().FrobeniusNorm());
      described = true;
    }
    if (!flags.GetString("approx").empty()) {
      Result<SliceApproximation> a =
          LoadSliceApproximation(flags.GetString("approx"));
      if (!a.ok()) return Fail(a.status());
      std::printf("approximation %s: %td slices, slice rank %td, %s\n",
                  flags.GetString("approx").c_str(), a.value().NumSlices(),
                  a.value().slice_rank,
                  TablePrinter::FormatBytes(a.value().ByteSize()).c_str());
      described = true;
    }
    if (!flags.GetString("output").empty()) {
      Result<TuckerDecomposition> d =
          LoadDecomposition(flags.GetString("output"));
      if (!d.ok()) return Fail(d.status());
      std::printf("decomposition %s: core %s, %s\n",
                  flags.GetString("output").c_str(),
                  d.value().core.ShapeString().c_str(),
                  TablePrinter::FormatBytes(d.value().ByteSize()).c_str());
      described = true;
    }
    if (!described) {
      return Fail(Status::InvalidArgument(
          "--op=info needs --tensor, --approx, or --output"));
    }
    return 0;
  }

  return Fail(Status::InvalidArgument("unknown --op '" + op + "'"));
}

int Run(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("op", "info", "generate | ranks | compress | decompose | round | info");
  flags.AddString("dataset", "stock", "for --op=generate: " + DatasetNames());
  flags.AddDouble("scale", 0.3, "dataset size multiplier");
  flags.AddString("tensor", "", "tensor file path (.dtnsr)");
  flags.AddString("approx", "", "slice-approximation file path (.dtsa)");
  flags.AddString("output", "", "decomposition output path (.dtdc)");
  flags.AddString("round_output", "", "rounded decomposition path (.dtdc)");
  flags.AddString("method", "D-Tucker", "decomposition method name");
  flags.AddInt("rank", 10, "Tucker rank per mode (clamped to dims)");
  flags.AddDouble("energy", 0.9, "energy threshold for --op=ranks");
  flags.AddInt("iters", 20, "max ALS sweeps");
  flags.AddInt("threads", 1,
               "threads for every phase; D-Tucker's slice passes use at "
               "most 8 (one per chunk of the slice grid); default 1 = "
               "serial, 0 = all hardware threads");
  AddTelemetryFlags(&flags);
  Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.HelpString().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.HelpString().c_str());
    return 0;
  }
  InitTelemetryFromFlags(flags);
  // One run id per CLI invocation, named by every lane of the trace.
  SetTraceRunId(static_cast<std::uint64_t>(getpid()));
  const int rc = RunOp(flags);
  Status flush = FlushTelemetryFromFlags(flags);
  if (!flush.ok()) return Fail(flush);
  return rc;
}

}  // namespace
}  // namespace dtucker

int main(int argc, char** argv) { return dtucker::Run(argc, argv); }
